//! A thin wall-clock benchmark harness with the slice of the criterion
//! API the `crates/bench` figure harnesses use: `Criterion` with builder
//! knobs, `bench_function`/`Bencher::iter`, `black_box`, and
//! `final_summary`. Results print as an aligned table; harnesses that
//! record them take [`Criterion::results`].

use std::time::{Duration, Instant};

/// An opaque value barrier — prevents the optimiser from deleting the
/// benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One benchmark's measurements (nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark id as passed to [`Criterion::bench_function`].
    pub name: String,
    /// Mean ns/iter across samples.
    pub mean_ns: f64,
    /// Median ns/iter.
    pub median_ns: f64,
    /// Fastest sample's ns/iter.
    pub min_ns: f64,
    /// Total iterations executed.
    pub iters: u64,
}

/// The harness: collects timings per benchmark, prints a summary table.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    results: Vec<Sample>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(600),
            warm_up_time: Duration::from_millis(200),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Untimed warm-up budget before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark: `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] with the routine under test.
    pub fn bench_function(
        &mut self,
        name: &str,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples_ns: Vec::new(),
            iters: 0,
        };
        f(&mut bencher);
        let mut ns = bencher.samples_ns;
        if ns.is_empty() {
            ns.push(0.0);
        }
        ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let sample = Sample {
            name: name.to_string(),
            mean_ns: mean,
            median_ns: ns[ns.len() / 2],
            min_ns: ns[0],
            iters: bencher.iters,
        };
        println!(
            "bench {name:<48} {:>12}/iter  ({} samples)",
            fmt_ns(sample.median_ns),
            ns.len()
        );
        self.results.push(sample);
        self
    }

    /// Prints the summary table for every benchmark run so far. Mirrors
    /// criterion's `final_summary` call shape.
    pub fn final_summary(&mut self) {
        if self.results.is_empty() {
            return;
        }
        println!();
        println!(
            "{:<50} {:>12} {:>12} {:>12}",
            "benchmark", "median", "mean", "min"
        );
        for r in &self.results {
            println!(
                "{:<50} {:>12} {:>12} {:>12}",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns)
            );
        }
    }

    /// The collected results (for harnesses that record them).
    pub fn results(&self) -> &[Sample] {
        &self.results
    }
}

/// Passed to the closure given to [`Criterion::bench_function`].
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples_ns: Vec<f64>,
    iters: u64,
}

impl Bencher {
    /// Times `routine`: warms up, then records `sample_size` samples
    /// within the measurement budget. Return values are passed through
    /// [`black_box`] so the work is not optimised away.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm-up: also estimates iterations per sample.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            self.samples_ns.push(elapsed / iters_per_sample as f64);
            self.iters += iters_per_sample;
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_sample() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(3));
        c.bench_function("smoke/add", |b| b.iter(|| black_box(2u64) + 2));
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.name, "smoke/add");
        assert!(r.iters > 0);
        assert!(r.min_ns <= r.median_ns);
        c.final_summary();
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
    }
}
