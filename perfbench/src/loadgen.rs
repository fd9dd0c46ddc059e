//! Seeded load generation and the client-side request log.
//!
//! Schedules are drawn on the host before the world is built, from the
//! benchmark's `--seed` only; the program under test sees nothing but the
//! traffic.

use mirage_hypervisor::{Dur, Time};
use mirage_testkit::rng::Rng;

use crate::stats::{median, percentile};

/// A uniform draw in (0, 1].
fn unit(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// `count` Poisson arrival instants at `rate_per_s`, the first one
/// exponential time after `start`.
pub fn poisson(rng: &mut Rng, rate_per_s: f64, count: usize, start: Time) -> Vec<Time> {
    let mut t = start.as_nanos() as f64;
    (0..count)
        .map(|_| {
            t += -unit(rng).ln() / rate_per_s * 1e9;
            Time::from_nanos(t as u64)
        })
        .collect()
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = unit(rng);
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Workload-defined request class (e.g. write vs read).
    pub class: u8,
    /// When the request was due: its scheduled send time in an open loop,
    /// or the previous reply on a connection.
    pub due: Time,
    /// When the reply arrived or the failure was detected.
    pub done: Time,
    /// Reply arrived and passed its check.
    pub ok: bool,
}

impl Sample {
    /// Virtual latency in µs, from due to done.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_since(self.due).as_nanos() as f64 / 1e3
    }
}

/// Latency percentiles over a request log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Percentiles over the successful requests `keep` selects. Failed
/// requests are counted by the caller, in `fail_ratio`.
pub fn summarize(log: &[Sample], keep: impl Fn(&Sample) -> bool) -> LatencySummary {
    let lat: Vec<f64> = log
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(Sample::latency_us)
        .collect();
    LatencySummary {
        p50_us: percentile(&lat, 50.0).unwrap_or(0.0),
        p99_us: percentile(&lat, 99.0).unwrap_or(0.0),
        samples: lat.len(),
    }
}

/// Whether the server fell behind over the run: in due order, the median
/// latency of the last quarter of successful requests is more than twice
/// that of the second quarter.
pub fn backlog_grows(log: &[Sample]) -> bool {
    let mut by_due: Vec<&Sample> = log.iter().filter(|s| s.ok).collect();
    by_due.sort_by_key(|s| s.due);
    let q = by_due.len() / 4;
    if q == 0 {
        return false;
    }
    let lat = |xs: &[&Sample]| -> f64 {
        let v: Vec<f64> = xs.iter().map(|s| s.latency_us()).collect();
        median(&v).unwrap_or(0.0)
    };
    lat(&by_due[3 * q..]) > 2.0 * lat(&by_due[q..2 * q])
}

/// Whether a probe at one offered rate fails at most 1 % of requests,
/// meets the latency limit at p99, and keeps up with its schedule.
pub fn rate_ok(log: &[Sample], limit: Dur) -> bool {
    let failed = log.iter().filter(|s| !s.ok).count();
    !log.is_empty()
        && failed * 100 <= log.len()
        && summarize(log, |_| true).p99_us <= limit.as_nanos() as f64 / 1e3
        && !backlog_grows(log)
}

/// Deterministic bisection for the highest offered rate that `probe`
/// accepts, between `lo` and `hi`, stopping once the bracket is narrower
/// than `resolution` (a share of `lo`). Returns the highest accepted rate
/// and the number of probes run; `None` when even `lo` fails.
pub fn search_max_rate(
    mut lo: f64,
    mut hi: f64,
    resolution: f64,
    mut probe: impl FnMut(f64) -> bool,
) -> (Option<f64>, usize) {
    let mut probes = 1;
    if !probe(lo) {
        return (None, probes);
    }
    while (hi - lo) / lo > resolution {
        let mid = (lo * hi).sqrt();
        probes += 1;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (Some(lo), probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_close() {
        let mut rng = Rng::new(7);
        let t = poisson(&mut rng, 1000.0, 10_000, Time::ZERO);
        let secs = t.last().unwrap().as_secs_f64();
        assert!(
            (secs - 10.0).abs() < 0.5,
            "10k arrivals at 1k/s took {secs} s"
        );
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(3);
        let mut hits = [0usize; 100];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
    }

    #[test]
    fn bisection_finds_the_threshold() {
        let (r, probes) = search_max_rate(100.0, 1000.0, 0.01, |r| r <= 420.0);
        let r = r.unwrap();
        assert!((415.0..=420.0).contains(&r), "{r}");
        assert!(probes < 12);
        assert_eq!(search_max_rate(100.0, 1000.0, 0.01, |_| false), (None, 1));
    }
}
