//! Runs one workload of the mirage-rs benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dns_udp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the untraced workload runs for about `--seconds` of
//! host CPU time (at least once), and the last line of standard output
//! is a JSON object with the end-to-end metrics.
//! With `--trace 1` one untraced and one traced run are made, the traced
//! run's virtual-time metrics are checked against the untraced run's, and
//! the JSON holds the per-layer metrics. Lines before it are a summary.
//! `host_s` and `setup_s` are CPU seconds scaled to the host speed the
//! reference kernel in `clock.rs` was calibrated at, run by run.

use std::process::{Command, ExitCode};

use mirage_perfbench::clock::Speed;
use mirage_perfbench::stats::{median, put, quartiles, result_line, Metric, Metrics};
use mirage_perfbench::{Outcome, Size, Workload, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spread(label: &str, xs: &[f64], unit: &str) {
    let med = median(xs).unwrap_or(0.0);
    match quartiles(xs) {
        Some([q1, _, q3]) => println!(
            "# {label} = {med} {unit} (median; quartiles {q1} .. {q3}; {} runs)",
            xs.len()
        ),
        None => println!("# {label} = {med} {unit} (1 run)"),
    }
}

/// One run of `w`, with the factor that scales its host seconds to the
/// calibrated host speed and the number of samples behind it.
fn timed_run(w: Workload, seed: u64, trace: bool) -> (Outcome, f64, usize) {
    let speed = Speed::start();
    let o = w.run(Size::Full, seed, trace);
    let (factor, n) = speed.stop();
    (o, factor, n)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload bulk_tcp|dns_udp|web_rw --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    // Untraced runs: the end-to-end metrics. A traced run needs one, as
    // the reference for its virtual metrics and its overhead. The count
    // depends only on `--seconds`, so every run of the benchmark measures
    // the same work.
    let count = if args.trace {
        1
    } else {
        ((args.seconds / w.nominal_run_s()).round() as usize).max(1)
    };
    let mut runs: Vec<Outcome> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut speed_samples = 0;
    let mut rss = 0.0;
    for i in 0..count {
        let (o, factor, n) = timed_run(w, args.seed, false);
        runs.push(o);
        speeds.push(factor);
        speed_samples += n;
        if i == 0 {
            rss = peak_rss_mb();
        }
    }
    let first = &runs[0];
    let host: Vec<f64> = runs
        .iter()
        .zip(&speeds)
        .map(|(o, f)| o.host_s * f)
        .collect();
    let setup: Vec<f64> = runs
        .iter()
        .zip(&speeds)
        .map(|(o, f)| o.setup_s * f)
        .collect();
    let host_raw: Vec<f64> = runs.iter().map(|o| o.host_s).collect();

    println!(
        "# perfbench workload={} seed={} trace={} runs={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        runs.len()
    );
    println!(
        "# provenance: commit={} rustc=\"{}\" nproc={}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut checks: Vec<(&str, bool)> = Vec::new();
    checks.push((
        "virtual metrics and counters identical in every run",
        runs.iter()
            .all(|o| o.virt == first.virt && o.counters == first.counters),
    ));

    let failed = first.failed();
    let fails: Vec<String> = first
        .failures
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# fail_ratio = {failed}/{} = {} (failed checks: {})",
        first.attempted,
        failed as f64 / first.attempted.max(1) as f64,
        if fails.is_empty() {
            "none".into()
        } else {
            fails.join(" ")
        }
    );

    let mut metrics: Metrics;
    if !args.trace {
        for (name, m) in &first.virt {
            let n = match name.as_str() {
                "write_p99_us" => first.samples.get("write"),
                "goodput_mbps" => None,
                _ => first.samples.get("lat"),
            };
            let samples = n.map_or(String::new(), |n| format!("; {n} samples"));
            println!(
                "# {name} = {} {} (virtual, exact{samples})",
                m.value, m.unit
            );
        }
        metrics = first.virt.clone();
        spread("host_s", &host, "s");
        spread("setup_s", &setup, "s");
        spread("host_s before scaling", &host_raw, "s");
        spread("host speed factor", &speeds, "ratio");
        println!("# host speed: {speed_samples} reference samples");
        put(&mut metrics, "host_s", median(&host).unwrap_or(0.0), "s");
        put(&mut metrics, "setup_s", median(&setup).unwrap_or(0.0), "s");
        println!("# peak_rss_mb = {rss} MiB (VmHWM after the first run)");
        put(&mut metrics, "peak_rss_mb", rss, "MiB");
        for (name, _) in END_TO_END {
            assert!(
                metrics.contains_key(name),
                "end-to-end metric {name} missing"
            );
        }
    } else {
        let (traced, traced_speed, _) = timed_run(w, args.seed, true);
        checks.push((
            "traced run's virtual metrics and counters equal the untraced run's",
            traced.virt == first.virt && traced.counters == first.counters,
        ));
        checks.push((
            "sum of layer host seconds <= traced host_s",
            traced.layer_host_s <= traced.host_s,
        ));
        checks.push((
            "every domain's busiest lane <= elapsed virtual time",
            traced.lanes_within_elapsed,
        ));
        let overhead = (traced.host_s * traced_speed) / host[0];
        println!(
            "# trace.overhead_ratio = {overhead} (traced host_s {} / untraced host_s {}, scaled); layer host sum {} s of {} s traced before scaling",
            traced.host_s * traced_speed,
            host[0],
            traced.layer_host_s,
            traced.host_s
        );
        let (rate, probes) = w.max_rate(Size::Full, args.seed);
        let found = match (rate, probes) {
            (Some(r), _) => r.to_string(),
            (None, 0) => "not searched: closed loop".into(),
            (None, _) => "none: the fixed-load rate already misses the limit".into(),
        };
        println!("# loadgen.max_rate_per_s = {found} ({probes} probes)");
        let mut layer = traced.layer.clone();
        put(&mut layer, "trace.overhead_ratio", overhead, "ratio");
        put(
            &mut layer,
            "loadgen.max_rate_per_s",
            rate.unwrap_or(0.0),
            "1/s",
        );
        put(
            &mut layer,
            "fail_ratio",
            failed as f64 / first.attempted.max(1) as f64,
            "ratio",
        );
        for (name, unit) in PER_LAYER {
            layer
                .entry(name.to_owned())
                .or_insert(Metric { value: 0.0, unit });
        }
        layer.retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
        for (name, m) in &layer {
            println!("# {name} = {} {}", m.value, m.unit);
        }
        metrics = layer;
    }
    for (what, ok) in &checks {
        println!("# self-check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }

    // `correct` is false when a check found wrong data delivered as a
    // success, or when the harness's own determinism checks failed.
    // Errors, timeouts and lost writes are failures, counted in `failed`.
    let correct = first.wrong == 0 && checks.iter().all(|(_, ok)| *ok);
    println!(
        "{}",
        result_line(correct, first.attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
