//! Harness self-test on a reduced-size pass of each workload.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::sync::{Mutex, MutexGuard};

use mirage_perfbench::{Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn run(w: Workload, seed: u64, trace: bool) -> Outcome {
    w.run(Size::Reduced, seed, trace)
}

/// The copy counters a run reads are process-wide, so the tests take
/// turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn one_seed_gives_identical_virtual_metrics_and_counters() {
    let _turn = serial();
    for w in Workload::ALL {
        let a = run(w, 7, false);
        let b = run(w, 7, false);
        let traced = run(w, 7, true);
        assert!(a.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(
            a.virt,
            b.virt,
            "{}: virtual metrics differ between runs",
            w.name()
        );
        assert_eq!(
            a.counters,
            b.counters,
            "{}: counters differ between runs",
            w.name()
        );
        assert_eq!(
            a.virt,
            traced.virt,
            "{}: tracing moved a virtual metric",
            w.name()
        );
        assert_eq!(
            a.counters,
            traced.counters,
            "{}: tracing moved a counter",
            w.name()
        );
        assert!(
            traced.layer_host_s <= traced.host_s,
            "{}: layers exceed the run",
            w.name()
        );
        assert!(
            traced.lanes_within_elapsed,
            "{}: a lane was busier than elapsed",
            w.name()
        );
    }
}

#[test]
fn another_seed_changes_the_schedule() {
    let _turn = serial();
    for w in Workload::ALL {
        let a = run(w, 7, false);
        let b = run(w, 8, false);
        assert!(
            a.virt != b.virt || a.counters != b.counters,
            "{}: seeds 7 and 8 produced the same run",
            w.name()
        );
    }
}

/// The `name`s listed in one section (`"end_to_end"` or `"per_layer"`)
/// of BENCHMARK.json.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("quoted name") + 1..];
            s[..s.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let _turn = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let mut layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    let (mut json_e2e, mut json_layer) =
        (names_in(&json, "end_to_end"), names_in(&json, "per_layer"));
    for v in [&mut e2e, &mut layer, &mut json_e2e, &mut json_layer] {
        v.sort();
    }
    assert_eq!(e2e, json_e2e);
    assert_eq!(layer, json_layer);

    // What a run measures on the virtual clock, plus the three host-side
    // metrics the binary adds, is exactly the end-to-end set; every layer
    // metric a traced run measures is a listed one.
    for w in Workload::ALL {
        let o = run(w, 7, true);
        let mut names: Vec<String> = o.virt.keys().cloned().collect();
        names.extend(["host_s", "peak_rss_mb", "setup_s"].map(String::from));
        names.sort();
        assert_eq!(names, e2e, "{}", w.name());
        for name in o.layer.keys() {
            assert!(
                layer.contains(name),
                "{}: unlisted layer metric {name}",
                w.name()
            );
        }
    }
}
