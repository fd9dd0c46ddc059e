//! Figure 12 — "Simple dynamic web appliance performance": httperf-style
//! sessions (9 GETs + 1 POST) against the Twitter-like appliance, Mirage
//! vs nginx+FastCGI+web.py, with a Criterion measurement of the real
//! B-tree-backed request path. `--json <path>` writes the Criterion
//! timings there.

use mirage_baseline::DynamicWebVariant;
use mirage_bench::obj;
use mirage_bench::report;
use mirage_hypervisor::CostTable;
use mirage_hypervisor::Hypervisor;
use mirage_runtime::UnikernelGuest;
use mirage_storage::{MemLog, Tree};

fn print_figure() {
    report::banner(
        "Figure 12",
        "reply rate (/s) vs session creation rate (/s); 10 requests/session",
    );
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    for sessions in [5u32, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        rows.push(vec![
            format!("{sessions}"),
            report::f(
                DynamicWebVariant::Mirage.reply_rate(&costs, sessions as f64),
                0,
            ),
            report::f(
                DynamicWebVariant::LinuxWebPy.reply_rate(&costs, sessions as f64),
                0,
            ),
        ]);
    }
    report::table(&["sessions/s", "Mirage", "Linux PV"], &rows);
    println!("paper: Mirage linear to ~80 sessions/s; Linux saturates ~20 and degrades");
}

fn main() {
    print_figure();
    let mut c = mirage_bench::criterion();
    c.bench_function("fig12/real_btree_tweet_session", |b| {
        b.iter(|| {
            let guest = UnikernelGuest::new(|_env, rt| {
                rt.spawn(async {
                    let tree = Tree::new(MemLog::new());
                    for seq in 0..20u32 {
                        let key = format!("user:7:tweet:{seq}");
                        tree.set(key.as_bytes(), b"140 characters of insight")
                            .await
                            .unwrap();
                    }
                    for _ in 0..9 {
                        mirage_testkit::bench::black_box(tree.scan().await.unwrap());
                    }
                    0i64
                })
            });
            let mut hv = Hypervisor::new();
            let dom = hv.create_domain("tweets", 64, Box::new(guest));
            hv.run();
            assert_eq!(hv.exit_code(dom), Some(0));
        })
    });
    c.final_summary();
    report::write_json(&obj! { "criterion" => report::timings(c.results()) });
}
