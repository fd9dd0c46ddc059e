//! SMP: the Figure 8 throughput matrix across vCPU counts, plus the C1M
//! quiet-tick claim split per core.
//!
//! Two mirage unikernels (sender and receiver) each run a
//! [`Runtime::smp`] executor with one net-stack shard worker per vCPU; a
//! multi-queue netfront fans RX frames to per-core ingress rings by RSS
//! hash, so every flow's TCB is only ever touched by the core that owns
//! its shard. The matrix runs {1, 16} bulk flows at {1, 2, 4, 8} vCPUs
//! and reports aggregate goodput; the 16-flow row is the saturating one
//! the scaling gates in `scripts/bench.sh --smp` assert over (>=1.7x at
//! 2 vCPUs, >=3x at 4 vCPUs). The single-core 16-flow cell collapses
//! under congestion — the C10K story — which is exactly the failure mode
//! the extra cores remove.
//!
//! ```text
//! cargo run --release --example smp
//! ```
//!
//! `--json <path>` writes the matrix, the speedups and the per-core
//! split there; `scripts/bench.sh --smp` gates and records it as
//! `BENCH_smp.json`.
//!
//! Everything printed on **stdout** is a function of virtual time only
//! and is byte-identical across runs (`scripts/verify.sh --smp` diffs a
//! double run); wall-clock timings go to **stderr**.

use std::time::Instant;

use mirage::baseline::netperf::TcpEndpoint;
use mirage::hypervisor::Dur;
use mirage_bench::netsim::{idle_smp, iperf_smp};
use mirage_bench::obj;
use mirage_bench::report::{rounded, write_json};

/// Bytes per flow in the matrix.
const BYTES: usize = 200_000;
/// Idle connections held for the per-core split.
const CONNS: usize = 2048;
/// Server width of the per-core split.
const IDLE_VCPUS: usize = 4;
/// Quiet window of the per-core split, virtual ms.
const QUIET_MS: u64 = 64;

fn main() {
    println!("transfer   : {BYTES} bytes/flow");

    let mut matrix = obj! {};
    let mut saturating = Vec::new();
    for flows in [1usize, 16] {
        let mut row = obj! {};
        for vcpus in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let r = iperf_smp(TcpEndpoint::Mirage, TcpEndpoint::Mirage, vcpus, flows, BYTES);
            eprintln!(
                "wall: cell flows={flows} vcpus={vcpus} took {:.2} s",
                t0.elapsed().as_secs_f64()
            );
            println!(
                "cell flows={flows:<2} vcpus={vcpus} : goodput {:.1} Mb/s ({} bytes)",
                r.mbps, r.bytes
            );
            row.push(
                vcpus.to_string(),
                obj! { "goodput_mbps" => rounded(r.mbps, 1), "bytes" => r.bytes },
            );
            if flows == 16 {
                saturating.push((vcpus, r.mbps));
            }
        }
        matrix.push(format!("flows{flows}"), row);
    }

    let base = saturating
        .iter()
        .find(|(v, _)| *v == 1)
        .map(|(_, m)| *m)
        .expect("1-vCPU cell present");
    let speedup = |want: usize| {
        saturating
            .iter()
            .find(|(v, _)| *v == want)
            .map(|(_, m)| m / base)
            .expect("cell present")
    };
    println!(
        "scaling    : x{:.2} at 2 vcpus, x{:.2} at 4 vcpus, x{:.2} at 8 vcpus (16-flow row)",
        speedup(2),
        speedup(4),
        speedup(8)
    );

    // C1M quiet-tick split per core: a 4-vCPU server holds idle
    // keep-alive connections through a 64 ms quiet window; an idle
    // connection arms no deadline, so every core's wheel must stay
    // silent — the O(due work) claim holds per core, not just in
    // aggregate.
    let t0 = Instant::now();
    let r = idle_smp(IDLE_VCPUS, CONNS, Dur::millis(QUIET_MS));
    eprintln!("wall: idle split took {:.2} s", t0.elapsed().as_secs_f64());
    println!(
        "idle split : {} conns held on {IDLE_VCPUS} vcpus, {QUIET_MS} ms quiet window",
        r.established
    );
    let mut per_core = Vec::new();
    for (core, (held, polls)) in r
        .conns_per_core
        .iter()
        .zip(&r.quiet_polls_per_core)
        .enumerate()
    {
        println!("  core {core}   : conns {held:>5}, quiet timer polls {polls}");
        per_core.push(obj! { "core" => core, "conns" => *held, "quiet_polls" => *polls });
    }

    write_json(&obj! {
        "scenario" => "smp",
        "bytes_per_flow" => BYTES,
        "matrix" => matrix,
        "speedup_16flows" => obj! {
            "x2" => rounded(speedup(2), 2),
            "x4" => rounded(speedup(4), 2),
            "x8" => rounded(speedup(8), 2),
        },
        "idle_split" => obj! {
            "conns" => r.established,
            "vcpus" => IDLE_VCPUS,
            "quiet_ms" => QUIET_MS,
            "per_core" => per_core,
        },
    });
}
