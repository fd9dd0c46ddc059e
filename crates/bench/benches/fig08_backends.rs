//! Figure 8 × ring ABI: the iperf pairings of `fig08_tcp`, with the
//! device transport as an explicit axis — the same flows ride Xen-style
//! descriptor rings or virtio split virtqueues, and a parity gate checks
//! that neither transport distorts the endpoint-cost model.
//! `--json <path>` writes both tables and the Criterion timings there.

use mirage_baseline::netperf::TcpEndpoint;
use mirage_bench::netsim::{iperf_on, iperf_smp_on, PAIRINGS};
use mirage_bench::obj;
use mirage_bench::report::{self, rounded, Json};
use mirage_devices::Backend;

/// Prints the figure; returns the `throughput` and `smp` sections, each
/// keyed by backend.
fn print_figure() -> (Json, Json) {
    report::banner(
        "Figure 8 x backend",
        "TCP throughput (Mb/s), ring ABI as an axis",
    );
    let mut rows = Vec::new();
    let mut throughput = obj! {};
    for backend in Backend::ALL {
        let mut by_pairing = obj! {};
        for (name, tx, rx) in PAIRINGS {
            let one = iperf_on(backend, tx, rx, 1, 1_000_000);
            let four = iperf_on(backend, tx, rx, 4, 250_000);
            rows.push(vec![
                backend.name().to_owned(),
                name.to_owned(),
                report::f(one.mbps, 0),
                report::f(four.mbps, 0),
            ]);
            by_pairing.push(
                name,
                obj! {
                    "mbps_1flow" => rounded(one.mbps, 0) as i64,
                    "mbps_4flows" => rounded(four.mbps, 0) as i64,
                },
            );
        }
        throughput.push(backend.name(), by_pairing);
    }
    report::table(&["Backend", "Configuration", "1 flow", "4 flows"], &rows);

    // The SMP path: one virtqueue pair (or one Xen ring pair) per vCPU,
    // RSS-shared across four shard workers.
    let (vcpus, flows) = (4, 8);
    let mut smp = obj! {};
    for backend in Backend::ALL {
        let r = iperf_smp_on(backend, TcpEndpoint::Mirage, TcpEndpoint::Mirage, vcpus, flows, 100_000);
        println!(
            "smp backend={} vcpus={vcpus} flows={flows} : goodput {:.0} Mb/s ({} bytes)",
            backend.name(),
            r.mbps,
            r.bytes
        );
        smp.push(
            backend.name(),
            obj! {
                "vcpus" => vcpus,
                "flows" => flows,
                "goodput_mbps" => rounded(r.mbps, 0),
                "bytes" => r.bytes,
            },
        );
    }
    (throughput, smp)
}

fn main() {
    let (throughput, smp) = print_figure();
    let mut c = mirage_bench::criterion();
    c.bench_function("fig08_backends/iperf_virtio_linux_to_mirage_300kB", |b| {
        b.iter(|| iperf_on(Backend::Virtio, TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000))
    });
    c.final_summary();
    report::write_json(&obj! {
        "scenario" => "fig08_backends",
        "throughput" => throughput,
        "smp" => smp,
        "criterion" => report::timings(c.results()),
    });
}
