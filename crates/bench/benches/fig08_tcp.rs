//! Figure 8 — "Comparative TCP throughput performance with all hardware
//! offload disabled": the iperf matrix, measured through the live TCP
//! stack in virtual time, plus the closed-form endpoint model.
//! `--json <path>` writes the table and the Criterion timings there.

use mirage_baseline::netperf::TcpEndpoint;
use mirage_bench::netsim::{iperf, PAIRINGS};
use mirage_bench::obj;
use mirage_bench::report::{self, Json};
use mirage_hypervisor::CostTable;

/// Prints the figure; returns the live-stack rows by configuration.
fn print_figure() -> Json {
    report::banner(
        "Figure 8",
        "TCP throughput (Mb/s), live stack in virtual time",
    );
    let costs = CostTable::defaults();
    let mut rows = Vec::new();
    let mut throughput = obj! {};
    for (name, tx, rx) in PAIRINGS {
        let one = iperf(tx, rx, 1, 2_000_000);
        let ten = iperf(tx, rx, 10, 400_000);
        let model = TcpEndpoint::pair_throughput_mbps(tx, rx, &costs);
        rows.push(vec![
            name.to_owned(),
            report::f(one.mbps, 0),
            report::f(ten.mbps, 0),
            report::f(model, 0),
        ]);
        throughput.push(
            name,
            obj! {
                "mbps_1flow" => report::rounded(one.mbps, 0) as i64,
                "mbps_10flows" => report::rounded(ten.mbps, 0) as i64,
            },
        );
    }
    report::table(
        &["Configuration", "1 flow", "10 flows", "model"],
        &rows,
    );
    println!("paper: L->L 1590/1534, L->M 1742/1710, M->L 975/952 Mb/s");
    throughput
}

fn main() {
    let throughput = print_figure();
    let mut c = mirage_bench::criterion();
    c.bench_function("fig08/iperf_linux_to_mirage_300kB", |b| {
        b.iter(|| iperf(TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000))
    });
    c.final_summary();
    report::write_json(&obj! {
        "throughput" => throughput,
        "criterion" => report::timings(c.results()),
    });
}
