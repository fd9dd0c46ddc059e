//! End-to-end benchmark harness for mirage-rs.
//!
//! Three workloads drive the live stack through the simulated dom0
//! switch: `bulk_tcp` (closed-loop bulk flows between SMP unikernels),
//! `dns_udp` (open-loop Poisson queries against the memoized DNS
//! appliance) and `web_rw` (open-loop httperf sessions against the HTTP +
//! B-tree appliance). Each builds its world through public APIs only and
//! measures each layer from outside, by wrapping the calls into it. See
//! `NOTES.md` for the metric definitions and the two-clock rule.

use std::collections::BTreeMap;

pub mod bulk;
pub mod clock;
pub mod dns;
pub mod loadgen;
pub mod probe;
pub mod stats;
pub mod web;
pub mod world;

use stats::Metrics;

/// Everything one measured phase of one world produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the workload attempted (flows, queries, requests).
    pub attempted: u64,
    /// Operations that failed any check, by the name of the check.
    pub failures: BTreeMap<&'static str, u64>,
    /// Failed checks that found wrong data delivered as a success, as
    /// opposed to an error or a missing reply.
    pub wrong: u64,
    /// Virtual-clock end-to-end metrics; deterministic for a seed.
    pub virt: Metrics,
    /// Sample count behind each latency metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Layer counters read at phase boundaries; deterministic for a seed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer metrics (complete only when traced).
    pub layer: Metrics,
    /// Host seconds of world build, boot and warm-up.
    pub setup_s: f64,
    /// Host seconds of the fixed-load measured phase.
    pub host_s: f64,
    /// Σ of the per-layer host seconds (traced runs).
    pub layer_host_s: f64,
    /// Every domain's busiest vCPU lane stayed within elapsed virtual time.
    pub lanes_within_elapsed: bool,
    /// The open-loop requests met the workload's latency limit at p99,
    /// failed at most 1 %, and the backlog did not grow.
    pub meets_limit: bool,
}

impl Outcome {
    /// Total failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Counts one failure of check `name`.
    pub fn fail(&mut self, name: &'static str, n: u64) {
        if n > 0 {
            *self.failures.entry(name).or_default() += n;
        }
    }
}

/// Workload size: the full benchmark, or the reduced pass the harness
/// self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkTcp,
    DnsUdp,
    WebRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BulkTcp, Workload::DnsUdp, Workload::WebRw];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkTcp => "bulk_tcp",
            Workload::DnsUdp => "dns_udp",
            Workload::WebRw => "web_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host CPU seconds one untraced run takes on the machine the
    /// benchmark was tuned on; `--seconds` divided by this, rounded, is
    /// the number of runs, so it does not depend on the host's speed.
    pub fn nominal_run_s(self) -> f64 {
        match self {
            Workload::BulkTcp => 20.0,
            Workload::DnsUdp => 1.25,
            Workload::WebRw => 11.0,
        }
    }

    /// Builds the workload's world(s), runs set-up and the measured phase
    /// and checks every output.
    pub fn run(self, size: Size, seed: u64, trace: bool) -> Outcome {
        match self {
            Workload::BulkTcp => bulk::run(&bulk::params(size), seed, trace),
            Workload::DnsUdp => dns::run(&dns::params(size), seed, trace),
            Workload::WebRw => web::run(&web::params(size), seed, trace),
        }
    }

    /// Highest offered rate meeting the latency limit, found by a
    /// deterministic bisection whose probes are fresh untraced worlds;
    /// `None` for the closed-loop workload, and when even the fixed-load
    /// rate fails. Also returns the number of probes run.
    pub fn max_rate(self, size: Size, seed: u64) -> (Option<f64>, usize) {
        match self {
            Workload::BulkTcp => (None, 0),
            Workload::DnsUdp => {
                let p = dns::params(size);
                let probe = dns::Params {
                    queries: p.queries / 4,
                    ..p
                };
                loadgen::search_max_rate(p.rate, p.rate * 4.0, 0.02, |rate| {
                    dns::run(&dns::Params { rate, ..probe }, seed, false).meets_limit
                })
            }
            Workload::WebRw => {
                let p = web::params(size);
                let probe = web::Params {
                    episodes: p.episodes.div_ceil(8),
                    ..p
                };
                loadgen::search_max_rate(p.rate, p.rate * 4.0, 0.02, |rate| {
                    web::run(&web::Params { rate, ..probe }, seed, false).meets_limit
                })
            }
        }
    }
}

/// End-to-end metrics, printed by an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("goodput_mbps", "Mb/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("write_p99_us", "us"),
    ("host_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run: (name, unit). A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("hypervisor.self_host_s", "s"),
    ("hypervisor.steps_per_op", "count"),
    ("hypervisor.notify_per_op", "count"),
    ("hypervisor.hypercalls_per_op", "count"),
    ("hypervisor.grant_ops_per_mb", "count"),
    ("hypervisor.build_ms", "ms"),
    ("boot_ms", "ms"),
    ("devices.back.host_s", "s"),
    ("devices.back.busy_frac", "ratio"),
    ("devices.back.drops_congestion", "count"),
    ("devices.back.drops_no_rx_buffer", "count"),
    ("devices.back.blk_per_req", "count"),
    ("devices.front.host_s", "s"),
    ("devices.front.virt_us_per_op", "us"),
    ("devices.front.useful_ratio", "ratio"),
    ("cstruct.copy_bytes_per_byte", "ratio"),
    ("cstruct.serialize_bytes_per_byte", "ratio"),
    ("net.tcp.segs_per_mb", "count"),
    ("net.tcp.retx_ratio", "ratio"),
    ("net.tcp.rto", "count"),
    ("net.tcp.connect_p99_us", "us"),
    ("net.stack.max_conns", "count"),
    ("net.stack.syn_cookies_sent", "count"),
    ("net.stack.timer_polls_per_op", "count"),
    ("runtime.server.host_s", "s"),
    ("runtime.client.host_s", "s"),
    ("runtime.server.busy_frac", "ratio"),
    ("runtime.client.busy_frac", "ratio"),
    ("runtime.steals", "count"),
    ("runtime.tasks_per_op", "count"),
    ("storage.set_p99_us", "us"),
    ("storage.get_p99_us", "us"),
    ("storage.host_s", "s"),
    ("storage.errors", "count"),
    ("storage.lost_writes", "count"),
    ("http.handler_p99_us", "us"),
    ("http.errors", "count"),
    ("dns.host_s", "s"),
    ("dns.memo_hit_ratio", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.max_rate_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];
