//! The simulated world every workload builds: a hypervisor, dom0 with the
//! switch and disk backends, and guest domains, each optionally wrapped
//! in a probe. Phase boundaries snapshot the program's own counters.

use std::sync::Arc;
use std::time::Duration;

use mirage_devices::{DiskProfile, DriverDomain, DriverStats, NetProfile, Xenstore};
use mirage_hypervisor::{DomainId, Dur, Guest, HvStats, Hypervisor, Time};
use mirage_net::{copy_counters, CopyCounters};
use mirage_runtime::Runtime;

use crate::clock::{self, Cpu};
use crate::probe::{snapshot, DomainProbe, DomainTrace, Tracer};
use crate::stats::{put, Metrics};

/// Roles a domain plays; per-layer metrics are keyed by them.
pub const DOM0: &str = "dom0";
pub const SERVER: &str = "server";
pub const CLIENT: &str = "client";

/// A hypervisor plus the handles the harness reads counters through.
pub struct World {
    pub hv: Hypervisor,
    pub xs: Xenstore,
    pub tracer: Tracer,
    dom0_stats: Arc<mirage_testkit::sync::Mutex<DriverStats>>,
    probes: Vec<(&'static str, Option<DomainProbe>)>,
    runtimes: Vec<Runtime>,
    run_host: Duration,
}

/// Counters at one phase boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub at: Time,
    pub hv: HvStats,
    pub dom0: DriverStats,
    pub copies: CopyCounters,
    pub run_host: Duration,
    pub traces: Vec<(&'static str, DomainTrace)>,
    pub steals: u64,
    pub tasks: u64,
}

impl World {
    /// A world on `pcpus` physical CPUs with a `dom0_vcpus`-wide driver
    /// domain serving a `net` fabric and a PCIe SSD.
    pub fn new(trace: bool, pcpus: usize, dom0_vcpus: usize, net: NetProfile) -> World {
        let tracer = Tracer::new(trace);
        let xs = Xenstore::new();
        let mut hv = Hypervisor::with_pcpus(pcpus);
        let dd = DriverDomain::with_profiles(xs.clone(), net, DiskProfile::pcie_ssd());
        let dom0_stats = dd.stats_handle();
        let probe = tracer.domain();
        hv.create_domain_vcpus("dom0", 512, Tracer::guest(&probe, Box::new(dd)), dom0_vcpus);
        World {
            hv,
            xs,
            tracer,
            dom0_stats,
            probes: vec![(DOM0, probe)],
            runtimes: Vec::new(),
            run_host: Duration::ZERO,
        }
    }

    /// A probe for a new domain in `role`, registered for snapshots.
    pub fn probe(&mut self, role: &'static str) -> Option<DomainProbe> {
        let p = self.tracer.domain();
        self.probes.push((role, p.clone()));
        p
    }

    /// Registers a guest's runtime, whose steal and spawn counters the
    /// snapshots read.
    pub fn runtime(&mut self, rt: &Runtime) {
        self.runtimes.push(rt.clone());
    }

    /// Creates a `vcpus`-wide domain now, wrapped in `probe`.
    pub fn create(
        &mut self,
        name: &str,
        vcpus: usize,
        probe: &Option<DomainProbe>,
        guest: Box<dyn Guest>,
    ) -> DomainId {
        self.hv
            .create_domain_vcpus(name, 128, Tracer::guest(probe, guest), vcpus)
    }

    /// Runs the schedule until `limit`, timing the host and counting the
    /// time towards the next host-speed sample.
    pub fn run_until(&mut self, limit: Time) {
        let t = Cpu::now();
        self.hv.run_until(limit);
        let host = t.elapsed();
        self.run_host += host;
        clock::tick(host);
    }

    /// Runs in `chunk`-sized slices of virtual time until `done` holds,
    /// the domain `watch` exits, or `deadline` passes.
    pub fn run_until_done(
        &mut self,
        done: impl Fn() -> bool,
        watch: DomainId,
        chunk: Dur,
        deadline: Time,
    ) {
        while !done() && self.hv.exit_code(watch).is_none() && self.hv.now() < deadline {
            let next = self.hv.now() + chunk;
            self.run_until(next);
        }
    }

    /// Counters now.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            at: self.hv.now(),
            hv: self.hv.stats(),
            dom0: *self.dom0_stats.lock(),
            copies: copy_counters(),
            run_host: self.run_host,
            traces: self.probes.iter().map(|(r, p)| (*r, snapshot(p))).collect(),
            steals: self.runtimes.iter().map(Runtime::steals).sum(),
            tasks: self.runtimes.iter().map(Runtime::spawned_total).sum(),
        }
    }
}

/// Everything that happened between two snapshots of one world; phases
/// of several worlds (episodes) add up.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub elapsed_ns: u64,
    pub hv: HvStats,
    pub dom0: DriverStats,
    pub copy_bytes: u64,
    pub serialize_bytes: u64,
    pub run_host: Duration,
    pub steals: u64,
    pub tasks: u64,
    pub dom0_trace: DomainTrace,
    pub server: DomainTrace,
    pub client: DomainTrace,
}

fn role_trace(s: &Snapshot, role: &str) -> DomainTrace {
    let mut out = DomainTrace::default();
    for (_, t) in s.traces.iter().filter(|(r, _)| *r == role) {
        add_trace(&mut out, t);
    }
    out
}

fn add_trace(acc: &mut DomainTrace, t: &DomainTrace) {
    acc.step_host += t.step_host;
    acc.front_host += t.front_host;
    acc.front_virt_ns += t.front_virt_ns;
    acc.front_calls += t.front_calls;
    acc.front_progress += t.front_progress;
    acc.app_host += t.app_host;
    if acc.lane_busy_ns.len() < t.lane_busy_ns.len() {
        acc.lane_busy_ns.resize(t.lane_busy_ns.len(), 0);
    }
    for (v, b) in t.lane_busy_ns.iter().enumerate() {
        acc.lane_busy_ns[v] += b;
    }
}

fn sub_trace(y: &DomainTrace, x: &DomainTrace) -> DomainTrace {
    DomainTrace {
        step_host: y.step_host.saturating_sub(x.step_host),
        lane_busy_ns: y
            .lane_busy_ns
            .iter()
            .enumerate()
            .map(|(v, b)| b - x.lane_busy_ns.get(v).copied().unwrap_or(0))
            .collect(),
        front_host: y.front_host.saturating_sub(x.front_host),
        front_virt_ns: y.front_virt_ns - x.front_virt_ns,
        front_calls: y.front_calls - x.front_calls,
        front_progress: y.front_progress - x.front_progress,
        app_host: y.app_host.saturating_sub(x.app_host),
    }
}

impl Phase {
    /// The phase from snapshot `a` to snapshot `b` of one world.
    pub fn between(a: &Snapshot, b: &Snapshot) -> Phase {
        let d = |r| sub_trace(&role_trace(b, r), &role_trace(a, r));
        Phase {
            elapsed_ns: b.at.since(a.at).as_nanos(),
            hv: HvStats {
                hypercalls: b.hv.hypercalls - a.hv.hypercalls,
                notifications: b.hv.notifications - a.hv.notifications,
                grant_maps: b.hv.grant_maps - a.hv.grant_maps,
                grant_copies: b.hv.grant_copies - a.hv.grant_copies,
                steps: b.hv.steps - a.hv.steps,
            },
            dom0: DriverStats {
                frames_switched: b.dom0.frames_switched - a.dom0.frames_switched,
                frames_dropped_congestion: b.dom0.frames_dropped_congestion
                    - a.dom0.frames_dropped_congestion,
                frames_dropped_netem: b.dom0.frames_dropped_netem - a.dom0.frames_dropped_netem,
                frames_dropped_no_rx_buffer: b.dom0.frames_dropped_no_rx_buffer
                    - a.dom0.frames_dropped_no_rx_buffer,
                blk_completed: b.dom0.blk_completed - a.dom0.blk_completed,
                blk_read_errors: b.dom0.blk_read_errors - a.dom0.blk_read_errors,
                blk_write_errors: b.dom0.blk_write_errors - a.dom0.blk_write_errors,
                blk_torn_writes: b.dom0.blk_torn_writes - a.dom0.blk_torn_writes,
            },
            copy_bytes: b.copies.copy_bytes - a.copies.copy_bytes,
            serialize_bytes: b.copies.serialize_bytes - a.copies.serialize_bytes,
            run_host: b.run_host.saturating_sub(a.run_host),
            steals: b.steals - a.steals,
            tasks: b.tasks - a.tasks,
            dom0_trace: d(DOM0),
            server: d(SERVER),
            client: d(CLIENT),
        }
    }

    /// Adds another world's phase.
    pub fn add(&mut self, o: &Phase) {
        self.elapsed_ns += o.elapsed_ns;
        self.hv.hypercalls += o.hv.hypercalls;
        self.hv.notifications += o.hv.notifications;
        self.hv.grant_maps += o.hv.grant_maps;
        self.hv.grant_copies += o.hv.grant_copies;
        self.hv.steps += o.hv.steps;
        self.dom0.frames_switched += o.dom0.frames_switched;
        self.dom0.frames_dropped_congestion += o.dom0.frames_dropped_congestion;
        self.dom0.frames_dropped_netem += o.dom0.frames_dropped_netem;
        self.dom0.frames_dropped_no_rx_buffer += o.dom0.frames_dropped_no_rx_buffer;
        self.dom0.blk_completed += o.dom0.blk_completed;
        self.dom0.blk_read_errors += o.dom0.blk_read_errors;
        self.dom0.blk_write_errors += o.dom0.blk_write_errors;
        self.dom0.blk_torn_writes += o.dom0.blk_torn_writes;
        self.copy_bytes += o.copy_bytes;
        self.serialize_bytes += o.serialize_bytes;
        self.run_host += o.run_host;
        self.steals += o.steals;
        self.tasks += o.tasks;
        add_trace(&mut self.dom0_trace, &o.dom0_trace);
        add_trace(&mut self.server, &o.server);
        add_trace(&mut self.client, &o.client);
    }

    /// Deterministic counters of the phase, for the self-test.
    pub fn counters(&self, out: &mut std::collections::BTreeMap<&'static str, u64>) {
        out.insert("hv.steps", self.hv.steps);
        out.insert("hv.notifications", self.hv.notifications);
        out.insert("hv.hypercalls", self.hv.hypercalls);
        out.insert("hv.grant_maps", self.hv.grant_maps);
        out.insert("hv.grant_copies", self.hv.grant_copies);
        out.insert("dom0.frames_switched", self.dom0.frames_switched);
        out.insert("dom0.blk_completed", self.dom0.blk_completed);
        out.insert("copy.bytes", self.copy_bytes);
        out.insert("copy.serialize_bytes", self.serialize_bytes);
        out.insert("virt.elapsed_ns", self.elapsed_ns);
        out.insert("runtime.steals", self.steals);
        out.insert("runtime.tasks", self.tasks);
    }
}

/// The layer metrics every workload shares, over `ph` with `ops`
/// operations. Returns Σ of the disjoint per-layer host seconds and
/// whether every lane stayed within elapsed time.
pub fn common_layers(ph: &Phase, ops: f64, out: &mut Metrics) -> (f64, bool) {
    let elapsed = ph.elapsed_ns as f64;
    let (dom0, server, client) = (&ph.dom0_trace, &ph.server, &ph.client);
    let s = |d: Duration| d.as_secs_f64();

    let steps_host = s(dom0.step_host) + s(server.step_host) + s(client.step_host);
    let hv_self = (s(ph.run_host) - steps_host).max(0.0);
    put(out, "hypervisor.self_host_s", hv_self, "s");
    put(
        out,
        "hypervisor.steps_per_op",
        ph.hv.steps as f64 / ops,
        "count",
    );
    put(
        out,
        "hypervisor.notify_per_op",
        ph.hv.notifications as f64 / ops,
        "count",
    );
    put(
        out,
        "hypervisor.hypercalls_per_op",
        ph.hv.hypercalls as f64 / ops,
        "count",
    );

    put(out, "devices.back.host_s", s(dom0.step_host), "s");
    put(
        out,
        "devices.back.busy_frac",
        dom0.busiest_lane_ns() as f64 / elapsed,
        "ratio",
    );
    put(
        out,
        "devices.back.drops_congestion",
        ph.dom0.frames_dropped_congestion as f64,
        "count",
    );
    put(
        out,
        "devices.back.drops_no_rx_buffer",
        ph.dom0.frames_dropped_no_rx_buffer as f64,
        "count",
    );
    let front_host = s(server.front_host) + s(client.front_host);
    let front_calls = server.front_calls + client.front_calls;
    let front_progress = server.front_progress + client.front_progress;
    put(out, "devices.front.host_s", front_host, "s");
    put(
        out,
        "devices.front.virt_us_per_op",
        (server.front_virt_ns + client.front_virt_ns) as f64 / 1e3 / ops,
        "us",
    );
    put(
        out,
        "devices.front.useful_ratio",
        if front_calls == 0 {
            0.0
        } else {
            front_progress as f64 / front_calls as f64
        },
        "ratio",
    );

    let rt_server = (s(server.step_host) - s(server.front_host) - s(server.app_host)).max(0.0);
    let rt_client = (s(client.step_host) - s(client.front_host) - s(client.app_host)).max(0.0);
    put(out, "runtime.server.host_s", rt_server, "s");
    put(out, "runtime.client.host_s", rt_client, "s");
    put(
        out,
        "runtime.server.busy_frac",
        server.busiest_lane_ns() as f64 / elapsed,
        "ratio",
    );
    put(
        out,
        "runtime.client.busy_frac",
        client.busiest_lane_ns() as f64 / elapsed,
        "ratio",
    );
    put(out, "runtime.steals", ph.steals as f64, "count");
    put(out, "runtime.tasks_per_op", ph.tasks as f64 / ops, "count");

    let lanes_ok = [dom0, server, client]
        .iter()
        .all(|t| t.busiest_lane_ns() as f64 <= elapsed);
    let layer_sum = hv_self
        + s(dom0.step_host)
        + front_host
        + rt_server
        + rt_client
        + s(server.app_host)
        + s(client.app_host);
    (layer_sum, lanes_ok)
}
