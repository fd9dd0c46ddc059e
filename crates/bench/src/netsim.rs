//! iperf harness (paper Figure 8): real TCP flows between two stacks
//! through the simulated switch, with the per-endpoint cost profiles of
//! [`mirage_baseline::netperf`] charged on the data path. Its [`World`]
//! (a host, dom0 and networked guests) is shared by the other live-stack
//! harnesses.

use mirage_baseline::netperf::{TcpEndpoint, MSS};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{
    Backend, DriverDomain, DriverStats, NetProfile, Netem, NetemConfig, NetemStats, Xenstore,
};
use mirage_hypervisor::{DomainId, Dur, Hypervisor, RunOutcome, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::channel::JoinHandle;
use mirage_runtime::{Runtime, UnikernelGuest};

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// The Figure 8 pairings: (label, sender, receiver).
pub const PAIRINGS: [(&str, TcpEndpoint, TcpEndpoint); 3] = [
    ("Linux to Linux", TcpEndpoint::Linux, TcpEndpoint::Linux),
    ("Linux to Mirage", TcpEndpoint::Linux, TcpEndpoint::Mirage),
    ("Mirage to Linux", TcpEndpoint::Mirage, TcpEndpoint::Linux),
];

/// Result of one iperf run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IperfResult {
    /// Goodput in Mbit/s of virtual time.
    pub mbps: f64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// Runs `flows` parallel bulk flows of `bytes_per_flow` from a `tx`-profile
/// endpoint to an `rx`-profile endpoint and reports aggregate goodput,
/// over the default Xen-ring transport.
pub fn iperf(
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    iperf_on(Backend::XenRing, tx, rx, flows, bytes_per_flow)
}

/// [`iperf`], with the ring ABI an explicit axis: the same flows ride
/// Xen-style rings or split virtqueues depending on `backend`.
pub fn iperf_on(
    backend: Backend,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    // Inter-VM path: the fabric is not the bottleneck (10 GbE model).
    let world = World::new(6, NetProfile::ten_gbe(), 1, backend, 1);
    run_iperf(world, "iperf", tx, rx, flows, bytes_per_flow)
}

/// Runs `flows` bulk flows between two `vcpus`-wide SMP unikernels: each
/// side runs a [`Runtime::smp`] executor, a multi-queue netfront fanning
/// RX frames out by RSS hash, and a [`Stack::spawn_sharded`] worker per
/// vCPU owning a disjoint slice of the 64-way shard space. Flow tasks are
/// pinned round-robin across cores, so the per-segment endpoint cost —
/// the Figure 8 bottleneck — is charged on parallel vCPU lanes and the
/// gang-placed step overlaps them on distinct pCPUs.
pub fn iperf_smp(
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    vcpus: usize,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    iperf_smp_on(Backend::XenRing, tx, rx, vcpus, flows, bytes_per_flow)
}

/// [`iperf_smp`], with the ring ABI an explicit axis: multi-queue
/// Xen-ring netfront or one virtqueue pair per vCPU.
pub fn iperf_smp_on(
    backend: Backend,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    vcpus: usize,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    let world = World::smp(backend, vcpus);
    run_iperf(world, "iperf-smp", tx, rx, flows, bytes_per_flow)
}

/// A host with a running dom0, and the shape of the guests booted on it:
/// each is `vcpus` wide with one NIC over `backend`.
pub struct World {
    /// The host.
    pub hv: Hypervisor,
    xs: Xenstore,
    backend: Backend,
    vcpus: usize,
    /// Copy discipline of the NICs booted from here on (default
    /// zero-copy).
    pub discipline: CopyDiscipline,
}

impl World {
    /// A `pcpus`-pCPU host whose dom0, `dom0_vcpus` wide, switches at
    /// `fabric` line rate.
    pub fn new(
        pcpus: usize,
        fabric: NetProfile,
        dom0_vcpus: usize,
        backend: Backend,
        vcpus: usize,
    ) -> World {
        let xs = Xenstore::new();
        let mut hv = Hypervisor::with_pcpus(pcpus);
        let disk = mirage_devices::DiskProfile::pcie_ssd();
        let dom0 = DriverDomain::with_profiles(xs.clone(), fabric, disk);
        hv.create_domain_vcpus("dom0", 512, Box::new(dom0), dom0_vcpus);
        World {
            hv,
            xs,
            backend,
            vcpus,
            discipline: CopyDiscipline::ZeroCopy,
        }
    }

    /// The SMP runs' host: enough pCPUs that no guest's vCPU gang ever
    /// waits on the host, a 40 GbE fabric and a two-lane dom0 — they
    /// measure CPU scaling, so neither line rate nor a single-core dom0
    /// may be the bottleneck.
    fn smp(backend: Backend, vcpus: usize) -> World {
        assert!(vcpus > 0, "need at least one vCPU");
        World::new(2 + 2 * vcpus, NetProfile::forty_gbe(), 2, backend, vcpus)
    }

    /// Boots domain `name` with `mem_mib` MiB: NIC `nic` (MAC
    /// `Mac::local(mac)`, one queue per vCPU) feeds one shard worker per
    /// queue of a stack configured by `cfg`; `main` gets that stack and
    /// the runtime, and returns the domain's main thread.
    pub fn guest(
        &mut self,
        name: &str,
        mem_mib: u64,
        (nic, mac): (&str, u32),
        cfg: StackConfig,
        main: impl FnOnce(Stack, Runtime) -> JoinHandle<i64> + Send + 'static,
    ) -> DomainId {
        let (front, handles) = self.backend.net_multiqueue(
            self.xs.clone(),
            nic,
            Mac::local(mac).0,
            self.discipline,
            self.vcpus,
        );
        let mut guest = UnikernelGuest::with_runtime(Runtime::smp(self.vcpus), move |_env, rt| {
            main(Stack::spawn_sharded(rt, handles, cfg), rt.clone())
        });
        guest.add_device(front);
        self.hv
            .create_domain_vcpus(name, mem_mib, Box::new(guest), self.vcpus)
    }
}

/// The iperf run behind [`iperf_on`] and [`iperf_smp_on`], between
/// guests `{name}-rx` and `{name}-tx`. Flow tasks are pinned round-robin
/// across cores; on one vCPU that is where the executor runs them anyway
/// (it steals only between cores).
fn run_iperf(
    mut world: World,
    name: &str,
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    flows: usize,
    bytes_per_flow: usize,
) -> IperfResult {
    let vcpus = world.vcpus;
    let costs = mirage_hypervisor::CostTable::defaults();
    // Charge the shared state-machine work plus the endpoint profile per
    // segment — the same decomposition as the Figure 8 model, but here the
    // segments actually flow through the live stack.
    let shared = Dur::micros(5) + costs.copy(MSS / 8);
    let tx_per_seg = shared + tx.profile(&costs).tx_per_segment;
    let rx_per_seg = shared + rx.profile(&costs).rx_per_segment;

    // Bound each flow's advertised window so aggregate in-flight data
    // stays within the switch queueing budget (the paper's 64-slot rings
    // impose the same back-pressure).
    let tcp_cfg = mirage_net::tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .build()
        .expect("valid tcp config");
    let stack_cfg = |ip| {
        StackConfig::builder(ip)
            .tcp(tcp_cfg.clone())
            .build()
            .expect("valid stack config")
    };

    let total_expected = (flows * bytes_per_flow) as u64;
    let (rx_name, rx_cfg) = (format!("{name}-rx"), stack_cfg(RX_IP));
    let rx_dom = world.guest(&rx_name, 128, ("rx", 2), rx_cfg, move |stack, rt| {
        rt.clone().spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut handles = Vec::new();
            for f in 0..flows {
                let mut stream = listener.accept().await.unwrap();
                let rt3 = rt.clone();
                handles.push(rt.spawn_on(f % vcpus, async move {
                    let mut got = 0u64;
                    while let Some(chunk) = stream.read().await {
                        let segs = chunk.len().div_ceil(MSS) as u64;
                        rt3.charge(Dur::nanos(rx_per_seg.as_nanos() * segs));
                        got += chunk.len() as u64;
                    }
                    got
                }));
            }
            let mut total = 0u64;
            for h in handles {
                total += h.await;
            }
            assert_eq!(total, total_expected, "all flow bytes delivered");
            // Report the virtual completion instant (ns); the harness
            // excludes connection teardown (TIME-WAIT) from goodput, as
            // iperf does.
            rt.now().as_nanos() as i64
        })
    });

    let (tx_name, tx_cfg) = (format!("{name}-tx"), stack_cfg(TX_IP));
    world.guest(&tx_name, 128, ("tx", 1), tx_cfg, move |stack, rt| {
        rt.clone().spawn(async move {
            rt.sleep(Dur::millis(5)).await;
            let mut handles = Vec::new();
            for f in 0..flows {
                let stack = stack.clone();
                let rt3 = rt.clone();
                handles.push(rt.spawn_on(f % vcpus, async move {
                    let mut stream = stack.tcp_connect(RX_IP, 5001).await.expect("connect");
                    let chunk = vec![(f % 251) as u8; 16 * 1024];
                    let mut sent = 0usize;
                    while sent < bytes_per_flow {
                        let n = chunk.len().min(bytes_per_flow - sent);
                        let segs = n.div_ceil(MSS) as u64;
                        rt3.charge(Dur::nanos(tx_per_seg.as_nanos() * segs));
                        stream.write(&chunk[..n]);
                        sent += n;
                        // Yield so TCP can drain under flow control.
                        rt3.yield_now().await;
                    }
                    stream.close();
                    stream.wait_closed().await;
                }));
            }
            for h in handles {
                h.await;
            }
            0i64
        })
    });

    let hv = &mut world.hv;
    hv.set_step_budget(400_000_000);
    hv.run_until(Time::ZERO + Dur::secs(600));
    let finished_ns = hv.exit_code(rx_dom).expect("receiver finished") as u64;
    // Senders start after a 5 ms settle; goodput excludes that lead-in.
    let start = Time::ZERO + Dur::millis(5);
    let elapsed = Time::from_nanos(finished_ns).saturating_since(start);
    IperfResult {
        mbps: total_expected as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
        bytes: total_expected,
    }
}

/// Everything one conditioned bulk transfer ([`lossy_transfer`]) produces.
pub struct LossyReport {
    /// Bytes the receiver accepted before sending its receipt.
    pub received: Vec<u8>,
    /// Bytes delivered beyond the expected payload (duplicate delivery).
    pub extra_bytes: u64,
    /// Sender-side connection counters, snapshotted before close.
    pub sender: mirage_net::tcp::TcpStats,
    /// The conditioner's fault counters and decision schedule.
    pub netem: NetemStats,
    /// Switch-level counters (drop reasons, blk faults).
    pub driver: DriverStats,
}

/// The payload [`lossy_transfer`] sends: a byte pattern, so corruption or
/// duplication shows up as a byte-level mismatch, not just a length error.
pub fn lossy_payload(bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| ((i * 31 + 7) & 0xFF) as u8).collect()
}

/// Runs one `bytes`-long TCP bulk transfer from guest `lossy-tx` to guest
/// `lossy-rx`, each with one NIC over `backend`, through a switch
/// conditioned by `cfg` whose fault schedule is seeded from
/// `(seed, cell)`. The receiver answers the payload with a one-byte
/// receipt; both guests then park, so a frame lost during teardown is
/// still retransmitted.
///
/// # Panics
///
/// If the transfer stalls or takes more than 300 s of virtual time; the
/// message names the cell and the seed that reproduces it.
pub fn lossy_transfer(
    backend: Backend,
    seed: u64,
    cell: &str,
    cfg: NetemConfig,
    bytes: usize,
) -> LossyReport {
    use mirage_testkit::sync::Mutex;
    use std::sync::Arc;

    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    let netem = Netem::from_seed(cfg, seed, cell);
    let nstats = netem.stats_handle();
    dom0.set_netem(netem);
    let dstats = dom0.stats_handle();
    hv.create_domain("dom0", 512, Box::new(dom0));

    // Bound the advertised window so in-flight data respects the switch
    // queueing budget (as the iperf harness does), and cap the RTO so a
    // 20%-loss cell backs off on a test-sized timescale instead of
    // production TCP's 60 s ceiling.
    let tcp_cfg = mirage_net::tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .rto_max(Dur::secs(2))
        .build()
        .expect("valid tcp config");
    let stack_cfg = |ip| {
        StackConfig::builder(ip)
            .tcp(tcp_cfg.clone())
            .build()
            .expect("valid stack config")
    };
    let (rx_cfg, tx_cfg) = (stack_cfg(RX_IP), stack_cfg(TX_IP));

    // Receiver: accept, read the payload, send a 1-byte receipt, then
    // count anything delivered beyond the expected length.
    let rx_result = Arc::new(Mutex::new(None::<(Vec<u8>, u64)>));
    let rx_out = Arc::clone(&rx_result);
    let (front_rx, nh_rx) =
        backend.net(xs.clone(), "rx", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, rx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got: Vec<u8> = Vec::new();
            while got.len() < bytes {
                match stream.read().await {
                    Some(chunk) => got.extend_from_slice(&chunk),
                    None => break,
                }
            }
            stream.write(b"K");
            let extra = stream.read_to_end().await.len() as u64;
            *rx_out.lock() = Some((got, extra));
            // Park instead of exiting: a dead domain takes its stack (and
            // its retransmissions) with it, which would re-lose any frame
            // netem drops during teardown.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    rx_guest.add_device(front_rx);
    hv.create_domain("lossy-rx", 128, Box::new(rx_guest));

    // Sender: connect (retrying through SYN loss), stream the payload,
    // await the receipt, snapshot stats while the connection still exists.
    let tx_result = Arc::new(Mutex::new(None::<mirage_net::tcp::TcpStats>));
    let tx_out = Arc::clone(&tx_result);
    let payload = lossy_payload(bytes);
    let (front_tx, nh_tx) =
        backend.net(xs.clone(), "tx", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let mut tx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_tx, tx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let mut stream = loop {
                match stack.tcp_connect(RX_IP, 5001).await {
                    Ok(s) => break s,
                    Err(_) => rt2.sleep(Dur::millis(50)).await,
                }
            };
            for chunk in payload.chunks(16 * 1024) {
                stream.write(chunk);
                rt2.yield_now().await;
            }
            let mut receipt: Vec<u8> = Vec::new();
            while receipt.is_empty() {
                match stream.read().await {
                    Some(chunk) => receipt.extend_from_slice(&chunk),
                    None => break,
                }
            }
            let stats = stream.stats().await.expect("stats before close");
            *tx_out.lock() = Some(stats);
            stream.close();
            // Park: keep the stack alive so the FIN survives being lost.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    tx_guest.add_device(front_tx);
    hv.create_domain("lossy-tx", 128, Box::new(tx_guest));

    // Run in slices until both sides report (the guests deliberately
    // never exit), bounding total virtual time.
    let deadline = Time::ZERO + Dur::secs(300);
    loop {
        let outcome = hv.run_until(hv.now() + Dur::millis(100));
        if rx_result.lock().is_some() && tx_result.lock().is_some() {
            break;
        }
        assert!(
            outcome == RunOutcome::TimeLimit && hv.now() < deadline,
            "[{cell}/{backend}] transfer stalled (outcome {outcome:?} at {:?}, netem {:?}, \
             driver {:?}); reproduce with MIRAGE_TEST_SEED={seed}",
            hv.now(),
            nstats.lock().clone(),
            *dstats.lock(),
        );
    }

    let (received, extra_bytes) = rx_result.lock().take().expect("receiver reported");
    let sender = tx_result.lock().take().expect("sender reported");
    let netem = nstats.lock().clone();
    let driver = *dstats.lock();
    LossyReport {
        received,
        extra_bytes,
        sender,
        netem,
        driver,
    }
}

/// Per-core snapshot of an SMP server holding idle connections through a
/// quiet window: how the connections spread over the shard workers, and
/// how many wheel-driven `Connection::poll`s each core did while nothing
/// was due (the C1M claim, split per core: an idle connection costs no
/// core anything).
#[derive(Debug, Clone)]
pub struct IdleSmpReport {
    /// Connection-table entries per shard worker at the end of the window.
    pub conns_per_core: Vec<u64>,
    /// Timer polls per shard worker during the quiet window.
    pub quiet_polls_per_core: Vec<u64>,
    /// Connections actually established.
    pub established: u64,
}

/// Holds `conns` idle keep-alive connections against a `vcpus`-wide
/// sharded server, then measures a `quiet` window in which no connection
/// has any due work. Returns the per-core split.
pub fn idle_smp(vcpus: usize, conns: usize, quiet: Dur) -> IdleSmpReport {
    use std::sync::{Arc, Mutex};

    let mut world = World::smp(Backend::XenRing, vcpus);
    let report: Arc<Mutex<Option<IdleSmpReport>>> = Arc::new(Mutex::new(None));

    // Server: sharded stack, parks every accepted stream for the duration.
    let srv_cfg = StackConfig::builder(RX_IP).build().expect("valid config");
    let report_w = Arc::clone(&report);
    let nic = ("idle-srv", 2);
    let srv_dom = world.guest("idle-smp-srv", 256, nic, srv_cfg, move |stack, rt| {
        rt.clone().spawn(async move {
            let mut listener = stack.tcp_listen(80).await.unwrap();
            let mut parked = Vec::with_capacity(conns);
            for _ in 0..conns {
                parked.push(listener.accept().await.unwrap());
            }
            // Everything established and idle: measure the quiet window.
            let before = stack.stack_stats_per_core().await.unwrap();
            rt.sleep(quiet).await;
            let after = stack.stack_stats_per_core().await.unwrap();
            *report_w.lock().unwrap() = Some(IdleSmpReport {
                conns_per_core: after.iter().map(|s| s.conns).collect(),
                quiet_polls_per_core: after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a.timer_polls - b.timer_polls)
                    .collect(),
                established: parked.len() as u64,
            });
            0i64
        })
    });

    // Client: same width, each core ramps its share of the connections
    // sequentially and parks them (keep-alive, no requests).
    let cli_cfg = StackConfig::builder(TX_IP).build().expect("valid config");
    let nic = ("idle-cli", 1);
    world.guest("idle-smp-cli", 256, nic, cli_cfg, move |stack, rt| {
        rt.clone().spawn(async move {
            rt.sleep(Dur::millis(5)).await;
            let mut handles = Vec::new();
            for core in 0..vcpus {
                let share = conns / vcpus + usize::from(core < conns % vcpus);
                let stack = stack.clone();
                let rt3 = rt.clone();
                handles.push(rt.spawn_on(core, async move {
                    let mut parked = Vec::with_capacity(share);
                    for _ in 0..share {
                        parked.push(stack.tcp_connect(RX_IP, 80).await.expect("connect"));
                    }
                    // Hold the connections open past the server's quiet
                    // window; dropping them would tear the table down.
                    rt3.sleep(Dur::secs(3600)).await;
                    parked.len()
                }));
            }
            for h in handles {
                h.await;
            }
            0i64
        })
    });

    let hv = &mut world.hv;
    hv.set_step_budget(400_000_000);
    hv.run_until(Time::ZERO + Dur::secs(3000));
    assert_eq!(hv.exit_code(srv_dom), Some(0), "server finished its window");
    let out = report.lock().unwrap().take().expect("server wrote report");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_delivers_and_reports_throughput() {
        let r = iperf(TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000);
        assert_eq!(r.bytes, 300_000);
        assert!(r.mbps > 50.0, "non-trivial goodput: {:.0} Mb/s", r.mbps);
    }

    #[test]
    fn virtio_iperf_delivers_comparable_goodput() {
        let xen = iperf_on(Backend::XenRing, TcpEndpoint::Mirage, TcpEndpoint::Mirage, 1, 200_000);
        let vio = iperf_on(Backend::Virtio, TcpEndpoint::Mirage, TcpEndpoint::Mirage, 1, 200_000);
        assert_eq!(xen.bytes, vio.bytes);
        // Both transports price the same data path; goodput must land in
        // the same ballpark (well within 2x either way).
        let ratio = vio.mbps / xen.mbps;
        assert!(
            (0.5..2.0).contains(&ratio),
            "backends diverge: xen {:.0} vs virtio {:.0} Mb/s",
            xen.mbps,
            vio.mbps
        );
    }

    #[test]
    fn smp_iperf_delivers_and_beats_single_core() {
        let one = iperf_smp(TcpEndpoint::Mirage, TcpEndpoint::Mirage, 1, 8, 100_000);
        let four = iperf_smp(TcpEndpoint::Mirage, TcpEndpoint::Mirage, 4, 8, 100_000);
        assert_eq!(one.bytes, 800_000);
        assert_eq!(four.bytes, 800_000);
        assert!(
            four.mbps > one.mbps * 1.5,
            "4 vCPUs should clearly beat 1: {:.0} vs {:.0} Mb/s",
            four.mbps,
            one.mbps
        );
    }

    #[test]
    fn idle_smp_quiet_tick_polls_nothing_on_any_core() {
        let r = idle_smp(4, 256, Dur::millis(64));
        assert_eq!(r.established, 256);
        assert_eq!(r.conns_per_core.len(), 4);
        assert_eq!(r.conns_per_core.iter().sum::<u64>(), 256);
        // Idle connections arm no deadline: a quiet window drives zero
        // wheel polls on every core, not just in aggregate.
        for (core, polls) in r.quiet_polls_per_core.iter().enumerate() {
            assert_eq!(*polls, 0, "core {core} polled {polls} idle conns");
        }
        // The shard space spreads the table: no core holds everything.
        let max = r.conns_per_core.iter().max().unwrap();
        assert!(*max < 256, "connections spread over cores: {:?}", r.conns_per_core);
    }

    #[test]
    fn mirage_tx_is_slower_than_linux_tx_through_the_real_stack() {
        let m2l = iperf(TcpEndpoint::Mirage, TcpEndpoint::Linux, 1, 300_000);
        let l2m = iperf(TcpEndpoint::Linux, TcpEndpoint::Mirage, 1, 300_000);
        assert!(
            l2m.mbps > m2l.mbps,
            "figure 8 ordering through the live stack: {:.0} vs {:.0}",
            l2m.mbps,
            m2l.mbps
        );
    }
}
