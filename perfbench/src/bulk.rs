//! `bulk_tcp`: closed-loop bulk flows between two SMP unikernels.
//!
//! 16 flows, Mirage to Mirage, 2 vCPUs per side (`Runtime::smp`,
//! multi-queue RSS netfront, `Stack::spawn_sharded`) on Xen rings and a
//! lossless 10 GbE fabric, with the Figure 8 per-segment endpoint
//! charges. The flows send for a fixed window, as `iperf -t` does, several
//! MB each. The per-segment data path does nearly all the work: TCP
//! send/receive and congestion control, the netfront TX backlog, the
//! netback switch, grants, event channels, copies and the per-core
//! executors. Handshakes, storage, HTTP and DNS are bypassed.
//!
//! Beside the flows, an open-loop UDP request/response probe measures the
//! latency a small request sees through the same rings and queues.

use std::sync::{Arc, Mutex};

use mirage_baseline::netperf::{TcpEndpoint, MSS};
use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{Backend, NetProfile};
use mirage_hypervisor::{CostTable, Dur, Time};
use mirage_net::tcp::{TcpConfig, TcpStats};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig, TcpStream};
use mirage_runtime::{Runtime, UnikernelGuest};
use mirage_testkit::rng::Rng;

use crate::clock::Cpu;
use crate::loadgen::{poisson, summarize, Sample};
use crate::probe::{DomainProbe, Tracer};
use crate::stats::{median, put};
use crate::world::{common_layers, Phase, World, CLIENT, SERVER};
use crate::{Outcome, Size};

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 5001;
const PROBE_PORT: u16 = 5002;
/// Flows connect from here on; both stacks are up long before.
const T_START: Time = Time::from_nanos(10_000_000);
/// Each flow sends a seeded pattern of this length, repeated.
const PATTERN: usize = 64 * 1024;
/// Flow id, sent first on each flow.
const HEADER: usize = 8;
/// Unsent bytes a writer may queue in its stream, like a socket send
/// buffer: a write past it waits until the stack has sent more.
const SEND_BUF: u64 = 128 * 1024;
/// Probe source ports, requests per virtual second over all of them, and
/// how long a request may wait for its reply.
const PROBE_PORTS: usize = 8;
const PROBE_RATE: f64 = 2000.0;
const PROBE_TIMEOUT: Dur = Dur::millis(50);
/// Size of one probe request and of its echo.
const PROBE_MSG: usize = 64;

/// One bulk_tcp configuration.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub flows: usize,
    pub vcpus: usize,
    /// How long the flows send, from `T_START`.
    pub window: Dur,
    /// Independent worlds whose measurements are pooled.
    pub episodes: usize,
}

/// The benchmark's size.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            flows: 16,
            vcpus: 2,
            window: Dur::secs(2),
            episodes: 6,
        },
        Size::Reduced => Params {
            flows: 4,
            vcpus: 2,
            window: Dur::millis(100),
            episodes: 1,
        },
    }
}

/// One flow's seeded input.
struct Flow {
    pattern: Vec<u8>,
    /// Start offset after `T_START`.
    start: Dur,
    /// Seed of the flow's write-size stream.
    writes_seed: u64,
}

fn flows(p: &Params, seed: u64) -> Vec<Flow> {
    let mut rng = Rng::for_stream(seed, "bulk_tcp.flows");
    (0..p.flows)
        .map(|_| {
            let mut pattern = vec![0u8; PATTERN];
            rng.fill_bytes(&mut pattern);
            let start = Dur::nanos(rng.gen_range(0..=1_000_000u64));
            Flow {
                pattern,
                start,
                writes_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// What the receiver saw on one flow.
#[derive(Default, Clone)]
struct RxFlow {
    bytes: u64,
    /// Bytes that arrived by the end of the window.
    in_window: u64,
    mismatched: u64,
    stats: Option<TcpStats>,
}

/// What the sender did on one flow.
#[derive(Default, Clone)]
struct TxFlow {
    connect_start: Option<Time>,
    written: u64,
    stats: Option<TcpStats>,
}

#[derive(Default)]
struct Log {
    rx: Vec<RxFlow>,
    tx: Vec<TxFlow>,
    probes: Vec<Sample>,
    probe_mismatches: u64,
    /// Flows whose sender logged its final counters.
    finished: usize,
}

type Shared<T> = Arc<Mutex<T>>;

fn lock<T>(m: &Shared<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("log mutex poisoned")
}

/// The per-segment endpoint charges `bench::netsim::iperf_smp` applies:
/// shared state-machine work plus the Mirage endpoint profile.
fn per_segment() -> (Dur, Dur) {
    let costs = CostTable::defaults();
    let shared = Dur::micros(5) + costs.copy(MSS / 8);
    let profile = TcpEndpoint::Mirage.profile(&costs);
    (
        shared + profile.tx_per_segment,
        shared + profile.rx_per_segment,
    )
}

fn segments(n: usize) -> u64 {
    n.div_ceil(MSS) as u64
}

fn stack_cfg(ip: Ipv4Addr) -> StackConfig {
    // Bound each flow's window so aggregate in-flight data stays within
    // the switch queueing budget, as iperf_smp does.
    let tcp = TcpConfig::builder()
        .recv_buf(64 * 1024)
        .build()
        .expect("valid tcp config");
    StackConfig::builder(ip)
        .tcp(tcp)
        .build()
        .expect("valid stack config")
}

/// Bytes of `data` that differ from `pattern` repeated, starting at
/// offset `off` into it.
fn mismatches(pattern: &[u8], mut off: usize, mut data: &[u8]) -> u64 {
    let mut n = 0;
    while !data.is_empty() {
        let len = data.len().min(pattern.len() - off);
        let (want, got) = (&pattern[off..off + len], &data[..len]);
        if want != got {
            n += want.iter().zip(got).filter(|(a, b)| a != b).count() as u64;
        }
        data = &data[len..];
        off = 0;
    }
    n
}

/// Receives one flow to its end, checking every byte against the pattern.
async fn receive_flow(
    mut s: TcpStream,
    rt: Runtime,
    deadline: Time,
    patterns: Arc<Vec<Vec<u8>>>,
    log: Shared<Log>,
) {
    let (_, rx_seg) = per_segment();
    let Some(h) = s.read_exact(HEADER).await else {
        return;
    };
    let f = u64::from_le_bytes(h[..].try_into().expect("8 bytes")) as usize;
    let Some(pattern) = patterns.get(f) else {
        return;
    };
    let mut r = RxFlow::default();
    while let Some(chunk) = s.read().await {
        rt.charge(Dur::nanos(rx_seg.as_nanos() * segments(chunk.len())));
        r.mismatched += mismatches(pattern, r.bytes as usize % PATTERN, &chunk);
        r.bytes += chunk.len() as u64;
        if rt.now() <= deadline {
            r.in_window = r.bytes;
        }
    }
    r.stats = s.stats().await.ok();
    // Tell the sender everything arrived; its counters are then final.
    s.write(&[1]);
    s.close();
    lock(&log).rx[f] = r;
}

fn receiver(
    w: &mut World,
    p: &Params,
    patterns: Arc<Vec<Vec<u8>>>,
    log: Shared<Log>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (front, handles) = Backend::XenRing.net_multiqueue(
        w.xs.clone(),
        "rx",
        Mac::local(2).0,
        CopyDiscipline::ZeroCopy,
        p.vcpus,
    );
    let (flows, vcpus) = (p.flows, p.vcpus);
    let deadline = T_START + p.window;
    let rt = Runtime::smp(vcpus);
    w.runtime(&rt);
    let mut g = UnikernelGuest::with_runtime(rt, move |_env, rt| {
        let stack = Stack::spawn_sharded(rt, handles, stack_cfg(RX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(PORT).await.expect("port is free");
            let mut probes = stack.udp_bind(PROBE_PORT).await.expect("port is free");
            rt2.spawn_on(0, async move {
                while let Ok((src, sport, req)) = probes.recv_from().await {
                    probes.send_to(src, sport, req);
                }
            });
            let mut tasks = Vec::new();
            for n in 0..flows {
                let s = listener.accept().await.expect("accept");
                let task = receive_flow(
                    s,
                    rt2.clone(),
                    deadline,
                    Arc::clone(&patterns),
                    Arc::clone(&log),
                );
                tasks.push(rt2.spawn_on(n % vcpus, task));
            }
            for t in tasks {
                t.await;
            }
            // Stay up: exiting would tear down the connections before the
            // senders have read the receivers' last word.
            rt2.sleep(Dur::secs(3600)).await;
            0i64
        })
    });
    g.add_device(Tracer::device(probe, front));
    g
}

/// Sends one flow for the window, then half-closes and waits for the
/// receiver's word that all of it arrived.
async fn send_flow(
    f: usize,
    flow: Flow,
    stack: Stack,
    rt: Runtime,
    deadline: Time,
    log: Shared<Log>,
) {
    let (tx_seg, _) = per_segment();
    rt.sleep_until(T_START + flow.start).await;
    let mut t = TxFlow {
        connect_start: Some(rt.now()),
        ..TxFlow::default()
    };
    let Ok(mut s) = stack.tcp_connect(RX_IP, PORT).await else {
        let mut l = lock(&log);
        l.tx[f] = t;
        l.finished += 1;
        return;
    };
    s.write(&(f as u64).to_le_bytes());
    let mut writes = Rng::new(flow.writes_seed);
    let mut sent_by_stack = 0u64;
    while rt.now() < deadline {
        if t.written + HEADER as u64 - sent_by_stack > SEND_BUF {
            sent_by_stack = s.stats().await.map_or(sent_by_stack, |st| st.bytes_out);
            if t.written + HEADER as u64 - sent_by_stack > SEND_BUF {
                rt.sleep(Dur::micros(50)).await;
            }
            continue;
        }
        let off = t.written as usize % PATTERN;
        let n = writes
            .gen_range(8 * 1024..=32 * 1024usize)
            .min(PATTERN - off);
        rt.charge(Dur::nanos(tx_seg.as_nanos() * segments(n)));
        s.write(&flow.pattern[off..off + n]);
        t.written += n as u64;
        // Yield so TCP can drain under flow control.
        rt.yield_now().await;
    }
    s.close();
    let _ = s.read().await;
    t.stats = s.stats().await.ok();
    {
        let mut l = lock(&log);
        l.tx[f] = t;
        l.finished += 1;
    }
    s.wait_closed().await;
}

/// Open-loop UDP request/response from one source port for the window:
/// requests are sent at seeded Poisson instants whether or not earlier
/// replies arrived. A request unanswered within `PROBE_TIMEOUT` has
/// failed. Several ports spread the probes over the RSS queues.
async fn probe_loop(
    stack: Stack,
    rt: Runtime,
    seed: u64,
    k: usize,
    deadline: Time,
    log: Shared<Log>,
) {
    rt.sleep_until(T_START).await;
    let mut sock = stack
        .udp_bind(PROBE_PORT + 1 + k as u16)
        .await
        .expect("probe port is free");
    let mut rng = Rng::for_stream(seed, &format!("bulk_tcp.probe.{k}"));
    let rate = PROBE_RATE / PROBE_PORTS as f64;
    let start = rt.now();
    let count = (deadline.saturating_since(start).as_secs_f64() * rate) as usize;
    let due = poisson(&mut rng, rate, count, start);
    let reqs: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            let mut req = (i as u64).to_le_bytes().to_vec();
            req.resize(PROBE_MSG, 0);
            rng.fill_bytes(&mut req[8..]);
            req
        })
        .collect();
    let mut done: Vec<Option<(Time, bool)>> = vec![None; count];
    let (mut next, mut answered) = (0usize, 0usize);
    let end = due.last().copied().unwrap_or(start) + PROBE_TIMEOUT;
    while answered < count && rt.now() < end {
        while next < count && due[next] <= rt.now() {
            sock.send_to(RX_IP, PROBE_PORT, reqs[next].clone());
            next += 1;
        }
        let wait = due
            .get(next)
            .copied()
            .unwrap_or(end)
            .saturating_since(rt.now());
        let Ok(Ok((_, _, reply))) = rt.timeout(wait, Box::pin(sock.recv_from())).await else {
            continue;
        };
        let i = reply.get(..8).map_or(usize::MAX, |id| {
            u64::from_le_bytes(id.try_into().expect("8 bytes")) as usize
        });
        if i < next && done[i].is_none() {
            done[i] = Some((rt.now(), reply[..] == reqs[i][..]));
            answered += 1;
        }
    }
    let mut l = lock(&log);
    for (i, d) in done.into_iter().enumerate() {
        l.probe_mismatches += u64::from(d.is_some_and(|(_, ok)| !ok));
        let (at, ok) = match d {
            Some((at, ok)) if at <= due[i] + PROBE_TIMEOUT => (at, ok),
            _ => (due[i] + PROBE_TIMEOUT, false),
        };
        l.probes.push(Sample {
            class: 0,
            due: due[i],
            done: at,
            ok,
        });
    }
}

fn sender(
    w: &mut World,
    p: &Params,
    seed: u64,
    flows: Vec<Flow>,
    log: Shared<Log>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (front, handles) = Backend::XenRing.net_multiqueue(
        w.xs.clone(),
        "tx",
        Mac::local(1).0,
        CopyDiscipline::ZeroCopy,
        p.vcpus,
    );
    let vcpus = p.vcpus;
    let deadline = T_START + p.window;
    let rt = Runtime::smp(vcpus);
    w.runtime(&rt);
    let mut g = UnikernelGuest::with_runtime(rt, move |_env, rt| {
        let stack = Stack::spawn_sharded(rt, handles, stack_cfg(TX_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            for k in 0..PROBE_PORTS {
                let task = probe_loop(
                    stack.clone(),
                    rt2.clone(),
                    seed,
                    k,
                    deadline,
                    Arc::clone(&log),
                );
                rt2.spawn_on(k % vcpus, task);
            }
            let tasks: Vec<_> = flows
                .into_iter()
                .enumerate()
                .map(|(f, flow)| {
                    let task = send_flow(
                        f,
                        flow,
                        stack.clone(),
                        rt2.clone(),
                        deadline,
                        Arc::clone(&log),
                    );
                    rt2.spawn_on(f % vcpus, task)
                })
                .collect();
            for t in tasks {
                t.await;
            }
            0i64
        })
    });
    g.add_device(Tracer::device(probe, front));
    g
}

/// One episode's world after its measured phase.
struct Episode {
    log: Log,
    phase: Phase,
    setup_s: f64,
    host_s: f64,
}

/// Builds one world, runs every flow for the window and drains it.
fn episode(p: &Params, seed: u64, trace: bool) -> Episode {
    let flows = flows(p, seed);
    let patterns = Arc::new(flows.iter().map(|f| f.pattern.clone()).collect::<Vec<_>>());

    let setup = Cpu::now();
    // Enough pCPUs that no vCPU gang waits on the host; dom0 gets a
    // switch lane per vCPU.
    let mut w = World::new(trace, 2 + 2 * p.vcpus, 2, NetProfile::ten_gbe());
    let log: Shared<Log> = Arc::new(Mutex::new(Log {
        rx: vec![RxFlow::default(); p.flows],
        tx: vec![TxFlow::default(); p.flows],
        ..Log::default()
    }));
    let rprobe = w.probe(SERVER);
    let rx = receiver(&mut w, p, patterns, Arc::clone(&log), &rprobe);
    w.create("iperf-rx", p.vcpus, &rprobe, Box::new(rx));
    let tprobe = w.probe(CLIENT);
    let tx = sender(&mut w, p, seed, flows, Arc::clone(&log), &tprobe);
    let tdom = w.create("iperf-tx", p.vcpus, &tprobe, Box::new(tx));
    w.run_until(T_START);
    let setup_s = setup.elapsed().as_secs_f64();
    let a = w.snapshot();

    let measured = Cpu::now();
    let flows_done = || lock(&log).finished == p.flows;
    w.run_until_done(flows_done, tdom, Dur::millis(10), T_START + Dur::secs(600));
    let host_s = measured.elapsed().as_secs_f64();
    let b = w.snapshot();
    let log = std::mem::take(&mut *lock(&log));
    Episode {
        log,
        phase: Phase::between(&a, &b),
        setup_s,
        host_s,
    }
}

/// Runs every episode and pools what they measured.
pub fn run(p: &Params, seed: u64, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    let mut phase = Phase::default();
    let mut probes = Vec::new();
    let (mut delivered, mut segs_out, mut tx_segs, mut rto, mut fast) = (0u64, 0, 0, 0, 0);
    let (mut short, mut corrupt, mut span_s) = (0, 0, 0.0);
    let mut setups = Vec::new();
    for e in 0..p.episodes {
        let ep = episode(
            p,
            Rng::for_stream(seed, &format!("bulk_tcp.episode.{e}")).next_u64(),
            trace,
        );
        setups.push(ep.setup_s);
        o.host_s += ep.host_s;
        phase.add(&ep.phase);
        let log = ep.log;
        let mut first = Time::MAX;
        for (rx, tx) in log.rx.iter().zip(&log.tx) {
            if rx.bytes != tx.written || tx.written == 0 {
                short += 1;
            } else if rx.mismatched > 0 {
                corrupt += 1;
            }
            delivered += rx.in_window;
            first = first.min(tx.connect_start.unwrap_or(Time::MAX));
            for s in [&rx.stats, &tx.stats].into_iter().flatten() {
                segs_out += s.segs_out;
            }
            if let Some(s) = &tx.stats {
                tx_segs += s.segs_out;
                rto += s.rto_retransmits;
                fast += s.fast_retransmits;
            }
        }
        // Payload counts from the first connect to the end of the window.
        span_s += (T_START + p.window).saturating_since(first).as_secs_f64();
        o.wrong += log.probe_mismatches;
        probes.extend_from_slice(&log.probes);
    }
    o.setup_s = median(&setups).unwrap_or(0.0);
    o.attempted = (p.episodes * p.flows + probes.len()) as u64;
    o.fail("byte_count", short);
    o.fail("payload_mismatch", corrupt);
    o.fail("probe_echo", probes.iter().filter(|s| !s.ok).count() as u64);
    o.wrong += corrupt;

    let lat = summarize(&probes, |_| true);
    put(
        &mut o.virt,
        "goodput_mbps",
        delivered as f64 * 8.0 / span_s / 1e6,
        "Mb/s",
    );
    put(&mut o.virt, "lat_p50_us", lat.p50_us, "us");
    put(&mut o.virt, "lat_p99_us", lat.p99_us, "us");
    // The probe is the workload's only request class.
    put(&mut o.virt, "write_p99_us", lat.p99_us, "us");
    o.samples.insert("lat", lat.samples);
    o.samples.insert("write", lat.samples);

    let mb = delivered as f64 / 1e6;
    phase.counters(&mut o.counters);
    o.counters.insert("tcp.segs_out", segs_out);
    o.counters.insert("tcp.rto", rto);
    o.counters.insert("tcp.fast_retransmits", fast);
    o.counters.insert("bytes_in_window", delivered);

    let l = &mut o.layer;
    let (layer_sum, lanes_ok) = common_layers(&phase, mb, l);
    o.layer_host_s = layer_sum;
    o.lanes_within_elapsed = lanes_ok;
    let grant_ops = phase.hv.grant_maps + phase.hv.grant_copies;
    put(
        l,
        "hypervisor.grant_ops_per_mb",
        grant_ops as f64 / mb,
        "count",
    );
    put(
        l,
        "cstruct.copy_bytes_per_byte",
        phase.copy_bytes as f64 / delivered.max(1) as f64,
        "ratio",
    );
    put(l, "net.tcp.segs_per_mb", segs_out as f64 / mb, "count");
    put(
        l,
        "net.tcp.retx_ratio",
        (rto + fast) as f64 / tx_segs.max(1) as f64,
        "ratio",
    );
    put(l, "net.tcp.rto", rto as f64, "count");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_follow_the_repeated_pattern() {
        let pattern = [1u8, 2, 3, 4];
        assert_eq!(mismatches(&pattern, 2, &[3, 4, 1, 2, 3, 4, 1]), 0);
        assert_eq!(mismatches(&pattern, 2, &[3, 9, 1, 2, 9, 4]), 2);
        assert_eq!(mismatches(&pattern, 0, &[]), 0);
    }
}
