//! `dns_udp`: open-loop Poisson queries against the memoized Figure 10
//! DNS appliance, both domains on virtio net.
//!
//! Smallest packets, so per-packet cost in the devices and the hypervisor
//! dominates; no TCP and no storage. 90 % of queries are Zipf over the
//! zone's 10,000 names and hit the memo once it is warm; 10 % are unique
//! names, always NXDOMAIN, which always miss the memo and keep
//! `compute_answer` and memo eviction in play.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{Backend, NetProfile};
use mirage_dns::{
    DnsName, DnsServer, DnsServerStats, Message, RData, RType, Rcode, ServerConfig, Zone,
};
use mirage_hypervisor::toolstack::{BuildMode, DomainSpec, Toolstack};
use mirage_hypervisor::{Dur, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig};
use mirage_runtime::UnikernelGuest;
use mirage_testkit::rng::Rng;

use crate::clock::Cpu;
use crate::loadgen::{poisson, rate_ok, summarize, Sample, Zipf};
use crate::probe::{add_app_host, DomainProbe, Tracer};
use crate::stats::{percentile, put};
use crate::world::{common_layers, Phase, World, CLIENT, SERVER};
use crate::{Outcome, Size};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
const ORIGIN: &str = "bench.example";
const ZONE_NAMES: usize = 10_000;
/// The client starts its schedule here; boot and memo warm-up end before.
const T_START: Time = Time::from_nanos(2_000_000_000);
/// A query unanswered this long after it was due has failed.
const TIMEOUT: Dur = Dur::millis(20);
/// Latency limit at p99 for the max-rate search.
pub const LIMIT: Dur = Dur::micros(100);
const ZONE: u8 = 0;
const UNIQUE: u8 = 1;

/// One dns_udp configuration.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Offered query rate, queries per virtual second.
    pub rate: f64,
    /// Queries in the measured phase.
    pub queries: usize,
}

/// The fixed-load point and its size.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            rate: 1_000_000.0,
            queries: 100_000,
        },
        Size::Reduced => Params {
            rate: 1_000_000.0,
            queries: 4_000,
        },
    }
}

/// One query: its wire form, class and the answer the zone prescribes.
struct Query {
    wire: Vec<u8>,
    class: u8,
    qname: DnsName,
    /// `Some(a)` for an A record, `None` for NXDOMAIN.
    expect: Option<Ipv4Addr>,
}

fn expected_a(zone: &Zone, name: &DnsName) -> Option<Ipv4Addr> {
    zone.lookup(name, RType::A)
        .first()
        .and_then(|r| match r.rdata {
            RData::A(ip) => Some(ip),
            _ => None,
        })
}

/// The seeded query stream: Zipf over zone names plus unique misses.
fn schedule(zone: &Zone, p: &Params, seed: u64) -> (Vec<Time>, Vec<Query>) {
    let mut arrivals_rng = Rng::for_stream(seed, "dns_udp.arrivals");
    let mut names_rng = Rng::for_stream(seed, "dns_udp.names");
    let arrivals = poisson(&mut arrivals_rng, p.rate, p.queries, T_START);
    let zipf = Zipf::new(ZONE_NAMES, 1.0);
    // Popularity ranks map to a seeded permutation of the zone's hosts.
    let mut hosts: Vec<usize> = (0..ZONE_NAMES).collect();
    names_rng.shuffle(&mut hosts);
    let queries = (0..p.queries)
        .map(|i| {
            let (class, name) = if names_rng.gen_bool(0.1) {
                (UNIQUE, format!("u{i}-{:x}.{ORIGIN}", names_rng.next_u32()))
            } else {
                (
                    ZONE,
                    format!("host{}.{ORIGIN}", hosts[zipf.sample(&mut names_rng)]),
                )
            };
            let qname = DnsName::parse(&name).expect("generated names are valid");
            let wire = Message::query(i as u16, qname.clone(), RType::A).encode();
            let expect = expected_a(zone, &qname);
            Query {
                wire,
                class,
                qname,
                expect,
            }
        })
        .collect();
    (arrivals, queries)
}

/// Whether `reply` answers query `q` as the zone prescribes.
fn answer_ok(q: &Query, reply: &Message) -> bool {
    match q.expect {
        Some(ip) => {
            reply.rcode == Rcode::NoError
                && reply.answers.len() == 1
                && reply.answers[0].rdata == RData::A(ip)
        }
        None => reply.rcode == Rcode::NxDomain && reply.answers.is_empty(),
    }
}

#[derive(Default)]
struct ServerLog {
    bound_at: Option<Time>,
    server: Option<Arc<DnsServer>>,
    answer_host: Duration,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    late_us: Vec<f64>,
    warm_done: Option<Time>,
    answer_bytes: u64,
    /// Replies that were malformed or answered differently from the zone.
    wrong: u64,
    /// Queries answered in time, but wrongly; and not answered in time.
    mismatches: u64,
    timeouts: u64,
    stale: u64,
}

type Shared<T> = Arc<Mutex<T>>;

fn lock<T>(m: &Shared<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("log mutex poisoned")
}

fn server_guest(
    w: &mut World,
    zone_text: Arc<String>,
    log: Shared<ServerLog>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (netf, nh) = Backend::Virtio.net(
        w.xs.clone(),
        "dns0",
        Mac::local(53).0,
        CopyDiscipline::ZeroCopy,
    );
    let trace = w.tracer.on();
    let probe2 = probe.clone();
    let mut g = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let zone = Zone::parse(&zone_text).expect("zone parses");
            let server = Arc::new(DnsServer::new(zone, ServerConfig::default()));
            let mut sock = stack.udp_bind(53).await.expect("port 53 is free");
            {
                let mut l = lock(&log);
                l.bound_at = Some(rt2.now());
                l.server = Some(Arc::clone(&server));
            }
            // What `DnsServer::serve_udp` does, with the answer timed.
            while let Ok((src, sport, query)) = sock.recv_from().await {
                let answer = if trace {
                    let t = Cpu::now();
                    let a = server.answer(&query);
                    let host = t.elapsed();
                    lock(&log).answer_host += host;
                    add_app_host(&probe2, host);
                    a
                } else {
                    server.answer(&query)
                };
                if let Some(a) = answer {
                    sock.send_to(src, sport, a);
                }
            }
            0i64
        })
    });
    g.add_device(Tracer::device(probe, netf));
    w.runtime(g.runtime());
    g
}

fn client_guest(
    w: &mut World,
    warm: Vec<Vec<u8>>,
    arrivals: Vec<Time>,
    queries: Arc<Vec<Query>>,
    log: Shared<ClientLog>,
    load_done: Arc<AtomicBool>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (netf, nh) = Backend::Virtio.net(
        w.xs.clone(),
        "qp0",
        Mac::local(9).0,
        CopyDiscipline::ZeroCopy,
    );
    let mut g = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(CLIENT_IP));
        let rt = rt.clone();
        rt.clone().spawn(async move {
            let mut sock = stack.udp_bind(40000).await.expect("client port");
            // Memo warm-up: every zone name once, closed loop.
            for q in warm {
                sock.send_to(SERVER_IP, 53, q);
                let _ = rt.timeout(TIMEOUT, Box::pin(sock.recv_from())).await;
            }
            lock(&log).warm_done = Some(rt.now());
            rt.sleep_until(T_START).await;

            // Open loop: send each query when due; between sends, take
            // replies as they come.
            let n = queries.len();
            let mut done: Vec<Option<Time>> = vec![None; n];
            let mut ok = vec![false; n];
            let mut next = 0usize;
            let mut answered = 0usize;
            let end = arrivals.last().copied().unwrap_or(T_START) + TIMEOUT;
            while answered < n && rt.now() < end {
                while next < n && arrivals[next] <= rt.now() {
                    lock(&log)
                        .late_us
                        .push(rt.now().since(arrivals[next]).as_nanos() as f64 / 1e3);
                    sock.send_to(SERVER_IP, 53, queries[next].wire.clone());
                    next += 1;
                }
                let until = if next < n { arrivals[next] } else { end };
                let wait = until.saturating_since(rt.now());
                let Ok(Ok((_, _, wire))) = rt.timeout(wait, Box::pin(sock.recv_from())).await
                else {
                    continue;
                };
                let at = rt.now();
                let mut l = lock(&log);
                let Ok(reply) = Message::parse(&wire) else {
                    l.wrong += 1;
                    continue;
                };
                // The newest sent query with this id; a reply naming any
                // other question is stale.
                let sent = next as u64;
                let i = sent
                    .wrapping_sub(1)
                    .wrapping_sub((sent.wrapping_sub(1).wrapping_sub(reply.id as u64)) & 0xFFFF)
                    as usize;
                let fresh = i < next
                    && done[i].is_none()
                    && reply
                        .questions
                        .first()
                        .is_some_and(|q| q.qname == queries[i].qname);
                if !fresh {
                    l.stale += 1;
                    continue;
                }
                done[i] = Some(at);
                answered += 1;
                if answer_ok(&queries[i], &reply) {
                    ok[i] = true;
                    l.answer_bytes += wire.len() as u64;
                } else {
                    l.wrong += 1;
                }
            }
            let mut l = lock(&log);
            for i in 0..n {
                let (d, good) = match done[i] {
                    Some(t) if t <= arrivals[i] + TIMEOUT => {
                        l.mismatches += u64::from(!ok[i]);
                        (t, ok[i])
                    }
                    _ => {
                        l.timeouts += 1;
                        (arrivals[i] + TIMEOUT, false)
                    }
                };
                l.samples.push(Sample {
                    class: queries[i].class,
                    due: arrivals[i],
                    done: d,
                    ok: good,
                });
            }
            drop(l);
            load_done.store(true, Ordering::SeqCst);
            0i64
        })
    });
    g.add_device(Tracer::device(probe, netf));
    w.runtime(g.runtime());
    g
}

/// The zone file the appliance parses at boot.
fn zone_text() -> String {
    let mut text = format!("$ORIGIN {ORIGIN}.\n$TTL 300\n@ IN SOA ns1 hostmaster 2013031601\n@ IN NS ns1\nns1 IN A 10.0.0.53\n");
    for i in 0..ZONE_NAMES {
        text.push_str(&format!(
            "host{i} IN A 10.1.{}.{}\n",
            (i >> 8) & 0xFF,
            i & 0xFF
        ));
    }
    text
}

/// Builds the world, runs set-up (boot, zone parse, memo warm-up) and the
/// measured phase.
pub fn run(p: &Params, seed: u64, trace: bool) -> Outcome {
    let text = Arc::new(zone_text());
    let zone = Zone::parse(&text).expect("zone parses");
    let (arrivals, queries) = schedule(&zone, p, seed);
    let queries = Arc::new(queries);
    let warm: Vec<Vec<u8>> = (0..ZONE_NAMES)
        .map(|i| {
            let name = DnsName::parse(&format!("host{i}.{ORIGIN}")).expect("valid");
            Message::query(i as u16, name, RType::A).encode()
        })
        .collect();

    let setup = Cpu::now();
    let mut w = World::new(trace, 3, 1, NetProfile::ten_gbe());
    let server_log: Shared<ServerLog> = Shared::default();
    let client_log: Shared<ClientLog> = Shared::default();
    let load_done = Arc::new(AtomicBool::new(false));
    let sprobe = w.probe(SERVER);
    let server = server_guest(&mut w, Arc::clone(&text), Arc::clone(&server_log), &sprobe);
    let built = Toolstack::new(BuildMode::Parallel).build_one(
        &mut w.hv,
        DomainSpec::new(
            "dns-appliance",
            32,
            Tracer::guest(&sprobe, Box::new(server)),
        ),
    );
    let cprobe = w.probe(CLIENT);
    let client = client_guest(
        &mut w,
        warm,
        arrivals,
        Arc::clone(&queries),
        Arc::clone(&client_log),
        Arc::clone(&load_done),
        &cprobe,
    );
    let cdom = w.create("queryperf", 1, &cprobe, Box::new(client));
    w.run_until(T_START);
    let warm_done = lock(&client_log).warm_done;
    assert!(
        warm_done.is_some_and(|t| t < T_START),
        "dns_udp warm-up did not finish before the schedule starts"
    );
    let server_handle = lock(&server_log).server.clone().expect("server booted");
    lock(&server_log).answer_host = Duration::ZERO;
    let dns0: DnsServerStats = server_handle.stats();
    let setup_s = setup.elapsed().as_secs_f64();
    let a = w.snapshot();

    let measured = Cpu::now();
    w.run_until_done(
        || load_done.load(Ordering::SeqCst),
        cdom,
        Dur::millis(5),
        T_START + Dur::secs(600),
    );
    let host_s = measured.elapsed().as_secs_f64();
    let b = w.snapshot();
    assert_eq!(w.hv.exit_code(cdom), Some(0), "dns_udp client finished");
    let phase = Phase::between(&a, &b);
    let dns1 = server_handle.stats();

    let cl = lock(&client_log);
    let sl = lock(&server_log);
    let mut o = Outcome {
        attempted: cl.samples.len() as u64,
        wrong: cl.wrong,
        setup_s,
        host_s,
        ..Outcome::default()
    };
    o.fail("timeout", cl.timeouts);
    o.fail("answer_mismatch", cl.mismatches);

    let all = summarize(&cl.samples, |_| true);
    let misses = summarize(&cl.samples, |s| s.class == UNIQUE);
    let window_s = p.queries as f64 / p.rate;
    put(&mut o.virt, "lat_p50_us", all.p50_us, "us");
    put(&mut o.virt, "lat_p99_us", all.p99_us, "us");
    put(&mut o.virt, "write_p99_us", misses.p99_us, "us");
    put(
        &mut o.virt,
        "goodput_mbps",
        cl.answer_bytes as f64 * 8.0 / window_s / 1e6,
        "Mb/s",
    );
    o.samples.insert("lat", all.samples);
    o.samples.insert("write", misses.samples);
    o.meets_limit = rate_ok(&cl.samples, LIMIT);

    let ops = o.attempted as f64;
    let queries_answered = dns1.queries - dns0.queries;
    phase.counters(&mut o.counters);
    o.counters.insert("dns.queries", queries_answered);
    o.counters
        .insert("dns.memo_hits", dns1.memo_hits - dns0.memo_hits);
    o.counters.insert("dns.answer_bytes", cl.answer_bytes);
    o.counters.insert("dns.stale_replies", cl.stale);

    let l = &mut o.layer;
    let (layer_sum, lanes_ok) = common_layers(&phase, ops, l);
    o.layer_host_s = layer_sum;
    o.lanes_within_elapsed = lanes_ok;
    put(
        l,
        "hypervisor.build_ms",
        built.build_time().as_millis_f64(),
        "ms",
    );
    put(
        l,
        "boot_ms",
        sl.bound_at
            .map_or(0.0, |t| t.saturating_since(built.requested).as_millis_f64()),
        "ms",
    );
    put(l, "dns.host_s", sl.answer_host.as_secs_f64(), "s");
    put(
        l,
        "dns.memo_hit_ratio",
        (dns1.memo_hits - dns0.memo_hits) as f64 / queries_answered.max(1) as f64,
        "ratio",
    );
    put(
        l,
        "loadgen.late_p99_us",
        percentile(&cl.late_us, 99.0).unwrap_or(0.0),
        "us",
    );
    o
}
