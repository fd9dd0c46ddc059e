//! `web_rw`: open-loop httperf sessions against the Figure 12 appliance.
//!
//! The appliance is HTTP plus the copy-on-write B-tree on a Xen net ring
//! and a Xen blk ring, preloaded with tweets at set-up. Sessions arrive as
//! a Poisson process; each connects, posts one tweet, reads the timeline
//! (the latest tweets, one `Tree::get` each) nine times and closes. Open
//! loop matters: `HttpConnection::close` waits out TIME-WAIT, so a
//! closed-loop client would measure TIME-WAIT instead of the appliance.
//! Sessions overlap, so writes run beside reads and beside each other.
//! The run ends by reading back every acknowledged post.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mirage_devices::netfront::CopyDiscipline;
use mirage_devices::{Backend, NetProfile};
use mirage_http::server::HttpStats;
use mirage_http::{Handler, HandlerFuture, HttpConnection, HttpServer, Request, Response, Router};
use mirage_hypervisor::toolstack::{BuildMode, DomainSpec, Toolstack};
use mirage_hypervisor::{Dur, Time};
use mirage_net::{Ipv4Addr, Mac, Stack, StackConfig, StackStats};
use mirage_runtime::{Runtime, UnikernelGuest};
use mirage_storage::btree::TreeStats;
use mirage_storage::{BlkDevice, BlockLog, Tree};
use mirage_testkit::rng::{fnv1a, Rng};

use crate::clock::Cpu;
use crate::loadgen::{poisson, rate_ok, summarize, Sample};
use crate::probe::{add_app_host, timed, DomainProbe, Tracer};
use crate::stats::{percentile, put};
use crate::world::{common_layers, Phase, World, CLIENT, SERVER};
use crate::{Outcome, Size};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 80);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);
/// The client starts its schedule here; boot and preload end before it.
const T_START: Time = Time::from_nanos(2_000_000_000);
/// Latency limit at p99 for one request.
pub const LIMIT: Dur = Dur::millis(100);
/// Timeline reads per session, and tweets per timeline.
const GETS_PER_SESSION: usize = 9;
const TIMELINE: u64 = 20;
const POST: u8 = 0;
const GET: u8 = 1;

/// One web_rw configuration.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Offered session rate, sessions per virtual second.
    pub rate: f64,
    /// Independent appliance lifetimes; each boots fresh.
    pub episodes: usize,
    /// Sessions per episode.
    pub sessions_per_episode: usize,
    /// Tweets stored at set-up.
    pub preload: u64,
}

/// The fixed-load point and its size.
pub fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            rate: 20.0,
            episodes: 44,
            sessions_per_episode: 25,
            preload: 64,
        },
        Size::Reduced => Params {
            rate: 20.0,
            episodes: 2,
            sessions_per_episode: 10,
            preload: 64,
        },
    }
}

/// A tweet body that proves its own origin: `{kind}{n}-{tag}-` and 16 to
/// 140 bytes of text, where the tag, a seeded hash of the rest, also
/// picks the length.
fn tweet(seed: u64, kind: char, n: u64) -> String {
    let tag = fnv1a(format!("{seed}/{kind}{n}").as_bytes());
    let text = "unikernels! ".repeat(12);
    format!(
        "{kind}{n}-{tag:016x}-{}",
        &text[..16 + (tag % 125) as usize]
    )
}

fn tweet_valid(seed: u64, body: &str) -> bool {
    let Some((head, _)) = body.split_once('-') else {
        return false;
    };
    let mut chars = head.chars();
    let (Some(kind), Ok(n)) = (chars.next(), chars.as_str().parse::<u64>()) else {
        return false;
    };
    tweet(seed, kind, n) == body
}

fn key(seq: u64) -> String {
    format!("t{seq:08}")
}

/// Server-side spans and counters.
#[derive(Default)]
struct ServerLog {
    bound_at: Option<Time>,
    ready_at: Option<Time>,
    set_virt_us: Vec<f64>,
    get_virt_us: Vec<f64>,
    handler_virt_us: Vec<f64>,
    storage_host: Duration,
    storage_errors: u64,
    stack: Vec<StackStats>,
    tree: Vec<TreeStats>,
    http: Option<Arc<HttpStats>>,
    /// Error responses during the measured phase.
    http_errors: u64,
}

/// Client-side request log and check results.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Acknowledged posts: key → (body, index of the POST sample).
    acked: HashMap<String, (String, usize)>,
    late_us: Vec<f64>,
    connect_virt_us: Vec<f64>,
    failures: HashMap<&'static str, u64>,
    wrong: u64,
    lost_writes: u64,
    /// Body bytes of successful responses.
    body_bytes: u64,
}

impl ClientLog {
    fn fail(&mut self, what: &'static str) {
        *self.failures.entry(what).or_default() += 1;
    }
}

type Shared<T> = Arc<Mutex<T>>;

fn lock<T>(m: &Shared<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("log mutex poisoned")
}

/// Wraps the router to time each handler future (traced runs only).
struct TimedRouter {
    inner: Router,
    rt: Runtime,
    log: Shared<ServerLog>,
    probe: Option<DomainProbe>,
}

impl Handler for TimedRouter {
    fn handle(&self, req: Request) -> HandlerFuture {
        let fut = self.inner.handle(req);
        let rt = self.rt.clone();
        let log = Arc::clone(&self.log);
        let probe = self.probe.clone();
        Box::pin(async move {
            let (resp, span) = timed(true, &rt, fut).await;
            lock(&log).handler_virt_us.push(span.virt_ns as f64 / 1e3);
            add_app_host(&probe, span.host);
            resp
        })
    }
}

struct App {
    tree: Tree<BlockLog<BlkDevice>>,
    seq: AtomicU64,
    stack: Stack,
    rt: Runtime,
    log: Shared<ServerLog>,
    trace: bool,
}

impl App {
    async fn set(&self, k: &str, v: &[u8]) -> bool {
        let (r, span) = timed(self.trace, &self.rt, self.tree.set(k.as_bytes(), v)).await;
        let mut log = lock(&self.log);
        log.set_virt_us.push(span.virt_ns as f64 / 1e3);
        log.storage_host += span.host;
        log.storage_errors += u64::from(r.is_err());
        r.is_ok()
    }

    async fn get(&self, k: &str) -> Result<Option<Vec<u8>>, ()> {
        let (r, span) = timed(self.trace, &self.rt, self.tree.get(k.as_bytes())).await;
        let mut log = lock(&self.log);
        log.get_virt_us.push(span.virt_ns as f64 / 1e3);
        log.storage_host += span.host;
        log.storage_errors += u64::from(r.is_err());
        r.map_err(|_| ())
    }

    async fn post(self: Arc<Self>, req: Request) -> Response {
        let k = key(self.seq.fetch_add(1, Ordering::SeqCst));
        if self.set(&k, &req.body).await {
            let mut r = Response::status(201);
            r.body = k.into_bytes();
            r
        } else {
            Response::status(500)
        }
    }

    async fn timeline(self: Arc<Self>) -> Response {
        let latest = self.seq.load(Ordering::SeqCst);
        let mut body = String::new();
        for s in latest.saturating_sub(TIMELINE)..latest {
            let k = key(s);
            match self.get(&k).await {
                Ok(Some(v)) => {
                    body.push_str(&k);
                    body.push(' ');
                    body.push_str(&String::from_utf8_lossy(&v));
                    body.push('\n');
                }
                // Allocated but not yet committed: not part of the timeline.
                Ok(None) => {}
                Err(()) => return Response::status(500),
            }
        }
        Response::ok("text/plain", body.into_bytes())
    }

    async fn read_one(self: Arc<Self>, req: Request) -> Response {
        let (_, query) = req.split_query();
        let k = query.and_then(|q| q.strip_prefix("k=")).unwrap_or("");
        match self.get(k).await {
            Ok(Some(v)) => Response::ok("text/plain", v),
            Ok(None) => Response::status(404),
            Err(()) => Response::status(500),
        }
    }

    async fn stats(self: Arc<Self>) -> Response {
        match self.stack.stack_stats().await {
            Ok(s) => {
                let mut log = lock(&self.log);
                log.stack.push(s);
                log.tree.push(self.tree.stats());
                Response::status(200)
            }
            Err(_) => Response::status(500),
        }
    }
}

fn router(app: Arc<App>) -> Router {
    let (a, b, c, d) = (app.clone(), app.clone(), app.clone(), app);
    Router::new()
        .post("/tweet", move |req: Request| -> HandlerFuture {
            Box::pin(a.clone().post(req))
        })
        .get("/timeline", move |_req: Request| -> HandlerFuture {
            Box::pin(b.clone().timeline())
        })
        .get("/tweet", move |req: Request| -> HandlerFuture {
            Box::pin(c.clone().read_one(req))
        })
        .get("/stats", move |_req: Request| -> HandlerFuture {
            Box::pin(d.clone().stats())
        })
}

fn server_guest(
    w: &mut World,
    seed: u64,
    preload: u64,
    log: Shared<ServerLog>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (netf, nh) = Backend::XenRing.net(
        w.xs.clone(),
        "web0",
        Mac::local(80).0,
        CopyDiscipline::ZeroCopy,
    );
    let (blkf, bh) = Backend::XenRing.blk(w.xs.clone(), "vda", 1 << 20);
    let trace = w.tracer.on();
    let probe2 = probe.clone();
    let mut g = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(SERVER_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            let tree = Tree::new(BlockLog::new(BlkDevice::new(&rt2, bh), 0));
            let listener = stack.tcp_listen(80).await.expect("port 80 is free");
            lock(&log).bound_at = Some(rt2.now());
            for n in 0..preload {
                tree.set(key(n).as_bytes(), tweet(seed, 'p', n).as_bytes())
                    .await
                    .expect("preload into a fresh tree");
            }
            let app = Arc::new(App {
                tree,
                seq: AtomicU64::new(preload),
                stack,
                rt: rt2.clone(),
                log: Arc::clone(&log),
                trace,
            });
            lock(&log).ready_at = Some(rt2.now());
            let server = if trace {
                HttpServer::new(TimedRouter {
                    inner: router(app),
                    rt: rt2.clone(),
                    log: Arc::clone(&log),
                    probe: probe2,
                })
            } else {
                HttpServer::new(router(app))
            };
            lock(&log).http = Some(server.stats());
            server.serve(rt2, listener).await
        })
    });
    g.add_device(Tracer::device(probe, netf));
    g.add_device(Tracer::device(probe, blkf));
    w.runtime(g.runtime());
    g
}

/// Asks the server to snapshot its stack counters. The close runs in its
/// own task: it waits out TIME-WAIT.
async fn stats_call(stack: &Stack, rt: &Runtime) {
    if let Ok(mut c) = HttpConnection::open(stack, SERVER_IP, 80).await {
        let _ = c.request(&Request::get("/stats")).await;
        rt.spawn(c.close());
    }
}

/// One session: connect, POST, nine timeline GETs, close.
async fn session(stack: Stack, rt: Runtime, seed: u64, n: u64, due0: Time, log: Shared<ClientLog>) {
    let classes = std::iter::once(POST).chain(std::iter::repeat_n(GET, GETS_PER_SESSION));
    let mut due = due0;
    let c0 = rt.now();
    let mut conn = HttpConnection::open(&stack, SERVER_IP, 80).await.ok();
    if conn.is_some() {
        lock(&log)
            .connect_virt_us
            .push(rt.now().since(c0).as_nanos() as f64 / 1e3);
    }
    for class in classes {
        let Some(c) = conn.as_mut() else {
            let mut l = lock(&log);
            l.samples.push(Sample {
                class,
                due,
                done: rt.now(),
                ok: false,
            });
            l.fail("connection");
            continue;
        };
        let body = tweet(seed, 's', n);
        let req = if class == POST {
            Request::post("/tweet", body.clone().into_bytes())
        } else {
            Request::get("/timeline")
        };
        let resp = c.request(&req).await;
        let done = rt.now();
        let mut l = lock(&log);
        let ok = match resp {
            Err(_) => {
                l.fail("connection");
                conn = None;
                false
            }
            Ok(r) if class == POST && r.status == 201 => {
                l.body_bytes += r.body.len() as u64;
                let k = String::from_utf8_lossy(&r.body).into_owned();
                let idx = l.samples.len();
                l.acked.insert(k, (body, idx));
                true
            }
            Ok(r) if class == GET && r.status == 200 => {
                let good = check_timeline(seed, &l.acked, &r.body);
                if good {
                    l.body_bytes += r.body.len() as u64;
                } else {
                    l.wrong += 1;
                    l.fail("timeline_content");
                }
                good
            }
            Ok(_) => {
                l.fail("http_status");
                false
            }
        };
        l.samples.push(Sample {
            class,
            due,
            done,
            ok,
        });
        due = done;
    }
    if let Some(c) = conn {
        c.close().await;
    }
}

/// Every timeline line is `key body`, the body is a well-formed tweet and,
/// if the key was acknowledged to this client, the body posted under it.
fn check_timeline(seed: u64, acked: &HashMap<String, (String, usize)>, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    text.lines().count() as u64 <= TIMELINE
        && text.lines().all(|line| {
            let Some((k, v)) = line.split_once(' ') else {
                return false;
            };
            tweet_valid(seed, v) && acked.get(k).is_none_or(|(posted, _)| posted == v)
        })
}

/// Reads every acknowledged post back; a post whose body is gone or
/// different is a lost write and its POST counts as failed.
async fn read_back(stack: &Stack, log: &Shared<ClientLog>) {
    let mut acked: Vec<(String, String, usize)> = lock(log)
        .acked
        .iter()
        .map(|(k, (v, i))| (k.clone(), v.clone(), *i))
        .collect();
    acked.sort();
    let mut conn = HttpConnection::open(stack, SERVER_IP, 80).await.ok();
    for (k, v, idx) in acked {
        let got = match conn.as_mut() {
            Some(c) => c.request(&Request::get(format!("/tweet?k={k}"))).await.ok(),
            None => None,
        };
        let mut l = lock(log);
        match got {
            Some(r) if r.status == 200 && r.body == v.as_bytes() => {}
            Some(r) => {
                l.lost_writes += 1;
                if r.status == 200 {
                    l.wrong += 1;
                }
                l.fail("lost_write");
                l.samples[idx].ok = false;
            }
            None => {
                conn = None;
                l.lost_writes += 1;
                l.fail("lost_write");
                l.samples[idx].ok = false;
            }
        }
    }
    if let Some(c) = conn {
        c.close().await;
    }
}

fn client_guest(
    w: &mut World,
    seed: u64,
    first_session: u64,
    arrivals: Vec<Time>,
    log: Shared<ClientLog>,
    load_done: Arc<AtomicBool>,
    probe: &Option<DomainProbe>,
) -> UnikernelGuest {
    let (netf, nh) = Backend::XenRing.net(
        w.xs.clone(),
        "perf",
        Mac::local(99).0,
        CopyDiscipline::ZeroCopy,
    );
    let mut g = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(CLIENT_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep_until(Time::from_nanos(T_START.as_nanos() - 50_000_000))
                .await;
            stats_call(&stack, &rt2).await;
            rt2.sleep_until(T_START).await;
            let mut handles = Vec::with_capacity(arrivals.len());
            for (n, at) in arrivals.into_iter().enumerate() {
                rt2.sleep_until(at).await;
                lock(&log)
                    .late_us
                    .push(rt2.now().saturating_since(at).as_nanos() as f64 / 1e3);
                let s = session(
                    stack.clone(),
                    rt2.clone(),
                    seed,
                    first_session + n as u64,
                    at,
                    Arc::clone(&log),
                );
                handles.push(rt2.spawn(s));
            }
            for h in handles {
                h.await;
            }
            stats_call(&stack, &rt2).await;
            load_done.store(true, Ordering::SeqCst);
            read_back(&stack, &log).await;
            0i64
        })
    });
    g.add_device(Tracer::device(probe, netf));
    w.runtime(g.runtime());
    g
}

/// One episode: a freshly booted appliance serving its share of sessions.
struct Episode {
    client: ClientLog,
    server: ServerLog,
    phase: Phase,
    setup_s: f64,
    host_s: f64,
    build_ms: f64,
    boot_ms: f64,
    /// Successful response body bytes.
    body_bytes: u64,
}

fn episode(p: &Params, seed: u64, e: usize, trace: bool) -> Episode {
    let mut rng = Rng::for_stream(seed, &format!("web_rw.arrivals.{e}"));
    let arrivals = poisson(&mut rng, p.rate, p.sessions_per_episode, T_START);
    let first_session = (e * p.sessions_per_episode) as u64;

    let setup = Cpu::now();
    let mut w = World::new(trace, 3, 1, NetProfile::ten_gbe());
    let server_log: Shared<ServerLog> = Shared::default();
    let client_log: Shared<ClientLog> = Shared::default();
    let load_done = Arc::new(AtomicBool::new(false));

    let sprobe = w.probe(SERVER);
    let server = server_guest(&mut w, seed, p.preload, Arc::clone(&server_log), &sprobe);
    let built = Toolstack::new(BuildMode::Parallel).build_one(
        &mut w.hv,
        DomainSpec::new(
            "web-appliance",
            64,
            Tracer::guest(&sprobe, Box::new(server)),
        ),
    );
    let cprobe = w.probe(CLIENT);
    let client = client_guest(
        &mut w,
        seed,
        first_session,
        arrivals,
        Arc::clone(&client_log),
        Arc::clone(&load_done),
        &cprobe,
    );
    let cdom = w.create("httperf", 1, &cprobe, Box::new(client));

    w.run_until(T_START);
    {
        let mut l = lock(&server_log);
        assert!(
            l.ready_at.is_some_and(|t| t < T_START),
            "web_rw set-up did not finish before the schedule starts"
        );
        l.set_virt_us.clear();
        l.get_virt_us.clear();
        l.handler_virt_us.clear();
        l.storage_host = Duration::ZERO;
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let http_errors = |l: &ServerLog| {
        l.http
            .as_ref()
            .map_or(0, |h| h.errors.load(Ordering::Relaxed))
    };
    let errors0 = http_errors(&lock(&server_log));
    let a = w.snapshot();

    let measured = Cpu::now();
    w.run_until_done(
        || load_done.load(Ordering::SeqCst),
        cdom,
        Dur::millis(20),
        T_START + Dur::secs(3600),
    );
    let host_s = measured.elapsed().as_secs_f64();
    let b = w.snapshot();
    let phase = Phase::between(&a, &b);
    // The server's spans and counters end with the measured phase.
    let mut server = std::mem::take(&mut *lock(&server_log));
    server.http_errors = http_errors(&server) - errors0;

    // Read-back, outside the measured phase.
    w.run_until_done(|| false, cdom, Dur::millis(50), T_START + Dur::secs(7200));
    assert_eq!(w.hv.exit_code(cdom), Some(0), "web_rw client finished");
    let client = std::mem::take(&mut *lock(&client_log));
    let boot_ms = server
        .bound_at
        .map_or(0.0, |t| t.saturating_since(built.requested).as_millis_f64());
    let body_bytes = client.body_bytes;
    Episode {
        client,
        server,
        phase,
        setup_s,
        host_s,
        build_ms: built.build_time().as_millis_f64(),
        boot_ms,
        body_bytes,
    }
}

/// Runs every episode: set-up, the measured phase and the read-back.
pub fn run(p: &Params, seed: u64, trace: bool) -> Outcome {
    let mut o = Outcome {
        lanes_within_elapsed: true,
        ..Outcome::default()
    };
    let mut phase = Phase::default();
    let mut samples = Vec::new();
    let (mut set_us, mut get_us, mut handler_us, mut connect_us, mut late_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut storage_host, mut storage_errors, mut lost_writes) = (Duration::ZERO, 0, 0);
    let (mut max_conns, mut cookies, mut timer_polls) = (0u64, 0u64, 0u64);
    let (mut commits, mut nodes_written) = (0u64, 0u64);
    let (mut build_ms, mut boot_ms, mut body_bytes, mut http_errors) = (0.0, 0.0, 0u64, 0u64);
    let mut setups = Vec::new();
    for e in 0..p.episodes {
        let ep = episode(p, seed, e, trace);
        setups.push(ep.setup_s);
        o.host_s += ep.host_s;
        phase.add(&ep.phase);
        let (c, s) = (&ep.client, &ep.server);
        let mut fails: Vec<_> = c.failures.iter().collect();
        fails.sort();
        for (name, n) in fails {
            o.fail(name, *n);
        }
        o.wrong += c.wrong;
        http_errors += s.http_errors;
        samples.extend_from_slice(&c.samples);
        set_us.extend_from_slice(&s.set_virt_us);
        get_us.extend_from_slice(&s.get_virt_us);
        handler_us.extend_from_slice(&s.handler_virt_us);
        connect_us.extend_from_slice(&c.connect_virt_us);
        late_us.extend_from_slice(&c.late_us);
        storage_host += s.storage_host;
        storage_errors += s.storage_errors;
        lost_writes += c.lost_writes;
        if let (Some(first), Some(last)) = (s.stack.first(), s.stack.last()) {
            max_conns = max_conns.max(last.max_conns);
            cookies += last.syn_cookies_sent - first.syn_cookies_sent;
            timer_polls += last.timer_polls - first.timer_polls;
        }
        if let (Some(first), Some(last)) = (s.tree.first(), s.tree.last()) {
            commits += last.commits - first.commits;
            nodes_written += last.nodes_written - first.nodes_written;
        }
        build_ms = ep.build_ms;
        boot_ms = ep.boot_ms;
        body_bytes += ep.body_bytes;
    }
    o.setup_s = crate::stats::median(&setups).unwrap_or(0.0);
    o.attempted = samples.len() as u64;

    let all = summarize(&samples, |_| true);
    let posts = summarize(&samples, |x| x.class == POST);
    put(&mut o.virt, "lat_p50_us", all.p50_us, "us");
    put(&mut o.virt, "lat_p99_us", all.p99_us, "us");
    put(&mut o.virt, "write_p99_us", posts.p99_us, "us");
    // Open loop: the window is the offered schedule, sessions / rate.
    let window_s = (p.episodes * p.sessions_per_episode) as f64 / p.rate;
    put(
        &mut o.virt,
        "goodput_mbps",
        body_bytes as f64 * 8.0 / window_s / 1e6,
        "Mb/s",
    );
    o.samples.insert("lat", all.samples);
    o.samples.insert("write", posts.samples);
    o.meets_limit = rate_ok(&samples, LIMIT);

    let ops = o.attempted as f64;
    phase.counters(&mut o.counters);
    o.counters.insert("storage.errors", storage_errors);
    o.counters.insert("storage.lost_writes", lost_writes);
    o.counters.insert("storage.commits", commits);
    o.counters.insert("storage.nodes_written", nodes_written);
    o.counters.insert("http.body_bytes", body_bytes);
    o.counters.insert("http.errors", http_errors);

    let l = &mut o.layer;
    let (layer_sum, lanes_ok) = common_layers(&phase, ops, l);
    o.layer_host_s = layer_sum;
    o.lanes_within_elapsed = lanes_ok;
    put(l, "hypervisor.build_ms", build_ms, "ms");
    put(l, "boot_ms", boot_ms, "ms");
    put(
        l,
        "devices.back.blk_per_req",
        phase.dom0.blk_completed as f64 / ops,
        "count",
    );
    put(
        l,
        "cstruct.serialize_bytes_per_byte",
        phase.serialize_bytes as f64 / body_bytes.max(1) as f64,
        "ratio",
    );
    put(
        l,
        "net.tcp.connect_p99_us",
        percentile(&connect_us, 99.0).unwrap_or(0.0),
        "us",
    );
    put(l, "net.stack.max_conns", max_conns as f64, "count");
    put(l, "net.stack.syn_cookies_sent", cookies as f64, "count");
    put(
        l,
        "net.stack.timer_polls_per_op",
        timer_polls as f64 / ops,
        "count",
    );
    put(
        l,
        "storage.set_p99_us",
        percentile(&set_us, 99.0).unwrap_or(0.0),
        "us",
    );
    put(
        l,
        "storage.get_p99_us",
        percentile(&get_us, 99.0).unwrap_or(0.0),
        "us",
    );
    put(l, "storage.host_s", storage_host.as_secs_f64(), "s");
    put(l, "storage.errors", storage_errors as f64, "count");
    put(l, "storage.lost_writes", lost_writes as f64, "count");
    put(
        l,
        "http.handler_p99_us",
        percentile(&handler_us, 99.0).unwrap_or(0.0),
        "us",
    );
    put(l, "http.errors", http_errors as f64, "count");
    put(
        l,
        "loadgen.late_p99_us",
        percentile(&late_us, 99.0).unwrap_or(0.0),
        "us",
    );
    o
}
