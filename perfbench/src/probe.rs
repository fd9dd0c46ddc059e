//! Outside-in instrumentation for the traced run.
//!
//! Every probe wraps a public call boundary of the program — a domain's
//! [`Guest::step`], a front driver's [`DeviceService::service`], an
//! application future — and records host CPU time plus the virtual time
//! the wrapped call consumed. Wrappers forward every call unchanged and
//! add no yields, so a traced world follows exactly the same virtual
//! schedule as an untraced one; the harness checks that.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::{DomainEnv, Guest, Step, Time};
use mirage_runtime::{DeviceService, Runtime};

use crate::clock::Cpu;

/// What one domain's probes accumulated.
#[derive(Debug, Default, Clone)]
pub struct DomainTrace {
    /// Host CPU time inside the domain's `step`.
    pub step_host: Duration,
    /// Virtual CPU consumed per vCPU lane, in ns.
    pub lane_busy_ns: Vec<u64>,
    /// Host CPU time inside front drivers' `service`.
    pub front_host: Duration,
    /// Virtual time consumed inside front drivers' `service`, all lanes, ns.
    pub front_virt_ns: u64,
    /// `service` calls, and the ones that reported progress.
    pub front_calls: u64,
    pub front_progress: u64,
    /// Host CPU time timed by application probes (storage, HTTP handler
    /// bodies, DNS answers) running inside this domain.
    pub app_host: Duration,
}

impl DomainTrace {
    /// Largest per-lane virtual busy time, ns.
    pub fn busiest_lane_ns(&self) -> u64 {
        self.lane_busy_ns.iter().copied().max().unwrap_or(0)
    }
}

/// Shared handle to one domain's trace.
pub type DomainProbe = Arc<Mutex<DomainTrace>>;

fn lock(p: &DomainProbe) -> std::sync::MutexGuard<'_, DomainTrace> {
    p.lock().expect("probe mutex poisoned by a panicking guest")
}

fn lanes_now(env: &DomainEnv<'_>) -> Vec<Time> {
    (0..env.vcpus()).map(|v| env.now_on(v)).collect()
}

/// A [`Guest`] that times its inner guest's `step`.
pub struct TracedGuest {
    inner: Box<dyn Guest>,
    probe: DomainProbe,
}

impl Guest for TracedGuest {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        let before = lanes_now(env);
        let t = Cpu::now();
        let step = self.inner.step(env);
        let host = t.elapsed();
        let mut p = lock(&self.probe);
        p.step_host += host;
        if p.lane_busy_ns.len() < before.len() {
            p.lane_busy_ns.resize(before.len(), 0);
        }
        for (v, start) in before.iter().enumerate() {
            p.lane_busy_ns[v] += env.now_on(v).since(*start).as_nanos();
        }
        step
    }
}

/// A [`DeviceService`] that times its inner front driver.
pub struct TracedDevice {
    inner: Box<dyn DeviceService>,
    probe: DomainProbe,
}

impl DeviceService for TracedDevice {
    fn service(&mut self, env: &mut DomainEnv<'_>, rt: &Runtime) -> bool {
        let before = lanes_now(env);
        let t = Cpu::now();
        let progressed = self.inner.service(env, rt);
        let host = t.elapsed();
        let virt: u64 = before
            .iter()
            .enumerate()
            .map(|(v, start)| env.now_on(v).since(*start).as_nanos())
            .sum();
        let mut p = lock(&self.probe);
        p.front_host += host;
        p.front_virt_ns += virt;
        p.front_calls += 1;
        p.front_progress += u64::from(progressed);
        progressed
    }

    fn watch_ports(&self) -> Vec<Port> {
        self.inner.watch_ports()
    }
}

/// Probes of one world: `None` in an untraced run, where every wrapper
/// below is the identity.
#[derive(Clone, Default)]
pub struct Tracer {
    on: bool,
}

impl Tracer {
    /// A tracer that wraps (`on`) or passes calls through untouched.
    pub fn new(on: bool) -> Tracer {
        Tracer { on }
    }

    /// Whether this run records spans.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh per-domain probe, or `None` when tracing is off.
    pub fn domain(&self) -> Option<DomainProbe> {
        self.on.then(DomainProbe::default)
    }

    /// Wraps a guest in its domain probe.
    pub fn guest(probe: &Option<DomainProbe>, inner: Box<dyn Guest>) -> Box<dyn Guest> {
        match probe {
            Some(p) => Box::new(TracedGuest {
                inner,
                probe: Arc::clone(p),
            }),
            None => inner,
        }
    }

    /// Wraps a front driver in its domain probe.
    pub fn device(
        probe: &Option<DomainProbe>,
        inner: Box<dyn DeviceService>,
    ) -> Box<dyn DeviceService> {
        match probe {
            Some(p) => Box::new(TracedDevice {
                inner,
                probe: Arc::clone(p),
            }),
            None => inner,
        }
    }
}

/// Host CPU time spent polling a future, plus its virtual span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub host: Duration,
    pub virt_ns: u64,
}

struct PollTimed<F> {
    inner: Pin<Box<F>>,
    host: Duration,
}

impl<F: Future> Future for PollTimed<F> {
    type Output = (F::Output, Duration);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let t = Cpu::now();
        let out = self.inner.as_mut().poll(cx);
        self.host += t.elapsed();
        match out {
            Poll::Ready(v) => Poll::Ready((v, self.host)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Awaits `fut`, returning its output and, when `trace` is set, the host
/// time spent polling it and the virtual time from start to completion.
/// Untraced, this is a plain `.await`.
pub async fn timed<F: Future>(trace: bool, rt: &Runtime, fut: F) -> (F::Output, Span) {
    if !trace {
        return (fut.await, Span::default());
    }
    let start = rt.now();
    let (out, host) = PollTimed {
        inner: Box::pin(fut),
        host: Duration::ZERO,
    }
    .await;
    let span = Span {
        host,
        virt_ns: rt.now().since(start).as_nanos(),
    };
    (out, span)
}

/// Charges application-probe host time to a domain trace.
pub fn add_app_host(probe: &Option<DomainProbe>, host: Duration) {
    if let Some(p) = probe {
        lock(p).app_host += host;
    }
}

/// Snapshot of a domain probe (zeroed when tracing is off).
pub fn snapshot(probe: &Option<DomainProbe>) -> DomainTrace {
    probe.as_ref().map(|p| lock(p).clone()).unwrap_or_default()
}
