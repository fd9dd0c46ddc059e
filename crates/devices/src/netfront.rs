//! Netfront — the guest-side Ethernet driver (paper §3.4).
//!
//! "Xen devices consist of a frontend driver in the guest VM, and a backend
//! driver that multiplexes frontend requests." The frontend owns two
//! descriptor rings (transmit and receive), a pool of granted I/O pages,
//! and an event channel. Descriptors never carry packet data — only grant
//! references — so the data path is the zero-copy page-passing scheme of
//! §3.4.1.
//!
//! The [`CopyDiscipline`] knob prices the two architectures the paper
//! compares: a unikernel writes wire bytes straight into the granted I/O
//! page ([`CopyDiscipline::ZeroCopy`]); a conventional OS pays a syscall
//! plus a user↔kernel copy on every packet
//! ([`CopyDiscipline::UserKernelCopy`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use mirage_testkit::sync::Mutex;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, Dur};
use mirage_ring::FrontRing;
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::xenstore::{FrontLink, Frontend, Xenstore};

/// Receive buffers posted to the backend.
pub const RX_BUFFERS: usize = 24;
/// Transmit pages in the recycled pool.
pub const TX_BUFFERS: usize = 24;
/// Frames queued towards the ring before tail-drop.
pub const TX_BACKLOG_CAP: usize = 256;
/// Maximum frame size (one page; jumbo frames are not modelled).
pub const MAX_FRAME: usize = 4096;

/// How packet payloads cross the guest/driver boundary — the architectural
/// difference the paper's network benchmarks measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDiscipline {
    /// Mirage: the stack serialises directly into the granted I/O page;
    /// no further copies, no syscalls.
    ZeroCopy,
    /// Conventional OS: each packet pays a syscall trap plus a
    /// user↔kernel copy before reaching the granted page.
    UserKernelCopy,
}

/// Per-interface counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetifStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped at the transmit backlog.
    pub tx_drops: u64,
    /// Frontend→backend event-channel notifications on the data plane.
    /// Both ring ABIs batch: one service pass rings at most once per
    /// queue, and only when the backend's announced event mark asks for
    /// it — so this grows O(bursts), not O(frames).
    pub doorbells: u64,
}

/// The stack-facing half of a network interface: send and receive whole
/// Ethernet frames.
pub struct NetHandle {
    /// Interface MAC address.
    pub mac: [u8; 6],
    /// Frame transmit queue (stack → driver). Frames travel by reference:
    /// the driver writes them into the granted page without cloning.
    pub tx: Sender<PktBuf>,
    /// Frame receive queue (driver → stack). Each frame is an owned view
    /// the stack slices further without copying.
    pub rx: Receiver<PktBuf>,
    stats: Arc<Mutex<NetifStats>>,
}

impl std::fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetHandle({:02x?})", self.mac)
    }
}

impl NetHandle {
    /// Current interface counters.
    pub fn stats(&self) -> NetifStats {
        *self.stats.lock()
    }
}

mod desc {
    //! Descriptor encodings (they ride in ring slots, never payload).

    pub fn tx_req(gref: u32, len: u16) -> Vec<u8> {
        let mut d = Vec::with_capacity(6);
        d.extend_from_slice(&gref.to_le_bytes());
        d.extend_from_slice(&len.to_le_bytes());
        d
    }

    pub fn parse_tx_req(d: &[u8]) -> Option<(u32, u16)> {
        if d.len() != 6 {
            return None;
        }
        Some((
            u32::from_le_bytes(d[0..4].try_into().ok()?),
            u16::from_le_bytes(d[4..6].try_into().ok()?),
        ))
    }

    pub fn gref_only(gref: u32) -> Vec<u8> {
        gref.to_le_bytes().to_vec()
    }

    pub fn parse_gref(d: &[u8]) -> Option<u32> {
        Some(u32::from_le_bytes(d.try_into().ok()?))
    }

    pub fn rx_rsp(gref: u32, len: u16) -> Vec<u8> {
        tx_req(gref, len)
    }

    pub fn parse_rx_rsp(d: &[u8]) -> Option<(u32, u16)> {
        parse_tx_req(d)
    }
}

pub(crate) use desc::*;

/// The stack-facing side both network frontends share: one intake and
/// one fan-out channel per queue, the interface counters, and the
/// [`CopyDiscipline`] that prices moving payloads across the boundary
/// (the same for both ring ABIs, so the architectural comparison is
/// independent of the transport).
pub(crate) struct StackQueues {
    discipline: CopyDiscipline,
    /// Per-queue TX intake (stack workers -> driver).
    from_stack: Vec<Receiver<PktBuf>>,
    /// Per-queue RX fan-out (driver -> stack workers).
    to_stack: Vec<Sender<PktBuf>>,
    stats: Arc<Mutex<NetifStats>>,
}

impl StackQueues {
    /// Creates the channels of `queues` queues and one stack-facing
    /// handle per queue.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(
        mac: [u8; 6],
        discipline: CopyDiscipline,
        queues: usize,
    ) -> (StackQueues, Vec<NetHandle>) {
        assert!(queues > 0, "a NIC needs at least one queue");
        let stats = Arc::new(Mutex::new(NetifStats::default()));
        let mut from_stack = Vec::with_capacity(queues);
        let mut to_stack = Vec::with_capacity(queues);
        let mut handles = Vec::with_capacity(queues);
        for _ in 0..queues {
            let (tx_in, tx_out) = channel::channel();
            let (rx_in, rx_out) = channel::channel();
            from_stack.push(tx_out);
            to_stack.push(rx_in);
            handles.push(NetHandle {
                mac,
                tx: tx_in,
                rx: rx_out,
                stats: Arc::clone(&stats),
            });
        }
        let queues = StackQueues {
            discipline,
            from_stack,
            to_stack,
            stats,
        };
        (queues, handles)
    }

    /// Number of queues.
    pub fn len(&self) -> usize {
        self.to_stack.len()
    }

    /// A TX backlog that drops its oldest frame past `cap` frames.
    pub fn backlog(&self, cap: usize) -> TxBacklog {
        TxBacklog {
            frames: VecDeque::new(),
            cap,
            stats: Arc::clone(&self.stats),
        }
    }

    /// Moves every frame queue `q`'s stack worker has sent into
    /// `backlog`.
    pub fn take_sent(&mut self, q: usize, backlog: &mut TxBacklog) {
        while let Some(frame) = self.from_stack[q].try_recv() {
            backlog.push(q, frame);
        }
    }

    /// Copies a `len`-byte frame (at most a page) out of its granted
    /// receive page and hands it to the stack worker of queue `q`
    /// (`None`: the queue the frame's RSS hash picks). The fan-out moves only an owned `PktBuf`
    /// (an `Arc` refcount once the stack slices it), never bytes, and the
    /// frame's RX cost is charged on the lane of the vCPU owning its
    /// queue — the per-core ingress-ring model.
    pub fn deliver(
        &self,
        env: &mut DomainEnv<'_>,
        page: &SharedPage,
        len: usize,
        q: Option<usize>,
    ) {
        // Reading the granted page models the DMA transfer, so it is
        // priced by the discipline, not counted as a software copy.
        let len = len.min(MAX_FRAME);
        let mut frame = vec![0u8; len];
        page.read(|b| frame.copy_from_slice(&b[..len]));
        let frame = PktBuf::from_vec(frame);
        let q = q.unwrap_or_else(|| crate::rss::rx_queue(&frame, self.len()));
        let cost = match self.discipline {
            // Page is mapped and sliced; no copy ("received pages are
            // passed directly to the application", §3.4.1).
            CopyDiscipline::ZeroCopy => Dur::ZERO,
            CopyDiscipline::UserKernelCopy => env.costs().syscall + env.costs().copy(len),
        };
        charge_on(env, q, cost);
        {
            let mut st = self.stats.lock();
            st.rx_frames += 1;
            st.rx_bytes += len as u64;
        }
        let _ = self.to_stack[q].send(frame);
    }

    /// Prices and counts a `len`-byte frame written into a TX page for
    /// queue `q`. Serialisation into the I/O page is the sending core's
    /// work.
    pub fn sent(&self, env: &mut DomainEnv<'_>, q: usize, len: usize) {
        let cost = match self.discipline {
            // The single serialise-into-I/O-page write.
            CopyDiscipline::ZeroCopy => env.costs().copy(len),
            CopyDiscipline::UserKernelCopy => {
                env.costs().syscall + env.costs().copy(len) + env.costs().copy(len)
            }
        };
        charge_on(env, q, cost);
        let mut st = self.stats.lock();
        st.tx_frames += 1;
        st.tx_bytes += len as u64;
    }

    /// Counts one data-plane doorbell.
    pub fn rang_doorbell(&self) {
        self.stats.lock().doorbells += 1;
    }
}

/// Charges `cost` on the lane of the vCPU owning queue `q`.
fn charge_on(env: &mut DomainEnv<'_>, q: usize, cost: Dur) {
    let entry_lane = env.current_vcpu();
    env.on_vcpu(q % env.vcpus());
    env.consume(cost);
    env.on_vcpu(entry_lane);
}

/// Frames the stack has sent that wait for a free TX slot, oldest first,
/// each with the queue it came from. Past its cap the oldest frame is
/// dropped and counted in [`NetifStats::tx_drops`].
pub(crate) struct TxBacklog {
    frames: VecDeque<(usize, PktBuf)>,
    cap: usize,
    stats: Arc<Mutex<NetifStats>>,
}

impl TxBacklog {
    fn push(&mut self, q: usize, frame: PktBuf) {
        self.frames.push_back((q, frame));
        if self.frames.len() > self.cap {
            self.frames.pop_front();
            self.stats.lock().tx_drops += 1;
        }
    }

    /// Whether a frame that fits one page is waiting; frames that do not
    /// fit are dropped and counted on the way.
    pub fn ready(&mut self) -> bool {
        while let Some((_, frame)) = self.frames.front() {
            if frame.len() <= MAX_FRAME {
                return true;
            }
            self.frames.pop_front();
            self.stats.lock().tx_drops += 1;
        }
        false
    }

    /// Takes the oldest frame and its queue.
    pub fn pop(&mut self) -> Option<(usize, PktBuf)> {
        self.frames.pop_front()
    }
}

/// The netfront device driver; plugs into a
/// [`UnikernelGuest`](mirage_runtime::UnikernelGuest) as a
/// [`DeviceService`].
///
/// A multi-queue instance ([`Netfront::new_multiqueue`]) keeps one ring
/// pair and one event channel but fans received frames out to per-queue
/// ingress channels by RSS flow hash ([`crate::rss`]), so each stack
/// worker — and therefore each vCPU — sees only its own flows. Cross-core
/// handoff moves `PktBuf` views (refcount bumps), never bytes.
pub struct Netfront {
    link: FrontLink,
    pub(crate) mac: [u8; 6],
    tx_ring: Option<FrontRing>,
    rx_ring: Option<FrontRing>,
    port: Option<Port>,
    /// Recycled transmit pages: (gref, page).
    tx_free: Vec<(GrantRef, SharedPage)>,
    /// Pages travelling through the backend, keyed by gref.
    tx_inflight: HashMap<u32, (GrantRef, SharedPage)>,
    /// Posted receive buffers, keyed by gref.
    rx_bufs: HashMap<u32, SharedPage>,
    /// Intakes are drained in fixed queue order each service pass; RX
    /// frames fan out by [`crate::rss::rx_queue`].
    stack: StackQueues,
    /// One backlog merged across queues; each frame remembers its source
    /// queue so its serialise-into-I/O-page charge lands on the owning
    /// vCPU's lane.
    tx_backlog: TxBacklog,
    /// vCPU this device's event channel is steered to
    /// (`EVTCHNOP_bind_vcpu`); the run-loop charges service work there.
    pub(crate) service_vcpu: usize,
}

impl Netfront {
    /// Creates the driver and its stack-facing handle.
    ///
    /// `name` keys the xenstore handshake and must be unique per interface.
    pub fn new(
        xs: Xenstore,
        name: impl Into<String>,
        mac: [u8; 6],
        discipline: CopyDiscipline,
    ) -> (Netfront, NetHandle) {
        let (front, mut handles) = Netfront::new_multiqueue(xs, name, mac, discipline, 1);
        (front, handles.remove(0))
    }

    /// Creates a multi-queue driver: one stack-facing handle per RX/TX
    /// queue. Received IPv4 TCP frames are classified by Toeplitz flow
    /// hash into `shard % queues`; everything else rides queue 0. Pass
    /// each handle to the stack worker that owns the matching shard
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new_multiqueue(
        xs: Xenstore,
        name: impl Into<String>,
        mac: [u8; 6],
        discipline: CopyDiscipline,
        queues: usize,
    ) -> (Netfront, Vec<NetHandle>) {
        let (stack, handles) = StackQueues::new(mac, discipline, queues);
        // The cap scales with the queue count: each stack worker gets its
        // own burst quota, so eight cores flushing at once don't tail-drop
        // each other's segments.
        let tx_backlog = stack.backlog(TX_BACKLOG_CAP * queues);
        let front = Netfront {
            link: FrontLink::new(xs, "net", name.into()),
            mac,
            tx_ring: None,
            rx_ring: None,
            port: None,
            tx_free: Vec::new(),
            tx_inflight: HashMap::new(),
            rx_bufs: HashMap::new(),
            stack,
            tx_backlog,
            service_vcpu: 0,
        };
        (front, handles)
    }
}

impl Frontend for Netfront {
    fn link(&mut self) -> &mut FrontLink {
        &mut self.link
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) {
        let base = self.link.base();
        let xs = &self.link.xs;
        let tx_page = SharedPage::new();
        let rx_page = SharedPage::new();
        let tx_gref = env.grant(backend, tx_page.clone(), true);
        let rx_gref = env.grant(backend, rx_page.clone(), true);
        self.tx_ring = Some(FrontRing::attach(tx_page));
        self.rx_ring = Some(FrontRing::attach(rx_page));
        let domid = env.domid().0.to_string();
        xs.write(env, &format!("{base}/frontend-domid"), &domid);
        xs.write(env, &format!("{base}/tx-ring"), &tx_gref.0.to_string());
        xs.write(env, &format!("{base}/rx-ring"), &rx_gref.0.to_string());
        xs.write(
            env,
            &format!("{base}/mac"),
            &self.mac.map(|b| format!("{b:02x}")).join(":"),
        );
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let Some(port) = self.link.read_port(env, "event-port") else {
            return false;
        };
        let local = env.evtchn_bind(backend, port).expect("backend allocated");
        self.port = Some(local);

        // Post receive buffers.
        let rx_ring = self.rx_ring.as_mut().expect("attached in Init");
        for _ in 0..RX_BUFFERS {
            let page = SharedPage::new();
            let gref = env.grant(backend, page.clone(), true);
            self.rx_bufs.insert(gref.0, page);
            let _ = rx_ring.push_request(&gref_only(gref.0));
        }
        // Pre-grant the transmit pool (read-only: the backend only reads).
        for _ in 0..TX_BUFFERS {
            let page = SharedPage::new();
            let gref = env.grant(backend, page.clone(), false);
            self.tx_free.push((gref, page));
        }
        if self.service_vcpu != 0 {
            let _ = env.evtchn_set_vcpu(local, self.service_vcpu);
        }
        self.link.write_state(env, "connected");
        env.evtchn_notify(local).expect("bound");
        true
    }

    fn serve(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let port = self.port.expect("connected");
        let _ = env.evtchn_consume(port);

        // Reclaim completed transmit pages.
        if let Some(tx_ring) = self.tx_ring.as_mut() {
            while let Some(rsp) = tx_ring.take_response() {
                if let Some(gref) = parse_gref(&rsp) {
                    if let Some(entry) = self.tx_inflight.remove(&gref) {
                        self.tx_free.push(entry);
                        progressed = true;
                    }
                }
            }
        }

        // Deliver received frames and repost buffers.
        let mut notify_rx = false;
        if let Some(rx_ring) = self.rx_ring.as_mut() {
            while let Some(rsp) = rx_ring.take_response() {
                let Some((gref, len)) = parse_rx_rsp(&rsp) else {
                    continue;
                };
                if let Some(page) = self.rx_bufs.get(&gref) {
                    self.stack.deliver(env, page, len as usize, None);
                    // Repost the same buffer.
                    if let Ok(n) = rx_ring.push_request(&gref_only(gref)) {
                        notify_rx |= n;
                    }
                    progressed = true;
                }
            }
        }

        // Transmit queued frames, draining the per-queue intakes in
        // fixed order (queue id, then FIFO) for a deterministic merge.
        for q in 0..self.stack.len() {
            self.stack.take_sent(q, &mut self.tx_backlog);
        }
        let mut notify_tx = false;
        while self.tx_backlog.ready() {
            let Some((gref, page)) = self.tx_free.pop() else {
                break;
            };
            let tx_ring = self.tx_ring.as_mut().expect("connected");
            if tx_ring.free_slots() == 0 {
                self.tx_free.push((gref, page));
                break;
            }
            let (src_q, frame) = self.tx_backlog.pop().expect("ready");
            page.write(|b| b[..frame.len()].copy_from_slice(&frame));
            notify_tx |= tx_ring
                .push_request(&tx_req(gref.0, frame.len() as u16))
                .expect("free_slots checked");
            self.stack.sent(env, src_q, frame.len());
            self.tx_inflight.insert(gref.0, (gref, page));
            progressed = true;
        }
        if notify_tx || notify_rx {
            let _ = env.evtchn_notify(port);
            self.stack.rang_doorbell();
        }
        // Arm notifications before blocking; if responses raced in, go
        // around again instead of sleeping (the §3.5.1 footnote protocol).
        if let Some(tx_ring) = self.tx_ring.as_mut() {
            progressed |= tx_ring.enable_response_notifications();
        }
        if let Some(rx_ring) = self.rx_ring.as_mut() {
            progressed |= rx_ring.enable_response_notifications();
        }
        progressed
    }
}

impl DeviceService for Netfront {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        self.service_pass(env)
    }

    fn watch_ports(&self) -> Vec<Port> {
        self.port.into_iter().collect()
    }
}
