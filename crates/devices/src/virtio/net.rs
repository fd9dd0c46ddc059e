//! VirtioNet — the guest-side Ethernet frontend over split virtqueues.
//!
//! The virtio twin of [`crate::netfront::Netfront`]: the same stack-facing
//! [`NetHandle`] contract (whole Ethernet frames as [`PktBuf`] views, one
//! handle per queue), the same [`CopyDiscipline`] pricing, the same
//! xenstore discovery dance — but the transport underneath is one TX/RX
//! [`SplitQueue`](super::virtqueue::SplitQueue) pair *per queue*, each
//! pair with its own event channel steered to the owning vCPU
//! (`EVTCHNOP_bind_vcpu`). Where the Xen path multiplexes every queue
//! over one ring pair and one channel, the virtio path is multi-queue all
//! the way down: queue q's descriptors, doorbells and interrupts never
//! touch another core's cache line.
//!
//! Doorbells are batched: a service pass publishes every frame it can,
//! then rings each queue's channel at most once — and only if the
//! device's `avail_event` mark asks for it. The per-interface
//! [`NetifStats::doorbells`] counter is the observable the suppression
//! regression test pins: O(bursts), not O(frames).

use std::collections::HashMap;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_runtime::{DeviceService, Runtime};

use super::advertise_queue;
use super::virtqueue::{buf_addr, ChainBuf, QueuePages, SplitQueue};
use crate::netfront::{
    CopyDiscipline, NetHandle, StackQueues, TxBacklog, MAX_FRAME, RX_BUFFERS, TX_BACKLOG_CAP,
    TX_BUFFERS,
};
use crate::xenstore::{FrontLink, Frontend, Xenstore};

/// One TX/RX virtqueue pair with its event channel.
struct QueuePair {
    port: Port,
    tx: SplitQueue,
    rx: SplitQueue,
    /// TX data pages not currently owned by the device.
    tx_free: Vec<(GrantRef, SharedPage)>,
    /// TX pages in flight, keyed by chain head.
    tx_inflight: HashMap<u16, (GrantRef, SharedPage)>,
    /// Posted RX buffers, keyed by chain head.
    rx_bufs: HashMap<u16, (GrantRef, SharedPage)>,
    /// Frames awaiting a free TX descriptor, FIFO per queue.
    backlog: TxBacklog,
}

/// The virtio network frontend; a [`DeviceService`] like
/// [`Netfront`](crate::netfront::Netfront), created through
/// [`Backend::net`](crate::driver::Backend::net) rather than directly.
pub struct VirtioNet {
    link: FrontLink,
    pub(crate) mac: [u8; 6],
    /// Queue areas allocated in Init, consumed when the pairs connect.
    staged: Vec<(QueuePages, QueuePages)>,
    pairs: Vec<QueuePair>,
    stack: StackQueues,
    /// Base vCPU for per-queue channel affinity: queue q is steered to
    /// `(service_vcpu + q) % vcpus`.
    pub(crate) service_vcpu: usize,
}

impl VirtioNet {
    /// Creates a single-queue frontend and its stack-facing handle.
    pub fn new(
        xs: Xenstore,
        name: impl Into<String>,
        mac: [u8; 6],
        discipline: CopyDiscipline,
    ) -> (VirtioNet, NetHandle) {
        let (front, mut handles) = VirtioNet::new_multiqueue(xs, name, mac, discipline, 1);
        (front, handles.remove(0))
    }

    /// Creates a multi-queue frontend: one virtqueue pair, one event
    /// channel and one stack-facing handle per queue. The backend
    /// classifies received frames with the same RSS hash as the stack's
    /// demux ([`crate::rss`]), so queue q's handle sees exactly the flows
    /// of shard slice q.
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
    ) -> (VirtioNet, Vec<NetHandle>) {
        let (stack, handles) = StackQueues::new(mac, discipline, queues);
        let front = VirtioNet {
            link: FrontLink::new(xs, "vnet", name.into()),
            mac,
            staged: Vec::new(),
            pairs: Vec::new(),
            stack,
            service_vcpu: 0,
        };
        (front, handles)
    }

    /// Publishes one empty device-writable page on an RX queue, returning
    /// `(head, notify)`. The queue is sized for the buffer pool, so a
    /// repost after a reclaim always has room.
    fn post_rx(rx: &mut SplitQueue, gref: GrantRef) -> (u16, bool) {
        rx.add_chain(&[ChainBuf {
            addr: buf_addr(gref.0, 0),
            len: MAX_FRAME as u32,
            device_writes: true,
        }])
        .expect("RX queue sized for the buffer pool")
    }
}

impl Frontend for VirtioNet {
    fn link(&mut self) -> &mut FrontLink {
        &mut self.link
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) {
        let base = self.link.base();
        let queues = self.stack.len();
        for q in 0..queues {
            let tx = advertise_queue(env, &self.link, backend, &format!("q{q}/tx-"));
            let rx = advertise_queue(env, &self.link, backend, &format!("q{q}/rx-"));
            self.staged.push((tx, rx));
        }
        let xs = &self.link.xs;
        let domid = env.domid().0.to_string();
        xs.write(env, &format!("{base}/frontend-domid"), &domid);
        xs.write(env, &format!("{base}/queues"), &queues.to_string());
        xs.write(
            env,
            &format!("{base}/mac"),
            &self.mac.map(|b| format!("{b:02x}")).join(":"),
        );
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let queues = self.stack.len();
        let mut ports = Vec::with_capacity(queues);
        for q in 0..queues {
            let Some(port) = self.link.read_port(env, &format!("q{q}/event-port")) else {
                return false; // backend publishes all ports in one pass
            };
            ports.push(port);
        }
        for (q, ((tx_pages, rx_pages), remote)) in
            self.staged.drain(..).zip(ports).enumerate()
        {
            let local = env.evtchn_bind(backend, remote).expect("backend allocated");
            let affinity = (self.service_vcpu + q) % env.vcpus();
            if affinity != 0 {
                let _ = env.evtchn_set_vcpu(local, affinity);
            }
            let mut pair = QueuePair {
                port: local,
                tx: SplitQueue::new(tx_pages),
                rx: SplitQueue::new(rx_pages),
                tx_free: Vec::new(),
                tx_inflight: HashMap::new(),
                rx_bufs: HashMap::new(),
                backlog: self.stack.backlog(TX_BACKLOG_CAP),
            };
            // Post device-writable receive buffers.
            for _ in 0..RX_BUFFERS {
                let page = SharedPage::new();
                let gref = env.grant(backend, page.clone(), true);
                let (head, _) = Self::post_rx(&mut pair.rx, gref);
                pair.rx_bufs.insert(head, (gref, page));
            }
            // Pre-grant the transmit pool (read-only: the device only
            // reads TX payloads).
            for _ in 0..TX_BUFFERS {
                let page = SharedPage::new();
                let gref = env.grant(backend, page.clone(), false);
                pair.tx_free.push((gref, page));
            }
            env.evtchn_notify(local).expect("bound");
            self.pairs.push(pair);
        }
        self.link.write_state(env, "connected");
        true
    }

    fn serve(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        // Drain the per-queue intakes first so each queue's burst is
        // published in one pass and rings at most one doorbell.
        for (q, pair) in self.pairs.iter_mut().enumerate() {
            self.stack.take_sent(q, &mut pair.backlog);
        }
        for (q, pair) in self.pairs.iter_mut().enumerate() {
            let _ = env.evtchn_consume(pair.port);
            let mut notify = false;

            // Reclaim completed transmit chains.
            while let Some((head, _len)) = pair.tx.take_used() {
                if let Some(entry) = pair.tx_inflight.remove(&head) {
                    pair.tx_free.push(entry);
                    progressed = true;
                }
            }

            // Deliver received frames and repost their buffers. The used
            // `len` is the frame length the device wrote.
            while let Some((head, len)) = pair.rx.take_used() {
                let Some((gref, page)) = pair.rx_bufs.remove(&head) else {
                    continue;
                };
                self.stack.deliver(env, &page, len as usize, Some(q));
                let (new_head, n) = Self::post_rx(&mut pair.rx, gref);
                notify |= n;
                pair.rx_bufs.insert(new_head, (gref, page));
                progressed = true;
            }

            // Publish queued frames on the TX virtqueue.
            while pair.backlog.ready() {
                let Some((gref, page)) = pair.tx_free.pop() else {
                    break;
                };
                if pair.tx.free_descriptors() == 0 {
                    pair.tx_free.push((gref, page));
                    break;
                }
                let (_, frame) = pair.backlog.pop().expect("ready");
                page.write(|b| b[..frame.len()].copy_from_slice(&frame));
                self.stack.sent(env, q, frame.len());
                let (head, n) = pair
                    .tx
                    .add_chain(&[ChainBuf {
                        addr: buf_addr(gref.0, 0),
                        len: frame.len() as u32,
                        device_writes: false,
                    }])
                    .expect("free_descriptors checked");
                notify |= n;
                pair.tx_inflight.insert(head, (gref, page));
                progressed = true;
            }

            // One doorbell per queue per pass, and only if a publish
            // crossed the device's avail_event mark.
            if notify {
                let _ = env.evtchn_notify(pair.port);
                self.stack.rang_doorbell();
            }
            // Arm used-ring interrupts before blocking; a race means
            // another pass.
            progressed |= pair.tx.enable_used_notifications();
            progressed |= pair.rx.enable_used_notifications();
        }
        progressed
    }
}

impl DeviceService for VirtioNet {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        self.service_pass(env)
    }

    fn watch_ports(&self) -> Vec<Port> {
        self.pairs.iter().map(|p| p.port).collect()
    }
}
