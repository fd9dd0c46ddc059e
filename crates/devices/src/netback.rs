//! The driver domain: netback, blkback and the virtual switch.
//!
//! In the paper's deployments dom0 hosts the backend halves of every
//! device: netback multiplexes guest NICs onto the physical network and
//! blkback services block rings from physical storage (§3.4). The
//! [`DriverDomain`] guest reproduces that role over the simulated
//! substrate: it discovers frontends through xenstore, maps their granted
//! rings, switches Ethernet frames between guests (learning by source MAC),
//! and services block requests against per-VBD [`SimulatedDisk`]s with the
//! device's timing profile.
//!
//! Both ring ABIs sit behind one [`BackQueue`]: a Xen-ring NIC
//! (`device/net/...`) is a port with one TX/RX queue pair, a virtio NIC
//! (`device/vnet/...`) a port with one pair per queue and RSS
//! classification on delivery; a block device (`device/blk/...` or
//! `device/vblk/...`) is one queue. Discovery is the only code that knows
//! which ABI a device speaks. One switch loop and one block loop serve
//! every port and device through the same forwarding, link conditioning,
//! fault injection and timing paths, so a differential run only varies
//! the transport.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::GrantRef;
use mirage_hypervisor::{DomainEnv, DomainId, Dur, Guest, Step, Time, Wake};

use crate::backq::{BackQueue, BlkHeader, GrantCache, GuestBuf, Role, Token};
use crate::blk::{wire as blkwire, DiskProfile, SimulatedDisk, SECTOR_SIZE};
use crate::netem::{DiskFaultPlan, Netem};
use crate::netfront::MAX_FRAME;
use crate::virtio::virtqueue::{DeviceQueue, QueuePages};
use crate::xenstore::Xenstore;

/// Broadcast MAC.
pub const MAC_BROADCAST: [u8; 6] = [0xFF; 6];

/// Frames queued for a congested guest before tail drop.
const OUT_QUEUE_CAP: usize = 512;

/// A host-side endpoint on the virtual switch — the harness's way to
/// source and sink raw frames without booting a guest (a tap device).
#[derive(Clone, Default)]
pub struct Tap {
    inner: Arc<Mutex<TapInner>>,
}

#[derive(Default)]
struct TapInner {
    mac: [u8; 6],
    to_switch: VecDeque<PktBuf>,
    from_switch: VecDeque<PktBuf>,
}

impl std::fmt::Debug for Tap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tap({:02x?})", self.inner.lock().mac)
    }
}

impl Tap {
    /// A tap with the given MAC.
    pub fn new(mac: [u8; 6]) -> Tap {
        Tap {
            inner: Arc::new(Mutex::new(TapInner {
                mac,
                ..TapInner::default()
            })),
        }
    }

    /// Queues a frame for injection into the switch. Call
    /// [`Hypervisor::wake_external`](mirage_hypervisor::Hypervisor::wake_external)
    /// on the driver domain afterwards so it notices.
    pub fn inject(&self, frame: impl Into<PktBuf>) {
        self.inner.lock().to_switch.push_back(frame.into());
    }

    /// Takes every frame the switch delivered to this tap.
    pub fn harvest(&self) -> Vec<PktBuf> {
        self.inner.lock().from_switch.drain(..).collect()
    }

    /// The tap's MAC address.
    pub fn mac(&self) -> [u8; 6] {
        self.inner.lock().mac
    }
}

/// One TX/RX queue pair of a switch port, with its event channel and the
/// frames already classified to it.
struct NetQueue {
    port: Port,
    tx: BackQueue,
    rx: BackQueue,
    out_queue: VecDeque<PktBuf>,
}

/// A guest NIC on the switch.
struct NetPort {
    queues: Vec<NetQueue>,
    grants: GrantCache,
    /// Set while the frontend has frames queued but no posted rx buffer —
    /// lets tail drops be attributed to a dead/stalled guest rather than
    /// ordinary congestion.
    rx_starved: bool,
}

/// A block request in service until `done_at`. Heap order is the field
/// order: completion time, then the guest's request id.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct PendingBlk {
    done_at: Time,
    id: u64,
    token: Token,
    req: BlkHeader,
    data: GuestBuf,
    ok: bool,
}

/// A guest block device and the disk behind it.
struct BlkDev {
    port: Port,
    queue: BackQueue,
    grants: GrantCache,
    disk: SimulatedDisk,
    busy_until: Time,
    pending: BinaryHeap<Reverse<PendingBlk>>,
}

/// How a frontend family announces itself in xenstore, and how its
/// backend attaches.
type Attach = fn(&mut DriverDomain, &mut DomainEnv<'_>, &str) -> Option<()>;

/// Frontend families in discovery order.
const FAMILIES: [(&str, Attach); 4] = [
    ("device/net/", DriverDomain::attach_net),
    ("device/blk/", DriverDomain::attach_blk),
    ("device/vnet/", DriverDomain::attach_vnet),
    ("device/vblk/", DriverDomain::attach_vblk),
];

/// Network fabric parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetProfile {
    /// Link bandwidth in bits per second (default: gigabit Ethernet, as in
    /// the paper's Figure 8 testbed).
    pub bandwidth_bps: u64,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile {
            bandwidth_bps: 1_000_000_000,
        }
    }
}

impl NetProfile {
    /// A 10 GbE fabric (for the "expect 10 Gb/s with offload" discussion).
    pub fn ten_gbe() -> NetProfile {
        NetProfile {
            bandwidth_bps: 10_000_000_000,
        }
    }

    /// A 40 GbE fabric: the SMP scaling bench uses it so the throughput
    /// matrix measures CPU scaling, not NIC line rate.
    pub fn forty_gbe() -> NetProfile {
        NetProfile {
            bandwidth_bps: 40_000_000_000,
        }
    }

    fn wire_time(&self, bytes: usize) -> Dur {
        Dur::nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// Counters for the whole driver domain.
///
/// Drops are split by reason so chaos tests can distinguish *injected*
/// loss (netem) from *organic* loss (a congested or dead guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverStats {
    /// Frames switched.
    pub frames_switched: u64,
    /// Frames tail-dropped at a live guest's full output queue.
    pub frames_dropped_congestion: u64,
    /// Frames the [`Netem`] link conditioner refused to deliver.
    pub frames_dropped_netem: u64,
    /// Frames tail-dropped while the guest had stopped posting rx buffers
    /// (typically: the domain was killed mid-connection).
    pub frames_dropped_no_rx_buffer: u64,
    /// Block requests completed.
    pub blk_completed: u64,
    /// Injected transient read failures.
    pub blk_read_errors: u64,
    /// Injected transient write failures (nothing persisted).
    pub blk_write_errors: u64,
    /// Injected torn writes (a prefix persisted, completion failed).
    pub blk_torn_writes: u64,
}

/// The dom0 guest: hosts every backend plus the virtual switch.
pub struct DriverDomain {
    xs: Xenstore,
    registered: bool,
    net_profile: NetProfile,
    disk_profile: DiskProfile,
    /// Switch ports in discovery order; the index is the port's id.
    nets: Vec<NetPort>,
    blks: Vec<BlkDev>,
    seen: HashSet<String>,
    mac_table: HashMap<[u8; 6], usize>,
    taps: Vec<Tap>,
    stats: Arc<Mutex<DriverStats>>,
    netem: Option<Netem>,
    /// Frames the link conditioner holds, by (release time, offer order):
    /// ties release in the order the conditioner saw them.
    delayed: BTreeMap<(Time, u64), (Option<usize>, PktBuf)>,
    delay_seq: u64,
    disk_rng: Rng,
    /// Scratch for the buffers of the request in hand.
    bufs: Vec<GuestBuf>,
}

impl DriverDomain {
    /// A driver domain over `xs`, with default gigabit network and PCIe-SSD
    /// disk profiles.
    pub fn new(xs: Xenstore) -> DriverDomain {
        DriverDomain::with_profiles(xs, NetProfile::default(), DiskProfile::pcie_ssd())
    }

    /// Full-control constructor.
    pub fn with_profiles(
        xs: Xenstore,
        net_profile: NetProfile,
        disk_profile: DiskProfile,
    ) -> DriverDomain {
        DriverDomain {
            xs,
            registered: false,
            net_profile,
            disk_profile,
            nets: Vec::new(),
            blks: Vec::new(),
            seen: HashSet::new(),
            mac_table: HashMap::new(),
            taps: Vec::new(),
            stats: Arc::new(Mutex::new(DriverStats::default())),
            netem: None,
            delayed: BTreeMap::new(),
            delay_seq: 0,
            disk_rng: Rng::for_stream(mirage_testkit::DEFAULT_SEED, "netback-disk-faults"),
            bufs: Vec::new(),
        }
    }

    /// Attaches a host-side tap endpoint to the switch.
    pub fn add_tap(&mut self, tap: Tap) {
        self.taps.push(tap);
    }

    /// Installs a [`Netem`] link conditioner on the switch's forwarding
    /// path. Without one (the default) the link is a perfect wire and the
    /// forwarding path is unchanged.
    pub fn set_netem(&mut self, netem: Netem) {
        self.netem = Some(netem);
    }

    /// Replaces the PRNG that drives [`DiskFaultPlan`] draws, so storage
    /// faults follow the caller's `MIRAGE_TEST_SEED` stream discipline.
    pub fn set_disk_fault_rng(&mut self, rng: Rng) {
        self.disk_rng = rng;
    }

    /// Shared counters handle (readable while the domain runs).
    pub fn stats_handle(&self) -> Arc<Mutex<DriverStats>> {
        Arc::clone(&self.stats)
    }

    /// Attaches every frontend that has announced itself (`state =
    /// initialising`) since the last pass, family by family and by key
    /// within a family. A port's index, and so its vCPU lane, follows
    /// this order.
    fn discover(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        for (prefix, attach) in FAMILIES {
            for key in self.xs.keys_with_prefix(prefix) {
                let Some(base) = key.strip_suffix("/state") else {
                    continue;
                };
                if self.seen.contains(base)
                    || self.xs.read(env, &key).as_deref() != Some("initialising")
                {
                    continue;
                }
                if attach(self, env, base).is_some() {
                    self.seen.insert(base.to_owned());
                    progressed = true;
                }
            }
        }
        progressed
    }

    fn read_field<T: std::str::FromStr>(
        &self,
        env: &mut DomainEnv<'_>,
        base: &str,
        field: &str,
    ) -> Option<T> {
        self.xs.read(env, &format!("{base}/{field}"))?.parse().ok()
    }

    /// Allocates the backend's event channel for `{base}/{prefix}` and
    /// publishes it to the frontend.
    fn publish_port(&self, env: &mut DomainEnv<'_>, base: &str, prefix: &str, dom: u32) -> Port {
        let port = env.evtchn_alloc_unbound(DomainId(dom));
        self.xs.write(
            env,
            &format!("{base}/{prefix}event-port"),
            &port.0.to_string(),
        );
        port
    }

    /// A Xen-ring NIC: one TX and one RX descriptor ring.
    fn attach_net(&mut self, env: &mut DomainEnv<'_>, base: &str) -> Option<()> {
        let dom = self.read_field(env, base, "frontend-domid")?;
        let tx: u32 = self.read_field(env, base, "tx-ring")?;
        let rx: u32 = self.read_field(env, base, "rx-ring")?;
        let tx = env.grant_map(GrantRef(tx), true).ok()?;
        let rx = env.grant_map(GrantRef(rx), true).ok()?;
        let queue = NetQueue {
            port: self.publish_port(env, base, "", dom),
            tx: BackQueue::ring(tx, Role::NetTx),
            rx: BackQueue::ring(rx, Role::NetRx),
            out_queue: VecDeque::new(),
        };
        self.add_net_port(vec![queue]);
        Some(())
    }

    /// A Xen-ring block device: one descriptor ring.
    fn attach_blk(&mut self, env: &mut DomainEnv<'_>, base: &str) -> Option<()> {
        let dom = self.read_field(env, base, "frontend-domid")?;
        let ring: u32 = self.read_field(env, base, "ring")?;
        let sectors = self.read_field(env, base, "sectors")?;
        let ring = env.grant_map(GrantRef(ring), true).ok()?;
        let port = self.publish_port(env, base, "", dom);
        self.add_blk_dev(port, BackQueue::ring(ring, Role::Blk), sectors);
        Some(())
    }

    /// A virtio NIC: one TX/RX virtqueue pair and one event channel per
    /// queue. Every queue is mapped before any port is published.
    fn attach_vnet(&mut self, env: &mut DomainEnv<'_>, base: &str) -> Option<()> {
        let dom = self.read_field(env, base, "frontend-domid")?;
        let queues: usize = self.read_field(env, base, "queues")?;
        if queues == 0 {
            return None;
        }
        let mut pairs = Vec::new();
        for q in 0..queues {
            let tx = self.attach_virtq(env, base, &format!("q{q}/tx-"))?;
            let rx = self.attach_virtq(env, base, &format!("q{q}/rx-"))?;
            pairs.push((tx, rx));
        }
        let queues = pairs
            .into_iter()
            .enumerate()
            .map(|(q, (tx, rx))| NetQueue {
                port: self.publish_port(env, base, &format!("q{q}/"), dom),
                tx: BackQueue::virtq(tx, Role::NetTx),
                rx: BackQueue::virtq(rx, Role::NetRx),
                out_queue: VecDeque::new(),
            })
            .collect();
        self.add_net_port(queues);
        Some(())
    }

    /// A virtio block device: one virtqueue of three-descriptor chains.
    fn attach_vblk(&mut self, env: &mut DomainEnv<'_>, base: &str) -> Option<()> {
        let dom = self.read_field(env, base, "frontend-domid")?;
        let sectors = self.read_field(env, base, "sectors")?;
        let queue = self.attach_virtq(env, base, "")?;
        let port = self.publish_port(env, base, "", dom);
        self.add_blk_dev(port, BackQueue::virtq(queue, Role::Blk), sectors);
        Some(())
    }

    /// Maps one virtqueue's three granted areas (`{prefix}desc/avail/used`
    /// under `base`) and attaches the device half. The used area is the
    /// only one mapped writable — the device never touches descriptors or
    /// the avail ring.
    fn attach_virtq(
        &self,
        env: &mut DomainEnv<'_>,
        base: &str,
        prefix: &str,
    ) -> Option<DeviceQueue> {
        let desc: u32 = self.read_field(env, base, &format!("{prefix}desc"))?;
        let avail: u32 = self.read_field(env, base, &format!("{prefix}avail"))?;
        let used: u32 = self.read_field(env, base, &format!("{prefix}used"))?;
        let pages = QueuePages {
            desc: env.grant_map(GrantRef(desc), false).ok()?,
            avail: env.grant_map(GrantRef(avail), false).ok()?,
            used: env.grant_map(GrantRef(used), true).ok()?,
        };
        Some(DeviceQueue::attach(pages))
    }

    fn add_net_port(&mut self, queues: Vec<NetQueue>) {
        self.nets.push(NetPort {
            queues,
            grants: GrantCache::default(),
            rx_starved: false,
        });
    }

    fn add_blk_dev(&mut self, port: Port, queue: BackQueue, sectors: u64) {
        self.blks.push(BlkDev {
            port,
            queue,
            grants: GrantCache::default(),
            disk: SimulatedDisk::new(self.disk_profile, sectors),
            busy_until: Time::ZERO,
            pending: BinaryHeap::new(),
        });
    }

    /// Route `frame` from port `src` (`None`: a tap) to its destination
    /// queue(s). Multi-port delivery (taps, floods) clones the `PktBuf` —
    /// a refcount bump, never a byte copy.
    fn route(&mut self, src: Option<usize>, frame: PktBuf) {
        if frame.len() < 14 {
            return;
        }
        let dst: [u8; 6] = frame[0..6].try_into().expect("checked length");
        let src_mac: [u8; 6] = frame[6..12].try_into().expect("checked length");
        if let Some(src) = src {
            self.mac_table.insert(src_mac, src);
        }
        self.stats.lock().frames_switched += 1;

        // Tap delivery by exact MAC or broadcast.
        let mut tap_hit = false;
        for tap in &self.taps {
            let mut inner = tap.inner.lock();
            if inner.mac == dst || dst == MAC_BROADCAST {
                inner.from_switch.push_back(frame.clone());
                tap_hit = true;
            }
        }

        match self.mac_table.get(&dst) {
            Some(&port) if dst != MAC_BROADCAST => {
                self.deliver(port, frame);
            }
            _ => {
                if tap_hit && dst != MAC_BROADCAST {
                    return;
                }
                // Flood to every other port.
                for port in 0..self.nets.len() {
                    if Some(port) != src {
                        self.deliver(port, frame.clone());
                    }
                }
            }
        }
    }

    /// Queues `frame` at a port, tail-dropping when its output queue is
    /// full. A multi-queue port classifies into a per-queue output queue
    /// with the same RSS hash the stack's demux uses, so every flow lands
    /// on the queue — and vCPU — owning its shard.
    fn deliver(&mut self, port: usize, frame: PktBuf) {
        let port = &mut self.nets[port];
        let q = crate::rss::rx_queue(&frame, port.queues.len());
        let queue = &mut port.queues[q].out_queue;
        if queue.len() >= OUT_QUEUE_CAP {
            let mut s = self.stats.lock();
            if port.rx_starved {
                s.frames_dropped_no_rx_buffer += 1;
            } else {
                s.frames_dropped_congestion += 1;
            }
            return;
        }
        queue.push_back(frame);
    }

    /// Offer a frame to the link conditioner (if any) before switching it.
    /// Conditioned frames may be dropped, duplicated, corrupted or held
    /// until their release time.
    fn offer(&mut self, now: Time, src: Option<usize>, frame: PktBuf) {
        let outs = match self.netem.as_mut() {
            None => {
                self.route(src, frame);
                return;
            }
            Some(nm) => nm.apply(now, frame),
        };
        if outs.is_empty() {
            self.stats.lock().frames_dropped_netem += 1;
            return;
        }
        for (release_at, frame) in outs {
            if release_at <= now {
                self.route(src, frame);
            } else {
                self.delay_seq += 1;
                self.delayed
                    .insert((release_at, self.delay_seq), (src, frame));
            }
        }
    }

    fn service_net(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        // Release frames whose conditioner-imposed delay has elapsed.
        let now = env.now();
        while let Some(entry) = self.delayed.first_entry() {
            if entry.key().0 > now {
                break;
            }
            let (src, frame) = entry.remove();
            self.route(src, frame);
            progressed = true;
        }
        // Ingest frames from guests. On a multi-vCPU driver domain each
        // port's wire serialisation is charged on its own lane (a
        // multi-queue switch port), so two saturated ports don't
        // serialise behind one core; a 1-vCPU dom0 behaves as before.
        let entry_lane = env.current_vcpu();
        let mut bufs = std::mem::take(&mut self.bufs);
        let mut routed: Vec<(Option<usize>, PktBuf)> = Vec::new();
        for (idx, port) in self.nets.iter_mut().enumerate() {
            env.on_vcpu(idx % env.vcpus());
            for q in &mut port.queues {
                let _ = env.evtchn_consume(q.port);
                while let Some((token, _)) = q.tx.pop(env, &mut port.grants, &mut bufs) {
                    // Reading the granted pages models the NIC's DMA; once
                    // off the wire the frame travels through the switch by
                    // reference.
                    let frame = read_frame(env, &mut port.grants, &bufs);
                    q.tx.complete(env, &mut port.grants, token, 0, true);
                    let Some(frame) = frame else {
                        continue;
                    };
                    env.consume(self.net_profile.wire_time(frame.len()));
                    routed.push((Some(idx), PktBuf::from_vec(frame)));
                    progressed = true;
                }
                if q.tx.take_notify() {
                    let _ = env.evtchn_notify(q.port);
                }
            }
        }
        env.on_vcpu(entry_lane);
        for (src, frame) in routed {
            let now = env.now();
            self.offer(now, src, frame);
        }
        // Ingest frames from taps.
        let taps: Vec<Tap> = self.taps.clone();
        for tap in taps {
            loop {
                let frame = tap.inner.lock().to_switch.pop_front();
                let Some(frame) = frame else { break };
                env.consume(self.net_profile.wire_time(frame.len()));
                let now = env.now();
                self.offer(now, None, frame);
                progressed = true;
            }
        }
        // Deliver queued frames into posted rx buffers.
        for port in &mut self.nets {
            for q in &mut port.queues {
                while let Some(frame) = q.out_queue.front() {
                    let len = frame.len();
                    let Some((token, _)) = q.rx.pop(env, &mut port.grants, &mut bufs) else {
                        port.rx_starved = true;
                        break;
                    };
                    port.rx_starved = false;
                    // The first buffer the backend may write that holds
                    // the frame.
                    let target = bufs
                        .iter()
                        .find(|b| b.writable && b.len >= len)
                        .and_then(|b| Some((*b, port.grants.map(env, b.gref, true)?)));
                    let Some((buf, page)) = target else {
                        // Undeliverable (too small, read-only or not
                        // mapped): hand it back empty, keep the frame.
                        q.rx.complete(env, &mut port.grants, token, 0, true);
                        continue;
                    };
                    let frame = q.out_queue.pop_front().expect("peeked");
                    page.write(|b| b[buf.off..buf.off + len].copy_from_slice(&frame));
                    q.rx.complete(env, &mut port.grants, token, len, true);
                    progressed = true;
                }
                if q.rx.take_notify() {
                    let _ = env.evtchn_notify(q.port);
                }
            }
        }
        self.bufs = bufs;
        progressed
    }

    fn service_blk(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let mut bufs = std::mem::take(&mut self.bufs);
        for dev in &mut self.blks {
            let _ = env.evtchn_consume(dev.port);
            // Accept new requests, scheduling their completion times.
            while let Some((token, req)) = dev.queue.pop(env, &mut dev.grants, &mut bufs) {
                progressed = true;
                let (Some(req), &[data]) = (req, &bufs[..]) else {
                    dev.queue.complete(env, &mut dev.grants, token, 0, false);
                    continue;
                };
                if !blk_request_fits(&req, &data, dev.disk.sectors()) {
                    dev.queue.complete(env, &mut dev.grants, token, 0, false);
                    continue;
                }
                let bytes = req.count as usize * SECTOR_SIZE;
                let faults = dev.disk.profile().faults.unwrap_or_default();
                let mut ok = true;
                if req.op == blkwire::OP_READ {
                    if DiskFaultPlan::hit(&mut self.disk_rng, faults.read_error_ppm) {
                        // Transient read failure: data stays intact, the
                        // completion reports failure.
                        ok = false;
                        self.stats.lock().blk_read_errors += 1;
                    }
                } else {
                    // Writes capture the data now (the page may be reused).
                    let mut bytes_in = vec![0u8; bytes];
                    if let Some(page) = dev.grants.map(env, data.gref, false) {
                        page.read(|b| bytes_in.copy_from_slice(&b[data.off..data.off + bytes]));
                    }
                    if DiskFaultPlan::hit(&mut self.disk_rng, faults.write_error_ppm) {
                        // Transient write failure: nothing persists.
                        ok = false;
                        self.stats.lock().blk_write_errors += 1;
                    } else if DiskFaultPlan::hit(&mut self.disk_rng, faults.torn_write_ppm) {
                        // Torn write: only a sector prefix persists — the
                        // on-disk state a power cut mid-request would leave.
                        ok = false;
                        let keep = self.disk_rng.gen_range(0..req.count) as usize * SECTOR_SIZE;
                        dev.disk.write(req.sector, &bytes_in[..keep]);
                        self.stats.lock().blk_torn_writes += 1;
                    } else {
                        dev.disk.write(req.sector, &bytes_in);
                    }
                }
                // The device pipelines: occupancy is the transfer time
                // only, while the fixed latency overlaps across queued
                // requests (NCQ on the paper's PCIe SSD).
                let start = dev.busy_until.max(env.now());
                let transfer = dev.disk.profile().transfer_time(bytes);
                dev.busy_until = start + transfer;
                dev.pending.push(Reverse(PendingBlk {
                    done_at: start + transfer + dev.disk.profile().latency,
                    id: req.id,
                    token,
                    req,
                    data,
                    ok,
                }));
            }
            // Complete requests whose service time has elapsed.
            let now = env.now();
            while dev.pending.peek().is_some_and(|p| p.0.done_at <= now) {
                let Reverse(p) = dev.pending.pop().expect("peeked");
                let mut written = 0;
                if p.req.op == blkwire::OP_READ && p.ok {
                    let bytes = dev.disk.read(p.req.sector, p.req.count);
                    if let Some(page) = dev.grants.map(env, p.data.gref, true) {
                        page.write(|b| {
                            b[p.data.off..p.data.off + bytes.len()].copy_from_slice(&bytes)
                        });
                    }
                    written = bytes.len();
                }
                dev.queue
                    .complete(env, &mut dev.grants, p.token, written, p.ok);
                self.stats.lock().blk_completed += 1;
                progressed = true;
            }
            if dev.queue.take_notify() {
                let _ = env.evtchn_notify(dev.port);
            }
        }
        self.bufs = bufs;
        progressed
    }

    fn next_deadline(&self) -> Option<Time> {
        let blk = self
            .blks
            .iter()
            .filter_map(|b| b.pending.peek().map(|p| p.0.done_at))
            .min();
        let net = self.delayed.keys().next().map(|&(at, _)| at);
        blk.into_iter().chain(net).min()
    }
}

/// Copies the readable buffers of a guest's TX request out as one frame,
/// or `None` if they hold no frame: the one check on guest-supplied frame
/// lengths, for both ABIs.
fn read_frame(
    env: &mut DomainEnv<'_>,
    grants: &mut GrantCache,
    bufs: &[GuestBuf],
) -> Option<Vec<u8>> {
    let len: usize = bufs.iter().filter(|b| !b.writable).map(|b| b.len).sum();
    if len == 0 || len > MAX_FRAME {
        return None;
    }
    let mut frame = Vec::with_capacity(len);
    for b in bufs.iter().filter(|b| !b.writable) {
        let page = grants.map(env, b.gref, false)?;
        page.read(|p| frame.extend_from_slice(&p[b.off..b.off + b.len]));
    }
    Some(frame)
}

/// Whether a block request names at least one sector, stays inside the
/// disk and fits its data buffer: the one check on guest-supplied sector
/// ranges, for both ABIs.
fn blk_request_fits(req: &BlkHeader, data: &GuestBuf, sectors: u64) -> bool {
    let in_disk = req
        .sector
        .checked_add(u64::from(req.count))
        .is_some_and(|end| end <= sectors);
    let writable = data.writable || req.op != blkwire::OP_READ;
    in_disk && req.count > 0 && req.count as usize * SECTOR_SIZE <= data.len && writable
}

impl Guest for DriverDomain {
    fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
        if !self.registered {
            self.xs.register_watcher(env.domid());
            self.xs
                .write(env, "backend-domid", &env.domid().0.to_string());
            self.registered = true;
        }
        loop {
            let mut progressed = self.discover(env);
            progressed |= self.service_net(env);
            progressed |= self.service_blk(env);
            // Arm request notifications before blocking; any race means
            // another pass instead of a sleep.
            for q in self.nets.iter_mut().flat_map(|p| p.queues.iter_mut()) {
                progressed |= q.tx.arm();
                if !q.out_queue.is_empty() {
                    progressed |= q.rx.arm();
                }
            }
            for dev in &mut self.blks {
                progressed |= dev.queue.arm();
            }
            if !progressed {
                break;
            }
        }
        let ports: Vec<Port> = self
            .nets
            .iter()
            .flat_map(|p| p.queues.iter().map(|q| q.port))
            .chain(self.blks.iter().map(|b| b.port))
            .collect();
        Step::Yield(Wake {
            deadline: self.next_deadline(),
            ports,
        })
    }
}

impl std::fmt::Debug for DriverDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverDomain")
            .field("nets", &self.nets.len())
            .field("blks", &self.blks.len())
            .field("taps", &self.taps.len())
            .finish()
    }
}
