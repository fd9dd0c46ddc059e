//! Blkfront and the simulated disk (paper §3.4, §4.1.3).
//!
//! "Mirage block devices share the same Ring abstraction as network
//! devices, using the same I/O pages to provide efficient block-level
//! access, with filesystems and caching provided as OCaml libraries"
//! (§3.5.2). The frontend here is deliberately minimal: sector-addressed
//! reads and writes, one page per request, all writes direct — "the only
//! built-in policy being that all writes are guaranteed to be direct".
//!
//! The backend's storage is a [`SimulatedDisk`] parameterised by a
//! [`DiskProfile`]; the default profile models the paper's "fast
//! PCI-express SSD storage device" from Figure 9.

use std::collections::{HashMap, VecDeque};

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, Dur};
use mirage_ring::FrontRing;
use mirage_runtime::channel::{self, Receiver, Sender};
use mirage_runtime::{DeviceService, Runtime};

use crate::xenstore::{FrontLink, Frontend, Xenstore};

/// Bytes per disk sector.
pub const SECTOR_SIZE: usize = 512;
/// Sectors per request (one 4 KiB page).
pub const MAX_SECTORS_PER_REQ: u16 = 8;
/// Data pages in the frontend pool (bounds queue depth).
pub const BLK_BUFFERS: usize = 32;

/// Latency/bandwidth model of the physical device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Fixed per-request service latency (seek/flash overhead + DMA setup).
    pub latency: Dur,
    /// Sustained transfer bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Seeded fault plan applied by the backend (`None`: a perfect device).
    pub faults: Option<crate::netem::DiskFaultPlan>,
}

impl DiskProfile {
    /// The paper's Figure 9 device: a PCIe SSD peaking near 1.6 GB/s.
    pub fn pcie_ssd() -> DiskProfile {
        DiskProfile {
            latency: Dur::micros(18),
            bandwidth_bps: 13_600_000_000, // 1.7 GB/s
            faults: None,
        }
    }

    /// The same device with a fault plan attached.
    pub fn with_faults(mut self, faults: crate::netem::DiskFaultPlan) -> DiskProfile {
        self.faults = Some(faults);
        self
    }

    /// Wire/flash transfer time for `bytes` (the device-occupancy part).
    pub fn transfer_time(&self, bytes: usize) -> Dur {
        let transfer_ns = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps;
        Dur::nanos(transfer_ns)
    }

    /// End-to-end service time for one isolated request of `bytes`.
    pub fn service_time(&self, bytes: usize) -> Dur {
        self.latency + self.transfer_time(bytes)
    }
}

/// In-memory sector store with the timing profile attached.
#[derive(Debug)]
pub struct SimulatedDisk {
    profile: DiskProfile,
    sectors: u64,
    data: HashMap<u64, Box<[u8; SECTOR_SIZE]>>,
}

impl SimulatedDisk {
    /// An empty (all-zero) disk of `sectors` sectors.
    pub fn new(profile: DiskProfile, sectors: u64) -> SimulatedDisk {
        SimulatedDisk {
            profile,
            sectors,
            data: HashMap::new(),
        }
    }

    /// Device size in sectors.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// The timing profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Reads `count` sectors starting at `sector`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs off the end of the disk (the backend
    /// validates before calling).
    pub fn read(&self, sector: u64, count: u16) -> Vec<u8> {
        assert!(sector + count as u64 <= self.sectors, "read past end");
        let mut out = vec![0u8; count as usize * SECTOR_SIZE];
        for i in 0..count as u64 {
            if let Some(block) = self.data.get(&(sector + i)) {
                let off = i as usize * SECTOR_SIZE;
                out[off..off + SECTOR_SIZE].copy_from_slice(&block[..]);
            }
        }
        out
    }

    /// Writes whole sectors starting at `sector`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not sector-aligned or runs off the disk.
    pub fn write(&mut self, sector: u64, data: &[u8]) {
        assert_eq!(data.len() % SECTOR_SIZE, 0, "unaligned write");
        let count = (data.len() / SECTOR_SIZE) as u64;
        assert!(sector + count <= self.sectors, "write past end");
        for i in 0..count {
            let off = i as usize * SECTOR_SIZE;
            let mut block = Box::new([0u8; SECTOR_SIZE]);
            block.copy_from_slice(&data[off..off + SECTOR_SIZE]);
            self.data.insert(sector + i, block);
        }
    }

    /// Sectors that have ever been written (sparse occupancy).
    pub fn written_sectors(&self) -> usize {
        self.data.len()
    }
}

/// Block operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlkOp {
    /// Read sectors from the device.
    Read,
    /// Write sectors to the device (always direct, §3.5.2).
    Write,
}

/// A request submitted by the storage stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlkRequest {
    /// Caller-chosen correlation id.
    pub id: u64,
    /// Operation.
    pub op: BlkOp,
    /// Start sector.
    pub sector: u64,
    /// Sector count (reads) — at most [`MAX_SECTORS_PER_REQ`].
    pub count: u16,
    /// Payload for writes (`count * SECTOR_SIZE` bytes).
    pub data: Option<Vec<u8>>,
}

/// A completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlkCompletion {
    /// Correlation id from the request.
    pub id: u64,
    /// Whether the backend accepted and executed the request.
    pub ok: bool,
    /// Read payload.
    pub data: Option<Vec<u8>>,
}

/// Stack-facing handle: submit requests, await completions.
pub struct BlkHandle {
    /// Request queue into the driver.
    pub submit: Sender<BlkRequest>,
    /// Completion stream from the driver.
    pub complete: Receiver<BlkCompletion>,
    /// Device size in sectors.
    pub sectors: u64,
}

impl std::fmt::Debug for BlkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlkHandle({} sectors)", self.sectors)
    }
}

pub(crate) mod wire {
    //! Block descriptor encoding (rides in ring slots).

    pub const OP_READ: u8 = 0;
    pub const OP_WRITE: u8 = 1;

    pub fn req(op: u8, id: u64, sector: u64, count: u16, gref: u32) -> Vec<u8> {
        let mut d = Vec::with_capacity(23);
        d.push(op);
        d.extend_from_slice(&id.to_le_bytes());
        d.extend_from_slice(&sector.to_le_bytes());
        d.extend_from_slice(&count.to_le_bytes());
        d.extend_from_slice(&gref.to_le_bytes());
        d
    }

    pub fn parse_req(d: &[u8]) -> Option<(u8, u64, u64, u16, u32)> {
        if d.len() != 23 {
            return None;
        }
        Some((
            d[0],
            u64::from_le_bytes(d[1..9].try_into().ok()?),
            u64::from_le_bytes(d[9..17].try_into().ok()?),
            u16::from_le_bytes(d[17..19].try_into().ok()?),
            u32::from_le_bytes(d[19..23].try_into().ok()?),
        ))
    }

    pub fn rsp(id: u64, ok: bool, gref: u32) -> Vec<u8> {
        let mut d = Vec::with_capacity(13);
        d.extend_from_slice(&id.to_le_bytes());
        d.push(ok as u8);
        d.extend_from_slice(&gref.to_le_bytes());
        d
    }

    pub fn parse_rsp(d: &[u8]) -> Option<(u64, bool, u32)> {
        if d.len() != 13 {
            return None;
        }
        Some((
            u64::from_le_bytes(d[0..8].try_into().ok()?),
            d[8] != 0,
            u32::from_le_bytes(d[9..13].try_into().ok()?),
        ))
    }
}

/// The stack-facing side both block frontends share: request intake,
/// the check a request must pass before it goes on a ring, write staging
/// and completions.
pub(crate) struct BlkQueue {
    from_stack: Receiver<BlkRequest>,
    to_stack: Sender<BlkCompletion>,
    backlog: VecDeque<BlkRequest>,
}

impl BlkQueue {
    /// The queue and its stack-facing handle for a disk of `sectors`.
    pub fn new(sectors: u64) -> (BlkQueue, BlkHandle) {
        let (submit, from_stack) = channel::channel();
        let (to_stack, complete) = channel::channel();
        let queue = BlkQueue {
            from_stack,
            to_stack,
            backlog: VecDeque::new(),
        };
        let handle = BlkHandle {
            submit,
            complete,
            sectors,
        };
        (queue, handle)
    }

    /// Whether a request naming 1..=[`MAX_SECTORS_PER_REQ`] sectors is
    /// waiting. Requests naming none or more than a page fail at once.
    pub fn ready(&mut self) -> bool {
        while let Some(req) = self.from_stack.try_recv() {
            self.backlog.push_back(req);
        }
        while let Some(req) = self.backlog.front() {
            if (1..=MAX_SECTORS_PER_REQ).contains(&req.count) {
                return true;
            }
            let req = self.backlog.pop_front().expect("peeked");
            let _ = self.to_stack.send(BlkCompletion {
                id: req.id,
                ok: false,
                data: None,
            });
        }
        false
    }

    /// Takes the waiting request, copying a write's payload into its I/O
    /// page `page`: the one direct write. Returns the request and its
    /// wire op.
    pub fn take(&mut self, env: &mut DomainEnv<'_>, page: &SharedPage) -> (BlkRequest, u8) {
        let req = self.backlog.pop_front().expect("ready");
        let op = match req.op {
            BlkOp::Read => wire::OP_READ,
            BlkOp::Write => {
                let data = req.data.as_deref().unwrap_or(&[]);
                let n = data.len().min(req.count as usize * SECTOR_SIZE);
                page.write(|b| b[..n].copy_from_slice(&data[..n]));
                let c = env.costs().copy(n);
                env.consume(c);
                wire::OP_WRITE
            }
        };
        (req, op)
    }

    /// Hands `req`'s completion to the stack, with a successful read's
    /// data from its I/O page `page`.
    pub fn complete(&self, req: &Submitted, ok: bool, page: &SharedPage) {
        let data = (ok && req.op == BlkOp::Read).then(|| page.read(|b| b[..req.bytes].to_vec()));
        let _ = self.to_stack.send(BlkCompletion {
            id: req.id,
            ok,
            data,
        });
    }
}

/// What a frontend remembers of a request on its ring.
pub(crate) struct Submitted {
    id: u64,
    op: BlkOp,
    bytes: usize,
}

impl From<&BlkRequest> for Submitted {
    fn from(req: &BlkRequest) -> Submitted {
        Submitted {
            id: req.id,
            op: req.op,
            bytes: req.count as usize * SECTOR_SIZE,
        }
    }
}

struct Inflight {
    req: Submitted,
    gref: GrantRef,
    page: SharedPage,
}

/// The blkfront device driver ([`DeviceService`]).
pub struct Blkfront {
    link: FrontLink,
    disk_sectors: u64,
    ring: Option<FrontRing>,
    port: Option<Port>,
    free_pages: Vec<(GrantRef, SharedPage)>,
    inflight: HashMap<u32, Inflight>,
    stack: BlkQueue,
}

impl Blkfront {
    /// Creates the driver and its stack-facing handle, requesting a virtual
    /// disk of `disk_sectors` sectors from the backend.
    pub fn new(
        xs: Xenstore,
        name: impl Into<String>,
        disk_sectors: u64,
    ) -> (Blkfront, BlkHandle) {
        let (stack, handle) = BlkQueue::new(disk_sectors);
        let front = Blkfront {
            link: FrontLink::new(xs, "blk", name.into()),
            disk_sectors,
            ring: None,
            port: None,
            free_pages: Vec::new(),
            inflight: HashMap::new(),
            stack,
        };
        (front, handle)
    }
}

impl Frontend for Blkfront {
    fn link(&mut self) -> &mut FrontLink {
        &mut self.link
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) {
        let base = self.link.base();
        let xs = &self.link.xs;
        let ring_page = SharedPage::new();
        let gref = env.grant(backend, ring_page.clone(), true);
        self.ring = Some(FrontRing::attach(ring_page));
        let domid = env.domid().0.to_string();
        xs.write(env, &format!("{base}/frontend-domid"), &domid);
        xs.write(env, &format!("{base}/ring"), &gref.0.to_string());
        xs.write(
            env,
            &format!("{base}/sectors"),
            &self.disk_sectors.to_string(),
        );
    }

    fn connect(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) -> bool {
        let Some(port) = self.link.read_port(env, "event-port") else {
            return false;
        };
        let local = env.evtchn_bind(backend, port).expect("backend allocated");
        self.port = Some(local);
        for _ in 0..BLK_BUFFERS {
            let page = SharedPage::new();
            let gref = env.grant(backend, page.clone(), true);
            self.free_pages.push((gref, page));
        }
        self.link.write_state(env, "connected");
        true
    }

    fn serve(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let port = self.port.expect("connected");
        let _ = env.evtchn_consume(port);

        // Completions.
        let mut completions = Vec::new();
        if let Some(ring) = self.ring.as_mut() {
            while let Some(rsp) = ring.take_response() {
                if let Some((_id, ok, gref)) = wire::parse_rsp(&rsp) {
                    if let Some(inflight) = self.inflight.remove(&gref) {
                        completions.push((inflight, ok));
                    }
                }
            }
        }
        for (inflight, ok) in completions {
            self.stack.complete(&inflight.req, ok, &inflight.page);
            self.free_pages.push((inflight.gref, inflight.page));
            progressed = true;
        }

        // Submissions.
        let mut notify = false;
        while self.stack.ready() {
            let Some((gref, page)) = self.free_pages.pop() else {
                break;
            };
            let ring = self.ring.as_mut().expect("connected");
            if ring.free_slots() == 0 {
                self.free_pages.push((gref, page));
                break;
            }
            let (req, op) = self.stack.take(env, &page);
            let desc = wire::req(op, req.id, req.sector, req.count, gref.0);
            notify |= ring.push_request(&desc).expect("free_slots checked");
            let req = Submitted::from(&req);
            self.inflight.insert(gref.0, Inflight { req, gref, page });
            progressed = true;
        }
        if notify {
            let _ = env.evtchn_notify(port);
        }
        if let Some(ring) = self.ring.as_mut() {
            progressed |= ring.enable_response_notifications();
        }
        progressed
    }
}

impl DeviceService for Blkfront {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        self.service_pass(env)
    }

    fn watch_ports(&self) -> Vec<Port> {
        self.port.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_round_trips_sectors() {
        let mut disk = SimulatedDisk::new(DiskProfile::pcie_ssd(), 1024);
        let data = vec![0xAB; 2 * SECTOR_SIZE];
        disk.write(10, &data);
        assert_eq!(disk.read(10, 2), data);
        assert_eq!(disk.read(12, 1), vec![0u8; SECTOR_SIZE], "unwritten is zero");
        assert_eq!(disk.written_sectors(), 2);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn disk_bounds_checked() {
        let disk = SimulatedDisk::new(DiskProfile::pcie_ssd(), 8);
        let _ = disk.read(7, 2);
    }

    #[test]
    fn service_time_saturates_at_bandwidth() {
        let p = DiskProfile::pcie_ssd();
        let small = p.service_time(1024);
        let large = p.service_time(4 * 1024 * 1024);
        // Small requests are latency-dominated; large, bandwidth-dominated.
        assert!(small < Dur::micros(25));
        let large_secs = large.as_secs_f64();
        let implied_bw = (4.0 * 1024.0 * 1024.0 * 8.0) / large_secs;
        assert!(
            (implied_bw - p.bandwidth_bps as f64).abs() < 0.05 * p.bandwidth_bps as f64,
            "large transfers run at device bandwidth"
        );
    }

    #[test]
    fn wire_round_trip() {
        let d = wire::req(wire::OP_WRITE, 42, 1000, 8, 7);
        assert_eq!(wire::parse_req(&d), Some((wire::OP_WRITE, 42, 1000, 8, 7)));
        let r = wire::rsp(42, true, 7);
        assert_eq!(wire::parse_rsp(&r), Some((42, true, 7)));
        assert_eq!(wire::parse_req(&r), None, "length-discriminated");
    }
}
