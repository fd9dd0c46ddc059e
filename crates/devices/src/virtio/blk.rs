//! VirtioBlk — the guest-side block frontend over a split virtqueue.
//!
//! The virtio twin of [`crate::blk::Blkfront`]: the same stack-facing
//! [`BlkHandle`] contract and the same 23-byte request header on the
//! wire, but carried in the classic virtio-blk three-descriptor chain —
//!
//! 1. header (driver-written, device-read): op/id/sector/count;
//! 2. data (device-written for reads, device-read for writes): up to one
//!    page of sectors;
//! 3. status (device-written): one byte, `0` for success.
//!
//! The header and status byte share one page (offsets 0 and
//! [`STATUS_OFF`]), so each request slot costs two granted pages. The
//! backend half lives in [`crate::netback`] and services both ABIs
//! against the same [`SimulatedDisk`](crate::blk::SimulatedDisk), fault
//! plan and timing model.

use std::collections::HashMap;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId};
use mirage_runtime::{DeviceService, Runtime};

use super::advertise_queue;
use super::virtqueue::{buf_addr, ChainBuf, QueuePages, SplitQueue};
use crate::blk::{wire as blkwire, BlkHandle, BlkQueue, Submitted, BLK_BUFFERS, SECTOR_SIZE};
use crate::xenstore::{FrontLink, Frontend, Xenstore};

/// Offset of the one-byte status field within the header page.
pub const STATUS_OFF: usize = 2048;
/// Request status: success.
pub const STATUS_OK: u8 = 0;
/// Request status: device rejected or failed the request.
pub const STATUS_IOERR: u8 = 1;

/// One request slot: a header/status page plus a data page.
struct Slot {
    hdr_gref: GrantRef,
    hdr_page: SharedPage,
    data_gref: GrantRef,
    data_page: SharedPage,
}

struct Inflight {
    req: Submitted,
    slot: Slot,
}

/// The virtio block frontend; a [`DeviceService`] created through
/// [`Backend::blk`](crate::driver::Backend::blk).
pub struct VirtioBlk {
    link: FrontLink,
    disk_sectors: u64,
    staged: Option<QueuePages>,
    queue: Option<SplitQueue>,
    port: Option<Port>,
    free_slots: Vec<Slot>,
    inflight: HashMap<u16, Inflight>,
    stack: BlkQueue,
}

impl VirtioBlk {
    /// Creates the driver and its stack-facing handle, requesting a
    /// virtual disk of `disk_sectors` sectors from the backend.
    pub fn new(
        xs: Xenstore,
        name: impl Into<String>,
        disk_sectors: u64,
    ) -> (VirtioBlk, BlkHandle) {
        let (stack, handle) = BlkQueue::new(disk_sectors);
        let front = VirtioBlk {
            link: FrontLink::new(xs, "vblk", name.into()),
            disk_sectors,
            staged: None,
            queue: None,
            port: None,
            free_slots: Vec::new(),
            inflight: HashMap::new(),
            stack,
        };
        (front, handle)
    }
}

impl Frontend for VirtioBlk {
    fn link(&mut self) -> &mut FrontLink {
        &mut self.link
    }

    fn advertise(&mut self, env: &mut DomainEnv<'_>, backend: DomainId) {
        let base = self.link.base();
        let xs = &self.link.xs;
        self.staged = Some(advertise_queue(env, &self.link, backend, ""));
        let domid = env.domid().0.to_string();
        xs.write(env, &format!("{base}/frontend-domid"), &domid);
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
        self.queue = Some(SplitQueue::new(self.staged.take().expect("staged in Init")));
        for _ in 0..BLK_BUFFERS {
            // Header page is device-writable for the status byte; the
            // data page is device-writable for read payloads.
            let hdr_page = SharedPage::new();
            let hdr_gref = env.grant(backend, hdr_page.clone(), true);
            let data_page = SharedPage::new();
            let data_gref = env.grant(backend, data_page.clone(), true);
            self.free_slots.push(Slot {
                hdr_gref,
                hdr_page,
                data_gref,
                data_page,
            });
        }
        self.link.write_state(env, "connected");
        true
    }

    fn serve(&mut self, env: &mut DomainEnv<'_>) -> bool {
        let mut progressed = false;
        let port = self.port.expect("connected");
        let _ = env.evtchn_consume(port);
        let queue = self.queue.as_mut().expect("connected");

        // Completions: the device filled the status byte (and, for reads,
        // the data page) before returning the chain.
        while let Some((head, _len)) = queue.take_used() {
            let Some(inflight) = self.inflight.remove(&head) else {
                continue;
            };
            let status = inflight.slot.hdr_page.read(|b| b[STATUS_OFF]);
            self.stack
                .complete(&inflight.req, status == STATUS_OK, &inflight.slot.data_page);
            self.free_slots.push(inflight.slot);
            progressed = true;
        }

        // Submissions: three-descriptor chains, one doorbell per pass.
        let mut notify = false;
        while self.stack.ready() {
            if queue.free_descriptors() < 3 {
                break;
            }
            let Some(slot) = self.free_slots.pop() else {
                break;
            };
            let (req, op) = self.stack.take(env, &slot.data_page);
            let bytes = req.count as usize * SECTOR_SIZE;
            let is_read = op == blkwire::OP_READ;
            let header = blkwire::req(op, req.id, req.sector, req.count, slot.data_gref.0);
            slot.hdr_page.write(|b| {
                b[..header.len()].copy_from_slice(&header);
                b[STATUS_OFF] = STATUS_IOERR; // the device must overwrite it
            });
            let (head, n) = queue
                .add_chain(&[
                    ChainBuf {
                        addr: buf_addr(slot.hdr_gref.0, 0),
                        len: header.len() as u32,
                        device_writes: false,
                    },
                    ChainBuf {
                        addr: buf_addr(slot.data_gref.0, 0),
                        len: bytes as u32,
                        device_writes: is_read,
                    },
                    ChainBuf {
                        addr: buf_addr(slot.hdr_gref.0, STATUS_OFF),
                        len: 1,
                        device_writes: true,
                    },
                ])
                .expect("free_descriptors checked");
            notify |= n;
            let req = Submitted::from(&req);
            self.inflight.insert(head, Inflight { req, slot });
            progressed = true;
        }
        if notify {
            let _ = env.evtchn_notify(port);
        }
        progressed |= queue.enable_used_notifications();
        progressed
    }
}

impl DeviceService for VirtioBlk {
    fn service(&mut self, env: &mut DomainEnv<'_>, _rt: &Runtime) -> bool {
        self.service_pass(env)
    }

    fn watch_ports(&self) -> Vec<Port> {
        self.port.into_iter().collect()
    }
}
