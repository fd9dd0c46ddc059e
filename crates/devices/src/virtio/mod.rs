//! Virtio-style split-virtqueue transport — the second device ABI.
//!
//! The paper's device claims (grants, shared-memory rings, bounded copy
//! counts, §3.4) are about mechanisms, not about the Xen ring layout
//! specifically. This module provides the same frontends over virtio 1.0
//! split virtqueues — descriptor table + avail/used rings with EVENT_IDX
//! doorbell suppression — so the identical appliance can run over either
//! ABI and the conformance suite can diff them workload-by-workload:
//!
//! * [`virtqueue`] — the ring primitive: [`virtqueue::SplitQueue`]
//!   (driver half) and [`virtqueue::DeviceQueue`] (device half);
//! * [`net::VirtioNet`] — the Ethernet frontend: one TX/RX virtqueue
//!   pair per stack queue (and therefore per vCPU), per-queue event
//!   channels with vCPU affinity, batched doorbells;
//! * [`blk::VirtioBlk`] — the block frontend: three-descriptor
//!   header/data/status chains, the classic virtio-blk shape.
//!
//! Backend halves live with the Xen ones in [`crate::netback`]: the
//! driver domain's switch and disk service frames and requests from both
//! ABIs through the same forwarding, conditioning and timing paths.
//!
//! Selection is a [`crate::driver::Backend`] value at device-creation
//! time; consumers program against the [`crate::driver::NetDriver`] /
//! [`crate::driver::BlkDriver`] traits and never name an ABI.

pub mod blk;
pub mod net;
pub mod virtqueue;

use mirage_hypervisor::{DomainEnv, DomainId};

use crate::xenstore::FrontLink;

pub use blk::VirtioBlk;
pub use net::VirtioNet;
pub use virtqueue::{DeviceQueue, QueuePages, SplitQueue, QUEUE_SIZE};

/// Allocates one virtqueue's three areas, grants them to `backend` and
/// advertises their references under `{base}/{prefix}{desc,avail,used}`.
/// Only the used area is device-writable; descriptors and the avail ring
/// stay driver-owned.
fn advertise_queue(
    env: &mut DomainEnv<'_>,
    link: &FrontLink,
    backend: DomainId,
    prefix: &str,
) -> QueuePages {
    let pages = QueuePages::new();
    let desc = env.grant(backend, pages.desc.clone(), false);
    let avail = env.grant(backend, pages.avail.clone(), false);
    let used = env.grant(backend, pages.used.clone(), true);
    let base = link.base();
    for (area, gref) in [("desc", desc), ("avail", avail), ("used", used)] {
        link.xs
            .write(env, &format!("{base}/{prefix}{area}"), &gref.0.to_string());
    }
    pages
}
