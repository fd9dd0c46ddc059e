//! The backend queue: one request/completion interface over both ring
//! ABIs.
//!
//! Every dom0 service loop in [`crate::netback`] drives a [`BackQueue`].
//! It pops one request as a completion [`Token`] plus the guest buffers
//! the request names, works on those buffers through a [`GrantCache`],
//! and completes the request with the number of bytes it wrote (and, for
//! block requests, a status). The queue hides the descriptor format:
//!
//! * a Xen descriptor ring ([`BackRing`]) carries fixed request slots,
//!   encoded per [`Role`]: a TX slot names one read-only grant and a
//!   length, an RX slot one writable page, a block slot a header whose
//!   data page is one writable grant;
//! * a virtio split virtqueue ([`DeviceQueue`]) carries descriptor
//!   chains: net chains are their buffers as they stand, block chains are
//!   header, data and status descriptors.
//!
//! `pop` is the one place each format is checked: every buffer a request
//! names must lie inside one granted page, and a block chain must have
//! the header/data/status shape. A request that fails is handed back to
//! the guest at once and never reaches the service loop. What the buffers
//! must hold (a frame of at most one page, a sector range inside the
//! disk) is checked by the service loop, once for both formats.

use std::collections::HashMap;

use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, PAGE_SIZE};
use mirage_ring::BackRing;

use crate::blk::wire as blkwire;
use crate::netfront::{gref_only, parse_gref, parse_tx_req, rx_rsp};
use crate::virtio::blk::{STATUS_IOERR, STATUS_OK};
use crate::virtio::virtqueue::{split_addr, Chain, DeviceQueue};

/// A guest buffer named by a request. It lies inside one granted page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct GuestBuf {
    pub gref: u32,
    pub off: usize,
    pub len: usize,
    /// Whether the request lets the backend write the buffer.
    pub writable: bool,
}

impl GuestBuf {
    fn new(gref: u32, off: usize, len: usize, writable: bool) -> Option<GuestBuf> {
        (off.checked_add(len)? <= PAGE_SIZE).then_some(GuestBuf {
            gref,
            off,
            len,
            writable,
        })
    }

    fn page(gref: u32, writable: bool) -> GuestBuf {
        GuestBuf {
            gref,
            off: 0,
            len: PAGE_SIZE,
            writable,
        }
    }
}

/// The grant mappings a frontend's buffers have needed so far. A grant
/// is mapped on first use and the mapping kept.
#[derive(Default)]
pub(crate) struct GrantCache(HashMap<u32, SharedPage>);

impl GrantCache {
    pub fn map(
        &mut self,
        env: &mut DomainEnv<'_>,
        gref: u32,
        writable: bool,
    ) -> Option<SharedPage> {
        if let Some(p) = self.0.get(&gref) {
            return Some(p.clone());
        }
        let page = env.grant_map(GrantRef(gref), writable).ok()?;
        self.0.insert(gref, page.clone());
        Some(page)
    }
}

/// A block request header: the same 23-byte encoding on both ABIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BlkHeader {
    pub op: u8,
    pub id: u64,
    pub sector: u64,
    pub count: u16,
}

impl BlkHeader {
    /// Parses a header, returning it and the data grant it names.
    fn parse(bytes: &[u8]) -> Option<(BlkHeader, u32)> {
        let (op, id, sector, count, gref) = blkwire::parse_req(bytes)?;
        Some((
            BlkHeader {
                op,
                id,
                sector,
                count,
            },
            gref,
        ))
    }
}

/// Names a popped request until it is completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Token {
    /// A ring request's grant, or a chain's head descriptor.
    tag: u32,
    /// The id a block ring response echoes.
    id: u64,
    /// Where a virtio block chain wants its status byte.
    status: Option<GuestBuf>,
}

impl Token {
    fn new(tag: u32) -> Token {
        Token {
            tag,
            id: 0,
            status: None,
        }
    }
}

/// What a queue's requests ask for. Xen rings encode their slots by
/// role; a virtio chain is a block request or a list of net buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Frames from the guest.
    NetTx,
    /// Buffers for frames to the guest.
    NetRx,
    /// Block requests.
    Blk,
}

enum Transport {
    Ring(BackRing),
    Virtq(DeviceQueue),
}

/// The backend half of one request queue of either ABI.
pub(crate) struct BackQueue {
    transport: Transport,
    role: Role,
    /// Whether a completion since the last [`BackQueue::take_notify`]
    /// crossed the frontend's event mark.
    notify: bool,
}

/// A popped request: handed to the service loop, handed straight back to
/// the guest, or dropped because it names nothing a response could echo.
enum Popped {
    Ok(Token, Option<BlkHeader>),
    Reject(Token),
    Unanswerable,
}

impl BackQueue {
    /// A Xen descriptor ring over its mapped shared page.
    pub fn ring(page: SharedPage, role: Role) -> BackQueue {
        BackQueue::new(Transport::Ring(BackRing::attach(page)), role)
    }

    /// A virtio split virtqueue's device half.
    pub fn virtq(queue: DeviceQueue, role: Role) -> BackQueue {
        BackQueue::new(Transport::Virtq(queue), role)
    }

    fn new(transport: Transport, role: Role) -> BackQueue {
        BackQueue {
            transport,
            role,
            notify: false,
        }
    }

    /// Pops the next request that passes its format's checks, filling
    /// `bufs` with the guest buffers it names (for a block request, its
    /// data buffer). Block requests also return their header.
    pub fn pop(
        &mut self,
        env: &mut DomainEnv<'_>,
        grants: &mut GrantCache,
        bufs: &mut Vec<GuestBuf>,
    ) -> Option<(Token, Option<BlkHeader>)> {
        loop {
            bufs.clear();
            let popped = match &mut self.transport {
                Transport::Ring(ring) => slot_request(self.role, &ring.take_request()?, bufs),
                Transport::Virtq(queue) => {
                    let chain = queue.pop_avail()?;
                    chain_request(self.role, &chain, env, grants, bufs)
                }
            };
            match popped {
                Popped::Ok(token, header) => return Some((token, header)),
                Popped::Reject(token) => self.complete(env, grants, token, 0, false),
                Popped::Unanswerable => {}
            }
        }
    }

    /// Completes a request: `written` bytes went into its buffers, and
    /// `ok` is its block status.
    pub fn complete(
        &mut self,
        env: &mut DomainEnv<'_>,
        grants: &mut GrantCache,
        token: Token,
        written: usize,
        ok: bool,
    ) {
        let notify = match &mut self.transport {
            Transport::Ring(ring) => {
                let rsp = match self.role {
                    Role::NetTx => gref_only(token.tag),
                    Role::NetRx => rx_rsp(token.tag, written as u16),
                    Role::Blk => blkwire::rsp(token.id, ok, token.tag),
                };
                ring.push_response(&rsp).unwrap_or(false)
            }
            Transport::Virtq(queue) => {
                let mut written = written;
                if let Some(status) = token.status {
                    if let Some(page) = grants.map(env, status.gref, true) {
                        let byte = if ok { STATUS_OK } else { STATUS_IOERR };
                        page.write(|b| b[status.off] = byte);
                    }
                    written += 1;
                }
                queue.push_used(token.tag as u16, written as u32)
            }
        };
        self.notify |= notify;
    }

    /// Whether completions since the last call asked for a notification.
    pub fn take_notify(&mut self) -> bool {
        std::mem::take(&mut self.notify)
    }

    /// Announces the backend is about to block until the next request.
    /// Returns `true` if requests raced in: poll again instead.
    pub fn arm(&mut self) -> bool {
        match &mut self.transport {
            Transport::Ring(ring) => ring.enable_request_notifications(),
            Transport::Virtq(queue) => queue.enable_avail_notifications(),
        }
    }
}

/// Decodes one Xen ring request slot.
fn slot_request(role: Role, slot: &[u8], bufs: &mut Vec<GuestBuf>) -> Popped {
    match role {
        Role::NetTx => {
            let Some((gref, len)) = parse_tx_req(slot) else {
                return Popped::Unanswerable;
            };
            match GuestBuf::new(gref, 0, len.into(), false) {
                Some(buf) => bufs.push(buf),
                None => return Popped::Reject(Token::new(gref)),
            }
            Popped::Ok(Token::new(gref), None)
        }
        Role::NetRx => {
            let Some(gref) = parse_gref(slot) else {
                return Popped::Unanswerable;
            };
            bufs.push(GuestBuf::page(gref, true));
            Popped::Ok(Token::new(gref), None)
        }
        Role::Blk => {
            let Some((req, gref)) = BlkHeader::parse(slot) else {
                return Popped::Unanswerable;
            };
            bufs.push(GuestBuf::page(gref, true));
            let token = Token {
                id: req.id,
                ..Token::new(gref)
            };
            Popped::Ok(token, Some(req))
        }
    }
}

/// Decodes one virtio descriptor chain.
fn chain_request(
    role: Role,
    chain: &Chain,
    env: &mut DomainEnv<'_>,
    grants: &mut GrantCache,
    bufs: &mut Vec<GuestBuf>,
) -> Popped {
    let token = Token::new(chain.head.into());
    for &(addr, len, writable) in &chain.bufs {
        let (gref, off) = split_addr(addr);
        match GuestBuf::new(gref, off, len as usize, writable) {
            Some(buf) => bufs.push(buf),
            None => return Popped::Reject(token),
        }
    }
    if role != Role::Blk {
        return Popped::Ok(token, None);
    }
    // [header ro, 23 bytes][data][status wo, 1 byte]
    let &[hdr, data, status] = &bufs[..] else {
        return Popped::Reject(token);
    };
    if hdr.writable || hdr.len != 23 || !status.writable || status.len != 1 {
        return Popped::Reject(token);
    }
    let Some(page) = grants.map(env, hdr.gref, false) else {
        return Popped::Reject(token);
    };
    let Some((req, _)) = page.read(|b| BlkHeader::parse(&b[hdr.off..hdr.off + hdr.len])) else {
        return Popped::Reject(token);
    };
    bufs.clear();
    bufs.push(data);
    let token = Token {
        status: Some(status),
        ..token
    };
    Popped::Ok(token, Some(req))
}
