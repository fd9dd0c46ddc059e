//! Reference-counted immutable packet buffers with copy accounting.
//!
//! A [`PktBuf`] is the unit of ownership on the packet data path: an
//! immutable, reference-counted view over (part of) an I/O page or an
//! adopted heap buffer, which the device ring, the network stack, TCP
//! reassembly and the application all share by reference. Cloning or
//! slicing a `PktBuf` bumps a refcount; the bytes are never duplicated —
//! the paper's `Cstruct.sub` (§3.4.1) and its "ext I/O data travels by
//! reference" claim (§3.2, Figure 2/4) made into a type. A pool page
//! returns to its [`PagePool`](crate::PagePool) when the last view over it
//! drops.
//!
//! Every operation that *does* duplicate payload bytes in software funnels
//! through [`record_copy`], and every serialisation of payload into a wire
//! frame through [`record_serialize`]. The counters are plain process-wide
//! atomics — no `cfg(feature)` gating — so the benchmarks can assert the
//! zero-copy property instead of merely claiming it (see
//! `benches/micro_zerocopy.rs` and `scripts/bench.sh`).

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pool::PoolRef;

static COPY_COUNT: AtomicU64 = AtomicU64::new(0);
static COPY_BYTES: AtomicU64 = AtomicU64::new(0);
static SERIALIZE_COUNT: AtomicU64 = AtomicU64::new(0);
static SERIALIZE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the global payload-copy accounting.
///
/// `copies`/`copy_bytes` count software duplications of payload bytes
/// (the thing zero-copy eliminates); `serializes`/`serialize_bytes` count
/// payload written once into an outgoing wire frame (unavoidable — the
/// bytes must reach the ring exactly once). Device-side grant-page reads
/// and writes model DMA and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyCounters {
    /// Number of software payload copies.
    pub copies: u64,
    /// Bytes duplicated by software copies.
    pub copy_bytes: u64,
    /// Number of payload serialisations into wire frames.
    pub serializes: u64,
    /// Bytes serialised into wire frames.
    pub serialize_bytes: u64,
}

/// Reads the current global copy counters.
pub fn copy_counters() -> CopyCounters {
    CopyCounters {
        copies: COPY_COUNT.load(Ordering::Relaxed),
        copy_bytes: COPY_BYTES.load(Ordering::Relaxed),
        serializes: SERIALIZE_COUNT.load(Ordering::Relaxed),
        serialize_bytes: SERIALIZE_BYTES.load(Ordering::Relaxed),
    }
}

/// Zeroes the global copy counters (benchmark setup).
pub fn reset_copy_counters() {
    COPY_COUNT.store(0, Ordering::Relaxed);
    COPY_BYTES.store(0, Ordering::Relaxed);
    SERIALIZE_COUNT.store(0, Ordering::Relaxed);
    SERIALIZE_BYTES.store(0, Ordering::Relaxed);
}

/// Records one software copy of `bytes` payload bytes.
pub fn record_copy(bytes: usize) {
    COPY_COUNT.fetch_add(1, Ordering::Relaxed);
    COPY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Records payload bytes written once into an outgoing wire frame.
pub fn record_serialize(bytes: usize) {
    SERIALIZE_COUNT.fetch_add(1, Ordering::Relaxed);
    SERIALIZE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The page (or adopted heap buffer) behind a set of [`PktBuf`] views.
struct PageShared {
    data: Option<Box<[u8]>>,
    pool: PoolRef,
    /// Length of the prefix its writer may have dirtied.
    dirty: usize,
}

impl Drop for PageShared {
    fn drop(&mut self) {
        if let (Some(page), Some(pool)) = (self.data.take(), self.pool.upgrade()) {
            pool.recycle(page, self.dirty);
        }
    }
}

impl PageShared {
    fn bytes(&self) -> &[u8] {
        self.data.as_deref().expect("page present until drop")
    }
}

/// A reference-counted immutable packet buffer.
///
/// Cheap to clone, cheap to slice, comparable by content, and explicit
/// about the few operations that copy.
///
/// # Example
///
/// ```
/// use mirage_cstruct::PagePool;
///
/// let pool = PagePool::new(1);
/// let mut page = pool.alloc()?;
/// page.write_at(0, b"headerpayload");
/// page.truncate(13);
/// let buf = page.freeze();
/// let (hdr, payload) = buf.split_at(6);
/// assert_eq!(hdr.as_slice(), b"header");
/// assert_eq!(payload.as_slice(), b"payload");
/// # Ok::<(), mirage_cstruct::PoolExhausted>(())
/// ```
#[derive(Clone)]
pub struct PktBuf {
    page: Arc<PageShared>,
    off: usize,
    len: usize,
}

impl PktBuf {
    /// A view over the first `len` bytes of `data`, which returns to
    /// `pool` (if it is still alive) when the last view drops, with its
    /// first `dirty` bytes zeroed.
    pub(crate) fn adopt(data: Box<[u8]>, pool: PoolRef, len: usize, dirty: usize) -> PktBuf {
        PktBuf {
            page: Arc::new(PageShared {
                data: Some(data),
                pool,
                dirty,
            }),
            off: 0,
            len,
        }
    }

    /// An empty buffer.
    pub fn empty() -> PktBuf {
        PktBuf::from_vec(Vec::new())
    }

    /// Takes ownership of an already-built vector without copying.
    ///
    /// Used where a packet is assembled with `Vec` machinery (control-plane
    /// builders, HTTP `encode()`): the allocation is adopted, not cloned.
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        PktBuf::adopt(data.into_boxed_slice(), PoolRef::new(), len, len)
    }

    /// Builds a buffer by **copying** `data`. Counted.
    pub fn copy_from_slice(data: &[u8]) -> PktBuf {
        record_copy(data.len());
        PktBuf::from_vec(data.to_vec())
    }

    /// The bytes this buffer covers.
    pub fn as_slice(&self) -> &[u8] {
        &self.page.bytes()[self.off..self.off + self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sub-view over `range`, sharing the same backing page.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> PktBuf {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice out of bounds");
        PktBuf {
            page: Arc::clone(&self.page),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits into `[0, mid)` and `[mid, len)` views over the same page.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    pub fn split_at(&self, mid: usize) -> (PktBuf, PktBuf) {
        (self.slice(..mid), self.slice(mid..))
    }

    /// Splits off and returns the first `n` bytes; `self` keeps the rest.
    /// Both halves share the backing page.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn split_to(&mut self, n: usize) -> PktBuf {
        let head = self.slice(..n);
        *self = self.slice(n..);
        head
    }

    /// Copies out into an owned vector. Counted.
    pub fn to_vec(&self) -> Vec<u8> {
        record_copy(self.len());
        self.as_slice().to_vec()
    }

    /// Number of views sharing the backing page (diagnostics).
    pub fn view_count(&self) -> usize {
        Arc::strong_count(&self.page)
    }
}

impl fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PktBuf[{} bytes]", self.len())
    }
}

impl Deref for PktBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PktBuf {}

impl std::hash::Hash for PktBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for PktBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PktBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PktBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PktBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for PktBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PktBuf> for Vec<u8> {
    fn eq(&self, other: &PktBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for PktBuf {
    /// Adopts the vector; no copy.
    fn from(data: Vec<u8>) -> PktBuf {
        PktBuf::from_vec(data)
    }
}

impl From<&[u8]> for PktBuf {
    /// Copies the slice. Counted.
    fn from(data: &[u8]) -> PktBuf {
        PktBuf::copy_from_slice(data)
    }
}

impl<const N: usize> From<&[u8; N]> for PktBuf {
    /// Copies the array. Counted.
    fn from(data: &[u8; N]) -> PktBuf {
        PktBuf::copy_from_slice(data)
    }
}

impl From<&Vec<u8>> for PktBuf {
    /// Copies the vector's contents. Counted.
    fn from(data: &Vec<u8>) -> PktBuf {
        PktBuf::copy_from_slice(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePool;

    #[test]
    fn from_vec_adopts_without_counting() {
        let before = copy_counters();
        let p = PktBuf::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(copy_counters().copies, before.copies, "adoption is free");
    }

    #[test]
    fn copy_from_slice_is_counted() {
        let before = copy_counters();
        let p = PktBuf::copy_from_slice(b"abcdef");
        let after = copy_counters();
        assert_eq!(p.len(), 6);
        assert_eq!(after.copies, before.copies + 1);
        assert_eq!(after.copy_bytes, before.copy_bytes + 6);
    }

    #[test]
    fn slicing_shares_the_page() {
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        page.write_at(0, b"headerpayload");
        page.truncate(13);
        let pkt = page.freeze();
        let before = copy_counters();
        let hdr = pkt.slice(..6);
        let body = pkt.slice(6..);
        assert_eq!(hdr, b"header");
        assert_eq!(body, b"payload");
        assert_eq!(copy_counters().copies, before.copies, "views are free");
        assert_eq!(pool.free_pages(), 0, "page still referenced");
        drop((pkt, hdr, body));
        assert_eq!(pool.free_pages(), 1, "page recycled after last view");
    }

    #[test]
    fn split_to_advances_the_remainder() {
        let mut p = PktBuf::from_vec(b"abcdefgh".to_vec());
        let head = p.split_to(3);
        assert_eq!(head, b"abc");
        assert_eq!(p, b"defgh");
        let rest = p.split_to(5);
        assert_eq!(rest, b"defgh");
        assert!(p.is_empty());
    }

    #[test]
    fn deref_allows_slice_ops() {
        let p = PktBuf::from_vec(vec![0x12, 0x34]);
        assert_eq!(u16::from_be_bytes([p[0], p[1]]), 0x1234);
        assert_eq!(&p[..], b"\x12\x34");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        let p = PktBuf::from_vec(vec![0; 4]);
        let _ = p.slice(2..9);
    }
}
