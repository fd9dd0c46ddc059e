//! I/O pages under construction.
//!
//! A [`BufMut`] is an exclusively-owned page being filled in (a packet under
//! construction, a block about to be written). Freezing it yields a
//! [`PktBuf`]: an immutable, reference-counted view that can be split into
//! sub-views without copying (§3.4.1).

use std::fmt;

use crate::pool::PoolRef;
use crate::PktBuf;

/// An exclusively-owned, writable I/O page.
///
/// Produced by [`crate::PagePool::alloc`]; turned into shareable read-only
/// views by [`BufMut::freeze`]. Dropping it without freezing returns the
/// page to its pool immediately.
pub struct BufMut {
    page: Box<[u8]>,
    pool: PoolRef,
    len: usize,
    /// Length of the prefix that may have been written: what recycling
    /// zeroes.
    dirty: usize,
}

impl fmt::Debug for BufMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufMut")
            .field("capacity", &self.page.len())
            .field("len", &self.len)
            .finish()
    }
}

impl BufMut {
    pub(crate) fn from_page(page: Box<[u8]>, pool: PoolRef) -> Self {
        let len = page.len();
        BufMut {
            page,
            pool,
            len,
            dirty: 0,
        }
    }

    /// Writable contents of the exposed extent: the whole page until
    /// [`BufMut::truncate`] narrows it.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.dirty = self.dirty.max(self.len);
        &mut self.page[..self.len]
    }

    /// Read-only contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.page
    }

    /// Capacity of the underlying page in bytes.
    pub fn capacity(&self) -> usize {
        self.page.len()
    }

    /// Restricts the extent that [`BufMut::freeze`] will expose.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the page capacity.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.page.len(), "truncate beyond page capacity");
        self.len = len;
    }

    /// Length that will be exposed when frozen.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the exposed extent is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies `src` into the page starting at `offset` and, if the write
    /// extends past the current exposed length, grows it.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the page capacity.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        assert!(end <= self.page.len(), "write beyond page capacity");
        self.page[offset..end].copy_from_slice(src);
        self.len = self.len.max(end);
        self.dirty = self.dirty.max(end);
    }

    /// Seals the page and returns an immutable view over the exposed extent.
    pub fn freeze(mut self) -> PktBuf {
        let page = std::mem::take(&mut self.page);
        let pool = std::mem::replace(&mut self.pool, PoolRef::new());
        PktBuf::adopt(page, pool, self.len, self.dirty)
    }
}

impl Drop for BufMut {
    fn drop(&mut self) {
        // Taking the page out is not possible in Drop (no by-value field
        // moves), so recycling of un-frozen pages is handled by replacing
        // the boxed slice with an empty one.
        if let Some(pool) = self.pool.upgrade() {
            let page = std::mem::take(&mut self.page);
            if page.len() == crate::PAGE_SIZE {
                pool.recycle(page, self.dirty);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePool;
    use mirage_testkit::prop::{any, collection};

    fn make_buf(data: &[u8]) -> PktBuf {
        PktBuf::from_vec(data.to_vec())
    }

    #[test]
    fn sub_views_share_the_page() {
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        page.write_at(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        page.truncate(8);
        let buf = page.freeze();
        let a = buf.slice(0..4);
        let b = buf.slice(4..8);
        assert_eq!(a.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[5, 6, 7, 8]);
        assert_eq!(buf.view_count(), 3);
        assert_eq!(pool.free_pages(), 0, "page still in flight");
        drop((buf, a, b));
        assert_eq!(pool.free_pages(), 1, "page recycled after last view");
    }

    #[test]
    fn unfrozen_bufmut_recycles_on_drop() {
        let pool = PagePool::new(1);
        let page = pool.alloc().unwrap();
        drop(page);
        assert_eq!(pool.free_pages(), 1);
        assert_eq!(pool.stats().total_recycles, 1);
    }

    #[test]
    fn write_at_grows_exposed_length() {
        let pool = PagePool::new(1);
        let mut page = pool.alloc().unwrap();
        assert_eq!(page.len(), crate::PAGE_SIZE);
        page.truncate(0);
        page.write_at(0, b"abc");
        assert_eq!(page.len(), 3);
        page.write_at(1, b"z");
        assert_eq!(page.len(), 3, "write inside extent does not grow");
        assert_eq!(page.freeze().as_slice(), b"azc");
    }

    #[test]
    fn buf_equality_is_structural() {
        assert_eq!(make_buf(b"hello"), make_buf(b"hello"));
        assert_ne!(make_buf(b"hello"), make_buf(b"world"));
    }

    #[test]
    fn skip_drops_prefix() {
        let buf = make_buf(b"headerbody");
        assert_eq!(buf.slice(6..).as_slice(), b"body");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn sub_out_of_bounds_panics() {
        let buf = make_buf(b"tiny");
        let _ = buf.slice(2..12);
    }

    mirage_testkit::property! {
        /// The view algebra: any chain of in-bounds slice() calls observes
        /// exactly the bytes of the corresponding slice range.
        fn prop_sub_matches_slice(data in collection::vec(any::<u8>(), 1..256),
                                  cuts in collection::vec((0usize..256, 0usize..256), 0..8)) {
            let buf = make_buf(&data);
            let mut view = buf.clone();
            let mut lo = 0usize;
            let mut hi = data.len();
            for (a, b) in cuts {
                let len = hi - lo;
                if len == 0 { break; }
                let off = a % len;
                let sub_len = b % (len - off + 1);
                view = view.slice(off..off + sub_len);
                lo += off;
                hi = lo + sub_len;
            }
            assert_eq!(view.as_slice(), &data[lo..hi]);
        }

        /// split_at is a partition: concatenating the halves restores the view.
        fn prop_split_partitions(data in collection::vec(any::<u8>(), 0..128),
                                 mid_seed in any::<usize>()) {
            let buf = make_buf(&data);
            let mid = if data.is_empty() { 0 } else { mid_seed % (data.len() + 1) };
            let (a, b) = buf.split_at(mid);
            let mut joined = a.as_slice().to_vec();
            joined.extend_from_slice(b.as_slice());
            assert_eq!(joined, data);
        }

        /// Pages always return to the pool no matter how views are split.
        fn prop_pages_always_recycle(splits in collection::vec(0usize..4096, 1..16)) {
            let pool = PagePool::new(1);
            {
                let page = pool.alloc().unwrap();
                let buf = page.freeze();
                let mut views = vec![buf];
                for s in splits {
                    let last = views.last().unwrap().clone();
                    let mid = s % (last.len() + 1);
                    let (a, b) = last.split_at(mid);
                    views.push(a);
                    views.push(b);
                }
            }
            assert_eq!(pool.free_pages(), 1);
        }
    }
}
