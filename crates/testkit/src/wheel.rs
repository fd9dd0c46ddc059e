//! Hashed hierarchical timer wheel — O(1) insert/cancel and O(due) expiry.
//!
//! The paper's scaling pitch (fig06 boot storms, "millions of users") dies
//! the moment any per-tick path walks *every* armed timer: a binary heap
//! gives O(log n) inserts and the net stack's naive fold gives O(n) ticks.
//! [`TimerWheel`] replaces both with the classic hashed-wheel layout
//! (Varghese & Lauck, SOSP '87), as used by Linux's `timer_list` wheel and
//! tokio's driver:
//!
//! * 8 levels of 64 slots; level *l* slots span `64^l` ticks, so the wheel
//!   covers `64^8` ticks (~208 virtual days at the default 64 ns tick)
//!   before spilling into an overflow list;
//! * insert and cancel are O(1): a deadline maps to (level, slot) with two
//!   shifts and a mask, cancellation tombstones a slab entry;
//! * [`TimerWheel::advance`] visits only occupied slots (one occupancy
//!   bitmap per level), cascading coarse slots downwards, so a quiet tick
//!   costs O(levels) and a busy tick costs O(entries due);
//! * expiry order is deterministic: entries fire sorted by
//!   `(deadline, insertion seq)` — exactly the order a binary-heap timer
//!   queue would pop them, which is what the property suite checks.
//!
//! Deadlines are raw `u64` nanoseconds so the wheel stays free of
//! simulator types; the runtime executor and the network stack both wrap
//! it with their own `Time` conversions.

/// Handle to a pending timer, returned by [`TimerWheel::insert`]. Stale
/// handles (already fired or cancelled) are ignored by
/// [`TimerWheel::cancel`] — a generation counter detects slab reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 8;
/// Ticks covered by the wheel before entries land in the overflow list.
const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 64^8
const OVERFLOW_LOC: u16 = u16::MAX;

struct Entry<T> {
    /// Absolute deadline in nanoseconds.
    deadline: u64,
    /// Insertion sequence — the deterministic same-deadline tie-break.
    seq: u64,
    gen: u32,
    /// `level * SLOTS + slot`, or [`OVERFLOW_LOC`].
    loc: u16,
    /// `None` marks a cancelled tombstone awaiting slot drain.
    data: Option<T>,
}

#[derive(Default)]
struct Slot {
    items: Vec<u32>,
    live: u32,
}

struct Level {
    /// Bit `s` set iff `slots[s]` holds at least one live entry.
    occupied: u64,
    slots: Vec<Slot>,
}

impl Level {
    fn new() -> Level {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }
}

/// A hashed hierarchical timer wheel over `u64`-nanosecond deadlines.
///
/// All operations are deterministic; two wheels fed the same sequence of
/// calls fire the same entries in the same order.
pub struct TimerWheel<T> {
    /// log2 of the tick granularity in nanoseconds.
    shift: u32,
    /// Current tick — slots strictly before it have been drained.
    cursor: u64,
    levels: Vec<Level>,
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    overflow: Slot,
    overflow_min: u64,
    next_seq: u64,
    len: usize,
    /// Exact earliest live deadline when `!cache_dirty`.
    cached_next: Option<u64>,
    cache_dirty: bool,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("cursor_tick", &self.cursor)
            .finish()
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the default 64 ns tick (levels span 64 ns, 4 µs,
    /// 262 µs, 16.8 ms, 1.07 s, 68.7 s, 1.2 h, 78 h).
    pub fn new() -> TimerWheel<T> {
        TimerWheel::with_shift(SLOT_BITS)
    }

    /// A wheel whose tick is `1 << shift` nanoseconds.
    pub fn with_shift(shift: u32) -> TimerWheel<T> {
        TimerWheel {
            shift,
            cursor: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            entries: Vec::new(),
            free: Vec::new(),
            overflow: Slot::default(),
            overflow_min: u64::MAX,
            next_seq: 0,
            len: 0,
            cached_next: None,
            cache_dirty: false,
        }
    }

    /// Live (armed, uncancelled) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer at `deadline` (absolute nanoseconds). O(1).
    pub fn insert(&mut self, deadline: u64, data: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.deadline = deadline;
                e.seq = seq;
                e.data = Some(data);
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    deadline,
                    seq,
                    gen: 0,
                    loc: 0,
                    data: Some(data),
                });
                idx
            }
        };
        self.place(idx);
        self.len += 1;
        match self.cached_next {
            _ if self.cache_dirty => {}
            Some(n) if n <= deadline => {}
            _ => self.cached_next = Some(deadline),
        }
        TimerId {
            idx,
            gen: self.entries[idx as usize].gen,
        }
    }

    /// Disarms `id`, returning its payload, or `None` if it already fired,
    /// was already cancelled, or the handle is stale. O(1).
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let e = self.entries.get_mut(id.idx as usize)?;
        if e.gen != id.gen {
            return None;
        }
        let data = e.data.take()?;
        let deadline = e.deadline;
        let loc = e.loc;
        self.len -= 1;
        if loc == OVERFLOW_LOC {
            self.overflow.live -= 1;
            if self.overflow.live == 0 {
                let items = std::mem::take(&mut self.overflow.items);
                for idx in items {
                    self.free_entry(idx);
                }
                self.overflow_min = u64::MAX;
            }
        } else {
            let (l, s) = ((loc as usize) / SLOTS, (loc as usize) % SLOTS);
            let slot = &mut self.levels[l].slots[s];
            slot.live -= 1;
            if slot.live == 0 {
                let items = std::mem::take(&mut slot.items);
                self.levels[l].occupied &= !(1u64 << s);
                for idx in items {
                    self.free_entry(idx);
                }
            }
        }
        if !self.cache_dirty && self.cached_next == Some(deadline) {
            self.cache_dirty = true;
        }
        Some(data)
    }

    /// Mutable access to a pending entry's payload (used by sleep futures
    /// to refresh their waker without a cancel/re-insert round trip).
    pub fn get_mut(&mut self, id: TimerId) -> Option<&mut T> {
        let e = self.entries.get_mut(id.idx as usize)?;
        if e.gen != id.gen {
            return None;
        }
        e.data.as_mut()
    }

    /// The exact earliest pending deadline, if any. Cached; recomputed only
    /// after an expiry or a cancellation of the minimum.
    pub fn next_deadline(&mut self) -> Option<u64> {
        if !self.cache_dirty {
            return self.cached_next;
        }
        let mut best: Option<u64> = None;
        let mut fold = |d: u64| {
            best = Some(match best {
                Some(b) => b.min(d),
                None => d,
            });
        };
        for l in 0..LEVELS {
            let Some((_, slot)) = self.nearest(l) else {
                continue;
            };
            for &idx in &self.levels[l].slots[slot].items {
                let e = &self.entries[idx as usize];
                if e.data.is_some() {
                    fold(e.deadline);
                }
            }
        }
        if self.overflow.live > 0 {
            for &idx in &self.overflow.items {
                let e = &self.entries[idx as usize];
                if e.data.is_some() {
                    fold(e.deadline);
                }
            }
        }
        self.cached_next = best;
        self.cache_dirty = false;
        best
    }

    /// Fires every entry with `deadline <= now`, in `(deadline, seq)` order
    /// — exactly the pop order of a binary-heap timer queue. Quiet calls
    /// (nothing due) cost O(1).
    pub fn advance(&mut self, now: u64, mut fire: impl FnMut(u64, T)) {
        if self.len == 0 {
            self.cursor = now >> self.shift;
            return;
        }
        if !self.cache_dirty {
            if let Some(n) = self.cached_next {
                if n > now {
                    return;
                }
            } else {
                // Only tombstones remain; let the slow path reap them.
            }
        }
        let now_tick = now >> self.shift;
        let mut due: Vec<u32> = Vec::new();
        let mut parked: Vec<u32> = Vec::new();
        // Pull overflow entries inside the horizon back onto the wheel
        // (already-due ones fire directly — a top-level slot collision can
        // bounce a not-yet-due entry back into overflow, which is fine).
        // The `overflow_min <= now` arm covers a single advance jumping
        // more than a whole horizon past an overflow deadline: the entry
        // is due even though it is still beyond the old cursor's horizon.
        if self.overflow.live > 0
            && (self.overflow_min <= now
                || (self.overflow_min >> self.shift).saturating_sub(self.cursor) < HORIZON_TICKS)
        {
            let items = std::mem::take(&mut self.overflow.items);
            self.overflow.live = 0;
            self.overflow_min = u64::MAX;
            for idx in items {
                let e = &self.entries[idx as usize];
                if e.data.is_none() {
                    self.free_entry(idx);
                } else if e.deadline <= now {
                    due.push(idx);
                } else {
                    self.place(idx);
                }
            }
        }
        loop {
            // The earliest occupied slot across all levels, by start tick.
            let mut best: Option<(u64, usize, usize)> = None;
            for l in 0..LEVELS {
                let Some((bound, slot)) = self.nearest(l) else {
                    continue;
                };
                if best.is_none_or(|(b, _, _)| bound < b) {
                    best = Some((bound, l, slot));
                }
            }
            let Some((bound, l, s)) = best else { break };
            if bound > now_tick {
                break;
            }
            self.cursor = self.cursor.max(bound);
            let slot = &mut self.levels[l].slots[s];
            let items = std::mem::take(&mut slot.items);
            slot.live = 0;
            self.levels[l].occupied &= !(1u64 << s);
            for idx in items {
                let e = &self.entries[idx as usize];
                if e.data.is_none() {
                    self.free_entry(idx);
                } else if e.deadline <= now {
                    due.push(idx);
                } else if e.deadline >> self.shift <= now_tick {
                    // Sub-tick early: keep for after the scan so the
                    // current-tick slot is not re-drained forever.
                    parked.push(idx);
                } else {
                    self.place(idx);
                }
            }
        }
        self.cursor = self.cursor.max(now_tick);
        for idx in parked {
            self.place(idx);
        }
        if !due.is_empty() {
            due.sort_by_key(|&idx| {
                let e = &self.entries[idx as usize];
                (e.deadline, e.seq)
            });
            self.cache_dirty = true;
            for idx in due {
                let e = &mut self.entries[idx as usize];
                let deadline = e.deadline;
                let data = e.data.take().expect("due entries are live");
                self.len -= 1;
                self.free_entry(idx);
                fire(deadline, data);
            }
        }
    }

    // --- internals ---------------------------------------------------------

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        debug_assert!(e.data.is_none());
        e.gen = e.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Files a live entry into the level whose span covers its distance
    /// from the cursor (or the overflow list beyond the horizon).
    fn place(&mut self, idx: u32) {
        let tick = (self.entries[idx as usize].deadline >> self.shift).max(self.cursor);
        let delta = tick - self.cursor;
        for l in 0..LEVELS {
            if delta < 1u64 << (SLOT_BITS * (l as u32 + 1)) {
                let level_shift = SLOT_BITS * l as u32;
                let s = ((tick >> level_shift) & (SLOTS as u64 - 1)) as usize;
                // A tick exactly one rotation ahead hashes to the cursor's
                // own slot; filing it there would make `advance` re-drain
                // it endlessly. Push such entries one level up instead.
                if delta >> level_shift >= 1
                    && s == ((self.cursor >> level_shift) & (SLOTS as u64 - 1)) as usize
                {
                    continue;
                }
                let slot = &mut self.levels[l].slots[s];
                slot.items.push(idx);
                slot.live += 1;
                self.levels[l].occupied |= 1u64 << s;
                self.entries[idx as usize].loc = (l * SLOTS + s) as u16;
                return;
            }
        }
        self.overflow.items.push(idx);
        self.overflow.live += 1;
        self.overflow_min = self.overflow_min.min(self.entries[idx as usize].deadline);
        self.entries[idx as usize].loc = OVERFLOW_LOC;
    }

    /// The nearest occupied slot of level `l` (cyclic distance from the
    /// cursor position) as `(start tick, slot index)`.
    fn nearest(&self, l: usize) -> Option<(u64, usize)> {
        let occ = self.levels[l].occupied;
        if occ == 0 {
            return None;
        }
        let level_shift = SLOT_BITS * l as u32;
        let block = self.cursor >> level_shift;
        let pos = (block & (SLOTS as u64 - 1)) as u32;
        let dist = occ.rotate_right(pos).trailing_zeros() as u64;
        let slot = ((pos as u64 + dist) & (SLOTS as u64 - 1)) as usize;
        let bound = (block + dist) << level_shift;
        Some((bound.max(self.cursor), slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference model: the binary heap the wheel replaces. Pops in
    /// `(deadline, seq)` order; cancellation is a tombstone set.
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        cancelled: std::collections::HashSet<u64>,
    }

    impl HeapModel {
        fn new() -> HeapModel {
            HeapModel {
                heap: BinaryHeap::new(),
                cancelled: std::collections::HashSet::new(),
            }
        }

        fn insert(&mut self, deadline: u64, seq: u64) {
            self.heap.push(Reverse((deadline, seq)));
        }

        fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
        }

        fn advance(&mut self, now: u64) -> Vec<(u64, u64)> {
            let mut fired = Vec::new();
            while self.heap.peek().map(|Reverse((d, _))| *d <= now).unwrap_or(false) {
                let Reverse((d, s)) = self.heap.pop().expect("peeked");
                if !self.cancelled.remove(&s) {
                    fired.push((d, s));
                }
            }
            fired
        }
    }

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(500, 0);
        w.insert(100, 1);
        w.insert(500, 2);
        w.insert(300, 3);
        let mut fired = Vec::new();
        w.advance(1_000, |_, v| fired.push(v));
        assert_eq!(fired, vec![1, 3, 0, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_removes_and_stale_handles_are_ignored() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new();
        let a = w.insert(1_000, "a");
        let b = w.insert(2_000, "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel");
        let mut fired = Vec::new();
        w.advance(5_000, |_, v| fired.push(v));
        assert_eq!(fired, vec!["b"]);
        assert_eq!(w.cancel(b), None, "already fired");
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn next_deadline_is_exact_across_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(3_000_000_000, 0); // level 4 at 64 ns ticks
        w.insert(70_000, 1); // level 1-2
        assert_eq!(w.next_deadline(), Some(70_000));
        w.insert(130, 2);
        assert_eq!(w.next_deadline(), Some(130));
        w.advance(200, |_, _| {});
        assert_eq!(w.next_deadline(), Some(70_000));
        w.advance(100_000, |_, _| {});
        assert_eq!(w.next_deadline(), Some(3_000_000_000));
    }

    #[test]
    fn far_deadlines_cascade_down_without_firing_early() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let deadline = 60 * 1_000_000_000; // one virtual minute: level 5
        w.insert(deadline, 7);
        let mut fired = Vec::new();
        // Step towards it in uneven jumps; nothing may fire before.
        let mut now = 0u64;
        while now < deadline - 1 {
            now = (now + now / 2 + 977_131).min(deadline - 1);
            w.advance(now, |_, v| fired.push(v));
            assert!(fired.is_empty(), "fired {}ns early", deadline - now);
        }
        w.advance(deadline, |_, v| fired.push(v));
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn beyond_horizon_entries_survive_in_overflow() {
        let mut w: TimerWheel<u32> = TimerWheel::with_shift(0);
        let far = HORIZON_TICKS + 5; // just past the wheel with 1 ns ticks
        w.insert(far, 1);
        w.insert(10, 2);
        assert_eq!(w.next_deadline(), Some(10));
        let mut fired = Vec::new();
        w.advance(20, |_, v| fired.push(v));
        assert_eq!(fired, vec![2]);
        assert_eq!(w.next_deadline(), Some(far));
        w.advance(far, |_, v| fired.push(v));
        assert_eq!(fired, vec![2, 1]);
        assert!(w.is_empty());
    }

    /// The satellite property: a seeded insert/cancel/advance sequence
    /// fires identically (same entries, same order) on the wheel and on a
    /// binary-heap reference model.
    #[test]
    fn property_matches_binary_heap_reference() {
        let seed = crate::test_seed();
        for case in 0..32u64 {
            let mut rng = Rng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut model = HeapModel::new();
            let mut ids: Vec<(u64, TimerId)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..400 {
                match rng.gen_range(0..10u32) {
                    // Insert (weighted): deadlines from sub-tick to minutes.
                    0..=5 => {
                        let magnitude = rng.gen_range(0..11u32);
                        let span = 1u64 << (rng.gen_range(0..4u32) + 4 * magnitude).min(36);
                        let deadline = now + rng.gen_range(0..span.max(1));
                        let id = wheel.insert(deadline, seq);
                        model.insert(deadline, seq);
                        ids.push((seq, id));
                        seq += 1;
                    }
                    // Cancel a random outstanding entry.
                    6..=7 if !ids.is_empty() => {
                        let k = rng.gen_range(0..ids.len() as u64) as usize;
                        let (s, id) = ids.swap_remove(k);
                        if wheel.cancel(id).is_some() {
                            model.cancel(s);
                        }
                    }
                    // Advance by a random jump and compare expiry order.
                    _ => {
                        let magnitude = rng.gen_range(0..10u32);
                        now += rng.gen_range(0..(1u64 << (4 * magnitude / 3 + 4)));
                        let mut fired = Vec::new();
                        wheel.advance(now, |d, s| fired.push((d, s)));
                        let expect = model.advance(now);
                        assert_eq!(
                            fired, expect,
                            "divergent expiry (seed {seed}, case {case}, now {now})"
                        );
                        ids.retain(|(s, _)| !fired.iter().any(|(_, fs)| fs == s));
                    }
                }
                assert_eq!(
                    wheel.next_deadline(),
                    model.heap.iter().filter(|Reverse((_, s))| !model.cancelled.contains(s)).map(|Reverse((d, _))| *d).min(),
                    "divergent next_deadline (seed {seed}, case {case})"
                );
            }
            // Drain everything left.
            let mut fired = Vec::new();
            wheel.advance(u64::MAX, |d, s| fired.push((d, s)));
            assert_eq!(fired, model.advance(u64::MAX), "final drain (seed {seed}, case {case})");
            assert!(wheel.is_empty());
        }
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    #[test]
    fn overflow_entry_due_in_one_giant_jump() {
        let mut w: TimerWheel<u32> = TimerWheel::with_shift(0);
        w.insert(HORIZON_TICKS + 10, 1); // beyond horizon -> overflow list
        let mut fired = Vec::new();
        // One advance that jumps past the deadline by more than a full horizon.
        w.advance(2 * HORIZON_TICKS + 20, |_, v| fired.push(v));
        assert_eq!(fired, vec![1], "due overflow entry must fire in this advance");
    }
}
