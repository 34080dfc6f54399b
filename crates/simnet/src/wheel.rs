//! A hierarchical timing wheel: the simulator's event scheduler.
//!
//! [`TimingWheel`] replaces the seed-era `BinaryHeap<Reverse<QueuedEvent>>`
//! with a 64-ary **radix heap**: six levels of 64 slots each, where an
//! event's level is the position of the highest bit in which its due time
//! differs from the wheel's clock (6 bits per level), plus an overflow
//! bucket for events more than `64^6` ticks out. The structure exploits the
//! *monotone* access pattern of a discrete-event simulation — every push is
//! at or after the time of the last pop — which a general-purpose heap
//! cannot assume:
//!
//! * **push** is O(1): two shifts, a bitmap OR and a push into the slot's
//!   partly filled chunk;
//! * **pop** is amortized O(levels): each event cascades through at most
//!   five redistributions, and finding the next occupied slot is a
//!   `trailing_zeros` on a 64-bit occupancy bitmap rather than a
//!   log-n sift;
//! * **order** is exactly the heap's: events pop in `(time, seq)` order.
//!   Same-time events always share a bucket and are appended in push
//!   order, which *is* `seq` order, so no comparison or sort is ever
//!   needed — the tiebreak the byte-identical golden traces rely on falls
//!   out of the layout.
//!
//! ## Memory
//!
//! No slot owns a growing buffer. A slot is a list of fixed-capacity
//! **chunks** (32 entries each, allocated once at full capacity and never
//! grown) drawn from a LIFO pool the wheel owns; a chunk whose entries
//! were popped or cascaded away goes back to the pool, so the next push
//! reuses the memory most recently touched. The footprint is therefore the
//! *live* entries at their peak, rounded up to whole chunks, plus one
//! partly filled chunk per occupied slot and one empty chunk in each of
//! the 64 level-0 slots once it has been drained — however the busy ticks
//! move over the run, no tick keeps a high-water mark of its own — and
//! steady-state scheduling allocates nothing per event. A slot that never
//! outgrows one chunk (the usual case outside bursts) comes due by
//! swapping that chunk with the spent drain buffer, exactly as a flat
//! `Vec` slot would, which is where a drained slot's empty chunk comes
//! from; a larger slot drains chunk by chunk.
//!
//! The wheel requires `push(at, ..)` with `at` no earlier than the last
//! *popped* time. [`Simulation`](crate::Simulation) guarantees this:
//! message delays and timer durations are clamped to at least one tick.
//! Peeking ([`TimingWheel::next_time`]) may settle the internal clock onto
//! a minimum that a later — still legal — push undercuts (e.g. `run_until`
//! peeks a far-future timer, then the caller schedules a nearer
//! invocation); `push` handles that with a rare O(len) clock rewind.

/// One scheduled entry: a due time, the global push sequence number, and
/// the payload.
#[derive(Clone, Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 6; // covers deltas < 64^6 = 2^36 ticks
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Entries per chunk, chosen by measurement on the benchmark. Every
/// level-0 slot a run has drained keeps one (empty) chunk, so a small
/// simulation holds about 70 of them whatever it queues. At 256 entries
/// the ABD half of the `scale` workload read 15–20 % faster than at 32
/// (5–10 % at 64), but the peak RSS of the three small-simulation
/// workloads (a 5 MiB process, 120-byte entries) rose by 1.4–2.8 MiB —
/// past their 20 % bound — and at 64 by up to 0.9 MiB; at 32 it stays
/// within 0.2 MiB of flat slots, and `scale` still takes 57 % of the time
/// it took with them.
const CHUNK: usize = 32;

/// A run of entries in push order: either unallocated (capacity zero, what
/// an idle slot holds) or allocated once with room for exactly [`CHUNK`]
/// entries. It is never pushed to when full, so it never reallocates and
/// every allocated chunk is interchangeable with every other.
#[derive(Debug)]
struct Chunk<T>(Vec<Entry<T>>);

impl<T> Chunk<T> {
    fn unallocated() -> Self {
        Chunk(Vec::new())
    }

    /// Whether the next push needs a fresh chunk: true for a filled chunk
    /// and for an unallocated one.
    #[inline]
    fn is_full(&self) -> bool {
        self.0.len() == self.0.capacity()
    }
}

impl<T> Default for Chunk<T> {
    fn default() -> Self {
        Chunk::unallocated()
    }
}

/// Copies the entries into a chunk of full capacity (or none, if there are
/// no entries), so a clone's chunks are as poolable as the original's.
impl<T: Clone> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        if self.0.is_empty() {
            return Chunk::unallocated();
        }
        let mut entries = Vec::with_capacity(CHUNK);
        entries.extend_from_slice(&self.0);
        Chunk(entries)
    }
}

/// The wheel's free list of spent chunks, LIFO so the hottest memory is
/// reused first. Cloning a pool yields an empty one: a snapshot copies
/// entries, not spare capacity.
#[derive(Debug)]
struct Pool<T> {
    free: Vec<Chunk<T>>,
    /// Chunks allocated so far (the tests' view of memory growth).
    #[cfg(test)]
    allocated: usize,
}

impl<T> Pool<T> {
    fn new() -> Self {
        Pool {
            free: Vec::new(),
            #[cfg(test)]
            allocated: 0,
        }
    }

    /// An empty allocated chunk: a pooled one if there is one.
    fn get(&mut self) -> Chunk<T> {
        self.free.pop().unwrap_or_else(|| {
            #[cfg(test)]
            {
                self.allocated += 1;
            }
            Chunk(Vec::with_capacity(CHUNK))
        })
    }

    /// Takes back a chunk whose entries are gone.
    fn put(&mut self, chunk: Chunk<T>) {
        debug_assert!(chunk.0.is_empty());
        if chunk.0.capacity() != 0 {
            self.free.push(chunk);
        }
    }
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool::new()
    }
}

/// One wheel slot: its entries in push order, `full[0]`, `full[1]`, …,
/// then `tail`. Every chunk in `full` is filled; `tail` is the one being
/// filled, and is non-empty whenever `full` is.
#[derive(Clone, Debug)]
struct Slot<T> {
    full: Vec<Chunk<T>>,
    tail: Chunk<T>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { full: Vec::new(), tail: Chunk::unallocated() }
    }

    /// Makes room in `tail`, which is full: a filled tail joins `full`
    /// (an unallocated one is simply replaced).
    #[cold]
    fn grow(&mut self, pool: &mut Pool<T>) {
        let filled = std::mem::replace(&mut self.tail, pool.get());
        if !filled.0.is_empty() {
            self.full.push(filled);
        }
    }
}

/// One wheel level: 64 slots plus an occupancy bitmap (bit `s` set iff
/// `slots[s]` is non-empty).
#[derive(Clone, Debug)]
struct Level<T> {
    occupied: u64,
    slots: [Slot<T>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level { occupied: 0, slots: std::array::from_fn(|_| Slot::new()) }
    }
}

/// A deterministic min-queue over `(time, seq)` keys (see the module docs).
///
/// # Examples
///
/// ```
/// use gqs_simnet::wheel::TimingWheel;
///
/// let mut w = TimingWheel::new();
/// w.push(10, 0, "late");
/// w.push(3, 1, "early");
/// w.push(3, 2, "early-but-pushed-later");
/// assert_eq!(w.next_time(), Some(3));
/// assert_eq!(w.pop(), Some((3, 1, "early")));
/// assert_eq!(w.pop(), Some((3, 2, "early-but-pushed-later")));
/// assert_eq!(w.pop(), Some((10, 0, "late")));
/// assert_eq!(w.pop(), None);
/// ```
///
/// Cloning a wheel is its snapshot path (the basis of
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint)): the clone
/// copies the clock, every slot's entries chunk by chunk in bucket order,
/// the occupancy bitmaps, the overflow bucket and the (reversed) drain
/// buffer with the chunks still queued behind it — but not the pool of
/// spare chunks — so a clone pops the exact same `(time, seq, item)`
/// sequence as the original, a property the snapshot-vs-oracle test pins.
#[derive(Clone, Debug)]
pub struct TimingWheel<T> {
    /// Lower bound on every stored due time; advanced by pops.
    now: u64,
    len: usize,
    levels: Vec<Level<T>>,
    /// Events due `>= now + 64^LEVELS` ticks out (rare; rescanned only
    /// when the levels drain).
    overflow: Vec<Entry<T>>,
    /// Drain buffer: the chunk currently being popped, in *reverse* seq
    /// order so `pop` is a `Vec::pop` from the back.
    cur: Chunk<T>,
    /// The chunks of the due slot still queued behind `cur`, last first
    /// (so the next one is a `Vec::pop` away). All their entries are due
    /// at `now`. Empty unless the due slot held more than one chunk.
    rest: Vec<Chunk<T>>,
    pool: Pool<T>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel with its clock at zero.
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            len: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
            cur: Chunk::unallocated(),
            rest: Vec::new(),
            pool: Pool::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level an entry due at `at` belongs to under clock `now`:
    /// the highest 6-bit digit in which `at` and `now` differ, or
    /// `LEVELS` for the overflow bucket.
    #[inline]
    fn level_of(now: u64, at: u64) -> usize {
        let diff = at ^ now;
        if diff == 0 {
            return 0;
        }
        ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
    }

    /// Schedules `item` at time `at` with tiebreak key `seq`.
    ///
    /// `seq` values must be distinct and assigned in push order (the
    /// simulator uses a global counter); `at` must be no earlier than the
    /// last popped time.
    #[inline]
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        if at < self.now {
            self.rewind(at);
        }
        self.len += 1;
        self.place(Entry { at, seq, item });
    }

    /// Files `entry` under the current clock: into the slot its level and
    /// due time select, or the overflow bucket.
    #[inline]
    fn place(&mut self, entry: Entry<T>) {
        let level = Self::level_of(self.now, entry.at);
        if level >= LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((entry.at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level];
        lv.occupied |= 1 << slot;
        let slot = &mut lv.slots[slot];
        if slot.tail.is_full() {
            slot.grow(&mut self.pool);
        }
        slot.tail.0.push(entry);
    }

    /// Re-files every entry of `chunk` under the current clock and returns
    /// the chunk to the pool.
    fn replace_all(&mut self, mut chunk: Chunk<T>) {
        for entry in chunk.0.drain(..) {
            self.place(entry);
        }
        self.pool.put(chunk);
    }

    /// The earliest queued `(time, seq)` time, or `None` if empty.
    ///
    /// Takes `&mut self` because exposing the minimum may cascade
    /// higher-level slots down — a structural rotation that processes no
    /// events and changes no pop order.
    pub fn next_time(&mut self) -> Option<u64> {
        if let Some(e) = self.cur.0.last() {
            return Some(e.at);
        }
        if !self.rest.is_empty() {
            return Some(self.now);
        }
        self.settle()
    }

    /// Pops the entry with the least `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.cur.0.is_empty() && !self.load() {
            return None;
        }
        let e = self.cur.0.pop().expect("a loaded chunk is non-empty");
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Loads the next chunk in pop order into the (empty) drain buffer.
    /// Returns `false` if the wheel is empty.
    fn load(&mut self) -> bool {
        if let Some(next) = self.rest.pop() {
            let spent = std::mem::replace(&mut self.cur, next);
            self.pool.put(spent);
        } else {
            let Some(t) = self.settle() else {
                return false;
            };
            self.now = t;
            let slot = (t & SLOT_MASK) as usize;
            let lv = &mut self.levels[0];
            lv.occupied &= !(1 << slot);
            let slot = &mut lv.slots[slot];
            // Swap the slot's last (usually only) chunk into the drain
            // buffer; the buffer's spent chunk takes its place, so chunks
            // circulate between a tick and the drain with no pool traffic.
            std::mem::swap(&mut self.cur, &mut slot.tail);
            if !slot.full.is_empty() {
                // A burst: queue what was the tail behind the filled
                // chunks and start from the first of them.
                slot.full.push(std::mem::take(&mut self.cur));
                slot.full.reverse();
                std::mem::swap(&mut self.rest, &mut slot.full);
                self.cur = self.rest.pop().expect("the slot had filled chunks");
            }
        }
        // Entries were appended in push order = seq order; reverse once so
        // popping from the back yields ascending seq.
        self.cur.0.reverse();
        true
    }

    /// Rewinds the clock to `at` (below its current value) and re-buckets
    /// every entry. Only reachable when the clock was advanced by a
    /// *peek*: a pop at time `t` obliges later pushes to be `>= t`, but
    /// [`TimingWheel::next_time`] may settle the clock onto a minimum the
    /// caller then legally schedules under. O(len), and rare — only
    /// user-level scheduling between runs triggers it.
    #[cold]
    fn rewind(&mut self, at: u64) {
        debug_assert!(
            self.cur.0.is_empty() && self.rest.is_empty(),
            "a pop at the buffered tick bounds later pushes"
        );
        let mut scratch: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for lv in &mut self.levels {
            lv.occupied = 0;
            for slot in &mut lv.slots {
                for mut chunk in slot.full.drain(..).chain([std::mem::take(&mut slot.tail)]) {
                    scratch.append(&mut chunk.0);
                    self.pool.put(chunk);
                }
            }
        }
        scratch.append(&mut self.overflow);
        // Buckets must hold same-time entries in seq order; re-placing in
        // globally sorted order restores that invariant.
        scratch.sort_unstable_by_key(|e| (e.at, e.seq));
        self.now = at;
        for entry in scratch {
            self.place(entry);
        }
    }

    /// Cascades until the global minimum sits in a level-0 slot and
    /// returns its time. Empties nothing observable: every redistributed
    /// entry keeps its `(time, seq)` key. Called only while the drain
    /// buffer and the chunks behind it are empty.
    fn settle(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            let Some(level) = self.levels.iter().position(|lv| lv.occupied != 0) else {
                // Levels drained: pull the overflow bucket forward. The
                // minimum lands in a proper level; entries still > 64^6
                // ticks out stay in overflow for a later rescan.
                let min = self.overflow.iter().map(|e| e.at).min()?;
                self.now = min;
                for entry in std::mem::take(&mut self.overflow) {
                    self.place(entry);
                }
                continue;
            };
            let slot = self.levels[level].occupied.trailing_zeros() as usize;
            if level == 0 {
                // Level-0 slots hold a single exact tick each (all
                // entries agree with the clock above bit 6).
                let t = (self.now & !SLOT_MASK) | slot as u64;
                debug_assert!(t >= self.now);
                return Some(t);
            }
            // Redistribute the earliest occupied slot of the lowest
            // non-empty level. Advancing the clock to the slot's minimum
            // is safe — every other queued entry is later — and makes all
            // its entries land strictly below `level`, so settling
            // terminates.
            let lv = &mut self.levels[level];
            lv.occupied &= !(1 << slot);
            let mut full = std::mem::take(&mut lv.slots[slot].full);
            let tail = std::mem::take(&mut lv.slots[slot].tail);
            let entries = || full.iter().chain([&tail]).flat_map(|chunk| &chunk.0);
            let min = entries().map(|e| e.at).min().expect("occupancy bit set on empty slot");
            debug_assert!(min >= self.now);
            debug_assert!(
                entries().all(|e| Self::level_of(min, e.at) < level),
                "cascade must descend"
            );
            self.now = min;
            for chunk in full.drain(..) {
                self.replace_all(chunk);
            }
            self.replace_all(tail);
            // Hand the (empty) chunk list back for its capacity.
            self.levels[level].slots[slot].full = full;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn empty_wheel() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_time(), None);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn single_entry_roundtrip() {
        let mut w = TimingWheel::new();
        w.push(5, 0, 'a');
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(w.pop(), Some((5, 0, 'a')));
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_pops_in_seq_order() {
        let mut w = TimingWheel::new();
        for seq in 0..10u64 {
            w.push(7, seq, seq as usize);
        }
        for seq in 0..10u64 {
            assert_eq!(w.pop(), Some((7, seq, seq as usize)));
        }
    }

    #[test]
    fn distant_times_cross_every_level_and_overflow() {
        // One entry per level plus one past the 64^6 range.
        let times = [1u64, 100, 5_000, 300_000, 20_000_000, 1 << 33, (1 << 36) + 17, u64::MAX];
        let mut w = TimingWheel::new();
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, t);
        }
        let mut sorted = times;
        sorted.sort();
        for &t in &sorted {
            assert_eq!(w.pop(), Some((t, times.iter().position(|&x| x == t).unwrap() as u64, t)));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_at_the_popped_instant_pops_after_buffered_peers() {
        // A monotone scheduler may push at exactly the time being drained
        // (e.g. an invocation injected mid-run "now"); its larger seq must
        // order it after the already-queued same-tick entries.
        let mut w = TimingWheel::new();
        w.push(4, 0, "first");
        w.push(4, 1, "second");
        assert_eq!(w.pop(), Some((4, 0, "first")));
        w.push(4, 2, "injected");
        assert_eq!(w.pop(), Some((4, 1, "second")));
        assert_eq!(w.pop(), Some((4, 2, "injected")));

        // The same with a tick of several chunks: entries injected while
        // the first and while a middle chunk drain both pop after every
        // chunk that was queued before them.
        let queued = 3 * CHUNK as u64 + 5;
        let mut w = TimingWheel::new();
        for seq in 0..queued {
            w.push(9, seq, "queued");
        }
        assert_eq!(w.pop(), Some((9, 0, "queued")));
        w.push(9, queued, "injected");
        for seq in 1..CHUNK as u64 + CHUNK as u64 / 2 {
            assert_eq!(w.pop(), Some((9, seq, "queued")));
        }
        w.push(9, queued + 1, "injected later");
        assert_eq!(w.next_time(), Some(9));
        for seq in CHUNK as u64 + CHUNK as u64 / 2..queued {
            assert_eq!(w.pop(), Some((9, seq, "queued")));
        }
        assert_eq!(w.pop(), Some((9, queued, "injected")));
        assert_eq!(w.pop(), Some((9, queued + 1, "injected later")));
        assert_eq!(w.pop(), None);
    }

    /// The conformance oracle: any interleaving of monotone pushes and
    /// pops must match `BinaryHeap<Reverse<(time, seq)>>` exactly — the
    /// seed implementation whose order the golden traces froze.
    #[test]
    fn matches_binary_heap_on_random_workloads() {
        for case in 0..64u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ case);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut clock = 0u64;
            for _ in 0..2_000 {
                if heap.is_empty() || rng.chance(0.6) {
                    // Push 1–4 entries at skewed future offsets; small
                    // deltas dominate like real message delays do.
                    for _ in 0..rng.range(1, 4) {
                        let delta = match rng.range(0, 9) {
                            0 => 0,
                            1..=6 => rng.range(1, 64),
                            7 => rng.range(64, 10_000),
                            _ => rng.range(10_000, 1 << 38),
                        };
                        let at = clock + delta;
                        wheel.push(at, seq, ());
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                } else {
                    let Reverse((at, s)) = heap.pop().unwrap();
                    assert_eq!(wheel.next_time(), Some(at), "case {case}");
                    assert_eq!(wheel.pop(), Some((at, s, ())), "case {case}");
                    clock = at;
                }
                assert_eq!(wheel.len(), heap.len());
            }
            while let Some(Reverse((at, s))) = heap.pop() {
                assert_eq!(wheel.pop(), Some((at, s, ())), "case {case} drain");
            }
            assert_eq!(wheel.pop(), None, "case {case}");
        }
    }

    #[test]
    fn push_below_a_peeked_minimum_rewinds_the_clock() {
        // `run_until` peeks (settling the clock onto the queued minimum),
        // stops at its horizon, and the caller then schedules an earlier —
        // still legal — event. The wheel must accept it and keep exact
        // (time, seq) order.
        let mut w = TimingWheel::new();
        w.push(5_400, 0, "timer");
        w.push((1 << 37) + 3, 1, "far");
        assert_eq!(w.next_time(), Some(5_400)); // clock settles onto 5400
        w.push(4_211, 2, "late-invoke");
        w.push(4_211, 3, "later-invoke");
        assert_eq!(w.next_time(), Some(4_211));
        assert_eq!(w.pop(), Some((4_211, 2, "late-invoke")));
        assert_eq!(w.pop(), Some((4_211, 3, "later-invoke")));
        assert_eq!(w.pop(), Some((5_400, 0, "timer")));
        assert_eq!(w.pop(), Some(((1 << 37) + 3, 1, "far")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_peeks_and_rewinds_match_binary_heap() {
        // Like the main oracle, but peeks fire before every push so clock
        // rewinds exercise constantly, and pushes are bounded below by the
        // last *popped* time rather than the peeked minimum.
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(0xD1CE ^ case);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut popped = 0u64;
            for _ in 0..1_500 {
                if heap.is_empty() || rng.chance(0.55) {
                    assert_eq!(wheel.next_time(), heap.peek().map(|&Reverse((t, _))| t));
                    let delta = match rng.range(0, 8) {
                        0 => 0,
                        1..=5 => rng.range(1, 64),
                        6 => rng.range(64, 10_000),
                        _ => rng.range(10_000, 1 << 38),
                    };
                    let at = popped + delta;
                    wheel.push(at, seq, ());
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let Reverse((at, s)) = heap.pop().unwrap();
                    assert_eq!(wheel.pop(), Some((at, s, ())), "case {case}");
                    popped = at;
                }
            }
            while let Some(Reverse((at, s))) = heap.pop() {
                assert_eq!(wheel.pop(), Some((at, s, ())), "case {case} drain");
            }
        }
    }

    /// The snapshot oracle: at a random instant mid-workload, `clone()`
    /// the wheel and check that the clone drains the exact remaining
    /// `(time, seq)` sequence the BinaryHeap oracle predicts — including
    /// entries sitting in the reversed drain buffer and the overflow
    /// bucket. This is the property `Simulation::checkpoint` leans on.
    #[test]
    fn clone_snapshot_drains_identically_to_binary_heap() {
        for case in 0..64u64 {
            let mut rng = SplitMix64::new(0x5AB1E ^ case);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut clock = 0u64;
            // Random mid-sized workload prefix, same shape as the main
            // conformance oracle (peeks included, so the drain buffer and
            // settled cascades are populated at snapshot time).
            let prefix = rng.range(50, 1_500);
            for _ in 0..prefix {
                if heap.is_empty() || rng.chance(0.6) {
                    for _ in 0..rng.range(1, 4) {
                        let delta = match rng.range(0, 9) {
                            0 => 0,
                            1..=6 => rng.range(1, 64),
                            7 => rng.range(64, 10_000),
                            _ => rng.range(10_000, 1 << 38),
                        };
                        let at = clock + delta;
                        wheel.push(at, seq, ());
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                } else {
                    let Reverse((at, s)) = heap.pop().unwrap();
                    if rng.chance(0.5) {
                        assert_eq!(wheel.next_time(), Some(at));
                    }
                    assert_eq!(wheel.pop(), Some((at, s, ())), "case {case}");
                    clock = at;
                }
            }
            // Snapshot, then drain snapshot and original independently:
            // both must match the oracle's remaining sequence exactly.
            let mut snap = wheel.clone();
            assert_eq!(snap.len(), wheel.len());
            let mut remaining: Vec<(u64, u64)> = Vec::with_capacity(heap.len());
            while let Some(Reverse(k)) = heap.pop() {
                remaining.push(k);
            }
            for &(at, s) in &remaining {
                assert_eq!(snap.pop(), Some((at, s, ())), "case {case} snapshot drain");
            }
            assert_eq!(snap.pop(), None, "case {case} snapshot residue");
            for &(at, s) in &remaining {
                assert_eq!(wheel.pop(), Some((at, s, ())), "case {case} original drain");
            }
            assert_eq!(wheel.pop(), None, "case {case} original residue");
        }
    }

    #[test]
    fn next_time_is_pure_with_respect_to_pop_order() {
        // Peeking cascades internally; interleaving peeks at every step
        // must not change what pops.
        let mut rng = SplitMix64::new(99);
        let mut a = TimingWheel::new();
        let mut b = TimingWheel::new();
        let mut pushes = Vec::new();
        let mut at = 0u64;
        for seq in 0..500u64 {
            at += rng.range(0, 2_000);
            pushes.push((at, seq));
        }
        // Shuffle: push order differs from time order.
        for i in (1..pushes.len()).rev() {
            let j = rng.range(0, i as u64) as usize;
            pushes.swap(i, j);
        }
        // Re-assign seqs in push order (monotone requirement is on time
        // vs pops, which holds: nothing pops until all pushes are done).
        for (seq, &(t, _)) in pushes.iter().enumerate() {
            a.push(t, seq as u64, ());
            b.push(t, seq as u64, ());
        }
        let mut out_a = Vec::new();
        while let Some(e) = a.pop() {
            out_a.push(e);
        }
        let mut out_b = Vec::new();
        loop {
            let peek = b.next_time();
            match b.pop() {
                Some(e) => {
                    assert_eq!(peek, Some(e.0));
                    out_b.push(e);
                }
                None => break,
            }
        }
        assert_eq!(out_a, out_b);
    }

    /// The oracle for slots of several chunks, which the workloads above
    /// (at most four entries a step) never build: bursts of 1 to 4 chunks'
    /// worth of entries at one tick — the tick being drained, a near one,
    /// one a few levels up, one in the overflow bucket — popped in runs
    /// that stop mid-chunk, with peeks in between, and with snapshots
    /// taken mid-drain that must drain exactly as the original goes on to.
    #[test]
    fn bursts_of_several_chunks_match_binary_heap() {
        for case in 0..24u64 {
            let mut rng = SplitMix64::new(0xB0257 ^ case);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut clock = 0u64;
            for _ in 0..60 {
                let delta = match rng.range(0, 5) {
                    0 => 0,
                    1 | 2 => rng.range(1, 63),
                    3 => rng.range(64, 1 << 20),
                    4 => rng.range(1 << 20, 1 << 35),
                    _ => rng.range(1 << 36, 1 << 40),
                };
                let at = clock + delta;
                for _ in 0..rng.range(1, 4 * CHUNK as u64) {
                    wheel.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                }
                assert_eq!(wheel.len(), heap.len());
                let run = rng.range(1, 3 * CHUNK as u64);
                for _ in 0..run {
                    let Some(Reverse((at, s))) = heap.pop() else { break };
                    if rng.chance(0.3) {
                        assert_eq!(wheel.next_time(), Some(at), "case {case}");
                    }
                    assert_eq!(wheel.pop(), Some((at, s, s)), "case {case}");
                    clock = at;
                }
                if rng.chance(0.25) {
                    let mut snap = wheel.clone();
                    assert_eq!(snap.len(), heap.len());
                    for Reverse((at, s)) in heap.clone().into_sorted_vec().into_iter().rev() {
                        assert_eq!(snap.pop(), Some((at, s, s)), "case {case} snapshot drain");
                    }
                    assert_eq!(snap.pop(), None, "case {case} snapshot residue");
                }
            }
            while let Some(Reverse((at, s))) = heap.pop() {
                assert_eq!(wheel.next_time(), Some(at), "case {case} drain");
                assert_eq!(wheel.pop(), Some((at, s, s)), "case {case} drain");
            }
            assert_eq!(wheel.pop(), None, "case {case}");
        }
    }

    #[test]
    fn slot_capacity_is_reused_across_ticks() {
        // After warmup, a steady push/pop rhythm must not grow memory:
        // the drain buffer and the slots trade chunks.
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let mut clock = 0u64;
        let mut warm = 0;
        for round in 0..10_000u64 {
            if round == 1_000 {
                warm = w.pool.allocated;
                assert!(warm > 0);
            }
            for k in 0..8 {
                w.push(clock + 1 + (k % 3), seq, round);
                seq += 1;
            }
            while let Some((at, _, _)) = w.pop() {
                clock = at;
                if w.len() <= 8 {
                    break;
                }
            }
        }
        while w.pop().is_some() {}
        assert!(w.is_empty());
        assert_eq!(w.pool.allocated, warm, "a steady rhythm allocates nothing after warm-up");

        // Memory follows the live entries, not the ticks they sat in: 64
        // bursts at 64 successive ticks, each drained before the next,
        // reuse one burst's worth of chunks (plus the one chunk each
        // drained level-0 slot keeps) instead of 64 bursts' worth.
        let burst = 64 * CHUNK as u64;
        let mut w = TimingWheel::new();
        for tick in 1..=64u64 {
            for k in 0..burst {
                w.push(tick, tick * burst + k, ());
            }
            for k in 0..burst {
                assert_eq!(w.pop(), Some((tick, tick * burst + k, ())));
            }
        }
        assert!(w.is_empty());
        let per_burst = (burst as usize).div_ceil(CHUNK);
        assert!(w.pool.allocated >= per_burst);
        assert!(
            w.pool.allocated <= per_burst + SLOTS + 1,
            "{} chunks allocated for 64 bursts of {per_burst} chunks each",
            w.pool.allocated
        );
    }
}
