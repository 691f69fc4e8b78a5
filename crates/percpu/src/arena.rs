//! A per-core arena: Linux's `alloc_percpu` for per-object counts.
//!
//! A per-core reference count needs one `{count, ops}` pair per core
//! per object. Giving each object its own cache-aligned line per core
//! ([`crate::PerCore`]) costs `cores × 128` bytes and an aligned
//! allocation per object, eight times what the pairs themselves take.
//! Linux's percpu allocator packs every CPU's share of many objects into
//! that CPU's own chunk instead, and this arena does the same: an object
//! gets a *lane*, one 16-byte [`CountSlot`] in each core's row of a
//! *group*.
//!
//! # Why dense rows do not share lines between cores
//!
//! A group is 64 lanes × `cores` rows, the rows one allocation. Row `c`
//! holds core `c`'s slots of all 64 lanes, 1 KB aligned to
//! [`crate::CACHE_LINE_BYTES`], so a line never straddles two rows. A
//! get or put on core `c` writes row `c` only; the other slots on its
//! line are other objects' shares *on the same core*, written by the
//! same core. So no line is written by two cores on the hot path, and
//! eight objects' counts share each line instead of one per line. The
//! cross-core traffic left is what `percpu_ref` has too: a settle reads
//! every core's row, and [`PerCoreLane`]'s drop clears its slot in
//! every row before the lane can be handed out again.
//!
//! # Allocation
//!
//! Lock-free. Each group keeps a 64-bit mask of its free lanes, claimed
//! by compare-and-swap and released by `fetch_or`. The arena keeps a
//! hint: the lowest group that may have a free lane. An allocation
//! starts there and moves the hint past each full group it finds. A
//! release that makes a full group non-full lowers the hint again. Groups
//! are created in index order, on demand, and the arena keeps every
//! group it made, so its footprint is its high-water mark of live lanes
//! rounded up to a group. A lane holds its group, so a count may outlive
//! the arena; a group is freed once the arena and its last lane are
//! gone.

use crate::registry::CoreId;
use std::fmt;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};

/// Lanes per group: one bit each in the group's free mask.
pub const ARENA_LANES: usize = 64;

/// Segments of the group table: segment `s` holds groups
/// `2^s - 1 ..= 2^(s+1) - 2`, so the table never moves a group and
/// 32 segments index more groups than memory holds.
const SEGMENTS: usize = 32;

/// One segment of the group table, each group made on first use.
type Segment = Box<[OnceLock<Arc<Group>>]>;

/// One lane's share on one core: a count and the operations that moved
/// it. Only the acting core writes either while the lane is held.
#[derive(Debug, Default)]
pub struct CountSlot {
    /// This core's share of the count.
    pub count: AtomicI64,
    /// Operations this core performed on the count.
    pub ops: AtomicU64,
}

/// One core's slots of every lane in a group.
#[repr(align(128))]
struct Row([CountSlot; ARENA_LANES]);

const _: () = assert!(
    ARENA_LANES == u64::BITS as usize,
    "one free-mask bit per lane"
);
const _: () = assert!(std::mem::align_of::<Row>() == crate::CACHE_LINE_BYTES);
const _: () = assert!(std::mem::size_of::<Row>() == ARENA_LANES * 16);

impl Row {
    fn new() -> Self {
        Self(std::array::from_fn(|_| CountSlot::default()))
    }
}

/// A group's rows and which of its lanes are free.
struct Group {
    /// One row per core.
    rows: Arc<[Row]>,
    /// Bit `l` set: lane `l` is free and all its slots are zero.
    free: AtomicU64,
    /// This group's place in the arena's table.
    index: usize,
    /// The arena's hint, so a release can lower it.
    hint: Arc<AtomicUsize>,
}

impl Group {
    /// Claims the lowest free lane.
    fn claim(&self) -> Option<usize> {
        let mut free = self.free.load(SeqCst);
        while free != 0 {
            match self
                .free
                .compare_exchange_weak(free, free & (free - 1), SeqCst, SeqCst)
            {
                Ok(_) => return Some(free.trailing_zeros() as usize),
                Err(now) => free = now,
            }
        }
        None
    }
}

/// Hands out lanes: one [`CountSlot`] per core per object, packed 64
/// objects to a row (see the [module docs](crate::arena)).
///
/// # Examples
///
/// ```
/// use pk_percpu::{CoreId, PerCoreArena};
/// use std::sync::atomic::Ordering;
///
/// let arena = PerCoreArena::new(4);
/// let a = arena.alloc();
/// let b = arena.alloc();
/// a.get(CoreId(1)).count.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(b.get(CoreId(1)).count.load(Ordering::Relaxed), 0);
/// assert_eq!(arena.bytes(), 4 * 64 * 16, "one group holds both");
/// ```
pub struct PerCoreArena {
    cores: usize,
    segments: [OnceLock<Segment>; SEGMENTS],
    /// No group below this one has a free lane (see the module docs).
    hint: Arc<AtomicUsize>,
    /// Groups made so far: always a prefix `0..groups` of the table.
    groups: AtomicUsize,
}

impl PerCoreArena {
    /// Creates an empty arena whose lanes have `cores` slots each.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "PerCoreArena requires at least one core");
        Self {
            cores,
            segments: std::array::from_fn(|_| OnceLock::new()),
            hint: Arc::new(AtomicUsize::new(0)),
            groups: AtomicUsize::new(0),
        }
    }

    /// Slots per lane.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Bytes of slots this arena has allocated: every group it made,
    /// free lanes included.
    pub fn bytes(&self) -> usize {
        self.groups.load(SeqCst) * self.cores * std::mem::size_of::<Row>()
    }

    /// Group `index`, made on first use.
    fn group(&self, index: usize) -> &Arc<Group> {
        let segment = (index + 1).ilog2() as usize;
        let slots = self.segments[segment]
            .get_or_init(|| (0..1usize << segment).map(|_| OnceLock::new()).collect());
        slots[index + 1 - (1 << segment)].get_or_init(|| {
            self.groups.fetch_add(1, SeqCst);
            Arc::new(Group {
                rows: (0..self.cores).map(|_| Row::new()).collect(),
                free: AtomicU64::new(u64::MAX),
                index,
                hint: Arc::clone(&self.hint),
            })
        })
    }

    /// Claims a lane whose slots are all zero.
    pub fn alloc(&self) -> PerCoreLane {
        let mut index = self.hint.load(SeqCst);
        loop {
            let group = self.group(index);
            if let Some(lane) = group.claim() {
                return PerCoreLane {
                    rows: Arc::clone(&group.rows),
                    group: Arc::clone(group),
                    lane,
                };
            }
            // Full: move the hint past it. A release that made it
            // non-full before the move would be skipped, so look again
            // after it (a release after that look lowers the hint
            // itself).
            if self
                .hint
                .compare_exchange(index, index + 1, SeqCst, SeqCst)
                .is_ok()
                && group.free.load(SeqCst) != 0
            {
                self.hint.fetch_min(index, SeqCst);
            }
            index += 1;
        }
    }
}

impl fmt::Debug for PerCoreArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerCoreArena")
            .field("cores", &self.cores)
            .field("groups", &self.groups.load(SeqCst))
            .finish()
    }
}

/// One object's lane: a [`CountSlot`] in each core's row of one group.
///
/// Reaching a core's slot is one load of the row pointer this handle
/// holds. Dropping the lane zeroes its slots and frees it for the next
/// [`PerCoreArena::alloc`].
pub struct PerCoreLane {
    rows: Arc<[Row]>,
    group: Arc<Group>,
    lane: usize,
}

impl PerCoreLane {
    /// The slot for `core`. Core ids past the slot count wrap around,
    /// as [`crate::PerCore::get`]'s do.
    #[inline]
    pub fn get(&self, core: CoreId) -> &CountSlot {
        &self.rows[core.index() % self.rows.len()].0[self.lane]
    }

    /// Every core's slot, in core-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &CountSlot> {
        self.rows.iter().map(move |row| &row.0[self.lane])
    }
}

impl Drop for PerCoreLane {
    fn drop(&mut self) {
        // Relaxed: the `fetch_or` below releases the zeroes to whichever
        // `claim` takes the lane next.
        for slot in self.iter() {
            slot.count.store(0, Relaxed);
            slot.ops.store(0, Relaxed);
        }
        let bit = 1u64 << self.lane;
        if self.group.free.fetch_or(bit, SeqCst) == 0 {
            // The group was full, so the hint may have passed it.
            self.group.hint.fetch_min(self.group.index, SeqCst);
        }
    }
}

impl fmt::Debug for PerCoreLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerCoreLane")
            .field("group", &self.group.index)
            .field("lane", &self.lane)
            .field("slots", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `(group, lane)` of a handle: what makes two slots the same.
    fn place(lane: &PerCoreLane) -> (usize, usize) {
        (lane.group.index, lane.lane)
    }

    #[test]
    fn live_lanes_never_share_a_slot() {
        let arena = PerCoreArena::new(3);
        let lanes: Vec<_> = (0..200).map(|_| arena.alloc()).collect();
        let places: HashSet<_> = lanes.iter().map(place).collect();
        assert_eq!(places.len(), 200);
        for (i, lane) in lanes.iter().enumerate() {
            for (core, slot) in lane.iter().enumerate() {
                slot.count.fetch_add((i * 10 + core) as i64, Relaxed);
            }
        }
        for (i, lane) in lanes.iter().enumerate() {
            for core in 0..3 {
                let want = (i * 10 + core) as i64;
                assert_eq!(lane.get(CoreId(core)).count.load(Relaxed), want);
            }
        }
        // 200 lanes fill three groups and part of a fourth.
        assert_eq!(arena.bytes(), 4 * 3 * ARENA_LANES * 16);
    }

    #[test]
    fn a_reused_lane_starts_at_zero() {
        let arena = PerCoreArena::new(4);
        let first = arena.alloc();
        let at = place(&first);
        for core in 0..4 {
            first.get(CoreId(core)).count.fetch_add(-7, Relaxed);
            first.get(CoreId(core)).ops.fetch_add(3, Relaxed);
        }
        drop(first);
        let again = arena.alloc();
        assert_eq!(place(&again), at, "the freed lane is the lowest free one");
        for slot in again.iter() {
            assert_eq!((slot.count.load(Relaxed), slot.ops.load(Relaxed)), (0, 0));
        }
    }

    #[test]
    fn rows_are_dense_and_line_aligned() {
        let arena = PerCoreArena::new(2);
        let a = arena.alloc();
        let b = arena.alloc();
        let addr = |l: &PerCoreLane, c| l.get(CoreId(c)) as *const CountSlot as usize;
        assert_eq!(
            addr(&b, 0) - addr(&a, 0),
            16,
            "neighbouring lanes are adjacent"
        );
        assert_eq!(
            addr(&a, 1) - addr(&a, 0),
            ARENA_LANES * 16,
            "a row per core"
        );
        assert_eq!(addr(&a, 0) % crate::CACHE_LINE_BYTES, 0);
        assert_eq!(addr(&a, 5), addr(&a, 1), "core ids wrap");
    }

    #[test]
    fn a_freed_lane_in_a_full_group_is_found_again() {
        let arena = PerCoreArena::new(1);
        let mut lanes: Vec<_> = (0..3 * ARENA_LANES).map(|_| arena.alloc()).collect();
        let freed = lanes.swap_remove(5);
        let at = place(&freed);
        drop(freed);
        assert_eq!(place(&arena.alloc()), at, "the hint fell back to group 0");
        let groups = arena.bytes();
        lanes.truncate(10);
        let refill: Vec<_> = (0..2 * ARENA_LANES).map(|_| arena.alloc()).collect();
        assert_eq!(
            arena.bytes(),
            groups,
            "freed lanes are reused before a new group"
        );
        drop(refill);
    }

    #[test]
    fn lanes_outlive_their_arena() {
        let lane = PerCoreArena::new(2).alloc();
        lane.get(CoreId(1)).count.fetch_add(4, Relaxed);
        assert_eq!(lane.iter().map(|s| s.count.load(Relaxed)).sum::<i64>(), 4);
    }

    #[test]
    fn threads_allocating_and_freeing_never_share_a_live_slot() {
        // One thread per core, each holding a window of lanes and marking
        // the slot of its own core in each: a lane handed to two holders
        // at once would show the other thread's mark.
        const CORES: usize = 4;
        let arena = PerCoreArena::new(CORES);
        std::thread::scope(|s| {
            for core in 0..CORES {
                let arena = &arena;
                s.spawn(move || {
                    let mut held = std::collections::VecDeque::new();
                    for i in 0..5_000i64 {
                        let lane = arena.alloc();
                        for slot in lane.iter() {
                            assert_eq!(slot.count.load(Relaxed), 0, "a lane in use was handed out");
                        }
                        lane.get(CoreId(core)).count.store(i + 1, Relaxed);
                        held.push_back((lane, i + 1));
                        if held.len() > 40 {
                            let (lane, mark) = held.pop_front().unwrap();
                            assert_eq!(lane.get(CoreId(core)).count.load(Relaxed), mark);
                        }
                    }
                });
            }
        });
        // Every lane came back: the arena's whole capacity can be
        // claimed again without a new group.
        let bytes = arena.bytes();
        let capacity = bytes / (CORES * 16);
        let all: Vec<_> = (0..capacity).map(|_| arena.alloc()).collect();
        assert_eq!(arena.bytes(), bytes, "a freed lane was lost");
        assert_eq!(
            all.iter().map(place).collect::<HashSet<_>>().len(),
            capacity
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = PerCoreArena::new(0);
    }
}
