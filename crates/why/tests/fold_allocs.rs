//! Pins "the fold builds no trees" as allocation counts, not a memory.
//!
//! Alone in its binary: the counting allocator below is the process's
//! global allocator, and the one test owns the thread it counts on.

use pk_trace::{Event, EventKind};
use pk_why::{encode_exemplars, exemplars, fold};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting the calls that hand out memory while the calling
/// thread has `COUNTING` set.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// No destructor, so the allocator may read it at any point of a
    /// thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: Every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: The caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: As above, for `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: As above, for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: As above, for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const REQUESTS: u64 = 2_000;
const TRACKS: u64 = 4;
/// What `fold` may allocate per request: the record's wait list.
const FOLD_PER_REQUEST: usize = 1;
/// …and per call, whatever the stream's length: the record vector,
/// sized once from the `CtxEnd` count, the sort's scratch, the frame
/// stack, the accumulators, and one name per lock class. Measured: 13,
/// at 16 and at 40 events per request alike; a record vector grown by
/// doubling would add ≈ log₂ requests (11) more.
const FOLD_FIXED_MAX: usize = 20;
/// What `exemplars` may allocate: the ranking keys and the result.
const EXEMPLARS_MAX: usize = 3;

/// A well-formed stream grouped by track: per request an envelope, the
/// admission pair, then `stations` × (span holding one waited-for
/// lock), the lock class cycling through three — 16 events at three
/// stations. Envelope widths differ, so the ranking has no ties.
fn stream(stations: u64) -> Vec<Event> {
    let spin = pk_lockdep::LockKind::Spin;
    let ctx_class = pk_trace::REQUEST_CLASS.class_id();
    let admission = pk_trace::ADMISSION_CLASS.id().raw();
    let span = pk_trace::intern::intern_span("test.why.allocs.station");
    let locks = ["a", "b", "c"]
        .map(|l| pk_lockdep::register_class(&format!("test.why.allocs.{l}"), "pk-why", spin).raw());
    let mut events = Vec::new();
    for track in 0..TRACKS {
        let mut ts = 0;
        for ctx in (0..REQUESTS).filter(|r| r % TRACKS == track) {
            let mut emit = |ts, kind, class, arg| {
                events.push(Event {
                    ts,
                    arg,
                    class,
                    track: track as u32,
                    kind,
                })
            };
            emit(ts, EventKind::CtxBegin, ctx_class, ctx);
            emit(ts, EventKind::LockBegin, admission, 5);
            emit(ts, EventKind::LockEnd, admission, 0);
            for station in 0..stations {
                let lock = locks[station as usize % locks.len()];
                emit(ts, EventKind::SpanBegin, span, 0);
                emit(ts + 2, EventKind::LockBegin, lock, 2);
                ts += 10 + ctx;
                emit(ts, EventKind::LockEnd, lock, 0);
                emit(ts, EventKind::SpanEnd, span, 0);
            }
            emit(ts, EventKind::CtxEnd, ctx_class, ctx);
        }
    }
    events
}

#[test]
fn trees_are_built_only_for_the_exemplars_encoded() {
    let (short, long) = (stream(3), stream(9));
    assert_eq!(short.len() as u64, REQUESTS * 16);
    // One untimed fold resolves whatever the name tables set up lazily.
    assert_eq!(fold(&short).trees.len() as u64, REQUESTS);

    let (f, fold_short) = allocations(|| fold(&short));
    let (_, fold_long) = allocations(|| fold(&long));
    assert_eq!((f.trees.len() as u64, f.malformed), (REQUESTS, 0));
    let budget = REQUESTS as usize * FOLD_PER_REQUEST + FOLD_FIXED_MAX;
    assert!(fold_short <= budget, "fold allocated {fold_short} times");
    assert!(
        fold_long <= budget,
        "three times the events per request, and fold allocated {fold_long} times \
         where it had allocated {fold_short}"
    );

    let (top, ranking) = allocations(|| exemplars(&f.trees, 6, 42));
    assert_eq!(top.len(), 6);
    assert!(
        ranking <= EXEMPLARS_MAX,
        "exemplars allocated {ranking} times"
    );

    // Every request here has one shape, so one tree costs a fixed
    // number of allocations, its nodes and its kind name (measured: 22)
    // — more than the output buffer's doublings from empty to a few KB,
    // which is all that separates k trees' worth from an encoding of k
    // exemplars.
    let ((kids, _), per_tree) = allocations(|| (top[0].children(), top[0].kind_name()));
    assert_eq!(kids.len(), 4, "the admission pair and three stations");
    let grows = 12;
    assert!(per_tree > grows, "a tree costs {per_tree} allocations");
    let (_, none) = allocations(|| encode_exemplars(&[]));
    let (_, three) = allocations(|| encode_exemplars(&top[..3]));
    let (_, six) = allocations(|| encode_exemplars(&top));
    assert!(none <= 1, "an empty set encoded with {none} allocations");
    for (k, got) in [(3, three), (6, six), (3, six - three)] {
        let trees = k * per_tree;
        assert!(
            (trees..=trees + grows).contains(&got),
            "{k} exemplars' worth is {trees} allocations plus growth, counted {got}"
        );
    }
}
