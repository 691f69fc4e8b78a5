//! Pins "a warm path walk allocates nothing" as a count, not a memory.
//!
//! Alone in its binary: the counting allocator below is the process's
//! global allocator, and the one test owns the thread it counts on.

use pk_percpu::CoreId;
use pk_vfs::{PathWalker, Vfs, VfsConfig};
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
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const CORES: usize = 4;
const FILE: &str = "/a/b/c/d/f";
/// What one `create` + `close` + `unlink` may allocate: the inode, its
/// directory entry and table slot, the dentry with its key and (PK)
/// per-core refcount banks, the open file and its list node, two
/// republished dcache buckets and their deferred-free queue entries.
/// Measured: 12 (stock), 14 (PK); the slack is for a table that grows.
const CREATE_CLOSE_UNLINK_MAX: usize = 16;

#[test]
fn warm_walks_allocate_nothing() {
    for (name, cfg) in [
        ("stock", VfsConfig::stock(CORES)),
        ("pk", VfsConfig::pk(CORES)),
    ] {
        let vfs = Vfs::new(cfg);
        vfs.mkdir_p("/a/b/c/d", CoreId(0)).unwrap();
        vfs.write_file(FILE, b"x", CoreId(0)).unwrap();
        let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
        // Warm every core's mount snapshot, the dcache, this thread's
        // registry slot, and whatever a first create grows for good
        // (hash tables, deferred-free queues).
        for core in (0..CORES).map(CoreId) {
            walker.resolve(FILE, core).unwrap();
            let f = vfs.create("/a/b/c/d/tmp", core).unwrap();
            vfs.close(&f, core);
            vfs.unlink("/a/b/c/d/tmp", core).unwrap();
        }
        for core in (0..CORES).map(CoreId) {
            let walks = allocations(|| {
                walker.resolve(FILE, core).unwrap();
                walker.resolve_ref(FILE, core).unwrap();
                assert_eq!(walker.resolve_parent(FILE, core).unwrap().name, "f");
                assert_eq!(vfs.stat(FILE, core).unwrap().size, 1);
                vfs.mounts().resolve(FILE, core).unwrap().put(core);
            });
            assert_eq!(walks, 0, "{name}: warm walks on {core} allocated");
            let churn = allocations(|| {
                let f = vfs.create("/a/b/c/d/tmp", core).unwrap();
                vfs.close(&f, core);
                vfs.unlink("/a/b/c/d/tmp", core).unwrap();
            });
            assert!(
                churn <= CREATE_CLOSE_UNLINK_MAX,
                "{name}: create + close + unlink allocated {churn} times"
            );
        }
    }
}
