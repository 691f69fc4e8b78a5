//! Property tests for deferred RCU reclamation (`call_rcu`) safety.
//!
//! The property under test: **no deferred drop runs while any reader
//! that could have observed the old pointer is inside a read-side
//! critical section** — including nested sections and logical readers
//! that migrate between cores across sections.
//!
//! Each generated script drives three dedicated reader threads (three
//! distinct cores in the registry) through enter/exit commands over a
//! channel, one command at a time, while the main thread plays the
//! writer: publishing replacement objects and retiring the old ones
//! through `defer_drop`. Every retired object carries a drop flag; the
//! interpreter's model tracks which readers were in-section at
//! retirement time and asserts, after every step, that none of their
//! protected objects has been freed. After the script, an
//! `rcu_barrier` must free everything — no leaks either.
//!
//! Tests prefixed `miri_smoke_` form the Miri subset CI runs under
//! `cargo miri test -- miri_smoke_` (kept single-threaded so the
//! interpreter stays fast under the interpreter-of-interpreters).

use pk_percpu::registry;
use pk_sync::rcu;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

/// A retired object that records when its deferred drop ran.
struct Tracked(Arc<AtomicBool>);

impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn freed(flag: &Arc<AtomicBool>) -> bool {
    flag.load(Ordering::SeqCst)
}

/// Retires a fresh tracked object, returning its drop flag.
fn retire() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    rcu::defer_drop(Box::new(Tracked(Arc::clone(&flag))));
    flag
}

/// Commands a reader thread executes; each is acknowledged before the
/// interpreter issues the next, so scripts interleave deterministically.
enum Cmd {
    /// Push one read guard (the outermost publishes the core's epoch).
    Enter,
    /// Pop one read guard.
    Exit,
    /// Drop all guards and exit the thread.
    Quit,
}

struct Reader {
    /// The registry slot the reader thread runs on.
    core: usize,
    tx: Sender<Cmd>,
    ack: std::sync::mpsc::Receiver<()>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Current nesting depth, mirrored by the interpreter's model.
    depth: usize,
}

impl Reader {
    fn spawn() -> Self {
        let (tx, rx) = channel::<Cmd>();
        let (ack_tx, ack) = channel::<()>();
        let (core_tx, core) = channel::<usize>();
        let handle = std::thread::spawn(move || {
            let _ = core_tx.send(registry::current_or_register().index());
            let mut guards = Vec::new();
            for cmd in rx {
                match cmd {
                    Cmd::Enter => guards.push(rcu::read_lock()),
                    Cmd::Exit => {
                        guards.pop();
                    }
                    Cmd::Quit => break,
                }
                if ack_tx.send(()).is_err() {
                    break;
                }
            }
        });
        Self {
            core: core.recv().expect("reader thread registered"),
            tx,
            ack,
            handle: Some(handle),
            depth: 0,
        }
    }

    fn run(&mut self, cmd: Cmd) {
        self.tx.send(cmd).expect("reader thread alive");
        self.ack.recv().expect("reader thread acked");
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Quit);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One step of a generated script. Reader indices simulate migration:
/// the same logical actor re-entering via a different index runs its
/// next section on a different core.
#[derive(Debug, Clone, Copy)]
enum Step {
    Enter(usize),
    Exit(usize),
    /// Publish a replacement and retire the old object via `defer_drop`
    /// (also drives the writer core's reclamation attempt).
    Update,
}

fn step_strategy(readers: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..readers).prop_map(Step::Enter),
        (0..readers).prop_map(Step::Exit),
        Just(Step::Update),
    ]
}

/// A retired object plus the readers whose sections could have
/// observed it (in-section at retirement time, so the old pointer was
/// still reachable when their outermost section began).
struct RetiredEntry {
    flag: Arc<AtomicBool>,
    held_by: Vec<usize>,
}

/// Runs one script and checks the safety property after every step.
fn run_script(steps: &[Step], reader_count: usize) {
    let mut readers: Vec<Reader> = (0..reader_count).map(|_| Reader::spawn()).collect();
    let mut retired: Vec<RetiredEntry> = Vec::new();
    let mut all_flags: Vec<Arc<AtomicBool>> = Vec::new();

    for &step in steps {
        match step {
            Step::Enter(r) => {
                readers[r].run(Cmd::Enter);
                readers[r].depth += 1;
            }
            Step::Exit(r) => {
                if readers[r].depth > 0 {
                    readers[r].run(Cmd::Exit);
                    readers[r].depth -= 1;
                    if readers[r].depth == 0 {
                        // Outermost exit: r no longer protects anything.
                        for e in &mut retired {
                            e.held_by.retain(|&h| h != r);
                        }
                    }
                }
            }
            Step::Update => {
                let held_by: Vec<usize> = readers
                    .iter()
                    .enumerate()
                    .filter(|(_, rd)| rd.depth > 0)
                    .map(|(i, _)| i)
                    .collect();
                let flag = retire();
                all_flags.push(Arc::clone(&flag));
                retired.push(RetiredEntry { flag, held_by });
            }
        }
        // The property: an object is never freed while a reader that
        // could have observed it is still inside its section. Nested
        // exits above must NOT have released protection (depth > 0
        // keeps the reader in every hold set).
        for e in &retired {
            if !e.held_by.is_empty() {
                assert!(
                    !freed(&e.flag),
                    "deferred drop ran while readers {:?} were still \
                     in read-side sections (step {step:?})",
                    e.held_by
                );
            }
        }
    }

    // Wind down: close every section, then a barrier must free
    // everything retired — no leaks.
    for r in &mut readers {
        while r.depth > 0 {
            r.run(Cmd::Exit);
            r.depth -= 1;
        }
    }
    rcu::rcu_barrier();
    for (i, flag) in all_flags.iter().enumerate() {
        assert!(freed(flag), "retired object {i} leaked past rcu_barrier");
    }
}

proptest! {
    /// The headline property over arbitrary scripts: three reader
    /// cores, nested sections, interleaved updates.
    #[test]
    fn no_deferred_drop_inside_observing_section(
        steps in proptest::collection::vec(step_strategy(3), 1..60),
    ) {
        run_script(&steps, 3);
    }
}

/// A logical reader that migrates: each of its sections runs on a
/// different core, with updates retiring objects between and during
/// the sections. Protection must follow the section, not the core.
#[test]
fn migrating_reader_is_protected_on_every_core() {
    let script = [
        Step::Enter(0),
        Step::Update, // held by core-0 section
        Step::Exit(0),
        Step::Enter(1), // "migrated" to core 1
        Step::Update,   // held by core-1 section
        Step::Enter(1), // nested on the new core
        Step::Update,
        Step::Exit(1), // nested exit: still protected
        Step::Update,
        Step::Exit(1),
        Step::Enter(2),
        Step::Update,
        Step::Exit(2),
    ];
    run_script(&script, 3);
}

/// Deep nesting on one core: only the outermost exit releases.
#[test]
fn nested_sections_release_only_at_outermost_exit() {
    let mut script = vec![Step::Enter(0); 8];
    script.push(Step::Update);
    script.extend([Step::Exit(0); 7]);
    script.push(Step::Update); // still nested once: must stay protected
    script.push(Step::Exit(0));
    run_script(&script, 1);
}

/// The grace scans stop at `registry::high_water()`. A reader on a slot
/// at or above the bound the writer's *previous* scan used — a thread
/// that registered after it — must still hold back the next
/// `synchronize()` and a `defer_drop` until it exits.
#[test]
fn reader_above_the_previous_scan_bound_holds_back_reclamation() {
    rcu::synchronize();
    let bound = registry::high_water();
    // Slots are handed out lowest free first: park readers on them until
    // one lands at or above the old bound.
    let mut parked = Vec::new();
    let mut late = loop {
        let reader = Reader::spawn();
        if reader.core >= bound {
            break reader;
        }
        parked.push(reader);
    };
    late.run(Cmd::Enter);
    let flag = retire();
    let synced = Arc::new(AtomicBool::new(false));
    let writer = {
        let synced = Arc::clone(&synced);
        std::thread::spawn(move || {
            rcu::synchronize();
            synced.store(true, Ordering::SeqCst);
        })
    };
    // Every retirement is also a reclamation attempt on this core.
    for _ in 0..64 {
        retire();
        std::thread::yield_now();
    }
    assert!(!freed(&flag), "freed under a reader the bound left out");
    assert!(
        !synced.load(Ordering::SeqCst),
        "grace period ended under a reader the bound left out"
    );
    late.run(Cmd::Exit);
    writer.join().unwrap();
    // The next retirement on this core reaps its queue. No `rcu_barrier`
    // here: it would steal other tests' entries from under their own
    // barriers (and one of theirs may hold `flag`'s entry for a moment).
    for _ in 0..10_000 {
        if freed(&flag) {
            break;
        }
        retire();
        std::thread::yield_now();
    }
    assert!(freed(&flag), "reclaimed after quiescence");
}

/// The read section's exit is a `Release` store, its entry a `SeqCst`
/// one (one fence per section). The property that pairing has to keep:
/// a blocking update never frees a snapshot a reader is still inside.
/// Three readers spin through `read_lock(); load; check; drop` while a
/// writer replaces the snapshot 20 000 times; each replaced snapshot is
/// poisoned by its `Drop` just before its memory is freed. A reader
/// that sees its snapshot's number change under it — to the poison, or
/// to a later generation's because the slot was reused — has caught a
/// reclaim that did not wait for it.
#[test]
fn blocking_updates_never_reclaim_under_a_live_reader() {
    const GENERATIONS: u64 = 20_000;
    const POISON: u64 = u64::MAX;
    struct Snapshot(std::sync::atomic::AtomicU64);
    impl Drop for Snapshot {
        fn drop(&mut self) {
            self.0.store(POISON, Ordering::SeqCst);
        }
    }
    let cell = rcu::RcuCell::new(Snapshot(0.into()));
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(4);
    let sections: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let (mut sections, mut newest) = (0u64, 0u64);
                    while !done.load(Ordering::Acquire) {
                        let guard = rcu::read_lock();
                        let snapshot = cell.read(&guard);
                        let first = snapshot.0.load(Ordering::SeqCst);
                        std::hint::spin_loop();
                        let again = snapshot.0.load(Ordering::SeqCst);
                        drop(guard);
                        assert_ne!(first, POISON, "loaded a freed snapshot");
                        assert_eq!(first, again, "snapshot reclaimed mid-section");
                        assert!(first >= newest, "snapshots went backwards");
                        newest = first;
                        sections += 1;
                    }
                    sections
                })
            })
            .collect();
        start.wait();
        for _ in 0..GENERATIONS {
            cell.publish(false, |old| {
                Snapshot((old.0.load(Ordering::SeqCst) + 1).into())
            });
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("a reader saw a reclaimed snapshot"))
            .sum()
    });
    let guard = rcu::read_lock();
    assert_eq!(cell.read(&guard).0.load(Ordering::SeqCst), GENERATIONS);
    assert!(sections > 0, "the readers never overlapped the writer");
}

/// `rcu_barrier()` covers a retirement that a *concurrent* barrier has
/// already stolen from the queues and not yet freed.
///
/// A reader parks in-section, this thread retires an object, and a
/// sibling enters `rcu_barrier()`: it steals the entry and parks in its
/// grace wait behind the reader. This thread's own barrier now finds the
/// queues empty — and must still not return before the drop has run.
/// (Before barriers were serialized it returned at once; the reader
/// leaves only well after seeing this thread head into its barrier, so
/// that early return lands while the entry is still held.)
#[test]
fn barrier_covers_entries_a_concurrent_barrier_stole() {
    let reader_in = AtomicBool::new(false);
    let sibling_in = AtomicBool::new(false);
    let main_entering = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let guard = rcu::read_lock();
            reader_in.store(true, Ordering::SeqCst);
            while !main_entering.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Leave only once this thread's barrier is well under way.
            for _ in 0..2_000 {
                std::thread::yield_now();
            }
            drop(guard);
        });
        while !reader_in.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let flag = retire();
        s.spawn(|| {
            sibling_in.store(true, Ordering::SeqCst);
            rcu::rcu_barrier();
        });
        while !sibling_in.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Let the sibling steal and reach its grace wait. (If a barrier
        // of another test in this binary stole the entry first, that one
        // is the concurrent thief; the property is the same.)
        for _ in 0..2_000 {
            std::thread::yield_now();
        }
        let freed_early = freed(&flag);
        main_entering.store(true, Ordering::SeqCst);
        rcu::rcu_barrier();
        assert!(!freed_early, "freed under a reader that predates it");
        assert!(
            freed(&flag),
            "rcu_barrier returned while an entry retired before it was still unfreed"
        );
    });
}

// ---------------------------------------------------------------------
// Miri smoke subset: single-threaded, no channels, fast under Miri.
// ---------------------------------------------------------------------

#[test]
fn miri_smoke_defer_drop_frees_after_barrier() {
    let flag = retire();
    rcu::rcu_barrier();
    assert!(freed(&flag));
}

#[test]
fn miri_smoke_own_section_defers_reclamation() {
    let guard = rcu::read_lock();
    let flag = retire(); // call_rcu inside a section: legal, deferred
    assert!(!freed(&flag), "freed inside the retiring reader's section");
    drop(guard);
    rcu::rcu_barrier();
    assert!(freed(&flag));
}

#[test]
fn miri_smoke_nested_sections_defer_until_outermost() {
    let outer = rcu::read_lock();
    let inner = rcu::read_lock();
    let flag = retire();
    drop(inner);
    assert!(!freed(&flag), "nested exit must not trigger reclamation");
    drop(outer);
    rcu::rcu_barrier();
    assert!(freed(&flag));
}

#[test]
fn miri_smoke_rcu_cell_deferred_publish() {
    let cell = rcu::RcuCell::new(7u64);
    cell.publish(true, |v| v + 1);
    let g = rcu::read_lock();
    assert_eq!(*cell.read(&g), 8);
    drop(g);
    rcu::rcu_barrier();
}
