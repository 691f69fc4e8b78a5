//! Scalable NonZero Indicator (SNZI): the topology-aware [`Snzi`] tree
//! (\[22\], compared with sloppy counters in §4.3; Solaris incorporates
//! SNZIs).
//!
//! The tree's operation tallies (`op_counts`) are plain fields of each
//! leaf, written under the leaf lock an update already holds — an
//! update's only atomics are the surplus crossings themselves.

use crate::traits::Counter;
use pk_percpu::{CoreId, PerCore};
use pk_sync::SpinLock;
use std::sync::atomic::{AtomicI64, Ordering};

/// The [`pk_lockdep::probe`] site between a leaf 0→1 crossing's socket
/// update and its root correction.
#[cfg(test)]
const ROOT_SITE: &str = "core.snzi.root";

/// Lock class of every tree's leaves, registered by the first tree.
static LEAF_CLASS: pk_lockdep::LazyClass =
    pk_lockdep::LazyClass::new("core.snzi.leaf", "pk-sloppy", pk_lockdep::LockKind::Spin);

/// One per-core leaf of the [`Snzi`] tree.
#[derive(Debug, Default)]
struct Leaf {
    /// The leaf's share of the logical count. It may go *negative*: a
    /// reference acquired on one core and released on another
    /// (cross-socket migration) departs from the releasing core's leaf.
    count: i64,
    /// Whether this leaf currently contributes one unit of surplus to
    /// its socket node.
    present: bool,
    /// Updates applied at this leaf. Like `central_ops`, a plain field:
    /// its writer already holds the leaf lock.
    local_ops: u64,
    /// Of those, the ones that went on to write a shared line (a surplus
    /// crossing at the socket node, or a reconciliation fold).
    central_ops: u64,
}

/// A three-level Scalable NonZero Indicator shaped like the machine:
/// per-core leaves, one intermediate node per socket, one root.
///
/// This is the generation-2 (§7) replacement for sloppy counters on
/// structures whose flat per-core banks saturate past 48 cores. The
/// protocol is the SNZI **surplus propagation** rule applied twice:
///
/// * a leaf whose count crosses between zero and nonzero adds/removes
///   one unit of *surplus* at its socket node;
/// * a socket node whose surplus crosses between zero and nonzero
///   adds/removes one unit at the root.
///
/// Steady-state arrives/departs on an already-nonzero leaf touch only
/// that core's cache line. A leaf's 1→0 crossing writes its socket
/// node, and the root only when the socket's surplus reaches zero. A
/// leaf's 0→1 crossing, though, writes the root once (twice when the
/// socket was already live): the root-first order `update` needs so
/// that an arrive never reads zero. A refcount get on an idle leaf is
/// such a crossing, so every core writes the one root line; what that
/// costs under cross-socket contention is unmeasured.
///
/// # Indicator contract
///
/// [`Snzi::query`] is one root read (plus one central read). Once an
/// `arrive` has returned and no matching `depart` has completed,
/// `query` returns `true`: nonzero-detection is never lost. Under
/// cross-socket migration the indicator may *conservatively* report
/// nonzero for a logically zero count (a `+1` leaf on one socket and a
/// `-1` leaf on another both carry surplus) until [`Snzi::reconcile`]
/// folds the leaves together — the same "exact reads cost more"
/// trade-off as sloppy counters, and safe for reference counts (an
/// object is never freed early, only later).
#[derive(Debug)]
pub struct Snzi {
    /// At least the number of sockets holding nonzero surplus (exactly
    /// that when no update is mid-crossing; see `update`).
    root: AtomicI64,
    /// Per-socket surplus: how many of the socket's leaves are nonzero.
    socket_surplus: Vec<AtomicI64>,
    cores_per_socket: usize,
    leaves: PerCore<SpinLock<Leaf>>,
    /// Exact count absorbed by reconciliation; always part of the
    /// logical value.
    central: AtomicI64,
}

impl Snzi {
    /// Creates a tree with one leaf per core and one intermediate node
    /// per socket.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `sockets == 0`.
    pub fn new(cores: usize, sockets: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(sockets > 0, "need at least one socket");
        Self {
            root: AtomicI64::new(0),
            socket_surplus: (0..sockets).map(|_| AtomicI64::new(0)).collect(),
            cores_per_socket: cores.div_ceil(sockets).max(1),
            leaves: PerCore::new_with(cores, |_| {
                let leaf = SpinLock::default();
                leaf.set_class(LEAF_CLASS.id());
                leaf
            }),
            central: AtomicI64::new(0),
        }
    }

    /// Maps a core to its socket node.
    pub fn socket_of(&self, core: usize) -> usize {
        (core / self.cores_per_socket).min(self.socket_surplus.len() - 1)
    }

    /// Applies `delta` at `core`'s leaf, propagating surplus crossings
    /// up the tree. The single mutation path behind `arrive`/`depart`.
    fn update(&self, core: CoreId, delta: i64) {
        if delta == 0 {
            return;
        }
        pk_lockdep::check_percore_mutation("snzi.leaf", core.index());
        let socket = self.socket_of(core.index());
        let mut leaf = self.leaves.get(core).lock();
        leaf.count += delta;
        leaf.local_ops += 1;
        let nonzero = leaf.count != 0;
        if nonzero && !leaf.present {
            leaf.present = true;
            leaf.central_ops += 1;
            // Root first, so that `root >= #sockets with surplus > 0` at
            // every instant: each socket's 0→1 transition lands its `+1`
            // on the root before it, every other arrival takes its `+1`
            // back, and each 1→0 transition's `-1`, however delayed,
            // matches an earlier 0→1's `+1`. An arrive that has returned
            // therefore reads nonzero at the root, whoever else is
            // mid-crossing on its socket.
            self.root.fetch_add(1, Ordering::AcqRel);
            let prev = self.socket_surplus[socket].fetch_add(1, Ordering::AcqRel);
            #[cfg(test)]
            pk_lockdep::probe::hit(ROOT_SITE);
            if prev != 0 {
                // The socket was already live: its unit is on the root.
                self.root.fetch_sub(1, Ordering::AcqRel);
            }
        } else if !nonzero && leaf.present {
            leaf.present = false;
            leaf.central_ops += 1;
            let prev = self.socket_surplus[socket].fetch_sub(1, Ordering::AcqRel);
            if prev == 1 {
                self.root.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Records `n` arrivals at `core`'s leaf.
    ///
    /// # Panics
    ///
    /// Panics if `n < 0`.
    pub fn arrive(&self, core: CoreId, n: i64) {
        assert!(n >= 0, "arrive count must be non-negative");
        self.update(core, n);
    }

    /// Records `n` departures at `core`'s leaf. The departing core need
    /// not match the arriving one: migrated departs drive the leaf
    /// negative and the leaf keeps carrying surplus until reconciled.
    ///
    /// # Panics
    ///
    /// Panics if `n < 0`.
    pub fn depart(&self, core: CoreId, n: i64) {
        assert!(n >= 0, "depart count must be non-negative");
        self.update(core, -n);
    }

    /// The cheap indicator query: a root read plus a central read, no
    /// leaf traversal.
    pub fn query(&self) -> bool {
        self.root.load(Ordering::Acquire) > 0 || self.central.load(Ordering::Acquire) != 0
    }

    /// The exact logical value: central plus every leaf. Expensive by
    /// design — it locks each leaf in turn.
    pub fn value(&self) -> i64 {
        self.central.load(Ordering::Acquire) + self.leaves.fold(0, |a, l| a + l.lock().count)
    }

    /// Folds every leaf into the central count, clearing all surplus,
    /// and returns the exact value. After reconciliation `query`
    /// reflects the true count exactly (no migration residue). This is
    /// the deallocation-time step, cross-core by design.
    pub fn reconcile(&self) -> i64 {
        let _migrate = pk_lockdep::MigrationScope::enter();
        for core in 0..self.leaves.cores() {
            let socket = self.socket_of(core);
            let mut leaf = self.leaves.get(CoreId(core)).lock();
            if leaf.count != 0 {
                self.central.fetch_add(leaf.count, Ordering::AcqRel);
                leaf.central_ops += 1;
                leaf.count = 0;
            }
            if leaf.present {
                leaf.present = false;
                let prev = self.socket_surplus[socket].fetch_sub(1, Ordering::AcqRel);
                if prev == 1 {
                    self.root.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        self.central.load(Ordering::Acquire)
    }

    /// Returns `(central_ops, local_ops)`: operations that touched a
    /// shared line (socket/root propagation, reconciliation) versus
    /// leaf updates. Both are tallied in the leaf, under the lock the
    /// operation already holds, so they are exact for any thread-to-core
    /// mapping; this read locks each leaf in turn to sum them.
    pub fn op_counts(&self) -> (u64, u64) {
        self.leaves.fold((0, 0), |(central, local), l| {
            let leaf = l.lock();
            (central + leaf.central_ops, local + leaf.local_ops)
        })
    }
}

impl Counter for Snzi {
    fn add(&self, core: CoreId, delta: i64) {
        self.update(core, delta);
    }

    fn value(&self) -> i64 {
        Snzi::value(self)
    }

    fn op_counts(&self) -> (u64, u64) {
        Snzi::op_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_lockdep::probe;
    use std::sync::Arc;

    #[test]
    fn an_arrive_during_its_sockets_first_crossing_reads_nonzero() {
        // Core 0 moves socket 0's surplus 0 → 1; before its root update
        // lands, core 1 (same socket) arrives, sees the socket already
        // live, and asks the indicator.
        let s = Arc::new(Snzi::new(8, 2));
        let s1 = Arc::clone(&s);
        let racer = move || {
            s1.arrive(CoreId(1), 1);
            assert!(s1.query(), "core 1 has arrived, so the count is nonzero");
        };
        probe::with(ROOT_SITE, probe::once(racer), || s.arrive(CoreId(0), 1));
        assert_eq!(s.root.load(Ordering::Relaxed), 1, "one live socket");
        s.depart(CoreId(0), 1);
        s.depart(CoreId(1), 1);
        assert!(!s.query());
        assert_eq!(s.root.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tree_surplus_propagates_per_socket() {
        // 8 cores, 2 sockets: cores 0..4 on socket 0, 4..8 on socket 1.
        let s = Snzi::new(8, 2);
        assert_eq!(s.socket_of(0), 0);
        assert_eq!(s.socket_of(3), 0);
        assert_eq!(s.socket_of(4), 1);
        assert_eq!(s.socket_of(7), 1);
        s.arrive(CoreId(0), 1);
        s.arrive(CoreId(1), 1);
        // Two nonzero leaves on one socket: surplus 2 there, root 1.
        assert_eq!(s.socket_surplus[0].load(Ordering::Relaxed), 2);
        assert_eq!(s.root.load(Ordering::Relaxed), 1);
        s.arrive(CoreId(5), 1);
        assert_eq!(s.root.load(Ordering::Relaxed), 2);
        assert!(s.query());
        s.depart(CoreId(0), 1);
        s.depart(CoreId(1), 1);
        assert_eq!(s.root.load(Ordering::Relaxed), 1, "socket 1 still live");
        s.depart(CoreId(5), 1);
        assert!(!s.query());
        assert_eq!(s.value(), 0);
    }

    #[test]
    fn tree_steady_state_is_leaf_local() {
        let s = Snzi::new(8, 2);
        s.arrive(CoreId(3), 1); // pin the leaf nonzero
        let (central_before, _) = s.op_counts();
        for _ in 0..1_000 {
            s.arrive(CoreId(3), 1);
            s.depart(CoreId(3), 1);
        }
        let (central_after, local) = s.op_counts();
        assert_eq!(
            central_after, central_before,
            "ops on a nonzero leaf must never leave the leaf"
        );
        assert!(local >= 2_000);
    }

    #[test]
    fn tree_migration_is_conservative_until_reconciled() {
        let s = Snzi::new(8, 2);
        s.arrive(CoreId(0), 1); // socket 0
        s.depart(CoreId(6), 1); // socket 1: leaf goes to -1
        assert_eq!(s.value(), 0, "exact value sees through migration");
        assert!(
            s.query(),
            "indicator is conservatively nonzero while residue is split"
        );
        assert_eq!(s.reconcile(), 0);
        assert!(!s.query(), "reconcile clears migration residue");
        assert_eq!(s.root.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tree_counter_trait_roundtrip() {
        let s = Snzi::new(4, 2);
        Counter::add(&s, CoreId(0), 5);
        Counter::add(&s, CoreId(3), -2);
        assert_eq!(Counter::value(&s), 3);
        assert!(s.query());
        Counter::add(&s, CoreId(0), -3);
        assert_eq!(Counter::value(&s), 0);
    }

    #[test]
    fn tree_concurrent_sessions_leave_zero() {
        let s = Arc::new(Snzi::new(8, 4));
        let handles: Vec<_> = (0..8)
            .map(|core| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        s.arrive(CoreId(core), 1);
                        assert!(s.query());
                        s.depart(CoreId(core), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(!s.query());
        assert_eq!(s.value(), 0);
        for sock in &s.socket_surplus {
            assert_eq!(sock.load(Ordering::Relaxed), 0, "no stranded surplus");
        }
    }

    #[test]
    fn tree_uneven_socket_division_maps_every_core() {
        // 10 cores over 4 sockets: div_ceil gives 3 per socket, last
        // socket takes the remainder — every core must map in range.
        let s = Snzi::new(10, 4);
        for core in 0..10 {
            assert!(s.socket_of(core) < 4);
        }
        for core in 0..10 {
            s.arrive(CoreId(core), 1);
        }
        assert_eq!(s.value(), 10);
        for core in 0..10 {
            s.depart(CoreId(core), 1);
        }
        assert!(!s.query());
    }

    #[test]
    fn tree_op_counts_are_exact_with_real_threads() {
        // The op tallies are plain fields of the leaf, written under the
        // leaf mutex `update` already holds: every call is counted.
        const PAIRS: u64 = 100_000;
        let s = Snzi::new(4, 2);
        std::thread::scope(|sc| {
            for core in 0..4 {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..PAIRS {
                        s.arrive(CoreId(core), 1);
                        s.depart(CoreId(core), 1);
                    }
                });
            }
        });
        let (central, local) = s.op_counts();
        assert_eq!(local, 4 * 2 * PAIRS, "every update is a leaf op");
        // Each pair crosses zero twice on an otherwise empty leaf.
        assert_eq!(central, 4 * 2 * PAIRS);
        assert!(!s.query(), "quiescent tree reads zero");
        assert_eq!(s.value(), 0);
    }

    #[test]
    fn tree_op_counts_survive_threads_sharing_a_leaf() {
        // Unlike the sloppy counter's slot tally, a leaf's tallies sit
        // under its mutex, so even two threads on one core lose nothing.
        const PAIRS: u64 = 50_000;
        let s = Snzi::new(2, 1);
        std::thread::scope(|sc| {
            for _ in 0..2 {
                sc.spawn(|| {
                    for _ in 0..PAIRS {
                        s.arrive(CoreId(0), 1);
                        s.depart(CoreId(0), 1);
                    }
                });
            }
        });
        assert_eq!(s.op_counts().1, 2 * 2 * PAIRS);
        assert!(!s.query());
    }
}
