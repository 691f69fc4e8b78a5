//! Scalable NonZero Indicator (SNZI): the flat two-level
//! [`SnziCounter`] and the topology-aware [`Snzi`] tree.
//!
//! The tree's operation tallies (`op_counts`) are plain fields of each
//! leaf, written under the leaf mutex an update already holds — an
//! update's only atomics are the surplus crossings themselves.

use crate::traits::Counter;
use pk_percpu::{CoreId, PerCore};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

/// Per-leaf state: an exact count plus a flag recording whether this leaf
/// currently contributes an "arrival" to the root.
#[derive(Debug, Default)]
struct Leaf {
    count: i64,
    arrived_at_root: bool,
}

/// A two-level Scalable NonZero Indicator (\[22\], compared with sloppy
/// counters in §4.3; Solaris incorporates SNZIs).
///
/// A SNZI answers *"is the count nonzero?"* with a read of a single root
/// word, while updates mostly touch per-core leaves: a leaf propagates to
/// the root only when its own count crosses zero. Exact [`Counter::value`]
/// reads must still visit every leaf.
///
/// # Contract
///
/// As in the SNZI paper, departs must be issued from the same leaf (core)
/// as the matching arrives, and a leaf's count must never go negative.
/// [`Counter::add`] panics if a depart would underflow its leaf.
#[derive(Debug)]
pub struct SnziCounter {
    root: AtomicI64,
    leaves: PerCore<Mutex<Leaf>>,
}

impl SnziCounter {
    /// Creates an indicator with one leaf per core.
    pub fn new(cores: usize) -> Self {
        Self {
            root: AtomicI64::new(0),
            leaves: PerCore::new_with(cores, |_| Mutex::new(Leaf::default())),
        }
    }

    /// Records `n` arrivals at `core`'s leaf.
    pub fn arrive(&self, core: CoreId, n: i64) {
        assert!(n >= 0, "arrive count must be non-negative");
        let mut leaf = self.leaves.get(core).lock().unwrap();
        leaf.count += n;
        if leaf.count > 0 && !leaf.arrived_at_root {
            // 0 → positive transition: this leaf now contributes to the
            // root indicator.
            self.root.fetch_add(1, Ordering::AcqRel);
            leaf.arrived_at_root = true;
        }
    }

    /// Records `n` departures from `core`'s leaf.
    ///
    /// # Panics
    ///
    /// Panics if the leaf holds fewer than `n` arrivals (contract
    /// violation: departs must match arrives on the same leaf).
    pub fn depart(&self, core: CoreId, n: i64) {
        assert!(n >= 0, "depart count must be non-negative");
        let mut leaf = self.leaves.get(core).lock().unwrap();
        assert!(
            leaf.count >= n,
            "SNZI contract violation: departing {n} from a leaf holding {}",
            leaf.count
        );
        leaf.count -= n;
        if leaf.count == 0 && leaf.arrived_at_root {
            self.root.fetch_sub(1, Ordering::AcqRel);
            leaf.arrived_at_root = false;
        }
    }

    /// The cheap indicator query: one shared read, no leaf traversal.
    pub fn query(&self) -> bool {
        self.root.load(Ordering::Acquire) > 0
    }
}

impl Counter for SnziCounter {
    fn add(&self, core: CoreId, delta: i64) {
        if delta >= 0 {
            self.arrive(core, delta);
        } else {
            self.depart(core, -delta);
        }
    }

    fn value(&self) -> i64 {
        self.leaves.fold(0, |a, l| a + l.lock().unwrap().count)
    }

    fn is_nonzero(&self) -> bool {
        self.query()
    }

    fn name(&self) -> &'static str {
        "snzi"
    }
}

/// One per-core leaf of the [`Snzi`] tree.
#[derive(Debug, Default)]
struct TreeLeaf {
    /// The leaf's share of the logical count. Unlike [`SnziCounter`]
    /// leaves this may go *negative*: a reference acquired on one core
    /// and released on another (cross-socket migration) departs from
    /// the releasing core's leaf.
    count: i64,
    /// Whether this leaf currently contributes one unit of surplus to
    /// its socket node.
    present: bool,
    /// Updates applied at this leaf. Like `central_ops`, a plain field:
    /// its writer already holds the leaf mutex.
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
/// that core's cache line; the socket node absorbs the zero-crossing
/// traffic of its own cores, and only socket-level crossings — rarer by
/// a factor of `cores_per_socket` — reach the root. At 64 sockets ×
/// 16 cores the root sees at most 64 writers instead of 1024.
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
    /// Number of sockets currently holding nonzero surplus.
    root: AtomicI64,
    /// Per-socket surplus: how many of the socket's leaves are nonzero.
    socket_surplus: Vec<AtomicI64>,
    cores_per_socket: usize,
    leaves: PerCore<Mutex<TreeLeaf>>,
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
            leaves: PerCore::new_with(cores, |_| Mutex::new(TreeLeaf::default())),
            central: AtomicI64::new(0),
        }
    }

    /// Number of per-core leaves.
    pub fn cores(&self) -> usize {
        self.leaves.cores()
    }

    /// Number of socket nodes.
    pub fn sockets(&self) -> usize {
        self.socket_surplus.len()
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
        let mut leaf = self.leaves.get(core).lock().unwrap();
        leaf.count += delta;
        leaf.local_ops += 1;
        let nonzero = leaf.count != 0;
        if nonzero && !leaf.present {
            leaf.present = true;
            leaf.central_ops += 1;
            let prev = self.socket_surplus[socket].fetch_add(1, Ordering::AcqRel);
            if prev == 0 {
                // Socket surplus crossed zero: propagate to the root.
                self.root.fetch_add(1, Ordering::AcqRel);
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

    /// Records `n` departures at `core`'s leaf. Unlike
    /// [`SnziCounter::depart`] the departing core need not match the
    /// arriving one: migrated departs drive the leaf negative and the
    /// leaf keeps carrying surplus until reconciled.
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
        self.central.load(Ordering::Acquire)
            + self.leaves.fold(0, |a, l| a + l.lock().unwrap().count)
    }

    /// Folds every leaf into the central count, clearing all surplus,
    /// and returns the exact value. After reconciliation `query`
    /// reflects the true count exactly (no migration residue). This is
    /// the deallocation-time step, cross-core by design.
    pub fn reconcile(&self) -> i64 {
        let _migrate = pk_lockdep::MigrationScope::enter();
        for core in 0..self.leaves.cores() {
            let socket = self.socket_of(core);
            let mut leaf = self.leaves.get(CoreId(core)).lock().unwrap();
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
    /// leaf updates. Both are tallied in the leaf, under the mutex the
    /// operation already holds, so they are exact for any thread-to-core
    /// mapping; this read locks each leaf in turn to sum them.
    pub fn op_counts(&self) -> (u64, u64) {
        self.leaves.fold((0, 0), |(central, local), l| {
            let leaf = l.lock().unwrap();
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

    fn is_nonzero(&self) -> bool {
        self.query()
    }

    fn name(&self) -> &'static str {
        "snzi.tree"
    }

    fn op_counts(&self) -> (u64, u64) {
        Snzi::op_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn indicator_tracks_zero_crossings() {
        let s = SnziCounter::new(4);
        assert!(!s.query());
        s.arrive(CoreId(0), 1);
        assert!(s.query());
        s.arrive(CoreId(1), 2);
        assert!(s.query());
        s.depart(CoreId(0), 1);
        assert!(s.query(), "core 1 still present");
        s.depart(CoreId(1), 2);
        assert!(!s.query());
    }

    #[test]
    fn root_counts_leaves_not_arrivals() {
        let s = SnziCounter::new(2);
        s.arrive(CoreId(0), 100);
        assert_eq!(s.root.load(Ordering::Relaxed), 1);
        s.arrive(CoreId(1), 1);
        assert_eq!(s.root.load(Ordering::Relaxed), 2);
        assert_eq!(s.value(), 101);
    }

    #[test]
    #[should_panic(expected = "contract violation")]
    fn cross_leaf_depart_panics() {
        let s = SnziCounter::new(2);
        s.arrive(CoreId(0), 1);
        s.depart(CoreId(1), 1);
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
        assert!(Counter::is_nonzero(&s));
        assert_eq!(Counter::name(&s), "snzi.tree");
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
    fn concurrent_sessions_leave_zero() {
        let s = Arc::new(SnziCounter::new(8));
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
