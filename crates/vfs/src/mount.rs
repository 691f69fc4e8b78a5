//! Mount points: the global vfsmount table and PK's per-core caches.
//!
//! The central table and every per-core snapshot are the same thing: a
//! slice of mounts sorted longest mount point first. Resolution is one
//! pass over it — the first entry whose mount point is `/` or a prefix
//! of the path ending at a component boundary is the longest covering
//! mount — with no allocation and no hashing; only the hit is cloned.

use crate::config::VfsConfig;
use crate::stats::VfsStats;
use pk_percpu::{CoreId, PerCore};
use pk_sloppy::{DeallocError, RefCount};
use pk_sync::{rcu, SpinLock};
use std::sync::Arc;

/// A mounted file system object (`struct vfsmount`).
///
/// Path resolution takes and drops a reference on the vfsmount of every
/// path it walks — "Exim causes the kernel to access the vfsmount table
/// dozens of times for each message" (§5.2) — so both the table lock and
/// this refcount are Figure-1 bottlenecks.
#[derive(Debug)]
pub struct VfsMount {
    /// The mount point path prefix (e.g. `/` or `/var/spool`).
    pub mount_point: String,
    refcount: RefCount,
}

impl VfsMount {
    /// Creates a mount object with one (table) reference.
    pub fn new(mount_point: impl Into<String>, sloppy: bool, cores: usize) -> Arc<Self> {
        Self::with_refcount(mount_point, RefCount::new(sloppy, cores))
    }

    /// [`VfsMount::new`] with an explicit refcount backing — how the
    /// mount table selects the generation-2 SNZI tree when
    /// `VfsConfig::snzi_refs` is set.
    pub fn with_refcount(mount_point: impl Into<String>, refcount: RefCount) -> Arc<Self> {
        Arc::new(Self {
            mount_point: mount_point.into(),
            refcount,
        })
    }

    /// Takes a reference on behalf of `core`.
    pub fn get(&self, core: CoreId) -> Result<(), DeallocError> {
        self.refcount.get(core)
    }

    /// Drops a reference on behalf of `core`.
    pub fn put(&self, core: CoreId) {
        self.refcount.put(core);
    }

    /// Exact reference count (expensive when sloppy).
    pub fn references(&self) -> i64 {
        self.refcount.references()
    }

    /// Returns `(shared_ops, local_ops)` of the refcount.
    pub fn refcount_ops(&self) -> (u64, u64) {
        self.refcount.op_counts()
    }
}

/// The mounts of one table (central or a per-core snapshot), sorted by
/// [`rank`] descending: longest mount point first, `/` last.
type MountMap = Vec<Arc<VfsMount>>;

/// Sort key of a mount point: its length, except that `/` — which covers
/// every path, prefix or not — ranks below everything else.
fn rank(mount_point: &str) -> usize {
    if mount_point == "/" {
        0
    } else {
        mount_point.len()
    }
}

/// The mount table: a central table under a global spin lock, with
/// optional per-core caches in front of it (§4.5).
///
/// Stock: every resolution locks the central table. PK: "when the kernel
/// needs to look up the vfsmount for a path, it first looks in the
/// current core's table, then the central table. If the latter succeeds,
/// the result is added to the per-core table."
#[derive(Debug)]
pub struct MountTable {
    central: SpinLock<MountMap>,
    /// Per-core snapshots of the central table (`None` = invalidated).
    ///
    /// Each snapshot mirrors the *whole* central table, not individual
    /// lookups: longest-prefix resolution answered from a partial cache
    /// is unsound, because a cached shorter prefix (say `/`) would mask
    /// a longer central entry (`/mnt`) that was never pulled into this
    /// core's cache. A full snapshot gives exactly the central answer
    /// until the next mount/umount invalidates it.
    percore: PerCore<SpinLock<Option<MountMap>>>,
    config: VfsConfig,
    stats: Arc<VfsStats>,
}

impl MountTable {
    /// Creates a table with a root (`/`) mount pre-installed.
    pub fn new(config: VfsConfig, stats: Arc<VfsStats>) -> Self {
        let percore_class = pk_lockdep::register_class(
            "vfs.mount.percore_cache",
            "pk-vfs",
            pk_lockdep::LockKind::Spin,
        );
        let t = Self {
            central: SpinLock::new(Vec::new()),
            percore: PerCore::new_with(config.cores, |_| {
                let l = SpinLock::new(None);
                l.set_class(percore_class);
                l
            }),
            config,
            stats,
        };
        t.central.set_class(pk_lockdep::register_class(
            "vfs.mount.central_table",
            "pk-vfs",
            pk_lockdep::LockKind::Spin,
        ));
        t.mount("/");
        t
    }

    /// Installs a mount at `mount_point`, replacing any mount already
    /// there.
    ///
    /// Invalidates every per-core snapshot: the new entry may be a
    /// longer prefix than anything a snapshot holds, and a stale
    /// snapshot would keep resolving paths the new mount now covers.
    /// The retired snapshots go through the reclamation discipline.
    pub fn mount(&self, mount_point: &str) -> Arc<VfsMount> {
        let m = VfsMount::with_refcount(
            mount_point,
            pk_sloppy::RefCount::new_scaled(
                self.config.sloppy_vfsmount_refs,
                self.config.snzi_refs,
                self.config.cores,
                self.config.sockets,
            ),
        );
        {
            let mut central = self.central.lock();
            match central.iter_mut().find(|e| e.mount_point == mount_point) {
                Some(existing) => *existing = Arc::clone(&m),
                None => {
                    let at = central.partition_point(|e| rank(&e.mount_point) >= rank(mount_point));
                    central.insert(at, Arc::clone(&m));
                }
            }
        }
        let swept = self.sweep_percore_caches();
        if !swept.is_empty() {
            self.retire(swept);
        }
        m
    }

    /// Removes the mount at `mount_point` from the central table and
    /// invalidates all per-core snapshots, returning it if present.
    ///
    /// The table's reference to the mount (and every swept snapshot) is
    /// retired past a grace period, since a resolver may have copied the
    /// `Arc` out of a snapshot moments before the sweep: deferred
    /// through `call_rcu` by default, or via a blocking `synchronize()`
    /// when `deferred_reclamation` is off.
    pub fn umount(&self, mount_point: &str) -> Option<Arc<VfsMount>> {
        let removed = {
            let mut central = self.central.lock();
            let at = central.iter().position(|e| e.mount_point == mount_point);
            at.map(|at| central.remove(at))
        };
        if let Some(ref m) = removed {
            let swept = self.sweep_percore_caches();
            self.retire((Arc::clone(m), swept));
        }
        removed
    }

    /// Clears every per-core snapshot, returning the old contents so
    /// the caller can retire them past a grace period.
    fn sweep_percore_caches(&self) -> Vec<MountMap> {
        // Deliberate cross-core sweep: a mount-table mutation
        // invalidates every core's snapshot from whichever core runs it.
        let _migrate = pk_lockdep::MigrationScope::enter();
        self.percore
            .iter()
            .filter_map(|cache| cache.lock().take())
            .collect()
    }

    /// Retires `garbage` under the configured reclamation discipline:
    /// `call_rcu` when `deferred_reclamation` is on, else a blocking
    /// `synchronize()` followed by an immediate drop.
    fn retire<T: Send + 'static>(&self, garbage: T) {
        if self.config.deferred_reclamation {
            rcu::defer_drop(Box::new(garbage));
        } else {
            rcu::synchronize();
            drop(garbage);
        }
    }

    /// Resolves the vfsmount covering `path`: the longest mount-point
    /// prefix. Takes a reference on the returned mount.
    ///
    /// With `percore_mount_cache` the per-core snapshot answers without
    /// touching the central table's lock; an invalidated snapshot is
    /// refilled from the central table first (the only central access
    /// PK pays between mount-table mutations).
    pub fn resolve(&self, path: &str, core: CoreId) -> Option<Arc<VfsMount>> {
        if self.config.percore_mount_cache {
            let mut cache = self.percore.get(core).lock();
            let refilled = cache.is_none();
            if refilled {
                self.stats.mount_central_lookups.bump();
                pk_lockdep::check_percore_mutation("vfs.mount.percore_cache", core.index());
                // percore → central is the only nesting of these two
                // classes (mount/umount release the central lock before
                // sweeping), so the order is consistent.
                *cache = Some(self.central.lock().clone());
            }
            let snapshot = cache.as_ref().expect("snapshot just refilled");
            match Self::longest_prefix_in(snapshot, path).cloned() {
                Some(m) => {
                    drop(cache);
                    if m.get(core).is_ok() {
                        if !refilled {
                            self.stats.mount_percore_hits.bump();
                        }
                        return Some(m);
                    }
                    // Dead mount in a stale snapshot: fall through to
                    // the central table below.
                }
                // The snapshot mirrors the whole central table, so a
                // snapshot miss is a central miss.
                None => return None,
            }
        }
        self.stats.mount_central_lookups.bump();
        let m = {
            let central = self.central.lock();
            Arc::clone(Self::longest_prefix_in(&central, path)?)
        };
        m.get(core).ok()?;
        Some(m)
    }

    /// The RCU-walk mount probe: answers "is `path` covered by a mount?"
    /// from this core's snapshot **without taking any reference** — the
    /// vfsmount-refcount-free leg of the generation-2 path walk.
    ///
    /// Returns `None` when the snapshot is cold (or per-core caching is
    /// off): the caller must take the reference walk, which refills it.
    pub fn peek(&self, path: &str, core: CoreId) -> Option<bool> {
        if !self.config.percore_mount_cache {
            return None;
        }
        let cache = self.percore.get(core).lock();
        let snapshot = cache.as_ref()?;
        self.stats.mount_percore_hits.bump();
        Some(Self::longest_prefix_in(snapshot, path).is_some())
    }

    /// Finds the mount with the longest mount point covering `path` in
    /// `mounts` (sorted by [`rank`], so the first cover is the longest):
    /// `/` covers everything; any other mount point covers the paths it
    /// is a prefix of up to a component boundary, trailing slashes of
    /// the path aside.
    fn longest_prefix_in<'m>(mounts: &'m [Arc<VfsMount>], path: &str) -> Option<&'m Arc<VfsMount>> {
        let path = path.trim_end_matches('/');
        mounts.iter().find(|m| {
            let point = m.mount_point.as_str();
            point == "/"
                || (!point.is_empty()
                    && path.starts_with(point)
                    && matches!(path.as_bytes().get(point.len()), None | Some(b'/')))
        })
    }

    /// Returns the central-table lock statistics.
    pub fn central_lock_stats(&self) -> &pk_sync::LockStats {
        self.central.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The resolver this table had while mounts lived in a map, kept as
    /// the reference: probe with the trimmed path, then with the path
    /// cut at each `/` from the right, then with `/`.
    fn reference_longest_prefix(
        map: &HashMap<String, Arc<VfsMount>>,
        path: &str,
    ) -> Option<Arc<VfsMount>> {
        let mut candidate = path.trim_end_matches('/').to_string();
        loop {
            if candidate.is_empty() {
                candidate.push('/');
            }
            if let Some(m) = map.get(candidate.as_str()) {
                return Some(Arc::clone(m));
            }
            if candidate == "/" {
                return None;
            }
            match candidate.rfind('/') {
                Some(0) | None => candidate = "/".to_string(),
                Some(i) => candidate.truncate(i),
            }
        }
    }

    /// Nested, sibling, look-alike, slash-terminated, relative and empty.
    const POINTS: [&str; 11] = [
        "/",
        "/var",
        "/var/spool",
        "/var/spool/input",
        "/varx",
        "/var/",
        "/usr",
        "/a/b",
        "/é",
        "r",
        "",
    ];
    const PATHS: [&str; 22] = [
        "/",
        "",
        "//",
        "/var",
        "/var/",
        "/var//",
        "/varx",
        "/varx/y",
        "/va",
        "/var/spool/input/m1",
        "/var/spool/inputs",
        "/var//spool/input",
        "/var/spool//",
        "/usr/lib",
        "/usr//lib",
        "/a",
        "/a/b/c",
        "/é/x",
        "/éx",
        "rel/path",
        "r/x",
        "var",
    ];

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Mount(usize),
        Umount(usize),
        Resolve { path: usize, core: usize },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..POINTS.len()).prop_map(Op::Mount),
            (0..POINTS.len()).prop_map(Op::Umount),
            (0..PATHS.len(), 0..4usize).prop_map(|(path, core)| Op::Resolve { path, core }),
            (0..PATHS.len(), 0..4usize).prop_map(|(path, core)| Op::Resolve { path, core }),
        ]
    }

    fn same(a: &Option<Arc<VfsMount>>, b: &Option<Arc<VfsMount>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Per-core snapshots and the central table give the answer the
        /// map-probing resolver gave, whatever was mounted (twice),
        /// umounted and swept in between.
        #[test]
        fn slice_resolver_equals_the_map_resolver(ops in proptest::collection::vec(op(), 1..60)) {
            for percore in [true, false] {
                let t = table(percore);
                let root = t.resolve("/", CoreId(0)).unwrap();
                root.put(CoreId(0));
                let mut model = HashMap::from([("/".to_string(), root)]);
                for op in &ops {
                    match *op {
                        Op::Mount(p) => {
                            model.insert(POINTS[p].to_string(), t.mount(POINTS[p]));
                        }
                        Op::Umount(p) => {
                            prop_assert!(same(&t.umount(POINTS[p]), &model.remove(POINTS[p])));
                        }
                        Op::Resolve { path, core } => {
                            let (path, core) = (PATHS[path], CoreId(core));
                            let want = reference_longest_prefix(&model, path);
                            // A swept (or absent) snapshot declines; a
                            // warm one must already agree.
                            let cold = t.peek(path, core);
                            prop_assert!(cold.is_none() || cold == Some(want.is_some()));
                            let got = t.resolve(path, core);
                            prop_assert!(
                                same(&got, &want),
                                "{path:?}: got {:?}, want {:?}",
                                got.as_ref().map(|m| &m.mount_point),
                                want.as_ref().map(|m| &m.mount_point)
                            );
                            if let Some(m) = got {
                                m.put(core);
                            }
                            let warm = percore.then_some(want.is_some());
                            prop_assert_eq!(t.peek(path, core), warm);
                        }
                    }
                }
            }
        }
    }

    fn table(percore: bool) -> MountTable {
        let mut cfg = VfsConfig::pk(4);
        cfg.percore_mount_cache = percore;
        MountTable::new(cfg, Arc::new(VfsStats::new()))
    }

    #[test]
    fn root_mount_resolves_everything() {
        let t = table(false);
        let m = t.resolve("/some/deep/path", CoreId(0)).unwrap();
        assert_eq!(m.mount_point, "/");
        m.put(CoreId(0));
    }

    #[test]
    fn longest_prefix_wins() {
        let t = table(false);
        t.mount("/var");
        t.mount("/var/spool");
        assert_eq!(
            t.resolve("/var/spool/input/m1", CoreId(0))
                .unwrap()
                .mount_point,
            "/var/spool"
        );
        assert_eq!(
            t.resolve("/var/log/x", CoreId(0)).unwrap().mount_point,
            "/var"
        );
        assert_eq!(
            t.resolve("/etc/passwd", CoreId(0)).unwrap().mount_point,
            "/"
        );
    }

    #[test]
    fn percore_cache_avoids_central_lookups() {
        let stats = Arc::new(VfsStats::new());
        let mut cfg = VfsConfig::pk(4);
        cfg.percore_mount_cache = true;
        let t = MountTable::new(cfg, Arc::clone(&stats));
        t.mount("/data");
        for _ in 0..10 {
            let m = t.resolve("/data/file", CoreId(2)).unwrap();
            m.put(CoreId(2));
        }
        let central = stats
            .mount_central_lookups
            .load(std::sync::atomic::Ordering::Relaxed);
        let local = stats
            .mount_percore_hits
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(central, 1, "only the first lookup hits the central table");
        assert_eq!(local, 9);
    }

    #[test]
    fn stock_hits_central_every_time() {
        let stats = Arc::new(VfsStats::new());
        let mut cfg = VfsConfig::stock(4);
        cfg.cores = 4;
        let t = MountTable::new(cfg, Arc::clone(&stats));
        for _ in 0..10 {
            let m = t.resolve("/x", CoreId(1)).unwrap();
            m.put(CoreId(1));
        }
        assert_eq!(
            stats
                .mount_central_lookups
                .load(std::sync::atomic::Ordering::Relaxed),
            10
        );
    }

    #[test]
    fn umount_purges_percore_caches() {
        let t = table(true);
        t.mount("/mnt");
        let m = t.resolve("/mnt/a", CoreId(1)).unwrap();
        m.put(CoreId(1));
        assert!(t.umount("/mnt").is_some());
        let m2 = t.resolve("/mnt/a", CoreId(1)).unwrap();
        assert_eq!(m2.mount_point, "/", "falls back to root after umount");
    }

    #[test]
    fn references_track_resolutions() {
        let t = table(false);
        let m1 = t.resolve("/", CoreId(0)).unwrap();
        let m2 = t.resolve("/", CoreId(1)).unwrap();
        assert_eq!(m1.references(), 3); // table + two resolutions
        m1.put(CoreId(0));
        m2.put(CoreId(1));
    }
}
