//! Path resolution (`namei`): walking components through the dcache and
//! the mount table.
//!
//! A warm walk allocates nothing and hashes each component once: the
//! path is validated up front (absolute, no `..`) and then split lazily,
//! each component becomes a borrowed [`DentryProbe`] whose hash serves
//! the bucket lookup, the comparison and — on a miss — the inserted key,
//! and [`ParentAndLeaf`] borrows the leaf name from the path.
//!
//! Two walks share that shape. The RCU walk ([`PathWalker::resolve_rcu`])
//! carries inode *numbers* from probe to probe and fetches exactly one
//! inode from the table — the one it returns; it takes no reference and
//! no shared lock on any component. The reference walk
//! ([`PathWalker::resolve_ref`]) fetches an inode and takes and drops a
//! dentry reference per component, and is what every fallback and every
//! definitive per-component error (`NotADirectory`, `NotFound`) comes
//! from.

use crate::dcache::Dcache;
use crate::dentry::DentryProbe;
use crate::inode::{Inode, InodeKind};
use crate::mount::MountTable;
use crate::tmpfs::Tmpfs;
use crate::VfsError;
use pk_percpu::CoreId;
use std::sync::Arc;

/// Walks path names the way the kernel's `link_path_walk` does: one
/// vfsmount resolution per walk, then a dcache lookup per component —
/// taking and dropping a dentry reference each step.
///
/// This is the hot path of Exim and Apache: "file name resolution
/// contends on directory entry reference counts" and "walking file name
/// paths contends on mount point reference counts" (Figure 1).
#[derive(Debug)]
pub struct PathWalker<'a> {
    fs: &'a Tmpfs,
    dcache: &'a Dcache,
    mounts: &'a MountTable,
}

/// The result of resolving the parent of a path: the parent directory
/// inode plus the final component name, borrowed from the path.
#[derive(Debug)]
pub struct ParentAndLeaf<'p> {
    /// The parent directory.
    pub parent: Arc<Inode>,
    /// The final path component.
    pub name: &'p str,
}

impl<'a> PathWalker<'a> {
    /// Creates a walker over the given structures.
    pub fn new(fs: &'a Tmpfs, dcache: &'a Dcache, mounts: &'a MountTable) -> Self {
        Self { fs, dcache, mounts }
    }

    /// Splits a path into normalized components, lazily.
    ///
    /// Only absolute paths are supported (the userspace kernel has no
    /// per-process CWD); `.` components are dropped and `..` is rejected
    /// — both checked here, before the first component is yielded, so a
    /// malformed path fails before any of it is walked.
    pub fn components(path: &str) -> Result<impl Iterator<Item = &str>, VfsError> {
        if !path.starts_with('/') || path.split('/').any(|c| c == "..") {
            return Err(VfsError::InvalidArgument);
        }
        Ok(path.split('/').filter(|c| !matches!(*c, "" | ".")))
    }

    /// Resolves one component under `dir`, going through the dcache and
    /// demand-populating it from the backing file system on a miss.
    pub fn walk_component(
        &self,
        dir: &Inode,
        name: &str,
        core: CoreId,
    ) -> Result<Arc<Inode>, VfsError> {
        let probe = DentryProbe::new(dir.id, name);
        if let Some(dentry) = self.dcache.lookup(probe, core) {
            let ino = dentry.inode();
            // The walk holds the reference only while reading the target;
            // release it as `path_put` would.
            dentry.put(core);
            return self.fs.get(ino);
        }
        // Miss: consult the file system and populate the cache.
        let child = self.fs.lookup_child(dir, name)?;
        match self.dcache.insert(probe.to_key(), child.id, core) {
            Ok(dentry) => dentry.put(core),
            // Dentry allocation failed: degrade to uncached resolution.
            // The walk still succeeds — the next lookup just misses again
            // instead of the whole path walk failing with ENOMEM.
            Err(VfsError::OutOfMemory) => {}
            Err(e) => return Err(e),
        }
        Ok(child)
    }

    /// Resolves `path` to an inode.
    ///
    /// With [`crate::config::VfsConfig::rcu_path_walk`] enabled, first
    /// attempts the whole-path RCU walk ([`PathWalker::resolve_rcu`]):
    /// every component resolved under seqcount validation with **no
    /// refcount op and no lock on any component** (one inode-table
    /// fetch at the end, for the result) — the generation-2 fix for the
    /// per-component get/put that still saturates dentry and vfsmount
    /// refcounts past 48 cores. Any torn seqcount, cold cache entry,
    /// cold mount snapshot or non-directory intermediate drops the
    /// whole walk to the reference walk below.
    ///
    /// Otherwise (or on fallback): the reference walk — the mount table
    /// once and the dcache once per component, taking and dropping a
    /// reference each step.
    pub fn resolve(&self, path: &str, core: CoreId) -> Result<Arc<Inode>, VfsError> {
        if self.dcache.rcu_walk_enabled() {
            match self.resolve_rcu(path, core) {
                Some(result) => {
                    self.dcache.stats().rcu_walks.bump();
                    return result;
                }
                None => {
                    self.dcache.stats().rcu_walk_fallbacks.bump();
                    // Tag the fallback with the request that paid for it:
                    // the span tree then shows *whose* tail absorbed the
                    // reference walk, not just that one happened.
                    pk_trace::trace_instant!("vfs.rcu_walk_fallback", pk_trace::current_request());
                }
            }
        }
        self.resolve_ref(path, core)
    }

    /// The RCU-walk leg of [`PathWalker::resolve`]: resolves the whole
    /// path lock-free, or returns `None` when the walk cannot complete
    /// without references (the documented fallback).
    ///
    /// The walk carries inode *numbers*: the per-core mount snapshot,
    /// then one seqcount-validated dcache probe per component keyed by
    /// the parent's number, and a single [`Tmpfs::get`] — the walk's only
    /// lock and only shared write — for the inode it finally returns.
    ///
    /// A `Some(Err(..))` is *definitive* — it reflects stable state
    /// (bad path shape, no covering mount) — while `None` covers every
    /// reason to ask the reference walk instead: a component whose
    /// seqcount tore mid-read (rename/unlink in flight), a component not
    /// in the dcache, a final inode racing teardown, a cold per-core
    /// mount snapshot — and a path *through a non-directory*
    /// (`/a/file/x`): nothing is ever cached under a file's number, so
    /// the probe for `x` misses and the reference walk reports
    /// `NotADirectory`. That error path counts one `rcu_walk_fallbacks`
    /// where it used to count one `rcu_walks`; no other counter moves.
    pub fn resolve_rcu(&self, path: &str, core: CoreId) -> Option<Result<Arc<Inode>, VfsError>> {
        if !self.mounts.peek(path, core)? {
            return Some(Err(VfsError::NotFound));
        }
        let comps = match Self::components(path) {
            Ok(c) => c,
            Err(e) => return Some(Err(e)),
        };
        let mut cur = self.fs.root();
        for comp in comps {
            cur = self.dcache.peek(DentryProbe::new(cur, comp))??;
        }
        // A peeked inode may be mid-teardown; only a live read is
        // trustworthy, anything else drops to the reference walk.
        self.fs.get(cur).ok().map(Ok)
    }

    /// The reference walk: touches the mount table once and the dcache
    /// once per component, taking and dropping a reference each step.
    pub fn resolve_ref(&self, path: &str, core: CoreId) -> Result<Arc<Inode>, VfsError> {
        let mount = self.mounts.resolve(path, core).ok_or(VfsError::NotFound)?;
        let result = self.resolve_from_root(path, core);
        mount.put(core);
        result
    }

    fn resolve_from_root(&self, path: &str, core: CoreId) -> Result<Arc<Inode>, VfsError> {
        let mut cur = self.fs.get(self.fs.root())?;
        for comp in Self::components(path)? {
            if cur.kind != InodeKind::Dir {
                return Err(VfsError::NotADirectory);
            }
            cur = self.walk_component(&cur, comp, core)?;
        }
        Ok(cur)
    }

    /// Resolves everything but the final component, returning the parent
    /// directory and the leaf name — the shape `open(O_CREAT)`, `unlink`,
    /// and `rename` need.
    pub fn resolve_parent<'p>(
        &self,
        path: &'p str,
        core: CoreId,
    ) -> Result<ParentAndLeaf<'p>, VfsError> {
        let mount = self.mounts.resolve(path, core).ok_or(VfsError::NotFound)?;
        let result = (|| {
            let mut comps = Self::components(path)?;
            // `leaf` trails the walk by one component: whatever is still
            // in it when the iterator runs dry is the final name.
            let mut leaf = comps.next().ok_or(VfsError::InvalidArgument)?;
            let mut cur = self.fs.get(self.fs.root())?;
            for next in comps {
                if cur.kind != InodeKind::Dir {
                    return Err(VfsError::NotADirectory);
                }
                cur = self.walk_component(&cur, leaf, core)?;
                leaf = next;
            }
            if cur.kind != InodeKind::Dir {
                return Err(VfsError::NotADirectory);
            }
            Ok(ParentAndLeaf {
                parent: cur,
                name: leaf,
            })
        })();
        mount.put(core);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VfsConfig;
    use crate::dentry::DentryKey;
    use crate::stats::VfsStats;

    struct Fixture {
        fs: Tmpfs,
        dcache: Dcache,
        mounts: MountTable,
        stats: Arc<VfsStats>,
    }

    fn fixture() -> Fixture {
        let cfg = VfsConfig::pk(4);
        let stats = Arc::new(VfsStats::new());
        let fs = Tmpfs::new();
        let root = fs.get(fs.root()).unwrap();
        let etc = fs.create_child(&root, "etc", InodeKind::Dir).unwrap();
        fs.create_child(&etc, "passwd", InodeKind::File)
            .unwrap()
            .append(b"root:x:0");
        Fixture {
            fs,
            dcache: Dcache::new(64, cfg, Arc::clone(&stats)),
            mounts: MountTable::new(cfg, Arc::clone(&stats)),
            stats,
        }
    }

    #[test]
    fn components_normalize() {
        let split = |p| PathWalker::components(p).map(|c| c.collect::<Vec<_>>());
        assert_eq!(split("/a//b/./c"), Ok(vec!["a", "b", "c"]));
        assert_eq!(split("/"), Ok(vec![]));
        assert_eq!(split("rel/path"), Err(VfsError::InvalidArgument));
        assert_eq!(split("/a/../b"), Err(VfsError::InvalidArgument));
        // `..` anywhere fails the whole path before a component is yielded.
        assert_eq!(split("/a/b/.."), Err(VfsError::InvalidArgument));
    }

    #[test]
    fn resolve_full_path() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        let ino = w.resolve("/etc/passwd", CoreId(0)).unwrap();
        assert_eq!(ino.kind, InodeKind::File);
        assert_eq!(ino.read_at(0, 4), b"root");
    }

    #[test]
    fn resolve_miss_is_enoent() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        assert_eq!(
            w.resolve("/etc/shadow", CoreId(0)).unwrap_err(),
            VfsError::NotFound
        );
        assert_eq!(
            w.resolve("/etc/passwd/x", CoreId(0)).unwrap_err(),
            VfsError::NotADirectory
        );
    }

    #[test]
    fn second_walk_hits_dcache() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        w.resolve("/etc/passwd", CoreId(0)).unwrap();
        let misses_before = fx
            .stats
            .dcache_misses
            .load(std::sync::atomic::Ordering::Relaxed);
        w.resolve("/etc/passwd", CoreId(1)).unwrap();
        let misses_after = fx
            .stats
            .dcache_misses
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(misses_before, misses_after, "warm walk must not miss");
        assert!(
            fx.stats
                .dcache_hits
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 2
        );
    }

    #[test]
    fn resolve_parent_returns_leaf() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        let pl = w.resolve_parent("/etc/newfile", CoreId(0)).unwrap();
        assert_eq!(pl.name, "newfile");
        assert_eq!(pl.parent.kind, InodeKind::Dir);
        assert_eq!(
            w.resolve_parent("/", CoreId(0)).unwrap_err(),
            VfsError::InvalidArgument
        );
    }

    #[test]
    fn warm_rcu_walk_takes_no_references_anywhere() {
        // The tentpole property: once the path is cached, a resolve
        // performs zero refcount ops — on dentries *and* the vfsmount.
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        // Warm every core: the dcache entries plus each core's mount
        // snapshot (a cold snapshot legitimately falls back).
        for core in 0..4 {
            w.resolve("/etc/passwd", CoreId(core)).unwrap();
        }
        let d = fx
            .dcache
            .lookup(&DentryKey::new(fx.fs.root(), "etc"), CoreId(0))
            .unwrap();
        d.put(CoreId(0));
        let ops_before = d.refcount_ops();
        let mount = fx.mounts.resolve("/", CoreId(0)).unwrap();
        mount.put(CoreId(0));
        let mount_ops_before = mount.refcount_ops();
        let rcu_before = fx
            .stats
            .rcu_walks
            .load(std::sync::atomic::Ordering::Relaxed);
        for core in 0..4 {
            w.resolve("/etc/passwd", CoreId(core)).unwrap();
        }
        assert_eq!(d.refcount_ops(), ops_before, "dentry refcount untouched");
        assert_eq!(
            mount.refcount_ops(),
            mount_ops_before,
            "vfsmount refcount untouched"
        );
        assert_eq!(
            fx.stats
                .rcu_walks
                .load(std::sync::atomic::Ordering::Relaxed),
            rcu_before + 4,
            "all warm walks complete on the RCU leg"
        );
    }

    #[test]
    fn rcu_walk_falls_back_on_cold_cache_and_churn() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        let fallbacks = |fx: &Fixture| {
            fx.stats
                .rcu_walk_fallbacks
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        // Cold: both the mount snapshot and the dcache are empty.
        w.resolve("/etc/passwd", CoreId(0)).unwrap();
        assert_eq!(fallbacks(&fx), 1, "cold walk drops to the ref walk");
        // Warm: no new fallback.
        w.resolve("/etc/passwd", CoreId(0)).unwrap();
        assert_eq!(fallbacks(&fx), 1);
        // Unlink churn: the victim leaves the cache, so the next walk of
        // that path falls back (and correctly reports ENOENT).
        let root = fx.fs.get(fx.fs.root()).unwrap();
        let etc = fx.fs.lookup_child(&root, "etc").unwrap();
        fx.dcache
            .remove(&DentryKey::new(etc.id, "passwd"), CoreId(0));
        fx.fs.unlink_child(&etc, "passwd").unwrap();
        assert_eq!(
            w.resolve("/etc/passwd", CoreId(0)).unwrap_err(),
            VfsError::NotFound
        );
        assert_eq!(fallbacks(&fx), 2);
    }

    #[test]
    fn rcu_leg_reports_fallback_while_modification_in_flight() {
        // The negative shape of the seqcount protocol: with a rename
        // mid-flight (generation parked at 0) the RCU leg must refuse —
        // `None`, never a wrong answer.
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        w.resolve("/etc/passwd", CoreId(0)).unwrap(); // warm
        let d = fx
            .dcache
            .lookup(&DentryKey::new(fx.fs.root(), "etc"), CoreId(0))
            .unwrap();
        d.put(CoreId(0));
        let guard = d.begin_modify();
        assert!(
            w.resolve_rcu("/etc/passwd", CoreId(0)).is_none(),
            "torn seqcount forces the documented fallback"
        );
        drop(guard);
        assert!(matches!(
            w.resolve_rcu("/etc/passwd", CoreId(0)),
            Some(Ok(_))
        ));
    }

    #[test]
    fn dentry_references_balance_after_walks() {
        let fx = fixture();
        let w = PathWalker::new(&fx.fs, &fx.dcache, &fx.mounts);
        for core in 0..4 {
            w.resolve("/etc/passwd", CoreId(core)).unwrap();
        }
        // Only the cache's own reference remains on each dentry.
        let key = DentryKey::new(fx.fs.root(), "etc");
        let d = fx.dcache.lookup(&key, CoreId(0)).unwrap();
        assert_eq!(d.references(), 2); // cache + this lookup
        d.put(CoreId(0));
    }
}
