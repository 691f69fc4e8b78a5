//! The super block and its open-file bookkeeping.

use crate::config::VfsConfig;
use crate::stats::VfsStats;
use pk_percpu::{CoreId, PerCore};
use pk_sync::SpinLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A unique open-file identifier within a super block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenFileId(pub u64);

/// A super block tracking open files, read-only state, and the global
/// inode/dcache bookkeeping lists (Figure 1).
///
/// Stock keeps one list of open files per super block — "cores contend on
/// a per-super block list that tracks open files" — used only to decide
/// whether the file system "can be remounted read-only." PK splits it
/// per-core: opens lock only the local list; a close on a different core
/// pays an expensive cross-core removal; the remount check "must lock and
/// scan all cores' lists" (§4.5).
#[derive(Debug)]
pub struct SuperBlock {
    next_file: AtomicU64,
    global_list: SpinLock<HashSet<OpenFileId>>,
    percore_lists: PerCore<SpinLock<HashSet<OpenFileId>>>,
    read_only: AtomicBool,
    // The global inode-list and dcache-list locks (Figure 1: "inode
    // lists" / "dcache lists"). Stock acquires them on every inode/dentry
    // lifecycle event; PK avoids them when unnecessary.
    inode_list: SpinLock<()>,
    dcache_list: SpinLock<()>,
    config: VfsConfig,
    stats: Arc<VfsStats>,
}

impl SuperBlock {
    /// Creates a read-write super block.
    pub fn new(config: VfsConfig, stats: Arc<VfsStats>) -> Self {
        use pk_lockdep::{register_class, LockKind};
        let percore_class = register_class("vfs.sb.open_list_percore", "pk-vfs", LockKind::Spin);
        let sb = Self {
            next_file: AtomicU64::new(1),
            global_list: SpinLock::new(HashSet::new()),
            percore_lists: PerCore::new_with(config.cores, |_| {
                let l = SpinLock::new(HashSet::new());
                l.set_class(percore_class);
                l
            }),
            read_only: AtomicBool::new(false),
            inode_list: SpinLock::new(()),
            dcache_list: SpinLock::new(()),
            config,
            stats,
        };
        sb.global_list.set_class(register_class(
            "vfs.sb.open_list_global",
            "pk-vfs",
            LockKind::Spin,
        ));
        sb.inode_list.set_class(register_class(
            "vfs.sb.inode_list",
            "pk-vfs",
            LockKind::Spin,
        ));
        sb.dcache_list.set_class(register_class(
            "vfs.sb.dcache_list",
            "pk-vfs",
            LockKind::Spin,
        ));
        sb
    }

    /// Registers a newly opened file on `core`, returning its id and the
    /// core whose list holds it.
    pub fn add_open_file(&self, core: CoreId) -> (OpenFileId, CoreId) {
        let id = OpenFileId(self.next_file.fetch_add(1, Ordering::Relaxed));
        if self.config.percore_open_lists {
            pk_lockdep::check_percore_mutation("vfs.sb.open_list_percore", core.index());
            self.percore_lists.get(core).lock().insert(id);
            self.stats.open_list_percore_ops.bump();
            (id, core)
        } else {
            self.global_list.lock().insert(id);
            self.stats.open_list_global_ops.bump();
            (id, core)
        }
    }

    /// Removes a file opened on `home` when closed on `core`.
    ///
    /// With per-core lists, closing on the opening core is cheap; a
    /// migrated process pays the expensive cross-core removal the paper
    /// describes.
    pub fn remove_open_file(&self, id: OpenFileId, home: CoreId, core: CoreId) {
        if self.config.percore_open_lists {
            if home != core {
                self.stats.open_list_cross_core_removals.bump();
                // The expensive migrated-close path of §4.5: removing
                // from another core's list is the documented exception.
                let _migrate = pk_lockdep::MigrationScope::enter();
                self.percore_lists.get(home).lock().remove(&id);
                return;
            }
            self.stats.open_list_percore_ops.bump();
            pk_lockdep::check_percore_mutation("vfs.sb.open_list_percore", home.index());
            self.percore_lists.get(home).lock().remove(&id);
        } else {
            self.global_list.lock().remove(&id);
            self.stats.open_list_global_ops.bump();
        }
    }

    /// Returns the total number of open files (scans all lists).
    pub fn open_files(&self) -> usize {
        if self.config.percore_open_lists {
            self.percore_lists.fold(0, |a, l| a + l.lock().len())
        } else {
            self.global_list.lock().len()
        }
    }

    /// Attempts to remount read-only; fails with files open. Must "lock
    /// and scan all cores' lists."
    pub fn remount_read_only(&self) -> Result<(), crate::VfsError> {
        let open = self.open_files();
        if open > 0 {
            return Err(crate::VfsError::Busy);
        }
        self.read_only.store(true, Ordering::Release);
        Ok(())
    }

    /// Remounts read-write.
    pub fn remount_read_write(&self) {
        self.read_only.store(false, Ordering::Release);
    }

    /// Returns whether the super block is read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Performs the inode-list bookkeeping for an inode lifecycle event.
    ///
    /// Stock always locks the global inode list; PK skips it when the
    /// event doesn't actually require list membership changes
    /// (`necessary = false`).
    pub fn inode_list_bookkeeping(&self, necessary: bool) {
        if necessary || !self.config.avoid_inode_list_locks {
            let _g = self.inode_list.lock();
            self.stats.list_lock_acquisitions.bump();
        } else {
            self.stats.list_lock_skips.bump();
        }
    }

    /// Performs the dcache-list bookkeeping for a dentry lifecycle event,
    /// with the same stock/PK split as [`Self::inode_list_bookkeeping`].
    pub fn dcache_list_bookkeeping(&self, necessary: bool) {
        if necessary || !self.config.avoid_dcache_list_locks {
            let _g = self.dcache_list.lock();
            self.stats.list_lock_acquisitions.bump();
        } else {
            self.stats.list_lock_skips.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(percore: bool) -> (SuperBlock, Arc<VfsStats>) {
        let stats = Arc::new(VfsStats::new());
        let mut cfg = VfsConfig::pk(4);
        cfg.percore_open_lists = percore;
        (SuperBlock::new(cfg, Arc::clone(&stats)), stats)
    }

    #[test]
    fn open_close_same_core() {
        let (sb, stats) = sb(true);
        let (id, home) = sb.add_open_file(CoreId(2));
        assert_eq!(sb.open_files(), 1);
        sb.remove_open_file(id, home, CoreId(2));
        assert_eq!(sb.open_files(), 0);
        assert_eq!(
            stats.open_list_cross_core_removals.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn cross_core_close_is_counted() {
        let (sb, stats) = sb(true);
        let (id, home) = sb.add_open_file(CoreId(0));
        sb.remove_open_file(id, home, CoreId(3));
        assert_eq!(sb.open_files(), 0);
        assert_eq!(
            stats.open_list_cross_core_removals.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn global_list_counts_global_ops() {
        let (sb, stats) = sb(false);
        let (id, home) = sb.add_open_file(CoreId(1));
        sb.remove_open_file(id, home, CoreId(1));
        assert_eq!(stats.open_list_global_ops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn remount_requires_no_open_files() {
        let (sb, _) = sb(true);
        let (id, home) = sb.add_open_file(CoreId(0));
        assert_eq!(sb.remount_read_only(), Err(crate::VfsError::Busy));
        sb.remove_open_file(id, home, CoreId(0));
        assert_eq!(sb.remount_read_only(), Ok(()));
        assert!(sb.is_read_only());
        sb.remount_read_write();
        assert!(!sb.is_read_only());
    }

    #[test]
    fn list_bookkeeping_respects_config() {
        let (sb, stats) = sb(true); // avoid_list_locks = true (PK)
        sb.inode_list_bookkeeping(false);
        sb.dcache_list_bookkeeping(false);
        assert_eq!(stats.list_lock_acquisitions.load(Ordering::Relaxed), 0);
        assert_eq!(stats.list_lock_skips.load(Ordering::Relaxed), 2);
        sb.inode_list_bookkeeping(true); // necessary → still locks
        assert_eq!(stats.list_lock_acquisitions.load(Ordering::Relaxed), 1);

        let stats2 = Arc::new(VfsStats::new());
        let sb2 = SuperBlock::new(VfsConfig::stock(4), Arc::clone(&stats2));
        sb2.inode_list_bookkeeping(false); // stock always locks
        assert_eq!(stats2.list_lock_acquisitions.load(Ordering::Relaxed), 1);
    }
}
