//! Per-fix configuration switches for the VFS.

/// Selects, fix by fix, whether the VFS behaves like the stock kernel or
/// like PK. Each flag corresponds to a Figure-1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsConfig {
    /// Number of cores the VFS serves (sizes per-core structures).
    pub cores: usize,
    /// "Use sloppy counters to reference count directory entry objects."
    pub sloppy_dentry_refs: bool,
    /// "Use sloppy counters for mount point objects."
    pub sloppy_vfsmount_refs: bool,
    /// "Use a lock-free protocol in `dlookup` for checking filename
    /// matches" instead of taking the per-dentry spin lock.
    pub lockfree_dlookup: bool,
    /// "Use per-core mount table caches" instead of hitting the global
    /// mount-table spin lock on every path resolution.
    pub percore_mount_cache: bool,
    /// "Use per-core open file lists for each super block that has open
    /// files."
    pub percore_open_lists: bool,
    /// "Use atomic reads to eliminate the need to acquire the [per-inode]
    /// mutex" in `lseek`.
    pub atomic_lseek: bool,
    /// "Avoid acquiring the [inode list] locks when not necessary."
    pub avoid_inode_list_locks: bool,
    /// "Avoid acquiring the [dcache list] locks when not necessary."
    pub avoid_dcache_list_locks: bool,
    /// Retire replaced RCU snapshots (dcache buckets, umounted mounts)
    /// through `call_rcu` deferred-free queues instead of blocking each
    /// writer on a full `synchronize()` grace period. Not a Figure-1 fix:
    /// a reclamation-discipline switch, on in both presets; turn off to
    /// measure the blocking-writer baseline.
    pub deferred_reclamation: bool,
    /// End-to-end RCU-walk path resolution (generation-2, §7): resolve
    /// the whole path lock-free under a seqcount-validated snapshot,
    /// falling back to the locked walk when a concurrent rename/unlink
    /// tears the sequence. Off in stock, on in PK.
    pub rcu_path_walk: bool,
    /// Swap saturating sloppy counters for SNZI trees (generation-2,
    /// §7): per-socket intermediate nodes with surplus propagation so
    /// zero-detection scales past 48 cores. Off in stock, on in PK.
    pub snzi_refs: bool,
    /// Number of sockets in the machine topology; keys the SNZI tree
    /// fan-out (one intermediate node per socket).
    pub sockets: usize,
}

impl VfsConfig {
    /// The stock Linux 2.6.35-rc5 behaviour: every fix disabled.
    pub fn stock(cores: usize) -> Self {
        Self {
            cores,
            sloppy_dentry_refs: false,
            sloppy_vfsmount_refs: false,
            lockfree_dlookup: false,
            percore_mount_cache: false,
            percore_open_lists: false,
            atomic_lseek: false,
            avoid_inode_list_locks: false,
            avoid_dcache_list_locks: false,
            deferred_reclamation: true,
            rcu_path_walk: false,
            snzi_refs: false,
            sockets: 8,
        }
    }

    /// The PK kernel: every fix enabled.
    pub fn pk(cores: usize) -> Self {
        Self {
            cores,
            sloppy_dentry_refs: true,
            sloppy_vfsmount_refs: true,
            lockfree_dlookup: true,
            percore_mount_cache: true,
            percore_open_lists: true,
            atomic_lseek: true,
            avoid_inode_list_locks: true,
            avoid_dcache_list_locks: true,
            deferred_reclamation: true,
            rcu_path_walk: true,
            snzi_refs: true,
            sockets: 8,
        }
    }
}

impl Default for VfsConfig {
    fn default() -> Self {
        Self::pk(48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_disables_everything() {
        let c = VfsConfig::stock(8);
        assert!(
            !(c.sloppy_dentry_refs
                || c.sloppy_vfsmount_refs
                || c.lockfree_dlookup
                || c.percore_mount_cache
                || c.percore_open_lists
                || c.atomic_lseek
                || c.avoid_inode_list_locks
                || c.avoid_dcache_list_locks)
        );
        assert_eq!(c.cores, 8);
    }

    #[test]
    fn pk_enables_everything() {
        let c = VfsConfig::pk(48);
        assert!(
            c.sloppy_dentry_refs
                && c.sloppy_vfsmount_refs
                && c.lockfree_dlookup
                && c.percore_mount_cache
                && c.percore_open_lists
                && c.atomic_lseek
                && c.avoid_inode_list_locks
                && c.avoid_dcache_list_locks
        );
    }
}
