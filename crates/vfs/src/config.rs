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
    /// End-to-end RCU-walk path resolution (generation-2, §7): resolve
    /// the whole path lock-free under a seqcount-validated snapshot,
    /// falling back to the locked walk when a concurrent rename/unlink
    /// tears the sequence. Off in stock, on in PK.
    pub rcu_path_walk: bool,
    /// Swap saturating sloppy counters for per-core reference counts
    /// (generation-2, §7): a get or put adds on the acting core's own
    /// line with no threshold and no central word, and deallocation sums
    /// the cores. Off in stock, on in PK.
    pub percore_refs: bool,
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
            rcu_path_walk: false,
            percore_refs: false,
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
            rcu_path_walk: true,
            percore_refs: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag of `c`, destructured without `..`: a new field does
    /// not compile until the preset tests state its value.
    fn flags(c: VfsConfig) -> (usize, [bool; 10]) {
        let VfsConfig {
            cores,
            sloppy_dentry_refs,
            sloppy_vfsmount_refs,
            lockfree_dlookup,
            percore_mount_cache,
            percore_open_lists,
            atomic_lseek,
            avoid_inode_list_locks,
            avoid_dcache_list_locks,
            rcu_path_walk,
            percore_refs,
        } = c;
        let fixes = [
            sloppy_dentry_refs,
            sloppy_vfsmount_refs,
            lockfree_dlookup,
            percore_mount_cache,
            percore_open_lists,
            atomic_lseek,
            avoid_inode_list_locks,
            avoid_dcache_list_locks,
            rcu_path_walk,
            percore_refs,
        ];
        (cores, fixes)
    }

    #[test]
    fn stock_disables_everything() {
        assert_eq!(flags(VfsConfig::stock(8)), (8, [false; 10]));
    }

    #[test]
    fn pk_enables_everything() {
        assert_eq!(flags(VfsConfig::pk(48)), (48, [true; 10]));
    }
}
