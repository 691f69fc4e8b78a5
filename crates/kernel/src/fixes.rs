//! The 16 Figure-1 fixes as data.

use std::fmt;

/// A MOSBENCH application named in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// The Exim mail server.
    Exim,
    /// memcached.
    Memcached,
    /// Apache serving static files.
    Apache,
    /// PostgreSQL.
    PostgreSql,
    /// Parallel gmake.
    Gmake,
    /// Psearchy's pedsort indexer.
    Pedsort,
    /// The Metis MapReduce library.
    Metis,
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Exim => "Exim",
            Self::Memcached => "memcached",
            Self::Apache => "Apache",
            Self::PostgreSql => "PostgreSQL",
            Self::Gmake => "gmake",
            Self::Pedsort => "pedsort",
            Self::Metis => "Metis",
        };
        f.write_str(s)
    }
}

/// Identifies one of the paper's 16 kernel scalability fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FixId {
    /// Per-core backlog queues for listening sockets (§4.2).
    ParallelAccept,
    /// Sloppy counters for dentry reference counting.
    SloppyDentryRefs,
    /// Sloppy counters for vfsmount reference counting.
    SloppyVfsmountRefs,
    /// Sloppy counters for dst_entry reference counting.
    SloppyDstRefs,
    /// Sloppy counters for protocol memory usage tracking.
    SloppyProtoAccounting,
    /// Lock-free dlookup comparison protocol (§4.4).
    LockFreeDlookup,
    /// Per-core mount-table caches (§4.5).
    PerCoreMountCache,
    /// Per-core open-file lists (§4.5).
    PerCoreOpenLists,
    /// Local-node DMA buffer allocation (§4.5).
    LocalDmaBuffers,
    /// net_device/device false-sharing fix (§4.6).
    NetDeviceFalseSharing,
    /// struct page false-sharing fix (§4.6).
    PageFalseSharing,
    /// Avoid unnecessary inode-list lock acquisitions (§4.7).
    AvoidInodeListLocks,
    /// Avoid unnecessary dcache-list lock acquisitions (§4.7).
    AvoidDcacheListLocks,
    /// Atomic-read lseek, no per-inode mutex (§4.7, §5.5).
    AtomicLseek,
    /// Per-mapping super-page mutexes (§4.7, §5.8).
    SuperPageFineLocking,
    /// Non-caching super-page zeroing (§5.8).
    NoCacheSuperPageZeroing,
    // ---- Generation-2 fixes (the §7 "past 48 cores" extension). ----
    // These are not Figure-1 rows: they relieve the structures that
    // become the bottleneck only after the paper's 16 fixes are in and
    // the core count keeps growing. They live in a separate table
    // (`GEN2_FIXES`) so the Figure-1 registry stays exactly 16 rows.
    /// End-to-end RCU-walk path resolution: the whole path walk is
    /// lock-free and reference-free, validated by dentry seqcounts,
    /// falling back to the locked walk on a torn generation.
    RcuPathWalk,
    /// Generation-2 refcounts for VFS objects (dentry/vfsmount), where
    /// flat sloppy counters saturate past 48 cores. The name is the
    /// model station's; the substrate lowers the fix to per-core counts
    /// (`VfsConfig::percore_refs`), which have no central line at all.
    SnziVfsRefs,
    /// Generation-2 refcounts for network objects (dst entries),
    /// lowered to per-core counts (`NetConfig::percore_dst_refs`).
    SnziNetRefs,
    /// Per-socket sharding of the NIC flow-steering tables.
    PerSocketFlowTables,
    /// Per-socket sharding of the mm page freelists, keyed off the
    /// machine topology instead of a fixed node count.
    PerSocketPageFreelists,
}

/// Figure-1 metadata for one fix.
#[derive(Debug, Clone, Copy)]
pub struct Fix {
    /// Which fix.
    pub id: FixId,
    /// Figure-1 row title.
    pub name: &'static str,
    /// The problem sentence.
    pub problem: &'static str,
    /// The solution sentence ("⇒" column).
    pub solution: &'static str,
    /// Applications the row names.
    pub apps: &'static [App],
    /// The kernel structure the fix relieves, as a stable class name.
    ///
    /// Workload models tag the [`pk_sim::Station`] that models a
    /// structure's contention with the same string (`Station::with_class`),
    /// which is what lets `pk-adapt` go from an *observed* hot structure
    /// to the lever that relieves it without any per-workload table: the
    /// mapping lives here, with the fix, not in the controller.
    pub class: &'static str,
}

/// Looks up the fix registered for a kernel-structure class name.
///
/// This is the kernel-global observation→lever map the adaptive
/// personality uses: a contended station tagged `"vfs.mount_table"`
/// resolves to [`FixId::PerCoreMountCache`] no matter which workload
/// exposed the contention. Returns `None` for classes with no
/// registered lever (app-level structures).
pub fn fix_for_class(class: &str) -> Option<FixId> {
    FIXES
        .iter()
        .chain(GEN2_FIXES.iter())
        .find(|f| f.class == class)
        .map(|f| f.id)
}

/// Total number of registered fixes (Figure-1 plus generation 2) — the
/// width of [`crate::KernelConfig`]'s fix vector.
pub const NUM_FIXES: usize = FIXES.len() + GEN2_FIXES.len();

/// All 16 fixes in Figure-1 order.
pub const FIXES: [Fix; 16] = [
    Fix {
        id: FixId::ParallelAccept,
        class: "net.accept_queue",
        name: "Parallel accept",
        problem: "Concurrent accept system calls contend on shared socket fields.",
        solution: "User per-core backlog queues for listening sockets.",
        apps: &[App::Apache],
    },
    Fix {
        id: FixId::SloppyDentryRefs,
        class: "vfs.dentry_ref",
        name: "dentry reference counting",
        problem: "File name resolution contends on directory entry reference counts.",
        solution: "Use sloppy counters to reference count directory entry objects.",
        apps: &[App::Apache, App::Exim],
    },
    Fix {
        id: FixId::SloppyVfsmountRefs,
        class: "vfs.vfsmount_ref",
        name: "Mount point (vfsmount) reference counting",
        problem: "Walking file name paths contends on mount point reference counts.",
        solution: "Use sloppy counters for mount point objects.",
        apps: &[App::Apache, App::Exim],
    },
    Fix {
        id: FixId::SloppyDstRefs,
        class: "net.dst_ref",
        name: "IP packet destination (dst entry) reference counting",
        problem: "IP packet transmission contends on routing table entries.",
        solution: "Use sloppy counters for IP routing table entries.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::SloppyProtoAccounting,
        class: "net.proto_accounting",
        name: "Protocol memory usage tracking",
        problem: "Cores contend on counters for tracking protocol memory consumption.",
        solution: "Use sloppy counters for protocol usage counting.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::LockFreeDlookup,
        class: "vfs.dentry_lock",
        name: "Acquiring directory entry (dentry) spin locks",
        problem: "Walking file name paths contends on per-directory entry spin locks.",
        solution: "Use a lock-free protocol in dlookup for checking filename matches.",
        apps: &[App::Apache, App::Exim],
    },
    Fix {
        id: FixId::PerCoreMountCache,
        class: "vfs.mount_table",
        name: "Mount point table spin lock",
        problem: "Resolving path names to mount points contends on a global spin lock.",
        solution: "Use per-core mount table caches.",
        apps: &[App::Apache, App::Exim],
    },
    Fix {
        id: FixId::PerCoreOpenLists,
        class: "vfs.open_list",
        name: "Adding files to the open list",
        problem: "Cores contend on a per-super block list that tracks open files.",
        solution: "Use per-core open file lists for each super block that has open files.",
        apps: &[App::Apache, App::Exim],
    },
    Fix {
        id: FixId::LocalDmaBuffers,
        class: "net.dma_node0",
        name: "Allocating DMA buffers",
        problem: "DMA memory allocations contend on the memory node 0 spin lock.",
        solution: "Allocate Ethernet device DMA buffers from the local memory node.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::NetDeviceFalseSharing,
        class: "net.device_line",
        name: "False sharing in net device and device",
        problem: "False sharing causes contention for read-only structure fields.",
        solution: "Place read-only fields on their own cache lines.",
        apps: &[App::Memcached, App::Apache, App::PostgreSql],
    },
    Fix {
        id: FixId::PageFalseSharing,
        class: "mm.page_line",
        name: "False sharing in page",
        problem: "False sharing causes contention for read-mostly structure fields.",
        solution: "Place read-only fields on their own cache lines.",
        apps: &[App::Exim],
    },
    Fix {
        id: FixId::AvoidInodeListLocks,
        class: "vfs.inode_list",
        name: "inode lists",
        problem: "Cores contend on global locks protecting lists used to track inodes.",
        solution: "Avoid acquiring the locks when not necessary.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::AvoidDcacheListLocks,
        class: "vfs.dcache_list",
        name: "Dcache lists",
        problem: "Cores contend on global locks protecting lists used to track dentrys.",
        solution: "Avoid acquiring the locks when not necessary.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::AtomicLseek,
        class: "vfs.inode_lseek_mutex",
        name: "Per-inode mutex",
        problem: "Cores contend on a per-inode mutex in lseek.",
        solution: "Use atomic reads to eliminate the need to acquire the mutex.",
        apps: &[App::PostgreSql],
    },
    Fix {
        id: FixId::SuperPageFineLocking,
        class: "mm.super_page_mutex",
        name: "Super-page fine grained locking",
        problem: "Super-page soft page faults contend on a per-process mutex.",
        solution: "Protect each super-page memory mapping with its own mutex.",
        apps: &[App::Metis],
    },
    Fix {
        id: FixId::NoCacheSuperPageZeroing,
        class: "mm.super_page_zeroing",
        name: "Zeroing super-pages",
        problem: "Zeroing super-pages flushes the contents of on-chip caches.",
        solution: "Use non-caching instructions to zero the contents of super-pages.",
        apps: &[App::Metis],
    },
];

/// The generation-2 fixes: what the roster's post-48-core profiles
/// attribute the *next* collapse to once the Figure-1 set is applied
/// and the topology grows past the paper's machine (§7's open
/// question). Same shape as [`FIXES`] so the adaptive controller's
/// class→lever map extends to them without new plumbing, but kept in a
/// separate table: the Figure-1 registry is historical record and must
/// stay exactly 16 rows.
pub const GEN2_FIXES: [Fix; 5] = [
    Fix {
        id: FixId::RcuPathWalk,
        class: "vfs.path_walk",
        name: "End-to-end RCU path walk",
        problem: "Per-component dentry get/put traffic grows with core count until the \
                  walk itself is the bottleneck.",
        solution: "Resolve whole paths lock-free under seqcount validation, falling back \
                   to the locked walk on rename/unlink races.",
        apps: &[App::Exim, App::Apache, App::PostgreSql],
    },
    Fix {
        id: FixId::SnziVfsRefs,
        class: "vfs.dentry_ref_scale",
        name: "SNZI-tree VFS reference counts",
        problem: "Flat per-core refcount banks still funnel misses into one central line, \
                  which saturates past 48 cores.",
        solution: "Count dentry and vfsmount references per core with no central line, \
                   summing the cores only to deallocate.",
        apps: &[App::Exim, App::Apache],
    },
    Fix {
        id: FixId::SnziNetRefs,
        class: "net.dst_ref_scale",
        name: "SNZI-tree network reference counts",
        problem: "dst-entry refcount misses contend on the central counter line at high \
                  core counts.",
        solution: "Count dst-entry references per core with no central line.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::PerSocketFlowTables,
        class: "net.flow_table",
        name: "Per-socket flow-steering tables",
        problem: "Flow-director updates from every transmitting core serialize on one \
                  flow-table lock.",
        solution: "Shard the flow-steering table per socket, keyed off the machine \
                   topology.",
        apps: &[App::Memcached, App::Apache],
    },
    Fix {
        id: FixId::PerSocketPageFreelists,
        class: "mm.page_freelist",
        name: "Per-socket page freelists",
        problem: "A fixed number of page freelists is shared by ever more sockets as the \
                  topology grows.",
        solution: "Key the freelist shard count off the machine topology so every socket \
                   owns a freelist.",
        apps: &[App::Gmake, App::Pedsort, App::Metis],
    },
];

/// Lines of kernel change the paper reports for the whole fix set.
pub const LINES_ADDED: u32 = 2617;
/// Lines removed by the fix set.
pub const LINES_REMOVED: u32 = 385;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_sixteen_fixes() {
        assert_eq!(FIXES.len(), 16);
        let mut ids: Vec<FixId> = FIXES.iter().map(|f| f.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 16, "fix ids are unique");
    }

    #[test]
    fn gen2_registry_is_disjoint_and_classed() {
        assert_eq!(NUM_FIXES, 21);
        let mut ids: Vec<FixId> = FIXES
            .iter()
            .chain(GEN2_FIXES.iter())
            .map(|f| f.id)
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), NUM_FIXES, "no id appears in both tables");
        let mut classes: Vec<&str> = FIXES
            .iter()
            .chain(GEN2_FIXES.iter())
            .map(|f| f.class)
            .collect();
        classes.sort();
        classes.dedup();
        assert_eq!(classes.len(), NUM_FIXES, "class names stay unique");
    }

    #[test]
    fn fix_for_class_resolves_both_generations() {
        assert_eq!(
            fix_for_class("vfs.mount_table"),
            Some(FixId::PerCoreMountCache)
        );
        assert_eq!(fix_for_class("vfs.path_walk"), Some(FixId::RcuPathWalk));
        assert_eq!(
            fix_for_class("mm.page_freelist"),
            Some(FixId::PerSocketPageFreelists)
        );
        assert_eq!(fix_for_class("app.lock_manager"), None);
    }

    #[test]
    fn every_fix_names_at_least_one_app() {
        for f in FIXES {
            assert!(!f.apps.is_empty(), "{} names no app", f.name);
            assert!(!f.problem.is_empty());
            assert!(!f.solution.is_empty());
        }
    }

    #[test]
    fn loc_totals_match_paper() {
        assert_eq!(LINES_ADDED as i64 - LINES_REMOVED as i64, 2232);
        // "Modifying the kernel required in total 3002 lines of code
        // changes" = added + removed.
        assert_eq!(LINES_ADDED + LINES_REMOVED, 3002);
    }

    #[test]
    fn sloppy_counter_fixes_cover_four_objects() {
        let sloppy = FIXES
            .iter()
            .filter(|f| f.solution.contains("sloppy counter") || f.solution.contains("sloppy"))
            .count();
        assert_eq!(sloppy, 4, "dentry, vfsmount, dst_entry, proto accounting");
    }
}
