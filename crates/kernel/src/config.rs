//! Kernel-wide configuration: which of the registered fixes are
//! applied (the 16 Figure-1 rows plus the generation-2 set).

use crate::fixes::{FixId, NUM_FIXES};
use pk_mm::MmConfig;
use pk_net::NetConfig;
use pk_percpu::SOCKETS;
use pk_vfs::VfsConfig;

/// Which kind of kernel a configuration describes — the one axis every
/// driver, model and report sweeps.
///
/// `Stock` and `Pk` are the paper's two endpoints. `Adaptive` *boots*
/// with the same fix set and the same substrates as stock — zero
/// hand-placed fixes — and is the configuration `pk-adapt`'s
/// model-space controller edits: it enables fixes with
/// [`KernelConfig::with_fix`] from contention observed in the DES, and
/// a kernel booted from the result gets exactly the substrates those
/// fixes select. `Coarse` is the coarse-grained-locking point
/// from the microkernel literature: the named fine-grained lock classes
/// are clustered into one coarse lock per subsystem, which beats stock
/// at low core counts (fewer acquisitions) and collapses harder at
/// scale (one merged queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Personality {
    /// Stock Linux 2.6.35-rc5 semantics; the fix set is frozen.
    Stock,
    /// Stock with its lock classes clustered into a handful of coarse
    /// subsystem locks; the fix set is frozen at zero.
    Coarse,
    /// The hand-patched PK kernel; the fix set is frozen.
    Pk,
    /// Fixes start off; `pk-adapt` flips them in the configuration.
    Adaptive,
}

/// A kernel build: core count plus the enabled fix set.
///
/// [`KernelConfig::preset`] builds a personality's boot configuration
/// ([`KernelConfig::stock`] is Linux 2.6.35-rc5, [`KernelConfig::pk`]
/// enables every registered fix); [`KernelConfig::with_fix`] toggles
/// individual fixes for ablation studies and the `pk-adapt`
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Number of cores the kernel serves.
    pub cores: usize,
    /// Which fixes are enabled (Figure-1 order, then generation 2).
    fixes: [bool; NUM_FIXES],
    /// Which personality this build is (stock / coarse / PK / adaptive).
    personality: Personality,
}

impl Personality {
    /// Every personality, in grid order.
    pub const ALL: [Personality; 4] = [Self::Stock, Self::Coarse, Self::Pk, Self::Adaptive];

    /// Stable lowercase label used in tables, JSON, metric labels and
    /// on the command line.
    pub const fn label(self) -> &'static str {
        match self {
            Self::Stock => "stock",
            Self::Coarse => "coarse",
            Self::Pk => "pk",
            Self::Adaptive => "adaptive",
        }
    }

    /// Parses a [`Personality::label`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }

    /// Figure-legend spelling.
    pub fn legend(self) -> &'static str {
        match self {
            Self::Stock => "Stock",
            Self::Coarse => "Coarse",
            Self::Pk => "PK",
            Self::Adaptive => "Adaptive",
        }
    }

    /// This personality's boot configuration for `cores`
    /// ([`KernelConfig::preset`]).
    pub fn config(self, cores: usize) -> KernelConfig {
        KernelConfig::preset(self, cores)
    }
}

impl KernelConfig {
    /// The boot configuration of `personality`: PK enables every
    /// registered fix (the 16 Figure-1 rows plus the generation-2 set),
    /// the other three none. The personality tag carries the rest:
    /// [`Personality::Coarse`] makes the model layer cluster the named
    /// lock classes into one coarse lock per subsystem
    /// (`Network::coarsen`) while the functional substrates boot
    /// stock-shaped; [`Personality::Adaptive`] marks the configuration
    /// `pk-adapt` promotes fix by fix via [`KernelConfig::with_fix`],
    /// and lowers to stock's substrates until it does.
    pub fn preset(personality: Personality, cores: usize) -> Self {
        Self {
            cores,
            fixes: [personality == Personality::Pk; NUM_FIXES],
            personality,
        }
    }

    /// Stock Linux 2.6.35-rc5: no fixes.
    pub fn stock(cores: usize) -> Self {
        Self::preset(Personality::Stock, cores)
    }

    /// The PK kernel: every registered fix.
    pub fn pk(cores: usize) -> Self {
        Self::preset(Personality::Pk, cores)
    }

    /// The adaptive kernel: zero fixes at boot, stock's substrates.
    pub fn adaptive(cores: usize) -> Self {
        Self::preset(Personality::Adaptive, cores)
    }

    /// Which personality this build is.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// Returns whether `fix` is enabled. [`FixId`] is declared in
    /// registry order, so its discriminant is the fix's index.
    pub fn has(&self, fix: FixId) -> bool {
        self.fixes[fix as usize]
    }

    /// Returns a copy with `fix` set to `enabled`.
    pub fn with_fix(mut self, fix: FixId, enabled: bool) -> Self {
        self.fixes[fix as usize] = enabled;
        self
    }

    /// Number of enabled fixes.
    pub fn enabled_count(&self) -> usize {
        self.fixes.iter().filter(|&&b| b).count()
    }

    /// Lowers the fix set onto the VFS substrate's configuration.
    pub fn vfs(&self) -> VfsConfig {
        VfsConfig {
            cores: self.cores,
            sloppy_dentry_refs: self.has(FixId::SloppyDentryRefs),
            sloppy_vfsmount_refs: self.has(FixId::SloppyVfsmountRefs),
            lockfree_dlookup: self.has(FixId::LockFreeDlookup),
            percore_mount_cache: self.has(FixId::PerCoreMountCache),
            percore_open_lists: self.has(FixId::PerCoreOpenLists),
            atomic_lseek: self.has(FixId::AtomicLseek),
            avoid_inode_list_locks: self.has(FixId::AvoidInodeListLocks),
            avoid_dcache_list_locks: self.has(FixId::AvoidDcacheListLocks),
            rcu_path_walk: self.has(FixId::RcuPathWalk),
            snzi_refs: self.has(FixId::SnziVfsRefs),
        }
    }

    /// Lowers the fix set onto the network substrate's configuration.
    pub fn net(&self) -> NetConfig {
        NetConfig {
            cores: self.cores,
            flow_table_shards: if self.has(FixId::PerSocketFlowTables) {
                SOCKETS
            } else {
                1
            },
            snzi_dst_refs: self.has(FixId::SnziNetRefs),
            sloppy_dst_refs: self.has(FixId::SloppyDstRefs),
            sloppy_proto_accounting: self.has(FixId::SloppyProtoAccounting),
            percore_skb_pools: self.has(FixId::LocalDmaBuffers),
            local_dma_alloc: self.has(FixId::LocalDmaBuffers),
            percore_accept_queues: self.has(FixId::ParallelAccept),
            hash_flow_steering: self.has(FixId::ParallelAccept),
            // RFS is a software alternative the paper cites but PK does
            // not enable (it relies on hardware steering instead).
            software_rfs: false,
        }
    }

    /// Lowers the fix set onto the memory substrate's configuration.
    ///
    /// [`FixId::PerSocketPageFreelists`] lowers to nothing here: stock's
    /// fixed 8 freelists already equal the paper machine's socket count,
    /// so the generation-2 problem it fixes exists only in the models.
    pub fn mm(&self) -> MmConfig {
        let base = MmConfig::stock(self.cores);
        MmConfig {
            per_mapping_superpage_mutex: self.has(FixId::SuperPageFineLocking),
            nocache_superpage_zeroing: self.has(FixId::NoCacheSuperPageZeroing),
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_and_pk_extremes() {
        assert_eq!(KernelConfig::stock(48).enabled_count(), 0);
        assert_eq!(KernelConfig::pk(48).enabled_count(), NUM_FIXES);
        let coarse = Personality::Coarse.config(48);
        assert_eq!(coarse.enabled_count(), 0);
        assert_eq!(
            coarse.personality(),
            Personality::Coarse,
            "coarse differs from stock only by personality"
        );
    }

    #[test]
    fn personality_labels_round_trip_and_presets_carry_their_tag() {
        for p in Personality::ALL {
            assert_eq!(Personality::parse(p.label()), Some(p));
            assert_eq!(Personality::parse(&p.label().to_uppercase()), Some(p));
            assert_eq!(KernelConfig::preset(p, 8).personality(), p);
            assert_eq!(p.config(8), KernelConfig::preset(p, 8));
            let fixes = if p == Personality::Pk { NUM_FIXES } else { 0 };
            assert_eq!(p.config(8).enabled_count(), fixes, "{p:?}");
        }
        assert_eq!(Personality::parse("fast"), None);
        assert_eq!(
            Personality::ALL.map(Personality::legend),
            ["Stock", "Coarse", "PK", "Adaptive"]
        );
        assert_eq!(KernelConfig::stock(8), Personality::Stock.config(8));
        assert_eq!(KernelConfig::pk(8), Personality::Pk.config(8));
        assert_eq!(KernelConfig::adaptive(8), Personality::Adaptive.config(8));
    }

    /// `has`/`with_fix` index the fix vector with `fix as usize`; this
    /// is the invariant that makes that the registry row.
    #[test]
    fn fix_ids_are_declared_in_registry_order() {
        use crate::fixes::{FIXES, GEN2_FIXES};
        for (i, f) in FIXES.iter().chain(GEN2_FIXES.iter()).enumerate() {
            assert_eq!(f.id as usize, i, "{:?} is row {i}", f.id);
            let only = KernelConfig::stock(8).with_fix(f.id, true);
            assert!(only.has(f.id) && only.enabled_count() == 1);
        }
        // The last declared variant closes the vector: no FixId indexes
        // past it.
        assert_eq!(FixId::PerSocketPageFreelists as usize + 1, NUM_FIXES);
    }

    #[test]
    fn with_fix_toggles_one() {
        let c = KernelConfig::stock(8).with_fix(FixId::AtomicLseek, true);
        assert!(c.has(FixId::AtomicLseek));
        assert_eq!(c.enabled_count(), 1);
        assert!(c.vfs().atomic_lseek);
        assert!(!c.vfs().lockfree_dlookup);
    }

    #[test]
    fn lowering_is_consistent() {
        let pk = KernelConfig::pk(48);
        assert_eq!(pk.vfs(), VfsConfig::pk(48));
        assert_eq!(pk.net(), NetConfig::pk(48));
        let stock = KernelConfig::stock(48);
        assert_eq!(stock.vfs(), VfsConfig::stock(48));
        assert_eq!(stock.net(), NetConfig::stock(48));
        assert_eq!(stock.mm(), MmConfig::stock(48));
        assert_eq!(pk.mm(), MmConfig::pk(48));
    }

    #[test]
    fn adaptive_substrates_are_stock_until_promoted() {
        let a = KernelConfig::adaptive(48);
        let stock = KernelConfig::stock(48);
        assert_eq!(a.enabled_count(), 0, "zero hand-placed fixes at boot");
        assert_eq!(a.personality(), Personality::Adaptive);
        assert_eq!(a.vfs(), stock.vfs());
        assert_eq!(a.net(), stock.net());
        assert_eq!(a.mm(), stock.mm());
        let promoted = a.with_fix(FixId::SloppyDentryRefs, true);
        assert!(promoted.vfs().sloppy_dentry_refs);
        assert_eq!(promoted.personality(), Personality::Adaptive);
    }
}
