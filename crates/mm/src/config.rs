//! Memory-management configuration.

/// Page size for a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSize {
    /// 4 KB base pages.
    Base4K,
    /// 2 MB super-pages (`hugetlbfs`).
    Super2M,
}

impl PageSize {
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Self::Base4K => 4 << 10,
            Self::Super2M => 2 << 20,
        }
    }
}

/// Stock/PK switches for the memory-management substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmConfig {
    /// Number of cores.
    pub cores: usize,
    /// Number of NUMA nodes.
    pub numa_nodes: usize,
    /// Pages of physical memory per node (for the allocator model).
    pub pages_per_node: u64,
    /// "Protect each super-page memory mapping with its own mutex"
    /// instead of one per-process mutex (Figure 1).
    pub per_mapping_superpage_mutex: bool,
    /// "Use non-caching instructions to zero the contents of super-pages"
    /// so zeroing does not flush the on-chip caches (Figure 1).
    pub nocache_superpage_zeroing: bool,
}

impl MmConfig {
    /// Stock Linux 2.6.35-rc5 behaviour.
    pub fn stock(cores: usize) -> Self {
        Self {
            cores,
            numa_nodes: 8,
            pages_per_node: 8 << 20 >> 2, // 8 GB/node of 4 KB pages
            per_mapping_superpage_mutex: false,
            nocache_superpage_zeroing: false,
        }
    }

    /// The PK kernel.
    pub fn pk(cores: usize) -> Self {
        Self {
            per_mapping_superpage_mutex: true,
            nocache_superpage_zeroing: true,
            ..Self::stock(cores)
        }
    }

    /// Maps a core to its NUMA node.
    pub fn node_of_core(&self, core: usize) -> usize {
        let per_node = self.cores.div_ceil(self.numa_nodes).max(1);
        (core / per_node).min(self.numa_nodes - 1)
    }
}

impl Default for MmConfig {
    fn default() -> Self {
        Self::pk(48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Super2M.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn presets() {
        assert!(MmConfig::pk(8).per_mapping_superpage_mutex);
        assert!(!MmConfig::stock(8).per_mapping_superpage_mutex);
        assert_eq!(MmConfig::pk(48).node_of_core(47), 7);
    }
}
