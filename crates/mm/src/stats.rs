//! Memory-management diagnostics.
//!
//! Every counter is a [`pk_percpu::Tally`] (a load + store on the calling
//! thread's own row, summed when read), so counting a fault writes no
//! shared line.

use std::sync::atomic::Ordering;

pk_percpu::tally_struct! {
    /// Counters of shared events inside the memory-management substrate.
    pub struct MmStats {
        /// Region-list read-lock acquisitions (every soft page fault).
        pub region_read_locks,
        /// Region-list write-lock acquisitions by `mmap`.
        pub mmaps,
        /// Region-list write-lock acquisitions by `munmap`.
        pub munmaps,
        /// 4 KB page faults served.
        pub faults_4k,
        /// 2 MB super-page faults served.
        pub faults_2m,
        /// Super-page faults that serialized on the global mutex (stock).
        pub superpage_global_mutex,
        /// Super-page faults using the per-mapping mutex (PK).
        pub superpage_local_mutex,
        /// Pages allocated from the faulting core's local node.
        pub local_node_allocs,
        /// Pages allocated from a remote node (local node exhausted).
        pub remote_node_allocs,
        /// Bytes zeroed with cache-polluting stores.
        pub cached_zero_bytes,
        /// Bytes zeroed with non-caching stores (PK).
        pub nocache_zero_bytes,
    }
}

impl MmStats {
    /// Total faults of either size.
    pub fn faults(&self) -> u64 {
        self.faults_4k.load(Ordering::Relaxed) + self.faults_2m.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_totals() {
        let s = MmStats::new();
        s.faults_4k.bump();
        s.faults_2m.bump();
        s.faults_2m.add(2);
        assert_eq!(s.faults(), 4);
        s.reset();
        assert_eq!(s.faults(), 0);
    }
}
