//! Kernel-wide observability: one call gathers every subsystem's
//! contention counters into a [`pk_obs::Snapshot`].
//!
//! This is the functional-kernel counterpart of the simulator's
//! per-station snapshot: the same names the queueing models use for
//! their stations (e.g. `vfsmount-table lock`) appear here with
//! *measured* acquisition and contention counts, so a report can put
//! model and measurement side by side.

use crate::kernel::Kernel;
use pk_obs::{LockSample, Sample, Snapshot};
use pk_percpu::Tally;
use std::sync::atomic::Ordering;

fn load(c: &Tally) -> u64 {
    c.load(Ordering::Relaxed)
}

impl Kernel {
    /// Samples every subsystem's contention counters.
    ///
    /// The snapshot contains lock samples for the shared locks the
    /// paper singles out, central-vs-local operation mixes for every
    /// substrate that keeps them, and plain counters for CPU time and
    /// fault totals.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();

        // The vfsmount-table lock: the stock kernel's Exim bottleneck
        // (Figure 4), sampled from the real SpinLock's stats.
        snap.push(
            self.vfs()
                .mounts()
                .central_lock_stats()
                .sample("vfsmount-table lock"),
        );

        // NUMA page-allocator node locks, aggregated across nodes.
        let nodes = self.config().mm().numa_nodes;
        let mut agg = LockSample {
            acquisitions: 0,
            contended: 0,
            spin_cycles: 0,
        };
        for node in 0..nodes {
            let s = self.allocator().node_lock_stats(node);
            agg.acquisitions += s.acquisitions();
            agg.contended += s.contended();
            agg.spin_cycles += s.spin_cycles();
        }
        snap.push(Sample::lock("numa-node free-list locks", agg));

        // Central-vs-local operation mixes: the quantity every PK fix
        // drives toward "local".
        let v = self.vfs().stats();
        snap.push(Sample::op_mix(
            "vfs.mount-lookup",
            load(&v.mount_central_lookups),
            load(&v.mount_percore_hits),
        ));
        snap.push(Sample::op_mix(
            "vfs.dentry-lookup",
            load(&v.dentry_lock_acquisitions),
            load(&v.lockfree_lookups),
        ));
        snap.push(Sample::op_mix(
            "vfs.open-file-list",
            load(&v.open_list_global_ops),
            load(&v.open_list_percore_ops),
        ));
        snap.push(Sample::op_mix(
            "vfs.lseek",
            load(&v.lseek_mutex_acquisitions),
            load(&v.lseek_atomic_reads),
        ));
        snap.push(Sample::op_mix(
            "vfs.events",
            v.shared_events(),
            v.local_events(),
        ));

        let n = self.net().stats();
        snap.push(Sample::op_mix(
            "net.skb-alloc",
            load(&n.skb_global_allocs),
            load(&n.skb_percore_allocs),
        ));
        let (dst_shared, dst_local) = self.net().dst_cache().op_counts();
        snap.push(Sample::op_mix("net.dst-cache", dst_shared, dst_local));
        snap.push(Sample::op_mix(
            "net.accept-queue",
            load(&n.accept_shared_queue),
            load(&n.accept_local_queue),
        ));

        let m = self.mm_stats();
        snap.push(Sample::op_mix(
            "mm.superpage-mutex",
            load(&m.superpage_global_mutex),
            load(&m.superpage_local_mutex),
        ));
        snap.push(Sample::op_mix(
            "mm.page-alloc-node",
            load(&m.remote_node_allocs),
            load(&m.local_node_allocs),
        ));

        // Plain totals.
        snap.push(Sample::counter("mm.faults", self.mm_stats().faults()));
        snap.push(Sample::counter(
            "proc.stat-reads",
            self.proc_stats().stat_reads.load(Ordering::Relaxed),
        ));
        let (user, system) = self.cpu().totals();
        snap.push(Sample::counter("cpu.user-cycles", user));
        snap.push(Sample::counter("cpu.system-cycles", system));

        // Fault-injection counters: `fault.<point>.checked` and
        // `fault.<point>.injected` for every registered point, so chaos
        // runs report injected failures next to the contention they cause.
        pk_obs::Collect::collect(self.faults().as_ref(), &mut snap);

        // RCU reclamation counters (`rcu.*`): process-global, since the
        // epoch machinery is shared by every kernel in the process. They
        // let chaos runs assert no deferred callback leaked or ran twice
        // (`rcu.call_rcu == rcu.deferred_freed + rcu.deferred_pending`).
        pk_obs::Collect::collect(&pk_sync::rcu::RcuObs, &mut snap);

        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use pk_obs::MetricValue;
    use pk_percpu::CoreId;

    #[test]
    fn snapshot_names_the_mount_lock() {
        let k = Kernel::new(KernelConfig::stock(4));
        // Drive some VFS traffic through the kernel so the counters move.
        let core = CoreId(0);
        k.vfs().mkdir_p("/var/spool/exim", core).unwrap();
        k.vfs()
            .write_file("/var/spool/exim/input", b"hello", core)
            .unwrap();
        for _ in 0..10 {
            k.vfs().read_file("/var/spool/exim/input", core).unwrap();
        }
        let snap = k.obs_snapshot();
        let lock = snap
            .find("vfsmount-table lock")
            .expect("mount lock sampled");
        match &lock.value {
            MetricValue::Lock(l) => {
                assert!(l.acquisitions > 0, "path resolution takes the mount lock")
            }
            v => panic!("wrong value kind: {v:?}"),
        }
        assert!(snap.find("vfs.events").is_some());
        assert!(snap.find("cpu.user-cycles").is_some());
        assert!(
            snap.find("rcu.call_rcu").is_some(),
            "RCU reclamation counters are part of the kernel snapshot"
        );
    }

    #[test]
    fn pk_kernel_keeps_mount_lookups_local() {
        let stock = Kernel::new(KernelConfig::stock(4));
        let pk = Kernel::new(KernelConfig::pk(4));
        for k in [&stock, &pk] {
            k.vfs().mkdir_p("/tmp/a", CoreId(1)).unwrap();
            for _ in 0..50 {
                let _ = k.vfs().stat("/tmp/a", CoreId(1));
            }
        }
        let mix = |k: &Kernel| match &k.obs_snapshot().find("vfs.mount-lookup").unwrap().value {
            MetricValue::OpMix { central, local } => (*central, *local),
            v => panic!("wrong value kind: {v:?}"),
        };
        let (stock_central, _) = mix(&stock);
        let (pk_central, pk_local) = mix(&pk);
        assert!(
            pk_central < stock_central,
            "PK per-core mount caches shed central lookups: stock={stock_central}, pk={pk_central}"
        );
        assert!(pk_local > 0, "PK serves lookups from per-core caches");
    }

    /// The `net.dst-cache` row is every destination's refcount traffic.
    /// A row that mirrored the last-routed destination would drop to
    /// `(1, 0)` at the one packet to the second address.
    #[test]
    fn dst_cache_row_sums_every_destination_and_never_decreases() {
        use pk_net::SockAddr;
        for k in [
            Kernel::new(KernelConfig::stock(4)),
            Kernel::new(KernelConfig::pk(4)),
        ] {
            let row = || match &k.obs_snapshot().find("net.dst-cache").unwrap().value {
                MetricValue::OpMix { central, local } => (*central, *local),
                v => panic!("wrong value kind: {v:?}"),
            };
            let send = |ip| {
                let (from, to) = (SockAddr::new(0x0a00_0001, 9), SockAddr::new(ip, 11211));
                k.net()
                    .udp_send(CoreId(1), from, to, bytes::Bytes::from_static(b"get k"))
                    .unwrap();
            };
            assert_eq!(row(), (0, 0));
            for _ in 0..100 {
                send(0x0a00_0002);
            }
            let hot = row();
            assert!(hot.0 + hot.1 >= 200, "100 get/put pairs: {hot:?}");
            send(0x0a00_0003);
            let both = row();
            assert!(both.0 >= hot.0 && both.1 >= hot.1, "{hot:?} -> {both:?}");
            assert!(both.0 + both.1 >= hot.0 + hot.1 + 2, "{hot:?} -> {both:?}");
            assert_eq!(both, k.net().dst_cache().op_counts());
            assert_eq!(row(), both, "reading the row moves nothing");
        }
    }
}
