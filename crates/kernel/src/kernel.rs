//! The assembled kernel.

use crate::config::KernelConfig;
use crate::error::KernelError;
use pk_fault::FaultPlane;
use pk_mm::{AddressSpace, MmStats, NumaAllocator};
use pk_net::NetStack;
use pk_percpu::CoreId;
use pk_proc::{Pid, ProcessTable};
use pk_vfs::Vfs;
use std::sync::Arc;

/// A running kernel instance: all substrates under one configuration.
///
/// The workloads drive this the way MOSBENCH drives Linux: through
/// syscall-shaped operations that touch the same data structures the
/// paper profiles. Every subsystem keeps its own contention statistics;
/// [`Kernel::obs_snapshot`] gathers them.
///
/// # Examples
///
/// ```
/// use pk_kernel::{Kernel, KernelConfig};
/// use pk_percpu::CoreId;
///
/// let k = Kernel::new(KernelConfig::pk(4));
/// let core = CoreId(0);
/// k.vfs().mkdir_p("/var/mail", core).unwrap();
/// let child = k.fork(pk_proc::Pid(1), core).unwrap();
/// k.vfs().write_file("/var/mail/u1", b"hello", core).unwrap();
/// k.exit(child, core).unwrap();
/// ```
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    vfs: Vfs,
    net: NetStack,
    mm_stats: Arc<MmStats>,
    allocator: Arc<NumaAllocator>,
    procs: ProcessTable,
    proc_stats: crate::procfs::ProcStats,
    faults: Arc<FaultPlane>,
}

impl Kernel {
    /// Boots a kernel under `config` with fault injection disabled.
    pub fn new(config: KernelConfig) -> Self {
        Self::with_faults(config, Arc::new(FaultPlane::disabled()))
    }

    /// Boots a kernel under `config` with every substrate wired to the
    /// given fault plane.
    ///
    /// The plane starts however the caller left it — typically disabled,
    /// so setup traffic runs fault-free; arm schedules and call
    /// [`FaultPlane::enable`] once the workload's steady state begins.
    pub fn with_faults(config: KernelConfig, faults: Arc<FaultPlane>) -> Self {
        let mm_stats = Arc::new(MmStats::new());
        let allocator = Arc::new(NumaAllocator::with_faults(
            config.mm(),
            Arc::clone(&mm_stats),
            &faults,
        ));
        Self {
            vfs: Vfs::with_faults(config.vfs(), &faults),
            net: NetStack::with_faults(config.net(), &faults),
            allocator,
            mm_stats,
            procs: ProcessTable::with_faults(&faults),
            proc_stats: crate::procfs::ProcStats::default(),
            faults,
            config,
        }
    }

    /// The fault-injection plane this kernel was booted with.
    pub fn faults(&self) -> &Arc<FaultPlane> {
        &self.faults
    }

    /// Returns the configuration.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// The virtual file system.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The network stack.
    pub fn net(&self) -> &NetStack {
        &self.net
    }

    /// The physical page allocator.
    pub fn allocator(&self) -> &Arc<NumaAllocator> {
        &self.allocator
    }

    /// Memory-management diagnostics.
    pub fn mm_stats(&self) -> &Arc<MmStats> {
        &self.mm_stats
    }

    /// The process table.
    pub fn procs(&self) -> &ProcessTable {
        &self.procs
    }

    /// procfs read counters.
    pub fn proc_stats(&self) -> &crate::procfs::ProcStats {
        &self.proc_stats
    }

    /// Reads a synthesized `/proc` file (see [`crate::procfs`]).
    pub fn proc_read(&self, path: &str) -> Result<Vec<u8>, KernelError> {
        let _span = pk_trace::trace_span!("kernel.proc_read");
        crate::procfs::read(self, path)
    }

    /// Creates a fresh address space drawing from the kernel's allocator
    /// (one per process in the workloads that need memory modelling).
    pub fn new_address_space(&self) -> Arc<AddressSpace> {
        let _span = pk_trace::trace_span!("kernel.new_address_space");
        Arc::new(AddressSpace::new(
            self.config.mm(),
            Arc::clone(&self.allocator),
            Arc::clone(&self.mm_stats),
        ))
    }

    /// `fork(2)`: creates a child of `parent` on `core`.
    ///
    /// Fails with a transient [`KernelError::Proc`] (`EAGAIN`) when the
    /// `proc.fork_fail` fault fires; callers are expected to back off
    /// and retry.
    pub fn fork(&self, parent: Pid, core: CoreId) -> Result<Pid, KernelError> {
        let _span = pk_trace::trace_span!("kernel.fork");
        Ok(self.procs.fork(parent, core)?.pid)
    }

    /// `exit(2)` + immediate reap by the parent (the common Exim
    /// pattern): one process-table call, one hold of its lock.
    pub fn exit(&self, pid: Pid, _core: CoreId) -> Result<(), KernelError> {
        let _span = pk_trace::trace_span!("kernel.exit");
        Ok(self.procs.exit(pid)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_stock_and_pk() {
        for cfg in [KernelConfig::stock(4), KernelConfig::pk(4)] {
            let k = Kernel::new(cfg);
            assert_eq!(k.config().cores, 4);
            assert_eq!(k.procs().len(), 1);
        }
    }

    #[test]
    fn fork_then_exit_reaps_the_child() {
        let k = Kernel::new(KernelConfig::pk(4));
        let pid = k.fork(Pid(1), CoreId(2)).unwrap();
        assert_eq!(k.procs().len(), 2);
        k.exit(pid, CoreId(2)).unwrap();
        assert_eq!(k.procs().len(), 1);
    }

    #[test]
    fn fork_and_exit_hold_the_process_table_once_each() {
        let k = Kernel::new(KernelConfig::pk(4));
        let holds = || k.procs().lock_stats().acquisitions();
        let before = holds();
        let pid = k.fork(Pid(1), CoreId(1)).unwrap();
        assert_eq!(holds() - before, 1, "one hold per fork");
        k.exit(pid, CoreId(1)).unwrap();
        assert_eq!(holds() - before, 2, "one hold per exit");
    }

    #[test]
    fn vfs_and_net_share_the_kernel() {
        let k = Kernel::new(KernelConfig::pk(4));
        k.vfs().mkdir_p("/srv", CoreId(0)).unwrap();
        k.vfs().write_file("/srv/f", b"x", CoreId(0)).unwrap();
        assert_eq!(k.vfs().read_file("/srv/f", CoreId(0)).unwrap(), b"x");
        assert!(k.net().udp_bind(53, CoreId(1)).is_some());
    }

    #[test]
    fn address_spaces_draw_from_shared_allocator() {
        let k = Kernel::new(KernelConfig::pk(4));
        let asp = k.new_address_space();
        let r = asp.mmap(8 << 10, pk_mm::PageSize::Base4K).unwrap();
        asp.touch_all(r, 0).unwrap();
        assert_eq!(
            k.mm_stats()
                .faults_4k
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn faulted_kernel_surfaces_transient_errors() {
        let faults = Arc::new(FaultPlane::with_seed(42));
        faults.set("proc.fork_fail", pk_fault::FaultSchedule::EveryNth(1));
        let k = Kernel::with_faults(KernelConfig::pk(2), Arc::clone(&faults));

        // Fault-free until armed: setup traffic must not trip the plane.
        let child = k.fork(Pid(1), CoreId(0)).unwrap();
        k.exit(child, CoreId(0)).unwrap();

        faults.enable();
        let err = k.fork(Pid(1), CoreId(0)).unwrap_err();
        assert_eq!(
            err,
            KernelError::Proc(pk_proc::ProcError::ResourceExhausted)
        );
        assert!(err.is_transient());
        faults.disable();

        // The snapshot reports the injection.
        let snap = k.obs_snapshot();
        match &snap.find("fault.proc.fork_fail.injected").unwrap().value {
            pk_obs::MetricValue::Counter(n) => assert_eq!(*n, 1),
            v => panic!("wrong value kind: {v:?}"),
        }
    }
}
