//! The parallel gmake workload (§3.5, §5.6, Figure 9).
//!
//! Building Linux 2.6.35-rc5: "gmake creates more processes than there
//! are cores, and reads and writes many files"; 7.6% of single-core time
//! is system time. It is the one MOSBENCH application that scales well on
//! the stock kernel — "35 times faster on 48 cores than on one core for
//! both the stock and PK kernels" — limited only by "serial stages at
//! the beginning of the build and straggling processes at the end."

use crate::common::{config_label, demand_unless, gen2_demand};
use pk_fault::FaultPlane;
use pk_kernel::{FixId, Kernel, KernelConfig, KernelError, Personality};
use pk_percpu::CoreId;
use pk_proc::Pid;
use pk_sim::{CoreSweep, MachineSpec, Network, Station, SweepPoint, WorkloadModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Single-core throughput anchor, builds/hour/core (Figure 9).
pub const BUILDS_PER_HOUR_1CORE: f64 = 5.5;
/// System fraction of single-core build time (§3.5).
pub const SYSTEM_FRACTION: f64 = 0.076;
/// Amdahl serial fraction giving the paper's 35× speedup at 48 cores:
/// `48 / (1 + 47 f) = 35`.
pub const SERIAL_FRACTION: f64 = 0.0079;

/// Functional driver: a miniature kernel build over the real substrate.
#[derive(Debug)]
pub struct GmakeDriver {
    kernel: Kernel,
    objects_built: AtomicU64,
}

impl GmakeDriver {
    /// Boots a kernel and lays out a source tree of `sources` files.
    pub fn new(choice: Personality, cores: usize, sources: usize) -> Result<Self, KernelError> {
        Self::with_faults(choice, cores, sources, Arc::new(FaultPlane::disabled()))
    }

    /// Like [`GmakeDriver::new`], with every substrate wired to `faults`.
    pub fn with_faults(
        choice: Personality,
        cores: usize,
        sources: usize,
        faults: Arc<FaultPlane>,
    ) -> Result<Self, KernelError> {
        let kernel = Kernel::with_faults(choice.config(cores), faults);
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/src", core)?;
        kernel.vfs().mkdir_p("/obj", core)?;
        for i in 0..sources {
            kernel.vfs().write_file(
                &format!("/src/f{i}.c"),
                format!("int f{i}();").as_bytes(),
                core,
            )?;
        }
        Ok(Self {
            kernel,
            objects_built: AtomicU64::new(0),
        })
    }

    /// Returns the kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Objects built so far.
    pub fn objects_built(&self) -> u64 {
        self.objects_built.load(Ordering::Relaxed)
    }

    /// Compiles one translation unit on `core`: fork the compiler
    /// process, read the source, write the object, exit.
    pub fn compile(&self, core: usize, source_id: usize) -> Result<(), KernelError> {
        let core_id = CoreId(core);
        let cc = self.kernel.fork(Pid(1), core_id)?;
        let compiled = self.compile_unit(core_id, source_id);
        // Reap the compiler even when it failed; the compile error wins.
        let reaped = self.kernel.exit(cc, core_id);
        compiled.and(reaped)?;
        self.objects_built.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn compile_unit(&self, core: CoreId, source_id: usize) -> Result<(), KernelError> {
        let src = self
            .kernel
            .vfs()
            .read_file(&format!("/src/f{source_id}.c"), core)?;
        let obj: Vec<u8> = src.iter().rev().copied().collect();
        self.kernel
            .vfs()
            .write_file(&format!("/obj/f{source_id}.o"), &obj, core)?;
        Ok(())
    }

    /// Links every object into `/obj/vmlinux` (the serial final stage).
    pub fn link(&self, sources: usize) -> Result<(), KernelError> {
        let core = CoreId(0);
        let ld = self.kernel.fork(Pid(1), core)?;
        let linked = self.link_image(core, sources);
        let reaped = self.kernel.exit(ld, core);
        linked.and(reaped)
    }

    fn link_image(&self, core: CoreId, sources: usize) -> Result<(), KernelError> {
        let mut image = Vec::new();
        for i in 0..sources {
            image.extend(self.kernel.vfs().read_file(&format!("/obj/f{i}.o"), core)?);
        }
        self.kernel.vfs().write_file("/obj/vmlinux", &image, core)?;
        Ok(())
    }
}

/// Figure-9 performance model.
#[derive(Debug, Clone, Copy)]
pub struct GmakeModel {
    /// The kernel's fix set (any subset of the 16, for ablations; the
    /// Stock and PK lines nearly coincide).
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl GmakeModel {
    /// Creates the model.
    pub fn new(choice: Personality) -> Self {
        Self::with_config(choice.config(48))
    }

    /// Creates the model for an arbitrary fix subset.
    pub fn with_config(config: KernelConfig) -> Self {
        Self {
            config,
            machine: MachineSpec::paper(),
        }
    }

    fn total_cycles(&self) -> f64 {
        self.machine.clock_hz * 3600.0 / BUILDS_PER_HOUR_1CORE
    }
}

impl WorkloadModel for GmakeModel {
    fn name(&self) -> String {
        format!("gmake/{}", config_label(&self.config))
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let t = self.total_cycles();
        // Serial stages + stragglers: while one core runs the serial
        // work, the other `cores − 1` wait, so per-build the serial
        // phases cost every participant `f·t·cores` cycles of wall time
        // — Amdahl's law expressed as an n-scaled delay:
        // X(n) = n / (t(1−f) + f·t·n) = n / (t(1 + f(n−1))).
        let serial = t * SERIAL_FRACTION * cores as f64;
        // A little dentry-refcount traffic on the stock kernel ("the PK
        // kernel shows slightly lower system time owing to the changes to
        // the dentry cache"), far too small to matter.
        let dentry = demand_unless(&self.config, FixId::SloppyDentryRefs, t * 0.0006);
        let system_local = t * SYSTEM_FRACTION - dentry - t * SERIAL_FRACTION;
        let user = t - t * SYSTEM_FRACTION;
        // Generation-2 growth station: every compiler process's
        // fork/exec/exit churns pages through the global freelist —
        // nothing at 48 cores, the kernel-side collapse at 1024.
        let page_freelist = demand_unless(
            &self.config,
            FixId::PerSocketPageFreelists,
            gen2_demand(t, 0.000_06, cores),
        );

        let mut net = Network::new();
        net.push(Station::delay("compiler (user)", user, false));
        net.push(Station::delay("kernel-local", system_local, true));
        net.push(Station::delay("serial stages + stragglers", serial, false));
        // Gen-2 station first in visit order: past ~96 cores it is the
        // first to saturate and captures the collapse queue.
        net.push(
            Station::spinlock("global page freelist", page_freelist, 0.25, true)
                .with_class("mm.page_freelist"),
        );
        net.push(Station::queue("dentry refcounts", dentry, true).with_class("vfs.dentry_ref"));
        net
    }
}

/// Runs the Figure-9 sweep for one kernel.
pub fn figure9(choice: Personality) -> Vec<SweepPoint> {
    CoreSweep::run(&GmakeModel::new(choice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_anchor() {
        let p = CoreSweep::point(&GmakeModel::new(Personality::Stock), 1);
        let per_hour = p.per_core_per_sec * 3600.0;
        assert!((per_hour - BUILDS_PER_HOUR_1CORE).abs() / BUILDS_PER_HOUR_1CORE < 0.01);
    }

    #[test]
    fn figure9_shapes() {
        for choice in [Personality::Stock, Personality::Pk] {
            let sweep = figure9(choice);
            let speedup = sweep.last().unwrap().total_per_sec / sweep[0].total_per_sec;
            assert!(
                (32.0..38.0).contains(&speedup),
                "{choice:?}: ~35× speedup at 48 cores, got {speedup:.1}"
            );
        }
        // PK system time is slightly lower than stock.
        let stock48 = figure9(Personality::Stock).last().unwrap().system_usec;
        let pk48 = figure9(Personality::Pk).last().unwrap().system_usec;
        assert!(pk48 < stock48);
        assert!(pk48 > stock48 * 0.95, "only *slightly* lower");
    }

    #[test]
    fn driver_builds_and_links() {
        let d = GmakeDriver::new(Personality::Pk, 4, 12).unwrap();
        for i in 0..12 {
            d.compile(i % 4, i).unwrap();
        }
        d.link(12).unwrap();
        assert_eq!(d.objects_built(), 12);
        let st = d.kernel().vfs().stat("/obj/vmlinux", CoreId(0)).unwrap();
        assert!(st.size > 0);
        // One process per compile + one linker, all reaped.
        assert_eq!(d.kernel().procs().fork_count(), 13);
        assert_eq!(d.kernel().procs().len(), 1);
    }
}
