//! The parallel gmake workload (§3.5, §5.6, Figure 9).
//!
//! Building Linux 2.6.35-rc5: "gmake creates more processes than there
//! are cores, and reads and writes many files"; 7.6% of single-core time
//! is system time. It is the one MOSBENCH application that scales well on
//! the stock kernel — "35 times faster on 48 cores than on one core for
//! both the stock and PK kernels" — limited only by "serial stages at
//! the beginning of the build and straggling processes at the end."
//!
//! This module is the model; the functional driver is
//! [`ParallelMake`](crate::gmake_exec::ParallelMake) over
//! [`BuildGraph::kernel_build`](crate::gmake_exec::BuildGraph::kernel_build).

use crate::stations::{Class::*, Demand::*, *};
use pk_kernel::Personality;
use pk_sim::{CoreSweep, SweepPoint};

/// Single-core throughput anchor, builds/hour/core (Figure 9).
pub const BUILDS_PER_HOUR_1CORE: f64 = 5.5;
/// System fraction of single-core build time (§3.5).
pub const SYSTEM_FRACTION: f64 = 0.076;
/// Amdahl serial fraction giving the paper's 35× speedup at 48 cores:
/// `48 / (1 + 47 f) = 35`.
pub const SERIAL_FRACTION: f64 = 0.0079;

/// Figure-9 performance model: cycles per build. The Stock and PK lines
/// nearly coincide.
#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    title: "gmake",
    anchor: Anchor::PerHour(BUILDS_PER_HOUR_1CORE),
    table: &[
        Row("compiler (user)", DELAY, USER, Unclassed, shaped!(user)),
        Row("kernel-local", DELAY, SYS, Unclassed, shaped!(system_local)),
        Row("serial stages + stragglers", DELAY, USER, Unclassed, shaped!(serial)),
        // Generation-2 growth station, first in visit order: every
        // compiler process's fork/exec/exit churns pages through the
        // global freelist — nothing at 48 cores, the kernel-side
        // collapse at 1024; past ~96 cores it is the first to saturate
        // and captures the collapse queue.
        Row("global page freelist", spin(0.25), SYS, Lowered("mm.page_freelist"), Gen2(0.000_06)),
        // A little dentry-refcount traffic on the stock kernel ("the PK
        // kernel shows slightly lower system time owing to the changes
        // to the dentry cache"), far too small to matter.
        Row("dentry refcounts", QUEUE, SYS, Lowered("vfs.dentry_ref"), Frac(0.0006)),
    ],
    cap: None,
};

fn user(c: &Ctx<KernelModel>) -> f64 {
    c.t - c.t * SYSTEM_FRACTION
}

fn system_local(c: &Ctx<KernelModel>) -> f64 {
    c.t * SYSTEM_FRACTION - c.demand("dentry refcounts") - c.t * SERIAL_FRACTION
}

/// Serial stages + stragglers: while one core runs the serial work, the
/// other `cores − 1` wait, so per build the serial phases cost every
/// participant `f·t·cores` cycles of wall time — Amdahl's law expressed
/// as an n-scaled delay: X(n) = n / (t(1−f) + f·t·n) = n / (t(1 + f(n−1))).
fn serial(c: &Ctx<KernelModel>) -> f64 {
    c.t * SERIAL_FRACTION * c.cores as f64
}

/// Runs the Figure-9 sweep for one kernel.
pub fn figure9(choice: Personality) -> Vec<SweepPoint> {
    CoreSweep::run(&*crate::roster::model("gmake", choice).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
