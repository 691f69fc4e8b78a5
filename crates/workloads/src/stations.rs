//! Model stations as data: one table per workload, one `network_from`.
//!
//! The paper explains each application's scalability as a short list of
//! shared structures, each removed by one fix (Figure 1, §4–5). A model
//! states that list as a `const` table of [`Row`]s in visit order — the
//! order is semantic: the first station to saturate captures the queue
//! under the §4.1 collapse feedback. A classed row names only its class;
//! [`network_from`] zeroes it when the fix [`fix_for_class`] binds to
//! that class is enabled, so the binding is stated once, in the registry.

use pk_kernel::{fix_for_class, KernelConfig, Personality, NUM_FIXES};
use pk_sim::{MachineSpec, Network, Station, StationKind, WorkloadModel};

/// [`StationKind::Delay`]: perfectly parallel cycles.
pub const DELAY: StationKind = StationKind::Delay;
/// [`StationKind::Queue`]: serialized, constant service time.
pub const QUEUE: StationKind = StationKind::Queue;
/// Residence counted as system (kernel) time.
pub const SYS: bool = true;
/// Residence counted as user time.
pub const USER: bool = false;

/// A non-scalable spin lock with per-waiter `collapse` (§4.1).
pub const fn spin(collapse: f64) -> StationKind {
    StationKind::NonScalable { collapse }
}

/// The kernel structure behind a station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// None: user code, application locks, core-local kernel work.
    Unclassed,
    /// Zeroed when the fix [`fix_for_class`] binds to it is enabled.
    Lowered(&'static str),
    /// Lowered by no fix in this model (it has no kernel config).
    Unlowered(&'static str),
}

impl Class {
    /// The class name, if any.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Class::Unclassed => None,
            Class::Lowered(c) | Class::Unlowered(c) => Some(c),
        }
    }
}

/// How a row's demand, in cycles per operation, derives from the
/// model's one-core cycles per operation `t` and the core count `n`.
#[derive(Debug)]
pub enum Demand<M: 'static> {
    /// A one-core fraction: `t · f` at every core count.
    Frac(f64),
    /// `t · f` once more than one core runs, zero at one.
    PastOne(f64),
    /// A generation-2 growth coefficient: `t · c · (n − 1)`. Zero at one
    /// core, well under 1 % of `t` at 48, the collapse by 1024 (§14).
    Gen2(f64),
    /// A shaped station, computed by the named function.
    Shaped(&'static str, fn(&Ctx<M>) -> f64),
}

/// `Demand::Shaped` for a function, named after it.
macro_rules! shaped {
    ($f:ident) => {
        $crate::stations::Demand::Shaped(stringify!($f), $f)
    };
}
pub(crate) use shaped;

/// One station of a model's table: `(label, kind, is_system, class,
/// demand)`. The label names it in reports and CPU-time attribution.
#[derive(Debug)]
pub struct Row<M: 'static>(
    pub &'static str,
    pub StationKind,
    pub bool,
    pub Class,
    pub Demand<M>,
);

/// What a shaped demand sees: its model, `t`, `n` and the other rows.
pub struct Ctx<'a, M: 'static> {
    /// The model the table belongs to (its variant, its machine).
    pub model: &'a M,
    /// Cycles per operation on one core.
    pub t: f64,
    /// Active cores.
    pub cores: usize,
    table: &'static [Row<M>],
    config: Option<&'a KernelConfig>,
}

impl<M> Ctx<'_, M> {
    /// The demand of the row labelled `label`, after its fix.
    pub fn demand(&self, label: &str) -> f64 {
        let row = self.table.iter().find(|r| r.0 == label);
        self.eval(row.expect("a shaped demand names a row of its own table"))
    }

    /// The classed one-core-fraction demands, summed in table order: the
    /// shared part of a server's one-core kernel time.
    pub fn shared(&self) -> f64 {
        let shared = self
            .table
            .iter()
            .filter(|r| r.3 != Class::Unclassed && matches!(r.4, Demand::Frac(_)));
        shared.map(|r| self.eval(r)).sum()
    }

    fn eval(&self, row: &Row<M>) -> f64 {
        if let (Class::Lowered(class), Some(config)) = (row.3, self.config) {
            if fix_for_class(class).is_some_and(|fix| config.has(fix)) {
                return 0.0;
            }
        }
        match row.4 {
            Demand::Frac(f) => self.t * f,
            Demand::PastOne(f) if self.cores > 1 => self.t * f,
            Demand::PastOne(_) => 0.0,
            Demand::Gen2(c) => self.t * c * self.cores.saturating_sub(1) as f64,
            Demand::Shaped(_, f) => f(self),
        }
    }
}

/// `table`'s network at `cores` cores, for one-core cycles per op `t`.
/// Rows whose fix `config` enables are zeroed; zero rows drop out.
pub fn network_from<M>(
    table: &'static [Row<M>],
    model: &M,
    t: f64,
    config: Option<&KernelConfig>,
    cores: usize,
) -> Network {
    let cx = Ctx {
        model,
        t,
        cores,
        table,
        config,
    };
    let mut net = Network::new();
    for row in table {
        net.push(Station {
            name: row.0,
            demand_cycles: cx.eval(row),
            kind: row.1,
            is_system: row.2,
            class: row.3.name(),
        });
    }
    net
}

/// A single-core throughput anchor.
#[derive(Debug, Clone, Copy)]
pub enum Anchor {
    /// Operations per second.
    PerSec(f64),
    /// Operations per hour.
    PerHour(f64),
}

impl Anchor {
    /// Cycles per operation on one core of `machine`.
    pub fn cycles(self, machine: &MachineSpec) -> f64 {
        match self {
            Anchor::PerSec(x) => machine.clock_hz / x,
            Anchor::PerHour(x) => machine.clock_hz * 3600.0 / x,
        }
    }
}

/// A workload with one application version: Exim, memcached, Apache
/// and gmake differ only in this data.
#[derive(Debug)]
pub struct Spec {
    /// Figure-legend title; the config's label follows a `/`.
    pub title: &'static str,
    /// Single-core throughput.
    pub anchor: Anchor,
    /// The stations, in visit order.
    pub table: &'static [Row<KernelModel>],
    /// A hard cap on total operations/second at `n` cores (the NIC).
    pub cap: Option<fn(usize) -> f64>,
}

/// The model of a [`Spec`] on one kernel config and machine.
#[derive(Debug, Clone, Copy)]
pub struct KernelModel {
    /// The workload.
    pub spec: &'static Spec,
    /// The kernel's fix set (any subset, for ablations).
    pub config: KernelConfig,
    /// The modelled machine.
    pub machine: MachineSpec,
}

impl WorkloadModel for KernelModel {
    fn name(&self) -> String {
        format!("{}/{}", self.spec.title, config_label(&self.config))
    }

    fn machine(&self) -> MachineSpec {
        self.machine
    }

    fn network(&self, cores: usize) -> Network {
        let t = self.spec.anchor.cycles(&self.machine);
        network_from(self.spec.table, self, t, Some(&self.config), cores)
    }

    fn throughput_cap(&self, cores: usize) -> Option<f64> {
        self.spec.cap.map(|cap| cap(cores))
    }
}

/// A human-readable label for a config: its personality's legend for
/// the presets, "custom(n fixes)" for a hand-picked subset, and — for
/// the adaptive personality — the promoted-fix count.
pub fn config_label(config: &KernelConfig) -> String {
    let personality = config.personality();
    match (personality, config.enabled_count()) {
        (Personality::Adaptive, n) => format!("{}({n} promoted)", personality.legend()),
        (Personality::Coarse, _) => personality.legend().to_string(),
        (_, 0) => Personality::Stock.legend().to_string(),
        (_, NUM_FIXES) => Personality::Pk.legend().to_string(),
        (_, n) => format!("custom({n} fixes)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_kernel::FixId;

    #[test]
    fn labels_cover_all_personalities() {
        assert_eq!(config_label(&KernelConfig::stock(8)), "Stock");
        assert_eq!(config_label(&Personality::Coarse.config(8)), "Coarse");
        assert_eq!(config_label(&KernelConfig::pk(8)), "PK");
        assert_eq!(
            config_label(&KernelConfig::adaptive(8).with_fix(FixId::AtomicLseek, true)),
            "Adaptive(1 promoted)"
        );
        assert_eq!(
            config_label(&KernelConfig::pk(8).with_fix(FixId::AtomicLseek, false)),
            format!("custom({} fixes)", NUM_FIXES - 1)
        );
    }
}
