//! Sweeping a workload model across core counts.

use crate::machine::{MachineSpec, TopologyError};
use crate::mva::Network;

/// A workload expressed as a core-count-dependent queueing network plus
/// optional hardware ceilings.
pub trait WorkloadModel {
    /// Workload name (figure legend label).
    fn name(&self) -> String;

    /// The machine being modelled.
    fn machine(&self) -> MachineSpec;

    /// Builds the network for `cores` active cores. Demands may depend
    /// on the core count (e.g. L3 capacity inflation of user time).
    fn network(&self, cores: usize) -> Network;

    /// A hard cap on *total* operations/second at `cores` (NIC packet
    /// rate, DRAM bandwidth), if any.
    fn throughput_cap(&self, _cores: usize) -> Option<f64> {
        None
    }

    /// Operations per application-level unit (e.g. kernel ops per
    /// message); 1.0 by default.
    fn ops_per_unit(&self) -> f64 {
        1.0
    }
}

/// Wraps a model so every network it builds is clustered through
/// [`Network::coarsen`] — the `coarse` kernel personality applied at
/// the model layer. Hardware ceilings and unit conversions pass
/// through untouched; only the lock topology changes.
pub struct Coarsened(pub Box<dyn WorkloadModel>);

impl WorkloadModel for Coarsened {
    fn name(&self) -> String {
        self.0.name()
    }

    fn machine(&self) -> MachineSpec {
        self.0.machine()
    }

    fn network(&self, cores: usize) -> Network {
        self.0.network(cores).coarsen()
    }

    fn throughput_cap(&self, cores: usize) -> Option<f64> {
        self.0.throughput_cap(cores)
    }

    fn ops_per_unit(&self) -> f64 {
        self.0.ops_per_unit()
    }
}

/// One point of a core sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Active cores.
    pub cores: usize,
    /// Application units/second across all cores.
    pub total_per_sec: f64,
    /// Application units/second/core — the paper's y axis.
    pub per_core_per_sec: f64,
    /// User CPU time per unit, microseconds.
    pub user_usec: f64,
    /// System CPU time per unit, microseconds (includes lock waiting,
    /// like the paper's measurements).
    pub system_usec: f64,
    /// Whether a hardware cap (NIC/DRAM) bound this point.
    pub hw_capped: bool,
    /// Fraction of CPU capacity left idle because the hardware cap
    /// starves the cores (0.0 when CPU-bound). Apache reaches 18% at 48
    /// cores (§5.4).
    pub idle_fraction: f64,
    /// Name of the dominant station.
    pub bottleneck: &'static str,
}

/// Sweeps a model over the paper's standard core counts.
#[derive(Debug)]
pub struct CoreSweep;

impl CoreSweep {
    /// The x-axis used by every figure: 1, then multiples of 4 up to 48.
    pub fn paper_core_counts() -> Vec<usize> {
        let mut v = vec![1];
        v.extend((1..=12).map(|i| i * 4));
        v
    }

    /// Evaluates `model` at one core count, first checking that the
    /// count fits the model's machine. This is the sweep entry point
    /// every topology-parameterized caller goes through, so models may
    /// assume validated core counts inside `network()`.
    pub fn try_point<M: WorkloadModel + ?Sized>(
        model: &M,
        cores: usize,
    ) -> Result<SweepPoint, TopologyError> {
        model.machine().validate_cores(cores)?;
        Ok(Self::point(model, cores))
    }

    /// Evaluates `model` at one core count.
    pub fn point<M: WorkloadModel + ?Sized>(model: &M, cores: usize) -> SweepPoint {
        let spec = model.machine();
        let net = model.network(cores);
        let r = net.solve(cores);
        let units_per_cycle = r.ops_per_cycle / model.ops_per_unit();
        let uncapped = units_per_cycle * spec.clock_hz;
        let mut total = uncapped;
        let mut capped = false;
        if let Some(cap) = model.throughput_cap(cores) {
            if total > cap {
                total = cap;
                capped = true;
            }
        }
        // When the hardware cap binds, cores sit idle for the fraction
        // of work they could have done but the device never delivered.
        let idle_fraction = if capped { 1.0 - total / uncapped } else { 0.0 };
        let unit_cycles = model.ops_per_unit();
        SweepPoint {
            cores,
            total_per_sec: total,
            per_core_per_sec: total / cores as f64,
            user_usec: spec.cycles_to_usecs(r.user_cycles_per_op * unit_cycles),
            system_usec: spec.cycles_to_usecs(r.system_cycles_per_op * unit_cycles),
            hw_capped: capped,
            idle_fraction,
            bottleneck: r.bottleneck().name,
        }
    }

    /// Evaluates `model` across the paper's core counts.
    pub fn run<M: WorkloadModel + ?Sized>(model: &M) -> Vec<SweepPoint> {
        Self::paper_core_counts()
            .into_iter()
            .map(|n| Self::point(model, n))
            .collect()
    }

    /// The Figure-3 scalability ratio: per-core throughput at `max_cores`
    /// relative to one core.
    pub fn figure3_ratio<M: WorkloadModel + ?Sized>(model: &M, max_cores: usize) -> f64 {
        let one = Self::point(model, 1).per_core_per_sec;
        let many = Self::point(model, max_cores).per_core_per_sec;
        many / one
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;

    struct Toy {
        lock_cycles: f64,
        cap: Option<f64>,
    }

    impl WorkloadModel for Toy {
        fn name(&self) -> String {
            "toy".into()
        }

        fn machine(&self) -> MachineSpec {
            MachineSpec::paper()
        }

        fn network(&self, _cores: usize) -> Network {
            let mut net = Network::new();
            net.push(Station::delay("user", 10_000.0, false));
            net.push(Station::spinlock("lock", self.lock_cycles, 0.5, true));
            net
        }

        fn throughput_cap(&self, _cores: usize) -> Option<f64> {
            self.cap
        }
    }

    #[test]
    fn paper_core_counts_match_axis() {
        let counts = CoreSweep::paper_core_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 4);
        assert_eq!(*counts.last().unwrap(), 48);
        assert_eq!(counts.len(), 13);
    }

    #[test]
    fn try_point_rejects_oversubscription() {
        let toy = Toy {
            lock_cycles: 100.0,
            cap: None,
        };
        assert!(CoreSweep::try_point(&toy, 48).is_ok());
        let err = CoreSweep::try_point(&toy, 49).unwrap_err();
        assert!(matches!(
            err,
            crate::machine::TopologyError::Oversubscribed { requested: 49, .. }
        ));
    }

    #[test]
    fn contended_toy_has_declining_per_core_throughput() {
        let sweep = CoreSweep::run(&Toy {
            lock_cycles: 2_000.0,
            cap: None,
        });
        assert!(sweep.last().unwrap().per_core_per_sec < sweep[0].per_core_per_sec * 0.5);
        assert_eq!(sweep.last().unwrap().bottleneck, "lock");
    }

    #[test]
    fn figure3_ratio_is_high_for_uncontended() {
        let ratio = CoreSweep::figure3_ratio(
            &Toy {
                lock_cycles: 1.0,
                cap: None,
            },
            48,
        );
        assert!(ratio > 0.9, "nearly perfect scalability: {ratio}");
    }

    #[test]
    fn hardware_cap_applies() {
        let capped = Toy {
            lock_cycles: 1.0,
            cap: Some(100_000.0),
        };
        let p = CoreSweep::point(&capped, 48);
        assert!(p.hw_capped);
        assert!((p.total_per_sec - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_times_are_in_sane_units() {
        let p = CoreSweep::point(
            &Toy {
                lock_cycles: 100.0,
                cap: None,
            },
            1,
        );
        // 10_000 user cycles at 2.4 GHz ≈ 4.17 µs.
        assert!((p.user_usec - 10_000.0 / 2400.0).abs() < 1e-6);
        assert!(p.system_usec > 0.0);
    }
}
