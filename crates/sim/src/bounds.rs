//! Asymptotic (operational) bounds for closed networks.
//!
//! Before solving a network exactly, classical operational analysis
//! already brackets it: with total demand `D = Σ Dᵢ` of queueing
//! stations, per-customer think/delay time `Z`, and bottleneck demand
//! `D_max`,
//!
//! * `X(n) ≤ n / (D + Z)` — even with zero queueing;
//! * `X(n) ≤ 1 / D_max` — the bottleneck's service rate;
//! * the crossing point `n* = (D + Z) / D_max` predicts where the
//!   throughput curve knees.
//!
//! This is the MVA cross-check, not a report input — nothing outside
//! this module's own tests calls [`knee`]. The knee position is where
//! the paper's curves change character (e.g. PostgreSQL's `n* ≈ 36`),
//! and the `bounds_bracket_mva` test keeps the exact solver inside the
//! bounds for every network.

use crate::mva::{Network, StationKind};

/// Operational bounds of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Total per-operation delay-station cycles (`Z`).
    pub delay_cycles: f64,
    /// Total per-operation queueing demand (`D`).
    pub queue_demand_cycles: f64,
    /// The largest single queueing demand (`D_max`), 0 if none.
    pub bottleneck_demand_cycles: f64,
}

impl Bounds {
    /// Upper bound on throughput (ops/cycle) at `n` customers.
    pub fn throughput_bound(&self, n: usize) -> f64 {
        let light = n as f64 / (self.delay_cycles + self.queue_demand_cycles);
        if self.bottleneck_demand_cycles > 0.0 {
            light.min(1.0 / self.bottleneck_demand_cycles)
        } else {
            light
        }
    }

    /// The knee: customers beyond which the bottleneck bound binds.
    /// `None` when the network has no queueing station.
    pub fn knee(&self) -> Option<f64> {
        if self.bottleneck_demand_cycles > 0.0 {
            Some((self.delay_cycles + self.queue_demand_cycles) / self.bottleneck_demand_cycles)
        } else {
            None
        }
    }
}

/// Computes the operational bounds of `net`.
///
/// Non-scalable stations are treated by their *base* demand, so the
/// bounds are those of the equivalent scalable network — an upper bound
/// for the collapsing one too.
pub fn bounds(net: &Network) -> Bounds {
    let mut delay = 0.0;
    let mut demand = 0.0;
    let mut max_d = 0.0f64;
    for s in net.stations() {
        match s.kind {
            StationKind::Delay => delay += s.demand_cycles,
            StationKind::Queue | StationKind::NonScalable { .. } => {
                demand += s.demand_cycles;
                max_d = max_d.max(s.demand_cycles);
            }
        }
    }
    Bounds {
        delay_cycles: delay,
        queue_demand_cycles: demand,
        bottleneck_demand_cycles: max_d,
    }
}

/// Shorthand: the knee of `net`, if any.
pub fn knee(net: &Network) -> Option<f64> {
    bounds(net).knee()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::Station;

    fn sample() -> Network {
        let mut n = Network::new();
        n.push(Station::delay("user", 9_000.0, false));
        n.push(Station::queue("lock", 1_000.0, true));
        n.push(Station::queue("counter", 250.0, true));
        n
    }

    #[test]
    fn bounds_are_computed() {
        let b = bounds(&sample());
        assert_eq!(b.delay_cycles, 9_000.0);
        assert_eq!(b.queue_demand_cycles, 1_250.0);
        assert_eq!(b.bottleneck_demand_cycles, 1_000.0);
        assert!((b.knee().unwrap() - 10.25).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_mva() {
        let net = sample();
        let b = bounds(&net);
        for n in [1, 2, 5, 10, 11, 20, 48] {
            let exact = net.solve(n).ops_per_cycle;
            let bound = b.throughput_bound(n);
            assert!(
                exact <= bound * (1.0 + 1e-9),
                "n={n}: exact {exact} above bound {bound}"
            );
            // And the bound is not absurdly loose below the knee.
            if (n as f64) < b.knee().unwrap() / 2.0 {
                assert!(exact > 0.8 * bound, "n={n}: bound too loose");
            }
        }
    }

    #[test]
    fn delay_only_network_has_no_knee() {
        let mut n = Network::new();
        n.push(Station::delay("user", 100.0, false));
        assert_eq!(knee(&n), None);
        assert_eq!(bounds(&n).throughput_bound(10), 0.1);
    }

    #[test]
    fn postgres_knee_lands_mid_thirties() {
        // The §5.5 collapse position falls out of the model's bounds
        // (inline equivalent of the PostgreSQL stock model's hot
        // station).
        let mut n = Network::new();
        n.push(Station::delay("user+local", 114_286.0 * 0.972, false));
        n.push(Station::spinlock("lseek", 114_286.0 * 0.028, 0.13, true));
        let k = knee(&n).unwrap();
        assert!((30.0..40.0).contains(&k), "knee at {k}");
    }
}
