//! Fault schedules: when a registered point fires.

/// A splitmix64-style avalanche over one 64-bit word.
///
/// Used to derive an independent, uniformly distributed decision word
/// from `(seed, point id, arrival index)`. The construction is the same
/// finalizer the NIC's RSS hash and the vendored `rand` seeding use, so
/// consecutive arrival indices decorrelate fully.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the decision word for the `n`th arrival at point `point_id`
/// under `seed`.
fn decision_word(seed: u64, point_id: u64, n: u64) -> u64 {
    mix64(seed ^ point_id.rotate_left(17) ^ mix64(n))
}

/// When an injection point fires.
///
/// Every variant is a pure function of `(seed, point, arrival index)`:
/// two runs with the same seed inject the same faults at the same
/// arrivals no matter how threads interleave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSchedule {
    /// Never fires (the default for every registered point).
    Never,
    /// Fires each arrival independently with this probability in `[0, 1]`.
    Probability(f64),
    /// Fires on every `N`th arrival (the `N-1`th, `2N-1`th, ... 0-indexed).
    EveryNth(u64),
    /// Fires exactly once, at the given 0-indexed arrival count.
    OneShot(u64),
}

impl FaultSchedule {
    /// Whether the `n`th arrival (0-indexed) at `point_id` fires under
    /// `seed`.
    pub fn fires(self, seed: u64, point_id: u64, n: u64) -> bool {
        match self {
            Self::Never => false,
            Self::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                // 53 uniform bits, the same construction the vendored
                // rand uses for `gen::<f64>()`.
                let u =
                    (decision_word(seed, point_id, n) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                u < p
            }
            Self::EveryNth(k) => k > 0 && (n + 1).is_multiple_of(k),
            Self::OneShot(at) => n == at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_fires() {
        for n in 0..1000 {
            assert!(!FaultSchedule::Never.fires(42, 7, n));
        }
    }

    #[test]
    fn every_nth_fires_on_schedule() {
        let s = FaultSchedule::EveryNth(3);
        let fired: Vec<u64> = (0..10).filter(|&n| s.fires(0, 0, n)).collect();
        assert_eq!(fired, [2, 5, 8]);
        assert!(!FaultSchedule::EveryNth(0).fires(0, 0, 0), "0 is never");
    }

    #[test]
    fn one_shot_fires_once() {
        let s = FaultSchedule::OneShot(4);
        let fired: Vec<u64> = (0..10).filter(|&n| s.fires(9, 9, n)).collect();
        assert_eq!(fired, [4]);
    }

    #[test]
    fn probability_edge_cases() {
        assert!(!FaultSchedule::Probability(0.0).fires(1, 1, 1));
        assert!(FaultSchedule::Probability(1.0).fires(1, 1, 1));
    }

    #[test]
    fn probability_hits_close_to_rate() {
        let s = FaultSchedule::Probability(0.01);
        let hits = (0..100_000).filter(|&n| s.fires(42, 3, n)).count();
        assert!(
            (700..1300).contains(&hits),
            "1% of 100k should be ~1000, got {hits}"
        );
    }

    #[test]
    fn decisions_depend_only_on_inputs() {
        let s = FaultSchedule::Probability(0.1);
        for n in 0..500 {
            assert_eq!(s.fires(7, 1, n), s.fires(7, 1, n));
        }
        // Different seeds and different points give different traces.
        let trace =
            |seed, point| -> Vec<u64> { (0..500).filter(|&n| s.fires(seed, point, n)).collect() };
        assert_ne!(trace(7, 1), trace(8, 1), "seed matters");
        assert_ne!(trace(7, 1), trace(7, 2), "point identity matters");
    }

    #[test]
    fn mix64_avalanches() {
        // Adjacent inputs must not give adjacent outputs.
        let a = mix64(1);
        let b = mix64(2);
        assert!((a ^ b).count_ones() > 10);
    }
}
