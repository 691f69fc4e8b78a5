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

/// FNV-1a's starting state, its 64-bit offset basis.
pub const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`: the workspace's one byte-string digest,
/// stable across runs and hosts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_continue(FNV64_BASIS, bytes)
}

/// Continues an FNV-1a digest whose state is `state` over `bytes`:
/// `fnv64_continue(fnv64(a), b) == fnv64(a ++ b)`. What a streaming
/// `Hasher` built on [`fnv64`] calls per write.
#[inline]
pub fn fnv64_continue(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv64_continues_across_writes() {
        assert_eq!(fnv64_continue(fnv64(b"foo"), b"bar"), fnv64(b"foobar"));
        assert_eq!(fnv64_continue(FNV64_BASIS, b""), fnv64(b""));
    }

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
