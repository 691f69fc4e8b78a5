//! The one definition of the histogram's bucket boundaries.
//!
//! The record path ([`crate::HistogramSnapshot::record`]) and the
//! report path ([`crate::HistogramSnapshot::quantile`]) must agree on where buckets begin and end, or quantile
//! bounds silently drift off the recorded samples. Both sides import
//! these helpers instead of re-deriving the arithmetic; the tests below
//! pin the two directions against each other.
//!
//! Two segments (DESIGN.md §15): plain log2 buckets below `2^TAIL_SPLIT`
//! — fine enough at small values, where a power-of-two bucket is only a
//! handful of cycles wide — and 8 sub-buckets per octave above it
//! (3 extra mantissa bits). Latency tails live far above the split, and
//! a pure log2 bucket there answers "p999 ≤ 2·p999_true", useless for
//! attribution; the tail segment bounds the quantile's relative error
//! at `1/8` everywhere above the split.

/// Octave below which buckets stay plain log2. `2^12 = 4096` cycles is
/// well under every serving SLO bound, so the tail segment covers the
/// entire region p99/p999 attribution cares about.
pub const TAIL_SPLIT: usize = 12;

/// Sub-buckets per octave above the split (3 mantissa bits), giving a
/// worst-case relative quantile error of `1/SUBDIV` in the tail.
pub const SUBDIV: usize = 8;

/// Total bucket count: bucket `0` holds zeros; buckets `1..=TAIL_SPLIT`
/// hold `floor(log2(v)) == i − 1` (values below `2^TAIL_SPLIT`); above
/// the split each of the remaining `64 − TAIL_SPLIT` octaves gets
/// `SUBDIV` buckets.
pub const BUCKETS: usize = TAIL_SPLIT + 1 + (64 - TAIL_SPLIT) * SUBDIV;

/// Bucket index a value records into.
#[inline]
pub const fn bucket_of(value: u64) -> usize {
    if value < (1u64 << TAIL_SPLIT) {
        (64 - value.leading_zeros()) as usize
    } else {
        let e = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (e - 3)) & (SUBDIV as u64 - 1)) as usize;
        TAIL_SPLIT + 1 + (e - TAIL_SPLIT) * SUBDIV + sub
    }
}

/// Inclusive upper edge of bucket `i`: the largest value that records
/// into it (0 for the zero bucket, saturating at `u64::MAX` for the top
/// bucket). Quantile answers quote this edge.
#[inline]
pub const fn bucket_upper_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else if i <= TAIL_SPLIT {
        (1u64 << i) - 1
    } else {
        let k = i - TAIL_SPLIT - 1;
        let e = TAIL_SPLIT + k / SUBDIV;
        let sub = (k % SUBDIV) as u64;
        (1u64 << e) + ((sub + 1) << (e - 3)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift test: for every bucket, the record path must place the
    /// bucket's own upper edge in that bucket, and the next value in
    /// the next one — i.e. `bucket_of` and `bucket_upper_edge` describe
    /// the same boundaries.
    #[test]
    fn record_and_report_boundaries_match() {
        for i in 0..BUCKETS {
            let edge = bucket_upper_edge(i);
            assert_eq!(bucket_of(edge), i, "upper edge of bucket {i}");
            if let Some(next) = edge.checked_add(1) {
                assert_eq!(bucket_of(next), i + 1, "first value past bucket {i}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn coarse_segment_edges_are_the_documented_powers_of_two() {
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(2), 3);
        assert_eq!(bucket_upper_edge(10), 1023);
        assert_eq!(bucket_upper_edge(TAIL_SPLIT), 4095);
        assert_eq!(bucket_upper_edge(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn tail_segment_subdivides_each_octave() {
        // First tail octave [4096, 8192) splits into 8 equal buckets
        // of width 512.
        for s in 0..SUBDIV {
            assert_eq!(
                bucket_upper_edge(TAIL_SPLIT + 1 + s),
                4096 + 512 * (s as u64 + 1) - 1
            );
        }
        // Every value's reported edge overshoots by less than 1/SUBDIV.
        for v in [5000u64, 70_000, 1 << 30, (1 << 52) + 12345] {
            let edge = bucket_upper_edge(bucket_of(v));
            assert!(edge >= v);
            assert!(
                (edge - v) as f64 / v as f64 <= 1.0 / SUBDIV as f64,
                "v={v} edge={edge}"
            );
        }
    }
}
