//! The exponential draw behind every service time and arrival gap,
//! without a libm call on the common path.
//!
//! Every engine turns a uniform `u` into cycles as
//! `(-mean * u.ln()).max(1.0) as u64`, and that expression is pinned:
//! the goldens, the stream digests and `BENCH_scale.json` are its
//! bits. [`exp_cycles`] returns exactly that integer. It computes `y`
//! with an inline logarithm whose error against `f64::ln` is far below
//! a guard band, and trusts `y` only where an error that small cannot
//! move the truncated result: `y` clearly below 1 (the clamp), or `y`
//! whose fraction sits more than the guard away from an integer. Every
//! other input (`y` near an integer, NaN, infinite or past 2⁵³, `u`
//! outside the positive normals, or a mean so large that the guard
//! would refuse a good share of its draws) takes the pinned expression
//! itself.
//!
//! The logarithm splits `u = 2^e · m`, `m ∈ [1, 2)`, and reduces `m` by
//! the centre `c` of its 1/128-wide cell: `r = m·(1/c) − 1`, so
//! `|r| ≤ 2⁻⁸` and `ln u = e·ln 2 − ln(1/c) + ln(1 + r)`, the last term
//! a degree-5 polynomial (truncation `r⁶/6 ≤ 6·10⁻¹⁶`). The table's
//! `ln(1/c)` comes from a `const fn` series, so it is the same on every
//! platform, like the rest of the arithmetic: no FMA, no libm.

/// Cells per binade of the reduction table.
const CELLS: usize = 128;

/// `(1/c, ln(1/c))` for the centre `c = 1 + (i + ½)/128` of each cell.
const TABLE: [(f64, f64); CELLS] = table();

const fn table() -> [(f64, f64); CELLS] {
    let mut t = [(0.0, 0.0); CELLS];
    let mut i = 0;
    while i < CELLS {
        let inv_c = 1.0 / (1.0 + (i as f64 + 0.5) / CELLS as f64);
        t[i] = (inv_c, ln_series(inv_c));
        i += 1;
    }
    t
}

/// `ln x` for `x ∈ [½, 1]` by `ln x = 2·Σ z^(2k+1)/(2k+1)`,
/// `z = (x−1)/(x+1)`, `|z| ≤ ⅓`: 30 terms leave the tail below 10⁻²⁹.
const fn ln_series(x: f64) -> f64 {
    let z = (x - 1.0) / (x + 1.0);
    let z2 = z * z;
    let mut term = z;
    let mut sum = 0.0;
    let mut k = 0;
    while k < 30 {
        sum += term / (2 * k + 1) as f64;
        term *= z2;
        k += 1;
    }
    2.0 * sum
}

/// Error per cycle of mean the guard band allows for. `|ln_inline(u) −
/// u.ln()|` is under 2·10⁻¹⁵ over the draws' range `[10⁻¹², 1)` and
/// under 3·10⁻¹³ over all positive normals, where `|ln u|` reaches 709
/// and its last bit is worth 10⁻¹³ (the tests hold the draws' range to
/// 10⁻¹³); the two products' rounding adds at most
/// `2⁻⁵²·|y| ≤ 1.6·10⁻¹³·mean`.
const LN_ERROR: f64 = 1e-12;

/// Means from here up draw through the pinned expression directly. The
/// guard band `mean·10⁻¹²` sends about `2·mean·10⁻¹²` of the draws there
/// anyway, ≥ 0.9 % from 2³² cycles and all of them from 5·10¹¹ (the
/// whole-build and whole-sort stations of gmake, pedsort and Metis),
/// and computing `y` first only adds a mispredicted branch to each.
const MEAN_MAX: f64 = (1u64 << 32) as f64;

/// Natural logarithm of a positive normal `u`, to within a few 10⁻¹⁵
/// of `f64::ln`.
#[inline]
fn ln_inline(u: f64) -> f64 {
    let bits = u.to_bits();
    let e = (bits >> 52) as i64 - 1023;
    let m = f64::from_bits((bits & ((1 << 52) - 1)) | 1f64.to_bits());
    let (inv_c, ln_inv_c) = TABLE[(bits >> 45) as usize % CELLS];
    let r = m * inv_c - 1.0;
    let log1p = r + r * r * (-0.5 + r * (1.0 / 3.0 + r * (-0.25 + r * 0.2)));
    e as f64 * std::f64::consts::LN_2 - ln_inv_c + log1p
}

/// `(-mean * u.ln()).max(1.0) as u64` when the inline logarithm decides
/// it exactly; `None` when the result could depend on the last bits of
/// `ln` and only the pinned expression may answer.
#[inline]
fn exp_cycles_inline(u: f64, mean: f64) -> Option<u64> {
    if !(f64::MIN_POSITIVE..=f64::MAX).contains(&u) || !(..MEAN_MAX).contains(&mean) {
        return None;
    }
    let y = -mean * ln_inline(u);
    // The constant covers small means. For a negative mean every `y` is
    // below `1 − g`, as the pinned clamp wants.
    let g = mean * LN_ERROR + 1e-9;
    if y < 1.0 - g {
        return Some(1);
    }
    // Past 2⁵³ a double has no fraction left to judge; NaN fails here.
    if y < (1u64 << 53) as f64 {
        let t = y as i64;
        // Exact: `1 ≤ t ≤ y < 2t`.
        let frac = y - t as f64;
        if t >= 1 && frac > g && frac < 1.0 - g {
            return Some(t as u64);
        }
    }
    None
}

/// The pinned expression, out of line: below `MEAN_MAX` it is rare.
#[cold]
#[inline(never)]
fn exp_cycles_libm(u: f64, mean: f64) -> u64 {
    (-mean * u.ln()).max(1.0) as u64
}

/// The exponential inverse-CDF draw: cycles for the uniform `u` at the
/// given mean, clamped to at least one. Equal to
/// `(-mean * u.ln()).max(1.0) as u64` for every input, bit for bit; it
/// calls `f64::ln` only where `−mean·ln u` lies within
/// `mean·10⁻¹² + 10⁻⁹` of an integer or is not a finite value below 2⁵³,
/// and for means of 2³² cycles or more (see the module docs).
#[inline]
pub fn exp_cycles(u: f64, mean: f64) -> u64 {
    match exp_cycles_inline(u, mean) {
        Some(cycles) => cycles,
        None => exp_cycles_libm(u, mean),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// From nothing to gmake's whole-build station, which is past
    /// `MEAN_MAX`.
    const MEANS: [f64; 9] = [0.0, 1e-12, 0.5, 1.0, 1_777.0, 2.3e6, 1e7, 1e9, 1.45152e12];

    /// The uniforms `des::service` draws, from one seeded stream.
    fn uniforms(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(move |_| ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-12))
    }

    /// Every cell boundary of the table in a few binades of the draw's
    /// range `[1e-12, 1)`, with the representable values either side.
    fn cell_edges() -> Vec<f64> {
        let mut us = Vec::new();
        for scale in [0.5, 2f64.powi(-9), 2f64.powi(-20), 2f64.powi(-39)] {
            for i in 0..CELLS {
                let edge = (1.0 + i as f64 / CELLS as f64) * scale;
                us.extend([edge.next_down(), edge, edge.next_up()]);
            }
        }
        us.extend([1e-12, 1.0 - 2f64.powi(-53)]);
        us
    }

    fn pinned(u: f64, mean: f64) -> u64 {
        (-mean * u.ln()).max(1.0) as u64
    }

    #[test]
    fn table_matches_libm() {
        for (i, &(inv_c, ln_inv_c)) in TABLE.iter().enumerate() {
            // Within two ulp of `ln(1/c) ∈ [−ln 2, 0]`.
            assert!((ln_inv_c - inv_c.ln()).abs() <= 4.5e-16, "cell {i}");
        }
    }

    #[test]
    fn inline_ln_stays_within_1e13_of_libm() {
        let mut worst = 0.0f64;
        for u in cell_edges().into_iter().chain(uniforms(42, 1_000_000)) {
            worst = worst.max((ln_inline(u) - u.ln()).abs());
        }
        assert!(worst <= 1e-13, "worst |ln_inline − ln| = {worst:e}");
    }

    #[test]
    fn equals_the_pinned_expression_on_edges_and_seeded_draws() {
        for mean in MEANS {
            for u in cell_edges().into_iter().chain(uniforms(7, 1_000_000)) {
                assert_eq!(exp_cycles(u, mean), pinned(u, mean), "u={u:e} mean={mean}");
            }
        }
    }

    #[test]
    fn values_on_an_integer_take_the_pinned_expression() {
        // `mean = k / −ln u` puts `y` within a few ulp of the integer
        // `k`, where the guard must refuse to decide.
        for (i, u) in uniforms(42, 20_000).enumerate() {
            let k = 1 + (i as u64 * 7_919) % 1_000_000;
            let mean = k as f64 / -u.ln();
            assert_eq!(exp_cycles_inline(u, mean), None, "u={u:e} k={k}");
            assert_eq!(exp_cycles(u, mean), pinned(u, mean), "u={u:e} k={k}");
        }
    }

    #[test]
    fn inputs_outside_the_fast_domain_take_the_pinned_expression() {
        for (u, mean) in [
            (0.5, f64::NAN),
            (0.5, f64::INFINITY),
            (0.5, f64::NEG_INFINITY),
            (0.5, -3.0),
            (1e-12, 1e300),
            (0.0, 5.0),
            (f64::MIN_POSITIVE / 2.0, 5.0),
            (1.0, 5.0),
            (f64::NAN, 5.0),
        ] {
            assert_eq!(exp_cycles(u, mean), pinned(u, mean), "u={u:e} mean={mean}");
        }
        assert_eq!(exp_cycles_inline(0.5, f64::NAN), None);
        assert_eq!(exp_cycles_inline(0.5, MEAN_MAX), None);
        assert_eq!(exp_cycles_inline(1e-12, 1e300), None);
        assert_eq!(exp_cycles_inline(0.0, 5.0), None);
    }
}
