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
//! other input (`y` near an integer, NaN, infinite or past 2⁵³, or a
//! mean so large that the guard would refuse a good share of its draws)
//! takes the pinned expression itself.
//!
//! The guard band is sized to the draws' domain. The engines clamp `u`
//! to `[10⁻¹², 1)`, where the inline logarithm is within
//! `LN_ABS + LN_REL·|ln u|` of libm's: a constant 8·10⁻¹⁶ from the
//! series and the table, and `2.5·ε·|ln u|` from the roundings of the
//! sums and of libm. With the products' rounding that bounds
//! `|y − pinned|` by `mean·LN_ABS + |y|·(LN_REL + ε)`, and the band,
//! half as much again, is `mean·GUARD_ABS + |y|·GUARD_REL + 10⁻⁹`:
//! about 2.4·10⁻¹⁵ per cycle of mean on an average draw. A `u` outside
//! the domain, where `|ln u|` reaches 745, never takes the inline path.
//!
//! The decision needs only `ln u`, so a caller may take the logarithms
//! of a block of uniforms ahead (`ln_draw`) and decide each draw later
//! (`exp_cycles_ln`); [`exp_cycles`] is the two in one.
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

/// The draws' domain: the engines clamp every uniform to `[U_MIN, 1)`,
/// so `|ln u| ≤ 27.7` wherever the inline path answers.
pub(crate) const U_MIN: f64 = 1e-12;

/// The bound on `|ln_inline(u) − u.ln()|` over `[U_MIN, 1)` is
/// `LN_ABS + LN_REL·|ln u|`. The constant part is the series' truncation
/// (`r⁶/6 ≤ 6·10⁻¹⁶`) and the roundings of `r` and of the table, 7.7·10⁻¹⁶
/// in all. The proportional part is the roundings of `e·ln 2`, of the two
/// sums and of libm's `ln`, about 2.2 ulps of `ln u`. Measured, the
/// difference is at most two ulps of `ln u` where `|ln u| ≥ 1` (7.1·10⁻¹⁵
/// at `u ≈ 2·10⁻¹²`) and 7.8·10⁻¹⁶ below.
/// `inline_ln_error_over_the_draws_domain` pins the bound.
const LN_ABS: f64 = 8e-16;
const LN_REL: f64 = 2.5 * f64::EPSILON;

/// The guard band's parts. `y = −mean·ln_inline(u)` and the pinned
/// `−mean·ln u` differ by at most `mean·(LN_ABS + LN_REL·|ln u|)` plus
/// the two products' rounding, `2⁻⁵³·(|y| + |pinned|)`: within
/// `mean·LN_ABS + |y|·(LN_REL + ε)`, to first order. The band is half as
/// much again for margin.
const GUARD_ABS: f64 = 1.5 * LN_ABS;
const GUARD_REL: f64 = 1.5 * (LN_REL + f64::EPSILON);

/// Means from here up draw through the pinned expression directly. The
/// guard band, `mean·(GUARD_ABS + GUARD_REL)` on an average draw, sends
/// about twice that share of the draws there anyway, 17 % at 2⁴⁵ cycles,
/// and computing `y` first only adds a mispredicted branch to each. Every
/// roster mean sits below it; the largest, gmake's 1.27·10¹³ cycles at
/// 1 024 cores, sends 6 % of its draws to libm.
pub(crate) const MEAN_MAX: f64 = (1u64 << 45) as f64;

/// Natural logarithm of a positive normal `u`, to within
/// `LN_ABS + LN_REL·|ln u|` of `f64::ln` on the draws' domain.
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

/// `ln_inline(u)` where the guard band covers its error, `u ∈ [U_MIN,
/// 1)`; NaN elsewhere, which no decision trusts.
#[inline]
pub(crate) fn ln_draw(u: f64) -> f64 {
    if (U_MIN..1.0).contains(&u) {
        ln_inline(u)
    } else {
        f64::NAN
    }
}

/// `(-mean * u.ln()).max(1.0) as u64` when `l = ln_draw(u)` decides it
/// exactly; `None` when the result could depend on the last bits of
/// `ln` and only the pinned expression may answer.
#[inline]
fn decide(l: f64, mean: f64) -> Option<u64> {
    if !(..MEAN_MAX).contains(&mean) {
        return None;
    }
    let y = -mean * l;
    // `−l·mean` is `|y|` for a positive mean; taken from `l`, not `y`, it
    // adds no step after `y` to the band. The constant covers small
    // means. For a negative mean every `y` is below `1 − g`, as the
    // pinned clamp wants.
    let g = (mean * GUARD_ABS + 1e-9) - l * (mean * GUARD_REL);
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

/// [`exp_cycles`] for a `u` whose `ln_draw(u)` is already known: the
/// decision alone, for draws whose logarithms were taken ahead.
#[inline]
pub(crate) fn exp_cycles_ln(u: f64, l: f64, mean: f64) -> u64 {
    match decide(l, mean) {
        Some(cycles) => cycles,
        None => exp_cycles_libm(u, mean),
    }
}

/// The exponential inverse-CDF draw: cycles for the uniform `u` at the
/// given mean, clamped to at least one. Equal to
/// `(-mean * u.ln()).max(1.0) as u64` for every input, bit for bit; it
/// calls `f64::ln` only where `y = −mean·ln u` lies within
/// `mean·GUARD_ABS + |y|·GUARD_REL + 10⁻⁹` (about 1.2·10⁻¹⁵ each) of an
/// integer or is not a finite value below 2⁵³, for `u` outside
/// `[10⁻¹², 1)` and for means of 2⁴⁵ cycles or more (see the module
/// docs).
#[inline]
pub fn exp_cycles(u: f64, mean: f64) -> u64 {
    exp_cycles_ln(u, ln_draw(u), mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// From nothing to past `MEAN_MAX`: the roster's largest means
    /// (Metis, pedsort and gmake whole-job stations) and the values
    /// either side of `MEAN_MAX`.
    const MEANS: [f64; 13] = [
        0.0,
        1e-12,
        0.5,
        1.0,
        1_777.0,
        2.3e6,
        1e7,
        1e9,
        2.6e11,
        1.45152e12,
        1.27e13,
        MEAN_MAX.next_down(),
        MEAN_MAX.next_up(),
    ];

    /// The uniforms `des::service` draws, from one seeded stream.
    fn uniforms(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(move |_| crate::des::uniform(&mut rng))
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
        us.extend([U_MIN, 1.0 - 2f64.powi(-53)]);
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
    fn inline_ln_error_over_the_draws_domain() {
        // The seed-42 and seed-7 draw streams, every cell edge, 2¹²
        // evenly spaced mantissas in each binade of `[U_MIN, 1)` and the
        // 2¹² doubles below 1, where `ln u` nears 0 and the constant part
        // dominates: the bound the guard band is derived from.
        let mut us = cell_edges();
        us.extend(uniforms(42, 1_000_000).chain(uniforms(7, 1_000_000)));
        for e in -40..0 {
            let binade = 2f64.powi(e);
            us.extend((0..1 << 12).map(|i| binade * (1.0 + i as f64 / 4096.0)));
        }
        us.extend((1..=1 << 12).map(|i| 1.0 - i as f64 * 2f64.powi(-53)));
        let mut worst = (f64::MIN, 0.0);
        for u in us.into_iter().filter(|u| (U_MIN..1.0).contains(u)) {
            let excess = (ln_inline(u) - u.ln()).abs() - LN_REL * -u.ln();
            if excess > worst.0 {
                worst = (excess, u);
            }
        }
        assert!(
            worst.0 <= LN_ABS,
            "|ln_inline − ln| − LN_REL·|ln u| = {:e} at u = {:e}",
            worst.0,
            worst.1
        );
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
            assert_eq!(decide(ln_draw(u), mean), None, "u={u:e} k={k}");
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
            (U_MIN.next_down(), 5.0),
            (1e-300, 5.0),
            (1.0, 5.0),
            (f64::NAN, 5.0),
        ] {
            assert_eq!(exp_cycles(u, mean), pinned(u, mean), "u={u:e} mean={mean}");
        }
        assert_eq!(decide(ln_draw(0.5), f64::NAN), None);
        assert_eq!(decide(ln_draw(0.5), MEAN_MAX), None);
        assert_eq!(decide(ln_draw(1e-12), 1e300), None);
        for u in [0.0, U_MIN.next_down(), 1e-300, 1.0, f64::NAN] {
            assert!(ln_draw(u).is_nan(), "u={u:e}");
            assert_eq!(decide(ln_draw(u), 5.0), None, "u={u:e}");
        }
    }
}
