//! Shared workload plumbing.

use pk_kernel::{FixId, KernelConfig, Personality, NUM_FIXES};

/// Zeroes `demand` when `fix` is enabled in `config` — the "a fix stops
/// touching the shared line" lowering every model's kernel stations go
/// through, for presets and hand-picked fix subsets alike.
pub fn demand_unless(config: &KernelConfig, fix: FixId, demand: f64) -> f64 {
    if config.has(fix) {
        0.0
    } else {
        demand
    }
}

/// Demand of a **generation-2 growth station**: contention invisible at
/// the paper's 48 cores but linear in core count, so it owns the curve
/// at several hundred cores. Zero at one core (the single-core anchors
/// stay exact); well under 1% of `total_cycles` at 48; the dominant
/// collapse by 1024. Pair with a gen-2 [`pk_kernel::FixId`] via
/// [`demand_unless`] so the corresponding fix (RCU walk, SNZI trees,
/// per-socket shards) removes it entirely.
pub fn gen2_demand(total_cycles: f64, coef: f64, cores: usize) -> f64 {
    total_cycles * coef * cores.saturating_sub(1) as f64
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
