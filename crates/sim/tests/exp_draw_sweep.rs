//! The inline exponential draw against the pinned `ln` expression over
//! every mean the engines draw at: each station of every roster model
//! on every personality at 1–48 cores on the paper machine and at 96,
//! 192 and 1024 cores on `scale`'s larger topologies, each
//! non-scalable station inflated by every waiter count it can see, and
//! SERVING's arrival gaps at their loads and pattern shapes. 10⁸ draws
//! from the service stream at seeds 42 and 7, so it is `#[ignore]`d:
//! `cargo test --release -p pk-sim -- --ignored`.

use pk_sim::des::exp_cycles;
use pk_sim::{MachineSpec, StationKind};
use pk_workloads::{roster, KernelChoice};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const DRAWS: u64 = 100_000_000;

fn topology(sockets: usize, cores_per_socket: usize) -> MachineSpec {
    MachineSpec::with_topology(sockets, cores_per_socket).expect("valid topology")
}

/// Every mean a service or arrival-gap draw uses in the roster and
/// SERVING runs, once each.
fn means() -> Vec<f64> {
    let personalities = [
        KernelChoice::Stock,
        KernelChoice::Coarse,
        KernelChoice::Pk,
        KernelChoice::Adaptive,
    ];
    // The paper machine at every core count, and `scale`'s topologies
    // (the repo benchmark's DES runs the last) at theirs.
    let machines: [(MachineSpec, Vec<usize>); 4] = [
        (MachineSpec::paper(), (1..=48).collect()),
        (topology(16, 6), vec![96]),
        (topology(16, 12), vec![192]),
        (topology(64, 16), vec![1024]),
    ];
    let mut means = Vec::new();
    for name in roster::NAMES {
        for p in personalities {
            for (machine, cores) in &machines {
                let model = roster::model_on(name, p, *machine).expect("roster name");
                for &n in cores {
                    for st in model.network(n).stations() {
                        means.push(st.demand_cycles);
                        if let StationKind::NonScalable { collapse } = st.kind {
                            // `StationKind::service_mean` at each waiter count.
                            means.extend(
                                (1..n).map(|w| st.demand_cycles * (1.0 + collapse * w as f64)),
                            );
                        }
                    }
                }
            }
        }
    }
    // `pk-serve`'s anchoring: a gap of 1 / (PK capacity × load), drawn
    // as is (Poisson), × 0.75 (on/off bursts), / 1.5 and / 0.75
    // (diurnal peak and trough).
    for name in roster::SERVING {
        let model = roster::model(name, KernelChoice::Pk).expect("serving name");
        for n in [4, 8, 48] {
            let capacity = model.network(n).solve(n).ops_per_cycle;
            for load in [60u32, 80, 100, 120, 150, 200] {
                let gap = 1.0 / (capacity * load as f64 / 100.0);
                means.extend([gap, gap * 0.75, gap / 1.5, gap / 0.75]);
            }
        }
    }
    means.retain(|m| *m > 0.0);
    means.sort_by(f64::total_cmp);
    means.dedup();
    means
}

#[test]
#[ignore = "10^8 draws: run with --release -- --ignored"]
fn inline_draw_equals_the_pinned_expression_on_every_roster_mean() {
    let means = means();
    assert!(means.len() > 1_000, "{} means", means.len());
    let seeds = [42u64, 7];
    let per_mean = DRAWS.div_ceil(seeds.len() as u64 * means.len() as u64);
    let mut draws = 0u64;
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        for &mean in &means {
            for _ in 0..per_mean {
                // The uniform `des::service` draws.
                let u = ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-12);
                let pinned = (-mean * u.ln()).max(1.0) as u64;
                assert_eq!(
                    exp_cycles(u, mean),
                    pinned,
                    "seed {seed} u={u:e} mean={mean}"
                );
            }
            draws += per_mean;
        }
    }
    assert!(draws >= DRAWS, "{draws} draws");
}
