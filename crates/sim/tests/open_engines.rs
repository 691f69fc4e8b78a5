//! The open-loop engines pinned in their own crate: every arrival
//! pattern under both serving postures, through both engines, with
//! connection churn and slow clients, against values recorded when the
//! engines took every draw on the spot and kept the next arrival in the
//! event wheel. A change that moves a draw or the `(time, seq)` order
//! of one event moves a row.

use pk_fault::{fnv64, FaultPlane};
use pk_sim::{
    simulate_flow, simulate_open, ArrivalPattern, ClientMix, Network, OpenLoopResult,
    OverloadPolicy, Station,
};
use pk_trace::{EventKind, Tracer};

const PATTERNS: [(&str, ArrivalPattern); 3] = [
    (
        "poisson",
        ArrivalPattern::Poisson {
            mean_interarrival_cycles: 150.0,
        },
    ),
    (
        "onoff",
        ArrivalPattern::OnOff {
            mean_interarrival_cycles: 60.0,
            on_cycles: 50_000,
            off_cycles: 150_000,
        },
    ),
    (
        "diurnal",
        ArrivalPattern::Diurnal {
            peak_interarrival_cycles: 100.0,
            trough_interarrival_cycles: 600.0,
            phase_cycles: 200_000,
        },
    ),
];

const POLICIES: [(&str, OverloadPolicy); 2] = [
    ("observe", OverloadPolicy::observe(20_000)),
    ("shedding", OverloadPolicy::shedding(64, 3_000, 60, 50)),
];

const CLIENTS: ClientMix = ClientMix {
    population: 1_000_000,
    mean_session_requests: 8,
    connect_cycles: 300,
    slow_per_mille: 20,
    stall_cycles: 5_000,
};

fn toy_network() -> Network {
    let mut n = Network::new();
    n.push(Station::delay("user", 800.0, false))
        .push(Station::queue("handoff", 40.0, true))
        .push(Station::spinlock("lock", 60.0, 0.3, true));
    n
}

/// The pinned fields of one run, one line.
fn row(cell: &str, r: &OpenLoopResult) -> String {
    let buckets: Vec<u8> = r
        .latency
        .buckets
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .collect();
    format!(
        "{cell}: arrivals={} completed={} rejected={} cancelled={} users={} sum={} buckets={:016x}",
        r.arrivals,
        r.completed,
        r.rejected,
        r.deadline_cancelled,
        r.distinct_users,
        r.latency.sum,
        fnv64(&buckets)
    )
}

#[test]
fn every_pattern_and_posture_matches_its_pinned_row() {
    let net = toy_network();
    let plane = FaultPlane::disabled();
    let mut rows = Vec::new();
    for (p, pattern) in PATTERNS {
        for (q, policy) in POLICIES {
            let (cores, horizon, seed) = (4, 2_000_000, 42);
            let open = simulate_open(&net, cores, pattern, CLIENTS, policy, horizon, seed, &plane);
            let flow = simulate_flow(
                &net, cores, pattern, CLIENTS, policy, horizon, seed, None, &plane,
            );
            rows.push(row(&format!("open {p} {q}"), &open));
            rows.push(row(&format!("flow {p} {q}"), &flow));
        }
    }
    assert_eq!(rows, PINNED, "actual rows:\n{}", rows.join("\n"));
}

/// Recorded while both engines drew on the spot and queued every
/// arrival in the wheel.
const PINNED: [&str; 12] = [
    "open poisson observe: arrivals=13570 completed=5138 rejected=0 cancelled=0 users=13473 sum=3171283578 buckets=e63e2998fb294877",
    "flow poisson observe: arrivals=13570 completed=7558 rejected=0 cancelled=0 users=13473 sum=3291710636 buckets=61efc1d5582d3a18",
    "open poisson shedding: arrivals=13570 completed=5149 rejected=0 cancelled=8401 users=13473 sum=22316860 buckets=878a8e51f7a4b3d8",
    "flow poisson shedding: arrivals=13570 completed=7522 rejected=0 cancelled=6024 users=13473 sum=28167827 buckets=f080250dc09fb023",
    "open onoff observe: arrivals=8493 completed=5141 rejected=0 cancelled=0 users=8458 sum=2397091244 buckets=2c92a68507e44fbd",
    "flow onoff observe: arrivals=8493 completed=7571 rejected=0 cancelled=0 users=8458 sum=1338552414 buckets=6cc45b656e758ea8",
    "open onoff shedding: arrivals=8493 completed=2231 rejected=336 cancelled=5926 users=8458 sum=8422862 buckets=ec981a3b6ef34553",
    "flow onoff shedding: arrivals=8493 completed=3216 rejected=235 cancelled=5042 users=8458 sum=11150628 buckets=90e152fde7fd15cb",
    "open diurnal observe: arrivals=11822 completed=5141 rejected=0 cancelled=0 users=11745 sum=3232817186 buckets=0149cc89abbc403c",
    "flow diurnal observe: arrivals=11822 completed=7565 rejected=0 cancelled=0 users=11745 sum=3189910381 buckets=c0ef667d7d538bc6",
    "open diurnal shedding: arrivals=11822 completed=4702 rejected=0 cancelled=7119 users=11745 sum=15311471 buckets=7aad9a098087f2b7",
    "flow diurnal shedding: arrivals=11822 completed=6060 rejected=0 cancelled=5762 users=11745 sum=18421279 buckets=96d6a91c97f81b9a",
];

/// Arrivals and completions on one cycle: a gap and a service of a
/// few cycles each, so the held arrival and the wheel's earliest event
/// often carry the same time and the `seq` half of the key decides.
/// One delay station and a frictionless population make the two
/// engines run one schedule, so flow's trace counts the ties both see.
#[test]
fn same_cycle_ties_match_their_pinned_rows() {
    let mut net = Network::new();
    net.push(Station::delay("work", 4.0, false));
    let pattern = ArrivalPattern::Poisson {
        mean_interarrival_cycles: 3.0,
    };
    let (cores, clients, horizon, seed) = (2, ClientMix::uniform(1_000), 60_000, 7);
    let plane = FaultPlane::disabled();
    let mut rows = Vec::new();
    for (q, policy) in [
        ("observe", OverloadPolicy::observe(6)),
        ("shedding", OverloadPolicy::shedding(8, 6, 60, 50)),
    ] {
        let tracer = Tracer::new(cores + 1, 1 << 17);
        let open = simulate_open(&net, cores, pattern, clients, policy, horizon, seed, &plane);
        let flow = simulate_flow(
            &net,
            cores,
            pattern,
            clients,
            policy,
            horizon,
            seed,
            Some(&tracer),
            &plane,
        );
        assert_eq!(tracer.dropped(), 0);
        let events = tracer.drain();
        // Every dispatched request's arrival is its admission pair's
        // time less the wait it carries; every rejected one leaves an
        // instant at its arrival time.
        let admission = pk_trace::ADMISSION_CLASS.id().raw();
        let reject = pk_trace::intern::intern_span(pk_sim::flow::REJECT_CLASS);
        let mut arrivals: Vec<u64> = (events.iter())
            .filter_map(|e| match e.kind {
                EventKind::LockBegin if e.class == admission => Some(e.ts - e.arg),
                EventKind::Instant if e.class == reject => Some(e.ts),
                _ => None,
            })
            .collect();
        arrivals.sort_unstable();
        let ties = (events.iter())
            .filter(|e| e.kind == EventKind::CtxEnd)
            .filter(|e| arrivals.binary_search(&e.ts).is_ok())
            .count();
        assert!(
            ties > 100,
            "{q}: only {ties} completions share a cycle with an arrival"
        );
        let (o, f) = (
            row(&format!("open {q}"), &open),
            row(&format!("flow {q}"), &flow),
        );
        assert_eq!(
            o.replacen("open", "flow", 1),
            f,
            "one schedule, two engines"
        );
        rows.push(o);
        rows.push(f);
    }
    assert_eq!(rows, PINNED_TIES, "actual rows:\n{}", rows.join("\n"));
}

/// Recorded with [`PINNED`].
const PINNED_TIES: [&str; 4] = [
    "open observe: arrivals=21704 completed=21701 rejected=0 cancelled=0 users=1000 sum=147284 buckets=9b6540b13f22512f",
    "flow observe: arrivals=21704 completed=21701 rejected=0 cancelled=0 users=1000 sum=147284 buckets=9b6540b13f22512f",
    "open shedding: arrivals=21704 completed=20465 rejected=17 cancelled=1220 users=1000 sum=101058 buckets=73aac5b65ec4d184",
    "flow shedding: arrivals=21704 completed=20465 rejected=17 cancelled=1220 users=1000 sum=101058 buckets=73aac5b65ec4d184",
];
