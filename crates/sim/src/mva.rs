//! Mean Value Analysis over closed queueing networks of cores and
//! shared cache lines.

/// How a station serves contending cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StationKind {
    /// Perfectly parallel work (user code, core-local kernel code):
    /// residence time never grows with load.
    Delay,
    /// A serialized shared resource — a contended cache line, an MCS
    /// lock, a ticket-lock *handoff*: waiting grows with queue length but
    /// service time stays constant.
    Queue,
    /// A non-scalable spin lock: like [`StationKind::Queue`], but each
    /// waiter's cache-line polling slows the holder, so the *service
    /// time itself* grows with the queue — "this traffic may slow down
    /// the core that holds the lock by an amount proportional to the
    /// number of waiting cores" (§4.1). `collapse` is the per-waiter
    /// inflation factor.
    NonScalable {
        /// Service-time inflation per queued waiter (e.g. 0.4 → each
        /// waiter adds 40% of the base service time).
        collapse: f64,
    },
}

impl StationKind {
    /// Mean service time for a service starting with `waiters` queued
    /// behind it: `demand_cycles`, inflated at a non-scalable lock by
    /// `1 + collapse × waiters`. The event-driven engines draw around
    /// this mean, so the exponential shape is preserved.
    #[inline]
    pub(crate) fn service_mean(self, demand_cycles: f64, waiters: usize) -> f64 {
        match self {
            Self::NonScalable { collapse } => demand_cycles * (1.0 + collapse * waiters as f64),
            _ => demand_cycles,
        }
    }
}

/// One station in the network.
#[derive(Debug, Clone)]
pub struct Station {
    /// Label used in reports and CPU-time attribution.
    pub name: &'static str,
    /// Service demand per operation, in cycles (visits × per-visit
    /// service time).
    pub demand_cycles: f64,
    /// Queueing behaviour.
    pub kind: StationKind,
    /// Whether residence here counts as system (kernel) time.
    pub is_system: bool,
    /// The kernel structure this station models, as a stable class name
    /// (`"vfs.mount_table"`, `"net.dst_ref"`, …) — the same naming
    /// convention `pk-lockdep` uses for lock classes. An observational
    /// fact about the station, not a policy: `pk-adapt` matches it
    /// against the fix registry to decide which lever relieves the
    /// contention measured here. `None` for stations with no adaptable
    /// kernel structure behind them (user code, app-level locks).
    pub class: Option<&'static str>,
}

impl Station {
    /// A delay station (perfectly parallel cycles).
    pub fn delay(name: &'static str, demand_cycles: f64, is_system: bool) -> Self {
        Self {
            name,
            demand_cycles,
            kind: StationKind::Delay,
            is_system,
            class: None,
        }
    }

    /// A serialized-but-scalable station (constant service time).
    pub fn queue(name: &'static str, demand_cycles: f64, is_system: bool) -> Self {
        Self {
            name,
            demand_cycles,
            kind: StationKind::Queue,
            is_system,
            class: None,
        }
    }

    /// A non-scalable spin lock with the given collapse factor.
    pub fn spinlock(
        name: &'static str,
        demand_cycles: f64,
        collapse: f64,
        is_system: bool,
    ) -> Self {
        Self {
            name,
            demand_cycles,
            kind: StationKind::NonScalable { collapse },
            is_system,
            class: None,
        }
    }

    /// Tags the station with the kernel-structure class it models.
    pub fn with_class(mut self, class: &'static str) -> Self {
        self.class = Some(class);
        self
    }
}

/// Per-station output of the solver.
#[derive(Debug, Clone)]
pub struct StationResult {
    /// Station label.
    pub name: &'static str,
    /// How the station serves contending cores.
    pub kind: StationKind,
    /// Service demand per operation, in cycles (the load-independent
    /// input, before any queueing or collapse inflation).
    pub demand_cycles: f64,
    /// Mean residence time per operation, in cycles (service + waiting).
    pub residence_cycles: f64,
    /// Mean queue length.
    pub queue_len: f64,
    /// Utilization in `[0, 1]` (can exceed 1 transiently for
    /// non-scalable stations where service inflates).
    pub utilization: f64,
    /// Whether this station's residence is system time.
    pub is_system: bool,
}

impl StationResult {
    /// Cycles per operation lost to waiting (and, for non-scalable
    /// stations, to waiter-induced service inflation) — residence
    /// beyond the raw demand.
    pub fn wait_cycles(&self) -> f64 {
        (self.residence_cycles - self.demand_cycles).max(0.0)
    }
}

/// Output of one MVA solve.
#[derive(Debug, Clone)]
pub struct MvaResult {
    /// Active cores (customers).
    pub cores: usize,
    /// System throughput in operations per cycle.
    pub ops_per_cycle: f64,
    /// Mean end-to-end cycles per operation.
    pub cycles_per_op: f64,
    /// Cycles per op spent in stations marked `is_system`, including
    /// waiting (the paper's "system time").
    pub system_cycles_per_op: f64,
    /// Cycles per op in user-side stations.
    pub user_cycles_per_op: f64,
    /// Per-station detail.
    pub stations: Vec<StationResult>,
}

impl MvaResult {
    /// Throughput per core, in operations per cycle.
    pub fn ops_per_cycle_per_core(&self) -> f64 {
        self.ops_per_cycle / self.cores as f64
    }

    /// The station with the longest residence time (the bottleneck).
    pub fn bottleneck(&self) -> &StationResult {
        self.stations
            .iter()
            .max_by(|a, b| a.residence_cycles.total_cmp(&b.residence_cycles))
            .expect("networks have at least one station")
    }

    /// Exports every station as a [`pk_obs::Sample`] so the solve can
    /// feed the metrics registry and the contention report.
    ///
    /// Cache-line transfers per operation are the MESI estimate for a
    /// line owned by a serialized station: each visit moves the line
    /// unless the same core held it last (`(n-1)/n`), and every queued
    /// waiter at a non-scalable lock re-pulls the line while polling —
    /// the same traffic the collapse factor charges to the holder.
    pub fn snapshot(&self) -> pk_obs::Snapshot {
        let mut snap = pk_obs::Snapshot::new();
        let handoff = 1.0 - 1.0 / self.cores as f64;
        for st in &self.stations {
            let line_transfers = match st.kind {
                StationKind::Delay => 0.0,
                StationKind::Queue => handoff,
                StationKind::NonScalable { .. } => handoff + st.queue_len,
            };
            snap.push(pk_obs::Sample::station(
                st.name,
                pk_obs::StationSample {
                    demand_cycles: st.demand_cycles,
                    residence_cycles: st.residence_cycles,
                    wait_cycles: st.wait_cycles(),
                    queue_len: st.queue_len,
                    utilization: st.utilization,
                    line_transfers,
                    is_system: st.is_system,
                },
            ));
        }
        snap
    }
}

/// A closed queueing network of identical cores over shared stations.
#[derive(Debug, Clone, Default)]
pub struct Network {
    stations: Vec<Station>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a station, skipping those with zero demand.
    pub fn push(&mut self, station: Station) -> &mut Self {
        if station.demand_cycles > 0.0 {
            self.stations.push(station);
        }
        self
    }

    /// Returns the stations.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Clusters the classed, serialized kernel stations into one coarse
    /// lock per subsystem — the `coarse` personality's lowering, after
    /// "An Evaluation of Coarse-Grained Locking for Multicore
    /// Microkernels": instead of one fine-grained lock per structure,
    /// the kernel takes a single subsystem lock (`coarse.vfs_lock`,
    /// `coarse.net_lock`, `coarse.mm_lock`).
    ///
    /// Each cluster's demand is the sum of its members' demands times a
    /// fixed discount, 0.85 (fewer distinct lock operations per
    /// syscall — the trade-off's upside), and its collapse factor is the
    /// worst member's (polling waiters hammer the one lock — the
    /// downside, which dominates as cores grow). Delay stations and
    /// unclassed stations (user code, app-level locks) pass through
    /// untouched, as do classed stations from subsystems outside the
    /// clustering map.
    pub fn coarsen(&self) -> Self {
        /// The per-acquire savings from folding many lock sites into
        /// one: a coarse kernel executes fewer lock instructions per
        /// syscall, so serialized demand shrinks modestly.
        const DISCOUNT: f64 = 0.85;
        /// Even classes modeled as scalable queues inherit a minimum
        /// collapse once clustered: a single subsystem lock is a
        /// classic non-scalable ticket lock.
        const COLLAPSE_FLOOR: f64 = 0.05;
        const CLUSTERS: [(&str, &str); 3] = [
            ("vfs.", "coarse.vfs_lock"),
            ("net.", "coarse.net_lock"),
            ("mm.", "coarse.mm_lock"),
        ];
        let mut out = Network::new();
        // (summed demand, max collapse) per cluster, in CLUSTERS order.
        let mut acc = [(0.0f64, COLLAPSE_FLOOR); CLUSTERS.len()];
        for st in &self.stations {
            let cluster = match (st.class, st.kind) {
                (Some(class), StationKind::Queue | StationKind::NonScalable { .. }) => CLUSTERS
                    .iter()
                    .position(|(prefix, _)| class.starts_with(prefix)),
                _ => None,
            };
            match cluster {
                Some(i) => {
                    acc[i].0 += st.demand_cycles * DISCOUNT;
                    if let StationKind::NonScalable { collapse } = st.kind {
                        acc[i].1 = acc[i].1.max(collapse);
                    }
                }
                None => {
                    out.push(st.clone());
                }
            }
        }
        for (i, &(_, name)) in CLUSTERS.iter().enumerate() {
            let (demand, collapse) = acc[i];
            out.push(Station::spinlock(name, demand, collapse, true).with_class(name));
        }
        out
    }

    /// Solves the network for `cores` customers by exact MVA, extended
    /// with load-dependent service for non-scalable stations.
    ///
    /// # Panics
    ///
    /// Panics if the network has no stations or `cores == 0`.
    pub fn solve(&self, cores: usize) -> MvaResult {
        assert!(cores > 0, "need at least one core");
        assert!(!self.stations.is_empty(), "need at least one station");
        let m = self.stations.len();
        let mut queue = vec![0.0f64; m];
        let mut residence = vec![0.0f64; m];
        let mut x = 0.0f64;
        for n in 1..=cores {
            for (j, st) in self.stations.iter().enumerate() {
                residence[j] = match st.kind {
                    StationKind::Delay => st.demand_cycles,
                    StationKind::Queue => st.demand_cycles * (1.0 + queue[j]),
                    StationKind::NonScalable { collapse } => {
                        // Waiters inflate the effective service time; the
                        // arrival-theorem queue is seen by each arriving
                        // customer.
                        let inflated = st.demand_cycles * (1.0 + collapse * queue[j]);
                        inflated * (1.0 + queue[j])
                    }
                };
            }
            let total: f64 = residence.iter().sum();
            x = n as f64 / total;
            for j in 0..m {
                queue[j] = x * residence[j];
            }
        }
        let cycles_per_op: f64 = residence.iter().sum();
        let mut system = 0.0;
        let mut user = 0.0;
        let mut stations = Vec::with_capacity(m);
        for (j, st) in self.stations.iter().enumerate() {
            if st.is_system {
                system += residence[j];
            } else {
                user += residence[j];
            }
            stations.push(StationResult {
                name: st.name,
                kind: st.kind,
                demand_cycles: st.demand_cycles,
                residence_cycles: residence[j],
                queue_len: queue[j],
                utilization: (x * st.demand_cycles).min(cores as f64),
                is_system: st.is_system,
            });
        }
        MvaResult {
            cores,
            ops_per_cycle: x,
            cycles_per_op,
            system_cycles_per_op: system,
            user_cycles_per_op: user,
            stations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn pure_delay_scales_linearly() {
        let mut net = Network::new();
        net.push(Station::delay("user", 1000.0, false));
        let x1 = net.solve(1).ops_per_cycle;
        let x48 = net.solve(48).ops_per_cycle;
        assert!(close(x48 / x1, 48.0, 1e-9), "delay-only network is linear");
    }

    #[test]
    fn single_queue_saturates_at_service_rate() {
        let mut net = Network::new();
        net.push(Station::delay("user", 9000.0, false));
        net.push(Station::queue("lock", 1000.0, true));
        // Asymptotic bound: X ≤ 1/D_max = 1/1000 ops/cycle.
        let x = net.solve(64).ops_per_cycle;
        assert!(x <= 1.0 / 1000.0 + 1e-12);
        assert!(x > 0.9 / 1000.0, "should approach the bound");
        // At 1 core there is no queueing at all.
        let r1 = net.solve(1);
        assert!(close(r1.cycles_per_op, 10_000.0, 1e-9));
    }

    #[test]
    fn asymptotic_bounds_are_tight_below_the_knee() {
        // Operational analysis brackets X(n) by n/(Z + D) and 1/D_max;
        // well below the knee n* = (Z + D)/D_max the first bound is
        // nearly met, not just respected.
        let mut net = Network::new();
        net.push(Station::delay("user", 9_000.0, false));
        net.push(Station::queue("lock", 1_000.0, true));
        net.push(Station::queue("counter", 250.0, true));
        let (total, d_max) = (10_250.0, 1_000.0);
        let knee = total / d_max;
        for n in [1, 2, 5, 10, 11, 20, 48] {
            let exact = net.solve(n).ops_per_cycle;
            let bound = (n as f64 / total).min(1.0 / d_max);
            assert!(
                exact <= bound * (1.0 + 1e-9),
                "n={n}: {exact} above {bound}"
            );
            if (n as f64) < knee / 2.0 {
                assert!(exact > 0.8 * bound, "n={n}: bound too loose");
            }
        }
    }

    #[test]
    fn nonscalable_station_collapses() {
        let mut net = Network::new();
        net.push(Station::delay("user", 2000.0, false));
        net.push(Station::spinlock("biglock", 500.0, 0.5, true));
        let mut best = 0.0f64;
        let mut best_n = 0;
        let mut x48 = 0.0;
        for n in 1..=48 {
            let x = net.solve(n).ops_per_cycle;
            if x > best {
                best = x;
                best_n = n;
            }
            if n == 48 {
                x48 = x;
            }
        }
        assert!(best_n < 48, "peak before 48 cores (got {best_n})");
        assert!(
            x48 < best * 0.8,
            "total throughput collapses: best={best}, x48={x48}"
        );
    }

    #[test]
    fn queue_station_does_not_collapse() {
        // A scalable (constant-service) station saturates but never loses
        // total throughput.
        let mut net = Network::new();
        net.push(Station::delay("user", 2000.0, false));
        net.push(Station::queue("mcslock", 500.0, true));
        let mut prev = 0.0;
        for n in 1..=48 {
            let x = net.solve(n).ops_per_cycle;
            assert!(x >= prev - 1e-15, "monotone non-decreasing at n={n}");
            prev = x;
        }
    }

    #[test]
    fn system_user_split_accounts_everything() {
        let mut net = Network::new();
        net.push(Station::delay("user", 3000.0, false));
        net.push(Station::queue("refcount", 200.0, true));
        let r = net.solve(16);
        assert!(close(
            r.system_cycles_per_op + r.user_cycles_per_op,
            r.cycles_per_op,
            1e-12
        ));
        assert!(r.system_cycles_per_op >= 200.0);
    }

    #[test]
    fn bottleneck_identifies_hottest_station() {
        let mut net = Network::new();
        net.push(Station::delay("user", 100.0, false));
        net.push(Station::queue("cold", 10.0, true));
        net.push(Station::queue("hot", 400.0, true));
        let r = net.solve(32);
        assert_eq!(r.bottleneck().name, "hot");
    }

    #[test]
    fn snapshot_exports_station_samples() {
        let mut net = Network::new();
        net.push(Station::delay("user", 5_000.0, false));
        net.push(Station::spinlock("hot", 800.0, 0.4, true));
        let r = net.solve(32);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        let user = snap.find("user").unwrap();
        let hot = snap.find("hot").unwrap();
        match (&user.value, &hot.value) {
            (pk_obs::MetricValue::Station(u), pk_obs::MetricValue::Station(h)) => {
                assert_eq!(u.wait_cycles, 0.0, "delay stations never wait");
                assert_eq!(u.line_transfers, 0.0, "core-local lines never move");
                assert!(h.wait_cycles > 0.0, "a contended lock waits");
                assert!(
                    h.line_transfers > 1.0,
                    "handoffs plus waiter polling move the line: {}",
                    h.line_transfers
                );
                assert!(h.is_system && !u.is_system);
            }
            v => panic!("wrong value kinds: {v:?}"),
        }
    }

    #[test]
    fn station_result_carries_demand_and_wait() {
        let mut net = Network::new();
        net.push(Station::delay("user", 2_000.0, false));
        net.push(Station::queue("lock", 500.0, true));
        let r = net.solve(16);
        let lock = r.stations.iter().find(|s| s.name == "lock").unwrap();
        assert_eq!(lock.demand_cycles, 500.0);
        assert!((lock.wait_cycles() - (lock.residence_cycles - 500.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let mut net = Network::new();
        net.push(Station::delay("user", 1.0, false));
        net.solve(0);
    }

    #[test]
    fn coarsen_clusters_classed_kernel_stations() {
        let mut net = Network::new();
        net.push(Station::delay("user", 5_000.0, false));
        net.push(Station::spinlock("dcache", 300.0, 0.3, true).with_class("vfs.dcache"));
        net.push(Station::queue("mount", 100.0, true).with_class("vfs.mount_table"));
        net.push(Station::spinlock("dst", 200.0, 0.2, true).with_class("net.dst_ref"));
        net.push(Station::queue("applock", 50.0, false));
        let coarse = net.coarsen();
        let names: Vec<_> = coarse.stations().iter().map(|s| s.name).collect();
        assert!(names.contains(&"user"), "delay passes through");
        assert!(names.contains(&"applock"), "unclassed passes through");
        assert!(names.contains(&"coarse.vfs_lock"));
        assert!(names.contains(&"coarse.net_lock"));
        assert!(
            !names.contains(&"coarse.mm_lock"),
            "empty clusters have zero demand and are dropped by push"
        );
        let vfs = coarse
            .stations()
            .iter()
            .find(|s| s.name == "coarse.vfs_lock")
            .unwrap();
        assert!((vfs.demand_cycles - (300.0 + 100.0) * 0.85).abs() < 1e-9);
        assert_eq!(vfs.kind, StationKind::NonScalable { collapse: 0.3 });
    }

    #[test]
    fn coarse_collapses_harder_than_fine_at_scale() {
        // The coarse-grained trade-off: slightly cheaper at low core
        // counts (fewer lock ops), much worse at high core counts (one
        // lock absorbs every subsystem's traffic).
        let mut fine = Network::new();
        fine.push(Station::delay("user", 20_000.0, false));
        fine.push(Station::spinlock("a", 150.0, 0.2, true).with_class("vfs.a"));
        fine.push(Station::spinlock("b", 150.0, 0.2, true).with_class("vfs.b"));
        fine.push(Station::spinlock("c", 150.0, 0.2, true).with_class("vfs.c"));
        let coarse = fine.coarsen();
        let x_fine = fine.solve(192).ops_per_cycle;
        let x_coarse = coarse.solve(192).ops_per_cycle;
        assert!(
            x_coarse < x_fine,
            "one clustered lock serializes harder: coarse={x_coarse}, fine={x_fine}"
        );
    }

    #[test]
    fn zero_demand_stations_are_dropped() {
        let mut net = Network::new();
        net.push(Station::delay("user", 100.0, false));
        net.push(Station::queue("disabled-fix", 0.0, true));
        assert_eq!(net.stations().len(), 1);
    }
}
