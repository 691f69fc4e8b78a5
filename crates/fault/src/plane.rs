//! The fault plane: a registry of named injection points.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::schedule::FaultSchedule;

/// Cap on the replay trace so a long soak cannot grow without bound.
const TRACE_CAP: usize = 65_536;

/// One recorded injection: which point fired and at which arrival index.
///
/// A run's ordered trace (or, under concurrency, its trace *set*) is a
/// pure function of the plane's seed and the armed schedules, which is
/// what makes failure runs replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Name of the injection point that fired.
    pub point: &'static str,
    /// 0-indexed arrival count at that point when it fired.
    pub op: u64,
}

/// Counters for one injection point, as reported by [`FaultPlane::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointStats {
    /// Name of the injection point.
    pub name: &'static str,
    /// Arrivals checked while the plane was enabled.
    pub checked: u64,
    /// Arrivals on which a fault was injected.
    pub injected: u64,
}

/// State shared by the plane and every point handle it has issued.
struct PlaneShared {
    enabled: AtomicBool,
    seed: u64,
    trace: Mutex<Vec<FaultEvent>>,
    dropped_events: AtomicU64,
}

/// Per-point state behind the cheap [`FaultPoint`] handle.
struct PointState {
    name: &'static str,
    /// FNV-1a of `name`: the point's identity in schedule decisions, so
    /// two points with the same schedule still fire on different arrivals.
    id: u64,
    schedule: Mutex<FaultSchedule>,
    ops: AtomicU64,
    injected: AtomicU64,
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A handle to one named injection point.
///
/// Subsystems resolve a handle once at construction
/// (`plane.point("mm.alloc_enomem")`) and call [`FaultPoint::should_inject`]
/// on the hot path. The handle is cheap to clone and keeps the plane alive.
#[derive(Clone)]
pub struct FaultPoint {
    shared: Arc<PlaneShared>,
    state: Arc<PointState>,
}

impl std::fmt::Debug for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPoint")
            .field("name", &self.state.name)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FaultPoint {
    /// Name this point was registered under.
    pub fn name(&self) -> &'static str {
        self.state.name
    }

    /// Whether to inject a fault at this arrival.
    ///
    /// Disabled plane: one relaxed load, no counter advance — arrivals
    /// before `enable()` do not shift the schedule, so a driver can warm
    /// up fault-free and then arm the plane.
    #[inline]
    pub fn should_inject(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed) && self.inject_armed()
    }

    /// The armed path of [`Self::should_inject`]: advance the arrival
    /// counter, consult the schedule and record a firing. Kept out of
    /// line so the disabled check inlines into every caller.
    #[inline(never)]
    #[cold]
    fn inject_armed(&self) -> bool {
        let n = self.state.ops.fetch_add(1, Ordering::Relaxed);
        let schedule = *self.state.schedule.lock().unwrap();
        if !schedule.fires(self.shared.seed, self.state.id, n) {
            return false;
        }
        self.state.injected.fetch_add(1, Ordering::Relaxed);
        // Injections are rare by construction, so the per-fire intern
        // lookup inside `instant_named` stays off every hot path.
        pk_trace::instant_named(self.state.name);
        let mut trace = self.shared.trace.lock().unwrap();
        if trace.len() < TRACE_CAP {
            trace.push(FaultEvent {
                point: self.state.name,
                op: n,
            });
        } else {
            self.shared.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Counters for this point.
    pub fn stats(&self) -> PointStats {
        PointStats {
            name: self.state.name,
            checked: self.state.ops.load(Ordering::Relaxed),
            injected: self.state.injected.load(Ordering::Relaxed),
        }
    }
}

/// A process-wide registry of injection points, gated by one seed.
///
/// ```
/// use pk_fault::{FaultPlane, FaultSchedule};
///
/// let plane = FaultPlane::with_seed(42);
/// let point = plane.point("mm.alloc_enomem");
/// plane.set("mm.alloc_enomem", FaultSchedule::EveryNth(2));
/// plane.enable();
/// assert!(!point.should_inject()); // arrival 0
/// assert!(point.should_inject()); // arrival 1: every 2nd fires
/// assert_eq!(plane.trace().len(), 1);
/// ```
pub struct FaultPlane {
    shared: Arc<PlaneShared>,
    points: Mutex<BTreeMap<&'static str, FaultPoint>>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("seed", &self.shared.seed)
            .field("enabled", &self.is_enabled())
            .field("points", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FaultPlane {
    /// A plane that never injects; checks cost one relaxed load.
    ///
    /// This is what `X::new(..)` constructors hand to subsystems when the
    /// caller did not ask for faults.
    pub fn disabled() -> Self {
        Self::with_seed(0)
    }

    /// A plane seeded for replay. Starts disabled with every point on
    /// [`FaultSchedule::Never`]; arm schedules with [`FaultPlane::set`]
    /// and then [`FaultPlane::enable`] it.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            shared: Arc::new(PlaneShared {
                enabled: AtomicBool::new(false),
                seed,
                trace: Mutex::new(Vec::new()),
                dropped_events: AtomicU64::new(0),
            }),
            points: Mutex::new(BTreeMap::new()),
        }
    }

    /// Resolve (registering on first use) the point named `name`.
    pub fn point(&self, name: &'static str) -> FaultPoint {
        let mut points = self.points.lock().unwrap();
        points
            .entry(name)
            .or_insert_with(|| FaultPoint {
                shared: Arc::clone(&self.shared),
                state: Arc::new(PointState {
                    name,
                    id: fnv1a(name),
                    schedule: Mutex::new(FaultSchedule::Never),
                    ops: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                }),
            })
            .clone()
    }

    /// Arm (or re-arm) the schedule for `name`, registering it if needed.
    pub fn set(&self, name: &'static str, schedule: FaultSchedule) {
        let point = self.point(name);
        *point.state.schedule.lock().unwrap() = schedule;
    }

    /// Start injecting. Arrival counters only advance while enabled.
    pub fn enable(&self) {
        self.shared.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop injecting (checks return to the one-load fast path).
    pub fn disable(&self) {
        self.shared.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the plane is currently injecting.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.shared.seed
    }

    /// The injections recorded so far, in the order they were committed.
    ///
    /// Single-threaded runs replay this byte-for-byte from the seed;
    /// concurrent runs replay it as a set (see the determinism proptests).
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.shared.trace.lock().unwrap().clone()
    }

    /// Events not recorded because the trace hit its cap.
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped_events.load(Ordering::Relaxed)
    }

    /// Per-point counters, ordered by point name.
    pub fn stats(&self) -> Vec<PointStats> {
        self.points
            .lock()
            .unwrap()
            .values()
            .map(FaultPoint::stats)
            .collect()
    }

    /// Total faults injected across all points.
    pub fn injected_total(&self) -> u64 {
        self.stats().iter().map(|s| s.injected).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_injects_or_counts() {
        let plane = FaultPlane::with_seed(1);
        plane.set("t.always", FaultSchedule::Probability(1.0));
        let p = plane.point("t.always");
        for _ in 0..100 {
            assert!(!p.should_inject());
        }
        assert_eq!(p.stats().checked, 0, "disabled checks must not count");
        assert!(plane.trace().is_empty());
    }

    #[test]
    fn arrivals_only_advance_while_enabled() {
        let plane = FaultPlane::with_seed(7);
        plane.set("t.oneshot", FaultSchedule::OneShot(0));
        let p = plane.point("t.oneshot");
        assert!(!p.should_inject(), "warmup while disabled");
        plane.enable();
        assert!(p.should_inject(), "arrival 0 happens after enable");
    }

    #[test]
    fn trace_records_point_and_arrival() {
        let plane = FaultPlane::with_seed(3);
        plane.set("t.nth", FaultSchedule::EveryNth(2));
        plane.enable();
        let p = plane.point("t.nth");
        for _ in 0..6 {
            p.should_inject();
        }
        assert_eq!(
            plane.trace(),
            vec![
                FaultEvent {
                    point: "t.nth",
                    op: 1
                },
                FaultEvent {
                    point: "t.nth",
                    op: 3
                },
                FaultEvent {
                    point: "t.nth",
                    op: 5
                },
            ]
        );
        let stats = p.stats();
        assert_eq!((stats.checked, stats.injected), (6, 3));
    }

    #[test]
    fn same_seed_replays_identical_trace() {
        let run = |seed| {
            let plane = FaultPlane::with_seed(seed);
            plane.set("t.p", FaultSchedule::Probability(0.3));
            plane.enable();
            let p = plane.point("t.p");
            for _ in 0..200 {
                p.should_inject();
            }
            plane.trace()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seed, different trace");
    }

    #[test]
    fn point_handles_share_state() {
        let plane = FaultPlane::with_seed(5);
        plane.set("t.shared", FaultSchedule::EveryNth(1));
        plane.enable();
        let a = plane.point("t.shared");
        let b = plane.point("t.shared");
        assert!(a.should_inject());
        assert!(b.should_inject());
        assert_eq!(a.stats().checked, 2, "handles observe one shared counter");
    }

    #[test]
    fn stats_report_each_point_by_name() {
        let plane = FaultPlane::with_seed(9);
        plane.set("t.obs", FaultSchedule::EveryNth(2));
        plane.enable();
        let p = plane.point("t.obs");
        p.should_inject();
        p.should_inject();
        let expect = PointStats {
            name: "t.obs",
            checked: 2,
            injected: 1,
        };
        assert_eq!(plane.stats(), [expect]);
    }
}
