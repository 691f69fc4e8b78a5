//! Bounded retry with deterministic exponential backoff.

use crate::schedule::mix64;

/// What a [`RetryPolicy::run`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome<T, E> {
    /// The final `Ok` value, or the last error once attempts ran out.
    pub result: Result<T, E>,
    /// Attempts made (1 when the first try succeeded).
    pub attempts: u32,
    /// Total simulated backoff, in cycles. Never slept — the simulation
    /// charges these cycles to the workload's books instead.
    pub backoff_cycles: u64,
}

/// Bounded exponential backoff with deterministic jitter.
///
/// The delay before retry `a` is drawn from `[exp/2, exp]` where
/// `exp = min(base << a, max)`, with the jitter fraction derived from
/// `(seed, token, a)` — so a chaos run's recovery schedule replays from
/// the same seed as its faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts before giving up (at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in cycles.
    pub base_delay_cycles: u64,
    /// Cap on any single backoff, in cycles.
    pub max_delay_cycles: u64,
}

impl RetryPolicy {
    /// A small default suited to the workload drivers: up to 4 attempts,
    /// 1k-cycle base, 64k-cycle cap.
    pub const DEFAULT: Self = Self {
        max_attempts: 4,
        base_delay_cycles: 1_000,
        max_delay_cycles: 64_000,
    };

    /// The backoff charged before retry attempt `attempt` (0-indexed:
    /// the delay between attempt `attempt` failing and the next try).
    pub fn delay_cycles(&self, seed: u64, token: u64, attempt: u32) -> u64 {
        let exp = self
            .base_delay_cycles
            .saturating_shl(attempt)
            .min(self.max_delay_cycles)
            .max(1);
        // Jitter in [exp/2, exp]: full jitter halves the thundering herd
        // without ever collapsing the delay to zero.
        let jitter = mix64(seed ^ token.rotate_left(23) ^ u64::from(attempt));
        exp / 2 + jitter % (exp / 2 + 1)
    }

    /// Run `op` until it succeeds or attempts run out, charging
    /// deterministic backoff between failures.
    ///
    /// `op` receives the 0-indexed attempt number. `token` distinguishes
    /// concurrent retry loops sharing one seed (e.g. a message id), so
    /// their jitter decorrelates.
    pub fn run<T, E>(
        &self,
        seed: u64,
        token: u64,
        op: impl FnMut(u32) -> Result<T, E>,
    ) -> RetryOutcome<T, E> {
        self.run_within(seed, token, 0, op).outcome
    }
}

/// What a [`RetryPolicy::run_within`] call produced: a [`RetryOutcome`]
/// plus whether the deadline budget, not the attempt bound, ended it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineOutcome<T, E> {
    /// The underlying retry outcome. When the deadline expired, `result`
    /// still carries the *last transient error* — the caller decides
    /// how to surface the exhaustion (the kernel maps it to `Timeout`).
    pub outcome: RetryOutcome<T, E>,
    /// True when retrying stopped because the accumulated backoff
    /// would cross `budget_cycles`, with attempts still remaining.
    pub deadline_exhausted: bool,
}

impl RetryPolicy {
    /// [`RetryPolicy::run`] under a deadline: gives up early when the
    /// *next* backoff would push total charged cycles past
    /// `budget_cycles` — a request past its SLO budget must not keep a
    /// worker busy producing a reply nobody is waiting for.
    ///
    /// A `budget_cycles` of 0 means no deadline (plain `run`).
    pub fn run_within<T, E>(
        &self,
        seed: u64,
        token: u64,
        budget_cycles: u64,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> DeadlineOutcome<T, E> {
        let max = self.max_attempts.max(1);
        let mut backoff_cycles = 0;
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => {
                    return DeadlineOutcome {
                        outcome: RetryOutcome {
                            result: Ok(v),
                            attempts: attempt + 1,
                            backoff_cycles,
                        },
                        deadline_exhausted: false,
                    }
                }
                Err(e) if attempt + 1 >= max => {
                    return DeadlineOutcome {
                        outcome: RetryOutcome {
                            result: Err(e),
                            attempts: attempt + 1,
                            backoff_cycles,
                        },
                        deadline_exhausted: false,
                    }
                }
                Err(e) => {
                    let delay = self.delay_cycles(seed, token, attempt);
                    if budget_cycles > 0 && backoff_cycles + delay > budget_cycles {
                        return DeadlineOutcome {
                            outcome: RetryOutcome {
                                result: Err(e),
                                attempts: attempt + 1,
                                backoff_cycles,
                            },
                            deadline_exhausted: true,
                        };
                    }
                    backoff_cycles += delay;
                    attempt += 1;
                }
            }
        }
    }
}

/// `u64::checked_shl` that saturates instead of wrapping, so huge attempt
/// counts cannot shift the base back down to a tiny delay.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> Self {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_costs_nothing() {
        let out = RetryPolicy::DEFAULT.run(1, 1, |_| Ok::<_, ()>(7));
        assert_eq!(out.result, Ok(7));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.backoff_cycles, 0);
    }

    #[test]
    fn retries_until_success() {
        let out = RetryPolicy::DEFAULT.run(1, 1, |a| if a < 2 { Err(()) } else { Ok(a) });
        assert_eq!(out.result, Ok(2));
        assert_eq!(out.attempts, 3);
        assert!(out.backoff_cycles > 0);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut calls = 0;
        let out = RetryPolicy::DEFAULT.run(1, 1, |_| {
            calls += 1;
            Err::<(), _>("enomem")
        });
        assert_eq!(out.result, Err("enomem"));
        assert_eq!(out.attempts, 4);
        assert_eq!(calls, 4);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 16,
            base_delay_cycles: 100,
            max_delay_cycles: 1_000,
        };
        for attempt in 0..16 {
            let d = p.delay_cycles(9, 9, attempt);
            let exp = (100u64 << attempt.min(10)).min(1_000);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d} vs cap {exp}"
            );
        }
        // Huge attempt numbers must not wrap the shift back down.
        assert!(p.delay_cycles(9, 9, 200) >= 500);
    }

    #[test]
    fn deadline_stops_retrying_before_the_attempt_bound() {
        // Budget smaller than the first backoff: one attempt, flagged.
        let out = RetryPolicy::DEFAULT.run_within(1, 1, 10, |_| Err::<(), _>("eagain"));
        assert!(out.deadline_exhausted);
        assert_eq!(out.outcome.attempts, 1);
        assert_eq!(out.outcome.result, Err("eagain"));
        assert!(
            out.outcome.backoff_cycles <= 10,
            "never charges past the budget"
        );

        // A huge budget degenerates to plain `run`.
        let plain = RetryPolicy::DEFAULT.run(1, 1, |_| Err::<(), _>("eagain"));
        let within = RetryPolicy::DEFAULT.run_within(1, 1, u64::MAX, |_| Err::<(), _>("eagain"));
        assert!(!within.deadline_exhausted);
        assert_eq!(within.outcome.attempts, plain.attempts);
        assert_eq!(within.outcome.backoff_cycles, plain.backoff_cycles);

        // Zero budget means no deadline at all.
        let unbounded = RetryPolicy::DEFAULT.run_within(1, 1, 0, |_| Err::<(), _>("eagain"));
        assert!(!unbounded.deadline_exhausted);
        assert_eq!(unbounded.outcome.attempts, 4);
    }

    #[test]
    fn deadline_success_inside_budget_is_unflagged() {
        let out =
            RetryPolicy::DEFAULT.run_within(
                1,
                1,
                u64::MAX,
                |a| if a < 1 { Err(()) } else { Ok(a) },
            );
        assert!(!out.deadline_exhausted);
        assert_eq!(out.outcome.result, Ok(1));
        assert_eq!(out.outcome.attempts, 2);
    }

    #[test]
    fn jitter_is_deterministic_but_token_dependent() {
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.delay_cycles(42, 7, 1), p.delay_cycles(42, 7, 1));
        let same_token: Vec<u64> = (0..4).map(|a| p.delay_cycles(42, 7, a)).collect();
        let other_token: Vec<u64> = (0..4).map(|a| p.delay_cycles(42, 8, a)).collect();
        assert_ne!(same_token, other_token, "token decorrelates jitter");
    }
}
