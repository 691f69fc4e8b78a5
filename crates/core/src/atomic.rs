//! The contended single-cache-line baseline.

use crate::traits::Counter;
use pk_percpu::CoreId;
use std::sync::atomic::{AtomicI64, Ordering};

/// A single shared atomic counter — the design the paper's bottlenecks
/// come from.
///
/// "Lock-free atomic increment and decrement instructions do not help,
/// because the coherence hardware serializes the operations on a given
/// counter" (§4.3). Every update from every core pulls the same cache
/// line exclusive; this is the baseline the scalable designs beat.
#[derive(Debug, Default)]
pub struct AtomicCounter {
    value: AtomicI64,
}

impl AtomicCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }
}

impl Counter for AtomicCounter {
    fn add(&self, _core: CoreId, delta: i64) {
        self.value.fetch_add(delta, Ordering::AcqRel);
    }

    fn value(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_exactly() {
        let c = AtomicCounter::new();
        c.add(CoreId(0), 10);
        c.add(CoreId(1), -3);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn concurrent_sum_is_exact() {
        let c = Arc::new(AtomicCounter::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(CoreId(i), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 40_000);
    }
}
