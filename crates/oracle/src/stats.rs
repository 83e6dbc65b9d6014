//! Query accounting.
//!
//! Every lower bound in the paper is a statement about the number of
//! queries an algorithm makes to the instance, and the upper bound
//! (Theorem 4.1) is a statement about the number of weighted samples it
//! draws. [`AccessStats`] counts both, with interior mutability so that
//! oracles can be shared immutably across threads (the "hugely
//! distributed" deployment the paper motivates).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters for the two access channels.
#[derive(Debug, Default)]
pub struct AccessStats {
    point_queries: AtomicU64,
    weighted_samples: AtomicU64,
}

impl AccessStats {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Records one point query (`query(i)` in Definition 2.2).
    #[inline]
    pub fn record_point_query(&self) {
        self.point_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one profit-proportional sample (the Section 4 model).
    #[inline]
    pub fn record_weighted_sample(&self) {
        self.weighted_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `count` profit-proportional samples in one add (a batch).
    #[inline]
    pub(crate) fn record_weighted_samples(&self, count: u64) {
        self.weighted_samples.fetch_add(count, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters.
    pub fn snapshot(&self) -> AccessSnapshot {
        AccessSnapshot {
            point_queries: self.point_queries.load(Ordering::Relaxed),
            weighted_samples: self.weighted_samples.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.point_queries.store(0, Ordering::Relaxed);
        self.weighted_samples.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.snapshot())
    }
}

/// A point-in-time copy of [`AccessStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessSnapshot {
    /// Number of point queries so far.
    pub point_queries: u64,
    /// Number of weighted samples so far.
    pub weighted_samples: u64,
}

impl AccessSnapshot {
    /// Total accesses of either kind — the "query complexity" ledger used
    /// by the experiments.
    pub fn total(&self) -> u64 {
        self.point_queries + self.weighted_samples
    }

    /// Difference since an earlier snapshot (for per-LCA-query costs).
    pub fn since(&self, earlier: AccessSnapshot) -> AccessSnapshot {
        AccessSnapshot {
            point_queries: self.point_queries - earlier.point_queries,
            weighted_samples: self.weighted_samples - earlier.weighted_samples,
        }
    }
}

impl fmt::Display for AccessSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point_queries={} weighted_samples={}",
            self.point_queries, self.weighted_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_snapshot() {
        let stats = AccessStats::new();
        stats.record_point_query();
        stats.record_point_query();
        stats.record_weighted_sample();
        let snap = stats.snapshot();
        assert_eq!(snap.point_queries, 2);
        assert_eq!(snap.weighted_samples, 1);
        assert_eq!(snap.total(), 3);
    }

    #[test]
    fn reset_zeroes() {
        let stats = AccessStats::new();
        stats.record_point_query();
        stats.reset();
        assert_eq!(stats.snapshot(), AccessSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let stats = AccessStats::new();
        stats.record_point_query();
        let before = stats.snapshot();
        stats.record_point_query();
        stats.record_weighted_sample();
        let delta = stats.snapshot().since(before);
        assert_eq!(delta.point_queries, 1);
        assert_eq!(delta.weighted_samples, 1);
    }

    #[test]
    fn stats_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessStats>();
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let stats = AccessStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        stats.record_point_query();
                    }
                });
            }
        });
        assert_eq!(stats.snapshot().point_queries, 4000);
    }

    #[test]
    fn display_formats() {
        let stats = AccessStats::new();
        stats.record_weighted_sample();
        assert!(stats.to_string().contains("weighted_samples=1"));
    }
}
