//! The benchmark's own arithmetic: percentiles with the ten-beyond rule,
//! span self time, medians and quartiles, and per-mille ratios that keep
//! their bases.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile. A
/// percentile with fewer samples above it is one or two outliers, not a
/// tail.
pub const MIN_BEYOND: usize = 10;

/// The smallest sample count for which `percentile` is reportable.
pub fn min_samples_for(percent: f64) -> usize {
    // Nearest rank r = ⌈p·n/100⌉ leaves n − r samples beyond it.
    let mut n = MIN_BEYOND + 1;
    while n - nearest_rank(percent, n) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// One-based nearest rank of the `percent`-th percentile among `n`
/// samples, clamped to `1..=n`.
fn nearest_rank(percent: f64, n: usize) -> usize {
    ((percent / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The `percent`-th percentile (nearest rank) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], percent: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(percent, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A half-open time interval `[start, end)` in nanoseconds since a
/// common origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns (never before `start`).
    pub end: u64,
}

impl Interval {
    /// Length in ns.
    pub fn len(self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap
/// each other or stick out of the parent; only the covered part of the
/// parent counts, once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|child| Interval {
            start: child.start.max(parent.start),
            end: child.end.min(parent.end),
        })
        .filter(|child| child.end > child.start)
        .collect();
    clipped.sort_by_key(|child| child.start);
    let mut covered = 0u64;
    let mut reach = parent.start;
    for child in clipped {
        let start = child.start.max(reach);
        if child.end > start {
            covered += child.end - start;
            reach = child.end;
        }
    }
    parent.len() - covered
}

/// A per-mille ratio that remembers what it is a share of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Permille {
    /// The counted part.
    pub part: u64,
    /// What it is a share of (never reported as a bare ratio).
    pub base: u64,
}

impl Permille {
    /// `part` per mille of `base`; a zero base reads as 0 ‰.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 * 1000.0 / self.base as f64
        }
    }
}

impl fmt::Display for Permille {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}‰ ({}/{})", self.value(), self.part, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|value| value as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 1..=99: rank 90 leaves 9 beyond — not reportable.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // p90 of 1..=100: rank 90 leaves exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(100), 50.0), Some(50.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn min_samples_matches_the_rule() {
        for percent in [50.0, 90.0, 99.0] {
            let n = min_samples_for(percent);
            assert!(percentile(&ramp(n), percent).is_some());
            assert!(percentile(&ramp(n - 1), percent).is_none());
        }
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let parent = Interval { start: 0, end: 100 };
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        let children = [
            Interval { start: 10, end: 20 },
            Interval { start: 30, end: 50 },
        ];
        assert_eq!(self_time(parent, &children), 70);
        // Overlapping children are counted once.
        let overlapping = [
            Interval { start: 10, end: 40 },
            Interval { start: 30, end: 60 },
            Interval { start: 35, end: 45 },
        ];
        assert_eq!(self_time(parent, &overlapping), 50);
        // Children sticking out of the parent only count inside it.
        let outside = [
            Interval { start: 0, end: 0 },
            Interval {
                start: 90,
                end: 150,
            },
            Interval {
                start: 200,
                end: 300,
            },
        ];
        assert_eq!(self_time(parent, &outside), 90);
        // Unsorted input.
        let unsorted = [
            Interval { start: 60, end: 70 },
            Interval { start: 5, end: 15 },
        ];
        assert_eq!(self_time(parent, &unsorted), 80);
        // Fully covered.
        let full = [Interval { start: 0, end: 100 }];
        assert_eq!(self_time(parent, &full), 0);
    }

    #[test]
    fn permille_keeps_its_base() {
        let ratio = Permille { part: 3, base: 4 };
        assert_eq!(ratio.value(), 750.0);
        assert_eq!(ratio.to_string(), "750.000‰ (3/4)");
        assert_eq!(Permille { part: 5, base: 0 }.value(), 0.0);
    }
}
