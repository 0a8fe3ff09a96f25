//! Statistics primitives shared by the profiling layer.
//!
//! The paper integrates "bus and master port profiling features" directly
//! into the transaction ports and internal functions (§3.6). These small
//! accumulators are the building blocks: monotone counters and integer
//! cycle-count statistics.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.count
    }

    /// Resets to zero.
    pub fn clear(&mut self) {
        self.count = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.count)
    }
}

/// Integer cycle-count statistics: count, sum, min and max over `u64`
/// samples, with no float conversion on the record path. Built for
/// once-per-transaction latency accounting in simulation hot loops; means
/// are computed on demand (sums of cycle counts stay exact in `f64` well
/// past 2^53 total cycles of any realistic run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleStats {
    fn default() -> Self {
        CycleStats::new()
    }
}

impl CycleStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        CycleStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one cycle-count sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(c.to_string(), "5");
        c.clear();
        assert_eq!(c.value(), 0);
    }
}
