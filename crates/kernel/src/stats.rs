//! Statistics primitives shared by the profiling layer.
//!
//! The paper integrates "bus and master port profiling features" directly
//! into the transaction ports and internal functions (§3.6). Components
//! such as the DDR controller count their events with [`Counter`].

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
