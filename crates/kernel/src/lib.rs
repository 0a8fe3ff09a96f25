//! `simkern` — simulation substrate for the AHB+ transaction-level and
//! pin-accurate bus models.
//!
//! The original paper builds its models on top of a commercial *2-step
//! cycle-based* simulation tool and uses *method-based* (function call)
//! modeling instead of thread-based processes. Neither style needs an event
//! scheduler here:
//!
//! * The transaction-level models advance time by plain function calls —
//!   each transaction computes its own grant and completion cycles — so
//!   there is no event queue.
//! * The pin-accurate model is a set of [`Clocked`] components stepped two
//!   phases per cycle (evaluate combinational logic against committed
//!   values, then commit every scheduled value at once). The platform owns
//!   its run loop (`ahb_rtl::RtlSystem::run_until`) and calls the phases
//!   itself.
//!
//! # Idle-skip contract
//!
//! Stepping both phases on every component every cycle is why signal-level
//! simulation is slow. Components that can cheaply prove they are
//! *quiescent* let the run loop fast-forward by overriding two trait hooks:
//!
//! * [`component::Clocked::is_quiescent`] — return `true` at cycle `T` only
//!   if stepping the component over `[T, wake_at)` would change no
//!   observable state. The default (`false`) always disables skipping, so
//!   correctness never depends on a component opting in.
//! * [`component::Clocked::wake_at`] — the earliest future cycle at which
//!   the (currently quiescent) component becomes active *of its own
//!   accord*; `None` means "only other components' activity can wake me".
//!
//! `RtlSystem::run_until` jumps in one step while **all** of its blocks
//! report quiescence, bounded by the minimum `wake_at` and the end of the
//! run; skipped cycles still count toward the report.
//!
//! Supporting utilities shared by the models:
//!
//! * [`time`] — strongly-typed cycle counts.
//! * [`signal`] — two-phase registers/signals with edge detection.
//! * [`rng`] — deterministic pseudo random number generation so that the
//!   RTL and TLM runs replay bit-identical stimulus.
//! * [`stats`] — event counters.
//! * [`assertion`] — simulation-time property checking (paper §3.5).
//!
//! # Example
//!
//! ```
//! use simkern::signal::{Edge, Register};
//! use simkern::time::{Cycle, CycleDelta};
//!
//! let mut now = Cycle::new(0);
//! let mut hready = Register::new(false);
//! hready.load(true); // evaluate: schedule the next value
//! assert!(!hready.get(), "not visible before the commit");
//! assert_eq!(hready.commit(), Edge::Changed);
//! now += CycleDelta::ONE;
//! assert!(hready.get());
//! assert_eq!(now, Cycle::new(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertion;
pub mod component;
pub mod rng;
pub mod signal;
pub mod stats;
pub mod time;

pub use assertion::{AssertionKind, AssertionSink, Severity, Violation};
pub use component::Clocked;
pub use rng::SimRng;
pub use signal::{Edge, Register, Signal};
pub use stats::Counter;
pub use time::{Cycle, CycleDelta};
