//! `ahb-tlm` — the transaction-level model of the AHB+ bus.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! method-based (function-call, not thread-based) transaction-level model of
//! the extended AMBA 2.0 bus AHB+ together with its write buffer, QoS-aware
//! arbitration, request pipelining and the Bus Interface to the DDR
//! controller.
//!
//! Instead of evaluating every signal of every block on every clock edge
//! (what the pin-accurate reference in `ahb-rtl` does), the transaction
//! level model advances from **transaction boundary to transaction
//! boundary**: when the bus becomes free it arbitrates among the pending
//! requests with the same [`amba::arbitration::ArbitrationPolicy`] the RTL
//! arbiter uses, asks the shared [`ddrc::DdrController`] for the timing of
//! the winning burst (one function call), and schedules the completion.
//! The per-cycle work disappears, which is where the paper's 353× speedup
//! comes from, while the cycle *counts* stay within a few percent of the
//! reference because the arbitration algorithm, the DRAM bank FSMs and the
//! transaction timings are shared.
//!
//! Crate layout:
//!
//! * [`config`] — the model configuration ([`TlmConfig`]).
//! * [`master`] — trace-driven master ports (the `CheckGrant()` / `Read()` /
//!   `Write()` port behaviour of paper §3.2, driven from a
//!   [`traffic::TrafficTrace`]).
//! * [`write_buffer`] — the AHB+ posted-write buffer that behaves as an
//!   extra master when occupied (paper §3.3).
//! * [`arbiter`] — the QoS-aware arbitration front-end and the BI
//!   next-transaction hint generation.
//! * [`ready`] — the incrementally maintained set of masters with a
//!   released request, kept in the arbiter's slot layout so it *is* the
//!   filter chain's pending set.
//! * [`bus`] — the transaction-level bus engine and [`TlmSystem`], the
//!   top-level object that runs a platform and produces a
//!   [`analysis::SimReport`]. Each arbitration round reads the ready set,
//!   the master heads and the write-buffer head in place and interns only
//!   the winner's transaction, so a round costs about the same with 4 or
//!   64 waiting masters. As one shard of a multi-bus platform it holds the
//!   shared bridge endpoint, [`amba::bridge::ShardPort`], and adds only
//!   its own glue: the ready set, the invalidation of the speculative
//!   (pipelined) decision and the tracer calls.
//!
//! [`TlmSystem`] implements the unified [`analysis::BusModel`] trait —
//! bounded stepping (`run_until`/`step`), [`analysis::Probe`] snapshots
//! and idempotent reports — so run-control code (lockstep co-simulation,
//! design-space sweeps, the speed harness) drives it interchangeably with
//! the pin-accurate reference. The transaction hot loop lives inside
//! `run_until` and stays monomorphized; the trait only fronts it.
//!
//! # Example
//!
//! ```
//! use ahb_tlm::{TlmConfig, TlmSystem};
//! use simkern::time::Cycle;
//! use traffic::{pattern_a, TrafficPattern};
//!
//! let pattern = pattern_a();
//! let mut system = TlmSystem::from_pattern(TlmConfig::default(), &pattern, 50, 1);
//! // Bounded stepping through the unified interface...
//! system.run_until(Cycle::new(1_000));
//! let mid = system.probe();
//! // ...and running to completion.
//! let report = system.run();
//! assert!(report.total_transactions() > 0);
//! assert!(mid.transactions <= report.total_transactions());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bus;
pub mod config;
pub mod master;
pub mod ready;
pub mod write_buffer;

pub use arbiter::TlmArbiter;
pub use bus::TlmSystem;
pub use config::TlmConfig;
pub use master::TraceMaster;
pub use ready::ReadySet;
pub use write_buffer::{WriteBuffer, WRITE_BUFFER_MASTER};
