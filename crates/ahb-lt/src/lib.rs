//! `ahb-lt` — the loosely-timed AHB+ bus model.
//!
//! The third point on the paper's speed/accuracy spectrum, between the
//! cycle-counting transaction-level model (`ahb-tlm`) and nothing at all:
//! in the SystemC taxonomy this is the *loosely-timed* (LT) style, where
//! the cycle-approximate `ahb-tlm` engine corresponds to the
//! *approximately-timed* (AT) style. The model preserves **exact
//! functional results** — every trace transaction completes, with the same
//! transaction counts, bytes, data beats and assertion outcomes as the
//! other two backends — while *estimating* timing per burst instead of
//! deriving it from arbitration and DRAM bank state machines:
//!
//! * **No filter-chain arbitration.** The bus serves requests in release
//!   order (earliest `HBUSREQ` first); contention appears only as queueing
//!   delay behind the single bus cursor.
//! * **Per-burst latency estimates.** DRAM latency comes from a row
//!   *sketch* — one remembered open row per bank — classified against the
//!   device timing parameters (CAS / tRCD / tRP), not from the full bank
//!   FSM with refresh, tRAS/tRC windows and data-bus queueing.
//! * **Batched write-buffer absorption.** Posted writes are absorbed the
//!   cycle they are released and their bus occupancy is drained in
//!   batches during idle gaps (or ahead of a demand request when the
//!   buffer would overflow), instead of competing through the arbiter
//!   entry by entry.
//!
//! The sources of timing error are therefore known and documented: DRAM
//! refresh, tRAS/tRC activation windows, grant/turnaround alignment, QoS
//! reordering, and write-buffer drain scheduling. The accuracy harness
//! (`BENCH_accuracy.json`) measures the resulting error per scenario;
//! [`LT_TIMING_ERROR_BOUND_PCT`] states the bound the property tests
//! enforce over the standard catalogue.
//!
//! As one shard of a multi-bus platform, [`LtSystem`] holds the same
//! bridge endpoint as the transaction-level shard,
//! [`amba::bridge::ShardPort`], and adds only its own glue: a master
//! stalled on a non-posted read is parked with `ready_at = u64::MAX`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod system;

pub use config::LtConfig;
pub use system::LtSystem;

/// Documented bound, in percent, on the loosely-timed model's
/// elapsed-cycle error against the transaction-level model over the
/// standard scenario catalogue (`traffic::pattern_registry` workloads at
/// catalogue seeds). Property tests assert the measured error stays under
/// this bound; the measured values (typically a few percent) are recorded
/// in `BENCH_accuracy.json` per commit.
pub const LT_TIMING_ERROR_BOUND_PCT: f64 = 20.0;
