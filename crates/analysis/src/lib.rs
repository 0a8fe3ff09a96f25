//! `analysis` — profiling, reports and the RTL-vs-TLM accuracy comparison.
//!
//! The paper integrates profiling features into the transaction ports and
//! bus internals (§3.6) and uses them for the evaluation of §4: Table 1
//! (cycle-count accuracy of the TLM against the RTL reference under several
//! traffic patterns) and the simulation-speed comparison (0.47 Kcycles/s at
//! RTL vs 166 Kcycles/s at TL, 353×).
//!
//! * [`model`] — the unified [`model::BusModel`] trait both abstraction
//!   levels implement (bounded stepping, probes, reports), which every
//!   driver, sweep and harness is written against.
//! * [`recorder`] — the counter core every backend fills while it runs
//!   (per-master completions and QoS violations, bus work, busy and
//!   contention cycles). A [`report::SimReport`] is its projection
//!   together with the backend's [`model::Probe`].
//! * [`report`] — the per-run [`report::SimReport`] with per-master and
//!   bus-level metrics, plus wall-clock speed accounting.
//! * [`accuracy`] — compares two backends run on the same stimulus: the
//!   Table-1 rows from their reports (per-metric relative errors and their
//!   average) and every probe counter, packed per scenario into the
//!   `BENCH_accuracy.json` record.
//! * [`speed`] — pairs the wall-clock throughput of the two runs into the
//!   Kcycles/s + speedup summary of §4.
//! * [`trace`] — the structured event-tracing subsystem: deterministic
//!   transaction-lifecycle / bridge / scheduler event streams every
//!   backend can emit ([`trace::Tracer`]), merged shard logs
//!   ([`trace::TraceLog`]) and Perfetto and JSON-lines exporters.
//! * [`tracebin`] — the compact `.ahbt` binary trace container
//!   (delta-encoded varint events, ~6× smaller than JSON-lines) with a
//!   streaming, bounded-memory [`tracebin::TraceReader`].
//! * [`profile`] — latency attribution over trace streams: per-master /
//!   per-shard percentile reports, component decomposition (arbitration
//!   wait, DDR service by row class, bridge legs, write-buffer costs),
//!   utilization timelines, top-K slowest transactions and the A/B
//!   [`profile::ProfileDiff`].
//! * [`canon`] — canonical JSON values with a stable byte encoding and
//!   FNV-1a content hashing (the identity of a campaign run point).
//! * [`campaign`] — the aggregated design-space campaign artifact
//!   (per-point results + per-session worker/wall accounting).
//!
//! # Example
//!
//! A backend registers its masters, records completions and bus
//! occupancy while it runs, and projects the recorder and its probe into
//! a report:
//!
//! ```
//! use amba::ids::MasterId;
//! use amba::qos::QosConfig;
//! use analysis::model::Probe;
//! use analysis::recorder::Recorder;
//! use analysis::report::ModelKind;
//!
//! let mut recorder = Recorder::new(ModelKind::TransactionLevel);
//! let cpu = recorder.register_master(MasterId::new(0), "cpu", QosConfig::non_real_time(1));
//! // Requested at cycle 0, granted at 2, retired at 12: 8 beats, 32 bytes.
//! recorder.record_completion(cpu, 32, 8, 0, 2, 12);
//! recorder.add_busy_cycles(10, false);
//! // Component-owned totals (write buffer, DRAM, assertions) join here.
//! let probe = Probe { cycle: 12, dram_accesses: 1, ..recorder.probe() };
//! let report = recorder.report(&probe, probe.cycle, 0.01);
//! assert_eq!(report.bus.transactions, 1);
//! assert_eq!(report.masters[&MasterId::new(0)].avg_latency, 12.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod campaign;
pub mod canon;
pub mod jsonfmt;
pub mod model;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod speed;
pub mod trace;
pub mod tracebin;

pub use accuracy::{AccuracyBenchRecord, CounterComparison, ModelComparison};
pub use campaign::{CampaignBenchRecord, CampaignPointRecord, CampaignSessionRecord, PointStatus};
pub use canon::{content_hash, content_hash_hex, CanonError, CanonValue};
pub use model::{BusModel, Probe, PROBE_FIELDS};
pub use profile::{Profile, ProfileBuilder, ProfileDiff, ProfileOptions};
pub use recorder::Recorder;
pub use report::{BusMetrics, MasterMetrics, ModelKind, SimReport};
pub use speed::{ModelMeasurement, SpeedBenchRecord, SpeedReport};
pub use trace::{TraceEvent, TraceEventKind, TraceLog, Tracer};
pub use tracebin::TraceReader;
