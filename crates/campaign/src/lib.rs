//! `campaign` — resumable design-space sweeps and a serving layer over
//! the AHB+ model registry.
//!
//! The paper's payoff (§3.7) is that transaction-level models make
//! design-space exploration *practical*: thousands of configuration
//! points at milliseconds each instead of minutes of pin-accurate
//! simulation. This crate is the orchestration layer that turns the
//! repo's declarative ingredients ([`ahbplus::ScenarioSpec`],
//! [`ahbplus::Topology`], the [`ahbplus::registry`], `SnapshotSink`
//! streaming) into that workflow.
//!
//! # Lifecycle: spec → lattice → journal → report
//!
//! 1. **Spec.** A [`CampaignSpec`] describes a parameter lattice: base
//!    scenarios crossed with a model axis and optional seed /
//!    bus-parameter / DDR axes.
//! 2. **Lattice.** [`CampaignSpec::expand`] yields one [`RunPoint`] per
//!    lattice point. Each point is content-hashed over the canonical,
//!    label-free encoding of its (spec, seed, params, model) — see
//!    [`spec::point_hash`] — so identical experiments are identical
//!    *by construction*, whatever they are called.
//! 3. **Journal.** [`Campaign::run`] drains the not-yet-done points
//!    through a bounded worker pool; every completion appends one
//!    flushed line to `journal.jsonl` and stores the outcome in the
//!    content-addressed result cache. Kill the process at any moment —
//!    SIGKILL included — and a later run on the same directory executes
//!    exactly the remaining points; points already in the cache are
//!    served from it instead of simulating.
//! 4. **Report.** [`Campaign::report`] aggregates the journal into an
//!    [`analysis::campaign::CampaignBenchRecord`] — per-point results
//!    plus per-session worker/wall accounting (the single-worker vs
//!    N-worker scaling evidence).
//!
//! # Example
//!
//! ```
//! use campaign::{Campaign, CampaignSpec, RunOptions};
//!
//! let dir = std::env::temp_dir().join("campaign-crate-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! let spec = CampaignSpec::new("doc-example")
//!     .with_scenario(ahbplus::scenario("table1-a").unwrap().with_transactions(5))
//!     .with_model(ahbplus::lookup("tlm").unwrap())
//!     .with_seeds(vec![1, 2]);
//! let campaign = Campaign::create(&dir, spec).unwrap();
//! let summary = campaign.run(RunOptions { workers: 2, max_points: None }).unwrap();
//! assert_eq!(summary.executed, 2);
//! let record = campaign.report().unwrap();
//! assert!(record.is_complete());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! # Serving mode
//!
//! [`CampaignServer`] (module [`serve`]) listens on a local socket and
//! answers `POST /run` requests — a canonical-JSON scenario plus a
//! model kind or an explicit topology — with a streamed probe timeline
//! and a final report line. See the [`serve`] module docs for the
//! request format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod journal;
pub mod serve;
pub mod spec;

pub use cache::{PointOutcome, ResultCache};
pub use engine::{execute_point, Campaign, CampaignError, RunOptions, SessionSummary};
pub use journal::{Journal, JournalEvent, JournalWriter};
pub use serve::{CampaignServer, ServerMetrics};
pub use spec::{point_hash, topology_point_hash, CampaignSpec, RunPoint};
