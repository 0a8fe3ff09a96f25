//! `traffic` — deterministic synthetic master workloads.
//!
//! The paper evaluates its models "by changing the traffic patterns of the
//! masters" (§4, Table 1). The real platform's masters (CPU, DMA engines,
//! video IPs of a DVD-player SoC) are proprietary, so this crate provides
//! the closest synthetic equivalents: parameterized request generators for
//! a CPU-like master, a streaming DMA engine, a real-time video master and
//! a block writer, plus the three-pattern catalogue used to regenerate
//! Table 1.
//!
//! The crucial property is *determinism*: a workload is expanded into an
//! explicit [`trace::TrafficTrace`] (a list of release times / think gaps
//! and fully-formed transactions) before simulation starts, and the **same
//! trace** is replayed into the pin-accurate model and the transaction-level
//! model. Any metric difference between the two runs is therefore caused by
//! the models, not the stimulus — which is what the paper's accuracy
//! comparison measures.
//!
//! # Example
//!
//! ```
//! use traffic::{MasterProfile, Workload};
//! use amba::ids::MasterId;
//!
//! let workload = Workload::new(MasterId::new(0), MasterProfile::cpu(), 42);
//! let trace = workload.generate(100);
//! assert_eq!(trace.len(), 100);
//! assert!(trace.items().iter().all(|i| i.txn.master == MasterId::new(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pattern;
pub mod profile;
pub mod trace;

pub use pattern::{
    attach_bridge, pattern_a, pattern_b, pattern_by_name, pattern_c, pattern_dual_stream,
    pattern_many, pattern_many_32, pattern_many_64, pattern_qos_stress, pattern_registry,
    pattern_shards, pattern_shards_read_union, pattern_shards_union, ShardMix, TrafficPattern,
    SHARD_WINDOW_SHIFT,
};
pub use profile::{MasterKind, MasterProfile, ReleasePolicy};
pub use trace::{Release, TraceItem, TrafficTrace, Workload};
