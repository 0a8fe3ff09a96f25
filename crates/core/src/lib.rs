//! `ahbplus` — the public façade of the AHB+ bus-architecture models.
//!
//! The façade is organized around one idea: **every backend is a
//! [`BusModel`]**. Three abstraction levels implement the same trait —
//! bounded stepping, a completion predicate, [`Probe`] snapshots and
//! [`SimReport`]s — forming the paper's speed/accuracy spectrum as
//! runnable code:
//!
//! | model | crate | timing | typical speed |
//! |---|---|---|---|
//! | `rtl` | [`ahb_rtl`] | pin-accurate, cycle-level | 1× |
//! | `tlm` | [`ahb_tlm`] | cycle-counting, per-transaction | ~15× RTL |
//! | `lt`  | [`ahb_lt`]  | estimated per burst, exact results | ~2-4× TLM |
//! | `sharded-tlm` | [`ahb_multi`] | N bridged TLM shards, conservative quanta | scales with shards |
//! | `sharded-tlm-la` | [`ahb_multi`] | same shards, adaptive-lookahead quanta | ≥ sharded-tlm, identical results |
//! | `sharded-lt`  | [`ahb_multi`] | N bridged LT shards | scales with shards |
//! | `sharded-het` | [`ahb_multi`] | heterogeneous 2×TLM + 2×LT shards | between the two |
//! | `sharded-tlm-reads` | [`ahb_multi`] | TLM shards, non-posted read crossings | high aggregate rate over a much longer stalled span |
//! | `sharded-skew` | [`ahb_multi`] | TLM shards, non-uniform window ownership | ≈ sharded-tlm |
//!
//! The sharded platforms are the *sideways* scaling axis: the same
//! workload split over N independent buses (each its own arbiter, write
//! buffer and DDR) connected by AHB-to-AHB bridges, executed under
//! conservative quantum synchronization on one thread. Their aggregate
//! throughput (bus-cycles simulated per second, summed over shards)
//! beats the equivalent single-bus model as soon as the bus is the
//! bottleneck: a 16-master bridge-light workload runs ~2.4× faster as
//! `sharded-tlm` 4×4 than on one flat bus.
//!
//! # How synchronization works
//!
//! The shards advance under **conservative quantum synchronization**:
//! the platform commits a barrier schedule whose quantum never exceeds
//! the minimum bridge crossing latency, so a shard simulating freely up
//! to the next barrier can never miss a remote effect — every crossing
//! issued inside a quantum is exchanged at the barrier and released at
//! or after it. There is one scheduler: the shards run one after another
//! on the calling thread, and each barrier costs one route-and-inject
//! step. A quantum of shard work is shorter than a thread rendezvous, so
//! the adaptive lookahead below is the lever on synchronization cost.
//!
//! With [`MultiConfig::with_lookahead`] the quantum becomes *adaptive*:
//! at a quiet barrier (nothing delivered), every shard computes a
//! lookahead bound — the earliest cycle it could emit a crossing, from
//! its release tables filtered to remote windows, its bridge egress and
//! owed responses, and remote writes parked in its buffers — and the
//! scheduler stretches the next quantum toward the minimum bound plus
//! one crossing latency (clamped by
//! [`MultiConfig::with_max_stretch`]). Nothing can cross before
//! the bound, so the stretched run takes the *same* simulation through
//! fewer barriers: results and probes stay identical to the fixed
//! schedule (`sharded-tlm-la` is the registered spectrum point; the
//! speed harness also measures a lookahead LT twin). The per-run
//! counters — barriers taken, barriers stretched, cycles gained, mean
//! effective quantum — surface through [`BusModel::sync_stats`] and the
//! `BENCH_speed.json` artifact.
//!
//! # Describing a topology
//!
//! Every sharded platform is built from a declarative
//! [`ahb_multi::Topology`]: backend per shard, window ownership, per-link
//! timing and the read-crossing mode are data, not code. The named
//! configurations above are just canonical topology values
//! ([`ahb_multi::Topology::het_2x2`],
//! [`ahb_multi::Topology::tlm_non_posted_reads`],
//! [`ahb_multi::Topology::tlm_skewed_windows`]); a bespoke platform is a
//! few builder calls away and plugs into the same harnesses through
//! [`PlatformConfig::build_topology`]:
//!
//! ```
//! use ahbplus::{PlatformConfig, ShardBackendKind};
//! use ahb_multi::{BridgeConfig, Topology};
//! use traffic::pattern_a;
//!
//! // A hot cycle-accurate shard and a cold loosely-timed shard with an
//! // asymmetric return link and non-posted (stalling) remote reads.
//! let topology = Topology::heterogeneous(vec![
//!     ShardBackendKind::Tlm,
//!     ShardBackendKind::Lt,
//! ])
//! .with_link(1, 0, BridgeConfig { crossing_latency: 48, ..BridgeConfig::ahb_plus() })
//! .with_posted_reads(false);
//!
//! let config = PlatformConfig::new(pattern_a(), 20, 7);
//! let mut platform = config.build_topology(topology);
//! let report = platform.run();
//! assert_eq!(report.total_transactions(), 4 * 20);
//! ```
//!
//! Everything above the trait works for all of them (and for any future
//! backend) without special cases:
//!
//! * [`platform`] — a single [`PlatformConfig`] describing bus parameters,
//!   DDR device, traffic pattern and workload size, from which **every**
//!   abstraction level is built.
//! * [`registry`] — the one table of runnable models ([`MODELS`]): a
//!   name, a fidelity and an optional workload override per entry, each
//!   building a boxed [`BusModel`] from a [`PlatformConfig`].
//! * [`mod@scenario`] — declarative [`ScenarioSpec`]s plus the
//!   named-scenario catalogue: experiments as data, resolved to platforms
//!   on demand.
//! * [`simulation`] — run control: the [`Simulation`] stepping driver
//!   with mid-run snapshots (accumulated, or streamed through a
//!   [`SnapshotSink`] for long sweeps), and [`run_lockstep`]
//!   co-simulation that runs two models on identical stimulus and reports
//!   the first cycle at which their observable state diverges — the
//!   paper's "simulation results were identical" claim as an executable
//!   check.
//! * [`mod@accuracy`] — the one accuracy surface: every registered
//!   backend pair lockstepped over the scenario catalogue into
//!   [`ModelComparison`]s carrying the paper's Table-1 rows and
//!   per-counter error percentages, `BENCH_accuracy.json`; the Table-1
//!   experiment ([`table1_record`]) is the `rtl` → candidate view of it
//!   over the three Table-1 patterns.
//! * [`speed`] — the §4 speed experiment over the registered model set
//!   ([`analysis::SpeedReport`], `BENCH_speed.json`).
//!
//! # Adding another backend
//!
//! A new abstraction level (a statistical model, a different fabric, ...)
//! only has to:
//!
//! 1. implement [`analysis::BusModel`] — `run_until`/`step` with the
//!    progress guarantee, `finished`, `probe`, idempotent `report` (see
//!    the trait docs for the contract; `ahb-lt` is the smallest worked
//!    example, `ahb-multi` the worked example of a *composite* backend
//!    that aggregates other backends' probes);
//! 2. add one entry to [`registry::MODELS`]: a name, a
//!    [`registry::Fidelity`] and, for a scaling configuration, a
//!    [`registry::WorkloadOverride`].
//!
//! That entry is the whole integration: the model then appears in
//! `table2_speed`, `BENCH_speed.json`, `trace_report`, `campaign` and
//! `campaign serve`, and — when it runs the scenario's own traffic — in
//! `BENCH_accuracy.json` (with its lockstep results-match gate enforced by
//! CI) and the examples, with zero harness edits. A new multi-bus shape is
//! the same single step: an entry whose fidelity names a
//! [`Topology`] (the sharded, heterogeneous, non-posted-read and
//! skewed-window platforms are all entries of that kind), plus a
//! `traffic::pattern_shards` override for the dedicated scaling
//! configurations such as `sharded-tlm-4x4`. The label a backend stamps on
//! its [`SimReport`] stays a [`ModelKind`].
//!
//! # Quick start
//!
//! ```
//! use ahbplus::{scenario, Simulation};
//! use simkern::time::CycleDelta;
//!
//! // Resolve a named scenario into a platform, shrink it for the doc
//! // test, and drive the fast model with mid-run snapshots.
//! let spec = scenario("table1-a").expect("catalogued").with_transactions(20);
//! let mut sim = Simulation::new(spec.resolve().expect("resolvable").build_tlm());
//! let report = sim.run_with_snapshots(CycleDelta::new(1_000));
//! assert_eq!(report.total_transactions(), 4 * 20);
//! assert!(!sim.snapshots().is_empty());
//! ```
//!
//! # Co-simulation
//!
//! ```
//! use ahbplus::{run_lockstep, PlatformConfig};
//! use simkern::time::CycleDelta;
//! use traffic::pattern_a;
//!
//! let config = PlatformConfig::new(pattern_a(), 15, 42);
//! let mut rtl = config.build_rtl();
//! let mut tlm = config.build_tlm();
//! let outcome = run_lockstep(&mut rtl, &mut tlm, CycleDelta::new(256));
//! // Across abstraction levels the completed work must be identical even
//! // when mid-run timing alignment differs.
//! assert!(outcome.results_match, "{}", outcome.summary());
//! ```
//!
//! # Observability
//!
//! Every backend can emit a structured event trace: transaction-lifecycle
//! spans (request → grant → completion, write-buffer absorbs and drains),
//! bridge-crossing legs on the sharded platforms (egress, replay delivery,
//! read-response return) and scheduler events (quantum barriers, lookahead
//! stretches). Tracing is off by default and its disabled path is one
//! predicted branch per seam, so instrumented backends keep their speed;
//! switched on, the stream drains as a [`analysis::TraceLog`] whose merged
//! order is a pure function of the simulated schedule — byte-identical
//! between a one-shot run and a run stepped in arbitrary increments
//! (asserted by property tests in `ahb-multi`).
//!
//! ```
//! use ahbplus::{BusModel, PlatformConfig};
//! use analysis::profile::{Profile, ProfileOptions};
//! use traffic::pattern_a;
//!
//! let config = PlatformConfig::new(pattern_a(), 10, 7);
//! let mut tlm = config.build_tlm();
//! tlm.set_tracing(true);
//! tlm.run();
//! let log = tlm.take_trace().expect("tracing was on");
//! assert!(!log.events.is_empty());
//! // Exact per-master latency distributions and their attribution.
//! let profile = Profile::from_log(&log, ProfileOptions::default());
//! assert_eq!(profile.masters.len(), 4);
//! assert!(profile.overall.count > 0);
//! // Exporters: chrome://tracing / Perfetto JSON, or compact JSON lines.
//! assert!(log.to_perfetto_json("demo").contains("\"traceEvents\""));
//! assert!(log.to_json_lines().contains("\"kind\""));
//! ```
//!
//! The surfaces built on top of the trace stream:
//!
//! * `analysis::profile` attributes every transaction's latency to
//!   named components (see below) and renders per-master / per-shard
//!   reports, utilization timelines and A/B diffs;
//! * `trace_report` (in `ahbplus-bench`) profiles a saved `.ahbt` or
//!   JSON-lines trace, or runs any registered model live, and prints
//!   the attribution table / exports it as JSON / diffs two traces;
//! * `table2_speed --trace OUT` writes a Perfetto-loadable trace of any
//!   registered configuration (`--trace-model`, default
//!   `sharded-tlm-la-4x4`), and every `BENCH_speed.json` model row
//!   records `trace_overhead_pct`: the smallest paired enabled-tracing
//!   overhead over the row's repetitions, which is biased toward zero —
//!   not a bound on what the seams cost when tracing is off;
//! * [`run_lockstep_traced`] attaches a [`TraceDiff`] — the last N
//!   events each side recorded before the first divergence horizon — to
//!   lockstep reports (`examples/accuracy_validation.rs` prints it);
//! * `campaign serve` exposes live counters, plus a server-lifetime
//!   transaction-latency histogram in Prometheus histogram format, on
//!   `GET /metrics`; a `"trace": true` `POST /run` request streams the
//!   per-request events and its final report line carries a `"profile"`
//!   summary (per-master p50/p99 and attributed component totals);
//! * `examples/trace_explore.rs` walks the whole surface end to end.
//!
//! ## Latency attribution
//!
//! `analysis::profile` decomposes each completed transaction's
//! request→completion span into **arbitration wait** (request to bus
//! grant) plus one attributed **service class** (grant to completion) —
//! exactly, with no residual; a cross-backend test enforces the
//! invariant on every catalogue scenario. The service classes and what
//! produces them:
//!
//! | class | meaning | source |
//! |---|---|---|
//! | `ddr-row-hit` | local access hitting an open (or prepared) DRAM row | `rtl`/`tlm`: the DDR controller's access class; `lt`: the row sketch, including prepare hints |
//! | `ddr-row-miss` | local access paying activate/precharge | ditto (miss and conflict classes) |
//! | `bridge-handshake` | posted cross-shard write: local span ends at bridge FIFO acceptance | sharded platforms, `FLAG_REMOTE` spans |
//! | `response-round-trip` | non-posted cross-shard read: span stalls for the full crossing + response return | `sharded-*-reads` topologies |
//! | `write-buffer-absorb` | posted write absorbed by the write buffer (zero service; the master continues) | all backends with the buffer enabled |
//!
//! Two further components live *outside* the master-visible span and
//! are reported alongside it: **write-buffer residency** (absorb →
//! drain completion — how long data sat in the buffer) and **bridge
//! queueing** (FIFO egress → replay delivery on the far shard). Bus
//! utilization is tiled into fixed windows from span occupancy
//! (grant→completion, plus drain bursts); on sharded platforms
//! replay/drain overlap can push a window above 100% — that is the
//! saturation signal, not an error. Scheduler events (barriers,
//! lookahead stretches) are counted but excluded from every
//! distribution, which is why a fixed-quantum and an adaptive-lookahead
//! run of the same workload produce **identical** profiles —
//! `ProfileDiff` turns that into a schedule-independence proof.
//!
//! ## The `.ahbt` binary container
//!
//! `TraceLog::write_binary` stores a trace as `AHBT` + version byte,
//! the twelve derived counters as LEB128 varints, the event count, then
//! one record per event: kind tag and flags (one byte each),
//! zigzag-delta-encoded completion cycle against the previous record,
//! varint shard/seq/master/id, zigzag `cycle−start` and `cycle−grant`
//! offsets, varint byte count. Events are already sorted by
//! `(cycle, shard, seq)`, so the deltas stay small and the container
//! lands near 10% of the JSON-lines size. The round trip is
//! **byte-exact** (CI gates size ≤25% and `trace_report` replays the
//! file per commit), and `analysis::TraceReader` streams records with
//! bounded memory, so million-transaction profiles never materialize
//! the log.
//!
//! ## `trace_report` walkthrough
//!
//! ```text
//! # Run a registered model live, print the attribution table, and
//! # save both trace forms plus the profile JSON:
//! cargo run --release -p ahbplus-bench --bin trace_report -- \
//!     --model sharded-tlm-la-4x4 --txns 500 \
//!     --save-ahbt trace.ahbt --save-json trace.jsonl --json profile.json
//!
//! # Replay the saved binary — identical table, no simulation:
//! cargo run --release -p ahbplus-bench --bin trace_report -- trace.ahbt
//!
//! # Diff two traces (files and/or live models, any mix). Fixed vs
//! # lookahead quantum must report identical lifecycle distributions:
//! cargo run --release -p ahbplus-bench --bin trace_report -- \
//!     --model sharded-tlm-4x4 --model sharded-tlm-la-4x4
//! ```
//!
//! # Running campaigns
//!
//! Design-space sweeps at scale live one layer up, in the
//! `ahbplus-campaign` crate (which depends on this facade — hence prose,
//! not a doctest, here). A `CampaignSpec` crosses base [`ScenarioSpec`]s
//! with a model axis and optional seed / [`AhbPlusParams`] /
//! [`DdrConfig`] axes; expansion yields one run point per lattice
//! coordinate. Every point is **content-hashed** over its canonical,
//! label-free encoding — the [`Canonical`] trait in [`canonical`] gives
//! scenarios, params, DDR configs, model kinds and [`Topology`] values a
//! stable sorted-key JSON form, so a re-ordered spec hashes identically
//! while any renamed field or changed knob yields a fresh hash. The
//! engine drains not-yet-done points through a bounded worker pool,
//! journals each completion (append + flush) to `journal.jsonl`, and
//! stores outcomes in a content-addressed cache: a campaign killed at
//! any moment — SIGKILL included — resumes by executing exactly the
//! remaining points, and identical experiments are never simulated
//! twice, whatever they are called. Per-point probe timelines stream
//! through the same [`SnapshotSink`] writers the [`simulation`] module
//! provides.
//!
//! The `campaign` binary in `ahbplus-bench` drives it:
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin campaign -- run \
//!     --dir sweep --workers 4            # 64-point table2 lattice
//! cargo run --release -p ahbplus-bench --bin campaign -- resume --dir sweep
//! cargo run --release -p ahbplus-bench --bin campaign -- report --dir sweep
//! cargo run --release -p ahbplus-bench --bin campaign -- serve \
//!     --addr 127.0.0.1:8093              # POST /run scenario requests
//! ```
//!
//! `report` writes `BENCH_campaign.json` (per-point results plus
//! per-session worker/wall accounting); `serve` answers canonical-JSON
//! [`ScenarioSpec`] + [`Topology`] requests over HTTP with streamed
//! probe lines and a final report line, drained by a bounded handler
//! pool. `examples/design_space.rs` is the same engine in miniature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod canonical;
pub mod platform;
pub mod registry;
pub mod scenario;
pub mod simulation;
pub mod speed;

pub use accuracy::{compare_pair_on, measure_accuracy_record, model_pairs, table1_record};
pub use canonical::Canonical;
pub use platform::PlatformConfig;
pub use registry::{lookup, ModelSpec, MODELS};
pub use scenario::{scenario, scenario_catalogue, ScenarioError, ScenarioSpec};
pub use simulation::{
    run_lockstep, run_lockstep_traced, CsvSnapshotSink, Divergence, JsonLinesSnapshotSink,
    LockstepReport, Simulation, SnapshotSink, TraceDiff,
};
pub use speed::{measure_models, measure_models_with_reps, standard_models};

// Re-export the building blocks so downstream users need only one
// dependency.
pub use ahb_lt::{LtConfig, LtSystem, LT_TIMING_ERROR_BOUND_PCT};
pub use ahb_multi::{BridgeConfig, MultiConfig, MultiSystem, ShardBackendKind, Topology};
pub use ahb_rtl::{RtlConfig, RtlSystem};
pub use ahb_tlm::{TlmConfig, TlmSystem};
pub use amba::{AhbPlusParams, ArbiterConfig, ArbitrationFilter};
pub use analysis::{
    AccuracyBenchRecord, BusModel, ModelComparison, ModelKind, Probe, SimReport, SpeedReport,
    TraceEvent, TraceLog, Tracer,
};
pub use ddrc::{DdrConfig, DdrController, DdrGeometry, DdrTiming};
pub use traffic::{pattern_a, pattern_b, pattern_c, MasterProfile, TrafficPattern, Workload};
