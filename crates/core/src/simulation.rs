//! Run control: bounded stepping with snapshots and lockstep
//! co-simulation.
//!
//! [`Simulation`] wraps any [`BusModel`] and drives it in bounded slices,
//! collecting a [`Probe`] after each one — the "attach a logic analyzer to
//! the run" workflow that the one-shot `run()` cannot give. For long
//! sweeps the snapshots can be *streamed* instead of accumulated:
//! [`Simulation::run_streaming`] hands each probe to a [`SnapshotSink`]
//! (CSV or JSON-lines writers are provided) so a million-snapshot run
//! holds one probe in memory, not all of them.
//!
//! [`run_lockstep`] operationalizes the paper's validation methodology:
//! the §4 experiment runs the pin-accurate and the transaction-level
//! model on identical stimulus and reports that "the simulation results
//! were identical". Lockstep co-simulation advances *two* models over the
//! same horizon schedule, compares their observable state at every
//! horizon, and reports the first cycle at which they diverge (or that
//! they never do) plus whether the end-of-run results match. Between two
//! cycle-accurate instances (e.g. idle-skip on vs off) the expectation is
//! bit-identity at every horizon; between abstraction levels, transient
//! mid-run divergence with matching final results is the expected — and
//! now measurable — shape.
//!
//! Both drivers are generic over the model type, so the per-cycle /
//! per-transaction hot loops stay monomorphized; nothing here dispatches
//! dynamically inside a run.

use std::io::{self, Write};

use analysis::model::{BusModel, Probe, PROBE_FIELDS};
use analysis::report::SimReport;
use analysis::trace::{TraceEvent, TraceLog};
use simkern::time::{Cycle, CycleDelta};

/// Receives probes one at a time as a stepped run progresses, so drivers
/// can stream observability data to disk instead of holding every
/// snapshot in memory.
pub trait SnapshotSink {
    /// Consumes one snapshot. Implementations report I/O failures so the
    /// driver can abort the run instead of silently dropping data.
    ///
    /// # Errors
    ///
    /// Returns any error of the underlying writer.
    fn record(&mut self, probe: &Probe) -> io::Result<()>;
}

/// Accumulating sink for tests and small runs: every probe is pushed.
impl SnapshotSink for Vec<Probe> {
    fn record(&mut self, probe: &Probe) -> io::Result<()> {
        self.push(*probe);
        Ok(())
    }
}

/// Streams snapshots as CSV rows (header on first record). The optional
/// label column lets several runs share one file — set a new label per
/// sweep point.
#[derive(Debug)]
pub struct CsvSnapshotSink<W: Write> {
    writer: W,
    label: String,
    header_written: bool,
}

impl<W: Write> CsvSnapshotSink<W> {
    /// Wraps a writer; rows carry an empty label until one is set.
    pub fn new(writer: W) -> Self {
        CsvSnapshotSink {
            writer,
            label: String::new(),
            header_written: false,
        }
    }

    /// Sets the label subsequent rows are tagged with.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_owned();
    }

    /// Unwraps the underlying writer (flushing is the caller's concern,
    /// as with `BufWriter`).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

/// Quotes a CSV field when it contains a delimiter, quote or newline
/// (RFC 4180 style: wrap in quotes, double inner quotes).
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_owned()
    }
}

impl<W: Write> SnapshotSink for CsvSnapshotSink<W> {
    fn record(&mut self, probe: &Probe) -> io::Result<()> {
        if !self.header_written {
            write!(self.writer, "label")?;
            for (name, _) in PROBE_FIELDS {
                write!(self.writer, ",{name}")?;
            }
            writeln!(self.writer)?;
            self.header_written = true;
        }
        write!(self.writer, "{}", csv_field(&self.label))?;
        for (_, get) in PROBE_FIELDS {
            write!(self.writer, ",{}", get(probe))?;
        }
        writeln!(self.writer)
    }
}

/// Streams snapshots as JSON-lines: one self-contained object per probe.
#[derive(Debug)]
pub struct JsonLinesSnapshotSink<W: Write> {
    writer: W,
    label: String,
}

impl<W: Write> JsonLinesSnapshotSink<W> {
    /// Wraps a writer; objects carry no label until one is set.
    pub fn new(writer: W) -> Self {
        JsonLinesSnapshotSink {
            writer,
            label: String::new(),
        }
    }

    /// Sets the label subsequent objects are tagged with.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_owned();
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> SnapshotSink for JsonLinesSnapshotSink<W> {
    fn record(&mut self, probe: &Probe) -> io::Result<()> {
        write!(
            self.writer,
            "{{\"label\": \"{}\"",
            analysis::jsonfmt::escape_json(&self.label)
        )?;
        for (name, get) in PROBE_FIELDS {
            write!(self.writer, ", \"{name}\": {}", get(probe))?;
        }
        writeln!(self.writer, "}}")
    }
}

/// A stepping driver around one [`BusModel`], accumulating mid-run
/// snapshots.
#[derive(Debug)]
pub struct Simulation<M: BusModel> {
    model: M,
    snapshots: Vec<Probe>,
}

impl<M: BusModel> Simulation<M> {
    /// Wraps a freshly built model.
    #[must_use]
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            snapshots: Vec::new(),
        }
    }

    /// The wrapped model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Whether the model can make further progress.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.model.finished()
    }

    /// Advances by at most `cycles`, records a snapshot, and returns it.
    pub fn step(&mut self, cycles: CycleDelta) -> Probe {
        self.model.step(cycles);
        let probe = self.model.probe();
        self.snapshots.push(probe);
        probe
    }

    /// Runs to completion in `stride`-sized slices, recording a snapshot
    /// after each slice, and returns the final report.
    pub fn run_with_snapshots(&mut self, stride: CycleDelta) -> SimReport {
        while !self.model.finished() {
            self.step(stride);
        }
        self.model.report()
    }

    /// Runs to completion in `stride`-sized slices, streaming each
    /// snapshot into `sink` instead of accumulating it — constant memory
    /// however long the run ([`Simulation::snapshots`] stays empty).
    ///
    /// # Errors
    ///
    /// Returns the first error of the sink; the model keeps the progress
    /// it made, so a caller may switch sinks and resume.
    pub fn run_streaming<S: SnapshotSink>(
        &mut self,
        stride: CycleDelta,
        sink: &mut S,
    ) -> io::Result<SimReport> {
        while !self.model.finished() {
            self.model.step(stride);
            sink.record(&self.model.probe())?;
        }
        Ok(self.model.report())
    }

    /// The snapshots collected so far, in step order.
    #[must_use]
    pub fn snapshots(&self) -> &[Probe] {
        &self.snapshots
    }

    /// Final report plus the collected snapshots, consuming the driver.
    pub fn into_report(self) -> (SimReport, Vec<Probe>) {
        (self.model.report(), self.snapshots)
    }
}

/// The first observed divergence of a lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The horizon cycle at which the divergence was observed. The
    /// resolution is the lockstep stride: the true first divergent cycle
    /// lies in `(cycle - stride, cycle]`.
    pub cycle: u64,
    /// The probe fields that differed.
    pub fields: Vec<&'static str>,
    /// Snapshot of the first model at the divergence horizon.
    pub a: Probe,
    /// Snapshot of the second model at the divergence horizon.
    pub b: Probe,
}

/// The trace windows each side recorded leading up to a lockstep
/// divergence: the last N events at or before the divergence horizon,
/// per model. Produced by [`run_lockstep_traced`]; the event streams are
/// what turns "probe field X differed at cycle C" into "here is what each
/// model was doing just before C".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// The divergence horizon the windows end at.
    pub cycle: u64,
    /// The first model's window, in merged `(cycle, shard, seq)` order.
    pub a: Vec<TraceEvent>,
    /// The second model's window, same order.
    pub b: Vec<TraceEvent>,
}

impl TraceDiff {
    /// Builds the windowed diff from both sides' drained logs.
    #[must_use]
    pub fn around(cycle: u64, a: &TraceLog, b: &TraceLog, window: usize) -> Self {
        TraceDiff {
            cycle,
            a: a.window_before(cycle, window).to_vec(),
            b: b.window_before(cycle, window).to_vec(),
        }
    }

    /// Renders both windows as labelled JSON lines for divergence
    /// reports.
    #[must_use]
    pub fn format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace window before divergence horizon {} ({} vs {} events):",
            self.cycle,
            self.a.len(),
            self.b.len()
        );
        for event in &self.a {
            let _ = writeln!(out, "  a {}", event.to_json_line());
        }
        for event in &self.b {
            let _ = writeln!(out, "  b {}", event.to_json_line());
        }
        out
    }
}

/// The outcome of a lockstep co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepReport {
    /// Comparison stride in cycles.
    pub stride: u64,
    /// Number of horizons compared.
    pub horizons: u64,
    /// First horizon at which the observable state differed, if any.
    pub first_divergence: Option<Divergence>,
    /// Whether the end-of-run *results* match ([`Probe::results_match`]):
    /// same completed transactions, bytes and beats, clean assertions on
    /// both sides — the paper's "results identical" claim.
    pub results_match: bool,
    /// Final report of the first model.
    pub a: SimReport,
    /// Final report of the second model.
    pub b: SimReport,
    /// Event windows around the first divergence, when the run was traced
    /// ([`run_lockstep_traced`]) and a divergence occurred.
    pub trace_diff: Option<TraceDiff>,
}

impl LockstepReport {
    /// `true` when the two models never observably diverged at any
    /// compared horizon.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        match &self.first_divergence {
            None => format!(
                "lockstep: no divergence over {} horizons (stride {}), results match: {}",
                self.horizons, self.stride, self.results_match
            ),
            Some(d) => format!(
                "lockstep: first divergence at cycle <= {} in [{}], results match: {}",
                d.cycle,
                d.fields.join(", "),
                self.results_match
            ),
        }
    }
}

/// Runs two models on lockstep horizons and compares their observable
/// state at every horizon.
///
/// Both models must have been built from identical stimulus for the
/// comparison to be meaningful. The drive loop continues past the first
/// divergence so the final reports (and the end-of-run results check)
/// always cover complete runs.
pub fn run_lockstep<A: BusModel + ?Sized, B: BusModel + ?Sized>(
    a: &mut A,
    b: &mut B,
    stride: CycleDelta,
) -> LockstepReport {
    assert!(
        stride > CycleDelta::ZERO,
        "lockstep stride must be positive"
    );
    let mut first_divergence = None;
    let mut horizons = 0u64;
    let mut horizon = Cycle::ZERO;
    while !(a.finished() && b.finished()) {
        horizon += stride;
        a.run_until(horizon);
        b.run_until(horizon);
        horizons += 1;
        if first_divergence.is_none() {
            let pa = a.probe();
            let pb = b.probe();
            let fields = pa.divergence(&pb);
            if !fields.is_empty() {
                first_divergence = Some(Divergence {
                    cycle: horizon.value(),
                    fields,
                    a: pa,
                    b: pb,
                });
            }
        }
    }
    let results_match = a.probe().results_match(&b.probe());
    LockstepReport {
        stride: stride.value(),
        horizons,
        first_divergence,
        results_match,
        a: a.report(),
        b: b.report(),
        trace_diff: None,
    }
}

/// [`run_lockstep`] with tracing enabled on both models: when the run
/// diverges, the report carries a [`TraceDiff`] with the last `window`
/// trace events each side recorded at or before the divergence horizon —
/// the transaction-level context of the mismatch, not just the probe
/// fields that differed. Tracing is switched off again (and the logs
/// drained) before the function returns.
pub fn run_lockstep_traced<A: BusModel + ?Sized, B: BusModel + ?Sized>(
    a: &mut A,
    b: &mut B,
    stride: CycleDelta,
    window: usize,
) -> LockstepReport {
    a.set_tracing(true);
    b.set_tracing(true);
    let mut report = run_lockstep(a, b, stride);
    let log_a = a.take_trace();
    let log_b = b.take_trace();
    a.set_tracing(false);
    b.set_tracing(false);
    if let Some(divergence) = &report.first_divergence {
        if let (Some(log_a), Some(log_b)) = (log_a, log_b) {
            report.trace_diff = Some(TraceDiff::around(divergence.cycle, &log_a, &log_b, window));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use traffic::pattern_a;

    fn config() -> PlatformConfig {
        PlatformConfig::new(pattern_a(), 25, 11)
    }

    #[test]
    fn stepped_simulation_snapshots_are_monotone_and_complete() {
        let mut sim = Simulation::new(config().build_tlm());
        let report = sim.run_with_snapshots(CycleDelta::new(500));
        assert!(!sim.snapshots().is_empty());
        for pair in sim.snapshots().windows(2) {
            assert!(pair[0].transactions <= pair[1].transactions);
            assert!(pair[0].bytes <= pair[1].bytes);
        }
        let last = sim.snapshots().last().unwrap();
        assert_eq!(last.transactions, report.total_transactions());
        // The stepped run must agree with a one-shot run of the same
        // platform.
        let one_shot = config().run_tlm();
        assert!(report.metrics_eq(&one_shot));
    }

    #[test]
    fn lockstep_of_identical_models_never_diverges() {
        let mut a = config().build_rtl();
        let mut b = config().build_rtl();
        let outcome = run_lockstep(&mut a, &mut b, CycleDelta::new(64));
        assert!(outcome.is_identical(), "{}", outcome.summary());
        assert!(outcome.results_match);
        assert!(outcome.a.metrics_eq(&outcome.b));
        assert!(outcome.horizons > 0);
        assert!(outcome.summary().contains("no divergence"));
    }

    #[test]
    fn lockstep_across_abstraction_levels_matches_final_results() {
        // RTL vs TLM: mid-run timing alignment differs (that is the point
        // of the abstraction), but the completed work must be identical.
        let mut rtl = config().build_rtl();
        let mut tlm = config().build_tlm();
        let outcome = run_lockstep(&mut rtl, &mut tlm, CycleDelta::new(256));
        assert!(outcome.results_match, "{}", outcome.summary());
        assert_eq!(
            outcome.a.total_transactions(),
            outcome.b.total_transactions()
        );
        assert_eq!(outcome.a.total_bytes(), outcome.b.total_bytes());
    }

    #[test]
    fn streaming_run_matches_accumulating_run_without_storing_probes() {
        let mut accumulated = Simulation::new(config().build_tlm());
        let report_a = accumulated.run_with_snapshots(CycleDelta::new(500));

        let mut streamed = Simulation::new(config().build_tlm());
        let mut sink: Vec<Probe> = Vec::new();
        let report_b = streamed
            .run_streaming(CycleDelta::new(500), &mut sink)
            .expect("Vec sink cannot fail");
        assert!(report_a.metrics_eq(&report_b));
        assert_eq!(accumulated.snapshots(), sink.as_slice());
        assert!(streamed.snapshots().is_empty(), "streaming stores nothing");
    }

    #[test]
    fn csv_sink_writes_header_label_and_every_probe_field() {
        let mut sink = CsvSnapshotSink::new(Vec::new());
        sink.set_label("point-1");
        let mut sim = Simulation::new(config().build_lt());
        sim.run_streaming(CycleDelta::new(1_000), &mut sink)
            .expect("in-memory writer cannot fail");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let mut lines = text.lines();
        let header = lines.next().expect("header row");
        assert!(header.starts_with("label,cycle,transactions,"));
        assert_eq!(
            header.split(',').count(),
            1 + analysis::PROBE_FIELDS.len(),
            "label column plus one column per probe field"
        );
        let first = lines.next().expect("at least one snapshot row");
        assert!(first.starts_with("point-1,"));
        assert_eq!(first.split(',').count(), header.split(',').count());
    }

    #[test]
    fn csv_sink_quotes_labels_containing_delimiters() {
        let mut sink = CsvSnapshotSink::new(Vec::new());
        sink.set_label("depth=4, \"qos\" on");
        sink.record(&Probe::default()).expect("in-memory write");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let row = text.lines().nth(1).expect("data row");
        assert!(row.starts_with("\"depth=4, \"\"qos\"\" on\","));
        // The quoted label must not change the column count.
        let header_cols = text.lines().next().unwrap().split(',').count();
        assert_eq!(
            row.split("\",").nth(1).unwrap().split(',').count() + 1,
            header_cols
        );
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_snapshot() {
        let mut sink = JsonLinesSnapshotSink::new(Vec::new());
        sink.set_label("sweep \"x\"");
        let mut sim = Simulation::new(config().build_lt());
        sim.run_streaming(CycleDelta::new(1_000), &mut sink)
            .expect("in-memory writer cannot fail");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with("{\"label\": \"sweep \\\"x\\\"\""));
            assert!(line.ends_with('}'));
            assert!(line.contains("\"transactions\": "));
            assert!(line.contains("\"cycle\": "));
        }
    }

    #[test]
    fn failing_sink_aborts_the_streaming_run_with_the_error() {
        struct FailingSink;
        impl SnapshotSink for FailingSink {
            fn record(&mut self, _probe: &Probe) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut sim = Simulation::new(config().build_lt());
        let error = sim
            .run_streaming(CycleDelta::new(500), &mut FailingSink)
            .expect_err("sink failure must surface");
        assert_eq!(error.to_string(), "disk full");
    }

    #[test]
    fn lockstep_accepts_trait_objects() {
        let mut a = crate::lookup("tlm").unwrap().build(&config());
        let mut b = crate::lookup("lt").unwrap().build(&config());
        let outcome = run_lockstep(a.as_mut(), b.as_mut(), CycleDelta::new(256));
        assert!(outcome.results_match, "{}", outcome.summary());
    }

    #[test]
    fn lockstep_pinpoints_a_seeded_divergence() {
        // Different stimulus seeds must be caught as a divergence.
        let mut a = config().build_tlm();
        let mut b = PlatformConfig::new(pattern_a(), 25, 12).build_tlm();
        let outcome = run_lockstep(&mut a, &mut b, CycleDelta::new(128));
        let divergence = outcome.first_divergence.as_ref().expect("seeds differ");
        assert!(!divergence.fields.is_empty());
        assert!(outcome.summary().contains("first divergence"));
    }

    #[test]
    fn traced_lockstep_attaches_event_windows_to_a_divergence() {
        let mut a = config().build_tlm();
        let mut b = PlatformConfig::new(pattern_a(), 25, 12).build_tlm();
        let outcome = run_lockstep_traced(&mut a, &mut b, CycleDelta::new(128), 8);
        let divergence = outcome.first_divergence.as_ref().expect("seeds differ");
        let diff = outcome.trace_diff.as_ref().expect("traced run diverged");
        assert_eq!(diff.cycle, divergence.cycle);
        assert!(!diff.a.is_empty() || !diff.b.is_empty());
        assert!(diff.a.len() <= 8 && diff.b.len() <= 8);
        for event in diff.a.iter().chain(&diff.b) {
            assert!(event.cycle <= diff.cycle, "window leaks past the horizon");
        }
        let text = diff.format();
        assert!(text.contains("trace window before divergence"));
        assert!(text.contains("\"kind\""));
    }

    #[test]
    fn traced_lockstep_of_identical_models_reports_no_diff() {
        let mut a = config().build_tlm();
        let mut b = config().build_tlm();
        let outcome = run_lockstep_traced(&mut a, &mut b, CycleDelta::new(128), 8);
        assert!(outcome.is_identical(), "{}", outcome.summary());
        assert!(outcome.trace_diff.is_none());
    }
}
