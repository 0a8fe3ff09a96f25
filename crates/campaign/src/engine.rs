//! The campaign engine: directory layout, worker pool, resume, report.
//!
//! A campaign lives in one directory:
//!
//! ```text
//! <dir>/campaign.json    # canonical CampaignSpec (written at create)
//! <dir>/journal.jsonl    # append-only event log (the resume authority)
//! <dir>/cache/<hash>.json    # content-addressed result cache
//! <dir>/timelines/<hash>.jsonl   # per-point probe streams (optional)
//! ```
//!
//! [`Campaign::run`] expands the lattice, drops every hash the journal
//! already records as done, and drains the remainder through a
//! self-scheduling worker pool (the `model_accuracy` chunking idiom: N
//! scoped std threads popping a shared queue, so a slow point never
//! blocks the others — and the pool size bounds the points in flight,
//! which is the backpressure on open timeline sinks). Identical hashes
//! are collapsed *before* queueing and consult the result cache before
//! simulating, so the same experiment is never simulated twice; each
//! completion appends (and flushes) one journal line. Killing the
//! process at any moment therefore loses at most the in-flight points;
//! a later [`Campaign::run`] on the same directory executes exactly the
//! remainder.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ahbplus::canonical::Canonical;
use ahbplus::simulation::{JsonLinesSnapshotSink, Simulation};
use analysis::campaign::{
    CampaignBenchRecord, CampaignPointRecord, CampaignSessionRecord, PointStatus,
};
use analysis::canon::parse;
use simkern::time::CycleDelta;

use crate::cache::{PointOutcome, ResultCache};
use crate::journal::{Journal, JournalEvent, JournalWriter};
use crate::spec::{CampaignSpec, RunPoint};

/// Why a campaign operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O failure (journal, cache, timeline or spec file).
    Io(io::Error),
    /// A semantic failure (invalid spec, mismatched directory, …).
    Message(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "{e}"),
            CampaignError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

fn message(text: impl Into<String>) -> CampaignError {
    CampaignError::Message(text.into())
}

/// Options of one worker-pool session.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Stop after satisfying this many points (induced interrupt for CI
    /// smoke runs); `None` drains the queue.
    pub max_points: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 1,
            max_points: None,
        }
    }
}

/// What one [`Campaign::run`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Worker threads used.
    pub workers: usize,
    /// Points simulated.
    pub executed: usize,
    /// Points satisfied from the result cache.
    pub cached: usize,
    /// Points still pending when the session ended (non-zero only under
    /// [`RunOptions::max_points`]).
    pub remaining: usize,
    /// Session wall-clock time in microseconds.
    pub wall_micros: u64,
}

/// A campaign bound to its on-disk directory.
#[derive(Debug, Clone)]
pub struct Campaign {
    dir: PathBuf,
    spec: CampaignSpec,
}

impl Campaign {
    /// Creates a campaign directory for `spec` (or re-opens it when the
    /// directory already holds the *same* spec — creation is
    /// idempotent).
    ///
    /// # Errors
    ///
    /// Validation failures, I/O failures, or a directory already bound
    /// to a different campaign spec.
    pub fn create(dir: &Path, spec: CampaignSpec) -> Result<Campaign, CampaignError> {
        spec.validate().map_err(message)?;
        fs::create_dir_all(dir)?;
        let spec_path = dir.join("campaign.json");
        if spec_path.exists() {
            let existing = Campaign::open(dir)?;
            if existing.spec.spec_hash() == spec.spec_hash() {
                return Ok(existing);
            }
            return Err(message(format!(
                "directory {} already holds campaign '{}' (spec hash {}); \
                 refusing to overwrite it with '{}' (spec hash {})",
                dir.display(),
                existing.spec.name,
                existing.spec.spec_hash(),
                spec.name,
                spec.spec_hash()
            )));
        }
        fs::write(&spec_path, spec.to_canon().to_canonical_json())?;
        let mut journal = JournalWriter::append(&dir.join("journal.jsonl"))?;
        journal.record(&JournalEvent::Campaign {
            name: spec.name.clone(),
            spec_hash: spec.spec_hash(),
        })?;
        Ok(Campaign {
            dir: dir.to_path_buf(),
            spec,
        })
    }

    /// Opens an existing campaign directory.
    ///
    /// # Errors
    ///
    /// A missing or malformed `campaign.json`.
    pub fn open(dir: &Path) -> Result<Campaign, CampaignError> {
        let spec_path = dir.join("campaign.json");
        let text = fs::read_to_string(&spec_path).map_err(|e| {
            message(format!(
                "{} is not a campaign directory ({e})",
                dir.display()
            ))
        })?;
        let value = parse(&text).map_err(|e| message(format!("{}: {e}", spec_path.display())))?;
        let spec = CampaignSpec::from_canon(&value)
            .map_err(|e| message(format!("{}: {e}", spec_path.display())))?;
        Ok(Campaign {
            dir: dir.to_path_buf(),
            spec,
        })
    }

    /// The campaign's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The campaign's spec.
    #[must_use]
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The journal file path.
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    fn load_journal(&self) -> Result<Journal, CampaignError> {
        let path = self.journal_path();
        if !path.exists() {
            return Ok(Journal {
                events: Vec::new(),
                truncated_tail: false,
            });
        }
        let journal = Journal::load(&path)?;
        if let Some(hash) = journal.spec_hash() {
            if hash != self.spec.spec_hash() {
                return Err(message(format!(
                    "journal belongs to spec hash {hash}, campaign.json has {}",
                    self.spec.spec_hash()
                )));
            }
        }
        Ok(journal)
    }

    /// Runs (or resumes) the campaign: executes every lattice point the
    /// journal does not already record, `options.workers` at a time.
    ///
    /// # Errors
    ///
    /// Journal/cache I/O failures or an unresolvable point.
    pub fn run(&self, options: RunOptions) -> Result<SessionSummary, CampaignError> {
        let workers = options.workers.max(1);
        // Opening the writer first repairs a kill-truncated journal tail,
        // so the completion snapshot below and the file agree on which
        // (complete) lines exist.
        let mut journal = JournalWriter::append(&self.journal_path())?;
        let points = self.spec.expand();
        let done: BTreeSet<String> = self
            .load_journal()?
            .completions()
            .into_iter()
            .filter_map(|event| match event {
                JournalEvent::Done { hash, .. } => Some(hash.clone()),
                _ => None,
            })
            .collect();
        // Collapse duplicate hashes before queueing: points that encode
        // the same experiment are one unit of work.
        let mut queue_points: Vec<&RunPoint> = Vec::new();
        let mut queued: BTreeSet<&str> = BTreeSet::new();
        for point in &points {
            if !done.contains(&point.hash) && queued.insert(point.hash.as_str()) {
                queue_points.push(point);
            }
        }
        let taken = options
            .max_points
            .map_or(queue_points.len(), |budget| budget.min(queue_points.len()));
        let remaining = queue_points.len() - taken;
        queue_points.truncate(taken);

        let cache = ResultCache::open(&self.dir.join("cache"))?;
        let timelines_dir = self
            .spec
            .snapshot_stride
            .map(|_| self.dir.join("timelines"));
        if let Some(dir) = &timelines_dir {
            fs::create_dir_all(dir)?;
        }
        journal.record(&JournalEvent::Session {
            workers,
            pending: queue_points.len(),
        })?;
        let journal = Mutex::new(journal);
        let queue: Mutex<VecDeque<&RunPoint>> = Mutex::new(queue_points.into_iter().collect());
        let executed = AtomicUsize::new(0);
        let cached = AtomicUsize::new(0);
        let failure: Mutex<Option<CampaignError>> = Mutex::new(None);
        let start = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let Some(point) = queue.lock().unwrap().pop_front() else {
                        return;
                    };
                    let result = self.satisfy_point(point, &cache, timelines_dir.as_deref());
                    match result {
                        Ok((status, outcome)) => {
                            match status {
                                PointStatus::Cached => cached.fetch_add(1, Ordering::Relaxed),
                                _ => executed.fetch_add(1, Ordering::Relaxed),
                            };
                            let event = JournalEvent::Done {
                                hash: point.hash.clone(),
                                status,
                                cycles: outcome.cycles,
                                transactions: outcome.transactions,
                                bytes: outcome.bytes,
                                wall_micros: outcome.wall_micros,
                            };
                            if let Err(e) = journal.lock().unwrap().record(&event) {
                                failure.lock().unwrap().get_or_insert(e.into());
                                queue.lock().unwrap().clear();
                                return;
                            }
                        }
                        Err(e) => {
                            failure.lock().unwrap().get_or_insert(e);
                            queue.lock().unwrap().clear();
                            return;
                        }
                    }
                });
            }
        });

        if let Some(error) = failure.into_inner().unwrap() {
            return Err(error);
        }
        let summary = SessionSummary {
            workers,
            executed: executed.into_inner(),
            cached: cached.into_inner(),
            remaining,
            wall_micros: start.elapsed().as_micros() as u64,
        };
        journal
            .into_inner()
            .unwrap()
            .record(&JournalEvent::SessionEnd {
                executed: summary.executed,
                cached: summary.cached,
                wall_micros: summary.wall_micros,
            })?;
        Ok(summary)
    }

    /// Satisfies one point: result-cache hit, or simulation (with an
    /// optional streamed probe timeline) followed by a cache store.
    fn satisfy_point(
        &self,
        point: &RunPoint,
        cache: &ResultCache,
        timelines_dir: Option<&Path>,
    ) -> Result<(PointStatus, PointOutcome), CampaignError> {
        if let Some(outcome) = cache.lookup(&point.hash) {
            return Ok((
                PointStatus::Cached,
                PointOutcome {
                    wall_micros: 0,
                    ..outcome
                },
            ));
        }
        let outcome = execute_point(point, self.spec.snapshot_stride, timelines_dir)?;
        cache.store(&point.hash, outcome)?;
        Ok((PointStatus::Simulated, outcome))
    }

    /// Aggregates the journal into the campaign artifact.
    ///
    /// # Errors
    ///
    /// Journal I/O or corruption.
    pub fn report(&self) -> Result<CampaignBenchRecord, CampaignError> {
        let journal = self.load_journal()?;
        let mut by_hash: BTreeMap<&str, &JournalEvent> = BTreeMap::new();
        for event in journal.completions() {
            if let JournalEvent::Done { hash, .. } = event {
                by_hash.insert(hash.as_str(), event);
            }
        }
        let points = self
            .spec
            .expand()
            .into_iter()
            .map(|point| {
                let (status, cycles, transactions, bytes, wall_micros) =
                    match by_hash.get(point.hash.as_str()) {
                        Some(JournalEvent::Done {
                            status,
                            cycles,
                            transactions,
                            bytes,
                            wall_micros,
                            ..
                        }) => (*status, *cycles, *transactions, *bytes, *wall_micros),
                        _ => (PointStatus::Pending, 0, 0, 0, 0),
                    };
                CampaignPointRecord {
                    label: point.label,
                    scenario: point.spec.pattern.clone(),
                    model: point.model.id.to_owned(),
                    seed: point.spec.seed,
                    hash: point.hash,
                    status,
                    total_cycles: cycles,
                    transactions,
                    bytes,
                    wall_micros,
                }
            })
            .collect();
        let mut sessions = Vec::new();
        let mut open_session: Option<usize> = None;
        for event in &journal.events {
            match event {
                JournalEvent::Session { workers, .. } => open_session = Some(*workers),
                JournalEvent::SessionEnd {
                    executed,
                    cached,
                    wall_micros,
                } => {
                    // A SessionEnd without a Session header cannot happen
                    // in an intact journal; skip it defensively.
                    if let Some(workers) = open_session.take() {
                        sessions.push(CampaignSessionRecord {
                            workers,
                            executed: *executed,
                            cached: *cached,
                            wall_micros: *wall_micros,
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(CampaignBenchRecord {
            campaign: self.spec.name.clone(),
            spec_hash: self.spec.spec_hash(),
            points,
            sessions,
        })
    }
}

/// Builds and runs one point's model, optionally streaming its probe
/// timeline to `timelines_dir/<hash>.jsonl`.
///
/// # Errors
///
/// An unresolvable scenario or a timeline I/O failure.
pub fn execute_point(
    point: &RunPoint,
    snapshot_stride: Option<u64>,
    timelines_dir: Option<&Path>,
) -> Result<PointOutcome, CampaignError> {
    let config = point
        .spec
        .resolve()
        .map_err(|e| message(format!("point '{}': {e}", point.label)))?;
    let model = point.model.build(&config);
    let start = Instant::now();
    let report = match (snapshot_stride, timelines_dir) {
        (Some(stride), Some(dir)) if stride > 0 => {
            let file = fs::File::create(dir.join(format!("{}.jsonl", point.hash)))?;
            let mut sink = JsonLinesSnapshotSink::new(io::BufWriter::new(file));
            sink.set_label(&point.label);
            let mut simulation = Simulation::new(model);
            let report = simulation.run_streaming(CycleDelta::new(stride), &mut sink)?;
            sink.into_inner().flush()?;
            report
        }
        _ => {
            let mut model = model;
            model.run()
        }
    };
    Ok(PointOutcome {
        cycles: report.total_cycles,
        transactions: report.total_transactions(),
        bytes: report.total_bytes(),
        wall_micros: start.elapsed().as_micros().max(1) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbplus::{lookup, scenario};

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec::new(name)
            .with_scenario(scenario("table1-a").unwrap().with_transactions(6))
            .with_model(lookup("tlm").unwrap())
            .with_model(lookup("lt").unwrap())
            .with_seeds(vec![1, 2])
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ahbplus-engine-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_completes_every_point_and_report_agrees() {
        let dir = fresh_dir("complete");
        let campaign = Campaign::create(&dir, tiny_spec("complete")).unwrap();
        let summary = campaign
            .run(RunOptions {
                workers: 2,
                max_points: None,
            })
            .unwrap();
        assert_eq!(summary.executed, 4);
        assert_eq!(summary.cached, 0);
        assert_eq!(summary.remaining, 0);
        let record = campaign.report().unwrap();
        assert!(record.is_complete());
        assert_eq!(record.points.len(), 4);
        assert!(record.points.iter().all(|p| p.total_cycles > 0));
        assert_eq!(record.sessions.len(), 1);
        assert_eq!(record.sessions[0].workers, 2);
        // A second run finds nothing to do (the journal already has
        // every hash) and completes without touching the cache.
        let again = campaign.run(RunOptions::default()).unwrap();
        assert_eq!(again.executed + again.cached, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_points_interrupts_and_resume_finishes_the_rest() {
        let dir = fresh_dir("resume");
        let campaign = Campaign::create(&dir, tiny_spec("resume")).unwrap();
        let first = campaign
            .run(RunOptions {
                workers: 1,
                max_points: Some(1),
            })
            .unwrap();
        assert_eq!(first.executed, 1);
        assert_eq!(first.remaining, 3);
        assert_eq!(campaign.report().unwrap().pending(), 3);
        let second = Campaign::open(&dir)
            .unwrap()
            .run(RunOptions {
                workers: 2,
                max_points: None,
            })
            .unwrap();
        assert_eq!(second.executed, 3);
        let record = campaign.report().unwrap();
        assert!(record.is_complete());
        assert_eq!(record.sessions.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_is_idempotent_but_rejects_a_different_spec() {
        let dir = fresh_dir("idempotent");
        let campaign = Campaign::create(&dir, tiny_spec("same")).unwrap();
        let reopened = Campaign::create(&dir, tiny_spec("same")).unwrap();
        assert_eq!(reopened.spec().spec_hash(), campaign.spec().spec_hash());
        let clash = Campaign::create(&dir, tiny_spec("different"));
        let message = clash.unwrap_err().to_string();
        assert!(message.contains("refusing to overwrite"), "{message}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_replace_simulation_across_campaign_directories() {
        let dir = fresh_dir("cachehit");
        let campaign = Campaign::create(&dir, tiny_spec("cachehit")).unwrap();
        campaign.run(RunOptions::default()).unwrap();
        // Wipe the journal (but not the cache): every point re-runs as
        // a cache hit.
        fs::remove_file(campaign.journal_path()).unwrap();
        let summary = campaign.run(RunOptions::default()).unwrap();
        assert_eq!(summary.executed, 0);
        assert_eq!(summary.cached, 4);
        let record = campaign.report().unwrap();
        assert!(record
            .points
            .iter()
            .all(|p| p.status == PointStatus::Cached));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timelines_stream_when_a_stride_is_set() {
        let dir = fresh_dir("timelines");
        let spec = CampaignSpec::new("timelines")
            .with_scenario(scenario("table1-a").unwrap().with_transactions(6))
            .with_model(lookup("tlm").unwrap())
            .with_snapshot_stride(500);
        let campaign = Campaign::create(&dir, spec).unwrap();
        campaign.run(RunOptions::default()).unwrap();
        let timelines: Vec<_> = fs::read_dir(dir.join("timelines"))
            .unwrap()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(timelines.len(), 1);
        let text = fs::read_to_string(timelines[0].path()).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with("{\"label\": \"table1-a/tlm\""), "{line}");
            assert!(line.contains("\"cycle\": "));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
