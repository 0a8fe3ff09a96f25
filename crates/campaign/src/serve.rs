//! The serving mode: scenario requests as JSON over a local socket.
//!
//! `campaign serve` turns the model registry into a long-running
//! exploration service: a hand-rolled HTTP/1.1 listener on
//! [`std::net::TcpListener`] (no external dependencies) that accepts
//! canonical-JSON requests and streams results back. The protocol is
//! deliberately tiny:
//!
//! * `GET /healthz` → `{"status":"ok"}`
//! * `GET /models` → JSON array of the model registry's names
//! * `GET /scenarios` → JSON array of the canonical scenario catalogue
//! * `GET /metrics` → live service counters as Prometheus text
//!   (requests, active/completed runs, simulated cycles, transactions,
//!   bytes, trace events). The counters update *during* `/run`
//!   streaming, not only at run end, so a scrape taken while a long
//!   scenario executes sees its progress.
//! * `POST /run` → body `{"scenario": <ScenarioSpec>, "model": "tlm",
//!   "stride": 5000, "trace": true}`. The `scenario` field is a
//!   canonical [`ScenarioSpec`] object (as served by `/scenarios`);
//!   `model` is optional (default `tlm`; any registry name, an unknown one
//!   is a 400 naming the registered list) and may be replaced by
//!   `"topology": <Topology>` to run an explicit multi-bus shape;
//!   `stride` is optional — when positive, the response streams one
//!   probe JSON line per `stride` simulated cycles before the final
//!   report line; `trace` is optional — when true, the run executes
//!   with the event-tracing subsystem enabled, the response streams
//!   every transaction-lifecycle event as a `{"event": "trace", ...}`
//!   line before the report, and the report line carries a `"profile"`
//!   summary (per-master p50/p99 latency plus the run's attributed
//!   component totals, from `analysis::profile`). Traced runs also feed
//!   the server-lifetime latency histogram `/metrics` exports in
//!   Prometheus histogram text format.
//!
//! `/run` responses are newline-delimited JSON over a `Connection:
//! close` stream (`application/x-ndjson`): zero or more probe lines
//! (the [`JsonLinesSnapshotSink`] format, labelled with the scenario
//! name), the optional trace events, and exactly one
//! `{"event":"report",...}` line carrying the final
//! cycle/transaction/byte counts, the wall time and the content
//! hash of the executed point. Connections are drained by a bounded
//! handler pool: when every handler is busy, accepted sockets queue on
//! a rendezvous channel (and beyond that in the listener backlog), so a
//! burst of requests back-pressures instead of spawning unbounded
//! threads.
//!
//! A traced run's event lines are rendered by
//! [`analysis::trace::TraceEvent::write_json_fields`], the one renderer of
//! the event format, into one reused 64 KiB buffer. The buffer goes to
//! the socket whenever it fills, so an event costs no allocation and no
//! `fmt` call, and no buffer ever holds the whole response: a traced
//! `table2-speed` run at 1,000 transactions per master streams 5,693
//! events, about 925 KB.
//!
//! Where such a request's server time goes, as the mean of a phase timer
//! over 200 requests on a 2-vCPU host: building the model 220 µs, the
//! traced run 420 µs (recording the events is about 3% of it),
//! `take_trace` and its sort 170 µs, `Profile::from_log` and the summary
//! 230 µs, and the event lines 440 µs.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ahbplus::canonical::Canonical;
use ahbplus::simulation::{JsonLinesSnapshotSink, Simulation, SnapshotSink};
use ahbplus::{lookup, scenario_catalogue, ModelSpec, Probe, ScenarioSpec, Topology, MODELS};
use analysis::canon::{parse, CanonValue};
use analysis::jsonfmt::escape_json;
use analysis::profile::{Profile, ProfileOptions};
use analysis::trace::{TraceEventKind, TraceLog, MAX_JSON_LINE_BYTES};
use simkern::time::CycleDelta;

use crate::spec::{point_hash, topology_point_hash};

/// Largest accepted request head (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest accepted request body in bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Largest accepted per-master workload — the service runs untrusted
/// local requests synchronously, so a hard cap keeps one request from
/// monopolizing a handler for minutes.
const MAX_TRANSACTIONS: usize = 100_000;
/// Per-connection socket timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// Trace lines are handed to the socket in chunks of at least this many
/// bytes.
const TRACE_CHUNK_BYTES: usize = 64 * 1024;

/// Live service counters, rendered as Prometheus exposition text by
/// `GET /metrics`.
///
/// Counters are plain relaxed atomics: every field is monotonic except
/// `runs_active`, and a scrape only needs a recent value, not a
/// consistent cut across fields. The run totals (cycles, transactions,
/// bytes) advance *while* a `/run` streams — the probe sink feeds them
/// per stride — so a scrape during a long scenario observes progress,
/// which is the point of serving metrics at all.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// HTTP requests accepted (any endpoint, including errors).
    requests: AtomicU64,
    /// Requests answered with an HTTP error status.
    errors: AtomicU64,
    /// `/run` requests that started executing.
    runs_started: AtomicU64,
    /// `/run` requests that ran to completion.
    runs_completed: AtomicU64,
    /// `/run` requests currently executing (gauge).
    runs_active: AtomicU64,
    /// Simulated cycles retired across all runs.
    cycles: AtomicU64,
    /// Transactions completed across all runs.
    transactions: AtomicU64,
    /// Bytes transferred across all runs.
    bytes: AtomicU64,
    /// Trace events streamed back to `/run` clients.
    trace_events: AtomicU64,
    /// Server-lifetime master-visible transaction latencies from traced
    /// runs, in power-of-two buckets: bucket `i` holds `[2^i, 2^(i+1))`,
    /// bucket 0 holds 0–1 and the last bucket is open-ended. Exact
    /// per-run distributions come from [`analysis::profile`].
    latency_buckets: [AtomicU64; 24],
    /// Latency samples recorded.
    latency_count: AtomicU64,
    /// Sum of recorded latencies in cycles.
    latency_sum: AtomicU64,
}

impl ServerMetrics {
    fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    /// Feeds the master-visible latency of every lifecycle completion in
    /// `log` (spans and write-buffer absorptions) into the
    /// server-lifetime histogram.
    fn observe_run_latencies(&self, log: &TraceLog) {
        for event in &log.events {
            if !matches!(event.kind, TraceEventKind::Span | TraceEventKind::Absorb) {
                continue;
            }
            let latency = event.cycle.saturating_sub(event.start);
            let bucket = ((64 - latency.leading_zeros()).saturating_sub(1) as usize)
                .min(self.latency_buckets.len() - 1);
            ServerMetrics::add(&self.latency_buckets[bucket], 1);
            ServerMetrics::add(&self.latency_count, 1);
            ServerMetrics::add(&self.latency_sum, latency);
        }
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    #[must_use]
    pub fn render(&self) -> String {
        let counter = |name: &str, help: &str, value: &AtomicU64| {
            format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                value.load(Ordering::Relaxed)
            )
        };
        let mut out = String::new();
        out.push_str(&counter(
            "campaign_requests_total",
            "HTTP requests accepted.",
            &self.requests,
        ));
        out.push_str(&counter(
            "campaign_request_errors_total",
            "Requests answered with an HTTP error.",
            &self.errors,
        ));
        out.push_str(&counter(
            "campaign_runs_started_total",
            "Scenario runs that started executing.",
            &self.runs_started,
        ));
        out.push_str(&counter(
            "campaign_runs_completed_total",
            "Scenario runs that ran to completion.",
            &self.runs_completed,
        ));
        out.push_str(&format!(
            "# HELP campaign_runs_active Scenario runs currently executing.\n\
             # TYPE campaign_runs_active gauge\ncampaign_runs_active {}\n",
            self.runs_active.load(Ordering::Relaxed)
        ));
        out.push_str(&counter(
            "campaign_simulated_cycles_total",
            "Simulated cycles retired across all runs.",
            &self.cycles,
        ));
        out.push_str(&counter(
            "campaign_transactions_total",
            "Bus transactions completed across all runs.",
            &self.transactions,
        ));
        out.push_str(&counter(
            "campaign_bytes_total",
            "Bytes transferred across all runs.",
            &self.bytes,
        ));
        out.push_str(&counter(
            "campaign_trace_events_total",
            "Trace events streamed to /run clients.",
            &self.trace_events,
        ));
        // The latency histogram in Prometheus histogram convention:
        // cumulative `_bucket{le=...}` series (the inclusive upper bound
        // of power-of-two bucket i over integer cycles is 2^(i+1)-1),
        // then `_sum` and `_count`.
        out.push_str(
            "# HELP campaign_run_latency_cycles Master-visible transaction latency \
             of traced runs, in bus cycles.\n\
             # TYPE campaign_run_latency_cycles histogram\n",
        );
        let mut cumulative = 0u64;
        for (i, bucket) in self.latency_buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if i + 1 == self.latency_buckets.len() {
                break;
            }
            out.push_str(&format!(
                "campaign_run_latency_cycles_bucket{{le=\"{}\"}} {cumulative}\n",
                (1u64 << (i + 1)) - 1
            ));
        }
        out.push_str(&format!(
            "campaign_run_latency_cycles_bucket{{le=\"+Inf\"}} {cumulative}\n\
             campaign_run_latency_cycles_sum {}\n\
             campaign_run_latency_cycles_count {}\n",
            self.latency_sum.load(Ordering::Relaxed),
            self.latency_count.load(Ordering::Relaxed)
        ));
        out
    }
}

/// Decrements `runs_active` when a run handler unwinds or returns, so
/// the gauge cannot stick at a stale value on a broken connection.
struct ActiveRun<'a>(&'a AtomicU64);

impl Drop for ActiveRun<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The campaign serving socket.
#[derive(Debug)]
pub struct CampaignServer {
    listener: TcpListener,
    metrics: ServerMetrics,
}

impl CampaignServer {
    /// Binds the serving socket (e.g. `127.0.0.1:0` for an ephemeral
    /// test port).
    ///
    /// # Errors
    ///
    /// Any error of the underlying bind.
    pub fn bind(addr: &str) -> io::Result<CampaignServer> {
        Ok(CampaignServer {
            listener: TcpListener::bind(addr)?,
            metrics: ServerMetrics::default(),
        })
    }

    /// The live counters `GET /metrics` serves.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The bound address (port resolved).
    ///
    /// # Errors
    ///
    /// Any error of the underlying lookup.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections with a pool of `handlers` worker
    /// threads. `limit` bounds the number of connections served (tests
    /// and smoke runs); `None` serves forever.
    ///
    /// # Errors
    ///
    /// Any error of the underlying accept loop; per-connection errors
    /// are answered with an HTTP error and do not stop the server.
    pub fn serve(&self, handlers: usize, limit: Option<usize>) -> io::Result<()> {
        let handlers = handlers.max(1);
        // A rendezvous channel: accept blocks until a handler is free,
        // which is the pool's backpressure.
        let (sender, receiver) = mpsc::sync_channel::<TcpStream>(0);
        let receiver = Mutex::new(receiver);
        std::thread::scope(|scope| {
            for _ in 0..handlers {
                scope.spawn(|| loop {
                    let Ok(stream) = receiver.lock().unwrap().recv() else {
                        return;
                    };
                    handle_connection(stream, &self.metrics);
                });
            }
            for (served, stream) in self.listener.incoming().enumerate() {
                let stream = stream?;
                if sender.send(stream).is_err() {
                    break;
                }
                if limit.is_some_and(|n| served + 1 >= n) {
                    break;
                }
            }
            drop(sender);
            Ok(())
        })
    }
}

fn handle_connection(mut stream: TcpStream, metrics: &ServerMetrics) {
    // The whole request must arrive within one socket timeout of this
    // handler taking the connection (queueing behind busy handlers is not
    // the client's fault); a per-read timeout alone lets a trickling
    // client hold the handler indefinitely.
    let deadline = Instant::now() + SOCKET_TIMEOUT;
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    ServerMetrics::add(&metrics.requests, 1);
    let request = match read_request(&mut stream, deadline) {
        Ok(request) => request,
        Err(message) => {
            ServerMetrics::add(&metrics.errors, 1);
            let _ = respond_error(&mut stream, 400, &message);
            return;
        }
    };
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond_json(&mut stream, "{\"status\":\"ok\"}"),
        ("GET", "/models") => {
            let models = CanonValue::Array(MODELS.iter().map(|spec| spec.to_canon()).collect());
            respond_json(&mut stream, &models.to_canonical_json())
        }
        ("GET", "/scenarios") => {
            let catalogue = CanonValue::Array(
                scenario_catalogue()
                    .iter()
                    .map(Canonical::to_canon)
                    .collect(),
            );
            respond_json(&mut stream, &catalogue.to_canonical_json())
        }
        ("GET", "/metrics") => respond_text(&mut stream, &metrics.render()),
        ("POST", "/run") => match RunRequest::parse(&request.body) {
            Ok(run) => stream_run(&mut stream, &run, metrics),
            Err(message) => {
                ServerMetrics::add(&metrics.errors, 1);
                respond_error(&mut stream, 400, &message)
            }
        },
        _ => {
            ServerMetrics::add(&metrics.errors, 1);
            respond_error(&mut stream, 404, "no such endpoint")
        }
    };
    // The peer may hang up mid-stream; that only cancels its own run.
    let _ = outcome;
    let _ = stream.flush();
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one request head and body from `stream`, giving up with an
/// error once `deadline` has passed (checked before every read, so a
/// handler is held at most one read timeout past it).
fn read_request(stream: &mut impl Read, deadline: Instant) -> Result<Request, String> {
    let mut read = |chunk: &mut [u8]| {
        if Instant::now() >= deadline {
            return Err(format!(
                "request not received within {} s",
                SOCKET_TIMEOUT.as_secs()
            ));
        }
        stream.read(chunk).map_err(|e| e.to_string())
    };
    let mut buffer = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = find_head_end(&buffer) {
            break end;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err("request head too large".to_owned());
        }
        let n = read(&mut chunk)?;
        if n == 0 {
            return Err("connection closed before request head".to_owned());
        }
        buffer.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| "request head is not utf-8".to_owned())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(format!("malformed request line '{request_line}'"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    let mut body = buffer[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read(&mut chunk)?;
        if n == 0 {
            return Err("connection closed mid-body".to_owned());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond_json(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn respond_text(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let body = format!("{{\"error\":\"{}\"}}", escape_json(message));
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// What a `/run` request resolves to before any bytes are sent back.
#[derive(Debug)]
struct RunRequest {
    spec: ScenarioSpec,
    backend: RunBackend,
    stride: u64,
    trace: bool,
}

#[derive(Debug)]
enum RunBackend {
    Model(&'static ModelSpec),
    Topology(Topology),
}

impl RunRequest {
    fn parse(body: &[u8]) -> Result<RunRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_owned())?;
        let value = parse(text).map_err(|e| format!("body: {e}"))?;
        let spec = ScenarioSpec::from_canon(value.get("scenario").map_err(|e| e.to_string())?)
            .map_err(|e| format!("scenario: {e}"))?;
        if spec.transactions_per_master > MAX_TRANSACTIONS {
            return Err(format!(
                "transactions_per_master {} exceeds the serve-mode cap of {MAX_TRANSACTIONS}",
                spec.transactions_per_master
            ));
        }
        let map = value.as_map().map_err(|e| e.to_string())?;
        let backend = if let Some(topology) = map.get("topology") {
            RunBackend::Topology(
                Topology::from_canon(topology).map_err(|e| format!("topology: {e}"))?,
            )
        } else if let Some(model) = map.get("model") {
            RunBackend::Model(<&ModelSpec>::from_canon(model).map_err(|e| format!("model: {e}"))?)
        } else {
            RunBackend::Model(lookup("tlm").expect("tlm is registered"))
        };
        let stride = match map.get("stride") {
            None => 0,
            Some(v) => v.as_u64().map_err(|e| format!("stride: {e}"))?,
        };
        let trace = match map.get("trace") {
            None => false,
            Some(v) => v.as_bool().map_err(|e| format!("trace: {e}"))?,
        };
        // Resolve *before* answering 200, so an unknown pattern or a bad
        // master subset is a clean 400 instead of a truncated stream.
        spec.resolve().map_err(|e| format!("scenario: {e}"))?;
        Ok(RunRequest {
            spec,
            backend,
            stride,
            trace,
        })
    }

    fn hash(&self) -> String {
        match &self.backend {
            RunBackend::Model(model) => point_hash(&self.spec, model),
            RunBackend::Topology(topology) => topology_point_hash(&self.spec, topology),
        }
    }
}

/// Forwards probes to the response stream while feeding the service
/// counters per stride, so a `/metrics` scrape taken mid-run observes
/// the simulated cycles and completed transactions climbing.
struct MeteredSink<'a, S> {
    inner: S,
    metrics: &'a ServerMetrics,
    seen: Probe,
}

impl<'a, S> MeteredSink<'a, S> {
    fn new(inner: S, metrics: &'a ServerMetrics) -> Self {
        MeteredSink {
            inner,
            metrics,
            seen: Probe::default(),
        }
    }
}

impl<S: SnapshotSink> SnapshotSink for MeteredSink<'_, S> {
    fn record(&mut self, probe: &Probe) -> io::Result<()> {
        ServerMetrics::add(
            &self.metrics.cycles,
            probe.cycle.saturating_sub(self.seen.cycle),
        );
        ServerMetrics::add(
            &self.metrics.transactions,
            probe.transactions.saturating_sub(self.seen.transactions),
        );
        ServerMetrics::add(
            &self.metrics.bytes,
            probe.bytes.saturating_sub(self.seen.bytes),
        );
        self.seen = *probe;
        self.inner.record(probe)
    }
}

fn stream_run(stream: &mut TcpStream, run: &RunRequest, metrics: &ServerMetrics) -> io::Result<()> {
    let config = run
        .spec
        .resolve()
        .expect("request validation already resolved the spec");
    let mut model: Box<dyn analysis::BusModel> = match &run.backend {
        RunBackend::Model(model) => model.build(&config),
        RunBackend::Topology(topology) => Box::new(config.build_topology(topology.clone())),
    };
    if run.trace {
        model.set_tracing(true);
    }
    ServerMetrics::add(&metrics.runs_started, 1);
    ServerMetrics::add(&metrics.runs_active, 1);
    let active = ActiveRun(&metrics.runs_active);
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Connection: close\r\n\r\n"
    )?;
    let mut writer = BufWriter::new(stream);
    let start = Instant::now();
    let (report, seen, trace) = if run.stride > 0 {
        let mut lines = JsonLinesSnapshotSink::new(&mut writer);
        lines.set_label(&run.spec.name);
        let mut sink = MeteredSink::new(lines, metrics);
        let mut simulation = Simulation::new(model);
        let report = simulation.run_streaming(CycleDelta::new(run.stride), &mut sink)?;
        (report, sink.seen, simulation.model_mut().take_trace())
    } else {
        let report = model.run();
        (report, Probe::default(), model.take_trace())
    };
    // Whatever the probes did not yet account for (stride-less runs, the
    // tail past the last stride) lands when the run retires.
    ServerMetrics::add(
        &metrics.cycles,
        report.total_cycles.saturating_sub(seen.cycle),
    );
    ServerMetrics::add(
        &metrics.transactions,
        report
            .total_transactions()
            .saturating_sub(seen.transactions),
    );
    ServerMetrics::add(
        &metrics.bytes,
        report.total_bytes().saturating_sub(seen.bytes),
    );
    let trace_events = trace.as_ref().map_or(0, |log| log.events.len());
    let mut profile_summary = None;
    if let Some(log) = &trace {
        ServerMetrics::add(&metrics.trace_events, trace_events as u64);
        metrics.observe_run_latencies(log);
        profile_summary = Some(Profile::from_log(log, ProfileOptions::default()).summary_json());
        write_trace_lines(&mut writer, log)?;
    }
    let wall_micros = start.elapsed().as_micros().max(1) as u64;
    let traced = if run.trace {
        let profile = profile_summary.unwrap_or_else(|| "null".to_owned());
        format!(", \"trace_events\": {trace_events}, \"profile\": {profile}")
    } else {
        String::new()
    };
    writeln!(
        writer,
        "{{\"event\": \"report\", \"scenario\": \"{}\", \"model\": \"{}\", \
         \"point_hash\": \"{}\", \"cycles\": {}, \"transactions\": {}, \
         \"bytes\": {}, \"wall_micros\": {wall_micros}{traced}}}",
        escape_json(&run.spec.name),
        match run.backend {
            RunBackend::Model(model) => model.id,
            RunBackend::Topology(_) => report.model.id(),
        },
        run.hash(),
        report.total_cycles,
        report.total_transactions(),
        report.total_bytes(),
    )?;
    writer.flush()?;
    ServerMetrics::add(&metrics.runs_completed, 1);
    drop(active);
    Ok(())
}

/// Streams every event of `log` as a `{"event": "trace", ...}` line: the
/// compact JSON-lines record with the ndjson discriminator in front of
/// its first field. Lines are rendered into one reused buffer that goes
/// to `out` whenever it holds [`TRACE_CHUNK_BYTES`], so no event costs an
/// allocation or a `fmt` call, and no buffer holds the whole response.
fn write_trace_lines(out: &mut impl Write, log: &TraceLog) -> io::Result<()> {
    let mut chunk = Vec::with_capacity(TRACE_CHUNK_BYTES + MAX_JSON_LINE_BYTES);
    for event in &log.events {
        chunk.extend_from_slice(b"{\"event\": \"trace\", ");
        event.write_json_fields(&mut chunk);
        chunk.extend_from_slice(b"}\n");
        if chunk.len() >= TRACE_CHUNK_BYTES {
            out.write_all(&chunk)?;
            chunk.clear();
        }
    }
    out.write_all(&chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that sends a valid head announcing the largest body, then
    /// trickles one byte per read, 1 ms apart.
    struct Trickle {
        sent: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let head = format!("POST /run HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
            std::thread::sleep(Duration::from_millis(1));
            buf[0] = head.as_bytes().get(self.sent).copied().unwrap_or(b' ');
            self.sent += 1;
            Ok(1)
        }
    }

    #[test]
    fn a_trickling_client_is_cut_off_at_the_deadline() {
        let deadline = Instant::now() + Duration::from_millis(20);
        let error = read_request(&mut Trickle { sent: 0 }, deadline)
            .err()
            .expect("a request trickling past its deadline must be refused");
        assert!(error.contains("not received within"), "{error}");
    }

    #[test]
    fn run_requests_parse_validate_and_hash() {
        let spec = ahbplus::scenario("table1-a").unwrap().with_transactions(5);
        let body = format!(
            "{{\"scenario\": {}, \"model\": \"lt\", \"stride\": 500}}",
            spec.to_canon().to_canonical_json()
        );
        let run = RunRequest::parse(body.as_bytes()).unwrap();
        assert_eq!(run.stride, 500);
        assert!(!run.trace);
        assert_eq!(run.hash(), point_hash(&spec, lookup("lt").unwrap()));

        let traced = format!(
            "{{\"scenario\": {}, \"trace\": true}}",
            spec.to_canon().to_canonical_json()
        );
        assert!(RunRequest::parse(traced.as_bytes()).unwrap().trace);

        let default_model = format!("{{\"scenario\": {}}}", spec.to_canon().to_canonical_json());
        let run = RunRequest::parse(default_model.as_bytes()).unwrap();
        assert!(matches!(run.backend, RunBackend::Model(model) if model.id == "tlm"));
        assert_eq!(run.stride, 0);

        let with_topology = format!(
            "{{\"scenario\": {}, \"topology\": {}}}",
            spec.to_canon().to_canonical_json(),
            Topology::het_2x2().to_canon().to_canonical_json()
        );
        let run = RunRequest::parse(with_topology.as_bytes()).unwrap();
        assert_eq!(run.hash(), topology_point_hash(&spec, &Topology::het_2x2()));
    }

    #[test]
    fn run_requests_reject_bad_input_with_a_reason() {
        let garbage = RunRequest::parse(b"not json").unwrap_err();
        assert!(garbage.contains("body:"), "{garbage}");
        let no_scenario = RunRequest::parse(b"{}").unwrap_err();
        assert!(no_scenario.contains("scenario"), "{no_scenario}");
        let unknown_pattern = format!(
            "{{\"scenario\": {}}}",
            ScenarioSpec::new("x", "no-such-pattern", 5, 1)
                .to_canon()
                .to_canonical_json()
        );
        let error = RunRequest::parse(unknown_pattern.as_bytes()).unwrap_err();
        assert!(error.contains("no-such-pattern"), "{error}");
        let oversized = format!(
            "{{\"scenario\": {}}}",
            ScenarioSpec::new("x", "a", MAX_TRANSACTIONS + 1, 1)
                .to_canon()
                .to_canonical_json()
        );
        let error = RunRequest::parse(oversized.as_bytes()).unwrap_err();
        assert!(error.contains("cap"), "{error}");
    }

    #[test]
    fn metrics_render_as_prometheus_text() {
        let metrics = ServerMetrics::default();
        ServerMetrics::add(&metrics.requests, 3);
        ServerMetrics::add(&metrics.runs_active, 1);
        ServerMetrics::add(&metrics.cycles, 12345);
        let text = metrics.render();
        assert!(
            text.contains("# TYPE campaign_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("campaign_requests_total 3"), "{text}");
        assert!(text.contains("# TYPE campaign_runs_active gauge"), "{text}");
        assert!(text.contains("campaign_runs_active 1"), "{text}");
        assert!(
            text.contains("campaign_simulated_cycles_total 12345"),
            "{text}"
        );
        assert!(text.contains("campaign_trace_events_total 0"), "{text}");
    }

    #[test]
    fn latency_histogram_renders_cumulative_prometheus_buckets() {
        let metrics = ServerMetrics::default();
        let mut tracer = analysis::trace::Tracer::disabled();
        tracer.set_enabled(true);
        tracer.span(0, 1, 0, 2, 1, 8, 0); // latency 1 -> bucket 0
        tracer.span(0, 2, 0, 2, 3, 8, 0); // latency 3 -> bucket 1
        tracer.span(0, 3, 100, 200, 1000, 8, 0); // latency 900 -> bucket 9
        tracer.drain(0, 4, 0, 5000); // drains are not master-visible
        metrics.observe_run_latencies(&tracer.take());
        let text = metrics.render();
        assert!(
            text.contains("# TYPE campaign_run_latency_cycles histogram"),
            "{text}"
        );
        assert!(
            text.contains("campaign_run_latency_cycles_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("campaign_run_latency_cycles_bucket{le=\"3\"} 2"),
            "{text}"
        );
        // 900 lands in [512, 1024); every later bound sees all 3.
        assert!(
            text.contains("campaign_run_latency_cycles_bucket{le=\"1023\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("campaign_run_latency_cycles_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("campaign_run_latency_cycles_sum 904"),
            "{text}"
        );
        assert!(
            text.contains("campaign_run_latency_cycles_count 3"),
            "{text}"
        );
    }

    #[test]
    fn active_run_guard_releases_the_gauge() {
        let gauge = AtomicU64::new(1);
        drop(ActiveRun(&gauge));
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    /// Records the size of every write it accepts.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_lines_go_out_in_bounded_chunks() {
        let mut tracer = analysis::trace::Tracer::disabled();
        tracer.set_enabled(true);
        for id in 0..3_000 {
            tracer.span(id as u16 % 5, id, id * 9, id * 9 + 2, id * 9 + 8, 32, 0);
        }
        let log = tracer.take();
        let mut out = Recorder::default();
        write_trace_lines(&mut out, &log).unwrap();
        let (last, full) = out.writes.split_last().unwrap();
        assert!(!full.is_empty() && *last < TRACE_CHUNK_BYTES);
        for &len in full {
            assert!((TRACE_CHUNK_BYTES..TRACE_CHUNK_BYTES + MAX_JSON_LINE_BYTES).contains(&len));
        }
        let expected: String = log
            .to_json_lines()
            .lines()
            .map(|line| format!("{{\"event\": \"trace\", {}\n", &line[1..]))
            .collect();
        assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
    }

    #[test]
    fn head_end_detection_spans_chunk_boundaries() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }
}
