//! Structured event tracing.
//!
//! Every backend can emit a stream of [`TraceEvent`]s into a [`Tracer`]:
//! transaction-lifecycle spans (release → grant → data beats → retire,
//! or write-buffer absorption), bridge-crossing legs (egress, replay,
//! read-response return), and scheduler events (quantum barriers,
//! lookahead stretches). The stream is *deterministic*: it is a pure
//! function of the simulated schedule, never of wall-clock time or
//! thread interleaving, so two runs of the same platform — or the same
//! platform under different scheduler modes — produce byte-identical
//! exports ([`TraceLog::to_json_lines`]).
//!
//! The design goal is that tracing *disabled* is free to within noise:
//! every record method begins with one predictable branch on
//! [`Tracer::is_enabled`] and returns immediately, so an untraced hot
//! loop pays a single never-taken branch per instrumentation seam. The
//! speed harness records `trace_overhead_pct` per model in
//! `BENCH_speed.json`: the smallest paired enabled-vs-disabled overhead
//! over its repetitions. That is the cost of tracing *enabled*, and the
//! minimum of N noisy ratios is biased toward zero, so it neither
//! measures nor bounds what the seams cost when tracing is off.
//!
//! A finished model hands its buffered events back as a [`TraceLog`]
//! (via `BusModel::take_trace`). Multi-shard platforms merge per-shard
//! logs in `(cycle, shard, seq)` order ([`TraceLog::merge`]); the
//! result exports to Chrome-trace/Perfetto JSON
//! ([`TraceLog::to_perfetto_json`]) or compact JSON-lines. One function
//! renders the JSON-lines event format, [`TraceEvent::write_json_fields`]:
//! a hand-rolled decimal writer that appends to a byte buffer without
//! allocating or calling into `fmt`. [`TraceEvent::to_json_line`],
//! [`TraceLog::to_json_lines`] and the `campaign serve` event stream are
//! all built on it, so they cannot drift apart. Latency
//! distributions and their attribution are computed from the stream by
//! [`crate::profile`].

use std::fmt::Write as _;

use amba::bridge::ParkedRead;
use amba::txn::Transaction;
use simkern::time::Cycle;

use crate::jsonfmt::escape_json;
use crate::model::Probe;

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEventKind {
    /// A transaction retired on the bus: the span runs from request
    /// (`start`), through grant (`grant`), to completion (`cycle`).
    Span,
    /// A posted write absorbed by the write buffer: the master's span
    /// ends early at `cycle`; the bus-side drain is a separate
    /// [`TraceEventKind::Drain`].
    Absorb,
    /// The write buffer drained one posted write onto the bus,
    /// finishing at `cycle` (`start` is when the drain burst started).
    Drain,
    /// A transaction entered a bridge egress FIFO at `cycle` bound for
    /// a remote shard.
    BridgeEgress,
    /// A bridge replayed a crossing onto its far-side bus: released to
    /// the remote arbiter at `cycle` (`start` is the source-side issue).
    BridgeReplay,
    /// A non-posted read's response returned to the source shard at
    /// `cycle`, retiring the parked master.
    BridgeResponse,
    /// A scheduler quantum barrier committed at `cycle` (`start` holds
    /// the quantum that was just covered).
    Barrier,
    /// The adaptive lookahead stretched a quantum: `start` holds the
    /// cycles gained past the fixed schedule.
    Stretch,
}

impl TraceEventKind {
    /// Stable machine-readable name used by both exporters.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            TraceEventKind::Span => "span",
            TraceEventKind::Absorb => "absorb",
            TraceEventKind::Drain => "drain",
            TraceEventKind::BridgeEgress => "bridge-egress",
            TraceEventKind::BridgeReplay => "bridge-replay",
            TraceEventKind::BridgeResponse => "bridge-response",
            TraceEventKind::Barrier => "barrier",
            TraceEventKind::Stretch => "stretch",
        }
    }

    /// The inverse of [`TraceEventKind::id`]: resolves a stable name
    /// back to its kind (used by the JSON-lines reader).
    #[must_use]
    pub fn from_id(id: &str) -> Option<TraceEventKind> {
        Some(match id {
            "span" => TraceEventKind::Span,
            "absorb" => TraceEventKind::Absorb,
            "drain" => TraceEventKind::Drain,
            "bridge-egress" => TraceEventKind::BridgeEgress,
            "bridge-replay" => TraceEventKind::BridgeReplay,
            "bridge-response" => TraceEventKind::BridgeResponse,
            "barrier" => TraceEventKind::Barrier,
            "stretch" => TraceEventKind::Stretch,
            _ => return None,
        })
    }

    /// `true` for the scheduler-event category (barriers and
    /// stretches). These are a property of the *synchronization
    /// schedule*, not of the simulated platform: a fixed-quantum and a
    /// lookahead run of the same workload differ only in this category,
    /// so schedule-independent comparisons filter it out.
    #[must_use]
    pub fn is_scheduler(self) -> bool {
        matches!(self, TraceEventKind::Barrier | TraceEventKind::Stretch)
    }
}

/// The transaction completed via write-buffer absorption/drain rather
/// than occupying the bus end-to-end.
pub const FLAG_WRITE_BUFFER: u8 = 1;
/// The transaction targeted a remote shard (crossed a bridge).
pub const FLAG_REMOTE: u8 = 1 << 1;
/// The transaction was a write.
pub const FLAG_WRITE: u8 = 1 << 2;
/// The transaction's DRAM access hit an open (or hint-prepared) row.
/// Set on local lifecycle spans only: remote spans never touch the
/// local DRAM, and drains carry the write-buffer flag instead. The
/// attribution layer (`analysis::profile`) uses this bit to split DDR
/// service time by row hit/miss class.
pub const FLAG_ROW_HIT: u8 = 1 << 3;

/// One structured trace event.
///
/// The layout is deliberately flat and integer-only: events order
/// totally by `(cycle, shard, seq)` and compare bit-for-bit, which is
/// what makes merged multi-shard streams byte-identical across
/// scheduler modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Primary timestamp: completion / occurrence cycle.
    pub cycle: u64,
    /// Span start (request release cycle) for lifecycle events; payload
    /// (quantum, cycles gained) for scheduler events.
    pub start: u64,
    /// Grant cycle for lifecycle spans (when arbitration won), zero
    /// where not applicable.
    pub grant: u64,
    /// Emitting shard (0 on single-bus models; [`SCHEDULER_SHARD`] for
    /// platform-level scheduler events).
    pub shard: u16,
    /// Per-shard monotone sequence number (tie-break within one cycle).
    pub seq: u32,
    /// Master the event belongs to (`u16::MAX` when not applicable).
    pub master: u16,
    /// Transaction id (0 when not applicable).
    pub id: u64,
    /// Bytes moved by the transaction (0 for non-span events).
    pub bytes: u32,
    /// Flag bits ([`FLAG_WRITE_BUFFER`], [`FLAG_REMOTE`], [`FLAG_WRITE`]).
    pub flags: u8,
    /// Event kind.
    pub kind: TraceEventKind,
}

/// Shard id used for platform-level scheduler events, sorting after
/// every real shard at the same cycle.
pub const SCHEDULER_SHARD: u16 = u16::MAX;

impl TraceEvent {
    /// Total order used by [`TraceLog::merge`]: cycle, then shard, then
    /// per-shard sequence. Within one shard this equals emission order.
    #[must_use]
    pub fn sort_key(&self) -> (u64, u16, u32) {
        (self.cycle, self.shard, self.seq)
    }

    /// Span latency (request to completion); zero for non-span events.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.cycle.saturating_sub(self.start)
    }

    /// Appends the event's fields to `out` as the body of its canonical
    /// JSON object, without the surrounding braces: `"cycle": 20,
    /// "shard": 0, ..., "flags": 0`. Field order and formatting are
    /// stable: byte equality of rendered streams is the determinism
    /// contract.
    ///
    /// This is the one renderer of the event format. [`Self::to_json_line`],
    /// [`TraceLog::to_json_lines`] and the served event stream all call
    /// it. It writes the decimal digits itself, so it allocates nothing
    /// beyond growing `out` and makes no `fmt` call.
    pub fn write_json_fields(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"\"cycle\": ");
        write_decimal(out, self.cycle);
        out.extend_from_slice(b", \"shard\": ");
        write_decimal(out, u64::from(self.shard));
        out.extend_from_slice(b", \"seq\": ");
        write_decimal(out, u64::from(self.seq));
        out.extend_from_slice(b", \"kind\": \"");
        out.extend_from_slice(self.kind.id().as_bytes());
        out.extend_from_slice(b"\", \"master\": ");
        write_decimal(out, u64::from(self.master));
        out.extend_from_slice(b", \"id\": ");
        write_decimal(out, self.id);
        out.extend_from_slice(b", \"start\": ");
        write_decimal(out, self.start);
        out.extend_from_slice(b", \"grant\": ");
        write_decimal(out, self.grant);
        out.extend_from_slice(b", \"bytes\": ");
        write_decimal(out, u64::from(self.bytes));
        out.extend_from_slice(b", \"flags\": ");
        write_decimal(out, u64::from(self.flags));
    }

    /// Renders the event as one canonical JSON line (no trailing
    /// newline), through [`Self::write_json_fields`].
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = Vec::with_capacity(MAX_JSON_LINE_BYTES);
        out.push(b'{');
        self.write_json_fields(&mut out);
        out.push(b'}');
        ascii_string(out)
    }

    /// Parses one canonical JSON line (the [`TraceEvent::to_json_line`]
    /// format) back into an event. Accepts any field order and
    /// surrounding whitespace, so re-reading an exported stream — or a
    /// served `{"event": "trace", ...}` line with the discriminator
    /// stripped — round-trips.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed or missing
    /// field.
    pub fn from_json_line(line: &str) -> Result<TraceEvent, String> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: '{line}'"))?;
        let mut cycle = None;
        let mut shard = None;
        let mut seq = None;
        let mut kind = None;
        let mut master = None;
        let mut id = None;
        let mut start = None;
        let mut grant = None;
        let mut bytes = None;
        let mut flags = None;
        for field in body.split(',') {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field '{field}'"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            if key == "kind" {
                let name = value.trim_matches('"');
                kind = Some(
                    TraceEventKind::from_id(name)
                        .ok_or_else(|| format!("unknown event kind '{name}'"))?,
                );
                continue;
            }
            if key == "event" {
                // Served-stream discriminator (`"event": "trace"`).
                continue;
            }
            let number: u64 = value
                .parse()
                .map_err(|_| format!("field '{key}' is not an integer: '{value}'"))?;
            match key {
                "cycle" => cycle = Some(number),
                "shard" => shard = Some(number),
                "seq" => seq = Some(number),
                "master" => master = Some(number),
                "id" => id = Some(number),
                "start" => start = Some(number),
                "grant" => grant = Some(number),
                "bytes" => bytes = Some(number),
                "flags" => flags = Some(number),
                other => return Err(format!("unknown field '{other}'")),
            }
        }
        let get =
            |field: Option<u64>, name: &str| field.ok_or_else(|| format!("missing field '{name}'"));
        let narrow = |value: u64, bits: u32, name: &str| -> Result<u64, String> {
            if bits < 64 && value >> bits != 0 {
                return Err(format!("field '{name}' out of range: {value}"));
            }
            Ok(value)
        };
        Ok(TraceEvent {
            cycle: get(cycle, "cycle")?,
            start: get(start, "start")?,
            grant: get(grant, "grant")?,
            shard: narrow(get(shard, "shard")?, 16, "shard")? as u16,
            seq: narrow(get(seq, "seq")?, 32, "seq")? as u32,
            master: narrow(get(master, "master")?, 16, "master")? as u16,
            id: get(id, "id")?,
            bytes: narrow(get(bytes, "bytes")?, 32, "bytes")? as u32,
            flags: narrow(get(flags, "flags")?, 8, "flags")? as u8,
            kind: kind.ok_or_else(|| "missing field 'kind'".to_owned())?,
        })
    }
}

/// An upper bound on one rendered event line, newline included. The
/// longest line, every integer field at its type's maximum and the
/// longest kind name, takes 236 bytes; a served line adds an 18-byte
/// discriminator. A buffer with this much room left always takes one more
/// line without growing.
pub const MAX_JSON_LINE_BYTES: usize = 256;

/// Appends the decimal digits of `value` to `out`.
fn write_decimal(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The rendered event text as a `String`. The renderer writes only ASCII,
/// so the conversion cannot fail.
fn ascii_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("trace JSON is ASCII")
}

/// The header counters of a [`TraceLog`] (the counter block of the
/// `.ahbt` v1 format).
///
/// The DDR and peak-occupancy slots are filled from the backend's
/// [`Probe`] when the log is taken ([`TraceLog::with_probe_counters`]).
/// On a multi-bus platform the merged log sums the DDR slots over shards
/// and takes the *maximum* of the write-buffer and bridge-FIFO peaks
/// (the probe sums write-buffer peaks instead).
///
/// The eight event-count slots (`spans` through `stretches`) are zero in
/// every log a backend returns, except `crossings` on a multi-bus
/// platform, which carries the platform's bridge-crossing total. The
/// slots stay because the `.ahbt` v1 header has them; count events from
/// the stream itself when they are needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Transactions that completed on the bus (span events).
    pub spans: u64,
    /// Posted writes absorbed by a write buffer.
    pub absorbed: u64,
    /// Posted writes drained onto a bus.
    pub drained: u64,
    /// Bridge egress legs.
    pub crossings: u64,
    /// Bridge replay legs.
    pub replays: u64,
    /// Read-response return legs.
    pub responses: u64,
    /// Scheduler barriers.
    pub barriers: u64,
    /// Lookahead quantum stretches.
    pub stretches: u64,
    /// DRAM row hits plus prepared hits (from the probe).
    pub dram_row_hits: u64,
    /// Total DRAM accesses (from the probe).
    pub dram_accesses: u64,
    /// Peak write-buffer occupancy (from the probe; the maximum over
    /// shards in a merged log).
    pub write_buffer_peak: u64,
    /// Peak bridge-FIFO occupancy (set by the multi-bus platform).
    pub bridge_fifo_peak: u64,
}

impl TraceCounters {
    /// Sums two counter sets (used when merging shard logs).
    #[must_use]
    pub fn merged(self, other: TraceCounters) -> TraceCounters {
        TraceCounters {
            spans: self.spans + other.spans,
            absorbed: self.absorbed + other.absorbed,
            drained: self.drained + other.drained,
            crossings: self.crossings + other.crossings,
            replays: self.replays + other.replays,
            responses: self.responses + other.responses,
            barriers: self.barriers + other.barriers,
            stretches: self.stretches + other.stretches,
            dram_row_hits: self.dram_row_hits + other.dram_row_hits,
            dram_accesses: self.dram_accesses + other.dram_accesses,
            write_buffer_peak: self.write_buffer_peak.max(other.write_buffer_peak),
            bridge_fifo_peak: self.bridge_fifo_peak.max(other.bridge_fifo_peak),
        }
    }
}

/// The per-backend event sink. Starts disabled; a disabled tracer's
/// record methods are a single branch and a return.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    shard: u16,
    seq: u32,
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// A disabled tracer for shard 0 (single-bus models).
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events are being recorded.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Enabling reserves event capacity up
    /// front so the hot path does not pay doubling reallocations mid-run
    /// — on sub-millisecond measurement workloads those memcpys would
    /// show up as tracing overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled && self.events.capacity() < 16 * 1024 {
            self.events.reserve(16 * 1024);
        }
    }

    /// Tags subsequently recorded events with a shard id (multi-bus
    /// platforms number their shards; single-bus models stay at 0).
    pub fn set_shard(&mut self, shard: u16) {
        self.shard = shard;
    }

    #[inline]
    fn push(&mut self, mut event: TraceEvent) {
        event.shard = self.shard;
        event.seq = self.seq;
        self.seq += 1;
        self.events.push(event);
    }

    /// Records a transaction-lifecycle span (bus completion).
    ///
    /// The argument list mirrors the event fields one-to-one — grouping
    /// them into an intermediate struct would just duplicate
    /// [`TraceEvent`] at every instrumentation seam.
    #[expect(clippy::too_many_arguments)]
    #[inline]
    pub fn span(
        &mut self,
        master: u16,
        id: u64,
        requested_at: u64,
        granted_at: u64,
        completed_at: u64,
        bytes: u32,
        flags: u8,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: completed_at,
            start: requested_at,
            grant: granted_at,
            shard: 0,
            seq: 0,
            master,
            id,
            bytes,
            flags,
            kind: TraceEventKind::Span,
        });
    }

    /// Records a posted write absorbed by the write buffer.
    #[inline]
    pub fn absorb(&mut self, master: u16, id: u64, requested_at: u64, absorbed_at: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: absorbed_at,
            start: requested_at,
            grant: absorbed_at,
            shard: 0,
            seq: 0,
            master,
            id,
            bytes: 0,
            flags: FLAG_WRITE | FLAG_WRITE_BUFFER,
            kind: TraceEventKind::Absorb,
        });
    }

    /// Records a write-buffer drain finishing on the bus.
    #[inline]
    pub fn drain(&mut self, master: u16, id: u64, started_at: u64, completed_at: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: completed_at,
            start: started_at,
            grant: started_at,
            shard: 0,
            seq: 0,
            master,
            id,
            bytes: 0,
            flags: FLAG_WRITE | FLAG_WRITE_BUFFER,
            kind: TraceEventKind::Drain,
        });
    }

    /// Records a bridge leg (egress, replay or response return).
    #[inline]
    pub fn bridge(
        &mut self,
        kind: TraceEventKind,
        master: u16,
        id: u64,
        issued_at: u64,
        at: u64,
        flags: u8,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: at,
            start: issued_at,
            grant: 0,
            shard: 0,
            seq: 0,
            master,
            id,
            bytes: 0,
            flags: flags | FLAG_REMOTE,
            kind,
        });
    }

    /// Records a bridge leg of `txn` entering or leaving a shard at `at`:
    /// a [`TraceEventKind::BridgeEgress`] into the bridge FIFO or a
    /// [`TraceEventKind::BridgeReplay`] arriving out of it.
    #[inline]
    pub fn crossing(&mut self, kind: TraceEventKind, txn: &Transaction, at: Cycle) {
        self.bridge(
            kind,
            txn.master.index() as u16,
            txn.id.value(),
            at.value(),
            at.value(),
            if txn.is_write() { FLAG_WRITE } else { 0 },
        );
    }

    /// Records the response leg of a non-posted read arriving at
    /// `arrival`, and the read's lifecycle span, which closes here with
    /// the full round-trip latency.
    #[inline]
    pub fn response(&mut self, read: &ParkedRead, arrival: Cycle) {
        let (master, id) = (read.txn.master.index() as u16, read.txn.id.value());
        let requested_at = read.requested_at.value();
        self.bridge(
            TraceEventKind::BridgeResponse,
            master,
            id,
            requested_at,
            arrival.value(),
            0,
        );
        self.span(
            master,
            id,
            requested_at,
            read.granted_at.value(),
            arrival.value(),
            read.txn.bytes(),
            FLAG_REMOTE,
        );
    }

    /// Records a scheduler quantum barrier (multi-shard platforms).
    #[inline]
    pub fn barrier(&mut self, at: u64, quantum: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: at,
            start: quantum,
            grant: 0,
            shard: 0,
            seq: 0,
            master: u16::MAX,
            id: 0,
            bytes: 0,
            flags: 0,
            kind: TraceEventKind::Barrier,
        });
    }

    /// Records an adaptive-lookahead quantum stretch.
    #[inline]
    pub fn stretch(&mut self, at: u64, gained: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cycle: at,
            start: gained,
            grant: 0,
            shard: 0,
            seq: 0,
            master: u16::MAX,
            id: 0,
            bytes: 0,
            flags: 0,
            kind: TraceEventKind::Stretch,
        });
    }

    /// Takes the buffered events as a [`TraceLog`], leaving the tracer
    /// empty (and still enabled if it was). Events are sorted into the
    /// canonical `(cycle, shard, seq)` order — some lifecycle events are
    /// recorded later than their cycle stamp (a non-posted read's span
    /// closes when its response returns), so emission order is not cycle
    /// order.
    pub fn take(&mut self) -> TraceLog {
        self.seq = 0;
        let mut events = std::mem::take(&mut self.events);
        events.sort_by_key(TraceEvent::sort_key);
        TraceLog {
            events,
            counters: TraceCounters::default(),
        }
    }
}

/// A finished (or in-flight) stream of trace events plus its registered
/// counters.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The events, ordered by [`TraceEvent::sort_key`].
    pub events: Vec<TraceEvent>,
    /// Aggregate counters registered by the emitting backend(s).
    pub counters: TraceCounters,
}

impl TraceLog {
    /// Merges shard logs into one deterministic stream, ordered by
    /// `(cycle, shard, seq)` — the key is a total order over distinct
    /// events, so the merge is independent of the input partitioning and
    /// of which scheduler mode produced the parts.
    #[must_use]
    pub fn merge(parts: Vec<TraceLog>) -> TraceLog {
        let mut counters = TraceCounters::default();
        let mut events = Vec::with_capacity(parts.iter().map(|p| p.events.len()).sum());
        for part in parts {
            counters = counters.merged(part.counters);
            events.extend(part.events);
        }
        events.sort_by_key(TraceEvent::sort_key);
        TraceLog { events, counters }
    }

    /// The events at cycles `<= cycle`, keeping at most the last `n`
    /// per shard-independent merged order — the window a lockstep trace
    /// diff shows around a divergence.
    #[must_use]
    pub fn window_before(&self, cycle: u64, n: usize) -> &[TraceEvent] {
        let end = self.events.partition_point(|e| e.cycle <= cycle);
        let start = end.saturating_sub(n);
        &self.events[start..end]
    }

    /// Fills the header's DDR and write-buffer slots from a backend's
    /// probe: the one way every backend registers them when its log is
    /// taken.
    #[must_use]
    pub fn with_probe_counters(mut self, probe: &Probe) -> TraceLog {
        self.counters.dram_row_hits = probe.dram_row_hits + probe.dram_prepared_hits;
        self.counters.dram_accesses = probe.dram_accesses;
        self.counters.write_buffer_peak = probe.write_buffer_peak;
        self
    }

    /// Events with the scheduler category filtered out — the
    /// schedule-independent stream (identical across fixed and
    /// lookahead quanta, not just across scheduler threading modes).
    #[must_use]
    pub fn lifecycle_events(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| !e.kind.is_scheduler())
            .collect()
    }

    /// Renders the stream as compact JSON lines (one event per line,
    /// stable field order). Byte equality of this rendering is the
    /// determinism contract the scheduler-mode tests assert.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = Vec::with_capacity(self.events.len() * 160);
        for event in &self.events {
            out.push(b'{');
            event.write_json_fields(&mut out);
            out.extend_from_slice(b"}\n");
        }
        ascii_string(out)
    }

    /// Renders the stream as Chrome-trace / Perfetto JSON (the
    /// `traceEvents` array form). Spans become `"ph": "X"` duration
    /// events on a `pid` = shard, `tid` = master track; bridge legs and
    /// scheduler events become `"ph": "i"` instants. Cycles are mapped
    /// 1:1 onto the viewer's microsecond timeline.
    #[must_use]
    pub fn to_perfetto_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(self.events.len() * 160 + 256);
        out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"label\": \"");
        out.push_str(&escape_json(label));
        out.push_str("\"},\n\"traceEvents\": [\n");
        let mut first = true;
        for event in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let pid = event.shard;
            match event.kind {
                TraceEventKind::Span | TraceEventKind::Absorb | TraceEventKind::Drain => {
                    let name = match event.kind {
                        TraceEventKind::Span if event.flags & FLAG_WRITE_BUFFER != 0 => "txn (wb)",
                        TraceEventKind::Span => "txn",
                        TraceEventKind::Absorb => "absorb",
                        _ => "drain",
                    };
                    let _ = write!(
                        out,
                        "{{\"name\": \"{name} {}\", \"cat\": \"lifecycle\", \"ph\": \"X\", \
                         \"ts\": {}, \"dur\": {}, \"pid\": {pid}, \"tid\": {}, \
                         \"args\": {{\"grant\": {}, \"bytes\": {}, \"flags\": {}}}}}",
                        event.id,
                        event.start,
                        event.latency().max(1),
                        event.master,
                        event.grant,
                        event.bytes,
                        event.flags
                    );
                }
                TraceEventKind::BridgeEgress
                | TraceEventKind::BridgeReplay
                | TraceEventKind::BridgeResponse => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{} {}\", \"cat\": \"bridge\", \"ph\": \"i\", \"s\": \"p\", \
                         \"ts\": {}, \"pid\": {pid}, \"tid\": {}, \
                         \"args\": {{\"issued\": {}}}}}",
                        event.kind.id(),
                        event.id,
                        event.cycle,
                        event.master,
                        event.start
                    );
                }
                TraceEventKind::Barrier | TraceEventKind::Stretch => {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{}\", \"cat\": \"scheduler\", \"ph\": \"i\", \"s\": \"g\", \
                         \"ts\": {}, \"pid\": {pid}, \"tid\": 0, \
                         \"args\": {{\"value\": {}}}}}",
                        event.kind.id(),
                        event.cycle,
                        event.start
                    );
                }
            }
        }
        out.push_str("\n]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span_at(cycle: u64, master: u16, id: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            start: cycle.saturating_sub(10),
            grant: cycle.saturating_sub(8),
            shard: 0,
            seq: 0,
            master,
            id,
            bytes: 32,
            flags: 0,
            kind: TraceEventKind::Span,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        tracer.span(0, 1, 0, 2, 10, 32, 0);
        tracer.barrier(96, 96);
        assert!(tracer.take().events.is_empty());
    }

    #[test]
    fn events_keep_per_shard_emission_order() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.set_shard(3);
        tracer.span(0, 1, 0, 2, 10, 32, 0);
        tracer.absorb(1, 2, 4, 10);
        let log = tracer.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].shard, 3);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        // Same cycle: sequence breaks the tie in emission order.
        assert!(log.events[0].sort_key() < log.events[1].sort_key());
    }

    #[test]
    fn merge_orders_by_cycle_then_shard_then_seq() {
        let mut a = Tracer::disabled();
        a.set_enabled(true);
        a.set_shard(1);
        a.span(0, 1, 0, 1, 20, 32, 0);
        a.span(0, 2, 5, 6, 20, 32, 0);
        let mut b = Tracer::disabled();
        b.set_enabled(true);
        b.set_shard(0);
        b.span(4, 3, 2, 3, 20, 32, 0);
        b.span(4, 4, 30, 31, 40, 32, 0);
        let merged = TraceLog::merge(vec![a.take(), b.take()]);
        let keys: Vec<_> = merged
            .events
            .iter()
            .map(|e| (e.cycle, e.shard, e.seq))
            .collect();
        assert_eq!(keys, vec![(20, 0, 0), (20, 1, 0), (20, 1, 1), (40, 0, 1)]);
        // Merging in the other order yields the identical stream.
        let mut a2 = Tracer::disabled();
        a2.set_enabled(true);
        a2.set_shard(1);
        a2.span(0, 1, 0, 1, 20, 32, 0);
        a2.span(0, 2, 5, 6, 20, 32, 0);
        let mut b2 = Tracer::disabled();
        b2.set_enabled(true);
        b2.set_shard(0);
        b2.span(4, 3, 2, 3, 20, 32, 0);
        b2.span(4, 4, 30, 31, 40, 32, 0);
        let swapped = TraceLog::merge(vec![b2.take(), a2.take()]);
        assert_eq!(merged.to_json_lines(), swapped.to_json_lines());
    }

    #[test]
    fn window_before_returns_the_trailing_events() {
        let log = TraceLog {
            events: (1..=10).map(|i| span_at(i * 10, 0, i)).collect(),
            counters: TraceCounters::default(),
        };
        let window = log.window_before(55, 3);
        let cycles: Vec<_> = window.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![30, 40, 50]);
        assert!(log.window_before(5, 3).is_empty());
    }

    #[test]
    fn probe_counters_fill_the_ddr_and_write_buffer_slots() {
        let probe = Probe {
            dram_row_hits: 5,
            dram_prepared_hits: 2,
            dram_accesses: 10,
            write_buffer_peak: 4,
            ..Probe::default()
        };
        let counters = TraceLog::default().with_probe_counters(&probe).counters;
        assert_eq!(counters.dram_row_hits, 7, "row plus prepared hits");
        assert_eq!(counters.dram_accesses, 10);
        assert_eq!(counters.write_buffer_peak, 4);
        assert_eq!(counters.spans, 0, "event-count slots stay zero");
    }

    #[test]
    fn lifecycle_filter_drops_scheduler_events() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.span(0, 1, 0, 1, 10, 32, 0);
        tracer.barrier(96, 96);
        tracer.stretch(96, 40);
        let log = tracer.take();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.lifecycle_events().len(), 1);
    }

    #[test]
    fn json_lines_are_stable_and_newline_terminated() {
        let log = TraceLog {
            events: vec![span_at(20, 1, 7)],
            counters: TraceCounters::default(),
        };
        let lines = log.to_json_lines();
        assert_eq!(
            lines,
            "{\"cycle\": 20, \"shard\": 0, \"seq\": 0, \"kind\": \"span\", \"master\": 1, \
             \"id\": 7, \"start\": 10, \"grant\": 12, \"bytes\": 32, \"flags\": 0}\n"
        );
    }

    /// The event format rendered with `format!`: the oracle
    /// [`TraceEvent::write_json_fields`] must match byte for byte.
    fn format_oracle(event: &TraceEvent) -> String {
        format!(
            "{{\"cycle\": {}, \"shard\": {}, \"seq\": {}, \"kind\": \"{}\", \"master\": {}, \
             \"id\": {}, \"start\": {}, \"grant\": {}, \"bytes\": {}, \"flags\": {}}}",
            event.cycle,
            event.shard,
            event.seq,
            event.kind.id(),
            event.master,
            event.id,
            event.start,
            event.grant,
            event.bytes,
            event.flags
        )
    }

    const KINDS: [TraceEventKind; 8] = [
        TraceEventKind::Span,
        TraceEventKind::Absorb,
        TraceEventKind::Drain,
        TraceEventKind::BridgeEgress,
        TraceEventKind::BridgeReplay,
        TraceEventKind::BridgeResponse,
        TraceEventKind::Barrier,
        TraceEventKind::Stretch,
    ];

    /// A field value: zero, a small number, the type's maximum, or any
    /// value of the type.
    fn field(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            1u64..1_000,
            Just(max),
            any::<u64>().prop_map(move |v| v & max),
        ]
    }

    proptest! {
        /// The writer renders every kind exactly as the `format!` oracle
        /// did, and `from_json_line` inverts it.
        #[test]
        fn json_writer_matches_the_format_oracle_and_parses_back(
            cycle in field(u64::MAX),
            start in field(u64::MAX),
            grant in field(u64::MAX),
            shard in field(u64::from(u16::MAX)),
            seq in field(u64::from(u32::MAX)),
            master in field(u64::from(u16::MAX)),
            id in field(u64::MAX),
            bytes in field(u64::from(u32::MAX)),
            flags in field(u64::from(u8::MAX)),
        ) {
            for kind in KINDS {
                let event = TraceEvent {
                    cycle,
                    start,
                    grant,
                    shard: shard as u16,
                    seq: seq as u32,
                    master: master as u16,
                    id,
                    bytes: bytes as u32,
                    flags: flags as u8,
                    kind,
                };
                let line = event.to_json_line();
                prop_assert_eq!(&line, &format_oracle(&event));
                prop_assert!(line.len() < MAX_JSON_LINE_BYTES, "{line}");
                prop_assert_eq!(TraceEvent::from_json_line(&line), Ok(event));
            }
        }
    }

    #[test]
    fn the_longest_line_fits_the_advertised_bound() {
        let widest = TraceEvent {
            cycle: u64::MAX,
            start: u64::MAX,
            grant: u64::MAX,
            shard: u16::MAX,
            seq: u32::MAX,
            master: u16::MAX,
            id: u64::MAX,
            bytes: u32::MAX,
            flags: u8::MAX,
            kind: TraceEventKind::BridgeResponse,
        };
        let lines = TraceLog {
            events: vec![widest],
            counters: TraceCounters::default(),
        }
        .to_json_lines();
        assert_eq!(lines, format!("{}\n", format_oracle(&widest)));
        assert!(lines.len() <= MAX_JSON_LINE_BYTES, "{} bytes", lines.len());
    }

    #[test]
    fn perfetto_export_contains_span_and_instant_events() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.span(1, 7, 10, 12, 20, 32, FLAG_WRITE_BUFFER);
        tracer.bridge(TraceEventKind::BridgeEgress, 2, 8, 20, 20, 0);
        tracer.barrier(96, 96);
        let json = tracer.take().to_perfetto_json("unit");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"cat\": \"scheduler\""));
        assert!(json.contains("txn (wb) 7"));
    }
}
