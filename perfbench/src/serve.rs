//! The `serve-traced` workload: a closed-loop load generator against an
//! in-process `campaign::CampaignServer` over loopback.
//!
//! Each client thread holds one connection at a time and sends its next
//! `POST /run` only after the previous response has been read to the end,
//! so a slower server receives less load. Requests run the `table2-speed`
//! scenario on `tlm` with `"trace": true`; request *i* uses seed
//! `--seed + i`, so no two requests in a run are alike and a response
//! cache could not serve them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ahbplus::{scenario, BusModel, Canonical, PlatformConfig, ScenarioSpec};
use campaign::CampaignServer;
use simkern::time::Cycle;

use crate::sim::{self, resolve_specs};
use crate::spans::Spans;
use crate::stats;
use crate::{layers, Outcome};

/// Direct (un-served) runs of the served model, for its exact counters and
/// host time per transaction.
const DIRECT_RUNS: usize = 3;
/// A response not finished by then counts as failed instead of hanging.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Load shape: requests per window, transactions per master per request.
pub struct ServeWorkload {
    pub window: usize,
    pub transactions_per_master: usize,
    pub seed: u64,
}

/// What a `/run` response said, after the checks that need only the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub cycles: u64,
    pub transactions: u64,
    pub wall_micros: u64,
}

/// Checks one complete `/run` response: HTTP 200, newline-terminated
/// ndjson whose last line is the only report line, and a report whose
/// `trace_events` equals the number of streamed trace lines. Truncated or
/// malformed input is an error, never a panic.
pub fn parse_response(bytes: &[u8]) -> Result<Served, String> {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response head is incomplete")?;
    let status = bytes[..head_end]
        .split(|&b| b == b'\r')
        .next()
        .unwrap_or_default();
    if !status.starts_with(b"HTTP/1.1 200 ") {
        return Err(format!("status line '{}'", String::from_utf8_lossy(status)));
    }
    let body = std::str::from_utf8(&bytes[head_end + 4..]).map_err(|_| "body is not utf-8")?;
    let Some(body) = body.strip_suffix('\n') else {
        return Err("body is truncated (no final newline)".to_owned());
    };
    let mut trace_lines = 0u64;
    let mut report = None;
    for line in body.split('\n') {
        if line.starts_with("{\"event\": \"trace\"") {
            trace_lines += 1;
        } else if line.starts_with("{\"event\": \"report\"") {
            if report.replace(line).is_some() {
                return Err("more than one report line".to_owned());
            }
        } else {
            return Err(format!("unexpected line '{}'", truncate(line)));
        }
    }
    let report = report.ok_or("no report line")?;
    if !body.ends_with(report) {
        return Err("report is not the last line".to_owned());
    }
    let served = Served {
        cycles: field_u64(report, "cycles")?,
        transactions: field_u64(report, "transactions")?,
        wall_micros: field_u64(report, "wall_micros")?,
    };
    let announced = field_u64(report, "trace_events")?;
    if announced != trace_lines {
        return Err(format!(
            "report announces {announced} trace events, stream had {trace_lines}"
        ));
    }
    Ok(served)
}

fn truncate(line: &str) -> &str {
    line.char_indices()
        .nth(60)
        .map_or(line, |(i, _)| &line[..i])
}

/// The unsigned integer member `key` of a flat JSON line.
fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    let pattern = format!("\"{key}\": ");
    let start = line
        .find(&pattern)
        .ok_or(format!("report has no '{key}'"))?
        + pattern.len();
    let digits: &str = &line[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end]
        .parse()
        .map_err(|_| format!("report '{key}' is not an unsigned integer"))
}

/// One request's client-side view.
struct Sample {
    latency_s: f64,
    ttfb_s: f64,
    bytes: usize,
    served: Served,
}

/// Sends one request and reads the response to EOF into `response`
/// (reused across a client's requests); returns latency and time to first
/// byte.
fn request(addr: SocketAddr, body: &str, response: &mut Vec<u8>) -> Result<(f64, f64), String> {
    response.clear();
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut chunk = [0u8; 4096];
    let first = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
    let ttfb = start.elapsed().as_secs_f64();
    response.extend_from_slice(&chunk[..first]);
    stream
        .read_to_end(response)
        .map_err(|e| format!("read: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), ttfb))
}

/// The canonical `/run` body of one request on `seed`.
fn body(spec: &ScenarioSpec, seed: u64) -> String {
    format!(
        "{{\"scenario\": {}, \"model\": \"tlm\", \"trace\": true}}",
        spec.clone().with_seed(seed).to_canon().to_canonical_json()
    )
}

/// Worker threads on each side of the loop: at most the host's cores.
fn concurrency() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// Host seconds from binding a server to the end of its first `/run`
/// response: what a user waits for the first result.
fn cold_start(body: &str, expected: u64, response: &mut Vec<u8>) -> Result<f64, String> {
    let start = Instant::now();
    let server = CampaignServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(concurrency(), Some(1)));
        let reply = request(addr, body, response);
        if matches!(&reply, Err(e) if e.starts_with("connect")) {
            // Release a server still waiting for its one connection.
            let _ = TcpStream::connect(addr);
        }
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("serve: {e}")),
            Err(_) => return Err("server thread panicked".to_owned()),
        }
        reply?;
        let elapsed = start.elapsed().as_secs_f64();
        let served = parse_response(response)?;
        if served.transactions == expected {
            Ok(elapsed)
        } else {
            Err(format!(
                "served {} of {expected} transactions",
                served.transactions
            ))
        }
    })
}

/// One window: `bodies.len()` requests over `concurrency()` closed-loop
/// clients against a fresh server. Returns the samples and the window's
/// wall time; failed requests are recorded in `outcome`.
fn window(
    bodies: &[String],
    expected: u64,
    outcome: &mut Outcome,
    spans: &mut Spans,
) -> (Vec<Sample>, f64) {
    let clients = concurrency();
    let server = CampaignServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let connected = AtomicUsize::new(0);
    let (origin, enabled) = (spans.origin(), spans.is_enabled());
    let start = Instant::now();
    let results: Vec<(Vec<Result<Sample, String>>, Spans)> = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(clients, Some(bodies.len())));
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let connected = &connected;
                scope.spawn(move || {
                    let mut spans = Spans::with_origin(enabled, origin, client as u32 + 1);
                    let mut response = Vec::new();
                    let samples = bodies
                        .iter()
                        .skip(client)
                        .step_by(clients)
                        .map(|body| {
                            let span = spans.enter("request");
                            let reply = request(addr, body, &mut response);
                            spans.exit(span);
                            if !matches!(&reply, Err(e) if e.starts_with("connect")) {
                                connected.fetch_add(1, Ordering::SeqCst);
                            }
                            let (latency_s, ttfb_s) = reply?;
                            let served = parse_response(&response)?;
                            if served.transactions != expected {
                                return Err(format!(
                                    "served {} of {expected} transactions",
                                    served.transactions
                                ));
                            }
                            Ok(Sample {
                                latency_s,
                                ttfb_s,
                                bytes: response.len(),
                                served,
                            })
                        })
                        .collect();
                    (samples, spans)
                })
            })
            .collect();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        // The server stops after exactly `bodies.len()` connections; make
        // up for requests that never connected so it cannot wait forever.
        for _ in connected.load(Ordering::SeqCst)..bodies.len() {
            let _ = TcpStream::connect(addr);
        }
        serving
            .join()
            .expect("server thread panicked")
            .expect("serve loop");
        results
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (client_samples, client_spans) in results {
        spans.absorb(client_spans);
        for sample in client_samples {
            match sample {
                Ok(sample) => {
                    outcome.op(Vec::new());
                    samples.push(sample);
                }
                Err(problem) => outcome.op(vec![format!("request: {problem}")]),
            }
        }
    }
    (samples, wall_s)
}

/// Nearest-rank percentile `p` of one figure over `samples`.
fn percentile(samples: &[Sample], figure: fn(&Sample) -> f64, p: f64) -> Option<f64> {
    stats::nearest_rank(&samples.iter().map(figure).collect::<Vec<_>>(), p)
}

pub fn run(workload: &ServeWorkload, seconds: f64, traced: bool, spans: &mut Spans) -> Outcome {
    let mut outcome = Outcome::default();
    let spec = scenario("table2-speed")
        .expect("table2-speed is catalogued")
        .with_transactions(workload.transactions_per_master);
    let config: PlatformConfig = spec
        .clone()
        .with_seed(workload.seed)
        .resolve()
        .expect("table2-speed resolves");
    let expected = (config.pattern.master_count() * workload.transactions_per_master) as u64;

    let first_body = body(&spec, workload.seed);
    let mut response = Vec::new();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let mut requests = Vec::new();
    let mut window_p50_s = Vec::new();
    let mut window_s_per_kcycle = Vec::new();
    let mut windows_s = 0.0;
    let mut windows = 0;
    while windows < stats::BLOCKS || start.elapsed().as_secs_f64() < seconds {
        let first = windows * workload.window;
        let bodies: Vec<String> = (first..first + workload.window)
            .map(|i| body(&spec, workload.seed + i as u64))
            .collect();
        // One cold start per window, so set-up is sampled across the run.
        let span = spans.enter("server.start");
        match cold_start(&first_body, expected, &mut response) {
            Ok(seconds) => setup_s.push(seconds),
            Err(problem) => outcome.op(vec![format!("server start: {problem}")]),
        }
        spans.exit(span);
        let span = spans.enter("window");
        let (samples, wall_s) = window(&bodies, expected, &mut outcome, spans);
        spans.exit(span);
        windows += 1;
        windows_s += wall_s;
        let cycles: u64 = samples.iter().map(|s| s.served.cycles).sum();
        if let Some(p50) = percentile(&samples, |s| s.latency_s, 0.50) {
            window_p50_s.push(p50);
            window_s_per_kcycle.push(wall_s / (cycles as f64 / 1e3));
        }
        requests.extend(samples);
    }
    // Before the direct runs and the traced pass allocate anything.
    crate::record_peak_rss(&mut outcome);
    if let (Some(p50_s), Some(s_per_kcycle)) = (
        stats::block_best(&window_p50_s),
        stats::block_best(&window_s_per_kcycle),
    ) {
        outcome.set("latency_ms", p50_s * 1e3);
        outcome.set("kcps", 1.0 / s_per_kcycle);
    }
    if let Some(median) = stats::median(&setup_s) {
        outcome.set("setup_s", median);
    }
    // Over every request of the run: a window alone has too few samples
    // beyond its p99.
    if let (Some(p50), Some(p99), Some(ttfb), Some(server)) = (
        percentile(&requests, |s| s.latency_s, 0.50),
        percentile(&requests, |s| s.latency_s, 0.99),
        percentile(&requests, |s| s.ttfb_s, 0.50),
        percentile(&requests, |s| s.served.wall_micros as f64 / 1e6, 0.50),
    ) {
        outcome.set("serve.tail_ratio", p99 / p50);
        outcome.set("serve.ttfb_share_pct", ttfb / p50 * 100.0);
        outcome.set("serve.server_share_pct", server / p50 * 100.0);
        let bytes: usize = requests.iter().map(|s| s.bytes).sum();
        outcome.set(
            "serve.response_kb",
            bytes as f64 / requests.len() as f64 / 1024.0,
        );
    }
    outcome.set("serve.req_per_s", requests.len() as f64 / windows_s);

    // The served model run directly, for exact counters and host time per
    // transaction without the HTTP path.
    let tlm = resolve_specs(&config, &["tlm"]).pop().expect("one spec");
    let mut run_s = Vec::new();
    let mut reference = None;
    for _ in 0..DIRECT_RUNS {
        let mut model = tlm.build(&config);
        let span = spans.enter("run");
        let began = Instant::now();
        model.run_until(Cycle::MAX);
        run_s.push(began.elapsed().as_secs_f64());
        spans.exit(span);
        let probe = model.probe();
        let first = *reference.get_or_insert(probe);
        let mut problems = Vec::new();
        if probe.transactions != expected {
            problems.push(format!(
                "direct tlm: completed {} of {expected} transactions",
                probe.transactions
            ));
        }
        if first != probe {
            problems.push(format!(
                "direct tlm: probe differs from the first run in {:?}",
                first.divergence(&probe)
            ));
        }
        outcome.op(problems);
    }
    let probe = reference.expect("ran directly");
    let best_s = stats::min(&run_s).expect("ran directly");
    outcome.set(
        "run.ns_per_txn",
        best_s * 1e9 / probe.transactions.max(1) as f64,
    );
    sim::set_sim_counters(&mut outcome, &probe);
    outcome.size = vec![
        (
            "transactions_per_master",
            workload.transactions_per_master as u64,
        ),
        ("masters", config.pattern.master_count() as u64),
        ("clients", concurrency() as u64),
        ("window_requests", workload.window as u64),
        ("windows", windows as u64),
    ];
    outcome.sim = vec![("tlm".to_owned(), probe)];
    if traced {
        layers::measure(
            &tlm,
            &config,
            std::slice::from_ref(&config.pattern),
            &probe,
            &mut outcome,
            spans,
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(trace_lines: usize, announced: usize) -> Vec<u8> {
        let mut text = String::from(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
        );
        for i in 0..trace_lines {
            text.push_str(&format!(
                "{{\"event\": \"trace\", \"kind\": \"span\", \"cycle\": {i}}}\n"
            ));
        }
        text.push_str(&format!(
            "{{\"event\": \"report\", \"scenario\": \"table2-speed\", \"model\": \"tlm\", \
             \"point_hash\": \"ab\", \"cycles\": 1234, \"transactions\": 4000, \"bytes\": 9, \
             \"wall_micros\": 3500, \"trace_events\": {announced}, \"profile\": {{\"p50\": 1.5}}}}\n"
        ));
        text.into_bytes()
    }

    #[test]
    fn a_complete_response_parses() {
        let served = parse_response(&response(3, 3)).unwrap();
        assert_eq!(
            served,
            Served {
                cycles: 1234,
                transactions: 4000,
                wall_micros: 3500
            }
        );
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let full = response(4, 4);
        for cut in 0..full.len() {
            assert!(
                parse_response(&full[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(parse_response(&response(2, 3))
            .unwrap_err()
            .contains("announces"));
        let mut not_ok = response(1, 1);
        not_ok[9..12].copy_from_slice(b"400");
        assert!(parse_response(&not_ok).unwrap_err().contains("status"));
        let mut doubled = response(0, 0);
        let report = doubled[doubled.iter().position(|&b| b == b'{').unwrap()..].to_vec();
        doubled.extend_from_slice(&report);
        assert!(parse_response(&doubled).is_err());
        let mut garbage = response(1, 1);
        garbage.extend_from_slice(b"not json\n");
        assert!(parse_response(&garbage).is_err());
        let bad_number = String::from_utf8(response(0, 0))
            .unwrap()
            .replace("\"transactions\": 4000", "\"transactions\": -4");
        assert!(parse_response(bad_number.as_bytes()).is_err());
        assert!(parse_response(&[0xff, 0xfe, b'\r', b'\n', b'\r', b'\n']).is_err());
        let invalid_utf8 = [b"HTTP/1.1 200 OK\r\n\r\n".as_slice(), &[0xff, b'\n']].concat();
        assert!(parse_response(&invalid_utf8).is_err());
    }
}
