//! Cross-crate integration tests for the campaign subsystem: kill/resume
//! semantics over the journal, content-hash dedupe through the result
//! cache, and the serving mode over a real loopback socket.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use ahbplus::{lookup, scenario};
use analysis::campaign::PointStatus;
use campaign::{Campaign, CampaignServer, CampaignSpec, Journal, JournalEvent, RunOptions};
use proptest::prelude::*;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ahbplus-campaign-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(name: &str) -> CampaignSpec {
    CampaignSpec::new(name)
        .with_scenario(scenario("table1-a").unwrap().with_transactions(8))
        .with_model(lookup("tlm").unwrap())
        .with_model(lookup("lt").unwrap())
        .with_seeds(vec![11, 12, 13])
}

/// Count how many `done` lines the journal holds per hash — the
/// exactly-once check a resumable sweep must satisfy.
fn done_counts(path: &std::path::Path) -> BTreeMap<String, usize> {
    let journal = Journal::load(path).expect("journal parses");
    let mut counts = BTreeMap::new();
    for event in &journal.events {
        if let JournalEvent::Done { hash, .. } = event {
            *counts.entry(hash.clone()).or_insert(0) += 1;
        }
    }
    counts
}

/// A kill mid-campaign truncates the journal at an arbitrary byte — the
/// resumed campaign must execute exactly the lost points, exactly once.
#[test]
fn truncated_journal_resumes_to_exactly_once_completion() {
    let dir = fresh_dir("kill-resume");
    let spec = small_spec("kill-resume");
    let campaign = Campaign::create(&dir, spec).unwrap();
    let total = campaign.spec().point_count();
    assert_eq!(total, 6);
    campaign.run(RunOptions::default()).unwrap();
    assert!(campaign.report().unwrap().is_complete());

    // Chop the journal mid-file: keep the header, the session line and
    // two complete `done` lines, plus half of the third — the byte-exact
    // signature of a SIGKILL during an append.
    let journal_path = campaign.journal_path();
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = &lines[..4];
    let partial = &lines[4][..lines[4].len() / 2];
    std::fs::write(&journal_path, format!("{}\n{partial}", keep.join("\n"))).unwrap();
    // Wipe the cache too, so the lost points must actually re-simulate
    // rather than being served back.
    std::fs::remove_dir_all(dir.join("cache")).unwrap();

    let resumed = Campaign::open(&dir).unwrap();
    assert_eq!(resumed.report().unwrap().pending(), 4);
    let summary = resumed
        .run(RunOptions {
            workers: 2,
            max_points: None,
        })
        .unwrap();
    assert_eq!(summary.executed, 4, "exactly the lost points re-ran");
    assert_eq!(summary.cached, 0);

    let record = resumed.report().unwrap();
    assert!(record.is_complete());
    let counts = done_counts(&journal_path);
    let expected: BTreeSet<String> = resumed
        .spec()
        .expand()
        .into_iter()
        .map(|p| p.hash)
        .collect();
    assert_eq!(counts.len(), expected.len());
    for (hash, count) in &counts {
        assert!(
            expected.contains(hash),
            "journal hash {hash} is a lattice point"
        );
        assert_eq!(*count, 1, "hash {hash} completed exactly once");
    }
    // A further resume finds nothing to do and the journal stays clean.
    let idle = resumed.run(RunOptions::default()).unwrap();
    assert_eq!(idle.executed + idle.cached, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cache outlives the journal: rebuilding the same campaign after
/// losing only the journal serves every point from the store.
#[test]
fn cache_survives_journal_loss_without_resimulation() {
    let dir = fresh_dir("cache-survives");
    let campaign = Campaign::create(&dir, small_spec("cache-survives")).unwrap();
    let first = campaign.run(RunOptions::default()).unwrap();
    assert_eq!(first.executed, 6);
    std::fs::remove_file(campaign.journal_path()).unwrap();
    let second = campaign.run(RunOptions::default()).unwrap();
    assert_eq!(
        second.executed, 0,
        "no point simulates twice with the cache intact"
    );
    assert_eq!(second.cached, 6);
    let record = campaign.report().unwrap();
    assert!(record
        .points
        .iter()
        .all(|p| p.status == PointStatus::Cached));
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Whatever the axis shapes — including duplicated entries — a
    /// campaign never simulates the same experiment twice: simulated
    /// points equal distinct content hashes, and a rerun simulates
    /// nothing.
    #[test]
    fn dedupe_simulates_each_distinct_hash_once(
        transactions in 3usize..7,
        seeds in proptest::collection::vec(1u64..4, 1..5),
        workers in 1usize..4,
        two_models in any::<bool>(),
    ) {
        let tag = format!(
            "prop-{transactions}-{workers}-{}-{}",
            seeds.iter().map(u64::to_string).collect::<Vec<_>>().join("_"),
            two_models,
        );
        let dir = fresh_dir(&tag);
        let mut spec = CampaignSpec::new(&tag)
            .with_scenario(scenario("table1-a").unwrap().with_transactions(transactions))
            .with_model(lookup("tlm").unwrap())
            .with_seeds(seeds);
        if two_models {
            spec = spec.with_model(lookup("lt").unwrap());
        }
        let distinct: BTreeSet<String> = spec.expand().into_iter().map(|p| p.hash).collect();
        let campaign = Campaign::create(&dir, spec).unwrap();
        let summary = campaign.run(RunOptions { workers, max_points: None }).unwrap();
        prop_assert_eq!(summary.executed, distinct.len());
        prop_assert_eq!(summary.cached, 0);
        let counts = done_counts(&campaign.journal_path());
        for count in counts.values() {
            prop_assert_eq!(*count, 1);
        }
        let again = campaign.run(RunOptions { workers, max_points: None }).unwrap();
        prop_assert_eq!(again.executed + again.cached, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn http_roundtrip(addr: &std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("server closes the connection");
    response
}

/// Serve-mode smoke over a real loopback socket: health, the model
/// registry, a streamed run with probes and the final report line, a run
/// of a registry scaling configuration, and an unknown model's 400.
#[test]
fn serve_mode_answers_over_loopback() {
    let server = CampaignServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(2, Some(6)));

    let health = http_roundtrip(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let models = http_roundtrip(&addr, "GET /models HTTP/1.1\r\nHost: x\r\n\r\n");
    let names: Vec<String> = ahbplus::MODELS
        .iter()
        .map(|spec| format!("\"{}\"", spec.id))
        .collect();
    assert!(
        models.ends_with(&format!("[{}]", names.join(","))),
        "{models}"
    );

    use ahbplus::Canonical;
    let spec = scenario("table1-a").unwrap().with_transactions(5);
    let post = |model: &str| {
        let body = format!(
            "{{\"scenario\": {}, \"model\": \"{model}\", \"stride\": 200}}",
            spec.to_canon().to_canonical_json()
        );
        http_roundtrip(
            &addr,
            &format!(
                "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    };
    let run = post("tlm");
    assert!(run.starts_with("HTTP/1.1 200"), "{run}");
    assert!(run.contains("application/x-ndjson"), "{run}");
    let report_line = run
        .lines()
        .find(|line| line.contains("\"event\": \"report\""))
        .expect("stream ends with a report line");
    assert!(report_line.contains(&format!(
        "\"point_hash\": \"{}\"",
        campaign::point_hash(&spec, lookup("tlm").unwrap())
    )));
    // Probe lines precede the report when a stride is requested.
    assert!(
        run.lines().any(|line| line.contains("\"cycle\": ")),
        "streamed probes expected: {run}"
    );

    // A scaling configuration runs by its registry name on its own
    // traffic: 4 buses of 4 masters, 5 transactions each.
    let sharded = post("sharded-tlm-la-4x4");
    assert!(sharded.starts_with("HTTP/1.1 200"), "{sharded}");
    assert!(
        sharded.contains("\"model\": \"sharded-tlm-la-4x4\""),
        "{sharded}"
    );
    assert!(sharded.contains("\"transactions\": 80,"), "{sharded}");
    let unknown = post("warp-drive");
    assert!(unknown.starts_with("HTTP/1.1 400"), "{unknown}");
    let registered = lookup("warp-drive").unwrap_err();
    assert!(unknown.contains(&registered), "{unknown}");

    let missing = http_roundtrip(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    handle.join().unwrap().expect("serve loop exits cleanly");
}

/// A hostile `POST /run` body nested ~100 KB deep is a clean 400, not a
/// stack overflow that takes the whole server down: the same server still
/// answers the next request.
#[test]
fn serve_mode_rejects_deeply_nested_bodies_and_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(1, Some(2)));

    let body = "[".repeat(100_000);
    let nested = http_roundtrip(
        &addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(nested.starts_with("HTTP/1.1 400"), "{nested}");
    assert!(nested.contains("nesting deeper than"), "{nested}");

    let health = http_roundtrip(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    handle.join().unwrap().expect("serve loop exits cleanly");
}

/// The observability surface of serve mode: a traced `/run` streams its
/// transaction-lifecycle events, and `GET /metrics` answers Prometheus
/// text whose run counters are live — a scrape taken while a scenario
/// executes sees the run in flight, not only its final totals.
#[test]
fn serve_mode_streams_traces_and_live_metrics() {
    use ahbplus::Canonical;
    let server = CampaignServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(2, Some(4)));

    // A small traced run: every lifecycle event comes back as an ndjson
    // line before the report, and the report counts them.
    let spec = scenario("table1-a").unwrap().with_transactions(5);
    let body = format!(
        "{{\"scenario\": {}, \"model\": \"tlm\", \"trace\": true}}",
        spec.to_canon().to_canonical_json()
    );
    let run = http_roundtrip(
        &addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(run.starts_with("HTTP/1.1 200"), "{run}");
    let trace_lines = run
        .lines()
        .filter(|line| line.contains("\"event\": \"trace\""))
        .count();
    assert!(trace_lines > 0, "traced run streams events: {run}");
    assert!(
        run.contains(&format!("\"trace_events\": {trace_lines}")),
        "report counts the streamed events: {run}"
    );

    // A longer pin-accurate run holds a handler busy; scrape /metrics
    // from the second handler once the first probe line proves the run
    // is executing.
    let slow = scenario("table1-a").unwrap().with_transactions(6_000);
    let body = format!(
        "{{\"scenario\": {}, \"model\": \"rtl\", \"stride\": 500}}",
        slow.to_canon().to_canonical_json()
    );
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    stream
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut partial = Vec::new();
    let mut chunk = [0u8; 4096];
    while !String::from_utf8_lossy(&partial).contains("\"cycle\": ") {
        let n = stream.read(&mut chunk).expect("probe stream stays open");
        assert!(n > 0, "stream ended before the first probe");
        partial.extend_from_slice(&chunk[..n]);
    }
    let metrics = http_roundtrip(&addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.contains("campaign_runs_active 1"), "{metrics}");
    assert!(
        !metrics.contains("campaign_simulated_cycles_total 0\n"),
        "cycles advance during the run: {metrics}"
    );
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("run completes");
    assert!(rest.contains("\"event\": \"report\""), "{rest}");

    let final_metrics = http_roundtrip(&addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(
        final_metrics.contains("campaign_runs_completed_total 2"),
        "{final_metrics}"
    );
    assert!(
        final_metrics.contains("campaign_runs_active 0"),
        "{final_metrics}"
    );
    assert!(
        !final_metrics.contains("campaign_trace_events_total 0\n"),
        "traced run counted its events: {final_metrics}"
    );

    handle.join().unwrap().expect("serve loop exits cleanly");
}

/// A traced `/run` large enough that its event lines span several 64 KiB
/// socket writes streams exactly the lines a direct run of the same
/// scenario and seed renders, each with the ndjson discriminator spliced
/// in front, and its report counts them.
#[test]
fn served_trace_lines_match_a_direct_run_across_write_chunks() {
    use ahbplus::Canonical;
    let server = CampaignServer::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(1, Some(1)));

    let spec = scenario("table2-speed").unwrap().with_transactions(300);
    let body = format!(
        "{{\"scenario\": {}, \"model\": \"tlm\", \"trace\": true}}",
        spec.to_canon().to_canonical_json()
    );
    let run = http_roundtrip(
        &addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    handle.join().unwrap().expect("serve loop exits cleanly");
    assert!(run.starts_with("HTTP/1.1 200"), "{run:.300}");
    let served: Vec<&str> = run
        .lines()
        .filter(|line| line.starts_with("{\"event\": \"trace\", "))
        .collect();

    let mut model = lookup("tlm")
        .unwrap()
        .build(&spec.resolve().expect("catalogue scenario resolves"));
    model.set_tracing(true);
    model.run();
    let direct = model.take_trace().expect("tlm traces").to_json_lines();
    let expected: Vec<String> = direct
        .lines()
        .map(|line| format!("{{\"event\": \"trace\", {}", &line[1..]))
        .collect();
    assert!(
        direct.len() > 3 * 64 * 1024,
        "the stream must cross several write chunks: {} bytes",
        direct.len()
    );
    assert_eq!(served.len(), expected.len());
    for (i, (served, expected)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(served, expected, "trace line {i}");
    }
    assert!(
        run.contains(&format!("\"trace_events\": {},", served.len())),
        "report counts the streamed events"
    );
}
