//! Design-space exploration with the transaction-level model (paper §3.7):
//! sweep the write-buffer depth and the arbitration configuration and watch
//! how completion time moves — driven by the campaign engine, so the
//! sweep is resumable and content-addressed.
//!
//! The sweep is a `CampaignSpec`: nine declarative `ScenarioSpec`
//! variants derived from the catalogued `design-space` baseline, crossed
//! with the transaction-level backend. Each lattice point is hashed over
//! its label-free canonical encoding, journaled when done, and its probe
//! timeline streamed to `timelines/<hash>.jsonl` — a long sweep holds
//! one point in memory per worker, not a snapshot vector per point.
//!
//! This is the use case transaction-level modeling exists for: each
//! configuration point takes milliseconds instead of the minutes a
//! pin-accurate run would need — and because results are content-hashed,
//! re-running the example (or renaming a sweep point) serves every
//! already-explored configuration from the cache instead of simulating.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p ahbplus-repro --example design_space
//! ```
//!
//! Run it a second time to see the journal make the re-run a no-op.

use ahbplus::{scenario, AhbPlusParams, ArbiterConfig, ArbitrationFilter, ScenarioSpec};
use campaign::{Campaign, CampaignSpec, RunOptions};

/// The sweep, one section per dimension explored.
fn sweep() -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    let base = scenario("design-space").expect("catalogued baseline");
    let depths = [0usize, 2, 4, 8]
        .into_iter()
        .map(|depth| {
            base.clone()
                .named(&format!("write buffer depth {depth}"))
                .with_params(AhbPlusParams::ahb_plus().with_write_buffer_depth(depth))
        })
        .collect();
    let ablations = vec![
        base.clone().named("full AHB+"),
        base.clone()
            .named("no request pipelining")
            .with_params(AhbPlusParams::ahb_plus().with_request_pipelining(false)),
        base.clone().named("no bank-affinity filter").with_params(
            AhbPlusParams::ahb_plus()
                .with_arbiter(ArbiterConfig::ahb_plus().without(ArbitrationFilter::BankAffinity)),
        ),
        base.clone().named("no QoS filters").with_params(
            AhbPlusParams::ahb_plus().with_arbiter(
                ArbiterConfig::ahb_plus()
                    .without(ArbitrationFilter::QosUrgency)
                    .without(ArbitrationFilter::RealTimeClass),
            ),
        ),
        base.named("plain AMBA 2.0 AHB")
            .with_params(AhbPlusParams::plain_ahb()),
    ];
    vec![
        ("-- write buffer depth sweep (all filters on) --", depths),
        ("-- arbitration / feature ablations --", ablations),
    ]
}

fn main() {
    let base = scenario("design-space").expect("catalogued baseline");
    println!(
        "write-heavy {}, {} transactions per master",
        base.resolve().expect("baseline resolves").pattern.name,
        base.transactions_per_master
    );

    // Every sweep point becomes a campaign scenario; the campaign engine
    // owns execution order, journaling, the result cache and the
    // streamed per-point timelines.
    let mut spec = CampaignSpec::new("design-space-example")
        .with_model(ahbplus::lookup("tlm").expect("registered"))
        .with_snapshot_stride(2_000);
    let sections = sweep();
    for (_, points) in &sections {
        for point in points {
            spec = spec.with_scenario(point.clone());
        }
    }

    let dir = std::env::temp_dir().join("design_space_campaign");
    let campaign = Campaign::create(&dir, spec).expect("campaign directory creates");
    let summary = campaign
        .run(RunOptions {
            workers: 2,
            max_points: None,
        })
        .expect("sweep completes");

    let record = campaign.report().expect("journal aggregates");
    for (section, points) in &sections {
        println!("\n{section}");
        for point in points {
            let row = record
                .points
                .iter()
                .find(|r| r.label.starts_with(&point.name))
                .expect("every sweep point is in the report");
            println!(
                "{:<34} [{}] total cycles {:>8}  {:>5} txns  {:>8} bytes  hash {}",
                point.name,
                row.status.id(),
                row.total_cycles,
                row.transactions,
                row.bytes,
                row.hash
            );
        }
    }

    let distinct: std::collections::BTreeSet<_> =
        record.points.iter().map(|r| r.hash.as_str()).collect();
    println!(
        "\n{} sweep points, {} distinct experiments (identical configurations \
         dedupe by content hash)",
        record.points.len(),
        distinct.len()
    );
    println!(
        "{} simulated, {} served from the result cache ({:.3}s wall)",
        summary.executed,
        summary.cached,
        summary.wall_micros as f64 / 1e6
    );
    println!(
        "campaign directory: {} (journal, cache, per-point timelines)",
        dir.display()
    );
    if summary.executed + summary.cached == 0 {
        println!(
            "journal already records every point — nothing to simulate \
             (delete the directory for a fresh sweep)."
        );
    } else if summary.cached > 0 {
        println!("cache hits: those configurations were already explored — no re-simulation.");
    } else {
        println!("run the example again: the journal makes the re-run a no-op.");
    }
}
