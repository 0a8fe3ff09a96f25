//! Integration tests of the multi-bus platform (`ahb-multi`): the
//! threaded scheduler's determinism against the single-threaded
//! reference, drop-in `BusModel` behaviour through the `ahbplus` facade,
//! and the bridge's functional-identity guarantee against the single-bus
//! backends.

use ahb_multi::{BridgeConfig, MultiConfig, MultiSystem, ShardBackendKind, Topology};
use ahbplus::{lookup, run_lockstep, PlatformConfig, Simulation};
use analysis::model::BusModel;
use analysis::report::ModelKind;
use proptest::prelude::*;
use simkern::time::CycleDelta;
use traffic::{pattern_shards, ShardMix, TrafficPattern};

fn build(
    backend: ShardBackendKind,
    shards: usize,
    masters: usize,
    mix: ShardMix,
    quantum: u64,
    seed: u64,
    threaded: bool,
) -> MultiSystem {
    let config = MultiConfig::new(backend)
        .with_quantum(quantum)
        .with_threaded(threaded);
    let patterns = pattern_shards(shards, masters, mix);
    MultiSystem::from_shard_patterns(&config, &patterns, 30, seed)
}

/// Builds the registry entry `name` on `config`.
fn registered(name: &str, config: &PlatformConfig) -> Box<dyn BusModel> {
    lookup(name).expect("registered model").build(config)
}

/// `mode` = (threaded, spin barrier, adaptive lookahead).
fn build_topology(
    topology: Topology,
    shards: usize,
    masters: usize,
    mix: ShardMix,
    quantum: u64,
    seed: u64,
    mode: (bool, bool, bool),
) -> MultiSystem {
    let config = MultiConfig::from_topology(topology)
        .with_quantum(quantum)
        .with_threaded(mode.0)
        .with_spin_sync(mode.1)
        .with_lookahead(mode.2);
    let patterns = pattern_shards(shards, masters, mix);
    MultiSystem::from_shard_patterns(&config, &patterns, 30, seed)
}

#[test]
fn threaded_and_single_threaded_runs_are_probe_identical_in_lockstep() {
    // The acceptance check of the conservative scheduler: drive the
    // threaded platform and the single-threaded reference in lockstep and
    // require bit-identical observable state at *every* horizon, not just
    // matching end-of-run results.
    for backend in [ShardBackendKind::Tlm, ShardBackendKind::Lt] {
        for mix in [
            ShardMix::LocalHeavy,
            ShardMix::BridgeHeavy,
            ShardMix::AllToAll,
        ] {
            let mut threaded = build(backend, 3, 4, mix, 96, 11, true);
            let mut single = build(backend, 3, 4, mix, 96, 11, false);
            let outcome = run_lockstep(&mut threaded, &mut single, CycleDelta::new(512));
            assert!(
                outcome.is_identical(),
                "{backend:?}/{mix:?}: {}",
                outcome.summary()
            );
            assert!(outcome.results_match);
            assert!(outcome.a.metrics_eq(&outcome.b));
        }
    }
}

#[test]
fn sharded_platform_completes_identical_work_to_the_single_bus_backends() {
    // The drop-in claim through the facade: on the same single-bus
    // workload, the 2-shard partitions complete exactly the work of every
    // single-bus backend (crossings included — pattern A's regions
    // interleave across the 2-way window map, so the bridge is exercised).
    let config = PlatformConfig::new(traffic::pattern_a(), 40, 13);
    let mut tlm = registered("tlm", &config);
    let mut sharded = registered("sharded-tlm", &config);
    let outcome = run_lockstep(tlm.as_mut(), sharded.as_mut(), CycleDelta::new(256));
    assert!(outcome.results_match, "{}", outcome.summary());
    assert_eq!(
        outcome.a.total_transactions(),
        outcome.b.total_transactions()
    );
    assert_eq!(outcome.a.total_bytes(), outcome.b.total_bytes());
    assert!(
        sharded.probe().bridge_crossings > 0,
        "the partition must exercise the bridge"
    );
}

#[test]
fn sharded_models_report_their_kind_and_names() {
    let config = PlatformConfig::new(traffic::pattern_a(), 10, 5);
    for (kind, name) in [
        (ModelKind::ShardedTlm, "sharded-tlm"),
        (ModelKind::ShardedTlmLa, "sharded-tlm-la"),
        (ModelKind::ShardedLt, "sharded-lt"),
        (ModelKind::ShardedHet, "sharded-het"),
        (ModelKind::ShardedTlmReads, "sharded-tlm-reads"),
        (ModelKind::ShardedSkew, "sharded-skew"),
    ] {
        let mut model = registered(name, &config);
        assert_eq!(model.kind(), kind);
        assert_eq!(model.model_name(), name);
        let report = model.run();
        assert_eq!(report.model, kind);
        assert_eq!(report.total_transactions(), 4 * 10);
    }
}

#[test]
fn heterogeneous_platform_completes_identical_work_to_the_flat_bus() {
    // The topology claim in miniature: 2×tlm + 2×lt shards behind the
    // same bridges complete exactly the work the flat cycle-counting bus
    // completes on the same pattern and seed.
    let config = PlatformConfig::new(traffic::pattern_a(), 40, 13);
    let mut tlm = registered("tlm", &config);
    let mut het = registered("sharded-het", &config);
    let outcome = run_lockstep(tlm.as_mut(), het.as_mut(), CycleDelta::new(256));
    assert!(outcome.results_match, "{}", outcome.summary());
    assert_eq!(
        outcome.a.total_transactions(),
        outcome.b.total_transactions()
    );
    assert_eq!(outcome.a.total_bytes(), outcome.b.total_bytes());
}

#[test]
fn non_posted_reads_retire_every_stalled_master() {
    // Same patterns, posted vs non-posted reads: identical functional
    // results, but the non-posted platform carries response traffic —
    // strictly more link crossings (each remote read crosses twice).
    let patterns = pattern_shards(2, 4, ShardMix::ReadHeavy);
    let posted_config = MultiConfig::new(ShardBackendKind::Tlm);
    let reads_config = MultiConfig::from_topology(
        Topology::heterogeneous(vec![ShardBackendKind::Tlm; 2]).with_posted_reads(false),
    );
    let mut posted = MultiSystem::from_shard_patterns(&posted_config, &patterns, 40, 9);
    let mut reads = MultiSystem::from_shard_patterns(&reads_config, &patterns, 40, 9);
    let posted_report = posted.run();
    let reads_report = reads.run();
    assert!(BusModel::finished(&reads), "every stalled master resumes");
    assert_eq!(
        posted_report.total_transactions(),
        reads_report.total_transactions()
    );
    assert_eq!(posted_report.total_bytes(), reads_report.total_bytes());
    assert_eq!(posted.probe().data_beats, reads.probe().data_beats);
    assert!(
        reads.crossings() > posted.crossings(),
        "response legs must add crossings: {} vs {}",
        reads.crossings(),
        posted.crossings()
    );
    // A stalled read pays the round trip: the read-heavy masters' latency
    // must reflect at least one crossing latency each way.
    assert!(
        reads.probe().cycle > posted.probe().cycle,
        "stalling reads lengthen the synchronized span"
    );
}

#[test]
fn skewed_window_map_reroutes_ownership() {
    // Under the skewed map shard 1 owns only every fourth window, so the
    // same round-robin master partition produces a different crossing mix
    // than the interleave — while completing identical work.
    let config = PlatformConfig::new(traffic::pattern_a(), 40, 13);
    let mut flat = registered("tlm", &config);
    let mut skew = registered("sharded-skew", &config);
    let outcome = run_lockstep(flat.as_mut(), skew.as_mut(), CycleDelta::new(256));
    assert!(outcome.results_match, "{}", outcome.summary());
    let mut interleaved = registered("sharded-tlm", &config);
    interleaved.run();
    assert_ne!(
        skew.probe().bridge_crossings,
        interleaved.probe().bridge_crossings,
        "a skewed owner table must change the crossing pattern"
    );
}

#[test]
fn uniform_topology_matches_the_legacy_shorthand() {
    // `MultiConfig::new(backend)` is sugar for the uniform topology; the
    // two construction paths must be probe-identical.
    for backend in [ShardBackendKind::Tlm, ShardBackendKind::Lt] {
        let patterns = pattern_shards(2, 4, ShardMix::BridgeHeavy);
        let legacy = MultiConfig::new(backend);
        let topo = MultiConfig::from_topology(Topology::uniform(backend));
        let mut a = MultiSystem::from_shard_patterns(&legacy, &patterns, 40, 9);
        let mut b = MultiSystem::from_shard_patterns(&topo, &patterns, 40, 9);
        a.run();
        b.run();
        assert_eq!(a.probe(), b.probe(), "{backend:?}");
        assert_eq!(a.shard_probes(), b.shard_probes());
    }
}

#[test]
fn asymmetric_links_bound_the_quantum_by_the_fastest_link() {
    let fast = BridgeConfig {
        crossing_latency: 24,
        ..BridgeConfig::ahb_plus()
    };
    let topology = Topology::uniform(ShardBackendKind::Tlm).with_link(1, 0, fast);
    let config = MultiConfig::from_topology(topology);
    let patterns = pattern_shards(2, 4, ShardMix::BridgeHeavy);
    let mut single = MultiSystem::from_shard_patterns(&config, &patterns, 30, 7);
    let mut threaded =
        MultiSystem::from_shard_patterns(&config.clone().with_threaded(true), &patterns, 30, 7);
    assert_eq!(single.quantum(), 24, "quantum follows the fastest link");
    let a = single.run();
    let b = threaded.run();
    assert!(a.metrics_eq(&b), "asymmetric links stay deterministic");
    assert_eq!(single.probe(), threaded.probe());
}

#[test]
fn simulation_snapshots_stream_the_sharded_platform() {
    let config = MultiConfig::new(ShardBackendKind::Lt);
    let patterns = pattern_shards(2, 4, ShardMix::BridgeHeavy);
    let system = MultiSystem::from_shard_patterns(&config, &patterns, 40, 3);
    let mut sim = Simulation::new(system);
    let report = sim.run_with_snapshots(CycleDelta::new(2_000));
    assert!(!sim.snapshots().is_empty());
    for pair in sim.snapshots().windows(2) {
        assert!(pair[0].transactions <= pair[1].transactions);
        assert!(pair[0].bridge_crossings <= pair[1].bridge_crossings);
    }
    let last = sim.snapshots().last().unwrap();
    assert_eq!(last.transactions, report.total_transactions());
}

#[test]
fn tight_fifo_bounds_the_bridge_occupancy() {
    let bridge = BridgeConfig {
        crossing_latency: 200,
        fifo_depth: 2,
        forward_interval: 1,
        slave_cycles: 1,
    };
    let config = MultiConfig::new(ShardBackendKind::Lt).with_bridge(bridge);
    let patterns = pattern_shards(2, 8, ShardMix::BridgeHeavy);
    let mut system = MultiSystem::from_shard_patterns(&config, &patterns, 60, 5);
    system.run();
    let probe = system.probe();
    assert!(probe.bridge_crossings > 0);
    assert!(
        probe.bridge_fifo_peak <= 2,
        "FIFO occupancy {} exceeded the depth",
        probe.bridge_fifo_peak
    );
}

/// The union of the per-shard patterns, for single-bus reference runs.
fn union(patterns: &[TrafficPattern]) -> TrafficPattern {
    TrafficPattern {
        name: patterns[0].name,
        masters: patterns.iter().flat_map(|p| p.masters.clone()).collect(),
    }
}

#[test]
fn sharded_and_flat_platforms_complete_the_same_workload() {
    let patterns = pattern_shards(4, 4, ShardMix::LocalHeavy);
    let flat = PlatformConfig::new(union(&patterns), 25, 17);
    let flat_report = flat.build_tlm().run();
    let config = MultiConfig::new(ShardBackendKind::Tlm);
    let mut sharded = MultiSystem::from_shard_patterns(&config, &patterns, 25, 17);
    let sharded_report = sharded.run();
    assert_eq!(
        flat_report.total_transactions(),
        sharded_report.total_transactions()
    );
    assert_eq!(flat_report.total_bytes(), sharded_report.total_bytes());
    // Sixteen masters over four buses drain in fewer synchronized cycles
    // than over one saturated bus.
    let synchronized = sharded.probe().cycle;
    assert!(
        synchronized < flat_report.total_cycles,
        "sharding must shorten the span: {synchronized} vs {}",
        flat_report.total_cycles
    );
}

#[test]
fn sharded_tlm_outruns_the_flat_single_bus_on_a_bridge_light_workload() {
    // The scaling claim: the same 16-master bridge-light workload, once
    // on one saturated bus and once over four shards. The sharded
    // platform simulates more aggregate bus-cycles per second even
    // single-threaded (four small fast buses instead of one large slow
    // one); threading widens the gap on multi-core hosts. Measured
    // best-of-N against best-of-N to keep scheduler noise out of the
    // comparison.
    let patterns = pattern_shards(4, 4, ShardMix::LocalHeavy);
    let flat_config = PlatformConfig::new(union(&patterns), 400, 2005);
    let best = |run: &mut dyn FnMut() -> f64| (0..3).map(|_| run()).fold(0.0f64, f64::max);
    let flat = best(&mut || flat_config.build_tlm().run().kcycles_per_second());
    let multi_config = MultiConfig::new(ShardBackendKind::Tlm);
    let sharded = best(&mut || {
        MultiSystem::from_shard_patterns(&multi_config, &patterns, 400, 2005)
            .run()
            .kcycles_per_second()
    });
    assert!(
        sharded > flat,
        "sharded TLM must beat the flat bus in aggregate Kcycles/s: {sharded:.0} vs {flat:.0}"
    );
}

#[test]
fn lookahead_stretches_quiet_barriers_without_changing_results() {
    // The tentpole claim end to end: on a bridge-light workload the
    // adaptive lookahead must take strictly fewer barriers than the
    // fixed-quantum schedule (stretching through provably quiet spans)
    // while staying probe-identical shard by shard.
    let patterns = pattern_shards(4, 4, ShardMix::LocalHeavy);
    let fixed_config = MultiConfig::new(ShardBackendKind::Tlm);
    let la_config = MultiConfig::new(ShardBackendKind::Tlm).with_lookahead(true);
    let mut fixed = MultiSystem::from_shard_patterns(&fixed_config, &patterns, 40, 17);
    let mut la = MultiSystem::from_shard_patterns(&la_config, &patterns, 40, 17);
    assert_eq!(fixed.model_name(), "sharded-tlm");
    assert_eq!(la.model_name(), "sharded-tlm-la");
    assert_eq!(BusModel::kind(&la), ModelKind::ShardedTlmLa);
    fixed.run();
    la.run();
    assert_eq!(fixed.probe(), la.probe());
    assert_eq!(fixed.shard_probes(), la.shard_probes());
    let fixed_stats = BusModel::sync_stats(&fixed).expect("sharded platforms report sync stats");
    let la_stats = BusModel::sync_stats(&la).expect("sharded platforms report sync stats");
    assert_eq!(fixed_stats.stretched, 0, "fixed mode never stretches");
    assert_eq!(fixed_stats.cycles_gained, 0);
    assert!(
        la_stats.stretched > 0,
        "a bridge-light workload must offer stretchable barriers"
    );
    assert!(la_stats.cycles_gained > 0);
    assert!(
        la_stats.barriers < fixed_stats.barriers,
        "lookahead must remove barriers: {} vs {}",
        la_stats.barriers,
        fixed_stats.barriers
    );
    assert!(la_stats.mean_quantum > fixed_stats.mean_quantum);
    assert_eq!(la_stats.barriers, la.barriers_taken());
    assert_eq!(la_stats.stretched, la.barriers_stretched());
    assert_eq!(la_stats.cycles_gained, la.lookahead_cycles_gained());
}

#[test]
fn per_shard_overrides_slow_the_cold_shard_without_changing_results() {
    // Satellite check of the per-shard parameter overrides: a 2×tlm+2×lt
    // platform whose "cold" transaction-level shard 1 runs a
    // prepare-hint-less DDR (and plain-AHB bus parameters) completes
    // identical work, threaded and single-threaded lockstep-identical —
    // but the override must be visible in the shard's DRAM statistics.
    let backends = vec![
        ShardBackendKind::Tlm,
        ShardBackendKind::Tlm,
        ShardBackendKind::Lt,
        ShardBackendKind::Lt,
    ];
    let topology = Topology::heterogeneous(backends)
        .with_shard_ddr(1, ddrc::DdrConfig::without_interleaving())
        .with_shard_params(1, amba::params::AhbPlusParams::plain_ahb());
    let patterns = pattern_shards(4, 4, ShardMix::LocalHeavy);
    let config = MultiConfig::from_topology(topology);
    let mut uniform = MultiSystem::from_shard_patterns(
        &MultiConfig::from_topology(Topology::heterogeneous(vec![
            ShardBackendKind::Tlm,
            ShardBackendKind::Tlm,
            ShardBackendKind::Lt,
            ShardBackendKind::Lt,
        ])),
        &patterns,
        40,
        17,
    );
    let mut single = MultiSystem::from_shard_patterns(&config, &patterns, 40, 17);
    let mut threaded =
        MultiSystem::from_shard_patterns(&config.clone().with_threaded(true), &patterns, 40, 17);
    let outcome = run_lockstep(&mut threaded, &mut single, CycleDelta::new(512));
    assert!(outcome.is_identical(), "{}", outcome.summary());
    let uniform_report = uniform.run();
    let single_report = single.report();
    assert_eq!(
        uniform_report.total_transactions(),
        single_report.total_transactions(),
        "overrides change timing, never results"
    );
    assert_eq!(uniform_report.total_bytes(), single_report.total_bytes());
    // The cold shard's controller ignores prepare hints, so the platform
    // loses the prepared-hit population the uniform platform enjoys.
    assert!(
        single.probe().dram_prepared_hits < uniform.probe().dram_prepared_hits,
        "the DDR override must be live on shard 3: {} vs {}",
        single.probe().dram_prepared_hits,
        uniform.probe().dram_prepared_hits
    );
}

proptest! {
    /// The determinism guarantee of the threaded scheduler: across shard
    /// counts, quanta, seeds, backends and traffic mixes, the threaded
    /// platform and the single-threaded reference produce byte-identical
    /// reports and probes.
    #[test]
    fn threaded_scheduler_is_deterministic(
        shards in 1usize..5,
        quantum in prop_oneof![Just(1u64), Just(13u64), Just(64u64), Just(96u64)],
        seed in 0u64..1_000,
        backend_is_tlm in any::<bool>(),
        mix_selector in 0usize..3,
    ) {
        let backend = if backend_is_tlm { ShardBackendKind::Tlm } else { ShardBackendKind::Lt };
        let mix = [ShardMix::LocalHeavy, ShardMix::BridgeHeavy, ShardMix::AllToAll][mix_selector];
        let mut threaded = build(backend, shards, 3, mix, quantum, seed, true);
        let mut single = build(backend, shards, 3, mix, quantum, seed, false);
        let threaded_report = threaded.run();
        let single_report = single.run();
        prop_assert!(threaded_report.metrics_eq(&single_report),
            "threaded run diverged (shards {}, quantum {}, seed {})", shards, quantum, seed);
        prop_assert_eq!(threaded.probe(), single.probe());
        prop_assert_eq!(threaded.shard_probes(), single.shard_probes());
    }

    /// The same guarantee over the *topology* axes: heterogeneous shard
    /// mixes, non-uniform window maps, non-posted read crossings, the
    /// spin barrier and the adaptive-lookahead scheduler all run the
    /// identical exchange schedule — the threaded platform (spinning or
    /// blocking) stays byte-identical to the single-threaded reference,
    /// and a lookahead run stays probe-identical to the fixed-quantum
    /// run it accelerates.
    #[test]
    fn threaded_topologies_are_deterministic(
        shards in 2usize..5,
        quantum in prop_oneof![Just(1u64), Just(17u64), Just(96u64)],
        seed in 0u64..1_000,
        spin in any::<bool>(),
        posted_reads in any::<bool>(),
        het in any::<bool>(),
        lookahead in any::<bool>(),
        mix_selector in 0usize..4,
    ) {
        let mix = [
            ShardMix::LocalHeavy,
            ShardMix::BridgeHeavy,
            ShardMix::AllToAll,
            ShardMix::ReadHeavy,
        ][mix_selector];
        let backends: Vec<ShardBackendKind> = (0..shards)
            .map(|shard| {
                if het && shard % 2 == 1 { ShardBackendKind::Lt } else { ShardBackendKind::Tlm }
            })
            .collect();
        let topology = Topology::heterogeneous(backends).with_posted_reads(posted_reads);
        let mut threaded = build_topology(
            topology.clone(), shards, 3, mix, quantum, seed, (true, spin, lookahead));
        let mut single = build_topology(
            topology.clone(), shards, 3, mix, quantum, seed, (false, spin, lookahead));
        let threaded_report = threaded.run();
        let single_report = single.run();
        prop_assert!(threaded_report.metrics_eq(&single_report),
            "topology run diverged (shards {}, quantum {}, seed {}, spin {}, posted_reads {}, \
             lookahead {})",
            shards, quantum, seed, spin, posted_reads, lookahead);
        prop_assert_eq!(threaded.probe(), single.probe());
        prop_assert_eq!(threaded.shard_probes(), single.shard_probes());
        if lookahead {
            // The lookahead schedule must be a pure acceleration of the
            // fixed schedule: every observable except the model label
            // (uniform-TLM platforms report themselves as
            // `sharded-tlm-la`) and the wall clock is unchanged.
            let mut fixed = build_topology(
                topology, shards, 3, mix, quantum, seed, (false, spin, false));
            let fixed_report = fixed.run();
            prop_assert_eq!(single.probe(), fixed.probe(),
                "lookahead diverged from fixed (shards {}, quantum {}, seed {})",
                shards, quantum, seed);
            prop_assert_eq!(single.shard_probes(), fixed.shard_probes());
            prop_assert_eq!(single_report.total_cycles, fixed_report.total_cycles);
            prop_assert_eq!(&single_report.masters, &fixed_report.masters);
            prop_assert_eq!(&single_report.bus, &fixed_report.bus);
        }
    }
}
