//! The traffic pattern catalogue used to regenerate Table 1.
//!
//! The paper simulates "a target system by changing the traffic patterns of
//! the masters" and reports one block of Table 1 per pattern. The original
//! patterns came from a Samsung DVD-player platform and are not public, so
//! three representative mixes over the same four masters are defined here:
//!
//! * **Pattern A — balanced multimedia**: one CPU, one streaming DMA, one
//!   real-time video reader, one block writer, all at their default rates.
//! * **Pattern B — streaming heavy**: two DMA-style streams plus the video
//!   master; the bus is dominated by long sequential read bursts.
//! * **Pattern C — write heavy**: the block writer and a write-mostly CPU
//!   dominate, exercising the AHB+ write buffer.
//!
//! Each pattern is a list of `(MasterId, MasterProfile)` pairs plus a label;
//! the platform layer turns it into workloads with a common seed.
//!
//! Beyond the Table-1 catalogue, two stress patterns that used to be
//! re-built by hand in every example and test are first-class here: the
//! QoS starvation stress ([`pattern_qos_stress`]) and the dual-stream bank
//! interleaving workload ([`pattern_dual_stream`]). All named patterns are
//! reachable through the string-keyed [`pattern_registry`] /
//! [`pattern_by_name`], which is what declarative scenario descriptions
//! resolve against.

use amba::bridge::{BridgePort, ShardPort};
use amba::ids::{Addr, MasterId};

use crate::profile::{MasterProfile, ReleasePolicy};

/// A named set of master profiles forming one Table-1 traffic pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficPattern {
    /// Short name used in report tables ("pattern A", ...).
    pub name: &'static str,
    /// The participating masters and their profiles.
    pub masters: Vec<(MasterId, MasterProfile)>,
}

impl TrafficPattern {
    /// Number of masters in the pattern.
    #[must_use]
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// The profiles without their ids.
    #[must_use]
    pub fn profiles(&self) -> Vec<MasterProfile> {
        self.masters.iter().map(|(_, p)| p.clone()).collect()
    }

    /// Expands the pattern into the per-master build tuples every backend
    /// consumes: the deterministic trace (`(id, profile, seed)` fully
    /// determines it), the report label, the QoS register programming and
    /// the write-posting capability. This is the *single* expansion used
    /// by all backends' `from_pattern` constructors, which is what makes
    /// "same pattern, same seed → same stimulus on every abstraction
    /// level" true by construction.
    #[must_use]
    pub fn expand(
        &self,
        transactions_per_master: usize,
        seed: u64,
    ) -> Vec<(
        crate::trace::TrafficTrace,
        String,
        amba::qos::QosConfig,
        bool,
    )> {
        self.masters
            .iter()
            .map(|(id, profile)| {
                let trace = crate::trace::Workload::new(*id, profile.clone(), seed)
                    .generate(transactions_per_master);
                (
                    trace,
                    profile.kind.label().to_owned(),
                    profile.qos_config(),
                    profile.posted_writes,
                )
            })
            .collect()
    }

    /// All three Table-1 patterns.
    #[must_use]
    pub fn table1_catalogue() -> Vec<TrafficPattern> {
        vec![pattern_a(), pattern_b(), pattern_c()]
    }
}

/// Attaches the bridge endpoint of one multi-bus shard to the build
/// tuples of its masters (as [`TrafficPattern::expand`] produces them):
/// every trace contributes its
/// [`crossing_transforms`](crate::trace::TrafficTrace::crossing_transforms)
/// table, and the bridge replay master is appended as the last port — an
/// empty trace the backend extends at runtime. Replays are never posted
/// (the write buffer belongs to the shard's own masters) and arbitrate as
/// a plain non-real-time requester.
///
/// # Panics
///
/// Panics when the bridge master id collides with a trace master.
pub fn attach_bridge(
    masters: &mut Vec<(
        crate::trace::TrafficTrace,
        String,
        amba::qos::QosConfig,
        bool,
    )>,
    port: BridgePort,
) -> ShardPort {
    assert!(
        masters
            .iter()
            .all(|(trace, ..)| trace.master() != port.master),
        "bridge master id {} collides with another master",
        port.master
    );
    let remote_ahead = masters
        .iter()
        .map(|(trace, ..)| trace.crossing_transforms(|addr| port.is_remote(addr)))
        .collect();
    masters.push((
        crate::trace::TrafficTrace::empty(port.master),
        "bridge".to_owned(),
        amba::qos::QosConfig::non_real_time(u8::MAX - 1),
        false,
    ));
    ShardPort::new(port, masters.len() - 1, remote_ahead)
}

/// A registered pattern constructor.
pub type PatternConstructor = fn() -> TrafficPattern;

/// The registry of named traffic patterns: `(key, constructor)` pairs.
///
/// Scenario descriptions reference patterns by these keys, so adding a
/// pattern here makes it available to every spec-driven example, sweep and
/// test without further wiring.
#[must_use]
pub fn pattern_registry() -> Vec<(&'static str, PatternConstructor)> {
    vec![
        ("a", pattern_a as PatternConstructor),
        ("b", pattern_b),
        ("c", pattern_c),
        ("qos-stress", pattern_qos_stress),
        ("dual-stream", pattern_dual_stream),
        ("many-32", pattern_many_32),
        ("many-64", pattern_many_64),
        ("shards-read", pattern_shards_read_union),
    ]
}

/// Resolves a registry key to its pattern, or `None` for unknown keys.
#[must_use]
pub fn pattern_by_name(name: &str) -> Option<TrafficPattern> {
    pattern_registry()
        .into_iter()
        .find(|(key, _)| *key == name)
        .map(|(_, build)| build())
}

/// Pattern A — balanced multimedia platform load.
#[must_use]
pub fn pattern_a() -> TrafficPattern {
    TrafficPattern {
        name: "pattern A (balanced)",
        masters: vec![
            (MasterId::new(0), MasterProfile::cpu()),
            (MasterId::new(1), MasterProfile::video_realtime()),
            (MasterId::new(2), MasterProfile::dma_stream()),
            (MasterId::new(3), MasterProfile::block_writer()),
        ],
    }
}

/// Pattern B — streaming heavy: two DMA streams saturate the bus.
#[must_use]
pub fn pattern_b() -> TrafficPattern {
    let second_stream = MasterProfile::dma_stream()
        .with_region(Addr::new(0x2400_0000), 0x0100_0000)
        .with_read_permille(300);
    TrafficPattern {
        name: "pattern B (streaming heavy)",
        masters: vec![
            (
                MasterId::new(0),
                MasterProfile::cpu().with_release(ReleasePolicy::ClosedLoop {
                    min_gap: 20,
                    max_gap: 120,
                }),
            ),
            (MasterId::new(1), MasterProfile::video_realtime()),
            (MasterId::new(2), MasterProfile::dma_stream()),
            (MasterId::new(3), second_stream),
        ],
    }
}

/// Pattern C — write heavy: the write buffer is the critical resource.
#[must_use]
pub fn pattern_c() -> TrafficPattern {
    let busy_writer = MasterProfile::block_writer().with_release(ReleasePolicy::ClosedLoop {
        min_gap: 0,
        max_gap: 12,
    });
    let write_mostly_cpu = MasterProfile::cpu().with_read_permille(250);
    TrafficPattern {
        name: "pattern C (write heavy)",
        masters: vec![
            (MasterId::new(0), write_mostly_cpu),
            (MasterId::new(1), MasterProfile::video_realtime()),
            (
                MasterId::new(2),
                MasterProfile::dma_stream().with_read_permille(200),
            ),
            (MasterId::new(3), busy_writer),
        ],
    }
}

/// QoS starvation stress (paper §2): the real-time video master is demoted
/// to the *worst* fixed priority while two back-to-back DMA streams and a
/// busy block writer hammer the bus — only the QoS filter chain can keep
/// the video master inside its latency objective.
#[must_use]
pub fn pattern_qos_stress() -> TrafficPattern {
    let mut video = MasterProfile::video_realtime();
    video.fixed_priority = 7; // worst priority: only the QoS filters can save it
    let aggressive_dma = MasterProfile::dma_stream().with_release(ReleasePolicy::ClosedLoop {
        min_gap: 0,
        max_gap: 2,
    });
    let second_dma = aggressive_dma
        .clone()
        .with_region(Addr::new(0x2400_0000), 0x0100_0000);
    let busy_writer = MasterProfile::block_writer().with_release(ReleasePolicy::ClosedLoop {
        min_gap: 0,
        max_gap: 8,
    });
    TrafficPattern {
        name: "qos stress",
        masters: vec![
            (MasterId::new(0), aggressive_dma),
            (MasterId::new(1), video),
            (MasterId::new(2), second_dma),
            (MasterId::new(3), busy_writer),
        ],
    }
}

/// Dual-stream interleaving workload (paper §2): two DMA streams working
/// in different DRAM banks — the ideal candidate for the Bus Interface's
/// next-transaction bank preparation.
#[must_use]
pub fn pattern_dual_stream() -> TrafficPattern {
    TrafficPattern {
        name: "dual stream",
        masters: vec![
            (MasterId::new(0), MasterProfile::dma_stream()),
            (
                MasterId::new(1),
                MasterProfile::dma_stream().with_region(Addr::new(0x2400_0000), 0x0100_0000),
            ),
            (MasterId::new(2), MasterProfile::video_realtime()),
            (MasterId::new(3), MasterProfile::block_writer()),
        ],
    }
}

/// A scaled many-master pattern: `count` masters cycling through the four
/// base profiles (CPU, real-time video, streaming DMA, block writer), each
/// targeting its own address region so the workload spreads over the DRAM
/// banks.
///
/// Master identifier 15 is skipped — it is reserved for the AHB+ write
/// buffer, which competes for the bus as a master of its own — so the
/// identifier space stays collision-free at any scale.
///
/// # Panics
///
/// Panics when `count` is zero or would exhaust the 8-bit master
/// identifier space (more than 254 masters).
#[must_use]
pub fn pattern_many(count: usize) -> TrafficPattern {
    assert!(count >= 1, "a pattern needs at least one master");
    assert!(count <= 254, "master identifier space is 8-bit");
    let base_profiles = [
        MasterProfile::cpu(),
        MasterProfile::video_realtime(),
        MasterProfile::dma_stream(),
        MasterProfile::block_writer(),
    ];
    let masters = (0..count)
        .map(|index| {
            // Reserve id 15 for the write buffer.
            let id = if index < 15 { index } else { index + 1 };
            let profile = base_profiles[index % base_profiles.len()]
                .clone()
                .with_region(
                    Addr::new(0x2000_0000 + (index as u32) * 0x0008_0000),
                    0x0008_0000,
                );
            (MasterId::new(id as u8), profile)
        })
        .collect();
    TrafficPattern {
        name: "many-master scaling",
        masters,
    }
}

/// Log2 of the shard-window size multi-bus patterns are laid out for.
///
/// [`pattern_shards`] places every master region inside a
/// `1 << SHARD_WINDOW_SHIFT`-byte window whose interleaved owner (window
/// index modulo shard count — `amba::bridge::WindowMap::interleaved` with
/// this shift) is the shard the master's traffic targets, so the
/// local/remote mix of a sharded pattern is decided here and decoded
/// identically by the platform.
pub const SHARD_WINDOW_SHIFT: u32 = 24;

/// The cross-bus traffic mixes of the multi-bus patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMix {
    /// Almost all traffic stays on the local shard: only each shard's
    /// block writer posts into the next shard's window (the bridge-light
    /// scaling workload).
    LocalHeavy,
    /// Most traffic crosses the bridge: everything but the real-time
    /// video master targets the next shard's window.
    BridgeHeavy,
    /// Non-real-time masters spread their remote traffic over *all* other
    /// shards instead of just the neighbour.
    AllToAll,
    /// Like [`ShardMix::BridgeHeavy`], but the crossing masters are
    /// read-mostly: most cross-shard traffic is reads, which exercises
    /// the response leg of non-posted read bridges (every crossing read
    /// stalls its master until the reply returns).
    ReadHeavy,
}

/// Builds one traffic pattern per shard of a multi-bus platform: each
/// shard gets `masters_per_shard` masters cycling through the four base
/// profiles, with globally unique master identifiers and each region
/// placed in a shard window chosen by `mix` (local window, next shard's
/// window, or spread over all remote shards).
///
/// Master identifier 15 is skipped (reserved for the AHB+ write buffer)
/// and identifiers from 240 up are left free for the per-shard bridge
/// masters.
///
/// # Panics
///
/// Panics when `shards` or `masters_per_shard` is zero, when the master
/// identifiers would collide with the reserved ranges, or when the window
/// layout would overflow the 32-bit address space
/// (`shards * masters_per_shard * shards` must stay within 256 windows).
#[must_use]
pub fn pattern_shards(
    shards: usize,
    masters_per_shard: usize,
    mix: ShardMix,
) -> Vec<TrafficPattern> {
    assert!(shards >= 1, "a platform needs at least one shard");
    assert!(masters_per_shard >= 1, "a shard needs at least one master");
    let total = shards * masters_per_shard;
    assert!(total <= 200, "master identifier space exhausted");
    assert!(
        total * shards <= 256,
        "window layout exceeds the 32-bit address space"
    );
    let base_profiles = [
        MasterProfile::cpu(),
        MasterProfile::video_realtime(),
        MasterProfile::dma_stream(),
        MasterProfile::block_writer(),
    ];
    let name = match mix {
        ShardMix::LocalHeavy => "sharded local-heavy",
        ShardMix::BridgeHeavy => "sharded bridge-heavy",
        ShardMix::AllToAll => "sharded all-to-all",
        ShardMix::ReadHeavy => "sharded read-heavy",
    };
    (0..shards)
        .map(|shard| {
            let masters = (0..masters_per_shard)
                .map(|local| {
                    let global = shard * masters_per_shard + local;
                    // Reserve id 15 for the write buffer.
                    let id = if global < 15 { global } else { global + 1 };
                    let role = local % base_profiles.len();
                    let target = shard_target(mix, shards, shard, role, global);
                    // Window index `global * shards + target` is unique per
                    // master and owned by `target` under the interleaved
                    // shard map (index % shards == target).
                    let window = (global * shards + target) as u32;
                    let base = Addr::new(window << SHARD_WINDOW_SHIFT);
                    let mut profile = base_profiles[role].clone().with_region(base, 0x0010_0000);
                    // The read-heavy mix turns every crossing master
                    // read-mostly, so cross-shard traffic is dominated by
                    // reads (the stalling kind under non-posted bridges).
                    if mix == ShardMix::ReadHeavy && target != shard {
                        profile = profile.with_read_permille(900);
                    }
                    (MasterId::new(id as u8), profile)
                })
                .collect();
            TrafficPattern { name, masters }
        })
        .collect()
}

/// The union of [`pattern_shards`] as one flat pattern: the same masters,
/// ids and window-aligned regions, usable on a single-bus platform (or
/// re-partitioned by the sharded builders). This is how the sharded
/// workloads enter the scenario catalogue, where every backend — flat and
/// sharded alike — must complete identical work on them.
#[must_use]
pub fn pattern_shards_union(
    shards: usize,
    masters_per_shard: usize,
    mix: ShardMix,
) -> TrafficPattern {
    let parts = pattern_shards(shards, masters_per_shard, mix);
    TrafficPattern {
        name: parts[0].name,
        masters: parts.into_iter().flat_map(|p| p.masters).collect(),
    }
}

/// [`pattern_shards_union`] of the 2×4 read-heavy mix (registry key
/// `shards-read`): eight masters whose cross-window traffic is
/// read-dominated — the catalogue workload for non-posted read bridges.
#[must_use]
pub fn pattern_shards_read_union() -> TrafficPattern {
    pattern_shards_union(2, 4, ShardMix::ReadHeavy)
}

/// The shard a master's traffic targets under the given mix.
fn shard_target(mix: ShardMix, shards: usize, shard: usize, role: usize, global: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    // Role 1 is the real-time video master: it always stays local (its
    // QoS objective is meaningless across a posted bridge), as does
    // everything else the mix keeps at home.
    let remote = match mix {
        ShardMix::LocalHeavy => role == 3,
        ShardMix::BridgeHeavy | ShardMix::AllToAll | ShardMix::ReadHeavy => role != 1,
    };
    if !remote {
        return shard;
    }
    match mix {
        ShardMix::AllToAll => (shard + 1 + global % (shards - 1)) % shards,
        _ => (shard + 1) % shards,
    }
}

/// [`pattern_many`] at 32 masters (registry key `many-32`).
#[must_use]
pub fn pattern_many_32() -> TrafficPattern {
    pattern_many(32)
}

/// [`pattern_many`] at 64 masters (registry key `many-64`).
#[must_use]
pub fn pattern_many_64() -> TrafficPattern {
    pattern_many(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::qos::MasterClass;

    #[test]
    fn catalogue_has_three_patterns_of_four_masters() {
        let catalogue = TrafficPattern::table1_catalogue();
        assert_eq!(catalogue.len(), 3);
        for pattern in &catalogue {
            assert_eq!(pattern.master_count(), 4);
            assert_eq!(pattern.profiles().len(), 4);
        }
    }

    #[test]
    fn master_ids_are_unique_within_each_pattern() {
        for pattern in TrafficPattern::table1_catalogue() {
            let mut ids: Vec<usize> = pattern.masters.iter().map(|(m, _)| m.index()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 4, "{}", pattern.name);
        }
    }

    #[test]
    fn every_pattern_protects_one_real_time_master() {
        for pattern in TrafficPattern::table1_catalogue() {
            let real_time = pattern
                .masters
                .iter()
                .filter(|(_, p)| p.class == MasterClass::RealTime)
                .count();
            assert_eq!(real_time, 1, "{}", pattern.name);
        }
    }

    #[test]
    fn pattern_c_is_write_heavier_than_pattern_a() {
        let write_share = |pattern: &TrafficPattern| -> u32 {
            pattern
                .masters
                .iter()
                .map(|(_, p)| 1000 - p.read_permille)
                .sum()
        };
        assert!(write_share(&pattern_c()) > write_share(&pattern_a()));
    }

    #[test]
    fn pattern_b_uses_distinct_regions_for_the_two_streams() {
        let pattern = pattern_b();
        let dma_regions: Vec<u32> = pattern
            .masters
            .iter()
            .filter(|(_, p)| p.kind == crate::profile::MasterKind::StreamingDma)
            .map(|(_, p)| p.region_base.value())
            .collect();
        assert_eq!(dma_regions.len(), 2);
        assert_ne!(dma_regions[0], dma_regions[1]);
    }

    #[test]
    fn many_master_patterns_scale_and_reserve_the_write_buffer_id() {
        for count in [1usize, 16, 32, 64] {
            let pattern = pattern_many(count);
            assert_eq!(pattern.master_count(), count);
            let mut ids: Vec<usize> = pattern.masters.iter().map(|(m, _)| m.index()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), count, "ids must be unique at {count} masters");
            assert!(!ids.contains(&15), "id 15 is reserved for the write buffer");
        }
        // Regions are distinct, so the load spreads across banks.
        let pattern = pattern_many(8);
        let mut regions: Vec<u32> = pattern
            .masters
            .iter()
            .map(|(_, p)| p.region_base.value())
            .collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_many_master_pattern_panics() {
        let _ = pattern_many(0);
    }

    #[test]
    fn registry_resolves_every_named_pattern() {
        let registry = pattern_registry();
        assert_eq!(registry.len(), 8);
        for (key, build) in &registry {
            let from_key = pattern_by_name(key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(from_key, build(), "{key} must resolve to its constructor");
            assert!(from_key.master_count() >= 1);
        }
        assert!(pattern_by_name("no-such-pattern").is_none());
    }

    #[test]
    fn stress_patterns_keep_the_standard_master_set_shape() {
        for pattern in [pattern_qos_stress(), pattern_dual_stream()] {
            assert_eq!(pattern.master_count(), 4, "{}", pattern.name);
            let real_time = pattern
                .masters
                .iter()
                .filter(|(_, p)| p.class == MasterClass::RealTime)
                .count();
            assert_eq!(real_time, 1, "{}", pattern.name);
        }
        // The stress pattern's whole point: worst fixed priority on video.
        let video = pattern_qos_stress().masters[1].1.clone();
        assert_eq!(video.fixed_priority, 7);
    }

    #[test]
    fn sharded_patterns_have_unique_ids_and_window_aligned_regions() {
        for mix in [
            ShardMix::LocalHeavy,
            ShardMix::BridgeHeavy,
            ShardMix::AllToAll,
        ] {
            let shards = pattern_shards(4, 4, mix);
            assert_eq!(shards.len(), 4);
            let mut ids = Vec::new();
            for pattern in &shards {
                assert_eq!(pattern.master_count(), 4);
                for (id, profile) in &pattern.masters {
                    ids.push(id.index());
                    assert!(
                        profile.region_base.value() % (1 << SHARD_WINDOW_SHIFT) == 0,
                        "regions sit at window bases"
                    );
                    assert!(u64::from(profile.region_bytes) <= 1 << SHARD_WINDOW_SHIFT);
                }
            }
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 16, "ids must be globally unique");
            assert!(!ids.contains(&15), "id 15 is reserved for the write buffer");
            assert!(ids.iter().all(|&id| id < 240), "ids 240+ belong to bridges");
        }
    }

    #[test]
    fn shard_mixes_differ_in_remote_share() {
        let owner = |base: u32, shards: u32| (base >> SHARD_WINDOW_SHIFT) % shards;
        let remote_count = |mix| {
            pattern_shards(4, 8, mix)
                .iter()
                .enumerate()
                .flat_map(|(shard, pattern)| {
                    pattern
                        .masters
                        .iter()
                        .filter(move |(_, p)| owner(p.region_base.value(), 4) != shard as u32)
                })
                .count()
        };
        let local = remote_count(ShardMix::LocalHeavy);
        let bridge = remote_count(ShardMix::BridgeHeavy);
        assert!(local > 0, "local-heavy still exercises the bridge");
        assert!(local < bridge, "bridge-heavy crosses more than local-heavy");
        // The all-to-all mix spreads remote traffic over several shards.
        let targets: std::collections::BTreeSet<u32> = pattern_shards(4, 8, ShardMix::AllToAll)[0]
            .masters
            .iter()
            .map(|(_, p)| owner(p.region_base.value(), 4))
            .collect();
        assert!(
            targets.len() >= 3,
            "shard 0 reaches several targets: {targets:?}"
        );
    }

    #[test]
    fn single_shard_patterns_are_fully_local() {
        // With one shard every window belongs to shard 0, so even the
        // bridge-heavy mix degenerates to a fully local pattern.
        let shards = pattern_shards(1, 4, ShardMix::BridgeHeavy);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].master_count(), 4);
    }

    #[test]
    fn pattern_names_are_distinct() {
        let names: Vec<&str> = TrafficPattern::table1_catalogue()
            .iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"pattern A (balanced)"));
    }
}
