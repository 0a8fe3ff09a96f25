//! Declarative multi-bus platform topology.
//!
//! A [`Topology`] is the complete *shape* of a multi-bus platform as
//! plain data: which backend each shard runs (uniform or heterogeneous —
//! hot shards cycle-accurate `tlm`, cold shards loosely-timed `lt`), how
//! window ownership decodes (round-robin interleave or an explicit,
//! non-uniform owner table), the timing and capacity of every directed
//! bridge link (a shared default plus per-link overrides for asymmetric
//! fabrics), and whether remote reads cross posted or non-posted. The
//! whole stack consumes it: the platform builder instantiates shards and
//! links from it, both backends' bridge ports decode the same
//! [`WindowMap`] it resolves to, and the synchronization quantum is
//! derived from its slowest-safe value (the minimum crossing latency over
//! all links).
//!
//! ```
//! use ahb_multi::{BridgeConfig, ShardBackendKind, Topology};
//!
//! // Two cycle-accurate shards in front of two loosely-timed ones, with
//! // a slow return path on one link and non-posted reads.
//! let topology = Topology::heterogeneous(vec![
//!     ShardBackendKind::Tlm,
//!     ShardBackendKind::Tlm,
//!     ShardBackendKind::Lt,
//!     ShardBackendKind::Lt,
//! ])
//! .with_link(2, 0, BridgeConfig { crossing_latency: 128, ..BridgeConfig::ahb_plus() })
//! .with_posted_reads(false);
//! assert_eq!(topology.shard_count(), Some(4));
//! assert_eq!(topology.min_crossing_latency(4), 96);
//! ```

use amba::bridge::WindowMap;
use amba::params::AhbPlusParams;
use analysis::report::ModelKind;
use ddrc::DdrConfig;

use crate::config::{BridgeConfig, ShardBackendKind};

/// Which backend each shard of a platform instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSet {
    /// Every shard runs the same backend; the shard *count* comes from
    /// the per-shard traffic patterns handed to the builder.
    Uniform(ShardBackendKind),
    /// One backend per shard (a heterogeneous platform); the vector
    /// length fixes the shard count.
    PerShard(Vec<ShardBackendKind>),
}

/// How window ownership is decoded across the shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowSpec {
    /// Window `w` is owned by shard `w % shards` (the uniform layout).
    Interleaved {
        /// Log2 of the window size in bytes.
        window_shift: u32,
    },
    /// Explicit per-window owner table covering the full address space —
    /// non-uniform ownership (see [`WindowMap::explicit`] for the
    /// validity rules).
    Explicit {
        /// Log2 of the window size in bytes.
        window_shift: u32,
        /// Owner shard of every window, `1 << (32 - window_shift)`
        /// entries.
        owners: Vec<u8>,
    },
}

/// The declarative shape of a multi-bus platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Backend selection per shard.
    pub shards: ShardSet,
    /// Window-ownership decode.
    pub window: WindowSpec,
    /// Link timing/capacity used for every directed link without an
    /// override.
    pub default_link: BridgeConfig,
    /// Per-link overrides `(source shard, destination shard, config)` —
    /// asymmetric latency or FIFO depth between specific shard pairs.
    pub links: Vec<(usize, usize, BridgeConfig)>,
    /// `true` → remote reads cross posted (split-transaction prefetch, no
    /// response traffic — the classic bridge). `false` → remote reads are
    /// non-posted: the source master stalls until the response leg
    /// crosses back and retires the transfer.
    pub posted_reads: bool,
    /// Per-shard bus-parameter overrides `(shard, params)` — shards
    /// without an override inherit the platform-wide
    /// `MultiConfig::params` (later overrides of the same shard win).
    pub shard_params: Vec<(usize, AhbPlusParams)>,
    /// Per-shard DDR overrides `(shard, config)` — a slower cold-shard
    /// memory, a different geometry behind one bridge, etc. Shards
    /// without an override inherit `MultiConfig::ddr`.
    pub shard_ddr: Vec<(usize, DdrConfig)>,
}

impl Topology {
    /// A uniform topology: every shard runs `backend`, interleaved
    /// windows at the standard shift, uniform default links, posted
    /// reads. This is exactly the PR-4 platform shape — a platform built
    /// from it is results-identical to the pre-topology builder.
    #[must_use]
    pub fn uniform(backend: ShardBackendKind) -> Self {
        Topology {
            shards: ShardSet::Uniform(backend),
            window: WindowSpec::Interleaved {
                window_shift: traffic::SHARD_WINDOW_SHIFT,
            },
            default_link: BridgeConfig::ahb_plus(),
            links: Vec::new(),
            posted_reads: true,
            shard_params: Vec::new(),
            shard_ddr: Vec::new(),
        }
    }

    /// A heterogeneous topology: shard `i` runs `backends[i]`.
    ///
    /// # Panics
    ///
    /// Panics when `backends` is empty.
    #[must_use]
    pub fn heterogeneous(backends: Vec<ShardBackendKind>) -> Self {
        assert!(!backends.is_empty(), "a platform needs at least one shard");
        Topology {
            shards: ShardSet::PerShard(backends),
            ..Topology::uniform(ShardBackendKind::Tlm)
        }
    }

    /// The canonical heterogeneous platform: two cycle-accurate `tlm`
    /// shards (the hot half) in front of two loosely-timed `lt` shards
    /// (the cold half), interleaved windows, posted reads — the
    /// `sharded-het` evaluation configuration.
    #[must_use]
    pub fn het_2x2() -> Self {
        Topology::heterogeneous(vec![
            ShardBackendKind::Tlm,
            ShardBackendKind::Tlm,
            ShardBackendKind::Lt,
            ShardBackendKind::Lt,
        ])
    }

    /// The canonical non-posted-read platform: two `tlm` shards whose
    /// remote reads stall the issuing master until the response leg
    /// returns — the `sharded-tlm-reads` evaluation configuration.
    #[must_use]
    pub fn tlm_non_posted_reads() -> Self {
        Topology::heterogeneous(vec![ShardBackendKind::Tlm; 2]).with_posted_reads(false)
    }

    /// The canonical non-uniform-window platform: two `tlm` shards where
    /// shard 0 owns three windows out of every four (shard 1 only every
    /// fourth) — the `sharded-skew` evaluation configuration.
    #[must_use]
    pub fn tlm_skewed_windows() -> Self {
        let shift = traffic::SHARD_WINDOW_SHIFT;
        let owners = (0..1u32 << (32 - shift))
            .map(|window| u8::from(window % 4 == 3))
            .collect();
        Topology::heterogeneous(vec![ShardBackendKind::Tlm; 2]).with_window_owners(shift, owners)
    }

    /// Returns a copy with a different interleaved window shift.
    #[must_use]
    pub fn with_window_shift(mut self, window_shift: u32) -> Self {
        self.window = WindowSpec::Interleaved { window_shift };
        self
    }

    /// Returns a copy with an explicit (possibly non-uniform) owner
    /// table; validity is checked when the map is resolved.
    #[must_use]
    pub fn with_window_owners(mut self, window_shift: u32, owners: Vec<u8>) -> Self {
        self.window = WindowSpec::Explicit {
            window_shift,
            owners,
        };
        self
    }

    /// Returns a copy overriding the directed link `source → destination`
    /// (later overrides of the same pair win). The override applies to
    /// the link's crossing latency, FIFO depth and forward interval;
    /// `slave_cycles` is a property of each shard's bridge *slave window*
    /// (paid before the destination is decoded) and is always taken from
    /// [`Topology::default_link`]. Indices are validated against the
    /// shard count when a platform is built
    /// ([`Topology::validate_links`]).
    #[must_use]
    pub fn with_link(mut self, source: usize, destination: usize, link: BridgeConfig) -> Self {
        self.links.push((source, destination, link));
        self
    }

    /// Checks every link, bus-parameter and DDR override against a
    /// `shards`-shard platform: a mistyped index would otherwise be
    /// stored but never consulted, silently measuring the uniform
    /// platform.
    ///
    /// # Panics
    ///
    /// Panics when an override names a shard `>= shards` or a self-link.
    pub fn validate_links(&self, shards: usize) {
        for &(source, destination, _) in &self.links {
            assert!(
                source < shards && destination < shards,
                "link override {source}->{destination} names a shard outside 0..{shards}"
            );
            assert_ne!(
                source, destination,
                "link override {source}->{destination} is a self-link (never routed)"
            );
        }
        for (shard, _) in &self.shard_params {
            assert!(
                *shard < shards,
                "bus-parameter override names shard {shard} outside 0..{shards}"
            );
        }
        for (shard, _) in &self.shard_ddr {
            assert!(
                *shard < shards,
                "DDR override names shard {shard} outside 0..{shards}"
            );
        }
    }

    /// Returns a copy with the read-crossing mode set.
    #[must_use]
    pub fn with_posted_reads(mut self, posted_reads: bool) -> Self {
        self.posted_reads = posted_reads;
        self
    }

    /// Returns a copy overriding shard `shard`'s bus parameters (later
    /// overrides of the same shard win). Indices are validated against
    /// the shard count when a platform is built.
    #[must_use]
    pub fn with_shard_params(mut self, shard: usize, params: AhbPlusParams) -> Self {
        self.shard_params.push((shard, params));
        self
    }

    /// Returns a copy overriding shard `shard`'s DDR configuration (later
    /// overrides of the same shard win).
    #[must_use]
    pub fn with_shard_ddr(mut self, shard: usize, ddr: DdrConfig) -> Self {
        self.shard_ddr.push((shard, ddr));
        self
    }

    /// The bus parameters of shard `shard`: the last matching override,
    /// or the platform-wide `default`.
    #[must_use]
    pub fn params_for(&self, shard: usize, default: &AhbPlusParams) -> AhbPlusParams {
        self.shard_params
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map_or_else(|| default.clone(), |(_, params)| params.clone())
    }

    /// The DDR configuration of shard `shard`: the last matching
    /// override, or the platform-wide `default`.
    #[must_use]
    pub fn ddr_for(&self, shard: usize, default: DdrConfig) -> DdrConfig {
        self.shard_ddr
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map_or(default, |(_, ddr)| *ddr)
    }

    /// The shard count this topology fixes, or `None` when it is uniform
    /// (count then comes from the per-shard traffic patterns).
    #[must_use]
    pub fn shard_count(&self) -> Option<usize> {
        match &self.shards {
            ShardSet::Uniform(_) => None,
            ShardSet::PerShard(backends) => Some(backends.len()),
        }
    }

    /// The backend of every shard of a `shards`-shard platform.
    ///
    /// # Panics
    ///
    /// Panics when the topology fixes a different shard count.
    #[must_use]
    pub fn backends(&self, shards: usize) -> Vec<ShardBackendKind> {
        match &self.shards {
            ShardSet::Uniform(backend) => vec![*backend; shards],
            ShardSet::PerShard(backends) => {
                assert_eq!(
                    backends.len(),
                    shards,
                    "topology fixes {} shards but {} patterns were given",
                    backends.len(),
                    shards
                );
                backends.clone()
            }
        }
    }

    /// Resolves the window spec into the decode map of a `shards`-shard
    /// platform.
    ///
    /// # Panics
    ///
    /// Panics when an explicit owner table is invalid for `shards` (see
    /// [`WindowMap::explicit`]).
    #[must_use]
    pub fn window_map(&self, shards: usize) -> WindowMap {
        match &self.window {
            WindowSpec::Interleaved { window_shift } => {
                WindowMap::interleaved(*window_shift, shards as u8)
            }
            WindowSpec::Explicit {
                window_shift,
                owners,
            } => WindowMap::explicit(*window_shift, shards as u8, owners.clone()),
        }
    }

    /// The configuration of the directed link `source → destination`:
    /// the last matching override, or the default.
    #[must_use]
    pub fn link(&self, source: usize, destination: usize) -> BridgeConfig {
        self.links
            .iter()
            .rev()
            .find(|(s, d, _)| *s == source && *d == destination)
            .map_or(self.default_link, |(_, _, link)| *link)
    }

    /// The minimum crossing latency over every directed link of a
    /// `shards`-shard platform — the largest causally safe
    /// synchronization quantum (no shard can observe a remote effect
    /// sooner than this, response legs included, because responses travel
    /// over the same links).
    #[must_use]
    pub fn min_crossing_latency(&self, shards: usize) -> u64 {
        let mut min = self.default_link.crossing_latency;
        for source in 0..shards {
            for destination in 0..shards {
                if source != destination {
                    min = min.min(self.link(source, destination).crossing_latency);
                }
            }
        }
        min
    }

    /// The [`ModelKind`] a platform of this shape reports: mixed backends
    /// → [`ModelKind::ShardedHet`]; uniform `tlm` with non-posted reads →
    /// [`ModelKind::ShardedTlmReads`]; uniform `tlm` with an explicit
    /// (non-interleaved) window map → [`ModelKind::ShardedSkew`]; plain
    /// uniform shards → [`ModelKind::ShardedTlm`] /
    /// [`ModelKind::ShardedLt`]. The precedence (mixed > reads > window)
    /// matches how far the shape departs from the PR-4 baseline. Uniform
    /// `lt` platforms always report [`ModelKind::ShardedLt`] — there are
    /// no dedicated LT reads/skew kinds (yet), so two LT topologies that
    /// differ only in those knobs share one artifact key; give such runs
    /// distinct workload names if they must be told apart in artifacts.
    #[must_use]
    pub fn model_kind(&self, backends: &[ShardBackendKind]) -> ModelKind {
        let mixed = backends.windows(2).any(|pair| pair[0] != pair[1]);
        if mixed {
            return ModelKind::ShardedHet;
        }
        match backends.first().copied().unwrap_or(ShardBackendKind::Tlm) {
            ShardBackendKind::Tlm if !self.posted_reads => ModelKind::ShardedTlmReads,
            ShardBackendKind::Tlm if matches!(self.window, WindowSpec::Explicit { .. }) => {
                ModelKind::ShardedSkew
            }
            ShardBackendKind::Tlm => ModelKind::ShardedTlm,
            ShardBackendKind::Lt => ModelKind::ShardedLt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_replicates_to_the_pattern_count() {
        let topology = Topology::uniform(ShardBackendKind::Lt);
        assert_eq!(topology.shard_count(), None);
        assert_eq!(topology.backends(3), vec![ShardBackendKind::Lt; 3]);
        assert!(topology.posted_reads);
        assert!(topology.window_map(3).is_interleaved());
        assert_eq!(
            topology.model_kind(&topology.backends(3)),
            ModelKind::ShardedLt
        );
    }

    #[test]
    fn heterogeneous_topology_fixes_the_shard_count() {
        let topology = Topology::heterogeneous(vec![ShardBackendKind::Tlm, ShardBackendKind::Lt]);
        assert_eq!(topology.shard_count(), Some(2));
        assert_eq!(
            topology.model_kind(&topology.backends(2)),
            ModelKind::ShardedHet
        );
    }

    #[test]
    #[should_panic(expected = "fixes 2 shards")]
    fn mismatched_pattern_count_panics() {
        let topology = Topology::heterogeneous(vec![ShardBackendKind::Tlm, ShardBackendKind::Lt]);
        let _ = topology.backends(3);
    }

    #[test]
    fn link_overrides_shadow_the_default() {
        let fast = BridgeConfig {
            crossing_latency: 32,
            ..BridgeConfig::ahb_plus()
        };
        let topology = Topology::uniform(ShardBackendKind::Tlm).with_link(0, 1, fast);
        assert_eq!(topology.link(0, 1).crossing_latency, 32);
        assert_eq!(
            topology.link(1, 0).crossing_latency,
            BridgeConfig::ahb_plus().crossing_latency
        );
        // The quantum follows the fastest link — asymmetry included.
        assert_eq!(topology.min_crossing_latency(2), 32);
        assert_eq!(
            topology.min_crossing_latency(1),
            BridgeConfig::ahb_plus().crossing_latency
        );
    }

    #[test]
    fn link_validation_rejects_dangling_and_self_links() {
        let link = BridgeConfig::ahb_plus();
        Topology::uniform(ShardBackendKind::Tlm)
            .with_link(0, 1, link)
            .validate_links(2);
        let dangling = Topology::uniform(ShardBackendKind::Tlm).with_link(2, 0, link);
        assert!(std::panic::catch_unwind(|| dangling.validate_links(2)).is_err());
        let selfish = Topology::uniform(ShardBackendKind::Tlm).with_link(1, 1, link);
        assert!(std::panic::catch_unwind(|| selfish.validate_links(2)).is_err());
    }

    #[test]
    fn model_kind_precedence_is_mixed_then_reads_then_window() {
        let owners: Vec<u8> = (0..256).map(|w| u8::from(w % 4 == 3)).collect();
        let tlm = Topology::uniform(ShardBackendKind::Tlm);
        assert_eq!(tlm.model_kind(&tlm.backends(2)), ModelKind::ShardedTlm);
        let reads = tlm.clone().with_posted_reads(false);
        assert_eq!(
            reads.model_kind(&reads.backends(2)),
            ModelKind::ShardedTlmReads
        );
        let skew = tlm.clone().with_window_owners(24, owners.clone());
        assert_eq!(skew.model_kind(&skew.backends(2)), ModelKind::ShardedSkew);
        // Reads beats window when both depart.
        let both = skew.with_posted_reads(false);
        assert_eq!(
            both.model_kind(&both.backends(2)),
            ModelKind::ShardedTlmReads
        );
    }

    #[test]
    fn shard_overrides_shadow_the_platform_defaults() {
        let slow = DdrConfig::without_interleaving();
        let plain = AhbPlusParams::plain_ahb();
        let topology = Topology::het_2x2()
            .with_shard_ddr(3, slow)
            .with_shard_params(2, plain.clone());
        let default_params = AhbPlusParams::ahb_plus();
        let default_ddr = DdrConfig::ahb_plus();
        assert_eq!(topology.params_for(0, &default_params), default_params);
        assert_eq!(topology.params_for(2, &default_params), plain);
        assert_eq!(topology.ddr_for(3, default_ddr), slow);
        assert_eq!(topology.ddr_for(1, default_ddr), default_ddr);
        // Later overrides of the same shard win.
        let fast = DdrConfig::ahb_plus();
        let re = topology.clone().with_shard_ddr(3, fast);
        assert_eq!(re.ddr_for(3, slow), fast);
        topology.validate_links(4);
        let dangling = Topology::het_2x2().with_shard_ddr(4, slow);
        assert!(std::panic::catch_unwind(|| dangling.validate_links(4)).is_err());
    }

    #[test]
    fn explicit_window_spec_resolves_to_an_explicit_map() {
        let owners: Vec<u8> = (0..256).map(|w| u8::from(w % 4 == 3)).collect();
        let topology = Topology::uniform(ShardBackendKind::Tlm).with_window_owners(24, owners);
        let map = topology.window_map(2);
        assert!(!map.is_interleaved());
        assert_eq!(map.owner(amba::ids::Addr::new(0x0300_0000)), 1);
    }
}
