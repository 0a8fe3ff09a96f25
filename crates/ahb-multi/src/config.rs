//! Multi-bus platform configuration.

use amba::params::AhbPlusParams;
use ddrc::DdrConfig;

use crate::topology::Topology;

/// Which single-bus backend a shard instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackendKind {
    /// Cycle-counting transaction-level shards (`ahb-tlm`).
    Tlm,
    /// Loosely-timed shards (`ahb-lt`).
    Lt,
}

/// Timing and capacity of one directed AHB-to-AHB bridge link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Minimum cycles between a crossing entering the request FIFO and
    /// its replay (or response) being released on the remote shard
    /// (clock-domain crossing plus fabric traversal). The *minimum over
    /// all links* is the platform's conservative synchronization quantum:
    /// a shard can never observe an effect from another shard sooner than
    /// this, so running each shard freely for one quantum is always
    /// causally safe.
    pub crossing_latency: u64,
    /// Request FIFO depth per directed link. A full FIFO back-pressures:
    /// the next crossing is admitted only when the oldest in-flight
    /// request has been forwarded.
    pub fifo_depth: usize,
    /// Minimum cycles between two consecutive forwards on one link (the
    /// remote bridge master serializes its replays).
    pub forward_interval: u64,
    /// Wait states of the local bridge slave window (cycles from address
    /// phase to first data beat of the posting transfer). This is a
    /// property of each shard's slave port — paid before the destination
    /// shard is decoded — so the platform always takes it from the
    /// topology's *default* link; per-link overrides do not apply to it.
    pub slave_cycles: u64,
}

impl BridgeConfig {
    /// A bridge with a generous crossing latency (which doubles as the
    /// synchronization quantum, so larger is cheaper to simulate) and a
    /// moderate FIFO.
    #[must_use]
    pub fn ahb_plus() -> Self {
        BridgeConfig {
            crossing_latency: 96,
            fifo_depth: 8,
            forward_interval: 4,
            slave_cycles: 2,
        }
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig::ahb_plus()
    }
}

/// Configuration of a multi-bus AHB+ platform: the declarative
/// [`Topology`] (shard backends, window map, links, read-crossing mode)
/// plus the per-shard bus/DDR parameters and the quantum schedule. For a
/// uniform topology the shard count is implied by the per-shard traffic
/// patterns handed to [`crate::MultiSystem::from_shard_patterns`]; a
/// heterogeneous topology fixes it.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiConfig {
    /// The platform shape.
    pub topology: Topology,
    /// Bus parameters applied to every shard.
    pub params: AhbPlusParams,
    /// DDR configuration of every shard's private memory controller.
    pub ddr: DdrConfig,
    /// Hard simulation length limit in bus cycles (shared by the shards
    /// and the platform's barrier clock).
    pub max_cycles: u64,
    /// Synchronization quantum override. `None` uses the minimum bridge
    /// crossing latency (the largest causally safe value); an explicit
    /// quantum is clamped into `[1, min_crossing_latency]`.
    pub quantum: Option<u64>,
    /// Adaptive lookahead: when `true` the scheduler stretches the
    /// quantum past the fixed value whenever every shard proves (via its
    /// `next_possible_crossing` bound) that no crossing can be issued
    /// before the stretched barrier. `false` (the default) runs the fixed
    /// schedule of the earlier platforms byte for byte. Both modes are
    /// results-identical; lookahead only removes barriers that could not
    /// have exchanged anything.
    pub lookahead: bool,
    /// Upper bound on how far one lookahead stretch may move a barrier
    /// past its fixed position, in cycles. `None` uses
    /// `64 × effective_quantum`. Bounding the stretch keeps bounded
    /// stepping (`run_until`) responsive on idle platforms.
    pub max_stretch: Option<u64>,
}

impl MultiConfig {
    /// The default evaluation platform: a uniform topology of the given
    /// shard backend (exactly the PR-4 platform shape).
    #[must_use]
    pub fn new(backend: ShardBackendKind) -> Self {
        MultiConfig::from_topology(Topology::uniform(backend))
    }

    /// A platform of the given declarative shape with the default bus and
    /// DDR parameters.
    #[must_use]
    pub fn from_topology(topology: Topology) -> Self {
        MultiConfig {
            topology,
            params: AhbPlusParams::ahb_plus(),
            ddr: DdrConfig::ahb_plus(),
            max_cycles: 5_000_000,
            quantum: None,
            lookahead: false,
            max_stretch: None,
        }
    }

    /// Returns a copy with different bus parameters.
    #[must_use]
    pub fn with_params(mut self, params: AhbPlusParams) -> Self {
        self.params = params;
        self
    }

    /// Returns a copy with a different DDR configuration.
    #[must_use]
    pub fn with_ddr(mut self, ddr: DdrConfig) -> Self {
        self.ddr = ddr;
        self
    }

    /// Returns a copy with a different cycle limit.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Returns a copy with a different *default* link configuration
    /// (per-link overrides live on the topology).
    #[must_use]
    pub fn with_bridge(mut self, bridge: BridgeConfig) -> Self {
        self.topology.default_link = bridge;
        self
    }

    /// Returns a copy with an explicit synchronization quantum.
    #[must_use]
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        self.quantum = Some(quantum);
        self
    }

    /// Returns a copy with adaptive lookahead enabled (or disabled).
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: bool) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Returns a copy with an explicit per-barrier stretch bound.
    #[must_use]
    pub fn with_max_stretch(mut self, max_stretch: u64) -> Self {
        self.max_stretch = Some(max_stretch);
        self
    }

    /// The effective synchronization quantum of a `shards`-shard
    /// platform: the explicit override clamped into
    /// `[1, min_crossing_latency]`, or the minimum crossing latency
    /// itself. Quanta above it would let a shard simulate past the
    /// earliest possible arrival of a remote effect — the conservative
    /// guarantee this platform is built on.
    #[must_use]
    pub fn effective_quantum(&self, shards: usize) -> u64 {
        let min_latency = self.topology.min_crossing_latency(shards);
        self.quantum
            .unwrap_or(min_latency)
            .clamp(1, min_latency.max(1))
    }

    /// The effective per-barrier stretch bound: the explicit override, or
    /// 64 quanta.
    #[must_use]
    pub fn effective_max_stretch(&self, quantum: u64) -> u64 {
        self.max_stretch
            .unwrap_or_else(|| quantum.saturating_mul(64))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_defaults_to_the_crossing_latency_and_is_clamped() {
        let config = MultiConfig::new(ShardBackendKind::Tlm);
        let latency = config.topology.default_link.crossing_latency;
        assert_eq!(config.effective_quantum(2), latency);
        assert_eq!(config.clone().with_quantum(0).effective_quantum(2), 1);
        assert_eq!(config.clone().with_quantum(7).effective_quantum(2), 7);
        assert_eq!(
            config.clone().with_quantum(u64::MAX).effective_quantum(2),
            latency
        );
    }

    #[test]
    fn quantum_follows_the_fastest_link_of_the_topology() {
        let fast = BridgeConfig {
            crossing_latency: 24,
            ..BridgeConfig::ahb_plus()
        };
        let config = MultiConfig::from_topology(
            Topology::uniform(ShardBackendKind::Tlm).with_link(1, 0, fast),
        );
        assert_eq!(config.effective_quantum(2), 24);
        // A one-shard platform has no links; the default stands in.
        assert_eq!(config.effective_quantum(1), 96);
        // An explicit quantum may not exceed the fastest link.
        assert_eq!(config.with_quantum(80).effective_quantum(2), 24);
    }

    #[test]
    fn builders_replace_fields() {
        let config = MultiConfig::new(ShardBackendKind::Lt)
            .with_max_cycles(77)
            .with_bridge(BridgeConfig {
                crossing_latency: 32,
                fifo_depth: 4,
                forward_interval: 1,
                slave_cycles: 1,
            });
        assert_eq!(
            config.topology.backends(2),
            vec![ShardBackendKind::Lt, ShardBackendKind::Lt]
        );
        assert_eq!(config.max_cycles, 77);
        assert_eq!(config.effective_quantum(2), 32);
    }

    #[test]
    fn lookahead_defaults_off_with_a_64_quantum_stretch_bound() {
        let config = MultiConfig::new(ShardBackendKind::Tlm);
        assert!(!config.lookahead);
        assert_eq!(config.effective_max_stretch(96), 96 * 64);
        let tuned = config.with_lookahead(true).with_max_stretch(500);
        assert!(tuned.lookahead);
        assert_eq!(tuned.effective_max_stretch(96), 500);
        // The bound never collapses to zero (a zero stretch would stall
        // the barrier clock).
        assert_eq!(
            MultiConfig::new(ShardBackendKind::Lt)
                .with_max_stretch(0)
                .effective_max_stretch(96),
            1
        );
    }
}
