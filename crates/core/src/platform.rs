//! Platform configuration and construction of every abstraction level.

use ahb_lt::{LtConfig, LtSystem};
use ahb_multi::{partition_round_robin, MultiConfig, MultiSystem, Topology};
use ahb_rtl::{RtlConfig, RtlSystem};
use ahb_tlm::{TlmConfig, TlmSystem};
use amba::params::AhbPlusParams;
use analysis::report::SimReport;
use ddrc::DdrConfig;
use traffic::TrafficPattern;

/// One complete platform description: bus, memory, traffic and workload
/// size. The same configuration builds the pin-accurate and the
/// transaction-level system, which is what makes the accuracy comparison
/// meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Bus parameters (arbitration filters, write buffer, pipelining, BI).
    pub params: AhbPlusParams,
    /// DDR device and controller configuration.
    pub ddr: DdrConfig,
    /// The traffic pattern to drive.
    pub pattern: TrafficPattern,
    /// Number of transactions each master generates.
    pub transactions_per_master: usize,
    /// Workload seed (identical stimulus for both models).
    pub seed: u64,
    /// Hard simulation length limit in bus cycles.
    pub max_cycles: u64,
}

impl PlatformConfig {
    /// Creates a platform with the default AHB+ bus and DDR parameters.
    #[must_use]
    pub fn new(pattern: TrafficPattern, transactions_per_master: usize, seed: u64) -> Self {
        PlatformConfig {
            params: AhbPlusParams::ahb_plus(),
            ddr: DdrConfig::ahb_plus(),
            pattern,
            transactions_per_master,
            seed,
            max_cycles: 20_000_000,
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

    /// Returns a copy restricted to the first `count` masters of the
    /// pattern (the paper's single-master speed measurement uses `count = 1`).
    ///
    /// # Panics
    ///
    /// Panics when `count == 0`: a platform without masters cannot run,
    /// and silently clamping to one master (the old behaviour) made
    /// sweep bugs invisible. Use [`crate::scenario::ScenarioSpec`] for a
    /// non-panicking, validated way to express master subsets.
    #[must_use]
    pub fn with_master_subset(mut self, count: usize) -> Self {
        assert!(
            count >= 1,
            "with_master_subset(0): a platform needs at least one master"
        );
        self.pattern.masters.truncate(count);
        self
    }

    /// The transaction-level configuration derived from this platform.
    #[must_use]
    pub fn tlm_config(&self) -> TlmConfig {
        TlmConfig {
            params: self.params.clone(),
            ddr: self.ddr,
            max_cycles: self.max_cycles,
        }
    }

    /// The loosely-timed configuration derived from this platform.
    #[must_use]
    pub fn lt_config(&self) -> LtConfig {
        LtConfig {
            params: self.params.clone(),
            ddr: self.ddr,
            max_cycles: self.max_cycles,
        }
    }

    /// The pin-accurate configuration derived from this platform.
    #[must_use]
    pub fn rtl_config(&self) -> RtlConfig {
        RtlConfig {
            params: self.params.clone(),
            ddr: self.ddr,
            max_cycles: self.max_cycles,
            protocol_checks: true,
            idle_skip: true,
        }
    }

    /// Builds the transaction-level system.
    #[must_use]
    pub fn build_tlm(&self) -> TlmSystem {
        TlmSystem::from_pattern(
            self.tlm_config(),
            &self.pattern,
            self.transactions_per_master,
            self.seed,
        )
    }

    /// Builds the loosely-timed system.
    #[must_use]
    pub fn build_lt(&self) -> LtSystem {
        LtSystem::from_pattern(
            self.lt_config(),
            &self.pattern,
            self.transactions_per_master,
            self.seed,
        )
    }

    /// Builds the pin-accurate system.
    #[must_use]
    pub fn build_rtl(&self) -> RtlSystem {
        RtlSystem::from_pattern(
            self.rtl_config(),
            &self.pattern,
            self.transactions_per_master,
            self.seed,
        )
    }

    /// Number of bus shards a uniform topology splits a single-bus
    /// platform into.
    pub const DEFAULT_SHARDS: usize = 2;

    /// Builds the multi-bus system of an arbitrary declarative
    /// [`Topology`]: the pattern's masters are partitioned round-robin
    /// over the topology's shard count (or
    /// [`PlatformConfig::DEFAULT_SHARDS`] when the topology is uniform),
    /// and the platform inherits this configuration's bus parameters, DDR
    /// device and cycle limit. It runs the fixed-quantum schedule;
    /// registry entries that want adaptive lookahead configure it through
    /// [`PlatformConfig::build_multi`].
    #[must_use]
    pub fn build_topology(&self, topology: Topology) -> MultiSystem {
        self.build_multi(&self.multi_config(topology))
    }

    /// The multi-bus configuration derived from this platform for the
    /// given topology (this platform's bus parameters, DDR device and
    /// cycle limit). Callers that need a non-default schedule — an
    /// explicit quantum, adaptive lookahead — adjust the
    /// returned value with the [`MultiConfig`] builders and hand it to
    /// [`PlatformConfig::build_multi`].
    #[must_use]
    pub fn multi_config(&self, topology: Topology) -> MultiConfig {
        MultiConfig::from_topology(topology)
            .with_params(self.params.clone())
            .with_ddr(self.ddr)
            .with_max_cycles(self.max_cycles)
    }

    /// Builds the multi-bus system of a fully specified [`MultiConfig`]:
    /// the pattern's masters are partitioned round-robin over the
    /// topology's shard count (or [`PlatformConfig::DEFAULT_SHARDS`] when
    /// the topology is uniform).
    #[must_use]
    pub fn build_multi(&self, config: &MultiConfig) -> MultiSystem {
        let shards = config
            .topology
            .shard_count()
            .unwrap_or(Self::DEFAULT_SHARDS);
        let parts = partition_round_robin(&self.pattern, shards);
        MultiSystem::from_shard_patterns(config, &parts, self.transactions_per_master, self.seed)
    }

    /// Builds and runs the transaction-level system.
    #[must_use]
    pub fn run_tlm(&self) -> SimReport {
        self.build_tlm().run()
    }

    /// Builds and runs the pin-accurate system.
    #[must_use]
    pub fn run_rtl(&self) -> SimReport {
        self.build_rtl().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::arbitration::ArbiterConfig;
    use analysis::model::BusModel;
    use traffic::pattern_a;

    #[test]
    fn both_models_complete_the_same_workload() {
        let config = PlatformConfig::new(pattern_a(), 15, 5);
        let rtl = config.run_rtl();
        let tlm = config.run_tlm();
        assert_eq!(rtl.total_transactions(), tlm.total_transactions());
        assert_eq!(rtl.total_bytes(), tlm.total_bytes());
    }

    #[test]
    fn builders_adjust_the_derived_configs() {
        let config = PlatformConfig::new(pattern_a(), 10, 1)
            .with_params(AhbPlusParams::plain_ahb())
            .with_ddr(DdrConfig::without_interleaving())
            .with_max_cycles(1_234);
        assert!(!config.tlm_config().params.request_pipelining);
        assert!(!config.rtl_config().ddr.honour_prepare_hints);
        assert_eq!(config.tlm_config().max_cycles, 1_234);
        let arbiter_filters = config.params.arbiter.enabled.len();
        assert_eq!(
            arbiter_filters,
            ArbiterConfig::plain_ahb_fixed_priority().enabled.len()
        );
    }

    #[test]
    fn master_subset_restricts_the_pattern() {
        let config = PlatformConfig::new(pattern_a(), 10, 1).with_master_subset(1);
        assert_eq!(config.pattern.master_count(), 1);
        let report = config.run_tlm();
        assert_eq!(report.masters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_master_subset_panics_instead_of_clamping() {
        let _ = PlatformConfig::new(pattern_a(), 10, 1).with_master_subset(0);
    }

    #[test]
    fn build_model_yields_every_backend_behind_the_trait() {
        let config = PlatformConfig::new(pattern_a(), 10, 5);
        for spec in crate::registry::spectrum() {
            let mut model = spec.build(&config);
            assert_eq!(model.model_name(), spec.id);
            let report = model.run();
            assert_eq!(report.model, model.kind());
            assert_eq!(report.total_transactions(), 4 * 10);
            assert!(model.finished());
        }
    }
}
