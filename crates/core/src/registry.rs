//! The model registry: one static table of every runnable model.
//!
//! Each [`ModelSpec`] in [`MODELS`] is a name, a [`Fidelity`] and an
//! optional [`WorkloadOverride`]. Every harness reads this one table:
//! `table2_speed` measures all of it, `model_accuracy` locksteps the
//! [`spectrum`] (the entries that run the scenario's own traffic),
//! `trace_report`, the `campaign` CLI and `campaign serve` look names up
//! in it. Adding a model or a topology means adding one entry here.

use std::borrow::Cow;

use ahb_multi::{MultiSystem, ShardBackendKind, Topology};
use analysis::model::BusModel;
use traffic::ShardMix::{BridgeHeavy, LocalHeavy, ReadHeavy};
use traffic::{pattern_many, pattern_shards, ShardMix};

use crate::platform::PlatformConfig;
use crate::speed::measurement_threaded;
use Fidelity::{Lt, Multi, Rtl, Tlm};
use WorkloadOverride::{Many, Masters, Shards};

/// The abstraction level an entry builds.
#[derive(Debug, Clone, Copy)]
pub enum Fidelity {
    /// The pin-accurate reference (`ahb-rtl`).
    Rtl,
    /// The transaction-level model (`ahb-tlm`).
    Tlm,
    /// The loosely-timed model (`ahb-lt`).
    Lt,
    /// A multi-bus platform (`ahb-multi`) of the topology, under the
    /// adaptive-lookahead scheduler when the flag is set, with worker
    /// threads per [`measurement_threaded`].
    Multi(fn() -> Topology, bool),
}

/// Traffic an entry runs instead of the platform's own pattern. The
/// platform still supplies the bus and DDR parameters, the per-master
/// transaction count and the seed.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadOverride {
    /// The first `n` masters of the platform's pattern.
    Masters(usize),
    /// `traffic::pattern_many(n)` on one bus.
    Many(usize),
    /// `traffic::pattern_shards(shards, masters_per_shard, mix)`, one
    /// pattern per bus (multi-bus fidelities only).
    Shards(usize, usize, ShardMix),
}

/// One registered model: its name, what it builds and on which traffic.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// The registry name, as printed in tables, accepted by every CLI and
    /// hashed into campaign points.
    pub id: &'static str,
    /// The abstraction level built.
    pub fidelity: Fidelity,
    /// Traffic replacing the platform's pattern; `None` for the spectrum.
    pub workload: Option<WorkloadOverride>,
}

impl PartialEq for ModelSpec {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for ModelSpec {}

const fn entry(
    id: &'static str,
    fidelity: Fidelity,
    workload: Option<WorkloadOverride>,
) -> ModelSpec {
    ModelSpec {
        id,
        fidelity,
        workload,
    }
}

fn tlm_shards() -> Topology {
    Topology::uniform(ShardBackendKind::Tlm)
}

fn lt_shards() -> Topology {
    Topology::uniform(ShardBackendKind::Lt)
}

fn tlm_reads_4() -> Topology {
    Topology::heterogeneous(vec![ShardBackendKind::Tlm; 4]).with_posted_reads(false)
}

/// Every registered model. The entries without a workload override form
/// the accuracy spectrum, ordered from most to least timing-accurate: the
/// accuracy harness compares each pair in this order (earlier entry =
/// reference). The sharded platforms come after the single-bus models:
/// they share the shard backend's timing fidelity but add the
/// bridge/quantum approximations. The other entries are scaling
/// configurations of the speed experiment, listed next to their base:
/// the paper's single-master run, the ready-set scaling buses, and the
/// dedicated sharded workloads (`sharded-tlm-la-4x4` is the lookahead
/// twin of `sharded-tlm-4x4`, so the pair isolates synchronization cost).
#[rustfmt::skip]
pub static MODELS: [ModelSpec; 18] = [
    entry("rtl", Rtl, None),
    entry("tlm", Tlm, None),
    entry("lt", Lt, None),
    entry("tlm-single-master", Tlm, Some(Masters(1))),
    entry("tlm-32-master", Tlm, Some(Many(32))),
    entry("tlm-64-master", Tlm, Some(Many(64))),
    entry("sharded-tlm", Multi(tlm_shards, false), None),
    entry("sharded-tlm-4x4", Multi(tlm_shards, false), Some(Shards(4, 4, LocalHeavy))),
    entry("sharded-tlm-4x4-bridge", Multi(tlm_shards, false), Some(Shards(4, 4, BridgeHeavy))),
    entry("sharded-tlm-la", Multi(tlm_shards, true), None),
    entry("sharded-tlm-la-4x4", Multi(tlm_shards, true), Some(Shards(4, 4, LocalHeavy))),
    entry("sharded-skew", Multi(Topology::tlm_skewed_windows, false), None),
    entry("sharded-tlm-reads", Multi(Topology::tlm_non_posted_reads, false), None),
    entry("sharded-tlm-reads-4x4", Multi(tlm_reads_4, false), Some(Shards(4, 4, ReadHeavy))),
    entry("sharded-lt", Multi(lt_shards, false), None),
    entry("sharded-lt-4x16", Multi(lt_shards, false), Some(Shards(4, 16, LocalHeavy))),
    entry("sharded-lt-4x16-la", Multi(lt_shards, true), Some(Shards(4, 16, LocalHeavy))),
    entry("sharded-het", Multi(Topology::het_2x2, false), None),
];

impl ModelSpec {
    /// Builds a fresh model of this entry on `config`. Dynamic dispatch
    /// happens once per build; the simulation loops inside `run_until`
    /// stay monomorphized. A [`WorkloadOverride::Shards`] override only
    /// applies to a multi-bus fidelity; the registry tests check that
    /// every entry completes the workload it declares.
    #[must_use]
    pub fn build(&self, config: &PlatformConfig) -> Box<dyn BusModel> {
        let config = match self.workload {
            Some(Masters(count)) => Cow::Owned(config.clone().with_master_subset(count)),
            Some(Many(masters)) => Cow::Owned(PlatformConfig {
                pattern: pattern_many(masters),
                ..config.clone()
            }),
            _ => Cow::Borrowed(config),
        };
        let (topology, lookahead) = match self.fidelity {
            Rtl => return Box::new(config.build_rtl()),
            Tlm => return Box::new(config.build_tlm()),
            Lt => return Box::new(config.build_lt()),
            Multi(topology, lookahead) => (topology, lookahead),
        };
        let multi = config
            .multi_config(topology())
            .with_threaded(measurement_threaded())
            .with_lookahead(lookahead);
        match self.workload {
            Some(Shards(shards, masters, mix)) => Box::new(MultiSystem::from_shard_patterns(
                &multi,
                &pattern_shards(shards, masters, mix),
                config.transactions_per_master,
                config.seed,
            )),
            _ => Box::new(config.build_multi(&multi)),
        }
    }

    /// The registry name as an owned string. The name does not depend on
    /// the platform; the parameter keeps the speed harness's signature.
    #[must_use]
    pub fn name(&self, _config: &PlatformConfig) -> String {
        self.id.to_owned()
    }
}

/// The accuracy spectrum: every entry that runs the platform's own
/// traffic, in table order.
pub fn spectrum() -> impl Iterator<Item = &'static ModelSpec> {
    MODELS.iter().filter(|spec| spec.workload.is_none())
}

/// Looks a registry name up.
///
/// # Errors
///
/// `unknown model 'NAME' (registered: ...)` listing the whole registry —
/// the message every CLI and the serve mode print.
pub fn lookup(name: &str) -> Result<&'static ModelSpec, String> {
    MODELS
        .iter()
        .find(|spec| spec.id == name)
        .ok_or_else(|| unknown_model(name, MODELS.iter().map(|spec| spec.id)))
}

/// `unknown model 'NAME' (registered: a, b, ...)`.
#[must_use]
pub(crate) fn unknown_model<'a>(name: &str, registered: impl Iterator<Item = &'a str>) -> String {
    let registered: Vec<&str> = registered.collect();
    format!(
        "unknown model '{name}' (registered: {})",
        registered.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use traffic::{pattern_a, TrafficPattern};

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = MODELS.iter().map(|spec| spec.id).collect();
        assert_eq!(names.len(), MODELS.len());
    }

    #[test]
    fn spectrum_order_is_pinned() {
        let ids: Vec<&str> = spectrum().map(|spec| spec.id).collect();
        let expected = "rtl tlm lt sharded-tlm sharded-tlm-la sharded-skew \
                        sharded-tlm-reads sharded-lt sharded-het";
        assert_eq!(ids.join(" "), expected);
    }

    #[test]
    fn every_entry_builds_completes_its_workload_and_is_deterministic() {
        let config = PlatformConfig::new(pattern_a(), 3, 7);
        for spec in &MODELS {
            let masters = match spec.workload {
                None => config.pattern.master_count(),
                Some(Masters(count) | Many(count)) => count,
                Some(Shards(shards, masters, mix)) => pattern_shards(shards, masters, mix)
                    .iter()
                    .map(TrafficPattern::master_count)
                    .sum(),
            };
            let (mut first, mut second) = (spec.build(&config), spec.build(&config));
            let report = first.run();
            second.run();
            assert_eq!(
                report.total_transactions(),
                masters as u64 * 3,
                "{}",
                spec.id
            );
            assert_eq!(first.probe(), second.probe(), "{}", spec.id);
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        assert_eq!(
            lookup("sharded-tlm-la-4x4").unwrap().id,
            "sharded-tlm-la-4x4"
        );
        let error = lookup("warp-drive").unwrap_err();
        assert!(error.starts_with("unknown model 'warp-drive' (registered: rtl, tlm, lt,"));
        assert!(error.ends_with("sharded-het)"), "{error}");
    }
}
