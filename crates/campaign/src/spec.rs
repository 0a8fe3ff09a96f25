//! Campaign specifications: the parameter lattice and its expansion.
//!
//! A [`CampaignSpec`] is the declarative description of a design-space
//! sweep: a set of base [`ScenarioSpec`]s crossed with a model axis and
//! optional seed / bus-parameter / DDR axes. [`CampaignSpec::expand`]
//! takes the cartesian product and yields one [`RunPoint`] per lattice
//! point, each carrying the fully resolved scenario, the registry model and
//! the *content hash* that identifies the experiment.
//!
//! The hash deliberately covers the label-free view of the point — the
//! traffic pattern, every bus/DDR knob, the master subset, workload
//! length, seed, cycle limit and the model — so two sweeps that reach
//! the same configuration under different names dedupe to one
//! simulation, while any knob change yields a fresh hash.

use std::collections::BTreeMap;

use ahbplus::canonical::Canonical;
use ahbplus::{ModelSpec, ScenarioSpec, Topology};
use amba::AhbPlusParams;
use analysis::canon::{content_hash_hex, CanonError, CanonValue};
use ddrc::DdrConfig;

/// A declarative design-space sweep: scenarios × models × optional axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (artifact label).
    pub name: String,
    /// Base scenarios (each already carries params, DDR, seed, length).
    pub scenarios: Vec<ScenarioSpec>,
    /// Model axis: every scenario runs on each of these registry entries.
    pub models: Vec<&'static ModelSpec>,
    /// Seed axis; empty keeps each scenario's own seed.
    pub seeds: Vec<u64>,
    /// Named bus-parameter variants; empty keeps each scenario's params.
    pub params: Vec<(String, AhbPlusParams)>,
    /// Named DDR variants; empty keeps each scenario's DDR config.
    pub ddrs: Vec<(String, DdrConfig)>,
    /// When set, each simulated point streams a probe timeline through a
    /// `SnapshotSink` at this stride (in cycles).
    pub snapshot_stride: Option<u64>,
}

impl CampaignSpec {
    /// An empty campaign with the given name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        CampaignSpec {
            name: name.to_owned(),
            scenarios: Vec::new(),
            models: Vec::new(),
            seeds: Vec::new(),
            params: Vec::new(),
            ddrs: Vec::new(),
            snapshot_stride: None,
        }
    }

    /// Adds a base scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds a model to the model axis.
    #[must_use]
    pub fn with_model(mut self, model: &'static ModelSpec) -> Self {
        self.models.push(model);
        self
    }

    /// Replaces the seed axis.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Adds a named bus-parameter variant to the parameter axis.
    #[must_use]
    pub fn with_params_variant(mut self, name: &str, params: AhbPlusParams) -> Self {
        self.params.push((name.to_owned(), params));
        self
    }

    /// Adds a named DDR variant to the DDR axis.
    #[must_use]
    pub fn with_ddr_variant(mut self, name: &str, ddr: DdrConfig) -> Self {
        self.ddrs.push((name.to_owned(), ddr));
        self
    }

    /// Enables probe-timeline streaming at the given stride.
    #[must_use]
    pub fn with_snapshot_stride(mut self, stride: u64) -> Self {
        self.snapshot_stride = Some(stride);
        self
    }

    /// The number of lattice points [`CampaignSpec::expand`] will yield.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.scenarios.len()
            * self.models.len()
            * self.seeds.len().max(1)
            * self.params.len().max(1)
            * self.ddrs.len().max(1)
    }

    /// Expands the lattice into concrete run points, in a deterministic
    /// order (scenario-major, then model, params, DDR, seed).
    #[must_use]
    pub fn expand(&self) -> Vec<RunPoint> {
        let mut points = Vec::with_capacity(self.point_count());
        for scenario in &self.scenarios {
            for model in &self.models {
                for params in axis(&self.params) {
                    for ddr in axis(&self.ddrs) {
                        for seed in seed_axis(&self.seeds) {
                            let mut spec = scenario.clone();
                            let mut label = format!("{}/{}", scenario.name, model.id);
                            if let Some((name, value)) = params {
                                spec.params = value.clone();
                                label.push('/');
                                label.push_str(name);
                            }
                            if let Some((name, value)) = ddr {
                                spec.ddr = *value;
                                label.push('/');
                                label.push_str(name);
                            }
                            if let Some(seed) = seed {
                                spec.seed = seed;
                                label.push_str(&format!("/s{seed}"));
                            }
                            spec.name = label.clone();
                            let hash = point_hash(&spec, model);
                            points.push(RunPoint {
                                label,
                                spec,
                                model,
                                hash,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    /// Checks the campaign is runnable: non-empty axes and every point
    /// resolves to a buildable platform.
    ///
    /// # Errors
    ///
    /// A message naming the empty axis or the first unresolvable point.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenarios.is_empty() {
            return Err("campaign has no scenarios".to_owned());
        }
        if self.models.is_empty() {
            return Err("campaign has no models".to_owned());
        }
        for point in self.expand() {
            point
                .spec
                .resolve()
                .map_err(|e| format!("point '{}': {e}", point.label))?;
        }
        Ok(())
    }

    /// Content hash of the canonical campaign spec (identifies the
    /// campaign in its journal and directory).
    #[must_use]
    pub fn spec_hash(&self) -> String {
        content_hash_hex(&self.to_canon())
    }
}

fn axis<T>(variants: &[(String, T)]) -> Vec<Option<(&str, &T)>> {
    if variants.is_empty() {
        vec![None]
    } else {
        variants
            .iter()
            .map(|(name, value)| Some((name.as_str(), value)))
            .collect()
    }
}

fn seed_axis(seeds: &[u64]) -> Vec<Option<u64>> {
    if seeds.is_empty() {
        vec![None]
    } else {
        seeds.iter().copied().map(Some).collect()
    }
}

impl Canonical for CampaignSpec {
    fn to_canon(&self) -> CanonValue {
        let mut map = CanonValue::map();
        map.insert("name".to_owned(), CanonValue::str(&self.name));
        map.insert(
            "scenarios".to_owned(),
            CanonValue::Array(self.scenarios.iter().map(Canonical::to_canon).collect()),
        );
        map.insert(
            "models".to_owned(),
            CanonValue::Array(self.models.iter().map(Canonical::to_canon).collect()),
        );
        map.insert(
            "seeds".to_owned(),
            CanonValue::Array(self.seeds.iter().map(|&s| CanonValue::U64(s)).collect()),
        );
        map.insert(
            "params".to_owned(),
            CanonValue::Array(
                self.params
                    .iter()
                    .map(|(name, value)| {
                        let mut m = CanonValue::map();
                        m.insert("variant".to_owned(), CanonValue::str(name));
                        m.insert("value".to_owned(), value.to_canon());
                        CanonValue::Map(m)
                    })
                    .collect(),
            ),
        );
        map.insert(
            "ddrs".to_owned(),
            CanonValue::Array(
                self.ddrs
                    .iter()
                    .map(|(name, value)| {
                        let mut m = CanonValue::map();
                        m.insert("variant".to_owned(), CanonValue::str(name));
                        m.insert("value".to_owned(), value.to_canon());
                        CanonValue::Map(m)
                    })
                    .collect(),
            ),
        );
        map.insert(
            "snapshot_stride".to_owned(),
            self.snapshot_stride
                .map_or(CanonValue::Null, CanonValue::U64),
        );
        CanonValue::Map(map)
    }

    fn from_canon(value: &CanonValue) -> Result<Self, CanonError> {
        let scenarios = value
            .get("scenarios")?
            .as_array()
            .map_err(|e| e.within("scenarios"))?
            .iter()
            .map(ScenarioSpec::from_canon)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.within("scenarios"))?;
        let models = value
            .get("models")?
            .as_array()
            .map_err(|e| e.within("models"))?
            .iter()
            .map(<&ModelSpec>::from_canon)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.within("models"))?;
        let seeds = value
            .get("seeds")?
            .as_array()
            .map_err(|e| e.within("seeds"))?
            .iter()
            .map(CanonValue::as_u64)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.within("seeds"))?;
        let params = variant_axis(value, "params")?;
        let ddrs = variant_axis(value, "ddrs")?;
        let snapshot_stride = match value.get("snapshot_stride")? {
            CanonValue::Null => None,
            other => Some(other.as_u64().map_err(|e| e.within("snapshot_stride"))?),
        };
        Ok(CampaignSpec {
            name: value
                .get("name")?
                .as_str()
                .map_err(|e| e.within("name"))?
                .to_owned(),
            scenarios,
            models,
            seeds,
            params,
            ddrs,
            snapshot_stride,
        })
    }
}

fn variant_axis<T: Canonical>(
    value: &CanonValue,
    key: &str,
) -> Result<Vec<(String, T)>, CanonError> {
    value
        .get(key)?
        .as_array()
        .map_err(|e| e.within(key))?
        .iter()
        .map(|entry| {
            let name = entry.get("variant")?.as_str()?.to_owned();
            let value = T::from_canon(entry.get("value")?)?;
            Ok((name, value))
        })
        .collect::<Result<Vec<_>, CanonError>>()
        .map_err(|e| e.within(key))
}

/// One concrete lattice point of an expanded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPoint {
    /// Human-readable point label (also the resolved spec's name).
    pub label: String,
    /// The fully resolved scenario (seed/params/DDR axes applied).
    pub spec: ScenarioSpec,
    /// The registry entry to run the point on.
    pub model: &'static ModelSpec,
    /// Content hash identifying the experiment (label-free).
    pub hash: String,
}

/// The canonical, label-free encoding a point is hashed over: the
/// scenario with its `name` removed, plus the model identifier.
#[must_use]
pub fn point_canon(spec: &ScenarioSpec, model: &'static ModelSpec) -> CanonValue {
    let mut map = match spec.to_canon() {
        CanonValue::Map(map) => map,
        _ => unreachable!("ScenarioSpec encodes as a map"),
    };
    map.remove("name");
    let mut point = BTreeMap::new();
    point.insert("scenario".to_owned(), CanonValue::Map(map));
    point.insert("model".to_owned(), model.to_canon());
    CanonValue::Map(point)
}

/// The content hash of a (spec, seed, params, model) point.
#[must_use]
pub fn point_hash(spec: &ScenarioSpec, model: &'static ModelSpec) -> String {
    content_hash_hex(&point_canon(spec, model))
}

/// The hash of a point defined by an explicit [`Topology`] instead of a
/// registered model (the serve mode accepts raw topologies): the
/// topology's canonical encoding replaces the model tag.
#[must_use]
pub fn topology_point_hash(spec: &ScenarioSpec, topology: &Topology) -> String {
    let mut map = match spec.to_canon() {
        CanonValue::Map(map) => map,
        _ => unreachable!("ScenarioSpec encodes as a map"),
    };
    map.remove("name");
    let mut point = BTreeMap::new();
    point.insert("scenario".to_owned(), CanonValue::Map(map));
    point.insert("topology".to_owned(), topology.to_canon());
    content_hash_hex(&CanonValue::Map(point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbplus::{lookup, scenario};
    use std::collections::BTreeSet;

    fn model(id: &str) -> &'static ModelSpec {
        lookup(id).expect("registered")
    }

    fn base() -> ScenarioSpec {
        scenario("table2-speed").unwrap().with_transactions(20)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::new("unit")
            .with_scenario(base())
            .with_model(model("tlm"))
            .with_model(model("lt"))
            .with_seeds(vec![1, 2, 3])
            .with_params_variant("wb0", AhbPlusParams::ahb_plus().with_write_buffer_depth(0))
            .with_params_variant("wb8", AhbPlusParams::ahb_plus().with_write_buffer_depth(8))
            .with_ddr_variant("no-bi", DdrConfig::without_interleaving())
            .with_snapshot_stride(5_000)
    }

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let campaign = spec();
        let points = campaign.expand();
        assert_eq!(points.len(), campaign.point_count());
        assert_eq!(points.len(), 2 * 3 * 2);
        let hashes: BTreeSet<_> = points.iter().map(|p| p.hash.clone()).collect();
        assert_eq!(hashes.len(), points.len(), "all points distinct");
        let labels: BTreeSet<_> = points.iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels.len(), points.len(), "labels distinct too");
        assert!(points[0].label.starts_with("table2-speed/tlm/wb0/no-bi/s1"));
        campaign.validate().unwrap();
    }

    #[test]
    fn empty_axes_keep_the_scenario_defaults() {
        let campaign = CampaignSpec::new("minimal")
            .with_scenario(base())
            .with_model(model("tlm"));
        let points = campaign.expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].spec.seed, base().seed);
        assert_eq!(points[0].spec.params, base().params);
        assert_eq!(points[0].label, "table2-speed/tlm");
    }

    #[test]
    fn point_hash_ignores_the_label_but_nothing_else() {
        let a = base();
        let b = base().named("same-experiment-different-name");
        let tlm = model("tlm");
        assert_eq!(point_hash(&a, tlm), point_hash(&b, tlm));
        assert_ne!(
            point_hash(&a, tlm),
            point_hash(&a.clone().with_seed(99), tlm)
        );
        assert_ne!(point_hash(&a, tlm), point_hash(&a, model("lt")));
        assert_ne!(
            point_hash(&a, tlm),
            topology_point_hash(&a, &Topology::het_2x2())
        );
        assert_ne!(
            topology_point_hash(&a, &Topology::het_2x2()),
            topology_point_hash(&a, &Topology::tlm_non_posted_reads())
        );
    }

    #[test]
    fn point_hash_of_a_registry_entry_is_pinned() {
        // The hash covers the registry name, so it must not move when the
        // registry's representation does: a changed value would orphan
        // every cached result.
        assert_eq!(point_hash(&base(), model("tlm")), "63b7c9d324ad854b");
    }

    #[test]
    fn duplicate_axis_entries_collapse_to_the_same_hash() {
        let campaign = CampaignSpec::new("dupes")
            .with_scenario(base())
            .with_model(model("tlm"))
            .with_seeds(vec![5, 5, 5]);
        let points = campaign.expand();
        assert_eq!(points.len(), 3);
        let hashes: BTreeSet<_> = points.iter().map(|p| p.hash.clone()).collect();
        assert_eq!(hashes.len(), 1, "identical seeds share one experiment");
    }

    #[test]
    fn campaign_spec_round_trips_canonically() {
        let campaign = spec();
        let encoded = campaign.to_canon().to_canonical_json();
        let decoded = CampaignSpec::from_canon(&analysis::canon::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, campaign);
        assert_eq!(decoded.spec_hash(), campaign.spec_hash());
    }

    #[test]
    fn validation_names_the_failing_axis_or_point() {
        let no_models = CampaignSpec::new("x").with_scenario(base());
        assert!(no_models.validate().unwrap_err().contains("no models"));
        let no_scenarios = CampaignSpec::new("x").with_model(model("tlm"));
        assert!(no_scenarios
            .validate()
            .unwrap_err()
            .contains("no scenarios"));
        let bad_pattern = CampaignSpec::new("x")
            .with_scenario(ScenarioSpec::new("broken", "no-such-pattern", 5, 1))
            .with_model(model("tlm"));
        let message = bad_pattern.validate().unwrap_err();
        assert!(message.contains("broken"), "{message}");
        assert!(message.contains("no-such-pattern"), "{message}");
    }
}
