//! Global registry of named mechanisms, matchers and their pairings.
//!
//! The paper's compared algorithms (Sec. IV-A: `lap-gr`, `lap-hg`, `tbf`)
//! and this repository's ablations are ordinary named entries here, each
//! carrying its figure label; the registry also exposes the raw mechanism
//! and matcher catalogs so any `mechanism × matcher` product can be
//! composed by name (the CLI's `--mechanism X --matcher Y`), e.g. `exp` ×
//! `chain` or `hst` × `capacity`.
//!
//! # One generic [`Catalog`] per axis
//!
//! Every named axis — algorithm specs, mechanisms, static matchers,
//! dynamic matchers, scenarios, fault plans — is one [`Catalog<T>`]
//! sharing a single lookup implementation: case-insensitive resolution
//! (`TBF` → `tbf`) and a typed [`PipelineError::UnknownEntry`] error that
//! names the axis and lists the sorted candidates. Adding a new axis is a
//! one-line field plus its entries — there is no per-axis lookup code left
//! to copy.
//!
//! The dynamic-matcher catalog also holds `dynamic-opt`, the clairvoyant
//! offline optimum over the revealed shift/task timeline, the one entry
//! whose [`DynamicAssignStrategy::is_oracle`] holds. It is a measurement
//! denominator, not an online rule: [`Registry::require_dynamic_matcher`]
//! refuses it with a typed [`PipelineError::RoleMismatch`] at resolve time
//! instead of a runtime panic, and only the ratio surfaces resolve it,
//! through [`Registry::dynamic_matcher_any`].

use crate::algorithm::{
    AssignStrategy, DynamicAssignStrategy, DynamicOptStrategy, Mechanism, OfflineOptimalStrategy,
    PipelineError, PoolStrategy, ReportMechanism,
};
use crate::fault::FaultPlan;
use crate::scenario::{Scenario, Workload};
use std::sync::{Arc, OnceLock};

/// The registry name of the default dynamic ratio oracle.
pub const DEFAULT_DYNAMIC_ORACLE: &str = "dynamic-opt";

/// A named `mechanism × matcher` pairing.
#[derive(Clone)]
pub struct AlgorithmSpec {
    name: String,
    label: String,
    /// Stage 1: the privacy mechanism.
    pub mechanism: Arc<dyn ReportMechanism>,
    /// Stage 2: the online matcher.
    pub matcher: Arc<dyn AssignStrategy>,
}

impl AlgorithmSpec {
    /// Creates a named spec.
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        mechanism: Arc<dyn ReportMechanism>,
        matcher: Arc<dyn AssignStrategy>,
    ) -> Self {
        AlgorithmSpec {
            name: name.into(),
            label: label.into(),
            mechanism,
            matcher,
        }
    }

    /// Composes an ad-hoc spec named `<mechanism>+<matcher>`.
    pub fn compose(mechanism: Arc<dyn ReportMechanism>, matcher: Arc<dyn AssignStrategy>) -> Self {
        let name = format!("{}+{}", mechanism.name(), matcher.name());
        AlgorithmSpec {
            label: name.clone(),
            name,
            mechanism,
            matcher,
        }
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Figure label (`TBF`, `Lap-GR`, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True when either stage needs the server's published artifacts.
    pub fn needs_server(&self) -> bool {
        self.mechanism.needs_server() || self.matcher.needs_server()
    }
}

impl std::fmt::Debug for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmSpec")
            .field("name", &self.name)
            .field("mechanism", &self.mechanism.name())
            .field("matcher", &self.matcher.name())
            .finish()
    }
}

/// Anything a [`Catalog`] can index: a value with a canonical (lower-case)
/// registry name.
pub trait CatalogItem {
    /// Canonical registry name.
    fn catalog_name(&self) -> &str;
}

impl CatalogItem for Arc<dyn ReportMechanism> {
    fn catalog_name(&self) -> &str {
        self.as_ref().name()
    }
}

impl CatalogItem for Arc<dyn AssignStrategy> {
    fn catalog_name(&self) -> &str {
        self.as_ref().name()
    }
}

impl CatalogItem for Arc<dyn DynamicAssignStrategy> {
    fn catalog_name(&self) -> &str {
        self.as_ref().name()
    }
}

impl CatalogItem for Arc<dyn Scenario> {
    fn catalog_name(&self) -> &str {
        self.as_ref().name()
    }
}

impl CatalogItem for FaultPlan {
    fn catalog_name(&self) -> &str {
        self.name()
    }
}

impl CatalogItem for AlgorithmSpec {
    fn catalog_name(&self) -> &str {
        &self.name
    }
}

/// One named registry axis: the single, shared lookup implementation
/// behind every `require_*` surface.
///
/// Lookup is case-insensitive; misses produce a typed
/// [`PipelineError::UnknownEntry`] naming the axis (`kind`) and listing
/// the sorted candidates.
pub struct Catalog<T> {
    kind: &'static str,
    values: Vec<T>,
}

impl<T: CatalogItem + Clone> Catalog<T> {
    fn new(kind: &'static str, values: Vec<T>) -> Self {
        let catalog = Catalog { kind, values };
        debug_assert!(
            catalog
                .values
                .iter()
                .enumerate()
                .all(|(i, v)| catalog.index_of(v.catalog_name()) == Some(i)),
            "duplicate {kind} name"
        );
        catalog
    }

    /// The axis name this catalog reports in errors (`mechanism`,
    /// `scenario`, ...).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every entry in registration order.
    pub fn all(&self) -> &[T] {
        &self.values
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        let wanted = name.to_ascii_lowercase();
        self.values.iter().position(|v| v.catalog_name() == wanted)
    }

    /// Every registered name, sorted — the candidate listing of
    /// [`PipelineError::UnknownEntry`].
    pub fn sorted_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .values
            .iter()
            .map(|v| v.catalog_name().to_string())
            .collect();
        names.sort_unstable();
        names
    }

    /// Case-insensitive lookup with the typed listing-rich error.
    pub fn resolve(&self, name: &str) -> Result<T, PipelineError> {
        self.index_of(name)
            .map(|i| self.values[i].clone())
            .ok_or_else(|| PipelineError::UnknownEntry {
                kind: self.kind,
                name: name.to_string(),
                known: self.sorted_names(),
            })
    }
}

/// The catalogue of mechanisms, matchers and named pairings.
pub struct Registry {
    specs: Catalog<AlgorithmSpec>,
    mechanisms: Catalog<Arc<dyn ReportMechanism>>,
    matchers: Catalog<Arc<dyn AssignStrategy>>,
    dynamic_matchers: Catalog<Arc<dyn DynamicAssignStrategy>>,
    scenarios: Catalog<Arc<dyn Scenario>>,
    fault_plans: Catalog<FaultPlan>,
}

impl Registry {
    /// All named specs, in presentation order (paper algorithms first).
    pub fn specs(&self) -> &[AlgorithmSpec] {
        self.specs.all()
    }

    /// All registered mechanisms.
    pub fn mechanisms(&self) -> &[Arc<dyn ReportMechanism>] {
        self.mechanisms.all()
    }

    /// All registered matchers.
    pub fn matchers(&self) -> &[Arc<dyn AssignStrategy>] {
        self.matchers.all()
    }

    /// All online dynamic matchers (stage 2 of the shifting-fleet
    /// pipeline, [`crate::dynamic::run_dynamic_spec`]); the `dynamic-opt`
    /// oracle is excluded — see [`Registry::dynamic_matcher_catalog`] for
    /// the full axis.
    pub fn dynamic_matchers(&self) -> Vec<Arc<dyn DynamicAssignStrategy>> {
        self.dynamic_matchers
            .all()
            .iter()
            .filter(|m| !m.is_oracle())
            .cloned()
            .collect()
    }

    /// The full dynamic-matcher catalog, the oracle included.
    pub fn dynamic_matcher_catalog(&self) -> &Catalog<Arc<dyn DynamicAssignStrategy>> {
        &self.dynamic_matchers
    }

    /// Case-insensitive spec lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_spec(&self, name: &str) -> Result<AlgorithmSpec, PipelineError> {
        self.specs.resolve(name)
    }

    /// Case-insensitive mechanism lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_mechanism(&self, name: &str) -> Result<Arc<dyn ReportMechanism>, PipelineError> {
        self.mechanisms.resolve(name)
    }

    /// Case-insensitive matcher lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_matcher(&self, name: &str) -> Result<Arc<dyn AssignStrategy>, PipelineError> {
        self.matchers.resolve(name)
    }

    /// All registered workload scenarios (the spatial+temporal axis of
    /// [`crate::scenario`]).
    pub fn scenarios(&self) -> &[Arc<dyn Scenario>] {
        self.scenarios.all()
    }

    /// Case-insensitive scenario lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_scenario(&self, name: &str) -> Result<Arc<dyn Scenario>, PipelineError> {
        self.scenarios.resolve(name)
    }

    /// All registered serve fault plans (the deterministic-chaos axis of
    /// [`crate::fault`]).
    pub fn fault_plans(&self) -> &[FaultPlan] {
        self.fault_plans.all()
    }

    /// Case-insensitive fault-plan lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_fault_plan(&self, name: &str) -> Result<FaultPlan, PipelineError> {
        self.fault_plans.resolve(name)
    }

    /// Dynamic matcher lookup for a position that drives a fleet: asking
    /// for the oracle here is a typed [`PipelineError::RoleMismatch`].
    pub fn require_dynamic_matcher(
        &self,
        name: &str,
    ) -> Result<Arc<dyn DynamicAssignStrategy>, PipelineError> {
        let matcher = self.dynamic_matchers.resolve(name)?;
        if matcher.is_oracle() {
            return Err(PipelineError::oracle_only(matcher.name()));
        }
        Ok(matcher)
    }

    /// Dynamic matcher lookup across the whole catalog — the ratio
    /// surfaces, where the oracle may legitimately sit in matcher position
    /// (its cell measures the denominator against itself, ratio exactly 1).
    pub fn dynamic_matcher_any(
        &self,
        name: &str,
    ) -> Result<Arc<dyn DynamicAssignStrategy>, PipelineError> {
        self.dynamic_matchers.resolve(name)
    }

    /// Composes a free `mechanism × matcher` pairing by name.
    pub fn compose(&self, mechanism: &str, matcher: &str) -> Result<AlgorithmSpec, PipelineError> {
        let mech = self.mechanisms.resolve(mechanism)?;
        let strat = self.matchers.resolve(matcher)?;
        Ok(AlgorithmSpec::compose(mech, strat))
    }
}

/// The process-wide registry (built once, immutable afterwards).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(build)
}

fn build() -> Registry {
    let laplace: Arc<dyn ReportMechanism> = Arc::new(Mechanism::Laplace);
    let hst: Arc<dyn ReportMechanism> = Arc::new(Mechanism::HstWalk);
    let exp: Arc<dyn ReportMechanism> = Arc::new(Mechanism::Exponential);
    let identity: Arc<dyn ReportMechanism> = Arc::new(Mechanism::Identity);
    let blind: Arc<dyn ReportMechanism> = Arc::new(Mechanism::Blind);

    // The online rules fill the pools the dynamic matchers below run: the
    // k-d pool under both planar names, the tree pool under `hst-greedy`,
    // `hst-rand` (drawing among the nearest workers), `chain` (the chain
    // rule ends at greedy's worker in the tree metric) and `capacity`, and
    // the random pool under `random`.
    let greedy: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::GREEDY);
    let kd: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::KD_GREEDY);
    let hst_greedy: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::HST_GREEDY);
    let hst_rand: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::HST_RAND);
    let chain: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::CHAIN);
    let capacity: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::CAPACITY);
    let random: Arc<dyn AssignStrategy> = Arc::new(PoolStrategy::RANDOM);
    let offline_opt: Arc<dyn AssignStrategy> = Arc::new(OfflineOptimalStrategy);

    let specs = vec![
        // The paper's compared algorithms (Sec. IV-A)...
        AlgorithmSpec::new("lap-gr", "Lap-GR", laplace.clone(), greedy.clone()),
        AlgorithmSpec::new("lap-hg", "Lap-HG", laplace.clone(), hst_greedy.clone()),
        AlgorithmSpec::new("tbf", "TBF", hst.clone(), hst_greedy.clone()),
        // ...this repository's ablations/extensions...
        AlgorithmSpec::new("exp-hg", "Exp-HG", exp.clone(), hst_greedy.clone()),
        AlgorithmSpec::new("tbf-rand", "TBF-Rand", hst.clone(), hst_rand.clone()),
        AlgorithmSpec::new("tbf-chain", "TBF-Chain", hst.clone(), chain.clone()),
        AlgorithmSpec::new("random", "Random", blind.clone(), random.clone()),
        // ...and pairings the closed enum could not express.
        AlgorithmSpec::new("exp-chain", "Exp-Chain", exp.clone(), chain.clone()),
        AlgorithmSpec::new("tbf-cap", "TBF-Cap", hst.clone(), capacity.clone()),
        AlgorithmSpec::new("lap-kd", "Lap-KD", laplace.clone(), kd.clone()),
        // The exact offline optimum on true locations: the competitive-ratio
        // denominator as a runnable pairing (ratio = 1.0 by construction).
        AlgorithmSpec::new("opt", "OPT", identity.clone(), offline_opt.clone()),
    ];

    let dynamic_matchers: Vec<Arc<dyn DynamicAssignStrategy>> = vec![
        Arc::new(PoolStrategy::DYNAMIC_HST_GREEDY),
        Arc::new(PoolStrategy::KD_REBUILD),
        Arc::new(PoolStrategy::DYNAMIC_RANDOM),
        // The clairvoyant offline optimum: the ratio-under-churn
        // denominator, which only the ratio surfaces resolve.
        Arc::new(DynamicOptStrategy),
    ];

    let scenarios: Vec<Arc<dyn Scenario>> = vec![
        Arc::new(Workload::Uniform),
        Arc::new(Workload::Normal),
        Arc::new(Workload::Hotspot),
        Arc::new(Workload::PoissonDisk),
        Arc::new(Workload::AdversarialCell),
    ];

    let fault_plans = vec![
        FaultPlan::NoFault,
        FaultPlan::FlakyWire,
        FaultPlan::DupStorm,
        FaultPlan::Burst,
    ];

    Registry {
        specs: Catalog::new("algorithm", specs),
        mechanisms: Catalog::new("mechanism", vec![laplace, hst, exp, identity, blind]),
        matchers: Catalog::new(
            "matcher",
            vec![
                greedy,
                kd,
                hst_greedy,
                hst_rand,
                chain,
                capacity,
                random,
                offline_opt,
            ],
        ),
        dynamic_matchers: Catalog::new("dynamic matcher", dynamic_matchers),
        scenarios: Catalog::new("scenario", scenarios),
        fault_plans: Catalog::new("fault plan", fault_plans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_names_resolve_case_insensitively() {
        for name in ["tbf", "TBF", "Lap-GR", "tbf-chain", "random"] {
            assert!(
                registry().require_spec(name).is_ok(),
                "{name} should resolve"
            );
        }
        for name in ["lapgr", "TbfChain", "nope"] {
            let err = registry().require_spec(name).unwrap_err();
            assert!(
                matches!(err, PipelineError::UnknownEntry { .. }),
                "{name}: got {err}"
            );
        }
    }

    #[test]
    fn require_spec_lists_known_names() {
        let err = registry().require_spec("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bogus") && msg.contains("tbf") && msg.contains("exp-chain"));
    }

    #[test]
    fn compose_builds_novel_pairings() {
        let spec = registry().compose("exp", "chain").unwrap();
        assert_eq!(spec.name(), "exp+chain");
        assert!(spec.needs_server());
        assert!(registry().compose("exp", "bogus").is_err());
        assert!(registry().compose("bogus", "chain").is_err());
    }

    #[test]
    fn catalogue_is_complete() {
        let names: Vec<&str> = registry().specs().iter().map(|s| s.name()).collect();
        for expected in [
            "lap-gr",
            "lap-hg",
            "tbf",
            "exp-hg",
            "tbf-rand",
            "tbf-chain",
            "random",
            "exp-chain",
            "tbf-cap",
            "lap-kd",
            "opt",
        ] {
            assert!(names.contains(&expected), "missing spec {expected}");
        }
        assert_eq!(registry().mechanisms().len(), 5);
        assert_eq!(registry().matchers().len(), 8);
    }

    #[test]
    fn dynamic_matchers_are_catalogued() {
        let matchers = registry().dynamic_matchers();
        let names: Vec<&str> = matchers.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["hst-greedy", "kd-rebuild", "random"]);
        let hst = registry()
            .require_dynamic_matcher("HST-Greedy")
            .expect("resolves");
        assert!(hst.needs_server());
        assert!(!registry()
            .require_dynamic_matcher("kd-rebuild")
            .unwrap()
            .needs_server());
        let err = registry()
            .require_dynamic_matcher("bogus")
            .map(|m| m.name())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bogus") && msg.contains("kd-rebuild"), "{msg}");
    }

    #[test]
    fn the_oracle_is_catalogued_but_not_pairable() {
        // Visible in the full catalog as the one oracle...
        let catalog = registry().dynamic_matcher_catalog();
        assert_eq!(catalog.kind(), "dynamic matcher");
        assert_eq!(catalog.len(), 4);
        let oracles: Vec<&str> = catalog
            .all()
            .iter()
            .filter(|m| m.is_oracle())
            .map(|m| m.name())
            .collect();
        assert_eq!(oracles, [DEFAULT_DYNAMIC_ORACLE]);
        // ...resolvable on the ratio surfaces (case-insensitively)...
        let oracle = registry()
            .dynamic_matcher_any("Dynamic-OPT")
            .expect("resolves");
        assert_eq!(oracle.name(), "dynamic-opt");
        assert!(oracle.is_oracle());
        assert!(!oracle.needs_server());
        // ...but a typed role error in pairing position, where an online
        // matcher is no oracle.
        let err = registry()
            .require_dynamic_matcher(DEFAULT_DYNAMIC_ORACLE)
            .map(|m| m.name())
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::RoleMismatch { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("oracle-only"), "{err}");
        let online = registry().dynamic_matcher_any("hst-greedy").unwrap();
        assert!(!online.is_oracle());
        // Unknown names still report the axis with sorted candidates.
        let err = registry()
            .dynamic_matcher_any("bogus")
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::UnknownEntry { .. }),
            "got {err}"
        );
    }

    #[test]
    fn unknown_entry_candidates_are_sorted() {
        let err = registry()
            .require_scenario("bogus")
            .map(|_| ())
            .unwrap_err();
        let PipelineError::UnknownEntry { kind, known, .. } = &err else {
            panic!("expected UnknownEntry, got {err}");
        };
        assert_eq!(*kind, "scenario");
        let mut sorted = known.clone();
        sorted.sort();
        assert_eq!(*known, sorted, "candidates must be sorted");
    }

    #[test]
    fn scenarios_are_catalogued() {
        let names: Vec<&str> = registry().scenarios().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "uniform",
                "normal",
                "hotspot",
                "poisson-disk",
                "adversarial-cell"
            ]
        );
        let hotspot = registry()
            .require_scenario("HotSpot")
            .expect("case-insensitive");
        assert_eq!(hotspot.name(), "hotspot");
        let err = registry()
            .require_scenario("bogus")
            .map(|_| ())
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown scenario `bogus`")
                && msg.contains("poisson-disk")
                && msg.contains("uniform"),
            "{msg}"
        );
    }

    #[test]
    fn registered_mechanisms_match_their_table() {
        use crate::algorithm::Report;
        use pombm_geom::{seeded_rng, Point};
        use pombm_privacy::{Epsilon, PlanarLaplace};

        let at = Point::new(3.0, 4.0);
        let epsilon = Epsilon::new(0.6);
        let noisy = PlanarLaplace::new(epsilon).obfuscate(&at, &mut seeded_rng(1, 0));
        // Name, needs_server, and what a reporter built without a server
        // makes of `at`.
        let table = [
            ("laplace", false, Ok(Report::Planar(noisy))),
            (
                "hst",
                true,
                Err(PipelineError::MissingServer("hst mechanism")),
            ),
            (
                "exp",
                true,
                Err(PipelineError::MissingServer("exp mechanism")),
            ),
            ("identity", false, Ok(Report::Planar(at))),
            ("blind", false, Ok(Report::Blind)),
        ];
        let registered = registry().mechanisms();
        assert_eq!(registered.len(), table.len());
        for (mechanism, (name, needs_server, report)) in registered.iter().zip(table) {
            assert_eq!(mechanism.name(), name);
            assert_eq!(mechanism.needs_server(), needs_server, "{name}");
            let made = mechanism
                .reporter(epsilon, None)
                .map(|mut reporter| reporter.report(&at, &mut seeded_rng(1, 0)));
            assert_eq!(made, report, "{name}");
        }
    }

    #[test]
    fn registered_fault_plans_match_their_table() {
        use crate::fault::FAULT_STREAM;
        use crate::serve::ServeRequest;
        use pombm_geom::seeded_rng;

        let script: Vec<_> = (0..16)
            .map(|task| {
                let at = task as f64;
                ServeRequest::Task {
                    task,
                    at,
                    x: 1.0,
                    y: 2.0,
                }
                .encode()
            })
            .collect();
        // Name, and whether injecting at rate 0.5 draws from the RNG.
        let table = [
            (FaultPlan::NoFault, "none", false),
            (FaultPlan::FlakyWire, "flaky-wire", true),
            (FaultPlan::DupStorm, "dup-storm", true),
            (FaultPlan::Burst, "burst", false),
        ];
        assert_eq!(registry().fault_plans(), table.map(|(plan, ..)| plan));
        for (plan, name, draws) in table {
            assert_eq!(plan.name(), name);
            let mut rng = seeded_rng(3, FAULT_STREAM);
            plan.inject(script.clone(), 0.5, &mut rng);
            assert_eq!(rng != seeded_rng(3, FAULT_STREAM), draws, "{name}");
        }
    }

    #[test]
    fn fault_plans_are_catalogued() {
        let names: Vec<&str> = registry().fault_plans().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["none", "flaky-wire", "dup-storm", "burst"]);
        let flaky = registry()
            .require_fault_plan("Flaky-Wire")
            .expect("case-insensitive");
        assert_eq!(flaky.name(), "flaky-wire");
        let err = registry()
            .require_fault_plan("bogus")
            .map(|_| ())
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown fault plan `bogus`")
                && msg.contains("dup-storm")
                && msg.contains("burst"),
            "{msg}"
        );
    }

    #[test]
    fn offline_opt_is_registered_as_a_matcher() {
        let matcher = registry()
            .require_matcher("offline-opt")
            .expect("registered");
        assert_eq!(matcher.name(), "offline-opt");
        assert!(!matcher.needs_server());
        let spec = registry().require_spec("opt").expect("named pairing");
        assert_eq!(spec.mechanism.name(), "identity");
        assert_eq!(spec.matcher.name(), "offline-opt");
        assert!(!spec.needs_server());
    }
}
