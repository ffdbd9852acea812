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
//! sharing a single lookup implementation: case-insensitive resolution,
//! alias awareness (`lapgr` → `lap-gr`, `TBF` → `tbf`), and a typed
//! [`PipelineError::UnknownEntry`] error that names the axis and lists the
//! sorted candidates. Adding a new axis is a one-line field plus its
//! registrations — there is no per-axis lookup code left to copy.
//!
//! Catalog entries carry a [`Role`] capability. Most entries are
//! [`Role::Pairing`] — free to combine with anything on the other axis.
//! [`Role::OracleOnly`] marks measurement denominators: `dynamic-opt`, the
//! clairvoyant offline optimum over the revealed shift/task timeline, is
//! registered at oracle position so that pairing it like an online matcher
//! is a typed [`PipelineError::RoleMismatch`] at resolve time instead of a
//! runtime panic. Ratio surfaces resolve it through
//! [`Registry::dynamic_oracle`].

use crate::algorithm::{
    AssignStrategy, BlindMechanism, CapacitatedStrategy, ChainStrategy, DynamicAssignStrategy,
    DynamicHstGreedyStrategy, DynamicKdRebuildStrategy, DynamicOptStrategy, DynamicRandomStrategy,
    ExponentialReportMechanism, HstGreedyStrategy, HstWalkMechanism, IdentityMechanism,
    KdGreedyStrategy, LaplaceMechanism, OfflineOptimalStrategy, PipelineError,
    RandomAssignStrategy, RandomizedGreedyStrategy, ReportMechanism,
};
use crate::fault::{Burst, DupStorm, FaultPlan, FlakyWire, NoFault};
use crate::scenario::{
    AdversarialCellScenario, HotspotScenario, NormalScenario, PoissonDiskScenario, Scenario,
    UniformScenario,
};
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

/// What positions a [`Catalog`] entry may occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Freely combinable with the other axis (the default).
    Pairing,
    /// A measurement denominator: resolvable only through an oracle
    /// surface (e.g. [`Registry::dynamic_oracle`]), never paired like an
    /// online component.
    OracleOnly,
}

impl Role {
    /// Stable label used in error messages and listings.
    pub fn label(self) -> &'static str {
        match self {
            Role::Pairing => "pairing",
            Role::OracleOnly => "oracle-only",
        }
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

impl CatalogItem for Arc<dyn FaultPlan> {
    fn catalog_name(&self) -> &str {
        self.as_ref().name()
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
/// Lookup is case-insensitive and alias-aware; misses produce a typed
/// [`PipelineError::UnknownEntry`] naming the axis (`kind`) and listing
/// the sorted candidates.
pub struct Catalog<T> {
    kind: &'static str,
    values: Vec<T>,
    roles: Vec<Role>,
    aliases: Vec<(&'static str, &'static str)>,
}

fn normalize(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl<T: CatalogItem + Clone> Catalog<T> {
    fn new(kind: &'static str) -> Self {
        Catalog {
            kind,
            values: Vec::new(),
            roles: Vec::new(),
            aliases: Vec::new(),
        }
    }

    /// Registers a [`Role::Pairing`] entry.
    fn register(&mut self, value: T) {
        self.register_as(Role::Pairing, value);
    }

    /// Registers an entry with an explicit role.
    fn register_as(&mut self, role: Role, value: T) {
        debug_assert!(
            self.index_of(value.catalog_name()).is_none(),
            "duplicate {} `{}`",
            self.kind,
            value.catalog_name()
        );
        self.values.push(value);
        self.roles.push(role);
    }

    /// Registers a legacy alias resolving to `target`.
    fn alias(&mut self, from: &'static str, to: &'static str) {
        self.aliases.push((from, to));
    }

    /// The axis name this catalog reports in errors (`mechanism`,
    /// `scenario`, ...).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Number of registered entries, every role included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every entry in registration order, every role included.
    pub fn all(&self) -> &[T] {
        &self.values
    }

    /// `(entry, role)` pairs in registration order.
    pub fn entries(&self) -> impl Iterator<Item = (&T, Role)> {
        self.values.iter().zip(self.roles.iter().copied())
    }

    /// Entries holding `role`, in registration order.
    pub fn with_role(&self, role: Role) -> Vec<T> {
        self.entries()
            .filter(|&(_, r)| r == role)
            .map(|(v, _)| v.clone())
            .collect()
    }

    fn canonical(&self, name: &str) -> String {
        let wanted = normalize(name);
        self.aliases
            .iter()
            .find(|(alias, _)| *alias == wanted)
            .map(|&(_, target)| target.to_string())
            .unwrap_or(wanted)
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        let wanted = self.canonical(name);
        self.values.iter().position(|v| v.catalog_name() == wanted)
    }

    /// The role of `name`, if registered.
    pub fn role_of(&self, name: &str) -> Option<Role> {
        self.index_of(name).map(|i| self.roles[i])
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

    fn unknown(&self, name: &str) -> PipelineError {
        PipelineError::UnknownEntry {
            kind: self.kind,
            name: name.to_string(),
            known: self.sorted_names(),
        }
    }

    /// Case-insensitive, alias-aware lookup across every role, with the
    /// typed listing-rich error.
    pub fn resolve(&self, name: &str) -> Result<T, PipelineError> {
        self.index_of(name)
            .map(|i| self.values[i].clone())
            .ok_or_else(|| self.unknown(name))
    }

    /// Lookup restricted to entries holding `wanted`: a registered name
    /// with a different role is a typed [`PipelineError::RoleMismatch`],
    /// not an unknown entry.
    pub fn resolve_role(&self, name: &str, wanted: Role) -> Result<T, PipelineError> {
        let i = self.index_of(name).ok_or_else(|| self.unknown(name))?;
        if self.roles[i] != wanted {
            return Err(PipelineError::RoleMismatch {
                kind: self.kind,
                name: self.values[i].catalog_name().to_string(),
                role: self.roles[i].label(),
                wanted: wanted.label(),
            });
        }
        Ok(self.values[i].clone())
    }
}

/// The catalogue of mechanisms, matchers and named pairings.
pub struct Registry {
    specs: Catalog<AlgorithmSpec>,
    mechanisms: Catalog<Arc<dyn ReportMechanism>>,
    matchers: Catalog<Arc<dyn AssignStrategy>>,
    dynamic_matchers: Catalog<Arc<dyn DynamicAssignStrategy>>,
    scenarios: Catalog<Arc<dyn Scenario>>,
    fault_plans: Catalog<Arc<dyn FaultPlan>>,
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

    /// All pairing dynamic matchers (stage 2 of the shifting-fleet
    /// pipeline, [`crate::dynamic::run_dynamic_spec`]); the oracle-only
    /// `dynamic-opt` entry is excluded — see
    /// [`Registry::dynamic_matcher_catalog`] for the full axis.
    pub fn dynamic_matchers(&self) -> Vec<Arc<dyn DynamicAssignStrategy>> {
        self.dynamic_matchers.with_role(Role::Pairing)
    }

    /// The full dynamic-matcher catalog, roles included.
    pub fn dynamic_matcher_catalog(&self) -> &Catalog<Arc<dyn DynamicAssignStrategy>> {
        &self.dynamic_matchers
    }

    /// Case-insensitive, alias-aware spec lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_spec(&self, name: &str) -> Result<AlgorithmSpec, PipelineError> {
        self.specs.resolve(name)
    }

    /// Case-insensitive, alias-aware mechanism lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_mechanism(&self, name: &str) -> Result<Arc<dyn ReportMechanism>, PipelineError> {
        self.mechanisms.resolve(name)
    }

    /// Case-insensitive, alias-aware matcher lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_matcher(&self, name: &str) -> Result<Arc<dyn AssignStrategy>, PipelineError> {
        self.matchers.resolve(name)
    }

    /// All registered workload scenarios (the spatial+temporal axis of
    /// [`crate::scenario`]).
    pub fn scenarios(&self) -> &[Arc<dyn Scenario>] {
        self.scenarios.all()
    }

    /// Case-insensitive, alias-aware scenario lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_scenario(&self, name: &str) -> Result<Arc<dyn Scenario>, PipelineError> {
        self.scenarios.resolve(name)
    }

    /// All registered serve fault plans (the deterministic-chaos axis of
    /// [`crate::fault`]).
    pub fn fault_plans(&self) -> &[Arc<dyn FaultPlan>] {
        self.fault_plans.all()
    }

    /// Case-insensitive, alias-aware fault-plan lookup; a miss is a typed
    /// [`PipelineError::UnknownEntry`] listing the candidates.
    pub fn require_fault_plan(&self, name: &str) -> Result<Arc<dyn FaultPlan>, PipelineError> {
        self.fault_plans.resolve(name)
    }

    /// Dynamic matcher lookup restricted to pairing entries: asking for
    /// the oracle here is a typed [`PipelineError::RoleMismatch`].
    pub fn require_dynamic_matcher(
        &self,
        name: &str,
    ) -> Result<Arc<dyn DynamicAssignStrategy>, PipelineError> {
        self.dynamic_matchers.resolve_role(name, Role::Pairing)
    }

    /// Dynamic matcher lookup across every role — the ratio surfaces,
    /// where the oracle may legitimately sit in matcher position (its cell
    /// measures the denominator against itself, ratio exactly 1).
    pub fn dynamic_matcher_any(
        &self,
        name: &str,
    ) -> Result<Arc<dyn DynamicAssignStrategy>, PipelineError> {
        self.dynamic_matchers.resolve(name)
    }

    /// Resolves a dynamic ratio oracle by name ([`DEFAULT_DYNAMIC_ORACLE`]
    /// unless configured otherwise): only [`Role::OracleOnly`] entries
    /// qualify, so a pairing matcher in oracle position is a typed
    /// [`PipelineError::RoleMismatch`].
    pub fn dynamic_oracle(
        &self,
        name: &str,
    ) -> Result<Arc<dyn DynamicAssignStrategy>, PipelineError> {
        self.dynamic_matchers.resolve_role(name, Role::OracleOnly)
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
    let laplace: Arc<dyn ReportMechanism> = Arc::new(LaplaceMechanism);
    let hst: Arc<dyn ReportMechanism> = Arc::new(HstWalkMechanism);
    let exp: Arc<dyn ReportMechanism> = Arc::new(ExponentialReportMechanism);
    let identity: Arc<dyn ReportMechanism> = Arc::new(IdentityMechanism);
    let blind: Arc<dyn ReportMechanism> = Arc::new(BlindMechanism);

    // One k-d-tree strategy under both planar names.
    let greedy: Arc<dyn AssignStrategy> = Arc::new(KdGreedyStrategy::GREEDY);
    let kd: Arc<dyn AssignStrategy> = Arc::new(KdGreedyStrategy::KD_GREEDY);
    let hst_greedy: Arc<dyn AssignStrategy> = Arc::new(HstGreedyStrategy);
    let hst_rand: Arc<dyn AssignStrategy> = Arc::new(RandomizedGreedyStrategy);
    let chain: Arc<dyn AssignStrategy> = Arc::new(ChainStrategy);
    let capacity: Arc<dyn AssignStrategy> = Arc::new(CapacitatedStrategy);
    let random: Arc<dyn AssignStrategy> = Arc::new(RandomAssignStrategy);
    let offline_opt: Arc<dyn AssignStrategy> = Arc::new(OfflineOptimalStrategy);

    let mut specs = Catalog::new("algorithm");
    for spec in [
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
    ] {
        specs.register(spec);
    }
    for (from, to) in [
        ("lapgr", "lap-gr"),
        ("laphg", "lap-hg"),
        ("exphg", "exp-hg"),
        ("tbfrand", "tbf-rand"),
        ("tbfchain", "tbf-chain"),
        ("expchain", "exp-chain"),
        ("tbfcap", "tbf-cap"),
        ("lapkd", "lap-kd"),
        ("random-floor", "random"),
    ] {
        specs.alias(from, to);
    }

    let mut mechanisms = Catalog::new("mechanism");
    for m in [laplace, hst, exp, identity, blind] {
        mechanisms.register(m);
    }

    let mut matchers = Catalog::new("matcher");
    for m in [
        greedy,
        kd,
        hst_greedy,
        hst_rand,
        chain,
        capacity,
        random,
        offline_opt,
    ] {
        matchers.register(m);
    }

    let mut dynamic_matchers = Catalog::new("dynamic matcher");
    dynamic_matchers.register(Arc::new(DynamicHstGreedyStrategy) as Arc<dyn DynamicAssignStrategy>);
    dynamic_matchers.register(Arc::new(DynamicKdRebuildStrategy));
    dynamic_matchers.register(Arc::new(DynamicRandomStrategy));
    // The clairvoyant offline optimum: the ratio-under-churn denominator,
    // resolvable only through `dynamic_oracle` / the ratio surfaces.
    dynamic_matchers.register_as(Role::OracleOnly, Arc::new(DynamicOptStrategy));

    let mut scenarios = Catalog::new("scenario");
    scenarios.register(Arc::new(UniformScenario) as Arc<dyn Scenario>);
    scenarios.register(Arc::new(NormalScenario));
    scenarios.register(Arc::new(HotspotScenario));
    scenarios.register(Arc::new(PoissonDiskScenario));
    scenarios.register(Arc::new(AdversarialCellScenario));

    let mut fault_plans = Catalog::new("fault plan");
    fault_plans.register(Arc::new(NoFault) as Arc<dyn FaultPlan>);
    fault_plans.register(Arc::new(FlakyWire));
    fault_plans.register(Arc::new(DupStorm));
    fault_plans.register(Arc::new(Burst));

    Registry {
        specs,
        mechanisms,
        matchers,
        dynamic_matchers,
        scenarios,
        fault_plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_names_resolve_case_insensitively() {
        for name in [
            "tbf",
            "TBF",
            "Lap-GR",
            "lapgr",
            "tbf-chain",
            "TbfChain",
            "random",
        ] {
            assert!(
                registry().require_spec(name).is_ok(),
                "{name} should resolve"
            );
        }
        assert!(registry().require_spec("nope").is_err());
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
        // Visible in the full catalog with its role...
        let catalog = registry().dynamic_matcher_catalog();
        assert_eq!(catalog.kind(), "dynamic matcher");
        assert_eq!(catalog.len(), 4);
        assert_eq!(
            catalog.role_of(DEFAULT_DYNAMIC_ORACLE),
            Some(Role::OracleOnly)
        );
        assert_eq!(catalog.role_of("hst-greedy"), Some(Role::Pairing));
        // ...resolvable as an oracle (case-insensitively)...
        let oracle = registry().dynamic_oracle("Dynamic-OPT").expect("resolves");
        assert_eq!(oracle.name(), "dynamic-opt");
        assert!(!oracle.needs_server());
        // ...but a typed role error in pairing position, and vice versa.
        let err = registry()
            .require_dynamic_matcher(DEFAULT_DYNAMIC_ORACLE)
            .map(|m| m.name())
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::RoleMismatch { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("oracle-only"), "{err}");
        let err = registry()
            .dynamic_oracle("hst-greedy")
            .map(|m| m.name())
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::RoleMismatch { .. }),
            "got {err}"
        );
        // Unknown names still report the axis with sorted candidates.
        let err = registry().dynamic_oracle("bogus").map(|_| ()).unwrap_err();
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
