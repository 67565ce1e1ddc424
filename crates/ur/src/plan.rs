//! Query planning and execution for the structured UR.
//!
//! "The semantics of this query is said to be the join R₁ ⋈ … ⋈ Rₙ,
//! where R₁…Rₙ is a minimal (with respect to inclusion) subset of
//! logical relations that satisfy the compatibility rules, and … contains
//! all attributes in A. … If there are several maximal objects covering
//! the query attributes then we take the union of results obtained from
//! each object."
//!
//! The planner:
//!
//! 1. enumerates the *minimal covering compatible sets* of alternatives;
//! 2. translates each into algebra over the logical layer — each
//!    alternative contributes `σ_fixed(relation)`, joined in a
//!    **binding-feasible order** computed by
//!    `webbase_relational::ordering` from the query's equality constants
//!    (sets with no feasible order are reported as skipped: the user
//!    must bind more attributes);
//! 3. evaluates each object's conjunctive query and unions the results.

use crate::compat::CompatRules;
use crate::hierarchy::Hierarchy;
use crate::maximal::{compatible_sets, AltSet};
use crate::query::UrQuery;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use webbase_logical::{
    BudgetSnapshot, BudgetTracker, LogicalLayer, Obs, ResumeToken, SpanHandle, SpanKind,
    QUERY_TRACK,
};
use webbase_relational::eval::{AccessSpec, CompiledExpr, EvalError, Evaluator, RelationProvider};
use webbase_relational::ordering::{order_exact, JoinInput};
use webbase_relational::{Attr, Expr, Pred, Relation, Schema};

/// One planned maximal-object query.
#[derive(Debug, Clone)]
pub struct PlannedObject {
    pub alternatives: AltSet,
    pub expr: Expr,
    /// `expr` compiled over the layer it runs on, derived by its first
    /// evaluation and shared by every clone and later run of the plan.
    compiled: OnceLock<Arc<CompiledExpr>>,
}

impl PlannedObject {
    pub fn new(alternatives: AltSet, expr: Expr) -> PlannedObject {
        PlannedObject { alternatives, expr, compiled: OnceLock::new() }
    }

    /// Evaluate this object's expression over `layer`, compiling it on
    /// the first call. Every later call must run over a layer with the
    /// same schemas and handles — the condition under which a plan may
    /// be reused at all (see [`UrPlanner::execute_planned`]).
    pub fn eval(&self, layer: &mut LogicalLayer) -> Result<Relation, EvalError> {
        let compiled =
            self.compiled.get_or_init(|| Arc::new(CompiledExpr::new(&self.expr, &*layer, false)));
        Evaluator::new(layer).eval_compiled(&self.expr, compiled, &AccessSpec::new())
    }

    /// The compiled expression, once an evaluation has derived it.
    pub fn compiled(&self) -> Option<&Arc<CompiledExpr>> {
        self.compiled.get()
    }
}

/// A full UR plan.
#[derive(Debug, Clone)]
pub struct UrPlan {
    pub query: UrQuery,
    pub objects: Vec<PlannedObject>,
    /// Covering sets that could not be ordered under the available
    /// bindings, with the reason.
    pub skipped: Vec<(AltSet, String)>,
    /// What the Web did to *this* execution: per-site retries, timeouts,
    /// fast-fails, and abandoned branches (empty until [`UrPlanner::execute`]
    /// runs the plan, and clean when every site behaved).
    pub degradation: webbase_logical::DegradationReport,
    /// What self-healing did during *this* execution: repairs applied,
    /// runs replayed, sessions recovered, nodes quarantined (same
    /// lifecycle as `degradation`).
    pub repairs: webbase_logical::RepairReport,
    /// Spend accounting when the query carried a budget: elapsed
    /// simulated time, fetches, and the per-site breakdown including
    /// every denial.
    pub budget: Option<BudgetSnapshot>,
    /// Set when the budget ran out before the plan finished: replaying
    /// the query with this token (see [`UrPlanner::execute_with`])
    /// continues from the journalled pages without re-fetching them.
    pub resume: Option<ResumeToken>,
    /// Each object's individual result, in `objects` order (empty until
    /// execution). The full answer is their union; keeping the per-object
    /// values lets a maintained view refresh only the objects a drift
    /// event touched and re-derive the union incrementally.
    pub object_results: Vec<Relation>,
}

impl UrPlan {
    /// Render the plan — the Example 6.2 "maximal objects and the
    /// corresponding relational expressions" listing.
    pub fn render(&self) -> String {
        let mut out = String::from("UR plan\n");
        for o in &self.objects {
            let names: Vec<&str> = o.alternatives.iter().map(String::as_str).collect();
            out.push_str(&format!("  object {}\n    {}\n", names.join(" ⋈ "), o.expr));
        }
        for (set, why) in &self.skipped {
            let names: Vec<&str> = set.iter().map(String::as_str).collect();
            out.push_str(&format!("  skipped {}: {why}\n", names.join(" ⋈ ")));
        }
        out
    }
}

/// Planning/execution errors.
#[derive(Debug)]
pub enum UrError {
    /// Some mentioned attribute exists in no alternative's relation.
    UnknownAttribute(String),
    /// No compatible set covers the query's attributes.
    NotCoverable(Vec<String>),
    /// Covering sets exist but none is executable under the supplied
    /// bindings; the message lists what was missing.
    InsufficientBindings(String),
    Eval(EvalError),
}

impl std::fmt::Display for UrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrError::UnknownAttribute(a) => write!(f, "unknown UR attribute {a}"),
            UrError::NotCoverable(attrs) => {
                write!(f, "no compatible object covers attributes {attrs:?}")
            }
            UrError::InsufficientBindings(m) => {
                write!(f, "query needs more bound attributes: {m}")
            }
            UrError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for UrError {}

impl From<EvalError> for UrError {
    fn from(e: EvalError) -> UrError {
        UrError::Eval(e)
    }
}

/// The query-independent input of planning: the UR attribute list and
/// every non-empty compatible set with the attributes it covers. It
/// depends only on the hierarchy, the rules and the logical schemas, so
/// it holds for every layer over the corpus it was built from; the
/// multi-query engine builds it once.
#[derive(Debug, Clone)]
pub struct PlanIndex {
    /// UR attributes in first-seen order.
    attributes: Vec<String>,
    /// Attribute → its position in `attributes`.
    ids: HashMap<String, usize>,
    /// Every non-empty compatible set, in enumeration order, with the
    /// attributes its alternatives cover as a bitset over `attributes`.
    sets: Vec<(AltSet, Vec<u64>)>,
}

impl PlanIndex {
    /// The UR attributes in first-seen order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// A bitset over the UR attributes, with the given positions set.
    fn bits<'a>(&self, ids: impl IntoIterator<Item = &'a usize>) -> Vec<u64> {
        let mut bits = vec![0u64; self.attributes.len().div_ceil(64)];
        for &i in ids {
            bits[i / 64] |= 1 << (i % 64);
        }
        bits
    }
}

/// The planner: hierarchy + rules over a logical layer.
pub struct UrPlanner {
    pub hierarchy: Hierarchy,
    pub rules: CompatRules,
}

impl UrPlanner {
    pub fn new(hierarchy: Hierarchy, rules: CompatRules) -> UrPlanner {
        UrPlanner { hierarchy, rules }
    }

    /// Build the planning index over `layer`'s logical schemas.
    pub fn index(&self, layer: &LogicalLayer) -> PlanIndex {
        let mut index = PlanIndex { attributes: Vec::new(), ids: HashMap::new(), sets: Vec::new() };
        // Each alternative's attribute positions, by name (the first
        // alternative of a name wins, as in `Hierarchy::alternative`).
        let mut provides: HashMap<&str, Vec<usize>> = HashMap::new();
        for alt in self.hierarchy.alternatives() {
            let schema = layer.schema(&alt.relation);
            let mut ids = Vec::new();
            for a in schema.iter().flat_map(Schema::attrs) {
                let next = index.attributes.len();
                let id = *index.ids.entry(a.as_str().to_string()).or_insert(next);
                if id == next {
                    index.attributes.push(a.as_str().to_string());
                }
                ids.push(id);
            }
            provides.entry(alt.name.as_str()).or_insert(ids);
        }
        for set in compatible_sets(&self.hierarchy, &self.rules) {
            if !set.is_empty() {
                let covered =
                    index.bits(set.iter().filter_map(|n| provides.get(n.as_str())).flatten());
                index.sets.push((set, covered));
            }
        }
        index
    }

    /// The UR's full attribute list (for rendering Figure 5 and for the
    /// user interface's attribute picker).
    pub fn ur_attributes(&self, layer: &LogicalLayer) -> Vec<String> {
        self.index(layer).attributes
    }

    /// Plan a query against a logical layer.
    pub fn plan(&self, query: &UrQuery, layer: &LogicalLayer) -> Result<UrPlan, UrError> {
        self.plan_with(query, layer, &self.index(layer))
    }

    /// Plan a query with a prebuilt index, which must come from a layer
    /// with the same logical schemas as `layer`.
    pub fn plan_with(
        &self,
        query: &UrQuery,
        layer: &LogicalLayer,
        index: &PlanIndex,
    ) -> Result<UrPlan, UrError> {
        // Computed columns are defined by the query itself; the base
        // relations only need to cover their *inputs*.
        let mentioned = query.base_mentioned();
        let mut need = Vec::with_capacity(mentioned.len());
        for a in &mentioned {
            match index.ids.get(a) {
                Some(&id) => need.push(id),
                None => return Err(UrError::UnknownAttribute(a.clone())),
            }
        }
        let need = index.bits(&need);

        // Minimal covering compatible sets.
        let covering: Vec<&AltSet> = index
            .sets
            .iter()
            .filter(|(_, covered)| need.iter().zip(covered).all(|(n, c)| n & !c == 0))
            .map(|(s, _)| s)
            .collect();
        if covering.is_empty() {
            return Err(UrError::NotCoverable(mentioned));
        }
        let minimal: Vec<AltSet> = covering
            .iter()
            .filter(|s| !covering.iter().any(|t| t != *s && t.is_subset(s)))
            .map(|s| (*s).clone())
            .collect();

        // Translate each minimal covering set.
        let constants: BTreeSet<Attr> =
            query.constants().iter().map(|(a, _)| Attr::new(a.clone())).collect();
        let mut objects = Vec::new();
        let mut skipped = Vec::new();
        for set in minimal {
            match self.object_expr(&set, query, layer, &constants) {
                Ok(expr) => objects.push(PlannedObject::new(set, expr)),
                Err(reason) => skipped.push((set, reason)),
            }
        }
        if objects.is_empty() {
            let reasons: Vec<String> = skipped.iter().map(|(s, r)| format!("{s:?}: {r}")).collect();
            return Err(UrError::InsufficientBindings(reasons.join("; ")));
        }
        let obs = layer.vps.obs();
        if obs.tracing() {
            for o in &objects {
                let names: Vec<&str> = o.alternatives.iter().map(String::as_str).collect();
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::PlanObject,
                    names.join(" ⋈ "),
                    vec![("expr", o.expr.to_string())],
                );
            }
            for (set, why) in &skipped {
                let names: Vec<&str> = set.iter().map(String::as_str).collect();
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::PlanSkipped,
                    names.join(" ⋈ "),
                    vec![("reason", why.clone())],
                );
            }
        }
        Ok(UrPlan {
            query: query.clone(),
            objects,
            skipped,
            degradation: webbase_logical::DegradationReport::default(),
            repairs: webbase_logical::RepairReport::default(),
            budget: None,
            resume: None,
            object_results: Vec::new(),
        })
    }

    /// Build one object's conjunctive query, join-ordered under bindings.
    fn object_expr(
        &self,
        set: &AltSet,
        query: &UrQuery,
        layer: &LogicalLayer,
        constants: &BTreeSet<Attr>,
    ) -> Result<Expr, String> {
        // Each alternative contributes σ_fixed(relation).
        let mut inputs: Vec<(String, Expr)> = Vec::new();
        for name in set {
            let alt = self
                .hierarchy
                .alternative(name)
                .ok_or_else(|| format!("unknown alternative {name}"))?;
            let pred = alt.fixed_pred();
            let expr = if pred == Pred::True {
                Expr::relation(&alt.relation)
            } else {
                Expr::relation(&alt.relation).select(pred)
            };
            inputs.push((name.clone(), expr));
        }
        // Binding-aware ordering.
        let join_inputs: Vec<JoinInput> = inputs
            .iter()
            .map(|(name, expr)| {
                let schema = expr
                    .schema(&|n| layer.schema(n))
                    .ok_or_else(|| format!("no schema for {name}"))?;
                let bindings = webbase_relational::binding::propagate(
                    expr,
                    &|n| layer.bindings(n),
                    &|n| layer.schema(n),
                    false,
                );
                Ok(JoinInput::new(name, schema, bindings))
            })
            .collect::<Result<_, String>>()?;
        let order = order_exact(&join_inputs, constants).ok_or_else(|| {
            format!(
                "no feasible join order with bound attributes {:?}",
                constants.iter().map(Attr::as_str).collect::<Vec<_>>()
            )
        })?;
        let mut iter = order.iter();
        let first = *iter.next().expect("covering sets are non-empty");
        let mut expr = inputs[first].1.clone();
        for &i in iter {
            expr = expr.join(inputs[i].1.clone());
        }
        // Computed columns (§6.2's monthly payments), in mention order.
        for (name, formula) in &query.computed {
            expr = expr.extend(name.as_str(), formula.clone());
        }
        // Query conditions, then the output projection.
        let pred = query.pred();
        if pred != Pred::True {
            expr = expr.select(pred);
        }
        let expr = expr.project(query.outputs.iter().map(String::as_str));
        // §2: "the entire query can be optimized using techniques that
        // are akin to relational algebra transformations" — push the
        // selections toward the base relations, which also surfaces
        // binding values earlier.
        let optimized = webbase_relational::optimize::optimize(&expr, &|n| layer.schema(n));
        let obs = layer.vps.obs();
        if obs.tracing() {
            let from = expr.to_string();
            let to = optimized.to_string();
            if from != to {
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::Rewrite,
                    "push selections".to_string(),
                    vec![("from", from), ("to", to)],
                );
            }
        }
        Ok(optimized)
    }

    /// Plan and execute: the union over the objects' results.
    pub fn execute(
        &self,
        query: &UrQuery,
        layer: &mut LogicalLayer,
    ) -> Result<(Relation, UrPlan), UrError> {
        self.execute_with(query, layer, None)
    }

    /// Plan and execute under the query's budget, optionally resuming
    /// from an earlier run's token.
    ///
    /// With a budget attached, exhaustion does not fail the query: the
    /// affected navigation branches are abandoned soundly, the partial
    /// result is returned, and the plan carries a [`ResumeToken`]
    /// journalling every page already paid for. Re-running through this
    /// method with that token preloads the journal into the page caches,
    /// so the resumed execution re-fetches none of them and spends its
    /// fresh budget entirely on the unfinished tail.
    pub fn execute_with(
        &self,
        query: &UrQuery,
        layer: &mut LogicalLayer,
        resume: Option<&ResumeToken>,
    ) -> Result<(Relation, UrPlan), UrError> {
        let index = self.index(layer);
        self.execute_with_index(query, layer, &index, resume)
    }

    /// [`UrPlanner::execute_with`] with a prebuilt planning index (see
    /// [`UrPlanner::plan_with`]).
    pub fn execute_with_index(
        &self,
        query: &UrQuery,
        layer: &mut LogicalLayer,
        index: &PlanIndex,
        resume: Option<&ResumeToken>,
    ) -> Result<(Relation, UrPlan), UrError> {
        // The Query root span is begun *before* planning so the Plan
        // span (and the rewrite/object events it emits) nest under it.
        let obs = layer.vps.obs().clone();
        let root = if obs.tracing() {
            obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Query,
                format!("{}({})", query.ur_name, query.outputs.join(", ")),
                vec![("resumed", resume.is_some().to_string())],
            )
        } else {
            SpanHandle::INERT
        };
        let plan_span = if obs.tracing() {
            obs.sink.begin(QUERY_TRACK, SpanKind::Plan, "plan".to_string(), Vec::new())
        } else {
            SpanHandle::INERT
        };
        let planned = self.plan_with(query, layer, index);
        if obs.tracing() {
            match &planned {
                Ok(p) => obs.sink.end_with(
                    plan_span,
                    vec![
                        ("objects", p.objects.len().to_string()),
                        ("skipped", p.skipped.len().to_string()),
                    ],
                ),
                Err(e) => obs.sink.end_with(plan_span, vec![("error", e.to_string())]),
            }
        }
        let plan = planned?;
        self.run_plan(query, Cow::Owned(plan), layer, resume, &obs, root)
    }

    /// Execute a *previously computed* plan, skipping the planning
    /// pass. Sound only when `plan` came from [`UrPlanner::plan`] for
    /// the same query text over a layer with the same schema and
    /// handles — which is exactly the multi-query engine's situation:
    /// every per-query session is built from the same shared artifacts,
    /// so a plan computed once is valid for every session, and the
    /// engine caches it by query text.
    pub fn execute_planned(
        &self,
        query: &UrQuery,
        plan: &UrPlan,
        layer: &mut LogicalLayer,
    ) -> Result<(Relation, UrPlan), UrError> {
        let obs = layer.vps.obs().clone();
        let root = if obs.tracing() {
            obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Query,
                format!("{}({})", query.ur_name, query.outputs.join(", ")),
                vec![("plan", "cached".to_string())],
            )
        } else {
            SpanHandle::INERT
        };
        // Borrowed, so the objects compile into the caller's plan and
        // every later run of it reuses them.
        self.run_plan(query, Cow::Borrowed(plan), layer, None, &obs, root)
    }

    fn run_plan(
        &self,
        query: &UrQuery,
        plan: Cow<'_, UrPlan>,
        layer: &mut LogicalLayer,
        resume: Option<&ResumeToken>,
        obs: &Obs,
        root: SpanHandle,
    ) -> Result<(Relation, UrPlan), UrError> {
        // A resumed run inherits the original budget unless the query
        // supplies its own.
        let budget_spec = query.budget.clone().or_else(|| resume.map(|t| t.budget.clone()));
        let tracker = budget_spec.map(|b| {
            let tracker = Arc::new(BudgetTracker::new(b));
            layer.vps.set_budget(tracker.clone());
            tracker
        });
        if let Some(token) = resume {
            layer.vps.preload(token);
        }
        // Snapshot cumulative per-site degradation so the plan reports
        // only what *this* execution endured.
        let degradation_before = layer.vps.degradation();
        let repairs_before = layer.vps.repairs();
        let mut result: Option<Relation> = None;
        let mut object_results = Vec::with_capacity(plan.objects.len());
        for obj in &plan.objects {
            let obj_span = if obs.tracing() {
                let names: Vec<&str> = obj.alternatives.iter().map(String::as_str).collect();
                obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
                obs.sink.begin(QUERY_TRACK, SpanKind::Object, names.join(" ⋈ "), Vec::new())
            } else {
                SpanHandle::INERT
            };
            let evaled = obj.eval(layer);
            if obs.tracing() {
                obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
                match &evaled {
                    Ok(rel) => {
                        obs.sink.end_with(obj_span, vec![("tuples", rel.len().to_string())]);
                    }
                    Err(e) => obs.sink.end_with(obj_span, vec![("error", e.to_string())]),
                }
            }
            let rel = evaled?;
            object_results.push(rel.clone());
            result = Some(match result {
                None => rel,
                Some(mut acc) => {
                    if acc.schema() != rel.schema() {
                        return Err(UrError::Eval(EvalError::SchemaMismatch(format!(
                            "objects disagree: {} vs {}",
                            acc.schema(),
                            rel.schema()
                        ))));
                    }
                    for t in rel.tuples() {
                        acc.push(t.clone());
                    }
                    acc
                }
            });
        }
        let mut plan = plan.into_owned();
        plan.object_results = object_results;
        plan.degradation = layer.vps.degradation().since(&degradation_before);
        plan.repairs = layer.vps.repairs().since(&repairs_before);
        if let Some(tracker) = tracker {
            plan.budget = Some(tracker.snapshot());
            if tracker.exhausted().is_some() {
                plan.resume = layer.vps.resume_token().map(|mut t| {
                    // Spend is cumulative across resumptions, so the
                    // token always reports the query's true total cost.
                    if let Some(prev) = resume {
                        t.spent_network += prev.spent_network;
                        t.spent_fetches += prev.spent_fetches;
                    }
                    t
                });
            }
        }
        let result = result.expect("objects is non-empty");
        if obs.tracing() {
            obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
            obs.sink.end_with(
                root,
                vec![
                    ("tuples", result.len().to_string()),
                    ("degraded", (!plan.degradation.is_clean()).to_string()),
                ],
            );
        }
        Ok((result, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::example62_rules;
    use crate::hierarchy::figure5;
    use crate::query::parse_query;
    use std::sync::Arc;
    use webbase_logical::paper_schema;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_navigation::PageStore;
    use webbase_vps::{CatalogShape, FetchPolicy, VpsCatalog};
    use webbase_webworld::prelude::*;

    pub(super) fn layer() -> (LogicalLayer, Arc<Dataset>) {
        let data = Dataset::generate(42, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut shape = CatalogShape::new(FetchPolicy::default_policy());
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            shape.add_map(web.clone(), map).expect("a recorded map compiles");
        }
        let cat = VpsCatalog::over(Arc::new(shape), PageStore::new(), None);
        (LogicalLayer::new(cat, paper_schema()), data)
    }

    fn planner() -> UrPlanner {
        UrPlanner::new(figure5(), example62_rules())
    }

    #[test]
    fn ur_attributes_cover_the_domain() {
        let (layer, _) = layer();
        let attrs = planner().ur_attributes(&layer);
        for a in ["make", "model", "year", "price", "bbprice", "rate", "cost", "safety"] {
            assert!(attrs.contains(&a.to_string()), "missing {a}");
        }
    }

    #[test]
    fn ur_attributes_keep_first_seen_order() {
        // Figure 5's alternatives in hierarchy order, each contributing
        // the attributes its logical relation adds.
        let (layer, _) = layer();
        assert_eq!(
            planner().ur_attributes(&layer),
            [
                "make",
                "model",
                "year",
                "price",
                "contact",
                "features",
                "condition",
                "pricetype",
                "bbprice",
                "zip",
                "duration",
                "plan",
                "rate",
                "coverage",
                "cost",
                "safety",
            ]
        );
    }

    #[test]
    fn plan_minimal_objects_for_simple_query() {
        // price only → one UsedCar alternative suffices; two minimal
        // covering sets (Dealers, Classifieds) → union of both.
        let (layer, _) = layer();
        let q = parse_query("UsedCarUR(make='ford', price)").expect("parses");
        let plan = planner().plan(&q, &layer).expect("plans");
        assert_eq!(plan.objects.len(), 2, "{}", plan.render());
        assert!(plan.skipped.is_empty());
        let rendered = plan.render();
        assert!(rendered.contains("Dealers"));
        assert!(rendered.contains("Classifieds"));
    }

    #[test]
    fn lease_plan_pulls_in_full_coverage_and_drops_classifieds() {
        let (layer, _) = layer();
        // rate with plan fixed by the Lease concept… the user asks for
        // lease rates by querying rate with the Lease-selecting trick:
        // mention cost (insurance) and rate; bind zip/duration/condition.
        let q = parse_query("UsedCarUR(make='ford', price, rate, cost, zip='10001', duration=36)")
            .expect("parses");
        let plan = planner().plan(&q, &layer).expect("plans");
        for obj in &plan.objects {
            if obj.alternatives.contains("Lease") {
                assert!(
                    obj.alternatives.contains("FullCoverage"),
                    "lease object without full coverage: {:?}",
                    obj.alternatives
                );
                assert!(
                    !obj.alternatives.contains("Classifieds"),
                    "navigation trap: {:?}",
                    obj.alternatives
                );
            }
        }
        // Loan objects pair with either coverage → more objects than lease ones.
        assert!(plan.objects.len() >= 3, "{}", plan.render());
    }

    #[test]
    fn infeasible_bindings_reported() {
        let (layer, _) = layer();
        // bbprice needs condition (kellys mandatory); unbound → the plan
        // must fail with a binding explanation, not an empty answer.
        let q = parse_query("UsedCarUR(make='ford', bbprice)").expect("parses");
        let err = planner().plan(&q, &layer).expect_err("needs condition");
        assert!(matches!(err, UrError::InsufficientBindings(_)), "{err}");
    }

    #[test]
    fn unknown_attribute_rejected() {
        let (layer, _) = layer();
        let q = parse_query("UsedCarUR(warp_drive)").expect("parses");
        assert!(matches!(planner().plan(&q, &layer), Err(UrError::UnknownAttribute(_))));
    }

    #[test]
    fn budgeted_execution_returns_sound_partial_results_and_a_token() {
        use webbase_logical::QueryBudget;
        let (mut unbounded, _) = layer();
        let q = parse_query("UsedCarUR(make='ford', price)").expect("parses");
        let (full, _) = planner().execute(&q, &mut unbounded).expect("executes");
        assert!(!full.is_empty());

        let (mut tight, _) = layer();
        let bq = q.clone().with_budget(QueryBudget::unlimited().with_fetch_quota(2));
        let (partial, plan) =
            planner().execute(&bq, &mut tight).expect("exhaustion degrades, never fails");
        assert!(partial.len() < full.len(), "{} vs {}", partial.len(), full.len());
        for t in partial.tuples() {
            assert!(full.tuples().contains(t), "partial tuple absent from the unbounded run");
        }
        let snap = plan.budget.expect("budgeted run snapshots its spend");
        assert!(snap.exhausted.is_some(), "quota of 2 must run out");
        assert!(snap.sites.values().map(|s| s.denied).sum::<u64>() > 0);
        assert!(!plan.degradation.is_clean(), "denials surface in the degradation report");
        let token = plan.resume.expect("exhausted run leaves a resume token");
        assert_eq!(
            token.journal.len() as u64,
            snap.fetches,
            "every paid-for page is journalled for resumption"
        );
    }

    #[test]
    fn jaguar_query_end_to_end() {
        // The paper's §1 query: used Jaguars, 1993 or later, good safety
        // ratings, selling price below blue book value.
        let (mut layer, data) = layer();
        let q = parse_query(
            "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
             safety='good', condition='good') WHERE price < bbprice",
        )
        .expect("parses");
        let (result, plan) = planner().execute(&q, &mut layer).expect("executes");
        assert!(!plan.objects.is_empty(), "{}", plan.render());

        // Ground truth: jaguar ads (any source site we model as
        // classifieds/dealers), year ≥ 1993, safety(good), price < bb.
        use std::collections::BTreeSet;
        use webbase_webworld::data::{blue_book_price_typed, safety_rating};
        // The query projects away the ad's contact, so distinct ads that
        // agree on every projected attribute merge under set semantics —
        // dedup the ground truth the same way.
        let mut expected: BTreeSet<(String, String, u32, u32, u32)> = BTreeSet::new();
        for slice in [
            SiteSlice::Newsday,
            SiteSlice::NyTimes,
            SiteSlice::NewYorkDaily,
            SiteSlice::CarPoint,
            SiteSlice::AutoWeb,
        ] {
            for ad in data.matching(slice, Some("jaguar"), None) {
                let bb = blue_book_price_typed(&ad.make, &ad.model, ad.year, "good", "retail");
                if ad.year >= 1993
                    && safety_rating(&ad.make, &ad.model, ad.year) == "good"
                    && ad.price < bb
                {
                    expected.insert((ad.make.clone(), ad.model.clone(), ad.year, ad.price, bb));
                }
            }
        }
        assert!(!expected.is_empty(), "seed must produce answers for this test to bite");
        assert_eq!(result.len(), expected.len(), "{}", result.to_table());
        // Shape: outputs in mention order.
        assert_eq!(
            result
                .schema()
                .attrs()
                .iter()
                .map(webbase_relational::Attr::as_str)
                .collect::<Vec<_>>(),
            vec!["make", "model", "year", "price", "bbprice", "safety", "condition"]
        );
    }
}

#[cfg(test)]
mod computed_plan_tests {
    use super::*;
    use crate::compat::example62_rules;
    use crate::hierarchy::figure5;
    use crate::query::parse_query;

    /// The §6.2 query: "make a list of used Jaguars … such that each
    /// car's monthly payments are less than 1,000 dollars, and its
    /// selling price is less than its Blue Book price."
    #[test]
    fn section62_monthly_payment_query() {
        let (mut layer, _) = super::tests::layer();
        let planner = UrPlanner::new(figure5(), example62_rules());

        // A simple amortisation approximation: total interest at the
        // quoted APR over the term, spread over the months.
        let q = parse_query(
            "UsedCarUR(make='jaguar', model, year >= 1994, price, bbprice, rate, \
             zip='10001', duration=36, condition='good', \
             payment := price * (1 + rate / 100 * duration / 12) / duration) \
             WHERE payment < 1000 AND price < bbprice",
        )
        .expect("parses");
        let (result, plan) = planner.execute(&q, &mut layer).expect("executes");
        assert!(!plan.objects.is_empty(), "{}", plan.render());
        // Lease and Loan objects both planned (both finance meanings).
        assert!(plan.objects.iter().any(|o| o.alternatives.contains("Loan")), "{}", plan.render());

        // Every answer satisfies the computed constraint, recomputed
        // from the row's own attributes.
        let s = result.schema();
        let (pi, ri, di, pay) = (
            s.index_of(&"price".into()).expect("price"),
            s.index_of(&"rate".into()).expect("rate"),
            s.index_of(&"duration".into()).expect("duration"),
            s.index_of(&"payment".into()).expect("payment"),
        );
        assert!(!result.is_empty(), "the §6.2 query should have answers at this seed");
        for t in result.tuples() {
            let price = t.get(pi).as_f64().expect("price");
            let rate = t.get(ri).as_f64().expect("rate");
            let duration = t.get(di).as_f64().expect("duration");
            let payment = t.get(pay).as_f64().expect("payment");
            let expected = price * (1.0 + rate / 100.0 * duration / 12.0) / duration;
            assert!((payment - expected).abs() < 1e-6);
            assert!(payment < 1000.0);
        }
    }
}
