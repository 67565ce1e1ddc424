//! The logical layer as a `RelationProvider`.
//!
//! [`LogicalLayer`] wraps a [`VpsCatalog`] and a set of
//! [`LogicalRelation`] definitions. It answers schema/binding questions
//! by *propagating* through the defining algebra (the §5 rules) and
//! evaluates fetches by running the definition through the relational
//! evaluator — which performs the binding-aware dependent joins against
//! the VPS. Because the layer is itself a provider, the external-schema
//! layer on top can treat logical relations exactly like base tables
//! (the classical "layers all the way down" of Figure 1).

use crate::schema::LogicalRelation;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use webbase_relational::binding::{propagate, BindingSet};
use webbase_relational::eval::{AccessSpec, CompiledExpr, EvalError, Evaluator, RelationProvider};
use webbase_relational::{Expr, Relation, Schema};
use webbase_vps::{CatalogShape, SpanKind, VpsCatalog, QUERY_TRACK};

/// Logical relation definitions in declaration order, indexed by name.
/// Built once per corpus and shared behind an `Arc` by every layer over
/// it. On duplicate names the first definition wins.
///
/// Each definition's static analysis — its schema, its §5 bindings and
/// its compiled form under each union rule — is derived on first use
/// and kept for the lifetime of the definitions, so every later
/// session, plan and refresh over them reuses it. It holds for the VPS
/// shape of the first layer that asked; a layer over another shape
/// derives its own on every call.
#[derive(Default)]
pub struct LogicalDefs {
    relations: Vec<LogicalRelation>,
    by_name: HashMap<String, usize>,
    shape: OnceLock<Arc<CatalogShape>>,
    analyses: Vec<Analysis>,
}

/// The lazily derived static analysis of one definition.
#[derive(Debug, Default)]
struct Analysis {
    schema: OnceLock<Option<Schema>>,
    /// Indexed by the relaxed-union flag.
    compiled: [OnceLock<Arc<Compiled>>; 2],
}

/// One definition compiled under one union rule.
#[derive(Debug)]
struct Compiled {
    bindings: BindingSet,
    expr: CompiledExpr,
    /// The definition's name, as the logical memo keys it.
    name: Arc<str>,
}

impl std::fmt::Debug for LogicalDefs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogicalDefs").field("relations", &self.relations).finish_non_exhaustive()
    }
}

impl LogicalDefs {
    pub fn new(relations: Vec<LogicalRelation>) -> LogicalDefs {
        let mut by_name = HashMap::with_capacity(relations.len());
        for (i, r) in relations.iter().enumerate() {
            by_name.entry(r.name.clone()).or_insert(i);
        }
        let analyses = relations.iter().map(|_| Analysis::default()).collect();
        LogicalDefs { relations, by_name, shape: OnceLock::new(), analyses }
    }

    pub fn relations(&self) -> &[LogicalRelation] {
        &self.relations
    }

    pub fn get(&self, name: &str) -> Option<&LogicalRelation> {
        self.by_name.get(name).map(|&i| &self.relations[i])
    }
}

/// The logical layer: definitions + the VPS beneath them.
pub struct LogicalLayer {
    pub vps: VpsCatalog,
    defs: Arc<LogicalDefs>,
    relaxed_union: bool,
}

impl LogicalLayer {
    pub fn new(vps: VpsCatalog, relations: Vec<LogicalRelation>) -> LogicalLayer {
        LogicalLayer::over(vps, Arc::new(LogicalDefs::new(relations)))
    }

    /// A layer over shared definitions: the multi-query engine's
    /// per-query path, which never copies the definitions.
    pub fn over(vps: VpsCatalog, defs: Arc<LogicalDefs>) -> LogicalLayer {
        LogicalLayer { vps, defs, relaxed_union: false }
    }

    /// Accept partial answers from unions with un-invocable sides (the
    /// paper's relaxed union).
    pub fn with_relaxed_union(mut self, relaxed: bool) -> LogicalLayer {
        self.relaxed_union = relaxed;
        self
    }

    pub fn relations(&self) -> &[LogicalRelation] {
        self.defs.relations()
    }

    pub fn relation(&self, name: &str) -> Option<&LogicalRelation> {
        self.defs.get(name)
    }

    /// The §5 binding-propagation report: every logical relation with
    /// its derived minimal bindings (the paper's `classifieds → {Make}`
    /// example).
    pub fn binding_report(&self) -> String {
        let mut out = String::from("Binding propagation (logical layer)\n");
        for r in self.relations() {
            let b = self.bindings(&r.name).unwrap_or_else(BindingSet::unsatisfiable);
            out.push_str(&format!("  {}: {}\n", r.name, b));
        }
        out
    }

    /// The cached analysis of definition `name`, when the definitions'
    /// cache holds for this layer's shape.
    fn analysis(&self, name: &str) -> Option<(&Expr, Option<&Analysis>)> {
        let &i = self.defs.by_name.get(name)?;
        let shape = self.defs.shape.get_or_init(|| self.vps.shape().clone());
        let cached = Arc::ptr_eq(shape, self.vps.shape()).then(|| &self.defs.analyses[i]);
        Some((&self.defs.relations[i].def, cached))
    }

    /// Definition `name` compiled under this layer's union rule.
    fn compiled(&self, name: &str) -> Option<Arc<Compiled>> {
        let (def, cached) = self.analysis(name)?;
        let compile = || {
            let vps = &self.vps;
            let relaxed = self.relaxed_union;
            Arc::new(Compiled {
                bindings: propagate(def, &|n| vps.bindings(n), &|n| vps.schema(n), relaxed),
                expr: CompiledExpr::new(def, vps, relaxed),
                name: name.into(),
            })
        };
        Some(match cached {
            Some(a) => a.compiled[usize::from(self.relaxed_union)].get_or_init(compile).clone(),
            None => compile(),
        })
    }
}

impl RelationProvider for LogicalLayer {
    fn schema(&self, name: &str) -> Option<Schema> {
        let (def, cached) = self.analysis(name)?;
        let derive = || def.schema(&|n| self.vps.schema(n));
        match cached {
            Some(a) => a.schema.get_or_init(derive).clone(),
            None => derive(),
        }
    }

    fn bindings(&self, name: &str) -> Option<BindingSet> {
        Some(self.compiled(name)?.bindings.clone())
    }

    fn fetch(&mut self, name: &str, spec: &AccessSpec) -> Result<Relation, EvalError> {
        // A handle on the definitions, so `def` stays borrowed while
        // the evaluator takes the VPS mutably.
        let defs = self.defs.clone();
        let def = &defs.get(name).ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?.def;
        let compiled = self.compiled(name).expect("a defined relation compiles");
        let relaxed = self.relaxed_union;
        // In a shared engine session an invocation another query already
        // evaluated is answered from the logical memo; the definition
        // runs only on a miss (and always in an isolated session).
        self.vps.derived(&compiled.name, spec, relaxed, |vps| {
            let obs = vps.obs().clone();
            let span = if obs.tracing() {
                obs.sink.begin(
                    QUERY_TRACK,
                    SpanKind::Logical,
                    name.to_string(),
                    vec![("given", spec.to_string())],
                )
            } else {
                webbase_vps::SpanHandle::INERT
            };
            let out = Evaluator::new(vps).with_relaxed_union(relaxed).eval_compiled(
                def,
                &compiled.expr,
                spec,
            );
            if obs.tracing() {
                obs.sink.advance(QUERY_TRACK, vps.stats.total_network());
                match &out {
                    Ok(rel) => obs.sink.end_with(span, vec![("tuples", rel.len().to_string())]),
                    Err(e) => obs.sink.end_with(span, vec![("error", e.to_string())]),
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_schema;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_navigation::PageStore;
    use webbase_relational::prelude::*;
    use webbase_vps::{CatalogShape, FetchPolicy};
    use webbase_webworld::prelude::*;

    fn layer() -> (LogicalLayer, Arc<Dataset>) {
        let data = Dataset::generate(5, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut shape = CatalogShape::new(FetchPolicy::default_policy());
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            shape.add_map(web.clone(), map).expect("a recorded map compiles");
        }
        let cat = VpsCatalog::over(Arc::new(shape), PageStore::new(), None);
        (LogicalLayer::new(cat, paper_schema()), data)
    }

    #[test]
    fn classifieds_binding_is_make_only() {
        // The §5 worked example: {Make} is the only minimal binding.
        let (layer, _) = layer();
        let b = layer.bindings("classifieds").expect("bindings");
        let make: BTreeSet<Attr> = [Attr::new("make")].into();
        assert!(b.satisfied_by(&make), "classifieds bindings: {b}");
        assert_eq!(b.bindings().len(), 1, "{b}");
        assert_eq!(b.bindings()[0], make);
    }

    #[test]
    fn all_relations_have_schemas_and_bindings() {
        let (layer, _) = layer();
        for r in layer.relations() {
            let s = layer.schema(&r.name).unwrap_or_else(|| panic!("{} has no schema", r.name));
            assert!(!s.is_empty());
            let b = layer.bindings(&r.name).unwrap_or_else(|| panic!("{}: no bindings", r.name));
            assert!(!b.is_unsatisfiable(), "{}: unsatisfiable", r.name);
        }
    }

    #[test]
    fn classifieds_site_independence() {
        // Tuples from three sites arrive in one relation, and nothing in
        // the result says where each came from.
        let (mut layer, data) = layer();
        let rel =
            layer.fetch("classifieds", &AccessSpec::new().with("make", "ford")).expect("fetches");
        let mut expected: usize = 0;
        expected += data.matching(SiteSlice::Newsday, Some("ford"), None).len();
        expected += data.matching(SiteSlice::NyTimes, Some("ford"), None).len();
        expected += data.matching(SiteSlice::NewYorkDaily, Some("ford"), None).len();
        assert_eq!(rel.len(), expected, "slices are disjoint, so union = sum");
        assert_eq!(
            rel.schema(),
            &Schema::new(["make", "model", "year", "price", "contact", "features"])
        );
    }

    #[test]
    fn blue_price_needs_full_binding() {
        let (mut layer, _) = layer();
        let err = layer
            .fetch("blue_price", &AccessSpec::new().with("make", "ford"))
            .expect_err("kellys needs make+model+condition");
        assert!(matches!(err, EvalError::UnboundAccess { .. }));
        let ok = layer
            .fetch(
                "blue_price",
                &AccessSpec::new()
                    .with("make", "ford")
                    .with("model", "escort")
                    .with("condition", "good")
                    .with("pricetype", "retail"),
            )
            .expect("fetches");
        assert_eq!(ok.len(), 11);
    }

    #[test]
    fn reliability_and_interest() {
        let (mut layer, _) = layer();
        let rel = layer
            .fetch("reliability", &AccessSpec::new().with("make", "jaguar").with("model", "xj6"))
            .expect("fetches");
        assert_eq!(rel.len(), 12); // years 1988..=1999
        let rate = layer
            .fetch(
                "interest",
                &AccessSpec::new()
                    .with("zip", "10001")
                    .with("duration", Value::Int(36))
                    .with("plan", "loan"),
            )
            .expect("fetches");
        assert_eq!(rate.len(), 1);
    }

    #[test]
    fn queries_compose_over_logical_relations() {
        // classifieds ⋈ reliability: safety ratings joined onto ads.
        let (mut layer, _) = layer();
        let e = Expr::relation("classifieds")
            .join(Expr::relation("reliability"))
            .select(Pred::and(vec![Pred::eq("make", "jaguar"), Pred::eq("model", "xj6")]))
            .project(["make", "model", "year", "price", "safety"]);
        let rel = Evaluator::new(&mut layer).eval(&e, &AccessSpec::new()).expect("evals");
        // every ad row gained a safety rating
        let sidx = rel.schema().index_of(&"safety".into()).expect("safety");
        assert!(rel.tuples().iter().all(|t| !t.get(sidx).is_null()));
    }

    #[test]
    fn duplicate_definitions_resolve_to_the_first() {
        let defs = LogicalDefs::new(vec![
            LogicalRelation::new("ads", Expr::relation("newsday")),
            LogicalRelation::new("ads", Expr::relation("nyTimes")),
        ]);
        assert_eq!(defs.get("ads").map(|r| r.def.to_string()), Some("newsday".to_string()));
        assert_eq!(defs.relations().len(), 2, "declaration order keeps every definition");
        assert!(defs.get("nosuch").is_none());
    }

    #[test]
    fn binding_report_renders() {
        let (layer, _) = layer();
        let report = layer.binding_report();
        assert!(report.contains("classifieds: {make}"), "{report}");
        assert!(report.contains("blue_price: {condition, make, model, pricetype}"), "{report}");
    }
}
