//! Expression evaluation with *dependent joins* over invocation-only
//! base relations.
//!
//! The evaluator cannot scan a VPS relation: it must supply values for a
//! binding (mandatory-attribute set) on every access. Those values come
//! from two places:
//!
//! 1. **query constants** — equality conjuncts of enclosing selections,
//!    pushed down as an [`AccessSpec`];
//! 2. **sideways information passing** — in a join `L ⋈ R`, the distinct
//!    values that `L`'s result takes on the shared attributes are fed to
//!    `R` one combination at a time (the paper's "order joins in such a
//!    way that the relation newsday … is computed first").
//!
//! The evaluator performs the binding analysis itself (via
//! [`crate::binding::propagate`]) and evaluates a join left-first or
//! right-first depending on which side can run from the constants alone —
//! the general ordering problem for n-way joins is solved ahead of time
//! by [`crate::ordering`], which rewrites the expression tree.

use crate::algebra::Expr;
use crate::binding::{propagate, BindingSet};
use crate::relation::{Relation, Tuple};
use crate::schema::{Attr, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// The values available when a base relation is invoked: equality
/// constants in scope, ordered and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSpec {
    constants: BTreeMap<Attr, Value>,
}

impl AccessSpec {
    pub fn new() -> AccessSpec {
        AccessSpec::default()
    }

    pub fn with(mut self, attr: impl Into<Attr>, v: impl Into<Value>) -> AccessSpec {
        self.constants.insert(attr.into(), v.into());
        self
    }

    pub fn insert(&mut self, attr: Attr, v: Value) {
        self.constants.insert(attr, v);
    }

    pub fn get(&self, attr: &Attr) -> Option<&Value> {
        self.constants.get(attr)
    }

    pub fn attrs(&self) -> BTreeSet<Attr> {
        self.constants.keys().cloned().collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Attr, &Value)> {
        self.constants.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.constants.is_empty()
    }
}

impl fmt::Display for AccessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.constants.iter().map(|(a, v)| format!("{a}={v}")).collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

/// Supplier of base relations — in the webbase, the VPS catalog, which
/// runs a navigation program per invocation.
pub trait RelationProvider {
    /// The schema of base relation `name`.
    fn schema(&self, name: &str) -> Option<Schema>;

    /// The binding sets (handles' mandatory-attribute sets) of `name`.
    fn bindings(&self, name: &str) -> Option<BindingSet>;

    /// Invoke `name` with the given access values. The provider may
    /// return a superset of the matching tuples (a site may ignore an
    /// optional attribute); the evaluator re-filters. Must fail with
    /// [`EvalError::UnboundAccess`] if no handle's mandatory set is
    /// covered.
    fn fetch(&mut self, name: &str, spec: &AccessSpec) -> Result<Relation, EvalError>;
}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownRelation(String),
    /// A base relation was reached without values for any of its
    /// bindings; the message names the relation and what was available.
    UnboundAccess {
        relation: String,
        available: String,
    },
    SchemaMismatch(String),
    UnknownAttr(String),
    /// The underlying navigation/provider failed.
    Provider(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            EvalError::UnboundAccess { relation, available } => write!(
                f,
                "relation {relation} cannot be invoked: no binding covered by {available}"
            ),
            EvalError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            EvalError::UnknownAttr(a) => write!(f, "unknown attribute {a}"),
            EvalError::Provider(m) => write!(f, "provider error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The expression evaluator.
pub struct Evaluator<'p, P: RelationProvider> {
    provider: &'p mut P,
    relaxed_union: bool,
}

impl<'p, P: RelationProvider> Evaluator<'p, P> {
    pub fn new(provider: &'p mut P) -> Self {
        Evaluator { provider, relaxed_union: false }
    }

    /// Accept partial answers from unions whose sides cannot all be
    /// invoked (the paper's relaxed union).
    pub fn with_relaxed_union(mut self, relaxed: bool) -> Self {
        self.relaxed_union = relaxed;
        self
    }

    /// Evaluate `expr` given the access constants `spec`.
    pub fn eval(&mut self, expr: &Expr, spec: &AccessSpec) -> Result<Relation, EvalError> {
        match expr {
            Expr::Rel(name) => {
                let rel = self.provider.fetch(name, spec)?;
                // Re-filter by the constants we passed: providers may
                // over-deliver. A constant on an attribute this relation
                // lacks filters nothing.
                let checks: Vec<(usize, &Value)> = spec
                    .iter()
                    .filter_map(|(a, v)| rel.schema().index_of(a).map(|i| (i, v)))
                    .collect();
                Ok(filtered(rel, |t| checks.iter().all(|&(i, v)| t.get(i).matches(v))))
            }
            Expr::Select(e, p) => {
                // Push equality constants down so base relations can use
                // them as binding values.
                let mut inner_spec = spec.clone();
                for (a, v) in p.bound_constants() {
                    inner_spec.insert(a, v);
                }
                let input = self.eval(e, &inner_spec)?;
                for a in p.attrs() {
                    if !input.schema().contains(&a) {
                        return Err(EvalError::UnknownAttr(a.to_string()));
                    }
                }
                Ok(filtered(input.clone(), |t| p.eval(&input, t)))
            }
            Expr::Project(e, attrs) => {
                // Scope boundary: a constant on an attribute the
                // projection removes belongs to an *enclosing* scope —
                // outside this subexpression the name plays a different
                // role (the paper's unique-role problem: an outer
                // `zip = 10001` meant for the finance relation must not
                // filter a dealer relation that happens to project its
                // own zip away). Only constants on output attributes
                // cross the boundary; relations whose mandatory
                // attributes are projected away must bind them inside
                // the definition (σ under the π).
                let mut inner_spec = AccessSpec::new();
                for (a, v) in spec.iter() {
                    if attrs.contains(a) {
                        inner_spec.insert(a.clone(), v.clone());
                    }
                }
                let input = self.eval(e, &inner_spec)?;
                let idx: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        input
                            .schema()
                            .index_of(a)
                            .ok_or_else(|| EvalError::UnknownAttr(a.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
                let mut out = Relation::new(input.schema().project(attrs));
                for t in input.tuples() {
                    out.push(Tuple::from_values(idx.iter().map(|&i| t.get(i).clone())));
                }
                Ok(out)
            }
            Expr::Rename(e, pairs) => {
                // Constants on renamed attributes are translated back to
                // the inner names before pushdown.
                let mut inner_spec = AccessSpec::new();
                for (a, v) in spec.iter() {
                    let inner_attr = pairs
                        .iter()
                        .find(|(_, to)| to == a)
                        .map(|(from, _)| from.clone())
                        .unwrap_or_else(|| a.clone());
                    inner_spec.insert(inner_attr, v.clone());
                }
                let input = self.eval(e, &inner_spec)?;
                let schema = Schema::new(input.schema().attrs().iter().map(|a| {
                    pairs
                        .iter()
                        .find(|(from, _)| from == a)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| a.clone())
                }));
                let mut out = Relation::new(schema);
                for t in input.tuples() {
                    out.push(t.clone());
                }
                Ok(out)
            }
            Expr::Union(l, r) => {
                let (lr, rr) = if self.relaxed_union {
                    // Relaxed union: a side that cannot be invoked yields ∅
                    // instead of failing the whole query.
                    // A side that cannot be invoked — or whose source was
                    // never mapped at all — contributes nothing.
                    let lr = match self.eval(l, spec) {
                        Ok(rel) => Some(rel),
                        Err(EvalError::UnboundAccess { .. } | EvalError::UnknownRelation(_)) => {
                            None
                        }
                        Err(e) => return Err(e),
                    };
                    let rr = match self.eval(r, spec) {
                        Ok(rel) => Some(rel),
                        Err(EvalError::UnboundAccess { .. } | EvalError::UnknownRelation(_)) => {
                            None
                        }
                        Err(e) => return Err(e),
                    };
                    if lr.is_none() && rr.is_none() {
                        return Err(EvalError::UnboundAccess {
                            relation: expr.to_string(),
                            available: spec.to_string(),
                        });
                    }
                    (lr, rr)
                } else {
                    (Some(self.eval(l, spec)?), Some(self.eval(r, spec)?))
                };
                if let (Some(a), Some(b)) = (&lr, &rr) {
                    if a.schema() != b.schema() {
                        return Err(EvalError::SchemaMismatch(format!(
                            "union of {} and {}",
                            a.schema(),
                            b.schema()
                        )));
                    }
                }
                // The first present side is already a set: the other
                // side's tuples append to it.
                let mut sides = [lr, rr].into_iter().flatten();
                let mut out = sides.next().expect("both sides empty handled above");
                for rel in sides {
                    for t in rel.tuples() {
                        out.push(t.clone());
                    }
                }
                Ok(out)
            }
            Expr::Extend(e, attr, formula) => {
                // The computed attribute does not exist below this node:
                // strip any constant on it before descending (same scope
                // rule as projection).
                let mut inner_spec = AccessSpec::new();
                for (a, v) in spec.iter() {
                    if a != attr {
                        inner_spec.insert(a.clone(), v.clone());
                    }
                }
                let input = self.eval(e, &inner_spec)?;
                if input.schema().contains(attr) {
                    return Err(EvalError::SchemaMismatch(format!(
                        "extend: attribute {attr} already exists"
                    )));
                }
                for a in formula.attrs() {
                    if !input.schema().contains(&a) {
                        return Err(EvalError::UnknownAttr(a.to_string()));
                    }
                }
                let schema = input.schema().join(&Schema::new([attr.clone()]));
                let mut out = Relation::new(schema);
                for t in input.tuples() {
                    let v = formula.eval_value(&input, t);
                    out.push(Tuple::from_values(t.values().iter().cloned().chain([v])));
                }
                // Re-apply any constant on the computed attribute.
                if let Some(want) = spec.get(attr) {
                    let idx = out.schema().index_of(attr).expect("just added");
                    out = filtered(out, |t| t.get(idx).matches(want));
                }
                Ok(out)
            }
            Expr::Diff(l, r) => {
                let lrel = self.eval(l, spec)?;
                let rrel = self.eval(r, spec)?;
                if lrel.schema() != rrel.schema() {
                    return Err(EvalError::SchemaMismatch(format!(
                        "difference of {} and {}",
                        lrel.schema(),
                        rrel.schema()
                    )));
                }
                let mut out = Relation::new(lrel.schema().clone());
                for t in lrel.tuples() {
                    if !rrel.tuples().contains(t) {
                        out.push(t.clone());
                    }
                }
                Ok(out)
            }
            Expr::Join(l, r) => self.eval_join(l, r, spec),
        }
    }

    /// Natural join with sideways information passing. The side whose
    /// bindings the current constants satisfy runs first; the other side
    /// is invoked once per distinct shared-attribute combination from the
    /// first side's result (plus the constants), then hash-joined.
    fn eval_join(&mut self, l: &Expr, r: &Expr, spec: &AccessSpec) -> Result<Relation, EvalError> {
        // Compute all static binding/schema analysis up front so the
        // provider borrow is released before evaluation mutates it.
        let (l_bind, r_bind, l_schema_opt, r_schema_opt) = {
            let base_b = |n: &str| self.provider.bindings(n);
            let base_s = |n: &str| self.provider.schema(n);
            (
                propagate(l, &base_b, &base_s, self.relaxed_union),
                propagate(r, &base_b, &base_s, self.relaxed_union),
                l.schema(&base_s),
                r.schema(&base_s),
            )
        };
        let available = spec.attrs();
        let l_ready = l_bind.satisfied_by(&available);
        let r_ready = r_bind.satisfied_by(&available);
        let (first, second, second_bind, second_schema_opt, swapped) = if l_ready {
            (l, r, r_bind, r_schema_opt, false)
        } else if r_ready {
            (r, l, l_bind, l_schema_opt, true)
        } else {
            return Err(EvalError::UnboundAccess {
                relation: format!("({l} ⋈ {r})"),
                available: spec.to_string(),
            });
        };
        let first_rel = self.eval(first, spec)?;
        let second_schema =
            second_schema_opt.ok_or_else(|| EvalError::UnknownRelation(second.to_string()))?;
        let shared: Vec<Attr> = first_rel.schema().common(&second_schema);

        // Evaluate the second side. When every shared attribute is
        // already a constant, once; otherwise once per distinct
        // shared-value combination from the first side (sideways
        // information passing). The dependent mode is the default even
        // when the constants alone would satisfy the second side's
        // bindings: invocation-style sources *compute from* their
        // optional inputs (a rate quote echoes the year it was asked
        // about), so withholding a shared attribute loses the
        // correlation, not just efficiency.
        let all_shared_bound = shared.iter().all(|a| available.contains(a));
        let mut second_rel = Relation::new(second_schema.clone());
        if all_shared_bound && second_bind.satisfied_by(&available) {
            second_rel = self.eval(second, spec)?;
        } else {
            let idx: Vec<usize> = shared
                .iter()
                .map(|a| first_rel.schema().index_of(a).expect("shared attr in first schema"))
                .collect();
            // Distinct combinations in first-seen order, borrowed from
            // the first side's tuples.
            let mut seen: HashSet<Vec<&Value>> = HashSet::new();
            let combos: Vec<Vec<&Value>> = first_rel
                .tuples()
                .iter()
                .map(|t| idx.iter().map(|&i| t.get(i)).collect::<Vec<_>>())
                .filter(|key| seen.insert(key.clone()))
                .collect();
            for combo in combos {
                // Null join keys never match; skip the invocation.
                if combo.iter().any(|v| v.is_null()) {
                    continue;
                }
                let mut dep_spec = spec.clone();
                for (a, &v) in shared.iter().zip(&combo) {
                    dep_spec.insert(a.clone(), v.clone());
                }
                let dep_avail = dep_spec.attrs();
                if !second_bind.satisfied_by(&dep_avail) {
                    return Err(EvalError::UnboundAccess {
                        relation: second.to_string(),
                        available: dep_spec.to_string(),
                    });
                }
                let part = self.eval(second, &dep_spec)?;
                for t in part.tuples() {
                    second_rel.push(t.clone());
                }
            }
        }

        // Hash join on the shared attributes.
        let (lrel, rrel) = if swapped { (second_rel, first_rel) } else { (first_rel, second_rel) };
        Ok(hash_join(&lrel, &rrel))
    }
}

/// Natural hash join (degenerates to the cartesian product when no
/// attributes are shared). Tuples with a null join key never match.
pub fn hash_join(l: &Relation, r: &Relation) -> Relation {
    let shared = l.schema().common(r.schema());
    let out_schema = l.schema().join(r.schema());
    let mut out = Relation::new(out_schema);
    let l_idx: Vec<usize> =
        shared.iter().map(|a| l.schema().index_of(a).expect("shared in l")).collect();
    let r_idx: Vec<usize> =
        shared.iter().map(|a| r.schema().index_of(a).expect("shared in r")).collect();
    // Extra (non-join) columns of the right side, in schema order.
    let r_extra: Vec<usize> = r
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !l.schema().contains(a))
        .map(|(i, _)| i)
        .collect();
    // Build side: always the right input, whatever its size — probing
    // with the left keeps output tuples in left-then-right order. Keys
    // borrow the tuples' values.
    let mut table: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::new();
    for t in r.tuples() {
        let key: Vec<&Value> = r_idx.iter().map(|&i| t.get(i)).collect();
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        table.entry(key).or_default().push(t);
    }
    let mut key: Vec<&Value> = Vec::with_capacity(l_idx.len());
    for lt in l.tuples() {
        key.clear();
        key.extend(l_idx.iter().map(|&i| lt.get(i)));
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for rt in matches {
                let extra = r_extra.iter().map(|&i| rt.get(i).clone());
                out.push(Tuple::from_values(lt.values().iter().cloned().chain(extra)));
            }
        }
    }
    out
}

/// The tuples of `rel` that satisfy `keep`, in order. When every tuple
/// does, `rel` itself comes back: no tuple is copied or re-indexed.
fn filtered(rel: Relation, keep: impl Fn(&Tuple) -> bool) -> Relation {
    let tuples = rel.tuples();
    let Some(drop) = tuples.iter().position(|t| !keep(t)) else {
        return rel;
    };
    let mut out = Relation::new(rel.schema().clone());
    for t in tuples[..drop].iter().chain(tuples[drop + 1..].iter().filter(|t| keep(t))) {
        out.push(t.clone());
    }
    out
}

/// An in-memory provider for tests and for materialised intermediate
/// results: relations are fully available, with configurable binding
/// sets (default: free access).
#[derive(Debug, Default)]
pub struct MemoryProvider {
    relations: HashMap<String, Relation>,
    bindings: HashMap<String, BindingSet>,
    /// Number of fetches per relation (tests assert invocation counts).
    pub fetch_log: Vec<(String, AccessSpec)>,
}

impl MemoryProvider {
    pub fn new() -> Self {
        MemoryProvider::default()
    }

    pub fn add(&mut self, name: &str, rel: Relation) {
        self.relations.insert(name.to_string(), rel);
    }

    pub fn add_with_bindings(&mut self, name: &str, rel: Relation, bindings: BindingSet) {
        self.relations.insert(name.to_string(), rel);
        self.bindings.insert(name.to_string(), bindings);
    }
}

impl RelationProvider for MemoryProvider {
    fn schema(&self, name: &str) -> Option<Schema> {
        self.relations.get(name).map(|r| r.schema().clone())
    }

    fn bindings(&self, name: &str) -> Option<BindingSet> {
        Some(self.bindings.get(name).cloned().unwrap_or_else(BindingSet::free))
    }

    fn fetch(&mut self, name: &str, spec: &AccessSpec) -> Result<Relation, EvalError> {
        let rel =
            self.relations.get(name).ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        let binds = self.bindings(name).expect("bindings default to free");
        if !binds.satisfied_by(&spec.attrs()) {
            return Err(EvalError::UnboundAccess {
                relation: name.to_string(),
                available: spec.to_string(),
            });
        }
        self.fetch_log.push((name.to_string(), spec.clone()));
        // Return tuples matching the constants (like a form-driven site).
        let mut out = Relation::new(rel.schema().clone());
        for t in rel.tuples() {
            let keep = spec.iter().all(|(a, v)| match rel.schema().index_of(a) {
                Some(i) => t.get(i).matches(v),
                None => true,
            });
            if keep {
                out.push(t.clone());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;

    fn cars() -> Relation {
        Relation::from_rows(
            Schema::new(["make", "model", "price", "url"]),
            [
                vec![Value::str("ford"), Value::str("escort"), Value::Int(500), Value::str("/1")],
                vec![Value::str("ford"), Value::str("focus"), Value::Int(900), Value::str("/2")],
                vec![Value::str("jaguar"), Value::str("xj"), Value::Int(9000), Value::str("/3")],
            ],
        )
    }

    fn feats() -> Relation {
        Relation::from_rows(
            Schema::new(["url", "features"]),
            [
                vec![Value::str("/1"), Value::str("sunroof")],
                vec![Value::str("/2"), Value::str("abs")],
                vec![Value::str("/3"), Value::str("leather")],
            ],
        )
    }

    #[test]
    fn select_project() {
        let mut p = MemoryProvider::new();
        p.add("cars", cars());
        let e = Expr::relation("cars").select(Pred::eq("make", "ford")).project(["model"]);
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema(), &Schema::new(["model"]));
    }

    #[test]
    fn join_free_relations() {
        let mut p = MemoryProvider::new();
        p.add("cars", cars());
        p.add("feats", feats());
        let e = Expr::relation("cars").join(Expr::relation("feats"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 3);
        assert!(r.schema().contains(&"features".into()));
    }

    #[test]
    fn dependent_join_invokes_per_key() {
        let mut p = MemoryProvider::new();
        p.add_with_bindings("cars", cars(), BindingSet::from_attr_lists([vec!["make"]]));
        p.add_with_bindings("feats", feats(), BindingSet::from_attr_lists([vec!["url"]]));
        let e =
            Expr::relation("cars").join(Expr::relation("feats")).select(Pred::eq("make", "ford"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 2);
        // cars fetched once (make=ford), feats once per distinct url (2).
        let cars_fetches = p.fetch_log.iter().filter(|(n, _)| n == "cars").count();
        let feat_fetches = p.fetch_log.iter().filter(|(n, _)| n == "feats").count();
        assert_eq!(cars_fetches, 1);
        assert_eq!(feat_fetches, 2);
    }

    #[test]
    fn unbound_access_reported() {
        let mut p = MemoryProvider::new();
        p.add_with_bindings("cars", cars(), BindingSet::from_attr_lists([vec!["make"]]));
        let e = Expr::relation("cars");
        let err = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect_err("unbound");
        assert!(matches!(err, EvalError::UnboundAccess { .. }));
    }

    #[test]
    fn constants_satisfy_bindings_through_select() {
        let mut p = MemoryProvider::new();
        p.add_with_bindings("cars", cars(), BindingSet::from_attr_lists([vec!["make"]]));
        let e = Expr::relation("cars").select(Pred::eq("make", "jaguar"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_strict_and_relaxed() {
        let mut p = MemoryProvider::new();
        p.add("a", Relation::from_rows(Schema::new(["x"]), [vec![Value::Int(1)]]));
        p.add_with_bindings(
            "b",
            Relation::from_rows(Schema::new(["x"]), [vec![Value::Int(2)]]),
            BindingSet::from_attr_lists([vec!["zip"]]),
        );
        let e = Expr::relation("a").union(Expr::relation("b"));
        // strict: fails because b cannot be invoked
        let err = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect_err("strict fails");
        assert!(matches!(err, EvalError::UnboundAccess { .. }));
        // relaxed: returns a's tuples
        let r = Evaluator::new(&mut p)
            .with_relaxed_union(true)
            .eval(&e, &AccessSpec::new())
            .expect("relaxed evals");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_dedups() {
        let mut p = MemoryProvider::new();
        p.add("a", Relation::from_rows(Schema::new(["x"]), [vec![Value::Int(1)]]));
        p.add("b", Relation::from_rows(Schema::new(["x"]), [vec![Value::Int(1)]]));
        let e = Expr::relation("a").union(Expr::relation("b"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rename_translates_constants() {
        let mut p = MemoryProvider::new();
        p.add_with_bindings("cars", cars(), BindingSet::from_attr_lists([vec!["make"]]));
        let e = Expr::relation("cars")
            .rename([("make", "manufacturer")])
            .select(Pred::eq("manufacturer", "ford"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 2);
        assert!(r.schema().contains(&"manufacturer".into()));
        assert!(!r.schema().contains(&"make".into()));
    }

    #[test]
    fn join_on_null_keys_skipped() {
        let l = Relation::from_rows(
            Schema::new(["k", "a"]),
            [vec![Value::Null, Value::Int(1)], vec![Value::Int(7), Value::Int(2)]],
        );
        let r = Relation::from_rows(
            Schema::new(["k", "b"]),
            [vec![Value::Null, Value::Int(3)], vec![Value::Int(7), Value::Int(4)]],
        );
        let j = hash_join(&l, &r);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn cartesian_product_when_disjoint() {
        let l = Relation::from_rows(Schema::new(["a"]), [vec![Value::Int(1)], vec![Value::Int(2)]]);
        let r = Relation::from_rows(Schema::new(["b"]), [vec![Value::Int(3)], vec![Value::Int(4)]]);
        assert_eq!(hash_join(&l, &r).len(), 4);
    }

    #[test]
    fn provider_overdelivery_is_refiltered() {
        /// A provider that ignores the spec entirely (over-delivers).
        struct Sloppy(Relation);
        impl RelationProvider for Sloppy {
            fn schema(&self, _n: &str) -> Option<Schema> {
                Some(self.0.schema().clone())
            }
            fn bindings(&self, _n: &str) -> Option<BindingSet> {
                Some(BindingSet::free())
            }
            fn fetch(&mut self, _n: &str, _s: &AccessSpec) -> Result<Relation, EvalError> {
                Ok(self.0.clone())
            }
        }
        let mut p = Sloppy(cars());
        let e = Expr::relation("cars").select(Pred::eq("make", "jaguar"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(r.len(), 1);
        // Dropping a later tuple keeps the survivors in provider order.
        let e = Expr::relation("cars").select(Pred::eq("make", "ford"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        let urls: Vec<&Value> = r.tuples().iter().map(|t| t.get(3)).collect();
        assert_eq!(urls, [&Value::str("/1"), &Value::str("/2")]);
    }

    #[test]
    fn exact_provider_answers_pass_through_in_order() {
        /// A provider that returns exactly the matching tuples and keeps
        /// a handle on each answer it served.
        struct Exact {
            inner: MemoryProvider,
            served: Vec<Relation>,
        }
        impl RelationProvider for Exact {
            fn schema(&self, n: &str) -> Option<Schema> {
                self.inner.schema(n)
            }
            fn bindings(&self, n: &str) -> Option<BindingSet> {
                self.inner.bindings(n)
            }
            fn fetch(&mut self, n: &str, s: &AccessSpec) -> Result<Relation, EvalError> {
                let rel = self.inner.fetch(n, s)?;
                self.served.push(rel.clone());
                Ok(rel)
            }
        }
        let mut inner = MemoryProvider::new();
        inner.add("cars", cars());
        let mut p = Exact { inner, served: Vec::new() };
        let e = Expr::relation("cars").select(Pred::eq("make", "ford"));
        let r = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        let served = &p.served[0];
        assert_eq!(r.tuples(), served.tuples(), "same tuples, same order");
        assert_eq!(r.len(), 2);
        // Nothing was re-inserted: the answer shares the served values.
        for (got, sent) in r.tuples().iter().zip(served.tuples()) {
            assert!(std::ptr::eq(got.values(), sent.values()));
        }
    }
}

#[cfg(test)]
mod diff_tests {
    use super::*;
    use crate::predicate::Pred;

    fn rel_ab(rows: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            Schema::new(["a", "b"]),
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]),
        )
    }

    #[test]
    fn difference_semantics() {
        let mut p = MemoryProvider::new();
        p.add("l", rel_ab(&[(1, 1), (2, 2), (3, 3)]));
        p.add("r", rel_ab(&[(2, 2)]));
        let e = Expr::relation("l").diff(Expr::relation("r"));
        let out = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(out, rel_ab(&[(1, 1), (3, 3)]));
    }

    #[test]
    fn difference_schema_mismatch() {
        let mut p = MemoryProvider::new();
        p.add("l", rel_ab(&[(1, 1)]));
        p.add("r", Relation::from_rows(Schema::new(["x"]), [vec![Value::Int(1)]]));
        let e = Expr::relation("l").diff(Expr::relation("r"));
        assert!(matches!(
            Evaluator::new(&mut p).eval(&e, &AccessSpec::new()),
            Err(EvalError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn difference_with_selection() {
        let mut p = MemoryProvider::new();
        p.add("l", rel_ab(&[(1, 10), (2, 20), (3, 30)]));
        p.add("r", rel_ab(&[(1, 10)]));
        // σ pushes its constant into both sides — same scope, same role.
        let e = Expr::relation("l").diff(Expr::relation("r")).select(Pred::le("b", 20i64));
        let out = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(out, rel_ab(&[(2, 20)]));
    }

    #[test]
    fn difference_bindings_require_both_sides() {
        use crate::binding::{propagate, BindingSet};
        let e = Expr::relation("l").diff(Expr::relation("r"));
        let bb = |n: &str| match n {
            "l" => Some(BindingSet::from_attr_lists([vec!["a"]])),
            "r" => Some(BindingSet::from_attr_lists([vec!["b"]])),
            _ => None,
        };
        let bs = |_: &str| Some(Schema::new(["a", "b"]));
        let out = propagate(&e, &bb, &bs, false);
        assert_eq!(out.to_string(), "{a, b}");
        // relaxed mode must NOT relax a difference
        let relaxed = propagate(&e, &bb, &bs, true);
        assert_eq!(relaxed.to_string(), "{a, b}");
    }
}
