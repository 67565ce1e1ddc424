//! Incremental view maintenance over the σ/π/⋈/∪ algebra.
//!
//! When a page drifts, the base (VPS) relations computed from it change
//! by a handful of tuples; recomputing a cached view from scratch
//! re-navigates every site the view touches. This module propagates
//! **per-base deltas** (tuples added/removed) up through an expression
//! tree instead, using the classical set-semantics maintenance rules
//! (the recent/stable split of the delta literature):
//!
//! * σ, ρ, ε distribute over deltas exactly (tuple-wise operators);
//! * π and ∪ need a *support check* — a removed input tuple only
//!   removes its image if no surviving tuple still produces it;
//! * ⋈ joins each side's delta against the other side's old/new value
//!   and support-checks removals by decomposing the joined tuple;
//! * ∖ (difference) is **not incrementalized** — negation makes the
//!   naive rules unsound, so a [`DeltaError::NonIncremental`] tells the
//!   caller to fall back to re-evaluation (degradation, never wrong
//!   answers).
//!
//! The collector works entirely on materialised relations: the engine
//! logs each invocation's old value and re-runs only the invocations
//! whose pages changed, so the *fetching* savings happen a layer up;
//! here we guarantee the maintained value is identical to a cold
//! re-run (`refresh(e).new() == eval(e, new bases)` — property-tested).

use crate::algebra::Expr;
use crate::eval::hash_join;
use crate::relation::{Relation, Tuple};
use crate::schema::Schema;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A set-semantics change: tuples to add and tuples to remove, disjoint
/// and both relative to some old relation value.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub added: Relation,
    pub removed: Relation,
}

impl Delta {
    pub fn empty(schema: Schema) -> Delta {
        Delta { added: Relation::new(schema.clone()), removed: Relation::new(schema) }
    }

    /// The exact change turning `old` into `new`.
    pub fn diff(old: &Relation, new: &Relation) -> Delta {
        let old_set: HashSet<&Tuple> = old.tuples().iter().collect();
        let new_set: HashSet<&Tuple> = new.tuples().iter().collect();
        let mut added = Relation::new(new.schema().clone());
        for t in new.tuples() {
            if !old_set.contains(t) {
                added.push(t.clone());
            }
        }
        let mut removed = Relation::new(old.schema().clone());
        for t in old.tuples() {
            if !new_set.contains(t) {
                removed.push(t.clone());
            }
        }
        Delta { added, removed }
    }

    /// `(old ∖ removed) ∪ added`.
    pub fn apply(&self, old: &Relation) -> Relation {
        let gone: HashSet<&Tuple> = self.removed.tuples().iter().collect();
        let mut out = Relation::new(old.schema().clone());
        for t in old.tuples() {
            if !gone.contains(t) {
                out.push(t.clone());
            }
        }
        for t in self.added.tuples() {
            out.push(t.clone());
        }
        out
    }

    /// Total changed tuples (both directions).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One base relation's old value and its refreshed value.
#[derive(Debug, Clone)]
pub struct BaseDelta {
    pub old: Relation,
    pub new: Relation,
}

impl BaseDelta {
    pub fn unchanged(rel: Relation) -> BaseDelta {
        BaseDelta { old: rel.clone(), new: rel }
    }
}

/// Why delta propagation refused an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The expression contains an operator (or a hole) the maintenance
    /// rules cannot handle soundly; fall back to re-evaluation.
    NonIncremental(String),
    /// The expression is malformed w.r.t. its inputs (would not have
    /// evaluated cold either).
    Malformed(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NonIncremental(m) => write!(f, "non-incrementalizable: {m}"),
            DeltaError::Malformed(m) => write!(f, "malformed expression: {m}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Work accounting for one refresh: how small the delta actually was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Operator nodes visited.
    pub nodes: usize,
    /// Changed tuples propagated across all nodes (the incremental
    /// work); compare against the full view size to judge the win.
    pub delta_tuples: usize,
}

/// A node's maintenance result: the value the node *had*, and the exact
/// change to it.
#[derive(Debug, Clone)]
pub struct NodeDelta {
    pub old: Relation,
    pub delta: Delta,
}

impl NodeDelta {
    /// The node's refreshed value.
    pub fn new_value(&self) -> Relation {
        self.delta.apply(&self.old)
    }
}

fn tuple_set(rel: &Relation) -> HashSet<&Tuple> {
    rel.tuples().iter().collect()
}

/// Project one tuple of `from` onto `onto` (attribute order of `onto`).
fn project_tuple(from: &Relation, t: &Tuple, onto: &Schema) -> Tuple {
    Tuple::from_values(onto.attrs().iter().map(|a| {
        let idx = from.schema().index_of(a).expect("projection attr present");
        t.get(idx).clone()
    }))
}

/// The incremental collector: holds the per-base deltas and propagates
/// them through expressions, accumulating [`DeltaStats`].
#[derive(Debug, Default)]
pub struct Incremental {
    bases: HashMap<String, BaseDelta>,
    pub stats: DeltaStats,
}

impl Incremental {
    pub fn new(bases: HashMap<String, BaseDelta>) -> Incremental {
        Incremental { bases, stats: DeltaStats::default() }
    }

    pub fn add_base(&mut self, name: &str, base: BaseDelta) {
        self.bases.insert(name.to_string(), base);
    }

    /// Maintain `expr`: compute its old value and the exact change to
    /// it from the per-base deltas. `Err(NonIncremental)` means the
    /// caller must re-evaluate; `Err(Malformed)` means a cold run would
    /// have failed too.
    pub fn refresh(&mut self, expr: &Expr) -> Result<NodeDelta, DeltaError> {
        self.stats.nodes += 1;
        let nd = match expr {
            Expr::Rel(name) => {
                let base = self.bases.get(name).ok_or_else(|| {
                    DeltaError::NonIncremental(format!("base relation {name} was not logged"))
                })?;
                NodeDelta { old: base.old.clone(), delta: Delta::diff(&base.old, &base.new) }
            }

            Expr::Select(e, p) => {
                let child = self.refresh(e)?;
                let p = p
                    .resolve(child.old.schema())
                    .map_err(|a| DeltaError::Malformed(format!("σ on unknown attribute {a}")))?;
                let filter = |rel: &Relation| {
                    let mut out = Relation::new(rel.schema().clone());
                    for t in rel.tuples() {
                        if p.eval(t) {
                            out.push(t.clone());
                        }
                    }
                    out
                };
                // σ is tuple-wise: it distributes over both delta sides.
                NodeDelta {
                    old: filter(&child.old),
                    delta: Delta {
                        added: filter(&child.delta.added),
                        removed: filter(&child.delta.removed),
                    },
                }
            }

            Expr::Project(e, attrs) => {
                let child = self.refresh(e)?;
                let out_schema = child.old.schema().project(attrs);
                for a in attrs {
                    if !child.old.schema().contains(a) {
                        return Err(DeltaError::Malformed(format!("π on unknown attribute {a}")));
                    }
                }
                let project = |rel: &Relation| {
                    let mut out = Relation::new(out_schema.clone());
                    for t in rel.tuples() {
                        out.push(project_tuple(rel, t, &out_schema));
                    }
                    out
                };
                let old = project(&child.old);
                let old_set = tuple_set(&old);
                // Additions: images of added inputs that are genuinely new.
                let mut added = Relation::new(out_schema.clone());
                for t in child.delta.added.tuples() {
                    let img = project_tuple(&child.delta.added, t, &out_schema);
                    if !old_set.contains(&img) {
                        added.push(img);
                    }
                }
                // Removals need support: the image dies only if no tuple
                // of the refreshed input still produces it.
                let new_child = child.new_value();
                let surviving: HashSet<Tuple> = new_child
                    .tuples()
                    .iter()
                    .map(|t| project_tuple(&new_child, t, &out_schema))
                    .collect();
                let mut removed = Relation::new(out_schema.clone());
                for t in child.delta.removed.tuples() {
                    let img = project_tuple(&child.delta.removed, t, &out_schema);
                    if old_set.contains(&img) && !surviving.contains(&img) {
                        removed.push(img);
                    }
                }
                NodeDelta { old, delta: Delta { added, removed } }
            }

            Expr::Rename(e, pairs) => {
                let child = self.refresh(e)?;
                let schema = Schema::new(child.old.schema().attrs().iter().map(|a| {
                    pairs
                        .iter()
                        .find(|(from, _)| from == a)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| a.clone())
                }));
                let rename = |rel: &Relation| {
                    let mut out = Relation::new(schema.clone());
                    for t in rel.tuples() {
                        out.push(t.clone());
                    }
                    out
                };
                // ρ is a bijection on tuples: exact on both sides.
                NodeDelta {
                    old: rename(&child.old),
                    delta: Delta {
                        added: rename(&child.delta.added),
                        removed: rename(&child.delta.removed),
                    },
                }
            }

            Expr::Extend(e, attr, formula) => {
                let child = self.refresh(e)?;
                if child.old.schema().contains(attr) {
                    return Err(DeltaError::Malformed(format!("ε re-defines attribute {attr}")));
                }
                let formula = formula
                    .resolve(child.old.schema())
                    .map_err(|a| DeltaError::Malformed(format!("ε reads unknown attribute {a}")))?;
                let schema = child.old.schema().join(&Schema::new([attr.clone()]));
                let extend = |rel: &Relation| {
                    let mut out = Relation::new(schema.clone());
                    for t in rel.tuples() {
                        let mut vals = t.values().to_vec();
                        vals.push(formula.eval_value(t));
                        out.push(Tuple::from_values(vals));
                    }
                    out
                };
                // ε is tuple-wise and deterministic: exact on both sides.
                NodeDelta {
                    old: extend(&child.old),
                    delta: Delta {
                        added: extend(&child.delta.added),
                        removed: extend(&child.delta.removed),
                    },
                }
            }

            Expr::Union(l, r) => {
                let lc = self.refresh(l)?;
                let rc = self.refresh(r)?;
                if lc.old.schema() != rc.old.schema() {
                    return Err(DeltaError::Malformed(format!(
                        "∪ of {} and {}",
                        lc.old.schema(),
                        rc.old.schema()
                    )));
                }
                let schema = lc.old.schema().clone();
                let mut old = Relation::new(schema.clone());
                for t in lc.old.tuples().iter().chain(rc.old.tuples()) {
                    old.push(t.clone());
                }
                let old_set = tuple_set(&old);
                let mut added = Relation::new(schema.clone());
                for t in lc.delta.added.tuples().iter().chain(rc.delta.added.tuples()) {
                    if !old_set.contains(t) {
                        added.push((*t).clone());
                    }
                }
                // A removal survives if the *other* side's refreshed
                // value still contains the tuple.
                let l_new = lc.new_value();
                let r_new = rc.new_value();
                let l_new_set = tuple_set(&l_new);
                let r_new_set = tuple_set(&r_new);
                let mut removed = Relation::new(schema);
                for t in lc.delta.removed.tuples().iter().chain(rc.delta.removed.tuples()) {
                    if old_set.contains(t) && !l_new_set.contains(t) && !r_new_set.contains(t) {
                        removed.push((*t).clone());
                    }
                }
                NodeDelta { old, delta: Delta { added, removed } }
            }

            Expr::Join(l, r) => {
                let lc = self.refresh(l)?;
                let rc = self.refresh(r)?;
                let l_new = lc.new_value();
                let r_new = rc.new_value();
                let old = hash_join(&lc.old, &rc.old);
                let old_set = tuple_set(&old);
                // Additions: a new joined tuple involves an added tuple
                // on at least one side.
                let mut added = Relation::new(old.schema().clone());
                for cand in [hash_join(&lc.delta.added, &r_new), hash_join(&l_new, &rc.delta.added)]
                {
                    for t in cand.tuples() {
                        if !old_set.contains(t) {
                            added.push(t.clone());
                        }
                    }
                }
                // Removal candidates involve a removed tuple on a side;
                // a natural-join tuple decomposes uniquely, so it dies
                // iff either projection left its refreshed side.
                let l_new_set: HashSet<Tuple> = l_new.tuples().iter().cloned().collect();
                let r_new_set: HashSet<Tuple> = r_new.tuples().iter().cloned().collect();
                let mut removed = Relation::new(old.schema().clone());
                for cand in
                    [hash_join(&lc.delta.removed, &rc.old), hash_join(&lc.old, &rc.delta.removed)]
                {
                    for t in cand.tuples() {
                        let tl = project_tuple(&cand, t, lc.old.schema());
                        let tr = project_tuple(&cand, t, rc.old.schema());
                        if old_set.contains(t)
                            && !(l_new_set.contains(&tl) && r_new_set.contains(&tr))
                        {
                            removed.push(t.clone());
                        }
                    }
                }
                NodeDelta { old, delta: Delta { added, removed } }
            }

            Expr::Diff(_, _) => {
                return Err(DeltaError::NonIncremental(
                    "∖ (difference) is not maintained incrementally".into(),
                ));
            }
        };
        self.stats.delta_tuples += nd.delta.len();
        Ok(nd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::parse_arith;
    use crate::eval::{AccessSpec, Evaluator, MemoryProvider};
    use crate::predicate::Pred;
    use crate::value::Value;

    fn rel(schema: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            Schema::new(schema.iter().copied()),
            rows.iter().map(|r| r.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>()),
        )
    }

    /// Cold-run `expr` over the given bases with the real evaluator.
    fn cold(expr: &Expr, bases: &HashMap<String, BaseDelta>, new: bool) -> Relation {
        let mut p = MemoryProvider::new();
        for (name, b) in bases {
            p.add(name, if new { b.new.clone() } else { b.old.clone() });
        }
        Evaluator::new(&mut p).eval(expr, &AccessSpec::new()).expect("cold run evaluates")
    }

    /// The invariant every rule must keep: old matches a cold run over
    /// the old bases, and applying the delta matches a cold run over
    /// the new bases.
    fn check(expr: &Expr, bases: &HashMap<String, BaseDelta>) {
        let mut inc = Incremental::new(bases.clone());
        let nd = inc.refresh(expr).expect("incrementalizable");
        assert_eq!(nd.old, cold(expr, bases, false), "old value ≡ cold run on old bases");
        assert_eq!(nd.new_value(), cold(expr, bases, true), "maintained ≡ cold run on new bases");
    }

    fn bases_rs() -> HashMap<String, BaseDelta> {
        let mut m = HashMap::new();
        m.insert(
            "r".to_string(),
            BaseDelta {
                old: rel(&["k", "a"], &[&[1, 10], &[2, 20], &[3, 30]]),
                // tuple (2,20) removed, (4,40) added, (3,30) kept
                new: rel(&["k", "a"], &[&[1, 10], &[3, 30], &[4, 40]]),
            },
        );
        m.insert(
            "s".to_string(),
            BaseDelta {
                old: rel(&["k", "b"], &[&[1, 7], &[2, 7], &[3, 9]]),
                new: rel(&["k", "b"], &[&[1, 7], &[2, 8], &[3, 9]]),
            },
        );
        m
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let old = rel(&["x"], &[&[1], &[2]]);
        let new = rel(&["x"], &[&[2], &[3]]);
        let d = Delta::diff(&old, &new);
        assert_eq!(d.added, rel(&["x"], &[&[3]]));
        assert_eq!(d.removed, rel(&["x"], &[&[1]]));
        assert_eq!(d.apply(&old), new);
        assert!(Delta::diff(&old, &old).is_empty());
    }

    #[test]
    fn select_distributes() {
        check(&Expr::relation("r").select(Pred::ge("a", 20i64)), &bases_rs());
    }

    #[test]
    fn project_needs_support() {
        // π[b](s): old has b ∈ {7 (twice), 9}; (2,7) → (2,8) must NOT
        // remove 7 (still supported by (1,7)) and must add 8.
        check(&Expr::relation("s").project(["b"]), &bases_rs());
    }

    #[test]
    fn rename_and_extend_are_exact() {
        check(&Expr::relation("r").rename([("a", "price")]), &bases_rs());
        check(
            &Expr::relation("r").extend("half", parse_arith("a / 2").expect("parses")),
            &bases_rs(),
        );
    }

    #[test]
    fn union_needs_support() {
        // r ∪ ρ(s): overlapping tuples must survive one-sided removals.
        let mut m = HashMap::new();
        m.insert(
            "a".to_string(),
            BaseDelta {
                old: rel(&["x"], &[&[1], &[2]]),
                new: rel(&["x"], &[&[2]]), // 1 removed here…
            },
        );
        m.insert(
            "b".to_string(),
            BaseDelta::unchanged(rel(&["x"], &[&[1], &[3]])), // …but survives here
        );
        check(&Expr::relation("a").union(Expr::relation("b")), &m);
    }

    #[test]
    fn join_maintains_both_sides() {
        check(&Expr::relation("r").join(Expr::relation("s")), &bases_rs());
        // And under a selection over the join.
        check(
            &Expr::relation("r").join(Expr::relation("s")).select(Pred::eq("b", 7i64)),
            &bases_rs(),
        );
    }

    #[test]
    fn diff_node_is_non_incremental() {
        let mut inc = Incremental::new(bases_rs());
        let e = Expr::relation("r").diff(Expr::relation("r"));
        assert!(matches!(inc.refresh(&e), Err(DeltaError::NonIncremental(_))));
    }

    #[test]
    fn missing_base_is_non_incremental() {
        let mut inc = Incremental::new(HashMap::new());
        assert!(matches!(
            inc.refresh(&Expr::relation("ghost")),
            Err(DeltaError::NonIncremental(_))
        ));
    }

    #[test]
    fn stats_count_propagated_work() {
        let mut inc = Incremental::new(bases_rs());
        let nd = inc.refresh(&Expr::relation("r").select(Pred::ge("a", 10i64))).expect("evals");
        assert_eq!(inc.stats.nodes, 2);
        assert!(inc.stats.delta_tuples >= nd.delta.len());
        assert!(!nd.delta.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random small relations over tiny value domains (to force
        /// collisions, shared join keys, and genuine support cases).
        fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
            proptest::collection::vec((0i64..4, 0i64..3), 0..8)
        }

        fn to_bases(
            r_old: Vec<(i64, i64)>,
            r_new: Vec<(i64, i64)>,
            s_old: Vec<(i64, i64)>,
            s_new: Vec<(i64, i64)>,
        ) -> HashMap<String, BaseDelta> {
            let mk = |schema: [&str; 2], rows: Vec<(i64, i64)>| {
                Relation::from_rows(
                    Schema::new(schema),
                    rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]),
                )
            };
            let mut m = HashMap::new();
            m.insert(
                "r".to_string(),
                BaseDelta { old: mk(["k", "a"], r_old), new: mk(["k", "a"], r_new) },
            );
            m.insert(
                "s".to_string(),
                BaseDelta { old: mk(["k", "b"], s_old), new: mk(["k", "b"], s_new) },
            );
            m
        }

        /// Expressions exercising every maintained operator.
        fn shapes() -> Vec<Expr> {
            vec![
                Expr::relation("r"),
                Expr::relation("r").select(Pred::le("a", 1i64)),
                Expr::relation("r").project(["a"]),
                Expr::relation("r").rename([("a", "z")]),
                Expr::relation("r").extend("sum", parse_arith("k + a").expect("parses")),
                Expr::relation("r").join(Expr::relation("s")),
                Expr::relation("r")
                    .join(Expr::relation("s"))
                    .select(Pred::eq("b", 1i64))
                    .project(["k", "b"]),
                Expr::relation("r").project(["k"]).union(Expr::relation("s").project(["k"])),
            ]
        }

        proptest! {
            #[test]
            fn maintained_equals_cold_rerun(
                r_old in arb_rows(), r_new in arb_rows(),
                s_old in arb_rows(), s_new in arb_rows(),
            ) {
                let bases = to_bases(r_old, r_new, s_old, s_new);
                for expr in shapes() {
                    check(&expr, &bases);
                }
            }
        }
    }
}
