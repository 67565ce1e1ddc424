//! Binding propagation — §5 of the paper, implemented verbatim.
//!
//! A **binding** for a relation is a set of attributes such that
//! supplying concrete values for all of them suffices to invoke the
//! relation (for a VPS relation: a handle's mandatory-attribute set).
//! A relation generally has several alternative bindings; we keep the
//! *minimal* ones (any superset of a binding is trivially a binding).
//!
//! The propagation rules, one per relational operator:
//!
//! * **Base**: the bindings of a VPS relation `V` are the mandatory
//!   attribute sets of its handles.
//! * **Union / strict** (`E = E₁ ∪ E₂`): if `M₁` binds `E₁` and `M₂`
//!   binds `E₂`, then `M₁ ∪ M₂` binds `E` — both sides must be
//!   invocable. The paper's footnote also defines the **relaxed union**,
//!   where `M₁` and `M₂` are *separately* acceptable (the user accepts
//!   partial answers); see [`BindingRules::relaxed_union`].
//! * **Selection / projection** (`σ(E)`, `π_X(E)`): every binding of `E`
//!   is a binding of the result. (Binding attributes need not be output
//!   attributes — a form input need not appear in the answer.)
//!   Additionally, equality constants `A = c` in a selection supply `A`,
//!   so `M ∖ {A}` also becomes a binding.
//! * **Join** (`E = E₁ ⋈ E₂`): if `M₁`, `M₂` bind the operands, then
//!   `M₁ ∪ M₂` binds `E`, and so do `M₁ ∪ (M₂ ∖ (E₁ ∩ E₂))` and
//!   `M₂ ∪ (M₁ ∖ (E₁ ∩ E₂))` — common attributes flow across the join,
//!   so one side's mandatory attributes can be fed by the other side's
//!   tuples (this is what makes the dependent-join evaluation of
//!   [`crate::eval`] possible).

use crate::algebra::Expr;
use crate::predicate::Pred;
use crate::schema::{Attr, Schema};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One alternative set of attributes that suffices to invoke a relation.
pub type Binding = BTreeSet<Attr>;

/// The set of *minimal* alternative bindings of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BindingSet {
    bindings: Vec<Binding>,
}

impl BindingSet {
    /// No way to invoke the relation at all (e.g. a union with an
    /// un-invocable side).
    pub fn unsatisfiable() -> BindingSet {
        BindingSet { bindings: Vec::new() }
    }

    /// Invocable with no inputs (a scannable relation — e.g. one fully
    /// materialised by navigation without forms).
    pub fn free() -> BindingSet {
        BindingSet::from_bindings([Binding::new()])
    }

    pub fn from_bindings<I>(bindings: I) -> BindingSet
    where
        I: IntoIterator<Item = Binding>,
    {
        let mut bs = BindingSet { bindings: bindings.into_iter().collect() };
        bs.normalize();
        bs
    }

    /// Build from attribute-name lists.
    pub fn from_attr_lists<'a, I, J>(lists: I) -> BindingSet
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = &'a str>,
    {
        BindingSet::from_bindings(lists.into_iter().map(|l| l.into_iter().map(Attr::new).collect()))
    }

    /// Remove duplicate and non-minimal (superset) bindings, sort for
    /// deterministic output.
    fn normalize(&mut self) {
        self.bindings.sort();
        self.bindings.dedup();
        let snapshot = self.bindings.clone();
        self.bindings.retain(|b| !snapshot.iter().any(|other| other != b && other.is_subset(b)));
        self.bindings.sort_by_key(|b| (b.len(), format!("{b:?}")));
    }

    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    pub fn is_unsatisfiable(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Can the relation be invoked given values for `available`?
    pub fn satisfied_by(&self, available: &BTreeSet<Attr>) -> bool {
        self.bindings.iter().any(|b| b.is_subset(available))
    }

    /// Can the relation be invoked when `has` tells which attributes
    /// have values? The allocation-free form of
    /// [`BindingSet::satisfied_by`].
    pub fn satisfied_with(&self, has: impl Fn(&Attr) -> bool) -> bool {
        self.bindings.iter().any(|b| b.iter().all(&has))
    }

    /// The smallest binding satisfied by `available`, if any.
    pub fn choose(&self, available: &BTreeSet<Attr>) -> Option<&Binding> {
        self.bindings.iter().filter(|b| b.is_subset(available)).min_by_key(|b| b.len())
    }
}

impl fmt::Display for BindingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return f.write_str("∅ (unsatisfiable)");
        }
        let parts: Vec<String> = self
            .bindings
            .iter()
            .map(|b| format!("{{{}}}", b.iter().map(Attr::as_str).collect::<Vec<_>>().join(", ")))
            .collect();
        f.write_str(&parts.join(" | "))
    }
}

/// The per-operator propagation rules. Stateless; grouped for
/// discoverability and ablation benchmarks.
pub struct BindingRules;

impl BindingRules {
    /// σ rule: bindings carry over, and equality constants supply their
    /// attributes.
    pub fn select(input: &BindingSet, pred: &Pred) -> BindingSet {
        let bound: BTreeSet<Attr> = pred.bound_constants().into_iter().map(|(a, _)| a).collect();
        let mut out = Vec::with_capacity(input.bindings.len() * 2);
        for b in &input.bindings {
            out.push(b.clone()); // paper's rule: M remains a binding
            if !bound.is_empty() {
                // constants supply attributes: M ∖ bound is also a binding
                out.push(b.difference(&bound).cloned().collect());
            }
        }
        BindingSet::from_bindings(out)
    }

    /// π rule: bindings carry over unchanged (input attributes need not
    /// be visible in the output).
    pub fn project(input: &BindingSet) -> BindingSet {
        input.clone()
    }

    /// ρ rule: bindings are renamed along with the schema.
    pub fn rename(input: &BindingSet, pairs: &[(Attr, Attr)]) -> BindingSet {
        BindingSet::from_bindings(input.bindings.iter().map(|b| {
            b.iter()
                .map(|a| {
                    pairs
                        .iter()
                        .find(|(from, _)| from == a)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| a.clone())
                })
                .collect()
        }))
    }

    /// Strict ∪ rule: `M₁ ∪ M₂` for every pair.
    pub fn union(l: &BindingSet, r: &BindingSet) -> BindingSet {
        let mut out = Vec::with_capacity(l.bindings.len() * r.bindings.len());
        for m1 in &l.bindings {
            for m2 in &r.bindings {
                out.push(m1.union(m2).cloned().collect());
            }
        }
        BindingSet::from_bindings(out)
    }

    /// Relaxed ∪ (paper footnote 4): the user accepts partial answers, so
    /// each side's bindings are separately acceptable.
    pub fn relaxed_union(l: &BindingSet, r: &BindingSet) -> BindingSet {
        BindingSet::from_bindings(l.bindings.iter().chain(r.bindings.iter()).cloned())
    }

    /// ⋈ rule: `M₁ ∪ M₂`, plus the variants where the common attributes
    /// are fed across the join.
    pub fn join(
        l: &BindingSet,
        r: &BindingSet,
        l_schema: &Schema,
        r_schema: &Schema,
    ) -> BindingSet {
        let common: BTreeSet<Attr> = l_schema.common(r_schema).into_iter().collect();
        let mut out = Vec::new();
        for m1 in &l.bindings {
            for m2 in &r.bindings {
                let both: Binding = m1.union(m2).cloned().collect();
                out.push(both);
                // Left evaluated first: its tuples supply the common
                // attributes of the right side's binding.
                let m2_fed: Binding = m2.difference(&common).cloned().collect();
                out.push(m1.union(&m2_fed).cloned().collect());
                // Symmetrically, right first.
                let m1_fed: Binding = m1.difference(&common).cloned().collect();
                out.push(m2.union(&m1_fed).cloned().collect());
            }
        }
        BindingSet::from_bindings(out)
    }
}

/// Compute the binding set of an arbitrary algebra expression, given the
/// handles (binding sets) and schemas of the base relations.
///
/// `base_bindings` and `base_schema` return `None` for unknown relations,
/// which yields an unsatisfiable result (you cannot invoke what you
/// cannot name).
pub fn propagate(
    expr: &Expr,
    base_bindings: &dyn Fn(&str) -> Option<BindingSet>,
    base_schema: &dyn Fn(&str) -> Option<Schema>,
    relaxed: bool,
) -> BindingSet {
    match expr {
        Expr::Rel(n) => base_bindings(n).unwrap_or_else(BindingSet::unsatisfiable),
        Expr::Select(e, p) => {
            BindingRules::select(&propagate(e, base_bindings, base_schema, relaxed), p)
        }
        Expr::Project(e, _) => {
            BindingRules::project(&propagate(e, base_bindings, base_schema, relaxed))
        }
        Expr::Rename(e, pairs) => {
            BindingRules::rename(&propagate(e, base_bindings, base_schema, relaxed), pairs)
        }
        // A computed column adds no invocation requirements.
        Expr::Extend(e, _, _) => propagate(e, base_bindings, base_schema, relaxed),
        Expr::Union(l, r) => {
            let lb = propagate(l, base_bindings, base_schema, relaxed);
            let rb = propagate(r, base_bindings, base_schema, relaxed);
            if relaxed {
                BindingRules::relaxed_union(&lb, &rb)
            } else {
                BindingRules::union(&lb, &rb)
            }
        }
        // The §5 rule for E₁ ∖ E₂ is the same as for union: both sides
        // must be invoked (the relaxed variant makes no sense here — a
        // missing subtrahend silently changes the answer's meaning).
        Expr::Diff(l, r) => {
            let lb = propagate(l, base_bindings, base_schema, relaxed);
            let rb = propagate(r, base_bindings, base_schema, relaxed);
            BindingRules::union(&lb, &rb)
        }
        Expr::Join(l, r) => {
            let lb = propagate(l, base_bindings, base_schema, relaxed);
            let rb = propagate(r, base_bindings, base_schema, relaxed);
            match (l.schema(base_schema), r.schema(base_schema)) {
                (Some(ls), Some(rs)) => BindingRules::join(&lb, &rb, &ls, &rs),
                // Without schemas the cross-feed variants are unknown; the
                // safe rule is plain union of bindings.
                _ => BindingRules::union(&lb, &rb),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(names: &[&str]) -> BTreeSet<Attr> {
        names.iter().map(|n| Attr::new(*n)).collect()
    }

    #[test]
    fn normalization_removes_supersets() {
        let bs = BindingSet::from_attr_lists([
            vec!["make", "model"],
            vec!["make"],
            vec!["make", "model", "year"],
        ]);
        assert_eq!(bs.bindings().len(), 1);
        assert_eq!(bs.bindings()[0], attrs(&["make"]));
    }

    #[test]
    fn satisfied_and_choose() {
        let bs = BindingSet::from_attr_lists([vec!["make", "model"], vec!["url"]]);
        assert!(bs.satisfied_by(&attrs(&["url", "zzz"])));
        assert!(!bs.satisfied_by(&attrs(&["make"])));
        assert_eq!(bs.choose(&attrs(&["make", "model", "url"])), Some(&attrs(&["url"])));
    }

    #[test]
    fn select_rule_with_constants() {
        let bs = BindingSet::from_attr_lists([vec!["make", "model"]]);
        let p = Pred::eq("make", "ford");
        let out = BindingRules::select(&bs, &p);
        // make supplied by the constant → {model} is now the minimal binding
        assert_eq!(out.bindings(), &[attrs(&["model"])]);
    }

    #[test]
    fn union_rule_strict_vs_relaxed() {
        let l = BindingSet::from_attr_lists([vec!["make"]]);
        let r = BindingSet::from_attr_lists([vec!["url"]]);
        let strict = BindingRules::union(&l, &r);
        assert_eq!(strict.bindings(), &[attrs(&["make", "url"])]);
        let relaxed = BindingRules::relaxed_union(&l, &r);
        assert_eq!(relaxed.bindings().len(), 2);
    }

    #[test]
    fn join_rule_feeds_common_attributes() {
        // The paper's running example: newsday(Make,…,Url) with binding
        // {Make}, newsdayCarFeatures(Url, Features, Picture) with binding
        // {Url}. Url is common, so {Make} alone binds the join.
        let l = BindingSet::from_attr_lists([vec!["make"]]);
        let r = BindingSet::from_attr_lists([vec!["url"]]);
        let ls = Schema::new(["make", "model", "year", "price", "contact", "url"]);
        let rs = Schema::new(["url", "features", "picture"]);
        let out = BindingRules::join(&l, &r, &ls, &rs);
        assert_eq!(out.bindings(), &[attrs(&["make"])]);
    }

    #[test]
    fn join_rule_keeps_uncovered_mandatories() {
        let l = BindingSet::from_attr_lists([vec!["make"]]);
        let r = BindingSet::from_attr_lists([vec!["zip"]]);
        let ls = Schema::new(["make", "price"]);
        let rs = Schema::new(["make", "zip", "rate"]);
        let out = BindingRules::join(&l, &r, &ls, &rs);
        // Evaluating the right side first (with zip bound) feeds `make`
        // across the join, so {zip} alone is the minimal binding; {make,
        // zip} is subsumed. zip itself is never supplied by the left
        // side, so no binding without zip exists.
        assert_eq!(out.bindings(), &[attrs(&["zip"])]);
        assert!(!out.satisfied_by(&attrs(&["make"])));
    }

    #[test]
    fn propagate_paper_classifieds_example() {
        // classifieds = π(newsday ⋈ newsdayCarFeatures) ∪ π(nyTimes):
        // {Make} must come out as the only minimal binding (§5).
        let base_b = |n: &str| -> Option<BindingSet> {
            match n {
                "newsday" => Some(BindingSet::from_attr_lists([vec!["make"]])),
                "newsdayCarFeatures" => Some(BindingSet::from_attr_lists([vec!["url"]])),
                "nyTimes" => Some(BindingSet::from_attr_lists([vec!["make"]])),
                _ => None,
            }
        };
        let base_s = |n: &str| -> Option<Schema> {
            match n {
                "newsday" => {
                    Some(Schema::new(["make", "model", "year", "price", "contact", "url"]))
                }
                "newsdayCarFeatures" => Some(Schema::new(["url", "features", "picture"])),
                "nyTimes" => {
                    Some(Schema::new(["make", "model", "year", "features", "price", "contact"]))
                }
                _ => None,
            }
        };
        let out_attrs = ["make", "model", "year", "price", "contact", "features"];
        let e = Expr::relation("newsday")
            .join(Expr::relation("newsdayCarFeatures"))
            .project(out_attrs)
            .union(Expr::relation("nyTimes").project(out_attrs));
        let bs = propagate(&e, &base_b, &base_s, false);
        assert_eq!(bs.bindings(), &[attrs(&["make"])]);
    }

    #[test]
    fn unknown_base_is_unsatisfiable() {
        let e = Expr::relation("ghost");
        let bs = propagate(&e, &|_| None, &|_| None, false);
        assert!(bs.is_unsatisfiable());
        assert!(!bs.satisfied_by(&attrs(&["anything"])));
    }

    #[test]
    fn rename_rule_renames_binding_attrs() {
        let bs = BindingSet::from_attr_lists([vec!["mk"]]);
        let out = BindingRules::rename(&bs, &[(Attr::new("mk"), Attr::new("make"))]);
        assert_eq!(out.bindings(), &[attrs(&["make"])]);
    }

    #[test]
    fn free_and_unsatisfiable_edge_cases() {
        assert!(BindingSet::free().satisfied_by(&BTreeSet::new()));
        assert!(BindingSet::unsatisfiable().is_unsatisfiable());
        let u = BindingRules::union(&BindingSet::free(), &BindingSet::unsatisfiable());
        assert!(u.is_unsatisfiable());
    }

    #[test]
    fn display_formats() {
        let bs = BindingSet::from_attr_lists([vec!["make"], vec!["url", "zip"]]);
        let s = bs.to_string();
        assert!(s.contains("{make}"));
        assert!(s.contains("{url, zip}"));
    }
}
