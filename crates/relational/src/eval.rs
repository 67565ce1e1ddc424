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
use crate::predicate::Pred;
use crate::relation::{Relation, Tuple};
use crate::schema::{Attr, Schema};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
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

    /// Set `attr` to a copy of `v`, reusing the entry when it exists.
    fn set(&mut self, attr: &Attr, v: &Value) {
        match self.constants.get_mut(attr) {
            Some(slot) => slot.clone_from(v),
            None => {
                self.constants.insert(attr.clone(), v.clone());
            }
        }
    }

    /// The constant on `attr`, which may be an [`Attr`] or a `&str`.
    pub fn get<Q: Ord + ?Sized>(&self, attr: &Q) -> Option<&Value>
    where
        Attr: std::borrow::Borrow<Q>,
    {
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

/// What evaluation needs of an expression that no call changes: for
/// every ⋈ node, both sides' §5 binding sets and static schemas.
/// Compiled once per expression against one provider's bindings and
/// schemas ([`CompiledExpr::new`]) and reused by every evaluation of
/// that expression over a provider with the same ones — the engine
/// keeps one per logical definition and one per cached plan object.
///
/// The nodes are the expression's in pre-order; each records its
/// subtree size, so a binary node finds its right child without a walk.
#[derive(Debug)]
pub struct CompiledExpr {
    nodes: Vec<Node>,
}

#[derive(Debug)]
struct Node {
    size: usize,
    join: Option<Box<JoinStatic>>,
}

/// The static half of one dependent join (see [`Evaluator`]'s join).
#[derive(Debug)]
struct JoinStatic {
    l_bind: BindingSet,
    r_bind: BindingSet,
    l_schema: Option<Schema>,
    r_schema: Option<Schema>,
}

impl CompiledExpr {
    /// Derive `expr`'s static analysis from `provider`'s base bindings
    /// and schemas, under the given union rule.
    pub fn new<P: RelationProvider + ?Sized>(
        expr: &Expr,
        provider: &P,
        relaxed_union: bool,
    ) -> CompiledExpr {
        let mut nodes = Vec::new();
        let base_b = |n: &str| provider.bindings(n);
        let base_s = |n: &str| provider.schema(n);
        compile_node(expr, &base_b, &base_s, relaxed_union, &mut nodes);
        CompiledExpr { nodes }
    }
}

fn compile_node(
    expr: &Expr,
    base_b: &dyn Fn(&str) -> Option<BindingSet>,
    base_s: &dyn Fn(&str) -> Option<Schema>,
    relaxed: bool,
    nodes: &mut Vec<Node>,
) {
    let at = nodes.len();
    let join = match expr {
        Expr::Join(l, r) => Some(Box::new(JoinStatic {
            l_bind: propagate(l, base_b, base_s, relaxed),
            r_bind: propagate(r, base_b, base_s, relaxed),
            l_schema: l.schema(base_s),
            r_schema: r.schema(base_s),
        })),
        _ => None,
    };
    nodes.push(Node { size: 0, join });
    match expr {
        Expr::Rel(_) => {}
        Expr::Select(e, _) | Expr::Project(e, _) | Expr::Rename(e, _) | Expr::Extend(e, _, _) => {
            compile_node(e, base_b, base_s, relaxed, nodes);
        }
        Expr::Join(l, r) | Expr::Union(l, r) | Expr::Diff(l, r) => {
            compile_node(l, base_b, base_s, relaxed, nodes);
            compile_node(r, base_b, base_s, relaxed, nodes);
        }
    }
    nodes[at].size = nodes.len() - at;
}

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

    /// Evaluate `expr` given the access constants `spec`, compiling it
    /// for this one call.
    pub fn eval(&mut self, expr: &Expr, spec: &AccessSpec) -> Result<Relation, EvalError> {
        let compiled = CompiledExpr::new(expr, &*self.provider, self.relaxed_union);
        self.eval_compiled(expr, &compiled, spec)
    }

    /// Evaluate `expr` with its compiled form, which must come from
    /// [`CompiledExpr::new`] over `expr` and a provider with this
    /// provider's bindings and schemas, under this evaluator's union
    /// rule.
    pub fn eval_compiled(
        &mut self,
        expr: &Expr,
        compiled: &CompiledExpr,
        spec: &AccessSpec,
    ) -> Result<Relation, EvalError> {
        self.node(expr, compiled, 0, spec)
    }

    fn node(
        &mut self,
        expr: &Expr,
        c: &CompiledExpr,
        at: usize,
        spec: &AccessSpec,
    ) -> Result<Relation, EvalError> {
        let Some(node) = c.nodes.get(at) else {
            return Err(EvalError::SchemaMismatch(format!(
                "{expr} was compiled as another expression"
            )));
        };
        // Children in pre-order: the first right after this node, the
        // second after the first's subtree.
        let first = at + 1;
        let second = || first + c.nodes.get(first).map_or(0, |n| n.size);
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
                let inner_spec = with_constants(spec, p);
                let input = self.node(e, c, first, &inner_spec)?;
                let pred =
                    p.resolve(input.schema()).map_err(|a| EvalError::UnknownAttr(a.to_string()))?;
                Ok(filtered(input, |t| pred.eval(t)))
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
                let inner_spec = spec_where(spec, |a| attrs.contains(a));
                let input = self.node(e, c, first, &inner_spec)?;
                let idx: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        input
                            .schema()
                            .index_of(a)
                            .ok_or_else(|| EvalError::UnknownAttr(a.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
                // Keeping every column in place keeps every tuple.
                if idx.len() == input.schema().len() && idx.iter().enumerate().all(|(i, &j)| i == j)
                {
                    return Ok(input);
                }
                let mut out = Relation::new(input.schema().project(attrs));
                for t in input.tuples() {
                    out.push(Tuple::from_values(idx.iter().map(|&i| t.get(i).clone())));
                }
                Ok(out)
            }
            Expr::Rename(e, pairs) => {
                // Constants on renamed attributes are translated back to
                // the inner names before pushdown.
                let inner_spec = if spec.iter().any(|(a, _)| pairs.iter().any(|(_, to)| to == a)) {
                    let mut inner = AccessSpec::new();
                    for (a, v) in spec.iter() {
                        let inner_attr =
                            pairs.iter().find(|(_, to)| to == a).map_or(a, |(from, _)| from);
                        inner.insert(inner_attr.clone(), v.clone());
                    }
                    Cow::Owned(inner)
                } else {
                    Cow::Borrowed(spec)
                };
                let input = self.node(e, c, first, &inner_spec)?;
                let schema = Schema::new(input.schema().attrs().iter().map(|a| {
                    pairs.iter().find(|(from, _)| from == a).map_or(a, |(_, to)| to).clone()
                }));
                // Renaming changes no tuple: the set is shared as is.
                Ok(input.with_schema(schema))
            }
            Expr::Union(l, r) => {
                let (lr, rr) = if self.relaxed_union {
                    // Relaxed union: a side that cannot be invoked — or
                    // whose source was never mapped at all — yields ∅
                    // instead of failing the whole query.
                    let lr = invocable(self.node(l, c, first, spec))?;
                    let rr = invocable(self.node(r, c, second(), spec))?;
                    if lr.is_none() && rr.is_none() {
                        return Err(EvalError::UnboundAccess {
                            relation: expr.to_string(),
                            available: spec.to_string(),
                        });
                    }
                    (lr, rr)
                } else {
                    (Some(self.node(l, c, first, spec)?), Some(self.node(r, c, second(), spec)?))
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
                let inner_spec = spec_where(spec, |a| a != attr);
                let input = self.node(e, c, first, &inner_spec)?;
                if input.schema().contains(attr) {
                    return Err(EvalError::SchemaMismatch(format!(
                        "extend: attribute {attr} already exists"
                    )));
                }
                let formula = formula
                    .resolve(input.schema())
                    .map_err(|a| EvalError::UnknownAttr(a.to_string()))?;
                let schema = input.schema().join(&Schema::new([attr.clone()]));
                let mut out = Relation::new(schema);
                for t in input.tuples() {
                    let v = formula.eval_value(t);
                    out.push(Tuple::from_values(t.values().iter().cloned().chain([v])));
                }
                // Re-apply any constant on the computed attribute.
                if let Some(want) = spec.get(attr) {
                    let idx = out.schema().len() - 1;
                    out = filtered(out, |t| t.get(idx).matches(want));
                }
                Ok(out)
            }
            Expr::Diff(l, r) => {
                let lrel = self.node(l, c, first, spec)?;
                let rrel = self.node(r, c, second(), spec)?;
                if lrel.schema() != rrel.schema() {
                    return Err(EvalError::SchemaMismatch(format!(
                        "difference of {} and {}",
                        lrel.schema(),
                        rrel.schema()
                    )));
                }
                Ok(filtered(lrel, |t| !rrel.contains(t)))
            }
            Expr::Join(l, r) => {
                let Some(join) = node.join.as_deref() else {
                    return Err(EvalError::SchemaMismatch(format!(
                        "{expr} was compiled as another expression"
                    )));
                };
                self.eval_join(l, r, join, c, (first, second()), spec)
            }
        }
    }

    /// Natural join with sideways information passing. The side whose
    /// bindings the current constants satisfy runs first; the other side
    /// is invoked once per distinct shared-attribute combination from the
    /// first side's result (plus the constants), then hash-joined.
    fn eval_join(
        &mut self,
        l: &Expr,
        r: &Expr,
        join: &JoinStatic,
        c: &CompiledExpr,
        (l_at, r_at): (usize, usize),
        spec: &AccessSpec,
    ) -> Result<Relation, EvalError> {
        let bound = |a: &Attr| spec.get(a).is_some();
        let (first, first_at, second, second_at, second_bind, second_schema, swapped) =
            if join.l_bind.satisfied_with(bound) {
                (l, l_at, r, r_at, &join.r_bind, &join.r_schema, false)
            } else if join.r_bind.satisfied_with(bound) {
                (r, r_at, l, l_at, &join.l_bind, &join.l_schema, true)
            } else {
                return Err(EvalError::UnboundAccess {
                    relation: format!("({l} ⋈ {r})"),
                    available: spec.to_string(),
                });
            };
        let first_rel = self.node(first, c, first_at, spec)?;
        let second_schema =
            second_schema.as_ref().ok_or_else(|| EvalError::UnknownRelation(second.to_string()))?;
        let shared: Vec<Attr> = first_rel.schema().common(second_schema);

        // Evaluate the second side. When every shared attribute is
        // already a constant, once; otherwise once per distinct
        // shared-value combination from the first side (sideways
        // information passing). The dependent mode is the default even
        // when the constants alone would satisfy the second side's
        // bindings: invocation-style sources *compute from* their
        // optional inputs (a rate quote echoes the year it was asked
        // about), so withholding a shared attribute loses the
        // correlation, not just efficiency.
        let dependent = !(shared.iter().all(bound) && second_bind.satisfied_with(bound));
        let mut parts = Vec::new();
        if !dependent {
            parts.push(self.node(second, c, second_at, spec)?);
        } else {
            // Every combination binds the same attributes, so one check
            // covers them all; it fails at the first invocation.
            let invocable = second_bind.satisfied_with(|a| bound(a) || shared.contains(a));
            let idx: Vec<usize> = shared
                .iter()
                .map(|a| first_rel.schema().index_of(a).expect("shared attr in first schema"))
                .collect();
            // Distinct combinations in first-seen order, borrowed from
            // the first side's tuples.
            let mut seen: HashSet<Key<'_>> = HashSet::new();
            let mut dep_spec = spec.clone();
            for t in first_rel.tuples() {
                let key = Key { t, cols: &idx };
                // Null join keys never match; skip the invocation.
                if key.has_null() || !seen.insert(key) {
                    continue;
                }
                for (a, &i) in shared.iter().zip(&idx) {
                    dep_spec.set(a, t.get(i));
                }
                if !invocable {
                    return Err(EvalError::UnboundAccess {
                        relation: second.to_string(),
                        available: dep_spec.to_string(),
                    });
                }
                let part = self.node(second, c, second_at, &dep_spec)?;
                if part.schema().len() != second_schema.len() {
                    return Err(EvalError::SchemaMismatch(format!(
                        "{second} answered {} for {second_schema}",
                        part.schema()
                    )));
                }
                parts.push(part);
            }
        }

        // Hash join on the shared attributes. In dependent mode the
        // second side is the list of per-combination answers under the
        // static schema, joined as they are rather than merged first.
        let second_side = match (dependent, parts.first()) {
            (false, Some(one)) => one.schema(),
            _ => second_schema,
        };
        let first_side = (first_rel.schema(), std::slice::from_ref(&first_rel));
        let second_side = (second_side, parts.as_slice());
        let (lside, rside) =
            if swapped { (second_side, first_side) } else { (first_side, second_side) };
        Ok(join_sides(lside, rside))
    }
}

/// A relaxed-union side: `None` when it cannot be invoked or names an
/// unmapped source.
fn invocable(side: Result<Relation, EvalError>) -> Result<Option<Relation>, EvalError> {
    match side {
        Ok(rel) => Ok(Some(rel)),
        Err(EvalError::UnboundAccess { .. } | EvalError::UnknownRelation(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// `spec` plus the equality constants of `p` (later ones win), copied
/// only when one of them is new.
fn with_constants<'s>(spec: &'s AccessSpec, p: &Pred) -> Cow<'s, AccessSpec> {
    let mut out = Cow::Borrowed(spec);
    p.each_bound_constant(&mut |a, v| {
        if !out.get(a).is_some_and(|old| identical(old, v)) {
            out.to_mut().insert(a.clone(), v.clone());
        }
    });
    out
}

/// The constants of `spec` on attributes `keep` accepts, copied only
/// when one is dropped.
fn spec_where(spec: &AccessSpec, keep: impl Fn(&Attr) -> bool) -> Cow<'_, AccessSpec> {
    if spec.iter().all(|(a, _)| keep(a)) {
        return Cow::Borrowed(spec);
    }
    let mut out = AccessSpec::new();
    for (a, v) in spec.iter().filter(|(a, _)| keep(a)) {
        out.insert(a.clone(), v.clone());
    }
    Cow::Owned(out)
}

/// The same value in every observable way (`==` identifies `0.0` with
/// `-0.0`, which print differently).
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A join key: some columns of one tuple, hashed and compared by value
/// without being copied out.
struct Key<'a> {
    t: &'a Tuple,
    cols: &'a [usize],
}

impl Key<'_> {
    fn has_null(&self) -> bool {
        self.cols.iter().any(|&i| self.t.get(i).is_null())
    }
}

impl std::hash::Hash for Key<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for &i in self.cols {
            self.t.get(i).hash(state);
        }
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.len() == other.cols.len()
            && self.cols.iter().zip(other.cols).all(|(&i, &j)| self.t.get(i) == other.t.get(j))
    }
}

impl Eq for Key<'_> {}

/// Natural hash join (degenerates to the cartesian product when no
/// attributes are shared). Tuples with a null join key never match.
pub fn hash_join(l: &Relation, r: &Relation) -> Relation {
    join_sides((l.schema(), std::slice::from_ref(l)), (r.schema(), std::slice::from_ref(r)))
}

/// [`hash_join`] where each side is a schema and a list of relations
/// read in order as one.
fn join_sides(
    (l_schema, l): (&Schema, &[Relation]),
    (r_schema, r): (&Schema, &[Relation]),
) -> Relation {
    let shared = l_schema.common(r_schema);
    let mut out = Relation::new(l_schema.join(r_schema));
    let l_idx: Vec<usize> =
        shared.iter().map(|a| l_schema.index_of(a).expect("shared in l")).collect();
    let r_idx: Vec<usize> =
        shared.iter().map(|a| r_schema.index_of(a).expect("shared in r")).collect();
    // Extra (non-join) columns of the right side, in schema order.
    let r_extra: Vec<usize> = r_schema
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !l_schema.contains(a))
        .map(|(i, _)| i)
        .collect();
    // Build side: always the right input, whatever its size — probing
    // with the left keeps output tuples in left-then-right order. Each
    // key maps to its first and last build tuple, and the tuples with
    // one key are chained in input order through `next`.
    let build: Vec<&Tuple> = r.iter().flat_map(Relation::tuples).collect();
    let mut next = vec![usize::MAX; build.len()];
    let mut table: HashMap<Key<'_>, (usize, usize)> = HashMap::with_capacity(build.len());
    for (i, t) in build.iter().enumerate() {
        let key = Key { t, cols: &r_idx };
        if key.has_null() {
            continue;
        }
        match table.entry(key) {
            Entry::Occupied(mut chain) => {
                next[chain.get().1] = i;
                chain.get_mut().1 = i;
            }
            Entry::Vacant(slot) => {
                slot.insert((i, i));
            }
        }
    }
    for lt in l.iter().flat_map(Relation::tuples) {
        let key = Key { t: lt, cols: &l_idx };
        if key.has_null() {
            continue;
        }
        let Some(&(head, _)) = table.get(&key) else { continue };
        let mut at = head;
        while at != usize::MAX {
            let rt = build[at];
            let extra = r_extra.iter().map(|&i| rt.get(i).clone());
            out.push(Tuple::from_values(lt.values().iter().cloned().chain(extra)));
            at = next[at];
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
    // Survivors of a set are distinct: no need to hash them again.
    let kept = tuples[..drop].iter().chain(tuples[drop + 1..].iter().filter(|t| keep(t)));
    Relation::from_distinct(rel.schema().clone(), kept.cloned().collect())
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
