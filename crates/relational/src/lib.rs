//! # webbase-relational
//!
//! A relational algebra engine with the *binding propagation* machinery
//! of §5 of *"A Layered Architecture for Querying Dynamic Web Content"*
//! (SIGMOD 1999).
//!
//! Webbases differ from ordinary databases in one crucial way: a base
//! (VPS) relation cannot simply be scanned — it can only be *invoked*
//! by supplying values for one of its sets of **mandatory attributes**
//! (the attributes some HTML form insists on). Consequently:
//!
//! * every relation carries a set of **bindings** — minimal attribute
//!   sets that suffice to invoke it ([`binding`]);
//! * the binding sets of derived relations are computed from those of
//!   their operands by per-operator **propagation rules** ([`binding`],
//!   implementing the σ/π/∪/⋈ rules of §5 verbatim);
//! * join evaluation must pick an **order** in which each relation's
//!   mandatory attributes are covered by the query constants plus the
//!   attributes of relations joined before it ([`ordering`]; NP-complete
//!   in general per Rajaraman–Sagiv–Ullman, so both an exact and a
//!   greedy algorithm are provided).
//!
//! The engine itself ([`algebra`], [`eval`]) is a classical set-semantics
//! evaluator: selection, projection, natural join (hash join), union,
//! product, and rename, over string/int/float/bool values, with base
//! relations supplied by a [`eval::RelationProvider`] — in the webbase,
//! that provider runs navigation programs against the Web.

pub mod algebra;
pub mod arith;
pub mod binding;
pub mod eval;
pub mod optimize;
pub mod ordering;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod select;
pub mod standardize;
pub mod value;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::algebra::Expr;
    pub use crate::arith::{parse_arith, ArithExpr};
    pub use crate::binding::{Binding, BindingSet};
    pub use crate::eval::{AccessSpec, EvalError, Evaluator, RelationProvider};
    pub use crate::optimize::optimize;
    pub use crate::predicate::Pred;
    pub use crate::relation::{Relation, Tuple};
    pub use crate::schema::{Attr, Schema};
    pub use crate::select::{parse_select, SelectQuery};
    pub use crate::standardize::Standardizer;
    pub use crate::value::Value;
}

pub use prelude::*;
