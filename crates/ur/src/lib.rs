//! # webbase-ur
//!
//! The **external schema layer** (§6 of the paper): the *structured
//! universal relation* — "powerful, yet reasonably simple, ad hoc
//! querying capabilities for the end user … compared to the currently
//! prevailing canned, form-based interfaces on the one hand and complex
//! Web-enabled extensions of SQL on the other".
//!
//! The user sees one wide relation (`UsedCarUR`) and poses queries by
//! naming attributes and conditions — *"no joins, sheer simplicity"*.
//! The system supplies the semantics:
//!
//! * a **concept hierarchy** ([`hierarchy`], Figure 5) structures the
//!   attributes and names the alternatives (Dealers vs Classifieds,
//!   Loan vs Lease, …);
//! * **compatibility rules** ([`compat`]) replace the classical lossless
//!   join requirement — "our poor man's lossless join requirement" —
//!   and rule out navigation traps (`Lease → ¬Classifieds`);
//! * **maximal objects** ([`maximal`], after Maier–Ullman) are the
//!   maximal compatible sets of alternatives; a query is answered by
//!   the union over the (minimal covering subsets of the) maximal
//!   objects that cover its attributes;
//! * the [`query`] language is attribute list + conditions, with a tiny
//!   parser; [`plan`] translates a query into binding-aware algebra over
//!   the logical layer and executes it.

pub mod compat;
pub mod hierarchy;
pub mod maximal;
pub mod plan;
pub mod query;

pub use compat::{CompatRule, CompatRules};
pub use hierarchy::{Alternative, ChoiceGroup, Hierarchy};
pub use maximal::maximal_objects;
pub use plan::{UrPlan, UrPlanner};
pub use query::{parse_query, UrQuery};
