//! # webbase-vps
//!
//! The **virtual physical schema** layer (§3 of the paper): the
//! relational view of "all the data there is to see by filing requests
//! to the server".
//!
//! A VPS relation cannot be scanned — it is *invoked* through a
//! [`handle::Handle`]: "for each relation schema R in the VPS layer,
//! there is a quadruple H = ⟨mandatory-attrs, selection-attrs, R,
//! expression⟩". Handles here are **derived automatically** from the
//! recorded navigation map (the mandatory attributes are the mandatory
//! form fields along the navigation path; the selection attributes are
//! every settable field), and the expression is the compiled Transaction
//! F-logic program executed by `webbase-navigation`.
//!
//! [`catalog::VpsCatalog`] assembles the relations of every mapped site
//! and implements `webbase-relational`'s `RelationProvider`, which is
//! what lets the logical layer evaluate algebra over the raw Web.

pub mod catalog;
pub mod handle;
pub mod memo;

pub use catalog::{CatalogShape, VpsCatalog, VpsStats};
pub use handle::{derive_handles, Handle};
pub use memo::{AnswerMemo, Invocation, LeaderGuard, MemoClaim, MemoKey, Provenance};
// Degradation reporting and query budgets surface through every layer;
// re-export so upper layers need not depend on webbase-navigation
// directly.
pub use webbase_navigation::{
    parse_resume, render_resume, BudgetDenial, BudgetSnapshot, BudgetTracker, DegradationReport,
    FetchPolicy, JournalEntry, NavPosition, QueryBudget, RepairReport, ResumeToken,
    SiteDegradation, SiteRepair, SiteSpend,
};
// Observability flows through every layer the same way budgets do.
pub use webbase_obs::{
    Metric, MetricsRegistry, MetricsSnapshot, Obs, QueryObservation, QueryTrace, Span, SpanHandle,
    SpanKind, TraceSink, METRICS, QUERY_TRACK,
};
