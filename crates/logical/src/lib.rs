//! # webbase-logical
//!
//! The **logical layer** (§5 of the paper): a site-independent relational
//! view over the VPS.
//!
//! "While \[the\] VPS layer has eight relations that shield the user from
//! navigation details, the five logical relations … show a view of the
//! Web data that is completely transparent with respect to the location
//! of the data source."
//!
//! * [`schema`] — logical relations as algebra over VPS relations; the
//!   exact Table 2 instance is [`schema::paper_schema`];
//! * [`standardize`] — attribute-name standardisation with the fuzzy
//!   matching fallback §7 describes;
//! * [`layer`] — [`layer::LogicalLayer`] evaluates logical relations
//!   (with binding propagation and join ordering inherited from
//!   `webbase-relational`) and is itself a `RelationProvider`, so the
//!   external-schema layer can treat logical relations as base tables.

pub mod layer;
pub mod schema;

/// Attribute standardisation lives in `webbase-relational` (it is a
/// schema-level concern shared with the navigation recorder); re-exported
/// here because §5/§7 discuss it as a logical-layer responsibility.
pub use webbase_relational::standardize;

pub use layer::{LogicalDefs, LogicalLayer};
pub use schema::{paper_schema, LogicalRelation};
pub use webbase_relational::standardize::Standardizer;
// Re-exported so the external-schema layer can surface per-site
// degradation and query budgets without depending on the navigation
// crate.
pub use webbase_vps::{
    parse_resume, render_resume, BudgetDenial, BudgetSnapshot, BudgetTracker, DegradationReport,
    FetchPolicy, JournalEntry, NavPosition, QueryBudget, RepairReport, ResumeToken,
    SiteDegradation, SiteRepair, SiteSpend,
};
pub use webbase_vps::{
    Metric, MetricsRegistry, MetricsSnapshot, Obs, QueryObservation, QueryTrace, Span, SpanHandle,
    SpanKind, TraceSink, METRICS, QUERY_TRACK,
};
