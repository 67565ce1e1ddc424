//! # webbase
//!
//! The complete **webbase** of *"A Layered Architecture for Querying
//! Dynamic Web Content"* (Davulcu, Freire, Kifer, Ramakrishnan — SIGMOD
//! 1999): a database system whose "physical storage" is the (simulated)
//! Web, reachable only by following links and filling out forms.
//!
//! The three layers of Figure 1, bottom to top:
//!
//! | layer | crate | provides |
//! |---|---|---|
//! | virtual physical schema | `webbase-vps` + `webbase-navigation` + `webbase-flogic` | **navigation independence** — relations invoked through handles whose navigation expressions (compiled Transaction F-logic) drive a browser |
//! | logical schema | `webbase-logical` + `webbase-relational` | **site independence** — algebra over VPS relations with §5 binding propagation and binding-aware join ordering |
//! | external schema | `webbase-ur` | **ad hoc querying** — the structured universal relation: concept hierarchy, compatibility rules, maximal objects |
//!
//! [`Engine`] assembles all of it and serves concurrent queries;
//! [`Webbase`] is an engine plus one long-lived session of its own.
//! [`Webbase::build_demo`] constructs the paper's used-car webbase
//! (Example 2.1) over the simulated Web:
//!
//! ```no_run
//! use webbase::Webbase;
//!
//! let mut wb = Webbase::build_demo(42, 600, webbase::LatencyModel::lan());
//! let (result, _plan) = wb
//!     .query(
//!         "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
//!          safety='good', condition='good') WHERE price < bbprice",
//!     )
//!     .expect("the §1 query runs");
//! println!("{result}");
//! ```

pub mod corpus;
pub mod engine;
pub mod layers;
pub mod server;
pub mod timing;
pub mod webbase;

pub use crate::corpus::{Corpus, CorpusSite};
pub use crate::engine::{
    AdmissionConfig, Engine, EngineConfig, EngineError, EngineStats, FreshnessReport, Lifecycle,
    PlanSemantics, QueryFailure, QueryOptions, QueryOutcome, RefreshReport,
};
pub use crate::server::{
    read_request_line, serve_channel, serve_connection, ServerConfig, SessionEnd, MAX_LINE,
};
pub use crate::webbase::{BuildReport, Webbase, WebbaseError};
pub use timing::{
    merged_degradation, merged_repairs, parallel_timing, serial_timing, SiteTiming,
    TimingComparison,
};
pub use webbase_logical::{
    Metric, MetricsRegistry, MetricsSnapshot, Obs, QueryObservation, QueryTrace, Span, SpanKind,
    TraceSink, METRICS,
};
pub use webbase_navigation::{CancelToken, ResumeToken};
pub use webbase_relational::Relation;
pub use webbase_ur::{UrPlan, UrQuery};
pub use webbase_webcheck::{
    check_cross_layer, check_manifest, check_map, check_site, reported_codes, Diagnostic,
    ManifestCheck, Report, Severity,
};
pub use webbase_webworld::prelude::LatencyModel;
