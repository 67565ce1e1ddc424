//! # webbase-navigation
//!
//! The **virtual-physical-layer machinery** of *"A Layered Architecture
//! for Querying Dynamic Web Content"* (SIGMOD 1999): navigation maps,
//! mapping by example, compilation to Transaction F-logic, execution,
//! and map maintenance.
//!
//! The pipeline, end to end:
//!
//! 1. **Record** ([`recorder`]) — a designer browses a site once; every
//!    page is parsed, its links/forms become F-logic action objects, and
//!    the executed actions become edges of a [`map::NavigationMap`]
//!    (Figure 2). Designer input is limited to renames, mandatory marks,
//!    attribute names for link sets, and extraction scripts — the §7
//!    "< 5% manual" statistic is computed by the recorder.
//! 2. **Compile** ([`compile`]) — each registered relation's navigation
//!    program is derived from the map in linear time (Figure 4), as
//!    serial-Horn Transaction F-logic rules.
//! 3. **Execute** ([`executor`]) — the `webbase-flogic` interpreter runs
//!    the program; the [`executor::NavOracle`] builtins follow links,
//!    submit forms and extract tuples against the simulated Web, with
//!    fetch caching across backtracking.
//! 4. **Maintain** ([`maintenance`]) — replay the map against the
//!    (changed) site, auto-apply benign changes, flag the rest.
//!
//! [`sessions`] holds the twelve designer sessions of the paper's
//! used-car webbase.

pub mod browser;
pub mod budget;
pub mod cancel;
pub mod compile;
pub mod drift;
pub mod executor;
pub mod extractor;
pub mod gen_sessions;
pub mod healing;
pub mod maintenance;
pub mod map;
pub mod model;
pub mod persist;
pub mod pool;
pub mod recorder;
pub mod resilience;
pub mod sessions;
pub mod store;
pub mod wal;

pub use budget::{
    BudgetDenial, BudgetSnapshot, BudgetTracker, JournalEntry, NavPosition, QueryBudget,
    ResumeToken, SiteSpend,
};
pub use cancel::{CancelToken, Interrupt};
pub use compile::{compile_map, CompileError, CompiledSite};
pub use drift::{sweep, DriftBus, DriftEvent, DriftKind, DriftOrigin, SweepReport};
pub use executor::{NavError, Rows, RunStats, SiteNavigator};
pub use extractor::{CellParse, ExtractionSpec, FieldSpec, Record};
pub use healing::{RepairReport, SiteRepair};
pub use map::{NavigationMap, NodeKind};
pub use persist::{map_from_facts, parse_map, parse_resume, render_facts, render_resume};
pub use pool::HostPools;
pub use recorder::{DesignerAction, MapStats, RecordError, Recorder};
pub use resilience::{CircuitState, DegradationReport, FetchPolicy, SiteDegradation};
pub use store::{PageId, PageSet, PageStore, ReadSet};
pub use wal::{WalRecovery, WriteAheadLog};
pub use webbase_obs::{
    Metric, MetricsRegistry, MetricsSnapshot, Obs, QueryObservation, QueryTrace, Span, SpanKind,
    TraceSink, METRICS,
};
