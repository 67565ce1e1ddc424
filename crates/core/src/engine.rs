//! The multi-query engine: one shared, thread-safe webbase serving
//! many concurrent UR queries.
//!
//! The [`Engine`] is the one place a webbase is assembled: designer
//! sessions replayed (or shipped fact maps loaded), every map compiled
//! to Transaction F-logic and vetted by webcheck exactly once. It is
//! then shared (`Engine` is `Clone + Send + Sync`, an `Arc` inside) by
//! any number of query threads. [`crate::Webbase`] is an engine plus
//! one long-lived session of its own, queried through `&mut self`.
//!
//! What is shared engine-wide and what stays per query is the whole
//! design:
//!
//! * **Shared**: the simulated Web; the [`CatalogShape`] (every
//!   relation's site, schema and handles, the compiled site programs,
//!   the per-site semantics); the logical definitions
//!   ([`LogicalDefs`]); the planning index ([`PlanIndex`]); the
//!   [`PageStore`] (fetch+parse once, every query hits); two
//!   [`AnswerMemo`]s, one for VPS invocations and one for logical
//!   invocations (whole-invocation result reuse); the plan and result
//!   caches; the per-host connection pools; and the tenant admission
//!   tracker.
//! * **Per query**: the VPS catalog over the shape, its navigators, the
//!   logical layer, the `Obs` handle, and any `QueryBudget` —
//!   everything that carries query state, so tenants can never observe
//!   each other's traces, budgets, or degradation. A navigator is built
//!   only when the query first invokes its site, so a cold query costs
//!   what its plan touches, not what the corpus holds.
//!
//! Multi-tenant admission reuses the navigation layer's max-min
//! fair-share [`BudgetTracker`] with *tenant names* where hosts
//! usually go: each admitted query charges one unit, and while
//! unserved tenants remain no tenant may eat into the floor reserved
//! for them. Epochs make the scheme long-lived: a denied tenant is
//! deferred (the wire protocol's `DEFER`), and [`Engine::reset_epoch`]
//! opens the next round.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webbase_logical::{LogicalDefs, LogicalLayer, Obs, QueryObservation};
use webbase_navigation::drift::events_from_repairs;
use webbase_navigation::map::{NavigationMap, NodeId};
use webbase_navigation::recorder::{MapStats, Recorder};
use webbase_navigation::store::{PageId, PageSet, ReadSet};
use webbase_navigation::{
    sweep, BudgetDenial, BudgetSnapshot, BudgetTracker, CancelToken, DegradationReport, DriftBus,
    DriftEvent, DriftKind, DriftOrigin, FetchPolicy, HostPools, PageStore, QueryBudget,
    RepairReport, ResumeToken, SweepReport, WalRecovery, WriteAheadLog,
};
use webbase_obs::sync::{fan_out, SafeMutex, SafeRwLock};
use webbase_relational::{BaseDelta, Expr, Incremental, Relation};
use webbase_ur::plan::{PlanIndex, UrError, UrPlan, UrPlanner};
use webbase_ur::query::{parse_query, UrQuery};
use webbase_vps::{
    AnswerMemo, CatalogShape, Invocation, MemoClaim, MemoKey, Provenance, VpsCatalog,
};
use webbase_vps::{Metric, MetricsRegistry, MetricsSnapshot};
use webbase_webworld::prelude::*;

use crate::corpus::Corpus;
use crate::webbase::{BuildReport, WebbaseError};

/// How the engine is shared and scheduled. [`EngineConfig::default`]
/// is the server default: default fetch policy, unbounded page store,
/// four connections per host, no admission control.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Retry/backoff/circuit policy for every navigator session.
    pub policy: FetchPolicy,
    /// Shared page-store capacity (`None` = unbounded).
    pub page_capacity: Option<usize>,
    /// Simultaneous in-flight fetches allowed per host.
    pub per_host_connections: usize,
    /// Multi-tenant admission control (`None` = admit everything).
    pub admission: Option<AdmissionConfig>,
    /// Write-ahead journal path (`None` = no durability). When the
    /// file already holds records from an earlier run, the build
    /// replays them — warm restart — before serving queries.
    pub journal: Option<PathBuf>,
    /// Static admission: deny a budgeted query *before any fetch* when
    /// the abstract interpreter's fetch-cost lower bound already
    /// exceeds the budget's fetch quota. Opt-in: the lower bound
    /// assumes a cold page store, but a warm store serves spine pages
    /// budget-free, so the gate would wrongly deny replays that could
    /// complete within quota.
    pub static_admission: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            policy: FetchPolicy::default_policy(),
            page_capacity: None,
            per_host_connections: 4,
            admission: None,
            journal: None,
            static_admission: false,
        }
    }
}

/// Fair-share admission over tenants: at most `queries_per_epoch`
/// admissions per epoch, max-min floors reserved for tenants that have
/// not yet completed a query this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    pub queries_per_epoch: u64,
    pub fair_share: bool,
}

/// The tenant scheduler: a [`BudgetTracker`] whose "sites" are tenant
/// names and whose "fetches" are admitted queries. Epoch-scoped — the
/// tracker is replaced wholesale on [`EngineAdmission::reset_epoch`],
/// with every known tenant re-registered so its floor is reserved
/// from the first admission of the new round.
#[derive(Debug)]
pub struct EngineAdmission {
    budget: QueryBudget,
    state: SafeMutex<AdmissionState>,
}

#[derive(Debug)]
struct AdmissionState {
    tracker: Arc<BudgetTracker>,
    tenants: BTreeSet<String>,
}

impl EngineAdmission {
    fn new(config: AdmissionConfig) -> EngineAdmission {
        let budget = QueryBudget::unlimited()
            .with_fetch_quota(config.queries_per_epoch)
            .with_fair_share(config.fair_share);
        EngineAdmission {
            budget: budget.clone(),
            state: SafeMutex::new(AdmissionState {
                tracker: Arc::new(BudgetTracker::new(budget)),
                tenants: BTreeSet::new(),
            }),
        }
    }

    /// Ask to run one query as `tenant`. Denial is a deferral, not an
    /// error: the tenant may retry next epoch.
    pub fn admit(&self, tenant: &str) -> Result<(), BudgetDenial> {
        let mut state = self.state.lock();
        if state.tenants.insert(tenant.to_string()) {
            state.tracker.register_site(tenant);
        }
        state.tracker.try_admit(tenant, false)
    }

    /// A tenant's admitted query completed: release its fair-share
    /// reservation for the rest of the epoch.
    pub fn complete(&self, tenant: &str) {
        self.state.lock().tracker.mark_served(tenant);
    }

    /// Open a new epoch: fresh counters, same tenant floors.
    pub fn reset_epoch(&self) {
        let mut state = self.state.lock();
        let tracker = Arc::new(BudgetTracker::new(self.budget.clone()));
        for tenant in &state.tenants {
            tracker.register_site(tenant);
        }
        state.tracker = tracker;
    }

    /// The current epoch's per-tenant spend.
    pub fn snapshot(&self) -> BudgetSnapshot {
        self.state.lock().tracker.snapshot()
    }
}

/// Per-query knobs. [`QueryOptions::default`] is a plain unbudgeted,
/// untraced query (counters still collected).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Resource budget; budgeted queries bypass the answer memo (they
    /// must do their own admission and journalling).
    pub budget: Option<QueryBudget>,
    /// Collect a full span trace for this query.
    pub trace: bool,
    /// Cooperative cancellation: the navigators poll this token at
    /// every budget checkpoint, so cancelling abandons navigation
    /// before the next page request. The server arms one per session
    /// and cancels it when the client disconnects mid-query.
    pub cancel: Option<CancelToken>,
    /// Resume an earlier budget-exhausted (or cancelled) run from its
    /// token: the journalled pages are preloaded, so the fresh budget
    /// is spent entirely on the unfinished tail. Resumed runs bypass
    /// the plan and result caches.
    pub resume: Option<ResumeToken>,
}

impl QueryOptions {
    pub fn traced() -> QueryOptions {
        QueryOptions { trace: true, ..QueryOptions::default() }
    }

    pub fn budgeted(budget: QueryBudget) -> QueryOptions {
        QueryOptions { budget: Some(budget), ..QueryOptions::default() }
    }

    pub fn resuming(token: ResumeToken) -> QueryOptions {
        QueryOptions { resume: Some(token), ..QueryOptions::default() }
    }
}

/// A plan-cache entry: the parsed base query and its plan. The plan is
/// shared on its own, so a result-cache hit hands it out without a copy.
type CachedPlan = Arc<(UrQuery, Arc<UrPlan>)>;

/// Everything one query produced. The observation is present only for
/// traced queries; the metrics snapshot is always present and is
/// *this query's* counters alone — cross-tenant isolation is the
/// point of the per-query registry. A result-cache hit shares the
/// cached plan rather than copying it.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub relation: Relation,
    pub plan: Arc<UrPlan>,
    pub observation: Option<QueryObservation>,
    pub metrics: MetricsSnapshot,
}

/// Engine-level errors. `Deferred` is load shedding, not failure.
#[derive(Debug)]
pub enum EngineError {
    /// Admission control deferred this tenant to a later epoch.
    Deferred(BudgetDenial),
    Query(webbase_ur::query::QueryParseError),
    Plan(UrError),
    /// The query's execution panicked. The panic was contained at the
    /// engine boundary: shared state is intact (poison-recovering
    /// locks), any result-cache leadership was handed to a waiter, and
    /// the tenant's admission slot was consumed — the failure is
    /// charged to the tenant that caused it.
    Panicked(QueryFailure),
    /// The engine is draining or stopped: no new queries are admitted.
    Draining,
}

/// What a contained panic looked like from the outside, for the wire
/// protocol's structured failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFailure {
    pub tenant: String,
    pub query: String,
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Deferred(d) => write!(f, "deferred: {d}"),
            EngineError::Query(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "{e}"),
            EngineError::Panicked(failure) => write!(f, "query panicked: {}", failure.message),
            EngineError::Draining => write!(f, "engine is draining; new queries are not admitted"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Where the engine is in its life: `Running` admits queries,
/// `Draining` rejects new ones while in-flight queries finish,
/// `Stopped` additionally cancels the in-flight ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    Running,
    Draining,
    Stopped,
}

const LIFECYCLE_RUNNING: u8 = 0;
const LIFECYCLE_DRAINING: u8 = 1;
const LIFECYCLE_STOPPED: u8 = 2;

/// Cumulative counters across the engine's lifetime, for the wire
/// protocol's `STATS` reply and the load generator's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries that ran to a result (including budget-partial ones).
    pub queries: u64,
    /// Admissions deferred by the tenant scheduler.
    pub deferred: u64,
    /// Shared page-store hits / misses / evictions.
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_evictions: u64,
    /// Shared answer-memo hits / misses and resident answers.
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_len: usize,
    /// Invocations that waited for an in-flight leader's answer
    /// instead of recomputing it (memo singleflight).
    pub memo_coalesced: u64,
    /// The logical memo's hits / misses / coalesced waits and resident
    /// answers: §5 logical invocations answered without evaluating
    /// their definition again. The `memo_*` fields above count the VPS
    /// level only.
    pub logical_hits: u64,
    pub logical_misses: u64,
    pub logical_coalesced: u64,
    pub logical_len: usize,
    /// Whole-query result cache hits / misses / coalesced waits.
    pub result_hits: u64,
    pub result_misses: u64,
    pub result_coalesced: u64,
    /// Times a fetch waited on a saturated per-host connection pool.
    pub pool_waits: u64,
    /// Queries whose execution panicked (contained at the engine
    /// boundary; the engine kept serving).
    pub panics: u64,
    /// Queries that were cancelled and still completed cleanly — they
    /// returned whatever was settled before the cancel landed.
    pub cancelled: u64,
    /// Result-cache / invocation-memo leaderships released by a
    /// panicking holder (each one promoted a waiter).
    pub result_aborted: u64,
    pub memo_aborted: u64,
    /// Times a poisoned lock was recovered instead of propagating the
    /// poison. Process-global (covers every engine in this process).
    pub lock_poison_recovered: u64,
    /// Warm-restart recovery: journalled pages / settled results
    /// replayed at build time, and torn records dropped.
    pub journal_recovered_pages: u64,
    pub journal_recovered_results: u64,
    pub journal_torn: u64,
    /// Total simulated-Web requests since the web was created
    /// (includes the build's recording pass). The warm-restart smoke
    /// asserts this stays flat across a replayed query.
    pub web_requests: u64,
    /// Drift events applied (page changes, repairs, quarantines).
    pub drift_events: u64,
    /// Result-cache views evicted by drift invalidation.
    pub view_invalidated: u64,
    /// Views refreshed by incremental delta propagation.
    pub delta_refresh: u64,
    /// Views refreshed by re-evaluation or left cold-evicted.
    pub cold_refresh: u64,
    /// Freshness tripwire: cached answers that would have been served
    /// although their dependencies drifted after publication. The
    /// eviction protocol makes this impossible; the consistency suites
    /// pin it at zero.
    pub stale_served: u64,
    /// Queries denied before any fetch because the abstract
    /// interpreter proved their fetch-cost lower bound exceeds the
    /// budget's quota (only with `EngineConfig::static_admission`).
    pub static_denied: u64,
    /// Soundness tripwire: runs whose dynamic read-set escaped the
    /// plan's static read-set (host granularity). The static set
    /// over-approximates, so this must stay 0.
    pub readset_escape: u64,
}

/// Everything the engine remembers about one published result-cache
/// entry, for precise drift invalidation and incremental refresh.
struct ViewRecord {
    /// Freshness epoch at publication: values published at or after the
    /// last drift touching their deps are current by definition. The
    /// deps that drifted since are exactly those stamped after it.
    epoch: u64,
    /// The ids of every page the published answer read (tracked reads
    /// plus memo-hit dependency replays), shared so a refresh reads them
    /// without copying.
    deps: Arc<[PageId]>,
    /// Per-object results, in plan order (empty for journal-recovered
    /// entries — those refresh by re-evaluation, not delta).
    object_results: Vec<Relation>,
    /// The VPS relations each object reads, for mapping a changed page
    /// up to the objects it can affect.
    object_rels: Vec<BTreeSet<String>>,
    /// VPS invocations (memo key + page deps) the answer was built from,
    /// in no particular order; the deps lists are the memo's own.
    invocations: Vec<Invocation>,
    /// Every host the view can read: the plan's static read-set — the
    /// abstract interpreter's pre-seed of this ledger entry, which
    /// covers host-scoped drift even when per-page provenance is
    /// missing (journal-recovered entries) — plus the hosts of `deps`.
    /// The `readset_escape` tripwire pins that the second part adds
    /// nothing when the plan has semantics.
    hosts: BTreeSet<String>,
}

/// The freshness ledger: which cached views depend on which pages, and
/// which of them drift has invalidated. One mutex guards the whole
/// ledger *and* the paired result-cache evictions, so a concurrent
/// reader sees either the pre-drift entry or the post-drift absence —
/// never a torn in-between.
#[derive(Default)]
struct Freshness {
    /// Monotone drift clock: bumped once per applied event.
    epoch: u64,
    /// Last drift epoch per changed page, indexed by page id (0: never
    /// drifted), and per host-wide taint.
    page_drift: Vec<u64>,
    host_drift: HashMap<String, u64>,
    /// Views invalidated by drift and not yet re-published.
    drifted: BTreeSet<String>,
    views: HashMap<String, ViewRecord>,
}

impl Freshness {
    /// Has `dep` drifted since a view published at `epoch` read it?
    fn page_drifted(&self, dep: PageId, epoch: u64) -> bool {
        self.page_drift.get(dep.index()).is_some_and(|&stamp| stamp > epoch)
    }

    /// Record that `page` drifted at `epoch`.
    fn stamp(&mut self, page: PageId, epoch: u64) {
        if page.index() >= self.page_drift.len() {
            self.page_drift.resize(page.index() + 1, 0);
        }
        self.page_drift[page.index()] = epoch;
    }

    /// Has a host-wide event since `rec`'s publication tainted a host it
    /// read, or one its plan can read (the static pre-seed backstops
    /// missing page provenance)?
    fn host_tainted(&self, rec: &ViewRecord) -> bool {
        self.host_drift.iter().any(|(host, &stamp)| stamp > rec.epoch && rec.hosts.contains(host))
    }
}

/// What one [`Engine::refresh`] pass did: the page-level sweep findings
/// plus how each invalidated view was brought back (or not).
#[derive(Debug, Default)]
pub struct RefreshReport {
    /// The revalidation sweep over the page store.
    pub sweep: SweepReport,
    /// Views rebuilt by incremental delta propagation.
    pub delta_refreshed: usize,
    /// Views rebuilt by full re-evaluation.
    pub cold_refreshed: usize,
    /// Views left evicted (no cached plan, or the refresh degraded);
    /// the next query recomputes them.
    pub evicted: usize,
}

/// How [`Engine::refresh_view`] resolved one drifted view.
enum RefreshOutcome {
    Delta,
    Cold,
    Evicted,
}

/// Point-in-time freshness summary (the `FRESHNESS` verb's payload).
#[derive(Debug, Clone)]
pub struct FreshnessReport {
    /// Current drift-clock value.
    pub epoch: u64,
    /// Result-cache entries with recorded provenance.
    pub tracked_views: usize,
    /// Query texts invalidated by drift and not yet re-published.
    pub drifted: Vec<String>,
    /// Drift events published on the bus since the engine was built.
    pub events_published: u64,
    /// The most recent events (newest last), for diagnostics.
    pub recent: Vec<DriftEvent>,
}

/// The abstract interpreter's verdict folded up to one whole plan: the
/// static fetch-cost interval for one cold execution plus the per-host
/// static read-set (every `(host, map node)` pair the plan can touch).
/// Produced fetch-free by [`Engine::explain_semantics`]; the static
/// admission gate and the `readset_escape` tripwire consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSemantics {
    /// At least `cost.min` pages read on a cold store; at most
    /// `cost.max` (⊤ when an unbounded "More" chain is reachable).
    pub cost: webbase_webcheck::CostInterval,
    /// Static read-set, keyed by host.
    pub read: BTreeMap<String, BTreeSet<NodeId>>,
}

impl PlanSemantics {
    /// The hosts the plan can read.
    pub fn hosts(&self) -> BTreeSet<String> {
        self.read.keys().cloned().collect()
    }

    /// Multi-line EXPLAIN section: the cost interval and the per-host
    /// read-set.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "static cost: {}", self.cost);
        let _ = writeln!(out, "static read set:");
        for (host, nodes) in &self.read {
            let nodes: Vec<String> = nodes.iter().map(std::string::ToString::to_string).collect();
            let _ = writeln!(out, "  {host} nodes {{{}}}", nodes.join(", "));
        }
        out
    }
}

/// A plan folded over the catalog shape (see `Engine::fold_plan`).
struct PlanFold {
    /// The VPS relations each plan object reads, in plan order.
    object_rels: Vec<BTreeSet<String>>,
    semantics: Option<PlanSemantics>,
}

/// Collect every base relation name an expression mentions.
fn expr_rel_names(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Rel(name) => {
            out.insert(name.clone());
        }
        Expr::Select(e, _) | Expr::Project(e, _) | Expr::Rename(e, _) | Expr::Extend(e, _, _) => {
            expr_rel_names(e, out);
        }
        Expr::Join(l, r) | Expr::Union(l, r) | Expr::Diff(l, r) => {
            expr_rel_names(l, out);
            expr_rel_names(r, out);
        }
    }
}

/// The session's VPS invocations as `(memo key, page deps)`, sharing
/// each deps list with the catalog's log.
fn invocation_deps(layer: &LogicalLayer) -> Vec<Invocation> {
    layer.vps.invocation_log().to_vec()
}

struct EngineInner {
    web: SyntheticWeb,
    /// The synthetic dataset behind the corpus, when it has one (the
    /// car demo does; generated corpora carry data inside their specs).
    data: Option<Arc<Dataset>>,
    /// Every site recorded, analysed and compiled once at build time;
    /// each query's catalog is a view over it.
    shape: Arc<CatalogShape>,
    logical: Arc<LogicalDefs>,
    planner: UrPlanner,
    /// The planner's query-independent input, built once from the
    /// shape and the logical definitions.
    index: PlanIndex,
    store: PageStore,
    pool: Arc<HostPools>,
    /// VPS invocation answers, keyed by `(relation, bindings)`.
    memo: AnswerMemo,
    /// Logical invocation answers, keyed by `(relation, access spec,
    /// relaxed-union flag)`; each entry's provenance is the VPS
    /// invocations its evaluation made. Drift evicts it with the VPS
    /// memo, in the same step.
    logical_memo: AnswerMemo,
    admission: Option<EngineAdmission>,
    /// Parsed-query + plan cache, keyed by query text. Every session
    /// is built from the same shared artifacts, so a plan computed
    /// once is valid for every later session (see
    /// `UrPlanner::execute_planned`). Traced and isolated runs bypass
    /// it — traced ones so the Plan span is real, isolated ones
    /// because the cache is one of the shared resources the baseline
    /// must not touch. Planning happens outside its lock; the write
    /// lock is held only to insert a finished plan.
    plans: SafeRwLock<HashMap<String, CachedPlan>>,
    /// Whole-query result cache, keyed by query text, with the same
    /// singleflight protocol as the invocation memo: when N identical
    /// queries arrive at once, one session executes and the rest wait
    /// for — and then share — its answer. Only complete answers from
    /// undegraded, unbudgeted, untraced runs are ever published.
    results: AnswerMemo,
    report: BuildReport,
    /// Static admission gate on/off (see `EngineConfig::static_admission`).
    static_admission: bool,
    /// Per-site ledger of static-admission denials — the analysis-time
    /// analogue of the runtime budget ledger's `budget_denied` rows.
    /// Engine-level because the denial error itself stays `Copy`.
    static_denials: SafeMutex<DegradationReport>,
    queries: AtomicU64,
    deferred: AtomicU64,
    /// The attached write-ahead journal (None without `config.journal`).
    /// Pages are journalled by the store's fetch path; settled result
    /// cache entries are journalled here when a leader publishes.
    wal: Option<WriteAheadLog>,
    /// `LIFECYCLE_*`: running / draining / stopped.
    lifecycle: AtomicU8,
    /// Cancel tokens of every admitted in-flight query, so `shutdown`
    /// can cancel them and `drain_wait` can watch them finish.
    inflight: SafeMutex<HashMap<u64, CancelToken>>,
    next_query_id: AtomicU64,
    panics: AtomicU64,
    cancelled: AtomicU64,
    /// Warm-restart recovery tallies (set once right after the build).
    recovered_pages: AtomicU64,
    recovered_results: AtomicU64,
    journal_torn: AtomicU64,
    /// The drift bus: maintenance sweeps, healing, and the `REFRESH`
    /// verb publish here; the engine's own subscriber invalidates.
    drift: DriftBus,
    /// Engine-wide freshness counters (drift_events, view_invalidated,
    /// delta_refresh, cold_refresh, stale_served) — deliberately apart
    /// from the per-query registries, which stay tenant-isolated.
    drift_metrics: Arc<MetricsRegistry>,
    freshness: SafeMutex<Freshness>,
}

/// What [`Engine::fresh_hit`] found in the result cache.
enum Cached {
    Fresh(Relation),
    /// Resident but refused: its deps drifted after publication.
    Stale,
    Absent,
}

/// The shared multi-query engine. Clone-cheap (`Arc` inside); every
/// clone serves the same webbase.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Build the paper's used-car webbase as a shared engine (the
    /// server-side analogue of [`crate::Webbase::build_demo`]).
    pub fn build_demo(seed: u64, n_ads: usize, latency: LatencyModel) -> Engine {
        let data = Dataset::generate(seed, n_ads);
        let web = standard_web(data.clone(), latency);
        Engine::build_on(web, data, EngineConfig::default())
            .expect("the standard sessions replay cleanly")
    }

    /// Build over an existing Web: replay every designer session,
    /// record the maps, compile each exactly once, and assemble the
    /// shared artifacts. Webcheck vets every map here — not once per
    /// query session.
    pub fn build_on(
        web: SyntheticWeb,
        data: Arc<Dataset>,
        config: EngineConfig,
    ) -> Result<Engine, WebbaseError> {
        Engine::build_corpus(web, Corpus::paper(data), config)
    }

    /// Build over any [`crate::Corpus`] — the paper's car demo, the
    /// apartment example, or a generated corpus. The corpus describes
    /// the sites (sessions + standardisers) and the layers above them;
    /// this path records, analyses, and compiles each site exactly
    /// once, then assembles the shared engine.
    pub fn build_corpus(
        web: SyntheticWeb,
        corpus: Corpus,
        config: EngineConfig,
    ) -> Result<Engine, WebbaseError> {
        let mut maps = Vec::with_capacity(corpus.sites.len());
        for site in &corpus.sites {
            let mut recorder =
                Recorder::with_standardizer(web.clone(), &site.host, site.standardizer.clone());
            for action in &site.session {
                recorder.apply(action).map_err(|e| WebbaseError::Record(site.host.clone(), e))?;
            }
            maps.push(recorder.finish());
        }
        Engine::assemble(web, corpus, maps, config)
    }

    /// Build from shipped maps — F-logic fact text, as produced by
    /// `webbase_navigation::persist::render_facts` — instead of
    /// replaying the corpus's designer sessions; the logical and UR
    /// layers still come from `corpus`. Shipped maps are untrusted
    /// input: text that does not parse, or that repeats a host or VPS
    /// relation an earlier map loaded, is a [`WebbaseError::Load`], and
    /// any E-level pre-flight finding rejects the whole set
    /// ([`WebbaseError::Check`]) before handle derivation and
    /// compilation ever see a map.
    pub fn build_from_fact_maps(
        web: SyntheticWeb,
        corpus: Corpus,
        fact_maps: &[String],
        config: EngineConfig,
    ) -> Result<Engine, WebbaseError> {
        let mut maps = Vec::with_capacity(fact_maps.len());
        let mut preflight = webbase_webcheck::Report::new();
        let mut hosts = HashSet::new();
        let mut relations = HashSet::new();
        for text in fact_maps {
            let map = webbase_navigation::persist::parse_map(text)
                .map_err(|e| WebbaseError::Load(e.to_string()))?;
            if !hosts.insert(map.site.clone()) {
                return Err(WebbaseError::Load(format!("{}: host already loaded", map.site)));
            }
            if let Some(r) = map.relations.iter().find(|r| relations.contains(&r.relation)) {
                return Err(WebbaseError::Load(format!(
                    "{}: VPS relation {} already loaded",
                    map.site, r.relation
                )));
            }
            relations.extend(map.relations.iter().map(|r| r.relation.clone()));
            preflight.merge(webbase_webcheck::check_site(&map));
            let stats = MapStats {
                objects: map.object_count(),
                attributes: map.attribute_count(),
                // Unknown after the fact; recorded at mapping time.
                ..MapStats::default()
            };
            maps.push((map, stats));
        }
        if preflight.has_errors() {
            return Err(WebbaseError::Check(preflight));
        }
        Engine::assemble(web, corpus, maps, config)
    }

    /// The one assembly step behind every build: load each map into the
    /// shared shape, then wire the layers `corpus` describes over it.
    fn assemble(
        web: SyntheticWeb,
        corpus: Corpus,
        maps: Vec<(NavigationMap, MapStats)>,
        config: EngineConfig,
    ) -> Result<Engine, WebbaseError> {
        let mut shape = CatalogShape::new(config.policy);
        let mut stats = Vec::with_capacity(maps.len());
        for (map, s) in maps {
            stats.push((map.site.clone(), s));
            // Analysed (lint + program safety + the abstract
            // interpreter), compiled and handle-derived once per map per
            // build; every query's catalog shares the result.
            shape.add_map(web.clone(), map).map_err(|e| WebbaseError::Load(e.to_string()))?;
        }
        let shape = Arc::new(shape);
        let logical = Arc::new(LogicalDefs::new(corpus.relations));
        let planner = UrPlanner::new(corpus.hierarchy, corpus.rules);
        let index = planner.index(&LogicalLayer::over(
            VpsCatalog::over(shape.clone(), PageStore::new(), None),
            logical.clone(),
        ));
        let store = match config.page_capacity {
            Some(cap) => PageStore::with_capacity(cap),
            None => PageStore::new(),
        };
        // Warm restart: replay the journal's surviving records into the
        // shared caches *before* attaching the WAL, so recovery never
        // re-journals what is already on disk. Torn records are dropped
        // and counted; an unreadable file is a build error.
        let recovery = match &config.journal {
            Some(path) => WalRecovery::load(path).map_err(WebbaseError::Journal)?,
            None => WalRecovery::default(),
        };
        for entry in &recovery.pages {
            store.preload(entry);
        }
        let wal = match &config.journal {
            Some(path) => {
                let wal = WriteAheadLog::open(path).map_err(WebbaseError::Journal)?;
                store.set_wal(wal.clone());
                Some(wal)
            }
            None => None,
        };
        let engine = Engine {
            inner: Arc::new(EngineInner {
                web,
                data: corpus.data,
                shape,
                logical,
                planner,
                index,
                store,
                pool: Arc::new(HostPools::new(config.per_host_connections)),
                memo: AnswerMemo::new(),
                logical_memo: AnswerMemo::new(),
                admission: config.admission.map(EngineAdmission::new),
                plans: SafeRwLock::new(HashMap::new()),
                results: AnswerMemo::new(),
                report: BuildReport { sites: stats },
                static_admission: config.static_admission,
                static_denials: SafeMutex::new(DegradationReport::default()),
                queries: AtomicU64::new(0),
                deferred: AtomicU64::new(0),
                wal,
                lifecycle: AtomicU8::new(LIFECYCLE_RUNNING),
                inflight: SafeMutex::new(HashMap::new()),
                next_query_id: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                recovered_pages: AtomicU64::new(0),
                recovered_results: AtomicU64::new(0),
                journal_torn: AtomicU64::new(0),
                drift: DriftBus::new(),
                drift_metrics: Arc::new(MetricsRegistry::new()),
                freshness: SafeMutex::new(Freshness::default()),
            }),
        };
        // The engine reacts to its own bus (weak, or the bus inside the
        // inner would keep the inner alive forever): every published
        // event synchronously evicts the dependent cache entries before
        // `publish` returns.
        let weak = Arc::downgrade(&engine.inner);
        engine.inner.drift.subscribe(move |event| {
            if let Some(inner) = weak.upgrade() {
                Engine::apply_drift(&inner, event);
            }
        });
        // Settled results re-enter the cache alongside a fresh plan
        // (planning is pure metadata work against the shape — no
        // navigator, no fetch — so the replay stays network-free). A
        // record whose query no longer parses or plans is dropped like
        // a torn one.
        let mut recovered_results = 0u64;
        let mut torn = recovery.torn;
        let (planning, _) = engine.session(true);
        for (text, relation, deps) in &recovery.results {
            let replay = parse_query(text).ok().and_then(|base| {
                let plan = engine.inner.planner.plan_with(&base, &planning, &engine.inner.index);
                plan.ok().map(|plan| {
                    // Re-seed the ledger's static-host stamps from the
                    // replayed plan — the journal does not carry them.
                    let hosts = engine.fold_plan(&plan).semantics.map(|s| s.hosts());
                    (base, plan, hosts.unwrap_or_default())
                })
            });
            match replay {
                Some((base, plan, mut hosts)) => {
                    let entry = Arc::new((base, Arc::new(plan)));
                    engine.inner.plans.write().insert(text.clone(), entry);
                    engine.inner.results.insert(AnswerMemo::key(text, &[]), relation.clone());
                    // The journal carries the result's page deps, so a
                    // recovered entry keeps being invalidated precisely.
                    // They are numbered in this engine's store: a replayed
                    // page keeps the id its preload gave it. Per-object
                    // provenance is not journalled: recovered views
                    // refresh by re-evaluation, not delta.
                    let deps: Arc<[PageId]> =
                        deps.iter().map(|r| engine.inner.store.intern(r)).collect();
                    hosts.extend(engine.inner.store.hosts(&deps));
                    engine.inner.freshness.lock().views.insert(
                        text.clone(),
                        ViewRecord {
                            epoch: 0,
                            deps,
                            object_results: Vec::new(),
                            object_rels: Vec::new(),
                            invocations: Vec::new(),
                            hosts,
                        },
                    );
                    recovered_results += 1;
                }
                None => torn += 1,
            }
        }
        engine.inner.recovered_pages.store(recovery.pages.len() as u64, Ordering::Relaxed);
        engine.inner.recovered_results.store(recovered_results, Ordering::Relaxed);
        engine.inner.journal_torn.store(torn, Ordering::Relaxed);
        Ok(engine)
    }

    /// The one session constructor: a logical layer over the shared
    /// shape and definitions whose catalog builds a site's navigator
    /// only when the session first invokes that site, so a session used
    /// only for planning builds none.
    ///
    /// A shared session reads through the engine's page store, pools
    /// and both answer memos, and records every page it reads in the
    /// returned [`ReadSet`] — the provenance the freshness ledger stores
    /// with published results. An isolated session shares *nothing*
    /// mutable: a private page store, no memo, no pools, and its read
    /// set stays empty — the single-owner cost model that
    /// [`crate::Webbase`], the load generator's serial baseline and the
    /// concurrency tests' byte-identity oracle run on.
    pub fn session(&self, isolated: bool) -> (LogicalLayer, ReadSet) {
        let inner = &self.inner;
        let reads = ReadSet::new();
        let vps = if isolated {
            VpsCatalog::over(inner.shape.clone(), PageStore::new(), None)
        } else {
            let store = inner.store.tracked(reads.clone());
            let mut vps = VpsCatalog::over(inner.shape.clone(), store, Some(inner.pool.clone()));
            vps.set_memos(inner.memo.clone(), inner.logical_memo.clone());
            vps.set_reads(reads.clone());
            vps
        };
        (LogicalLayer::over(vps, inner.logical.clone()), reads)
    }

    /// Parse and execute one UR query as `tenant`.
    ///
    /// Admission control (when configured) runs first: a denial
    /// returns [`EngineError::Deferred`] without touching the Web.
    /// Admitted queries run on a private session — per-query metrics
    /// and (optionally) a span trace come back in the outcome.
    pub fn query(
        &self,
        tenant: &str,
        text: &str,
        options: QueryOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.run(tenant, text, options, false)
    }

    /// Run one query on a fully isolated session (private page store,
    /// no memo, no pools): the single-owner cost model, side by side
    /// with the shared engine. Bypasses admission and the `queries`
    /// counter — it is a measurement tool, not a tenant.
    pub fn query_isolated(
        &self,
        tenant: &str,
        text: &str,
        options: QueryOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.run(tenant, text, options, true)
    }

    fn run(
        &self,
        tenant: &str,
        text: &str,
        options: QueryOptions,
        isolated: bool,
    ) -> Result<QueryOutcome, EngineError> {
        let inner = &self.inner;
        // Lifecycle gate. Isolated runs stay admissible while
        // draining: they are the measurement oracle, not tenants, and
        // the chaos harness compares in-flight answers against them.
        if !isolated && inner.lifecycle.load(Ordering::SeqCst) != LIFECYCLE_RUNNING {
            return Err(EngineError::Draining);
        }
        // Plan-cache fast path: reuse the parse and the plan computed
        // by an earlier query with the same text.
        let cached = if isolated || options.trace || options.resume.is_some() {
            None
        } else {
            inner.plans.read().get(text).cloned()
        };
        // A cached parse is borrowed, not copied: a result-cache hit
        // never needs its own.
        let mut q = match &cached {
            Some(entry) => Cow::Borrowed(&entry.0),
            None => Cow::Owned(parse_query(text).map_err(EngineError::Query)?),
        };
        if let Some(budget) = options.budget.clone() {
            q = Cow::Owned(q.into_owned().with_budget(budget));
        }
        if !isolated {
            if let Some(admission) = &inner.admission {
                if let Err(denial) = admission.admit(tenant) {
                    inner.deferred.fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Deferred(denial));
                }
            }
        }
        // From here to the end of the function the tenant holds an
        // admission slot, and the panic domain is this query alone:
        // execution runs under `catch_unwind`, so a panicking query is
        // converted into a structured failure — charged to its tenant —
        // while the engine keeps serving everyone else. All shared
        // state an unwinding thread can abandon mid-update is behind
        // poison-recovering locks or drop guards (the result-cache
        // leadership hands itself to a waiter on drop).
        let cancel = options.cancel.clone().unwrap_or_default();
        let _inflight = if isolated { None } else { Some(InflightGuard::register(inner, &cancel)) };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.run_admitted(text, &q, &options, isolated, &cancel, cached.clone())
        }));
        // The tenant consumed its admission whether the query
        // succeeded, failed, or panicked — the slot was held either
        // way, so a crashing tenant pays for its own partial spend.
        if !isolated {
            if let Some(admission) = &inner.admission {
                admission.complete(tenant);
            }
        }
        match outcome {
            Ok(result) => {
                if !isolated && result.is_ok() {
                    inner.queries.fetch_add(1, Ordering::Relaxed);
                    if cancel.is_cancelled() {
                        inner.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                }
                result
            }
            Err(payload) => {
                inner.panics.fetch_add(1, Ordering::Relaxed);
                Err(EngineError::Panicked(QueryFailure {
                    tenant: tenant.to_string(),
                    query: text.to_string(),
                    message: panic_message(payload.as_ref()),
                }))
            }
        }
    }

    /// Everything that runs *inside* the panic domain: singleflight
    /// claim, session build, planning, execution, publication.
    fn run_admitted(
        &self,
        text: &str,
        q: &UrQuery,
        options: &QueryOptions,
        isolated: bool,
        cancel: &CancelToken,
        cached: Option<CachedPlan>,
    ) -> Result<QueryOutcome, EngineError> {
        let inner = &self.inner;
        // Whole-query singleflight over the result cache: when N
        // identical eligible queries are in flight, one session
        // executes and the rest block here until its answer settles,
        // then return it as their own. The tenant still paid
        // admission for the query — sharing the computation does not
        // share the slot.
        let eligible =
            !isolated && !options.trace && options.budget.is_none() && options.resume.is_none();
        let result_lead = if eligible {
            // A fresh cached answer is served by one read of the answer
            // map, under the ledger lock; only a miss claims the key. A
            // hit the claim finds (an answer settled meanwhile, or one
            // drift just evicted) is vetted once more under the lock —
            // never served from the claimed copy — and a `None` drops
            // through to an ordinary recompute.
            let key = AnswerMemo::key(text, &[]);
            let (served, lead) = match self.fresh_hit(&key, text, true) {
                Cached::Fresh(relation) => (Some(relation), None),
                Cached::Stale => (None, None),
                Cached::Absent => match inner.results.claim(&key) {
                    MemoClaim::Hit(..) => match self.fresh_hit(&key, text, false) {
                        Cached::Fresh(relation) => (Some(relation), None),
                        Cached::Stale | Cached::Absent => (None, None),
                    },
                    MemoClaim::Leader(guard) => (None, Some(guard)),
                },
            };
            if let Some(relation) = served {
                // The leader populated the plan cache before it
                // executed, so a hit always finds the clean plan: the
                // one this run already read, unless it ran first.
                let plan = match &cached {
                    Some(entry) => Some(entry.1.clone()),
                    None => inner.plans.read().get(text).map(|entry| entry.1.clone()),
                };
                if let Some(plan) = plan {
                    return Ok(QueryOutcome {
                        relation,
                        plan,
                        observation: None,
                        metrics: MetricsSnapshot::default(),
                    });
                }
            }
            lead
        } else {
            None
        };
        let (mut layer, reads) = self.session(isolated);
        let obs = if options.trace {
            Obs::full()
        } else {
            Obs::metrics_only(Arc::new(MetricsRegistry::new()))
        };
        layer.vps.set_obs(obs.clone());
        layer.vps.set_cancel(cancel.clone());
        // The plan this run executes. A traced run plans inside its own
        // span tree, and a resumed run re-plans privately so its partial
        // provenance never touches the shared caches; both do so during
        // execution below. Every other run executes a stored plan: the
        // cached one, or one planned here and published as soon as it
        // exists, so concurrent same-text runs stop re-planning. Planning
        // is pure metadata work over the shape and runs *outside* the
        // plan cache's lock, which is taken only to insert — the first
        // insert wins. Isolated runs keep their plan to themselves.
        let stored = if options.trace || options.resume.is_some() {
            None
        } else {
            Some(match cached {
                Some(entry) => entry,
                None => {
                    // Plan the *base* query: a budget on `q` must not
                    // leak into the shared cache.
                    let base = UrQuery { budget: None, ..q.clone() };
                    let plan = inner
                        .planner
                        .plan_with(&base, &layer, &inner.index)
                        .map_err(EngineError::Plan)?;
                    let entry = Arc::new((base, Arc::new(plan)));
                    if isolated {
                        entry
                    } else {
                        inner.plans.write().entry(text.to_string()).or_insert(entry).clone()
                    }
                }
            })
        };
        // Static admission (opt-in): when the abstract interpreter
        // proves the plan cannot complete within the budget's fetch
        // quota, deny *before any fetch* — planning and the fold over
        // the stored semantics are pure metadata work. Resumed runs are
        // exempt: their journalled frontier replays budget-free, so the
        // cold-store lower bound does not apply to them.
        if !isolated && inner.static_admission && options.resume.is_none() {
            if let Some(quota) = options.budget.as_ref().and_then(|b| b.max_fetches) {
                // Only a traced run reaches here without a stored plan.
                let traced_plan;
                let plan = match &stored {
                    Some(entry) => Some(&*entry.1),
                    None => {
                        traced_plan = inner.planner.plan_with(q, &layer, &inner.index).ok();
                        traced_plan.as_ref()
                    }
                };
                if let Some(semantics) = plan.and_then(|p| self.fold_plan(p).semantics) {
                    if semantics.cost.min > quota {
                        inner.drift_metrics.inc(Metric::StaticDenied);
                        let mut denials = inner.static_denials.lock();
                        for host in semantics.hosts() {
                            denials.site_mut(&host).static_denied += 1;
                        }
                        return Err(EngineError::Deferred(BudgetDenial::StaticCostExceeded {
                            needed: semantics.cost.min,
                            quota,
                        }));
                    }
                }
            }
        }
        let (relation, plan) = match &stored {
            Some(entry) => inner.planner.execute_planned(q, &entry.1, &mut layer),
            None => inner.planner.execute_with_index(
                q,
                &mut layer,
                &inner.index,
                options.resume.as_ref(),
            ),
        }
        .map_err(EngineError::Plan)?;
        // One fold of the executed plan over the shape, and one pass over
        // the run's page reads, serve both the read-set tripwire and the
        // freshness ledger.
        let fold = (!isolated).then(|| self.fold_plan(&plan));
        let deps = reads.all();
        // Soundness tripwire: every page this run read must fall inside
        // the plan's static read-set (host granularity — the static set
        // over-approximates, so an escape is an analysis bug, not
        // drift). Memo-replayed deps come from the same relations, so
        // they are covered too.
        if let Some(semantics) = fold.as_ref().and_then(|f| f.semantics.as_ref()) {
            if !inner.store.hosts(&deps).is_subset(&semantics.hosts()) {
                inner.drift_metrics.inc(Metric::ReadsetEscape);
            }
        }
        // Self-healing quarantined a node during this execution: the
        // site structurally drifted and awaits manual intervention, so
        // cached answers depending on it must not stay serveable. The
        // bus subscriber evicts them before `publish` returns. (Auto-
        // applied repairs are *not* published from here — healing
        // already replayed them, so the answers derived afterwards are
        // fresh; sweeps report them with a Maintenance origin instead.)
        if !isolated {
            self.publish_quarantines(&plan.repairs);
        }
        // Publish only complete answers: a degraded, cancelled, or
        // resumable run must not be replayed to other tenants as the
        // full result. (An error return above drops the guard instead,
        // releasing the key so a waiting session takes over as leader.)
        if let (Some(guard), Some(fold)) = (result_lead, fold) {
            let publish =
                (plan.degradation.is_clean() && plan.resume.is_none()).then(|| relation.clone());
            if let Some(rel) = &publish {
                self.record_view(text, rel, &plan, &layer, deps, fold);
            }
            // The freshness ledger, not the memo, tracks result provenance.
            guard.settle(publish, Provenance::Unknown);
        }
        let metrics = obs.metrics.as_ref().map(|m| m.snapshot()).unwrap_or_default();
        let observation = options
            .trace
            .then(|| QueryObservation { trace: obs.sink.finish(), metrics: metrics.clone() });
        Ok(QueryOutcome { relation, plan: Arc::new(plan), observation, metrics })
    }

    /// Serve-side of the freshness contract: the result-cache value for
    /// `text` (under `key`), but only if the ledger agrees it is
    /// current. `Absent` sends the caller to the claim: nothing is
    /// cached, or drift evicted the view and marked it for a rebuild.
    /// `Stale` sends it down the recompute path. `count` counts a
    /// resident entry as a result-cache hit, for a read the claim did
    /// not already count. `stale_served` is the tripwire
    /// for values that *would* have gone out stale: a resident entry
    /// whose recorded deps drifted after publication without the view
    /// being marked. The eviction protocol (evict + mark under this
    /// same lock, synchronously with the event) makes that impossible,
    /// which is exactly what the consistency suites pin by asserting
    /// the counter stays zero.
    fn fresh_hit(&self, key: &MemoKey, text: &str, count: bool) -> Cached {
        let inner = &self.inner;
        let ledger = inner.freshness.lock();
        if ledger.drifted.contains(text) {
            return Cached::Absent;
        }
        let Some(relation) = inner.results.peek(key) else { return Cached::Absent };
        if count {
            inner.results.count_hit();
        }
        if let Some(record) = ledger.views.get(text) {
            // No stamp exceeds the current epoch, so a view published at
            // it has nothing to check.
            let stale = record.epoch < ledger.epoch
                && (ledger.host_tainted(record)
                    || record.deps.iter().any(|&d| ledger.page_drifted(d, record.epoch)));
            if stale {
                inner.drift_metrics.inc(Metric::StaleServed);
                return Cached::Stale; // refuse even here: recompute beats serving stale
            }
        }
        Cached::Fresh(relation)
    }

    /// Fold a plan over the shape: the VPS relations each plan object
    /// reads, resolved through the logical definitions (an object can
    /// also name a VPS relation directly), and the plan-level static
    /// semantics. Feeds the freshness ledger's provenance, the
    /// `readset_escape` tripwire, the static admission gate and
    /// EXPLAIN.
    fn fold_plan(&self, plan: &UrPlan) -> PlanFold {
        let object_rels: Vec<BTreeSet<String>> = plan
            .objects
            .iter()
            .map(|o| {
                let mut logical = BTreeSet::new();
                expr_rel_names(&o.expr, &mut logical);
                let mut vps = BTreeSet::new();
                for name in &logical {
                    match self.inner.logical.get(name) {
                        Some(def) => expr_rel_names(&def.def, &mut vps),
                        // An object naming a VPS relation directly.
                        None => {
                            vps.insert(name.clone());
                        }
                    }
                }
                vps
            })
            .collect();
        let semantics = self.static_semantics(&object_rels);
        PlanFold { object_rels, semantics }
    }

    /// Fold the per-relation semantics up to one whole plan. The lower
    /// bound unions navigation-spine nodes per host — relations that
    /// share a spine prefix (every site's relations share at least the
    /// entry page) are not double-counted, so the bound stays sound.
    /// The upper bound sums every (object, relation) occurrence: each
    /// invocation can spend up to its own max. `None` when a relation
    /// lacks stored semantics — nothing sound to gate against.
    fn static_semantics(&self, object_rels: &[BTreeSet<String>]) -> Option<PlanSemantics> {
        let mut spines: BTreeMap<String, BTreeSet<NodeId>> = BTreeMap::new();
        let mut read: BTreeMap<String, BTreeSet<NodeId>> = BTreeMap::new();
        let mut max = webbase_webcheck::Bound::Finite(0);
        for name in object_rels.iter().flatten() {
            let site = self.inner.shape.relation_site(name)?;
            let sem = site.relation(name)?;
            let host = site.host.clone();
            spines.entry(host.clone()).or_default().extend(sem.spine_nodes.iter().copied());
            read.entry(host).or_default().extend(sem.read_nodes.iter().copied());
            max = max.join_add(sem.cost.max);
        }
        let min = spines.values().map(|s| s.len() as u64).sum();
        Some(PlanSemantics { cost: webbase_webcheck::CostInterval { min, max }, read })
    }

    /// Enter a freshly published result into the freshness ledger (and
    /// the journal) with everything a later drift event needs: its page
    /// deps, its per-object values, which VPS relations each object
    /// reads, and the hosts it can read.
    fn record_view(
        &self,
        text: &str,
        relation: &Relation,
        plan: &UrPlan,
        layer: &LogicalLayer,
        deps: Vec<PageId>,
        fold: PlanFold,
    ) {
        let inner = &self.inner;
        let mut hosts = fold.semantics.map(|s| s.hosts()).unwrap_or_default();
        hosts.extend(inner.store.hosts(&deps));
        let invocations = invocation_deps(layer);
        if let Some(wal) = &inner.wal {
            // Best-effort, like page journalling: losing the record
            // costs warm-restart coverage, not the answer.
            let _ = wal.append_result(text, relation, &deps, |id| inner.store.request(id));
        }
        let mut ledger = inner.freshness.lock();
        let epoch = ledger.epoch;
        ledger.drifted.remove(text);
        ledger.views.insert(
            text.to_string(),
            ViewRecord {
                epoch,
                deps: deps.into(),
                object_results: plan.object_results.clone(),
                object_rels: fold.object_rels,
                invocations,
                hosts,
            },
        );
    }

    /// React to one drift event: bump the drift clock, stamp the
    /// drifted pages (or host), evict exactly the dependent result-cache
    /// views and entries of both memos, journal the invalidations, and
    /// mark the views for refresh. The stamps are the only record of *what*
    /// drifted: a victim's drifted deps are those stamped after its
    /// epoch. Runs synchronously on the publisher's thread — `publish`
    /// returns only after this completes, so a sweep-then-query
    /// sequence can never observe the stale entries.
    fn apply_drift(inner: &EngineInner, event: &DriftEvent) {
        inner.drift_metrics.inc(Metric::DriftEvents);
        let page_scoped = event.page_scoped();
        // The event's pages as ids, mapped once: the changed pages, or
        // every page numbered on a tainted host. A request the store
        // never numbered is nobody's dependency, and a page numbered
        // after this point was first read after the event.
        let changed = if page_scoped { inner.store.ids_of(&event.requests) } else { Vec::new() };
        let drifted: PageSet = if page_scoped {
            changed.iter().copied().collect()
        } else {
            inner.store.on_host(&event.host)
        };
        // Both invocation memos first, before the epoch bump: anything
        // that read a changed page (or a tainted host) recomputes on
        // next use — against the already sweep-refreshed store, so
        // precisely without re-fetching. A logical entry goes when any
        // VPS invocation under it read a drifted page.
        for memo in [&inner.memo, &inner.logical_memo] {
            memo.invalidate_pages(&drifted);
        }
        let mut ledger = inner.freshness.lock();
        ledger.epoch += 1;
        let epoch = ledger.epoch;
        if page_scoped {
            for &id in &changed {
                ledger.stamp(id, epoch);
            }
        } else {
            ledger.host_drift.insert(event.host.clone(), epoch);
        }
        let victim = |rec: &ViewRecord| {
            if rec.deps.is_empty() {
                // Unknown provenance (pre-tracking or torn journal):
                // never prefer a possibly-stale answer to a recompute.
                return true;
            }
            if page_scoped {
                rec.deps.iter().any(|&d| drifted.contains(d))
            } else {
                // Host-scoped: the recorded deps' hosts decide,
                // backstopped by the statically pre-seeded hosts (they
                // cover entries whose page provenance is partial —
                // journal-recovered views, for one).
                rec.hosts.contains(&event.host)
            }
        };
        let Freshness { views, drifted, .. } = &mut *ledger;
        for (text, _) in views.iter().filter(|(_, rec)| victim(rec)) {
            if inner.results.remove(&AnswerMemo::key(text, &[])) {
                inner.drift_metrics.inc(Metric::ViewInvalidated);
                if let Some(wal) = &inner.wal {
                    // Journalled so a crash between the eviction and the
                    // re-publish cannot resurrect the stale entry on
                    // warm restart.
                    let _ = wal.append_invalidate(text);
                }
            }
            drifted.insert(text.clone());
        }
    }

    /// Revalidate cached pages against the live Web (optionally one
    /// host) and bring every drift-invalidated view back to freshness.
    /// This is the background sweep and the `REFRESH` verb: budget-
    /// charged and cancellable like any other navigation work. The
    /// sweep runs on the calling thread; the view rebuild runs on every
    /// core.
    pub fn refresh(
        &self,
        host: Option<&str>,
        origin: DriftOrigin,
        budget: Option<&BudgetTracker>,
        cancel: Option<&CancelToken>,
    ) -> RefreshReport {
        let inner = &self.inner;
        let swept = sweep(&inner.web, &inner.store, &inner.drift, host, origin, budget, cancel);
        let mut report = RefreshReport { sweep: swept, ..RefreshReport::default() };
        // The subscriber already invalidated during the sweep's
        // publishes; now rebuild — including views tainted by earlier
        // events (healing quarantines and the like). Once the token
        // fires no further view is rebuilt: those stay drifted, and the
        // next query recomputes them.
        let drifted: Vec<String> = inner.freshness.lock().drifted.iter().cloned().collect();
        let outcomes = fan_out(&drifted, |text| {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return RefreshOutcome::Evicted;
            }
            self.refresh_view(text, cancel)
        });
        for outcome in outcomes {
            match outcome {
                RefreshOutcome::Delta => report.delta_refreshed += 1,
                RefreshOutcome::Cold => report.cold_refreshed += 1,
                RefreshOutcome::Evicted => report.evicted += 1,
            }
        }
        report
    }

    /// The refresh ladder for one invalidated view:
    ///
    /// 1. **Incremental** — when the drift is page-scoped and only some
    ///    of the plan's objects read an affected VPS relation:
    ///    re-evaluate just those objects (unchanged invocations
    ///    memo-hit; re-run invocations read the sweep-refreshed store,
    ///    so no new wire fetches) and propagate the per-object deltas
    ///    through the union with [`Incremental`].
    /// 2. **Re-evaluation** — otherwise re-run the whole query; still
    ///    fetch-economical for the same reasons, but no delta math.
    /// 3. **Eviction** — a failed or degraded refresh (a cancel cut it
    ///    short, say) leaves the view evicted; the next query recomputes
    ///    and re-publishes it.
    fn refresh_view(&self, text: &str, cancel: Option<&CancelToken>) -> RefreshOutcome {
        let inner = &self.inner;
        let plan_entry = inner.plans.read().get(text).cloned();
        let Some(plan_entry) = plan_entry else {
            // No cached plan to rebuild from (a recovered entry whose
            // replay failed): stays evicted until someone queries it.
            return RefreshOutcome::Evicted;
        };
        let (query, plan) = (&plan_entry.0, &plan_entry.1);
        // Rung 1 applies when per-page provenance lets us bound the
        // affected objects to a strict, non-empty subset. The drifted
        // deps are those stamped after the view's epoch.
        let ledger = inner.freshness.lock();
        let incremental = ledger.views.get(text).and_then(|r| {
            let objects = plan.objects.len();
            let drifted = |d: &PageId| ledger.page_drifted(*d, r.epoch);
            if r.object_results.len() != objects
                || r.object_rels.len() != objects
                || ledger.host_tainted(r)
                || !r.deps.iter().any(drifted)
            {
                return None;
            }
            let affected_rels: BTreeSet<&str> = r
                .invocations
                .iter()
                .filter(|(_, deps)| deps.is_empty() || deps.iter().any(drifted))
                .map(|(key, _)| &*key.0)
                .collect();
            let affected: Vec<usize> = (0..objects)
                .filter(|&i| r.object_rels[i].iter().any(|n| affected_rels.contains(n.as_str())))
                .collect();
            if affected.is_empty() || affected.len() == objects {
                return None; // nothing attributable, or nothing to save
            }
            Some((r.object_results.clone(), affected, r.deps.clone()))
        });
        drop(ledger);
        if let Some((old_objects, affected, old_deps)) = incremental {
            if let Some(outcome) =
                self.refresh_delta(text, plan, &old_objects, &affected, old_deps, cancel)
            {
                return outcome;
            }
        }
        // Rung 2: full re-evaluation on a tracked session. The memo
        // entries drift touched are already evicted, so this re-runs
        // exactly the affected invocations — against the refreshed
        // store — and memo-hits the rest.
        let (mut layer, reads) = self.rebuild_session(cancel);
        match inner.planner.execute_planned(query, plan, &mut layer) {
            Ok((relation, executed)) if executed.degradation.is_clean() => {
                // Structural drift found while rebuilding taints its
                // host like healing-time drift — dependants evict
                // before this view re-publishes at the bumped epoch.
                self.publish_quarantines(&executed.repairs);
                inner.results.insert(AnswerMemo::key(text, &[]), relation.clone());
                let fold = self.fold_plan(&executed);
                self.record_view(text, &relation, &executed, &layer, reads.all(), fold);
                inner.drift_metrics.inc(Metric::ColdRefresh);
                RefreshOutcome::Cold
            }
            _ => {
                // Rung 3: stay evicted; counted as a cold fallback so
                // the bench's refresh column reflects the failed path.
                inner.drift_metrics.inc(Metric::ColdRefresh);
                RefreshOutcome::Evicted
            }
        }
    }

    /// A tracked session for rebuilding one drifted view: private
    /// metrics, and the refresh's cancel token, so a cancel lands before
    /// the rebuild's next page request.
    fn rebuild_session(&self, cancel: Option<&CancelToken>) -> (LogicalLayer, ReadSet) {
        let (mut layer, reads) = self.session(false);
        layer.vps.set_obs(Obs::metrics_only(Arc::new(MetricsRegistry::new())));
        if let Some(token) = cancel {
            layer.vps.set_cancel(token.clone());
        }
        (layer, reads)
    }

    /// Publish the quarantines of one execution's repair report on the
    /// drift bus (the subscriber evicts every cached view depending on
    /// the tainted host before `publish` returns). Auto-applied repairs
    /// are not republished: healing already replayed them, so answers
    /// derived afterwards are fresh.
    fn publish_quarantines(&self, repairs: &RepairReport) {
        for event in events_from_repairs(repairs, DriftOrigin::Healing) {
            if event.kind == DriftKind::Quarantined {
                self.inner.drift.publish(event);
            }
        }
    }

    /// Rung 1 of the ladder: re-evaluate only `affected` objects and
    /// derive the new view value by delta-propagating through the
    /// union. Returns `None` to fall through to re-evaluation.
    fn refresh_delta(
        &self,
        text: &str,
        plan: &UrPlan,
        old_objects: &[Relation],
        affected: &[usize],
        old_deps: Arc<[PageId]>,
        cancel: Option<&CancelToken>,
    ) -> Option<RefreshOutcome> {
        let inner = &self.inner;
        let (mut layer, reads) = self.rebuild_session(cancel);
        let mut new_objects = old_objects.to_vec();
        for &i in affected {
            match plan.objects[i].eval(&mut layer) {
                Ok(rel) => new_objects[i] = rel,
                Err(_) => return None,
            }
        }
        if !layer.vps.degradation().is_clean() {
            return None;
        }
        self.publish_quarantines(&layer.vps.repairs());
        // Union delta propagation over the per-object bases.
        let mut bases = HashMap::new();
        let mut expr: Option<Expr> = None;
        for i in 0..old_objects.len() {
            let name = format!("object{i}");
            let base = if affected.contains(&i) {
                BaseDelta { old: old_objects[i].clone(), new: new_objects[i].clone() }
            } else {
                BaseDelta::unchanged(old_objects[i].clone())
            };
            bases.insert(name.clone(), base);
            let rel = Expr::relation(&name);
            expr = Some(match expr {
                None => rel,
                Some(e) => e.union(rel),
            });
        }
        let node =
            Incremental::new(bases).refresh(&expr.expect("plans have at least one object")).ok()?;
        let value = node.new_value();
        // New provenance: the refreshed session's reads (memo-hit
        // replays included) plus the carried-over deps of the objects
        // we did not touch — shared unchanged when nothing new was read.
        let fresh: Vec<PageId> = {
            let known: PageSet = old_deps.iter().copied().collect();
            reads.all().into_iter().filter(|&id| !known.contains(id)).collect()
        };
        let fresh_hosts = inner.store.hosts(&fresh);
        let deps: Arc<[PageId]> = if fresh.is_empty() {
            old_deps
        } else {
            old_deps.iter().copied().chain(fresh).collect()
        };
        let refreshed_invocations = invocation_deps(&layer);
        if let Some(wal) = &inner.wal {
            let _ = wal.append_result(text, &value, &deps, |id| inner.store.request(id));
        }
        let mut ledger = inner.freshness.lock();
        let epoch = ledger.epoch;
        inner.results.insert(AnswerMemo::key(text, &[]), value);
        ledger.drifted.remove(text);
        if let Some(rec) = ledger.views.get_mut(text) {
            rec.epoch = epoch;
            rec.deps = deps;
            rec.hosts.extend(fresh_hosts);
            rec.object_results = new_objects;
            // Merge: re-run invocations replace their old entries;
            // untouched objects keep theirs.
            let rerun: HashSet<&MemoKey> =
                refreshed_invocations.iter().map(|(k, _)| k.as_ref()).collect();
            rec.invocations.retain(|(k, _)| !rerun.contains(k.as_ref()));
            rec.invocations.extend(refreshed_invocations);
        }
        inner.drift_metrics.inc(Metric::DeltaRefresh);
        Some(RefreshOutcome::Delta)
    }

    /// The drift bus (publish maintenance findings here; subscribe for
    /// diagnostics).
    pub fn drift_bus(&self) -> &DriftBus {
        &self.inner.drift
    }

    /// Point-in-time freshness summary for the `FRESHNESS` verb.
    pub fn freshness(&self) -> FreshnessReport {
        let inner = &self.inner;
        let ledger = inner.freshness.lock();
        FreshnessReport {
            epoch: ledger.epoch,
            tracked_views: ledger.views.len(),
            drifted: ledger.drifted.iter().cloned().collect(),
            events_published: inner.drift.published(),
            recent: inner.drift.recent(),
        }
    }

    /// Stop admitting new queries; in-flight queries keep running.
    /// Idempotent, and a no-op once the engine is stopped.
    pub fn drain(&self) {
        let _ = self.inner.lifecycle.compare_exchange(
            LIFECYCLE_RUNNING,
            LIFECYCLE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Stop admitting *and* cancel every in-flight query: each one
    /// abandons navigation at its next checkpoint (budgeted queries
    /// checkpoint to a resume token, so their spend is not wasted).
    pub fn shutdown(&self) {
        self.inner.lifecycle.store(LIFECYCLE_STOPPED, Ordering::SeqCst);
        for token in self.inner.inflight.lock().values() {
            token.cancel();
        }
    }

    pub fn lifecycle(&self) -> Lifecycle {
        match self.inner.lifecycle.load(Ordering::SeqCst) {
            LIFECYCLE_RUNNING => Lifecycle::Running,
            LIFECYCLE_DRAINING => Lifecycle::Draining,
            _ => Lifecycle::Stopped,
        }
    }

    /// Admitted queries currently executing.
    pub fn inflight_queries(&self) -> usize {
        self.inner.inflight.lock().len()
    }

    /// Block until every in-flight query has finished (true) or the
    /// timeout elapses with queries still running (false). Call after
    /// [`Engine::drain`] or [`Engine::shutdown`] — while admissions
    /// are open, new queries can keep the count from reaching zero.
    pub fn drain_wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.inflight.lock().is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Plan without executing (no admission charge, no fetches).
    pub fn explain(&self, text: &str) -> Result<UrPlan, EngineError> {
        Ok(self.explain_semantics(text)?.0)
    }

    /// [`Engine::explain`] plus the abstract interpreter's plan-level
    /// verdict (`None` only if a plan relation lacks stored semantics,
    /// which loaded maps never do). Still fetch-free, and it builds no
    /// navigator: planning reads only the shape.
    pub fn explain_semantics(
        &self,
        text: &str,
    ) -> Result<(UrPlan, Option<PlanSemantics>), EngineError> {
        let q = parse_query(text).map_err(EngineError::Query)?;
        let (layer, _) = self.session(true);
        let plan = self
            .inner
            .planner
            .plan_with(&q, &layer, &self.inner.index)
            .map_err(EngineError::Plan)?;
        let semantics = self.fold_plan(&plan).semantics;
        Ok((plan, semantics))
    }

    /// Per-site static-admission denials (the analysis-time analogue of
    /// the runtime budget ledger's `budget_denied` rows). Empty unless
    /// `EngineConfig::static_admission` denied something.
    pub fn static_denials(&self) -> DegradationReport {
        self.inner.static_denials.lock().clone()
    }

    /// Open a new admission epoch (no-op without admission control).
    pub fn reset_epoch(&self) {
        if let Some(admission) = &self.inner.admission {
            admission.reset_epoch();
        }
    }

    /// The current epoch's per-tenant admission spend.
    pub fn admission_snapshot(&self) -> Option<BudgetSnapshot> {
        self.inner.admission.as_ref().map(EngineAdmission::snapshot)
    }

    pub fn stats(&self) -> EngineStats {
        let inner = &self.inner;
        EngineStats {
            queries: inner.queries.load(Ordering::Relaxed),
            deferred: inner.deferred.load(Ordering::Relaxed),
            store_hits: inner.store.hits(),
            store_misses: inner.store.misses(),
            store_evictions: inner.store.evictions(),
            memo_hits: inner.memo.hits(),
            memo_misses: inner.memo.misses(),
            memo_len: inner.memo.len(),
            memo_coalesced: inner.memo.coalesced(),
            logical_hits: inner.logical_memo.hits(),
            logical_misses: inner.logical_memo.misses(),
            logical_coalesced: inner.logical_memo.coalesced(),
            logical_len: inner.logical_memo.len(),
            result_hits: inner.results.hits(),
            result_misses: inner.results.misses(),
            result_coalesced: inner.results.coalesced(),
            pool_waits: inner.pool.waits(),
            panics: inner.panics.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
            result_aborted: inner.results.aborted(),
            memo_aborted: inner.memo.aborted(),
            lock_poison_recovered: webbase_obs::sync::poison_recoveries(),
            journal_recovered_pages: inner.recovered_pages.load(Ordering::Relaxed),
            journal_recovered_results: inner.recovered_results.load(Ordering::Relaxed),
            journal_torn: inner.journal_torn.load(Ordering::Relaxed),
            web_requests: inner.web.total_stats().requests,
            drift_events: inner.drift_metrics.get(Metric::DriftEvents),
            view_invalidated: inner.drift_metrics.get(Metric::ViewInvalidated),
            delta_refresh: inner.drift_metrics.get(Metric::DeltaRefresh),
            cold_refresh: inner.drift_metrics.get(Metric::ColdRefresh),
            stale_served: inner.drift_metrics.get(Metric::StaleServed),
            static_denied: inner.drift_metrics.get(Metric::StaticDenied),
            readset_escape: inner.drift_metrics.get(Metric::ReadsetEscape),
        }
    }

    pub fn web(&self) -> &SyntheticWeb {
        &self.inner.web
    }

    pub fn data(&self) -> Option<&Arc<Dataset>> {
        self.inner.data.as_ref()
    }

    /// The shared page store (for tests and diagnostics).
    pub fn store(&self) -> &PageStore {
        &self.inner.store
    }

    /// The shared VPS answer memo (for tests and diagnostics).
    pub fn memo(&self) -> &AnswerMemo {
        &self.inner.memo
    }

    /// The §7 map-builder statistics from the build.
    pub fn report(&self) -> &BuildReport {
        &self.inner.report
    }

    /// The accumulated build-time webcheck findings.
    pub fn preflight(&self) -> &webbase_webcheck::Report {
        self.inner.shape.preflight()
    }

    /// Every loaded map, in registration order.
    pub fn maps(&self) -> impl ExactSizeIterator<Item = &NavigationMap> {
        self.inner.shape.maps()
    }

    /// The UR planner: the concept hierarchy and compatibility rules.
    pub fn planner(&self) -> &UrPlanner {
        &self.inner.planner
    }

    /// The full static analysis of the assembled webbase: the per-map
    /// findings the build stored (map lint, program safety, semantics),
    /// then the logical schema, VPS catalog, and UR planner checked
    /// against each other (webcheck pass 3). Pure — no navigation, no
    /// fetches; safe to run on every load.
    pub fn check(&self) -> webbase_webcheck::Report {
        use webbase_relational::eval::RelationProvider;
        use webbase_ur::compat::CompatRule;
        use webbase_webcheck::{
            CompatRuleSpec, CrossLayerInput, HandleSpec, LogicalSpec, VpsRelSpec,
        };
        let shape = &self.inner.shape;
        let mut report = shape.preflight().clone();
        let (layer, _) = self.session(true);
        let attrs_of = |schema: Option<webbase_relational::Schema>| -> Vec<String> {
            schema
                .map(|s| s.attrs().iter().map(|a| a.as_str().to_string()).collect())
                .unwrap_or_default()
        };
        let vps_specs: Vec<VpsRelSpec> = shape
            .relations()
            .map(|name| VpsRelSpec {
                name: name.to_string(),
                site: shape.relation_host(name).unwrap_or_default().to_string(),
                attrs: attrs_of(layer.vps.schema(name)),
                handles: shape
                    .handles(name)
                    .iter()
                    .map(|h| HandleSpec {
                        mandatory: h.mandatory.iter().cloned().collect(),
                        selection: h.selection.iter().cloned().collect(),
                    })
                    .collect(),
            })
            .collect();
        let logical: Vec<LogicalSpec> = layer
            .relations()
            .iter()
            .map(|r| LogicalSpec {
                name: r.name.clone(),
                attrs: attrs_of(layer.schema(&r.name)),
                bases: r.def.base_relations().iter().map(ToString::to_string).collect(),
            })
            .collect();
        let planner = &self.inner.planner;
        let concepts = planner.hierarchy.alternatives().map(|a| a.name.clone()).collect();
        let compat = planner
            .rules
            .rules
            .iter()
            .map(|r| match r {
                CompatRule::Requires { premise, then } => {
                    CompatRuleSpec::Requires { premise: premise.clone(), then: then.clone() }
                }
                CompatRule::Excludes { premise, then_not } => CompatRuleSpec::Excludes {
                    premise: premise.clone(),
                    then_not: then_not.clone(),
                },
            })
            .collect();
        report.merge(webbase_webcheck::check_cross_layer(&CrossLayerInput {
            logical,
            vps: vps_specs,
            concepts,
            compat,
        }));
        report
    }

    /// The UR's attribute list.
    pub fn ur_attributes(&self) -> Vec<String> {
        self.inner.index.attributes().to_vec()
    }
}

/// RAII registration of one admitted query's cancel token: the entry
/// is removed however the query ends — success, error, or unwind.
struct InflightGuard<'a> {
    inner: &'a EngineInner,
    id: u64,
}

impl<'a> InflightGuard<'a> {
    fn register(inner: &'a EngineInner, cancel: &CancelToken) -> InflightGuard<'a> {
        let id = inner.next_query_id.fetch_add(1, Ordering::Relaxed);
        inner.inflight.lock().insert(id, cancel.clone());
        InflightGuard { inner, id }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inner.inflight.lock().remove(&self.id);
    }
}

/// Extract a human-readable message from a caught panic payload
/// (`panic!("...")` carries `&str` or `String`; anything else is
/// reported by type only).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Webbase;
    use webbase_relational::eval::CompiledExpr;
    use webbase_webworld::request::Request;

    const JAGUAR: &str = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                          safety='good', condition='good') WHERE price < bbprice";

    #[test]
    fn engine_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn engine_answers_match_the_single_owner_stack() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let mut wb = Webbase::build_demo(5, 400, LatencyModel::lan());
        let (expected, _) = wb.query(JAGUAR).expect("webbase answers");
        let out = engine.query("t0", JAGUAR, QueryOptions::default()).expect("engine answers");
        assert_eq!(out.relation, expected, "shared engine changed the answer");
        assert!(!out.plan.objects.is_empty());
    }

    #[test]
    fn repeat_queries_hit_the_shared_store_and_memo() {
        let engine = Engine::build_demo(7, 400, LatencyModel::lan());
        let a = engine.query("alice", JAGUAR, QueryOptions::default()).expect("first");
        let before = engine.web().total_stats().requests;
        let b = engine.query("bob", JAGUAR, QueryOptions::default()).expect("second");
        assert_eq!(a.relation, b.relation);
        // The second tenant's identical query is answered entirely out
        // of the shared result cache: zero new network requests.
        assert_eq!(engine.web().total_stats().requests, before, "repeat query re-fetched");
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 1, "repeat text must hit the result cache: {stats:?}");
        assert_eq!(stats.queries, 2);
        // Hits share the cached plan: two of them hold one allocation.
        let c = engine.query("carol", JAGUAR, QueryOptions::default()).expect("third");
        assert!(Arc::ptr_eq(&b.plan, &c.plan), "a result-cache hit copied the cached plan");
    }

    #[test]
    fn concurrent_identical_queries_coalesce_onto_one_leader() {
        let engine = Engine::build_demo(7, 400, LatencyModel::lan());
        let answers: Vec<Relation> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let engine = engine.clone();
                    scope.spawn(move || {
                        let tenant = format!("tenant{t}");
                        engine
                            .query(&tenant, JAGUAR, QueryOptions::default())
                            .expect("query runs")
                            .relation
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "coalesced answers diverged");
        let stats = engine.stats();
        // One session executed; the other three either waited for its
        // answer (coalesced) or arrived after it settled (hits).
        assert_eq!(stats.result_misses, 1, "exactly one leader: {stats:?}");
        assert_eq!(stats.result_hits, 3, "three followers shared the answer: {stats:?}");
        assert_eq!(stats.queries, 4);
    }

    #[test]
    fn overlapping_queries_share_pages_not_answers() {
        let engine = Engine::build_demo(7, 400, LatencyModel::lan());
        engine.query("alice", JAGUAR, QueryOptions::default()).expect("jaguar");
        let misses_before = engine.stats().store_misses;
        // A different query over the same sites: memo cannot help, but
        // every page the jaguar query already fetched is store-hit.
        let out = engine
            .query(
                "bob",
                "UsedCarUR(make='jaguar', model, year >= 1995, price, bbprice, \
                 safety='good', condition='good') WHERE price < bbprice",
                QueryOptions::default(),
            )
            .expect("narrower jaguar");
        drop(out);
        let stats = engine.stats();
        assert!(stats.store_hits > 0, "no cross-query page sharing: {stats:?}");
        assert!(stats.store_misses >= misses_before, "miss counter went backwards");
    }

    #[test]
    fn traced_queries_get_private_span_trees() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let out = engine.query("t", JAGUAR, QueryOptions::traced()).expect("traced");
        let obs = out.observation.expect("trace present");
        assert!(!obs.trace.spans.is_empty(), "traced query produced no spans");
        // An untraced query returns no observation but still counts.
        let out2 = engine.query("t", JAGUAR, QueryOptions::default()).expect("untraced");
        assert!(out2.observation.is_none());
        assert!(out2.metrics.counters.values().any(|v| *v > 0), "metrics-only still counts");
    }

    #[test]
    fn budgeted_queries_bypass_the_memo_and_stay_partial() {
        let q = "UsedCarUR(make='ford', price)";
        // Cold engine: nothing shared yet, so a tiny quota binds and
        // the partial carries a resume token.
        let cold = Engine::build_demo(5, 400, LatencyModel::lan());
        let out = cold
            .query("tight", q, QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(2)))
            .expect("budgeted runs return partials");
        assert!(out.plan.resume.is_some(), "a cold 2-fetch quota cannot finish the ford query");
        // Navigators are built only for the sites the plan invokes, but
        // every corpus host still holds a fair-share floor.
        let spend = out.plan.budget.as_ref().expect("budgeted runs snapshot their spend");
        let hosts: Vec<&String> = cold.report().sites.iter().map(|(host, _)| host).collect();
        assert_eq!(spend.sites.keys().collect::<BTreeSet<_>>(), hosts.into_iter().collect());

        // Warm engine: a full run seeds both the memo and the page
        // store. A budgeted repeat must not consult the memo — but the
        // shared store's cache hits are budget-free, so it still walks
        // to the complete answer.
        let warm = Engine::build_demo(5, 400, LatencyModel::lan());
        let full = warm.query("warm", q, QueryOptions::default()).expect("full run");
        let memo_hits_before = warm.stats().memo_hits;
        let out2 = warm
            .query("tight", q, QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(2)))
            .expect("budgeted warm run");
        assert_eq!(
            warm.stats().memo_hits,
            memo_hits_before,
            "a budgeted query consulted the shared memo"
        );
        assert!(out2.plan.resume.is_none(), "store hits are budget-free on the warm walk");
        assert_eq!(out2.relation, full.relation, "the warm budgeted walk re-derives the answer");
    }

    #[test]
    fn static_admission_denies_before_any_fetch() {
        let config = EngineConfig { static_admission: true, ..EngineConfig::default() };
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, config).expect("builds");
        let before = engine.web().total_stats().requests;
        let err = engine.query(
            "tight",
            FORD,
            QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(2)),
        );
        match err {
            Err(EngineError::Deferred(BudgetDenial::StaticCostExceeded { needed, quota })) => {
                assert!(needed > quota, "the denial carries its proof: {needed} > {quota}");
                assert_eq!(quota, 2);
            }
            other => panic!("expected a static denial, got {other:?}"),
        }
        assert_eq!(
            engine.web().total_stats().requests,
            before,
            "a static denial must precede any fetch"
        );
        let stats = engine.stats();
        assert_eq!(stats.static_denied, 1, "{stats:?}");
        assert_eq!(stats.queries, 0, "a denied query never counts as served");
        let denials = engine.static_denials();
        assert!(denials.sites.values().any(|d| d.static_denied > 0), "{denials:?}");
        // A quota above the lower bound passes the gate; whether the
        // run then completes or goes partial is the runtime budget
        // layer's business, not the gate's.
        engine
            .query(
                "roomy",
                FORD,
                QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(500)),
            )
            .expect("a feasible budget is admitted");
        assert_eq!(engine.stats().static_denied, 1, "the feasible run was not denied");
    }

    #[test]
    fn static_gate_is_off_by_default_and_the_tripwire_stays_zero() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        // Default config: the same infeasible quota yields a budgeted
        // partial with a resume token, exactly as before the gate.
        let out = engine
            .query(
                "tight",
                FORD,
                QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(2)),
            )
            .expect("gate off: budgeted queries stay partial");
        assert!(out.plan.resume.is_some());
        engine.query("t", JAGUAR, QueryOptions::default()).expect("full run");
        let stats = engine.stats();
        assert_eq!(stats.static_denied, 0, "{stats:?}");
        assert_eq!(stats.readset_escape, 0, "dynamic reads escaped the static read-set");
    }

    #[test]
    fn explain_semantics_reports_cost_interval_and_read_set() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let (plan, semantics) = engine.explain_semantics(JAGUAR).expect("plans");
        let semantics = semantics.expect("every loaded relation carries semantics");
        assert!(!plan.objects.is_empty());
        assert!(semantics.cost.min >= 1, "at least the entry fetch: {:?}", semantics.cost);
        assert!(!semantics.read.is_empty());
        let rendered = semantics.render();
        assert!(rendered.contains("static cost: ["), "{rendered}");
        assert!(rendered.contains("static read set:"), "{rendered}");
        for host in semantics.hosts() {
            assert!(rendered.contains(&host), "render names every host: {rendered}");
        }
    }

    #[test]
    fn admission_defers_over_quota_tenants_and_resets_by_epoch() {
        let config = EngineConfig {
            admission: Some(AdmissionConfig { queries_per_epoch: 2, fair_share: true }),
            ..EngineConfig::default()
        };
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, config).expect("builds");
        let q = "UsedCarUR(make='honda', model='civic', year, price)";
        engine.query("a", q, QueryOptions::default()).expect("first admitted");
        engine.query("a", q, QueryOptions::default()).expect("second admitted");
        let err = engine.query("a", q, QueryOptions::default());
        assert!(matches!(err, Err(EngineError::Deferred(_))), "third must defer: {err:?}");
        assert_eq!(engine.stats().deferred, 1);
        let snap = engine.admission_snapshot().expect("admission configured");
        assert_eq!(snap.sites["a"].fetches, 2);
        engine.reset_epoch();
        engine.query("a", q, QueryOptions::default()).expect("fresh epoch admits again");
    }

    #[test]
    fn fair_share_reserves_floors_for_quiet_tenants() {
        let config = EngineConfig {
            admission: Some(AdmissionConfig { queries_per_epoch: 4, fair_share: true }),
            ..EngineConfig::default()
        };
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, config).expect("builds");
        let q = "UsedCarUR(make='honda', model='civic', year, price)";
        // Register both tenants, then let "greedy" try to drain the epoch.
        engine.query("greedy", q, QueryOptions::default()).expect("greedy 1");
        engine.query("quiet", q, QueryOptions::default()).expect("quiet 1");
        engine.reset_epoch();
        // floor = 4/2 = 2 each. Greedy is served after its first query,
        // releasing its own reservation, but quiet's floor holds.
        engine.query("greedy", q, QueryOptions::default()).expect("greedy within floor");
        engine.query("greedy", q, QueryOptions::default()).expect("greedy takes slack");
        let third = engine.query("greedy", q, QueryOptions::default());
        assert!(
            matches!(third, Err(EngineError::Deferred(BudgetDenial::FairShareDeferred))),
            "quiet tenant's floor must survive: {third:?}"
        );
        engine.query("quiet", q, QueryOptions::default()).expect("quiet's reserved floor");
    }

    #[test]
    fn isolated_queries_share_nothing_and_agree() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let iso = engine.query_isolated("x", JAGUAR, QueryOptions::default()).expect("isolated");
        assert_eq!(engine.stats().queries, 0, "isolated runs are not admitted queries");
        assert!(engine.store().is_empty(), "isolated run leaked into the shared store");
        assert!(engine.memo().is_empty(), "isolated run leaked into the shared memo");
        assert_eq!(engine.stats().logical_len, 0, "isolated run leaked into the logical memo");
        let shared = engine.query("x", JAGUAR, QueryOptions::default()).expect("shared");
        assert_eq!(iso.relation, shared.relation, "isolation changed the answer");
    }

    #[test]
    fn a_panicking_query_is_contained_and_charged_to_its_tenant() {
        let config = EngineConfig {
            admission: Some(AdmissionConfig { queries_per_epoch: 8, fair_share: true }),
            ..EngineConfig::default()
        };
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, config).expect("builds");
        let chaos = QueryOptions {
            cancel: Some(CancelToken::new().panic_after_polls(1)),
            ..QueryOptions::default()
        };
        let err = engine.query("crashy", JAGUAR, chaos);
        let Err(EngineError::Panicked(failure)) = err else {
            panic!("fused query must panic: {err:?}");
        };
        assert_eq!(failure.tenant, "crashy");
        assert_eq!(failure.query, JAGUAR);
        assert!(failure.message.contains("chaos"), "{failure:?}");
        let stats = engine.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.queries, 0, "a panicked query did not complete");
        assert_eq!(stats.result_aborted, 1, "the leadership was released by a panicking holder");
        assert_eq!(engine.inflight_queries(), 0, "no orphaned in-flight registration");
        // The admission slot was consumed by the failing tenant...
        let snap = engine.admission_snapshot().expect("admission configured");
        assert_eq!(snap.sites["crashy"].fetches, 1);
        // ...and the engine keeps serving everyone else correctly.
        let clean = engine.query("steady", JAGUAR, QueryOptions::default()).expect("serves on");
        let oracle = engine.query_isolated("o", JAGUAR, QueryOptions::default()).expect("oracle");
        assert_eq!(clean.relation, oracle.relation, "post-panic answer diverged");
    }

    #[test]
    fn drain_stops_admissions_but_not_the_oracle() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        assert_eq!(engine.lifecycle(), Lifecycle::Running);
        engine.drain();
        assert_eq!(engine.lifecycle(), Lifecycle::Draining);
        let err = engine.query("t", JAGUAR, QueryOptions::default());
        assert!(matches!(err, Err(EngineError::Draining)), "{err:?}");
        engine.query_isolated("o", JAGUAR, QueryOptions::default()).expect("oracle still runs");
        engine.shutdown();
        assert_eq!(engine.lifecycle(), Lifecycle::Stopped);
        assert!(engine.drain_wait(Duration::from_millis(50)), "nothing in flight");
    }

    #[test]
    fn poisoned_plan_cache_recovers_and_is_counted() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let before = webbase_obs::sync::poison_recoveries();
        let poisoner = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let _guard = engine.inner.plans.raw().write().expect("first writer");
                panic!("poison the plan cache");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(engine.inner.plans.raw().is_poisoned());
        let out = engine.query("t", JAGUAR, QueryOptions::default()).expect("recovers");
        assert!(!out.relation.is_empty());
        assert!(engine.stats().lock_poison_recovered > before);
    }

    #[test]
    fn poisoned_admission_lock_recovers_and_is_counted() {
        let config = EngineConfig {
            admission: Some(AdmissionConfig { queries_per_epoch: 4, fair_share: false }),
            ..EngineConfig::default()
        };
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, config).expect("builds");
        let before = webbase_obs::sync::poison_recoveries();
        let poisoner = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let admission = engine.inner.admission.as_ref().expect("configured");
                let _guard = admission.state.raw().lock().expect("first holder");
                panic!("poison the admission lock");
            })
        };
        assert!(poisoner.join().is_err());
        let q = "UsedCarUR(make='honda', model='civic', year, price)";
        engine.query("t", q, QueryOptions::default()).expect("admission recovered");
        assert!(engine.stats().lock_poison_recovered > before);
        assert_eq!(engine.stats().queries, 1);
    }

    #[test]
    fn warm_restart_replays_the_journal_fetch_free() {
        let path = std::env::temp_dir()
            .join(format!("webbase-engine-wal-{}-warm-restart", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
        let data = Dataset::generate(5, 400);
        let first = Engine::build_on(standard_web(data.clone(), LatencyModel::lan()), data, config)
            .expect("builds");
        let original = first.query("t", JAGUAR, QueryOptions::default()).expect("journalled run");
        assert!(first.stats().journal_recovered_pages == 0, "cold start recovered nothing");
        drop(first);

        // "Restart": a fresh engine over the same journal rebuilds the
        // page store and result cache without touching the network.
        let config = EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
        let data = Dataset::generate(5, 400);
        let second =
            Engine::build_on(standard_web(data.clone(), LatencyModel::lan()), data, config)
                .expect("rebuilds");
        let stats = second.stats();
        assert!(stats.journal_recovered_pages > 0, "pages replayed: {stats:?}");
        assert_eq!(stats.journal_recovered_results, 1, "settled result replayed: {stats:?}");
        assert_eq!(stats.journal_torn, 0, "clean journal: {stats:?}");
        let requests_before = second.web().total_stats().requests;
        let replay = second.query("t", JAGUAR, QueryOptions::default()).expect("replayed run");
        assert_eq!(replay.relation, original.relation, "restart changed the answer");
        assert_eq!(
            second.web().total_stats().requests,
            requests_before,
            "warm restart still fetched"
        );
        assert_eq!(second.stats().result_hits, 1, "served from the recovered result cache");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_charges_nothing() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let before = engine.web().total_stats().requests;
        let plan = engine.explain(JAGUAR).expect("plans");
        assert!(!plan.objects.is_empty());
        assert_eq!(engine.web().total_stats().requests, before);
        assert_eq!(engine.stats().queries, 0, "explain is not an admitted query");
    }

    // ── freshness: drift invalidation and the refresh ladder ──────────

    use webbase_webworld::faults::{MutatingSite, Mutation, MutationClock};
    use webbase_webworld::server::Site;

    const FORD: &str = "UsedCarUR(make='ford', price)";
    const NYTIMES: &str = "www.nytimes.com";
    const KELLYS: &str = "www.kbb.com";
    const NEWSDAY: &str = "www.newsday.com";

    /// An engine whose `host` site carries a mutation schedule switched
    /// on by the returned clock (generation 0 during the build, so maps
    /// record cleanly).
    fn mutating_engine(host: &str, schedule: Vec<Mutation>) -> (Engine, MutationClock) {
        let data = Dataset::generate(5, 400);
        let slot = std::sync::Mutex::new(None);
        let web = standard_web_faulty(data.clone(), LatencyModel::lan(), |h, s| {
            if h == host {
                let (site, clock) = MutatingSite::new(s, schedule.clone());
                *slot.lock().expect("clock slot") = Some(clock);
                Box::new(site) as Box<dyn Site>
            } else {
                s
            }
        });
        let engine = Engine::build_on(web, data, EngineConfig::default()).expect("builds");
        let clock = slot.lock().expect("clock slot").take().expect("host wrapped");
        (engine, clock)
    }

    fn oracle(engine: &Engine, text: &str) -> Relation {
        engine.query_isolated("oracle", text, QueryOptions::default()).expect("oracle").relation
    }

    #[test]
    fn page_drift_refreshes_incrementally_and_fetches_only_the_drifted_site() {
        // Prices on the NYTimes classifieds drift; the ford query's
        // Dealers object is untouched, so the refresh ladder's first
        // rung applies: only the Classifieds object re-evaluates, and
        // the only wire traffic is the sweep's revalidation of the
        // drifted host itself.
        let (engine, clock) = mutating_engine(NYTIMES, vec![Mutation::new("$", "$1")]);
        let before_drift = engine.query("t", FORD, QueryOptions::default()).expect("runs").relation;
        clock.advance();

        let traffic_before = engine.web().stats();
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        let traffic_after = engine.web().stats();

        assert!(report.sweep.changed > 0, "the price rewrite must be detected: {report:?}");
        assert_eq!(report.delta_refreshed, 1, "one view, delta-refreshed: {report:?}");
        let stats = engine.stats();
        assert_eq!(stats.view_invalidated, 1, "{stats:?}");
        assert_eq!(stats.delta_refresh, 1, "{stats:?}");
        assert_eq!(stats.stale_served, 0, "{stats:?}");

        // Counter-verified selectivity: undrifted hosts saw zero new
        // requests; the drifted host saw exactly the revalidation.
        for (host, after) in &traffic_after {
            let before = traffic_before.get(host).map_or(0, |s| s.requests);
            if host == NYTIMES {
                assert_eq!(
                    after.requests,
                    before + report.sweep.checked as u64,
                    "drifted host: sweep revalidation only"
                );
            } else {
                assert_eq!(after.requests, before, "undrifted host {host} was fetched");
            }
        }

        // The refreshed cache equals a cold isolated re-run, and keeps
        // serving hits without further traffic.
        let expected = oracle(&engine, FORD);
        assert_ne!(before_drift, expected, "the mutation must be answer-visible");
        let wire = engine.web().total_stats().requests;
        let served = engine.query("t2", FORD, QueryOptions::default()).expect("runs").relation;
        assert_eq!(served, expected, "maintained view diverged from a cold re-run");
        assert_eq!(engine.web().total_stats().requests, wire, "a refreshed view re-fetched");
        assert_eq!(engine.stats().stale_served, 0);
    }

    #[test]
    fn a_refresh_rebuilds_views_from_their_cached_compiled_plans() {
        // FORD refreshes by rung 1 (some objects), JAGUAR by rung 2 (the
        // whole plan); either way the view is rebuilt from the plan
        // cache's entry and the compiled objects its first run derived.
        let (engine, clock) = mutating_engine(NYTIMES, vec![Mutation::new("$", "$1")]);
        let texts = [FORD, JAGUAR];
        let compiled = |text: &str| {
            let entry = engine.inner.plans.read().get(text).cloned().expect("planned");
            let objects: Vec<Arc<CompiledExpr>> = entry
                .1
                .objects
                .iter()
                .map(|o| o.compiled().expect("an executed object is compiled").clone())
                .collect();
            (entry, objects)
        };
        for text in texts {
            engine.query("t", text, QueryOptions::default()).expect("runs");
        }
        let before: Vec<_> = texts.iter().map(|t| compiled(t)).collect();
        clock.advance();
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        assert_eq!(report.delta_refreshed + report.cold_refreshed, 2, "{report:?}");
        for (text, (entry, objects)) in texts.iter().zip(before) {
            let (now, now_objects) = compiled(text);
            assert!(Arc::ptr_eq(&entry, &now), "{text}: the refresh replaced the plan");
            for (was, is) in objects.iter().zip(&now_objects) {
                assert!(Arc::ptr_eq(was, is), "{text}: the refresh compiled an object again");
            }
            let served = engine.query("t", text, QueryOptions::default()).expect("runs").relation;
            assert_eq!(served, oracle(&engine, text), "{text}: refreshed view diverged");
        }
        assert_eq!(engine.stats().stale_served, 0);
    }

    /// The tracked views whose deps, resolved back to requests, meet
    /// `drifted` — what the id ledger's victim scan must reproduce.
    fn views_reading(engine: &Engine, drifted: impl Fn(&Request) -> bool) -> BTreeSet<String> {
        let texts: Vec<String> = engine.inner.freshness.lock().views.keys().cloned().collect();
        texts
            .into_iter()
            .filter(|text| view_provenance(engine, text).0.iter().any(&drifted))
            .collect()
    }

    fn drifted_views(engine: &Engine) -> BTreeSet<String> {
        engine.freshness().drifted.into_iter().collect()
    }

    #[test]
    fn drift_invalidates_exactly_the_dependent_views() {
        // Blue-book prices drift: the jaguar view (reads Kelly's) must
        // evict; the ford view (classifieds + dealers only) must keep
        // serving untouched.
        let (engine, clock) =
            mutating_engine(KELLYS, vec![Mutation::new("$", "$1").on_path("/cgi-bin/bb")]);
        engine.query("t", JAGUAR, QueryOptions::default()).expect("jaguar");
        engine.query("t", FORD, QueryOptions::default()).expect("ford");
        clock.advance();

        // Page-scoped differential: the views the sweep's events evict
        // are exactly those whose deps, as requests, include a changed
        // page.
        let changed = Arc::new(SafeMutex::new(Vec::new()));
        let seen = changed.clone();
        engine.drift_bus().subscribe(move |e| seen.lock().extend(e.requests.iter().cloned()));
        let before: Vec<(String, HashSet<Request>)> = [JAGUAR, FORD]
            .iter()
            .map(|text| (text.to_string(), view_provenance(&engine, text).0))
            .collect();
        let swept = sweep(
            engine.web(),
            engine.store(),
            engine.drift_bus(),
            Some(KELLYS),
            DriftOrigin::Maintenance,
            None,
            None,
        );
        assert!(swept.changed > 0, "{swept:?}");
        let changed = changed.lock().clone();
        let expected: BTreeSet<String> = before
            .into_iter()
            .filter(|(_, deps)| changed.iter().any(|r| deps.contains(r)))
            .map(|(text, _)| text)
            .collect();
        assert_eq!(drifted_views(&engine), expected);
        assert_eq!(expected, BTreeSet::from([JAGUAR.to_string()]));

        let report = engine.refresh(Some(KELLYS), DriftOrigin::Maintenance, None, None);
        assert_eq!(report.sweep.changed, 0, "the sweep above already re-interned: {report:?}");
        let stats = engine.stats();
        assert_eq!(stats.view_invalidated, 1, "only the jaguar view depends on Kelly's: {stats:?}");
        // Every jaguar object carries a BlueBookPrice alternative, so
        // the whole plan is affected — no strict subset, rung 2.
        assert_eq!(stats.delta_refresh, 0, "{stats:?}");
        assert!(stats.cold_refresh >= 1, "{stats:?}");

        // The untouched ford view still serves from cache...
        let wire = engine.web().total_stats().requests;
        engine.query("t2", FORD, QueryOptions::default()).expect("ford again");
        assert_eq!(engine.web().total_stats().requests, wire, "the stable view re-fetched");
        // ...and the refreshed jaguar view equals a cold re-run.
        let served = engine.query("t2", JAGUAR, QueryOptions::default()).expect("runs").relation;
        assert_eq!(served, oracle(&engine, JAGUAR), "refreshed view diverged");
        assert_eq!(engine.stats().stale_served, 0);

        // Host-scoped differential: a quarantine of Kelly's evicts
        // exactly the views with a Kelly's page among their deps.
        assert!(drifted_views(&engine).is_empty());
        let expected = views_reading(&engine, |r| r.url.host == KELLYS);
        assert_eq!(expected, BTreeSet::from([JAGUAR.to_string()]));
        engine.drift_bus().publish(DriftEvent {
            host: KELLYS.to_string(),
            kind: DriftKind::Quarantined,
            origin: DriftOrigin::Manual,
            requests: Vec::new(),
            node: None,
        });
        assert_eq!(drifted_views(&engine), expected);
    }

    #[test]
    fn page_ids_survive_drift_refetches_and_warm_restarts() {
        // A drift re-fetch replaces a page under the id it had.
        let (engine, clock) = mutating_engine(NYTIMES, vec![Mutation::new("$", "$1")]);
        engine.query("t", FORD, QueryOptions::default()).expect("ford");
        let pages = engine.store().requests(Some(NYTIMES));
        let ids: Vec<Option<PageId>> = pages.iter().map(|r| engine.store().id(r)).collect();
        clock.advance();
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        assert!(report.sweep.changed > 0, "{report:?}");
        assert_eq!(pages.iter().map(|r| engine.store().id(r)).collect::<Vec<_>>(), ids);
        assert!(view_provenance(&engine, FORD).0.iter().any(|r| r.url.host == NYTIMES));

        // After a warm restart the recovered view's deps are the ids of
        // the replayed pages, and resolve to the requests it read.
        let path = std::env::temp_dir()
            .join(format!("webbase-engine-wal-{}-page-ids", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journaled = || {
            let config = EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
            let data = Dataset::generate(5, 400);
            Engine::build_on(standard_web(data.clone(), LatencyModel::lan()), data, config)
                .expect("builds")
        };
        let first = journaled();
        first.query("t", JAGUAR, QueryOptions::default()).expect("journalled run");
        let read = view_provenance(&first, JAGUAR).0;
        drop(first);
        let second = journaled();
        assert_eq!(second.stats().journal_torn, 0);
        assert_eq!(view_provenance(&second, JAGUAR).0, read, "restart changed the view's deps");
        let deps = second.inner.freshness.lock().views[JAGUAR].deps.clone();
        for id in deps.iter() {
            let req = second.store().request(*id).expect("numbered");
            assert_eq!(second.store().id(&req), Some(*id));
            assert!(second.store().get(&req).is_some(), "dep {req:?} is not a replayed page");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_evicts_dependent_cached_answers() {
        // Regression: a Quarantined event (ManualIntervention drift)
        // used to leave cached answers depending on the host serveable.
        // Publishing the event must evict them before `publish` returns.
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        engine.query("t", FORD, QueryOptions::default()).expect("ford");
        assert_eq!(engine.stats().result_misses, 1);
        let logical_before = engine.stats().logical_len;

        engine.drift_bus().publish(DriftEvent {
            host: NEWSDAY.to_string(),
            kind: DriftKind::Quarantined,
            origin: DriftOrigin::Manual,
            requests: Vec::new(),
            node: None,
        });
        let stats = engine.stats();
        assert_eq!(stats.view_invalidated, 1, "the ford view reads newsday: {stats:?}");
        // Logical answers built on a newsday invocation went with it;
        // the ones that never read newsday stay.
        assert!(
            0 < stats.logical_len && stats.logical_len < logical_before,
            "{logical_before} logical entries before the quarantine: {stats:?}"
        );

        // The next identical query must recompute (miss), not serve the
        // quarantined answer — and its re-publish self-heals the view.
        engine.query("t2", FORD, QueryOptions::default()).expect("recompute");
        assert_eq!(engine.stats().result_misses, 2, "quarantined answer was served");
        let wire = engine.web().total_stats().requests;
        engine.query("t3", FORD, QueryOptions::default()).expect("republished");
        assert_eq!(engine.web().total_stats().requests, wire);
        let stats = engine.stats();
        assert!(stats.result_hits >= 1, "re-published view must serve again: {stats:?}");
        assert_eq!(stats.stale_served, 0, "{stats:?}");
    }

    #[test]
    fn structural_drift_quarantines_during_refresh_and_answers_match_cold_runs() {
        // Newsday renames its mandatory `make` field — manual-
        // intervention drift. The refresh detects the changed form
        // page, the rebuild quarantines the node, and whatever the
        // engine serves afterwards equals a cold isolated re-run (both
        // lose the newsday branch; neither serves the stale answer).
        let (engine, clock) = mutating_engine(
            NEWSDAY,
            vec![Mutation::new("name=make>", "name=mk2>").on_path("/auto/used")],
        );
        let healthy = engine.query("t", FORD, QueryOptions::default()).expect("runs").relation;
        clock.advance();

        engine.refresh(Some(NEWSDAY), DriftOrigin::Maintenance, None, None);
        let expected = oracle(&engine, FORD);
        assert!(expected.len() < healthy.len(), "the newsday branch must be lost, not faked");
        let served = engine.query("t2", FORD, QueryOptions::default()).expect("runs").relation;
        assert_eq!(served, expected, "post-quarantine answer diverged from a cold re-run");
        assert_eq!(engine.stats().stale_served, 0);
    }

    #[test]
    fn refresh_without_drift_is_a_no_op() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        engine.query("t", FORD, QueryOptions::default()).expect("runs");
        let report = engine.refresh(None, DriftOrigin::Manual, None, None);
        assert_eq!(report.sweep.changed, 0, "{report:?}");
        assert_eq!(report.delta_refreshed + report.cold_refreshed + report.evicted, 0);
        let stats = engine.stats();
        assert_eq!(stats.view_invalidated, 0, "{stats:?}");
        let f = engine.freshness();
        assert_eq!(f.tracked_views, 1);
        assert!(f.drifted.is_empty(), "{f:?}");
    }

    #[test]
    fn the_stale_served_tripwire_refuses_a_view_whose_deps_drifted_unevicted() {
        // Positive control: stamp one of a published view's deps at a
        // bumped epoch *without* evicting it, as a broken eviction
        // would. The next hit must be refused and counted.
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let published = engine.query("t", FORD, QueryOptions::default()).expect("ford").relation;
        {
            let mut ledger = engine.inner.freshness.lock();
            ledger.epoch += 1;
            let epoch = ledger.epoch;
            let dep = ledger.views[FORD].deps[0];
            ledger.stamp(dep, epoch);
        }

        // A view published at the current epoch still serves from cache.
        engine.query("t", JAGUAR, QueryOptions::default()).expect("jaguar");
        let (hits, wire) = (engine.stats().result_hits, engine.web().total_stats().requests);
        engine.query("t", JAGUAR, QueryOptions::default()).expect("jaguar again");
        assert_eq!(engine.stats().result_hits, hits + 1, "the current view was not served");
        assert_eq!(engine.web().total_stats().requests, wire, "a cache hit fetched");
        assert_eq!(engine.stats().stale_served, 0);

        let served = engine.query("t2", FORD, QueryOptions::default()).expect("ford").relation;
        assert_eq!(served, oracle(&engine, FORD), "the refused hit must recompute");
        assert_eq!(served, published, "nothing really drifted");
        assert_eq!(engine.stats().stale_served, 1, "the tripwire must fire exactly once");
    }

    /// Queries whose answers read the NYTimes classifieds.
    const CLASSIFIEDS_VIEWS: [&str; 4] =
        [FORD, JAGUAR, "UsedCarUR(make='toyota', price)", "UsedCarUR(make='bmw', price)"];

    /// An engine with every [`CLASSIFIEDS_VIEWS`] answer cached, and its
    /// NYTimes prices drifted (not yet swept).
    fn drifted_classifieds() -> Engine {
        let (engine, clock) = mutating_engine(NYTIMES, vec![Mutation::new("$", "$1")]);
        for text in CLASSIFIEDS_VIEWS {
            engine.query("t", text, QueryOptions::default()).expect("primes");
        }
        clock.advance();
        engine
    }

    #[test]
    fn a_cancelled_refresh_leaves_every_drifted_view_evicted_never_stale() {
        let engine = drifted_classifieds();
        sweep(
            engine.web(),
            engine.store(),
            engine.drift_bus(),
            Some(NYTIMES),
            DriftOrigin::Sweep,
            None,
            None,
        );
        let drifted = engine.freshness().drifted.len();
        assert!(drifted >= 2, "several views must depend on the drifted prices: {drifted}");

        let token = CancelToken::new();
        token.cancel();
        let rebuilds = engine.stats().delta_refresh + engine.stats().cold_refresh;
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Manual, None, Some(&token));
        assert!(report.sweep.cancelled, "{report:?}");
        assert_eq!(report.evicted, drifted, "{report:?}");
        assert_eq!(report.delta_refreshed + report.cold_refreshed, 0, "{report:?}");
        let stats = engine.stats();
        assert_eq!(stats.delta_refresh + stats.cold_refresh, rebuilds, "no view was rebuilt");
        assert_eq!(engine.freshness().drifted.len(), drifted, "unbuilt views stay drifted");

        for text in CLASSIFIEDS_VIEWS {
            let served = engine.query("t2", text, QueryOptions::default()).expect("runs").relation;
            assert_eq!(served, oracle(&engine, text), "{text}: recomputed answer diverged");
        }
        assert_eq!(engine.stats().stale_served, 0);
    }

    #[test]
    fn a_cancel_during_the_rebuild_reaches_its_sessions_and_leaves_views_evicted() {
        let engine = drifted_classifieds();
        // The fuse lets the sweep poll once per interned page and fires
        // at the rebuild's first checkpoint: every re-run invocation
        // reads a page, so no rebuild can finish clean.
        let pages = engine.store().requests(Some(NYTIMES)).len() as u64;
        let token = CancelToken::new().cancel_after_polls(pages + 1);
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Manual, None, Some(&token));
        assert!(!report.sweep.cancelled && report.sweep.changed > 0, "{report:?}");
        let drifted = engine.stats().view_invalidated as usize;
        assert!(drifted >= 2, "several views must depend on the drifted prices: {drifted}");
        assert_eq!(report.evicted, drifted, "{report:?}");
        assert_eq!(report.delta_refreshed + report.cold_refreshed, 0, "{report:?}");
        for text in CLASSIFIEDS_VIEWS {
            let served = engine.query("t2", text, QueryOptions::default()).expect("runs").relation;
            assert_eq!(served, oracle(&engine, text), "{text}: recomputed answer diverged");
        }
        assert_eq!(engine.stats().stale_served, 0);
    }

    #[test]
    fn invalidations_survive_a_warm_restart() {
        // Crash between a drift invalidation and the re-publish: the
        // journalled invalidation must keep the stale result from
        // resurrecting on restart.
        let path = std::env::temp_dir()
            .join(format!("webbase-engine-wal-{}-drift-invalidate", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let data = Dataset::generate(5, 400);
        let slot = std::sync::Mutex::new(None);
        let schedule = vec![Mutation::new("$", "$1")];
        let web = standard_web_faulty(data.clone(), LatencyModel::lan(), |h, s| {
            if h == NYTIMES {
                let (site, clock) = MutatingSite::new(s, schedule.clone());
                *slot.lock().expect("slot") = Some(clock);
                Box::new(site) as Box<dyn Site>
            } else {
                s
            }
        });
        let config = EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
        let first = Engine::build_on(web, data, config).expect("builds");
        let clock = slot.lock().expect("slot").take().expect("wrapped");
        first.query("t", FORD, QueryOptions::default()).expect("journalled run");
        clock.advance();
        // Sweep (which invalidates and journals the invalidation) but
        // do NOT let the refresh ladder re-publish: crash right after.
        sweep(
            first.web(),
            first.store(),
            first.drift_bus(),
            Some(NYTIMES),
            DriftOrigin::Sweep,
            None,
            None,
        );
        assert_eq!(first.stats().view_invalidated, 1);
        drop(first);

        // The restarted engine must not recover the invalidated result.
        let data = Dataset::generate(5, 400);
        let config = EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
        let second =
            Engine::build_on(standard_web(data.clone(), LatencyModel::lan()), data, config)
                .expect("rebuilds");
        let stats = second.stats();
        assert_eq!(stats.journal_recovered_results, 0, "stale result resurrected: {stats:?}");
        let _ = std::fs::remove_file(&path);
    }

    // ── the logical memo ───────────────────────────────────────────────

    /// Texts that make every logical invocation [`JAGUAR`] makes: they
    /// differ from it only in UR-level predicates (a lower year floor,
    /// another price bound).
    const JAGUAR_WARMERS: [&str; 2] = [
        "UsedCarUR(make='jaguar', model, year >= 1990, price, bbprice, safety='good', \
         condition='good') WHERE price < bbprice",
        "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, safety='good', \
         condition='good') WHERE price < 90000",
    ];

    /// A published view's page deps (resolved back to requests) and
    /// VPS invocation keys, as sets.
    fn view_provenance(engine: &Engine, text: &str) -> (HashSet<Request>, HashSet<MemoKey>) {
        let ledger = engine.inner.freshness.lock();
        let view = &ledger.views[text];
        let keys = view.invocations.iter().map(|(key, _)| MemoKey::clone(key)).collect();
        let deps = view.deps.iter().map(|&id| engine.store().request(id).expect("numbered"));
        (deps.collect(), keys)
    }

    #[test]
    fn a_query_answered_from_logical_hits_leaves_a_cold_runs_provenance() {
        let cold = Engine::build_demo(5, 400, LatencyModel::lan());
        let expected = cold.query("t", JAGUAR, QueryOptions::default()).expect("cold").relation;

        let warm = Engine::build_demo(5, 400, LatencyModel::lan());
        for text in JAGUAR_WARMERS {
            warm.query("t", text, QueryOptions::default()).expect("warms");
        }
        let before = warm.stats();
        let out = warm.query("t", JAGUAR, QueryOptions::default()).expect("warm");
        let after = warm.stats();
        assert_eq!(after.logical_misses, before.logical_misses, "a logical invocation was cold");
        assert!(after.logical_hits > before.logical_hits, "{after:?}");
        assert_eq!(
            (after.memo_hits, after.memo_misses),
            (before.memo_hits, before.memo_misses),
            "an all-hit query ran a VPS invocation"
        );
        // The per-query counters still show the work it skipped.
        assert_eq!(out.metrics.get(Metric::HandleInvocations), 0);
        assert!(out.metrics.get(Metric::LogicalHits) > 0, "{:?}", out.metrics);

        assert_eq!(out.relation, expected, "logical hits changed the answer");
        assert_eq!(
            view_provenance(&warm, JAGUAR),
            view_provenance(&cold, JAGUAR),
            "logical hits changed the view's deps or invocations"
        );
        assert_eq!(warm.stats().readset_escape, 0);
    }

    #[test]
    fn budgeted_and_cancelled_runs_leave_no_logical_entry() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        engine
            .query("b", JAGUAR, QueryOptions::budgeted(QueryBudget::unlimited()))
            .expect("budgeted run");
        let stats = engine.stats();
        assert_eq!(
            (stats.logical_hits, stats.logical_misses, stats.logical_len),
            (0, 0, 0),
            "a budgeted run touched the logical memo: {stats:?}"
        );

        let cancel = CancelToken::new();
        cancel.cancel();
        let cancelled = QueryOptions { cancel: Some(cancel), ..QueryOptions::default() };
        engine.query("c", JAGUAR, cancelled).expect("a cancelled query still returns");
        let stats = engine.stats();
        assert!(stats.logical_misses > 0, "the cancelled run consulted the level: {stats:?}");
        assert_eq!(stats.logical_len, 0, "a cancelled run settled a logical answer: {stats:?}");

        engine.query("t", JAGUAR, QueryOptions::default()).expect("clean run");
        assert!(engine.stats().logical_len > 0, "a clean run settles its logical answers");
    }

    // ── plan-scoped sessions and the build-once planning index ────────

    fn generated_engine(sites: usize) -> (Engine, webbase_webworld::generate::GenCorpus) {
        let gen = webbase_webworld::generate::GenCorpus::generate(11, sites);
        let corpus = crate::Corpus::generated(&gen);
        let engine =
            Engine::build_corpus(gen.web(LatencyModel::zero()), corpus, EngineConfig::default())
                .expect("the generated corpus builds");
        (engine, gen)
    }

    #[test]
    fn a_cold_query_builds_navigators_only_for_its_plans_hosts() {
        let (engine, gen) = generated_engine(50);
        for spec in gen.specs.iter().step_by(7) {
            let (plan, semantics) =
                engine.explain_semantics(&spec.exemplar_query()).expect("plans");
            let hosts = semantics.expect("loaded maps carry semantics").hosts();
            assert_eq!(hosts.len(), 1, "{}: one site covers its exemplar", spec.host);
            // The session a cold query runs on: nothing built until the
            // plan invokes a relation, then exactly the plan's hosts.
            let (mut layer, _) = engine.session(false);
            assert!(layer.vps.built_hosts().is_empty(), "a session starts with no navigator");
            engine.inner.planner.execute_planned(&plan.query, &plan, &mut layer).expect("runs");
            let built: BTreeSet<&str> = layer.vps.built_hosts().into_iter().collect();
            assert_eq!(built, hosts.iter().map(String::as_str).collect(), "{}", spec.host);
        }
    }

    /// The engine's indexed planning (build-once index over the shape)
    /// against `UrPlanner::plan`, which builds its index per call, on a
    /// single-owner session, for every text.
    fn assert_plans_agree(engine: &Engine, texts: &[String]) {
        let (layer, _) = engine.session(true);
        let planner = engine.planner();
        for text in texts {
            let q = parse_query(text).expect("parses");
            let expected = planner.plan(&q, &layer);
            let expected = expected.map(|p| p.render()).map_err(|e| format!("{e:?}"));
            let got = match engine.explain(text) {
                Ok(plan) => Ok(plan.render()),
                Err(EngineError::Plan(e)) => Err(format!("{e:?}")),
                Err(other) => panic!("{text}: {other}"),
            };
            assert_eq!(got, expected, "{text}");
        }
        assert_eq!(engine.ur_attributes(), planner.ur_attributes(&layer));
    }

    #[test]
    fn indexed_planning_matches_the_single_owner_planner_on_the_paper_corpus() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let texts = [
            JAGUAR,
            "UsedCarUR(make='jaguar', model, year >= 1994, price, bbprice, rate, zip='10001', \
             duration=36, condition='good', payment := price * (1 + rate / 100 * duration / 12) \
             / duration) WHERE payment < 1000 AND price < bbprice",
            "UsedCarUR(make='honda', model='civic', year >= 1992, price)",
            FORD,
            "UsedCarUR(make='ford', price, rate, cost, zip='10001', duration=36)",
            // UnknownAttribute, then InsufficientBindings.
            "UsedCarUR(warp_drive)",
            "UsedCarUR(make='ford', bbprice)",
        ];
        assert_plans_agree(&engine, &texts.map(String::from));
    }

    #[test]
    fn indexed_planning_matches_the_single_owner_planner_on_a_generated_corpus() {
        let (engine, gen) = generated_engine(50);
        let mut texts: Vec<String> =
            gen.specs.iter().map(webbase_webworld::generate::SiteSpec::exemplar_query).collect();
        // Two sites' attributes together: no compatible set covers them.
        let (a, b) = (&gen.specs[0], &gen.specs[1]);
        texts.push(format!("GenUR({}, {})", a.attr("item"), b.attr("item")));
        assert_plans_agree(&engine, &texts);
        let not_coverable = engine.explain(texts.last().expect("pushed"));
        assert!(matches!(not_coverable, Err(EngineError::Plan(UrError::NotCoverable(_)))));
    }
}
