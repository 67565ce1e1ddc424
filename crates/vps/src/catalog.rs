//! The VPS catalog: every mapped site's relations behind one
//! `RelationProvider`.
//!
//! The catalog has two parts. A [`CatalogShape`] holds what no query
//! changes: each relation's owning site, schema and handles, every
//! site's compiled program and semantic analysis, and registration
//! order. A [`VpsCatalog`] is one query's view over a shared shape. It
//! owns that query's navigator sessions, statistics, budget and trace
//! handle, and builds a site's navigator only when the query first
//! invokes one of the site's relations, so a query pays for the sites
//! its plan touches rather than for the whole corpus.

use crate::handle::{derive_handles, Handle};
use crate::memo::{AnswerMemo, Invocation, MemoClaim, MemoKey, Provenance};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webbase_navigation::budget::{BudgetTracker, JournalEntry, NavPosition, ResumeToken};
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::map::NavigationMap;
use webbase_navigation::pool::HostPools;
use webbase_navigation::store::{PageId, PageStore, ReadSet};
use webbase_navigation::{
    compile_map, CancelToken, CompileError, CompiledSite, DegradationReport, FetchPolicy,
    RepairReport,
};
use webbase_obs::{Metric, Obs, SpanHandle, SpanKind, QUERY_TRACK};
use webbase_relational::binding::{Binding, BindingSet};
use webbase_relational::eval::{AccessSpec, EvalError, RelationProvider};
use webbase_relational::{Attr, Relation, Schema, Tuple, Value};
use webbase_webworld::prelude::*;

/// Per-invocation accounting for the §7 timing table.
#[derive(Debug, Clone, Default)]
pub struct VpsStats {
    /// Invocations per relation.
    pub invocations: HashMap<String, u32>,
    /// Pages fetched per relation (network, not cache).
    pub pages: HashMap<String, u32>,
    /// Retries spent recovering from transient fetch failures, per
    /// relation.
    pub retries: HashMap<String, u32>,
    /// Simulated network time per relation (includes retry backoff and
    /// timeout waits).
    pub network: HashMap<String, Duration>,
    /// Interpreter CPU time per relation.
    pub cpu: HashMap<String, Duration>,
}

impl VpsStats {
    pub fn total_pages(&self) -> u32 {
        self.pages.values().sum()
    }

    pub fn total_retries(&self) -> u32 {
        self.retries.values().sum()
    }

    pub fn total_network(&self) -> Duration {
        self.network.values().sum()
    }

    pub fn total_cpu(&self) -> Duration {
        self.cpu.values().sum()
    }
}

/// One mapped site: the map, its compiled program, and the Web it runs
/// against.
struct ShapeSite {
    web: SyntheticWeb,
    map: NavigationMap,
    compiled: Arc<CompiledSite>,
}

/// One VPS relation: its owning site (an index into
/// `CatalogShape::sites`), schema and handles.
struct ShapeRelation {
    site: usize,
    schema: Schema,
    handles: Vec<Handle>,
    /// The handles' mandatory sets as a §5 binding set, derived on
    /// first use.
    bindings: OnceLock<BindingSet>,
}

/// The query-independent part of a VPS catalog (Table 1): built once
/// per corpus, shared behind an `Arc` by every query's [`VpsCatalog`].
pub struct CatalogShape {
    sites: Vec<ShapeSite>,
    /// Keyed by the relation's name, which memo keys share.
    relations: HashMap<Arc<str>, ShapeRelation>,
    /// Registration order, for stable Table 1 output.
    order: Vec<String>,
    /// The pre-flight static analysis of every loaded map, accumulated
    /// at [`CatalogShape::add_map`] time — quarantine/healing reports
    /// can cite the load-time diagnostic alongside the runtime repair.
    preflight: webbase_webcheck::Report,
    /// Per-site semantic analysis (fetch-cost intervals and static
    /// read-sets), keyed by host. Every map-ingestion path stores one —
    /// a loaded map without semantics cannot exist.
    semantics: HashMap<String, Arc<webbase_webcheck::SiteSemantics>>,
    /// Retry/backoff/circuit policy of every navigator built over it.
    policy: FetchPolicy,
}

impl CatalogShape {
    pub fn new(policy: FetchPolicy) -> CatalogShape {
        CatalogShape {
            sites: Vec::new(),
            relations: HashMap::new(),
            order: Vec::new(),
            preflight: webbase_webcheck::Report::new(),
            semantics: HashMap::new(),
            policy,
        }
    }

    /// Add every relation of a recorded map, compiling it for `web`.
    /// Returns the site's index.
    ///
    /// The map goes through the full static analysis
    /// ([`webbase_webcheck::analyze_full`]: map lint, program safety,
    /// and semantic abstract interpretation); the findings accumulate
    /// in [`CatalogShape::preflight`] and the derived semantics are kept
    /// per site. Loading itself is not refused here — the engine's
    /// shipped-maps build, which must reject E-level maps, checks them
    /// before calling in — except for a map that does not compile,
    /// which returns its error and leaves the shape unchanged.
    pub fn add_map(
        &mut self,
        web: SyntheticWeb,
        map: NavigationMap,
    ) -> Result<usize, CompileError> {
        let compiled = Arc::new(compile_map(&map)?);
        let (report, semantics) = webbase_webcheck::analyze_full(&map);
        self.preflight.merge(report);
        self.semantics.insert(map.site.clone(), Arc::new(semantics));
        let handles = derive_handles(&map);
        let site = self.sites.len();
        for rel in &compiled.relations {
            let schema = Schema::new(rel.attrs.iter().map(String::as_str));
            let rel_handles: Vec<Handle> =
                handles.iter().filter(|h| h.relation == rel.name).cloned().collect();
            assert!(
                !rel_handles.is_empty(),
                "relation {} has no handle — was its data node registered?",
                rel.name
            );
            let prev = self.relations.insert(
                rel.name.as_str().into(),
                ShapeRelation { site, schema, handles: rel_handles, bindings: OnceLock::new() },
            );
            assert!(prev.is_none(), "duplicate VPS relation {}", rel.name);
            self.order.push(rel.name.clone());
        }
        self.sites.push(ShapeSite { web, map, compiled });
        Ok(site)
    }

    /// The accumulated pre-flight diagnostics of every map loaded so
    /// far.
    pub fn preflight(&self) -> &webbase_webcheck::Report {
        &self.preflight
    }

    /// Pre-flight findings for one site, for citation next to that
    /// site's quarantine/healing entries.
    pub fn preflight_for(&self, site: &str) -> Vec<&webbase_webcheck::Diagnostic> {
        self.preflight.for_site(site)
    }

    /// The semantic analysis of one loaded site (fetch-cost intervals
    /// and static read-sets), by host.
    pub fn semantics_for(&self, host: &str) -> Option<&Arc<webbase_webcheck::SiteSemantics>> {
        self.semantics.get(host)
    }

    /// The host of the site owning `relation`.
    pub fn relation_host(&self, relation: &str) -> Option<&str> {
        let r = self.relations.get(relation)?;
        Some(&self.sites[r.site].map.site)
    }

    /// The whole-site semantics of the site owning `relation` (the
    /// host lives on the [`webbase_webcheck::SiteSemantics`]).
    pub fn relation_site(&self, relation: &str) -> Option<&Arc<webbase_webcheck::SiteSemantics>> {
        self.semantics.get(self.relation_host(relation)?)
    }

    /// The semantic analysis of the site owning `relation`.
    pub fn relation_semantics(
        &self,
        relation: &str,
    ) -> Option<&webbase_webcheck::semantic::RelationSemantics> {
        self.relation_site(relation)?.relation(relation)
    }

    /// Every loaded map, in registration order.
    pub fn maps(&self) -> impl ExactSizeIterator<Item = &NavigationMap> {
        self.sites.iter().map(|s| &s.map)
    }

    /// Relation names in registration order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    pub fn handles(&self, relation: &str) -> &[Handle] {
        self.relations.get(relation).map(|r| r.handles.as_slice()).unwrap_or(&[])
    }

    /// The Table 1 rendering: relation name, site, schema.
    pub fn render_table1(&self) -> String {
        let mut out = String::from("VPS-level relations\n");
        for name in &self.order {
            let r = &self.relations[name.as_str()];
            out.push_str(&format!(
                "  {name}{}   [site: {}]\n",
                r.schema, self.sites[r.site].map.site
            ));
        }
        out
    }

    /// The Table 3 rendering: mandatory and optional attribute sets.
    pub fn render_table3(&self) -> String {
        let fmt_set = |s: &std::collections::BTreeSet<String>| {
            if s.is_empty() {
                "∅".to_string()
            } else {
                s.iter().cloned().collect::<Vec<_>>().join(", ")
            }
        };
        let mut out = String::from("VPS handles: mandatory | optional\n");
        for name in &self.order {
            for h in &self.relations[name.as_str()].handles {
                out.push_str(&format!(
                    "  {name}: {{{}}} | {{{}}}\n",
                    fmt_set(&h.mandatory),
                    fmt_set(&h.optional())
                ));
            }
        }
        out
    }
}

/// One query's view of the VPS relations over a shared [`CatalogShape`].
pub struct VpsCatalog {
    shape: Arc<CatalogShape>,
    /// One slot per shape site, filled with the site's navigator on the
    /// first invocation of one of its relations (or on `preload`).
    navigators: Vec<Option<Arc<SiteNavigator>>>,
    /// The page store every navigator reads through.
    store: PageStore,
    /// Per-host connection pools handed to every navigator.
    pool: Option<Arc<HostPools>>,
    pub stats: VpsStats,
    /// The query budget shared by every navigator, when one is attached.
    budget: Option<Arc<BudgetTracker>>,
    /// The cancellation token every navigator polls, when one is
    /// attached.
    cancel: Option<CancelToken>,
    /// Relation invocations that ran to completion under the budget —
    /// the resume token's navigation positions.
    positions: Vec<NavPosition>,
    /// Observability handle shared with every navigator (and through
    /// them, every browser). Disabled by default.
    obs: Obs,
    /// Shared answer memo; `None` outside the multi-query engine. Only
    /// consulted on unbudgeted invocations of clean navigators (see
    /// [`crate::memo`]).
    memo: Option<AnswerMemo>,
    /// Shared logical-answer memo for [`VpsCatalog::derived`], under
    /// the same eligibility rules as `memo`.
    logical_memo: Option<AnswerMemo>,
    /// The session's page-read recorder (the same [`ReadSet`] the
    /// engine's tracked [`PageStore`] handle records into). With it
    /// attached, each invocation's page dependencies are sliced off and
    /// remembered — and a memo *hit* replays the leader's recorded
    /// dependencies, since a hit fetches nothing itself.
    reads: Option<ReadSet>,
    /// Every VPS invocation this catalog served, with its page
    /// dependencies — the base-relation log incremental view
    /// maintenance re-runs selectively.
    invocation_log: Vec<Invocation>,
}

impl VpsCatalog {
    /// A per-query catalog over a shared shape. Every navigator it
    /// builds reads through `store` and, when given, `pool`.
    pub fn over(shape: Arc<CatalogShape>, store: PageStore, pool: Option<Arc<HostPools>>) -> Self {
        VpsCatalog {
            navigators: vec![None; shape.sites.len()],
            shape,
            store,
            pool,
            stats: VpsStats::default(),
            budget: None,
            cancel: None,
            positions: Vec::new(),
            obs: Obs::none(),
            memo: None,
            logical_memo: None,
            reads: None,
            invocation_log: Vec::new(),
        }
    }

    /// The shared, query-independent part of this catalog.
    pub fn shape(&self) -> &Arc<CatalogShape> {
        &self.shape
    }

    /// The navigator of shape site `site`, built on first use with
    /// whatever store, pool, budget, cancel token and trace handle the
    /// catalog carries at that moment.
    fn site_navigator(&mut self, site: usize) -> Arc<SiteNavigator> {
        if let Some(nav) = &self.navigators[site] {
            return nav.clone();
        }
        let s = &self.shape.sites[site];
        let navigator = SiteNavigator::from_compiled(
            s.web.clone(),
            s.map.clone(),
            s.compiled.clone(),
            self.shape.policy,
            self.store.clone(),
        );
        if let Some(pool) = &self.pool {
            navigator.set_pool(pool.clone());
        }
        if let Some(budget) = &self.budget {
            navigator.set_budget(budget.clone());
        }
        if let Some(cancel) = &self.cancel {
            navigator.set_cancel(cancel.clone());
        }
        navigator.set_obs(self.obs.clone());
        let navigator = Arc::new(navigator);
        self.navigators[site] = Some(navigator.clone());
        navigator
    }

    /// The navigators built so far, in site registration order.
    fn built(&self) -> impl Iterator<Item = &Arc<SiteNavigator>> {
        self.navigators.iter().flatten()
    }

    /// Hosts whose navigator this catalog has built, in registration
    /// order.
    pub fn built_hosts(&self) -> Vec<&str> {
        self.built().map(|n| n.map.site.as_str()).collect()
    }

    /// Per-site degradation merged across every navigator built so far
    /// (a site never invoked has nothing to report).
    pub fn degradation(&self) -> DegradationReport {
        let mut report = DegradationReport::default();
        for nav in self.built() {
            report.merge(&nav.degradation());
        }
        report
    }

    /// Per-site self-healing activity merged across every navigator
    /// built so far.
    pub fn repairs(&self) -> RepairReport {
        let mut report = RepairReport::default();
        for nav in self.built() {
            report.merge(&nav.repair_report());
        }
        report
    }

    /// Attach a query budget: every navigator shares the one tracker,
    /// and every mapped site is registered up front so fair-share
    /// floors also cover sites the query has not reached yet.
    pub fn set_budget(&mut self, budget: Arc<BudgetTracker>) {
        for site in &self.shape.sites {
            budget.register_site(&site.map.site);
        }
        for nav in self.built() {
            nav.set_budget(budget.clone());
        }
        self.budget = Some(budget);
    }

    pub fn budget(&self) -> Option<&Arc<BudgetTracker>> {
        self.budget.as_ref()
    }

    /// Attach (or detach, with [`Obs::none`]) the observability handle:
    /// every navigator shares it, exactly like the budget tracker,
    /// including navigators built after this call.
    pub fn set_obs(&mut self, obs: Obs) {
        for nav in self.built() {
            nav.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attach a cancellation token: every navigator polls it at its
    /// budget checkpoints, so a cancel lands before the next page
    /// request rather than mid-navigation.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        for nav in self.built() {
            nav.set_cancel(cancel.clone());
        }
        self.cancel = Some(cancel);
    }

    /// Attach the multi-query engine's shared answer memos: `memo` for
    /// VPS invocations, `logical` for [`VpsCatalog::derived`].
    pub fn set_memos(&mut self, memo: AnswerMemo, logical: AnswerMemo) {
        self.memo = Some(memo);
        self.logical_memo = Some(logical);
    }

    /// Attach the session's page-read recorder (see the `reads` field).
    pub fn set_reads(&mut self, reads: ReadSet) {
        self.reads = Some(reads);
    }

    /// VPS invocations served so far: `(memo key, page deps)` in
    /// execution order. Memo hits appear too, sharing the leader's
    /// recorded dependencies (empty when none were recorded), and so do
    /// the invocations a logical-memo hit replays.
    pub fn invocation_log(&self) -> &[Invocation] {
        &self.invocation_log
    }

    /// Answer `relation`, a relation derived from VPS invocations (a §5
    /// logical definition), through the shared logical-answer memo.
    /// `eval` computes the answer over this catalog when no settled one
    /// exists; the key is the relation, the access-spec constants and
    /// the relaxed-union flag.
    ///
    /// The memo is read and filled under the VPS memo's rules: only
    /// without a budget, and an answer settles only if every navigator
    /// stayed clean and the query was not cancelled. An evaluation
    /// error releases the key to a waiting session. The settled
    /// provenance is the VPS invocations the evaluation made, so a hit
    /// replays exactly those into the read set and the invocation log
    /// and leaves the same provenance as the evaluation it skipped.
    pub fn derived(
        &mut self,
        relation: &Arc<str>,
        spec: &AccessSpec,
        relaxed: bool,
        eval: impl FnOnce(&mut VpsCatalog) -> Result<Relation, EvalError>,
    ) -> Result<Relation, EvalError> {
        let memo = match (&self.logical_memo, &self.budget) {
            (Some(memo), None) => memo.clone(),
            _ => return eval(self),
        };
        // The spec iterates in attribute order, so the bindings are
        // already canonical. Relation names are identifiers, so the
        // relaxed suffix cannot collide with a strict key.
        let name = if relaxed { format!("{relation} (relaxed)").into() } else { relation.clone() };
        let key: MemoKey = (name, spec.iter().map(|(a, v)| (a.clone(), v.clone())).collect());
        let guard = match memo.claim(&key) {
            MemoClaim::Hit(rel, provenance) => {
                self.replay(relation, spec, &rel, &provenance);
                return Ok(rel);
            }
            MemoClaim::Leader(guard) => guard,
        };
        let mark = self.invocation_log.len();
        // An error returns here and drops the guard, releasing the key.
        let rel = eval(self)?;
        let clean = self.built().all(|nav| nav.is_clean())
            && !self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        if clean {
            let calls: Arc<[Invocation]> = self.invocation_log[mark..].into();
            guard.settle(Some(rel.clone()), Provenance::Invocations(calls));
        } else {
            // A partial answer is never replayed: a waiting session
            // takes the key over and evaluates it itself.
            guard.settle(None, Provenance::Unknown);
        }
        Ok(rel)
    }

    /// A logical-memo hit: fold the settled evaluation's VPS
    /// invocations into this session, exactly as running them would
    /// have, and count and trace the hit.
    fn replay(
        &mut self,
        relation: &str,
        spec: &AccessSpec,
        rel: &Relation,
        provenance: &Provenance,
    ) {
        if let Provenance::Invocations(calls) = provenance {
            if let Some(reads) = &self.reads {
                for (_, deps) in calls.iter() {
                    reads.extend(deps);
                }
            }
            self.invocation_log.extend(calls.iter().cloned());
        }
        self.obs.count(Metric::LogicalHits);
        if self.obs.tracing() {
            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
            self.obs.sink.event(
                QUERY_TRACK,
                SpanKind::Logical,
                relation.to_string(),
                vec![
                    ("given", spec.to_string()),
                    ("disposition", "memo_hit".to_string()),
                    ("tuples", rel.len().to_string()),
                ],
            );
        }
    }

    /// Relation invocations that ran to completion — no budget denial
    /// truncated them — in execution order.
    pub fn positions(&self) -> &[NavPosition] {
        &self.positions
    }

    /// Every page fetched while the budget was attached, across all
    /// navigators.
    pub fn resume_journal(&self) -> Vec<JournalEntry> {
        self.built().flat_map(|nav| nav.journal()).collect()
    }

    /// The resume token for the current run: the budget it ran under,
    /// the spend so far, the completed navigation positions, and the
    /// journal of every page already paid for.
    pub fn resume_token(&self) -> Option<ResumeToken> {
        let tracker = self.budget.as_ref()?;
        let snap = tracker.snapshot();
        Some(ResumeToken {
            budget: tracker.budget().clone(),
            spent_network: snap.elapsed,
            spent_fetches: snap.fetches,
            positions: self.positions.clone(),
            journal: self.resume_journal(),
        })
    }

    /// Preload a resume token's journal into the navigators' page
    /// caches. Entries are routed to the navigator owning their host
    /// (built here if the token reaches its site), so a resumed run
    /// serves them as cache hits — zero re-fetches of already-paid-for
    /// pages.
    pub fn preload(&mut self, token: &ResumeToken) {
        for site in 0..self.shape.sites.len() {
            let host = self.shape.sites[site].map.site.clone();
            if token.journal_for(&host).next().is_some() {
                self.site_navigator(site).preload_journal(token.journal_for(&host));
            }
        }
    }

    /// Evaluate a batch of relation invocations with fair-share
    /// interleaving: jobs are grouped by owning site and served
    /// round-robin, one invocation per site per round, so a site that is
    /// burning its quota (or stalling) cannot drain the global budget
    /// before the other sites get their first turn. Results come back in
    /// input order; an unknown relation yields its error in place.
    pub fn execute(&mut self, jobs: &[(String, AccessSpec)]) -> Vec<Result<Relation, EvalError>> {
        let mut slots: Vec<Option<Result<Relation, EvalError>>> =
            jobs.iter().map(|_| None).collect();
        let mut site_order: Vec<usize> = Vec::new();
        let mut queues: HashMap<usize, VecDeque<usize>> = HashMap::new();
        for (i, (name, _)) in jobs.iter().enumerate() {
            match self.shape.relations.get(name.as_str()) {
                Some(r) => {
                    if !queues.contains_key(&r.site) {
                        site_order.push(r.site);
                    }
                    queues.entry(r.site).or_default().push_back(i);
                }
                None => slots[i] = Some(Err(EvalError::UnknownRelation(name.clone()))),
            }
        }
        loop {
            let mut progressed = false;
            for site in &site_order {
                if let Some(i) = queues.get_mut(site).and_then(VecDeque::pop_front) {
                    let (name, spec) = &jobs[i];
                    slots[i] = Some(self.fetch(name, spec));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        slots.into_iter().map(|s| s.expect("every job scheduled")).collect()
    }
}

impl RelationProvider for VpsCatalog {
    fn schema(&self, name: &str) -> Option<Schema> {
        self.shape.relations.get(name).map(|r| r.schema.clone())
    }

    fn bindings(&self, name: &str) -> Option<BindingSet> {
        let r = self.shape.relations.get(name)?;
        let derive = || {
            BindingSet::from_bindings(
                r.handles.iter().map(|h| h.mandatory.iter().map(Attr::new).collect::<Binding>()),
            )
        };
        Some(r.bindings.get_or_init(derive).clone())
    }

    fn fetch(&mut self, name: &str, spec: &AccessSpec) -> Result<Relation, EvalError> {
        // A handle on the shape, so the entry stays borrowed while the
        // navigator slot below is filled.
        let shape = self.shape.clone();
        let (relation, e) = shape
            .relations
            .get_key_value(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        let host = &shape.sites[e.site].map.site;
        // Pick a handle whose mandatory set is covered; among those,
        // prefer the one that can *use* the most of the supplied values
        // (fewer tuples fetched and filtered). Attribute names probe
        // the spec as they are: nothing is allocated to choose.
        let bound = |a: &String| spec.get(a.as_str()).is_some();
        let handle = e
            .handles
            .iter()
            .filter(|h| h.mandatory.iter().all(bound))
            .max_by_key(|h| h.selection.iter().filter(|a| bound(a)).count())
            .ok_or_else(|| EvalError::UnboundAccess {
                relation: name.to_string(),
                available: spec.to_string(),
            })?;
        // Pass every supplied constant the handle can use. The spec
        // iterates in attribute order, so these are the memo key's
        // canonical bindings as they stand.
        let given: Vec<(Attr, Value)> = spec
            .iter()
            .filter(|(a, _)| handle.selection.contains(a.as_str()))
            .map(|(a, v)| (a.clone(), v.clone()))
            .collect();
        let key: Arc<MemoKey> = Arc::new((relation.clone(), given));
        let given = &key.1;
        // Shared answer memo, unbudgeted invocations only: a budgeted
        // run must do its own admission/journalling/position work. The
        // claim is singleflight: under a concurrent herd one session
        // leads each distinct invocation and the rest wait for — and
        // then hit — its settled answer instead of recomputing.
        // Where this session's page reads stood before the invocation:
        // everything recorded past this mark is what the invocation read.
        let read_mark = self.reads.as_ref().map(ReadSet::len).unwrap_or(0);
        let memo_lead = match (&self.memo, &self.budget) {
            (Some(memo), None) => match memo.claim(&key) {
                MemoClaim::Hit(rel, provenance) => {
                    // A hit fetches nothing, but the answer still
                    // *depends* on the pages its leader read — fold
                    // them into this session's read set so the
                    // result-cache entry records them too.
                    let deps = match provenance {
                        Provenance::Pages(deps) => deps,
                        _ => Arc::from([]),
                    };
                    if let Some(reads) = &self.reads {
                        reads.extend(&deps);
                    }
                    self.obs.count(Metric::HandleInvocations);
                    self.obs.count_n(Metric::TuplesEmitted, rel.len() as u64);
                    if self.obs.tracing() {
                        self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
                        self.obs.sink.event(
                            QUERY_TRACK,
                            SpanKind::Handle,
                            name.to_string(),
                            vec![
                                ("disposition", "memo_hit".to_string()),
                                ("tuples", rel.len().to_string()),
                            ],
                        );
                    }
                    bump(&mut self.stats.invocations, name, 1);
                    self.invocation_log.push((key, deps));
                    return Ok(rel);
                }
                // Held through the computation below; an early
                // error return drops it, releasing the key so a
                // waiter takes over as leader.
                MemoClaim::Leader(guard) => Some(guard),
            },
            _ => None,
        };
        let navigator = self.site_navigator(e.site);
        self.obs.count(Metric::HandleInvocations);
        let span = if self.obs.tracing() {
            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
            let given_str: Vec<String> = given.iter().map(|(k, v)| format!("{k}={v}")).collect();
            self.obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Handle,
                name.to_string(),
                vec![
                    ("site", host.clone()),
                    ("mandatory", handle.mandatory.iter().cloned().collect::<Vec<_>>().join(",")),
                    ("given", given_str.join(" ")),
                ],
            )
        } else {
            SpanHandle::INERT
        };
        let denied_before = self
            .budget
            .as_ref()
            .map(|b| b.snapshot().sites.values().map(|s| s.denied).sum::<u64>());
        let (records, run) = match navigator.run_rows(name, given) {
            Ok(out) => out,
            Err(err) => {
                if self.obs.tracing() {
                    self.obs.sink.end_with(span, vec![("error", err.to_string())]);
                }
                return Err(EvalError::Provider(err.to_string()));
            }
        };
        if let (Some(budget), Some(before)) = (self.budget.as_ref(), denied_before) {
            let after: u64 = budget.snapshot().sites.values().map(|s| s.denied).sum();
            // A position joins the resume token only when the budget did
            // not truncate the invocation: resuming replays exactly the
            // completed work, and the truncated tail re-runs.
            if after == before {
                self.positions.push(NavPosition {
                    relation: name.to_string(),
                    given: given.iter().map(|(a, v)| (a.to_string(), v.clone())).collect(),
                });
            }
            budget.mark_served(host);
        }
        bump(&mut self.stats.invocations, name, 1);
        bump(&mut self.stats.pages, name, run.pages_fetched);
        bump(&mut self.stats.retries, name, run.retries);
        bump(&mut self.stats.network, name, run.network);
        bump(&mut self.stats.cpu, name, run.cpu);

        // Each schema attribute's column in the navigator's rows (the
        // same order, for a relation compiled from this shape's map).
        let cols: Vec<Option<usize>> = e
            .schema
            .attrs()
            .iter()
            .map(|a| records.attrs.iter().position(|r| r == a.as_str()))
            .collect();
        let aligned = cols.len() == records.attrs.len()
            && cols.iter().enumerate().all(|(i, &c)| c == Some(i));
        let mut rel = Relation::new(e.schema.clone());
        for row in records.rows {
            rel.push(if aligned {
                Tuple::from_values(row)
            } else {
                Tuple::from_values(cols.iter().map(|c| c.map_or(Value::Null, |i| row[i].clone())))
            });
        }
        self.obs.count_n(Metric::TuplesEmitted, rel.len() as u64);
        if self.obs.tracing() {
            // The query track's clock is the serial network time summed
            // over every handle invocation so far — monotone, and equal
            // between serial and (hypothetical) parallel execution.
            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
            self.obs.sink.end_with(
                span,
                vec![("tuples", rel.len().to_string()), ("pages", run.pages_fetched.to_string())],
            );
        }
        // The pages this invocation read (cache hits and fresh fetches
        // alike — either way the answer was computed from them). With no
        // read set attached they are unknown, and so is the memo
        // entry's provenance: any drift event evicts it.
        let deps: Option<Arc<[PageId]>> =
            self.reads.as_ref().map(|r| r.slice_from(read_mark).into());
        // Memoize only answers from a navigator that has never seen
        // degradation: a truncated or partially healed run must not be
        // replayed to other queries as complete. Settling `None` still
        // releases the key and wakes waiting sessions.
        if let Some(guard) = memo_lead {
            let clean = navigator.is_clean();
            let provenance = deps.clone().map_or(Provenance::Unknown, Provenance::Pages);
            guard.settle(clean.then(|| rel.clone()), provenance);
        }
        self.invocation_log.push((key, deps.unwrap_or_else(|| Arc::from([]))));
        Ok(rel)
    }
}

/// Add `by` to `name`'s per-relation counter, allocating the name only
/// on its first invocation.
fn bump<T: std::ops::AddAssign + Default>(map: &mut HashMap<String, T>, name: &str, by: T) {
    match map.get_mut(name) {
        Some(n) => *n += by,
        None => {
            map.insert(name.to_string(), by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_relational::prelude::*;

    /// The thirteen car sites' shape, its web and its dataset.
    fn fixture() -> (Arc<CatalogShape>, SyntheticWeb, Arc<Dataset>) {
        let data = Dataset::generate(5, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut shape = CatalogShape::new(FetchPolicy::default_policy());
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            shape.add_map(web.clone(), map).expect("a recorded map compiles");
        }
        (Arc::new(shape), web, data)
    }

    fn catalog() -> (VpsCatalog, Arc<Dataset>) {
        let (shape, _, data) = fixture();
        (VpsCatalog::over(shape, PageStore::new(), None), data)
    }

    #[test]
    fn catalog_has_all_table1_relations() {
        let (cat, _) = catalog();
        let shape = cat.shape();
        let rels: Vec<&str> = shape.relations().collect();
        for expected in [
            "newsday",
            "newsdayCarFeatures",
            "nyTimes",
            "nyDaily",
            "wwwheels",
            "autoConnect",
            "yahooCars",
            "carReviews",
            "carPoint",
            "autoWeb",
            "kellys",
            "carAndDriver",
            "carFinance",
            "carInsurance",
        ] {
            assert!(rels.contains(&expected), "missing {expected} in {rels:?}");
        }
        let t1 = shape.render_table1();
        assert!(t1.contains("newsday(make, model, year, price, contact, url)"), "{t1}");
        let t3 = shape.render_table3();
        assert!(t3.contains("kellys: {condition, make, model, pricetype} | {year}"), "{t3}");
    }

    #[test]
    fn every_loaded_map_carries_semantics() {
        let (cat, _) = catalog();
        for name in cat.shape().relations() {
            let sem = cat.shape().relation_semantics(name).expect("semantics stored at load");
            assert!(sem.cost.min >= 1, "{name}: at least the entry fetch");
            assert!(!sem.read_nodes.is_empty(), "{name}: non-empty static read-set");
        }
    }

    #[test]
    fn fetch_respects_handles() {
        let (mut cat, data) = catalog();
        let spec = AccessSpec::new().with("make", "ford");
        let rel = cat.fetch("newsday", &spec).expect("fetches");
        let truth = data.matching(SiteSlice::Newsday, Some("ford"), None);
        assert_eq!(rel.len(), truth.len());
        // Unbound mandatory → UnboundAccess.
        let err = cat.fetch("kellys", &spec).expect_err("kellys needs more");
        assert!(matches!(err, EvalError::UnboundAccess { .. }));
    }

    #[test]
    fn evaluator_joins_vps_relations() {
        // The paper's Figure 4 pipeline as an algebra evaluation:
        // newsday ⋈ newsdayCarFeatures with make bound.
        let (mut cat, data) = catalog();
        let make = sessions::rare_newsday_make(&data)
            .unwrap_or_else(|| sessions::popular_newsday_make(&data));
        let e = Expr::relation("newsday")
            .join(Expr::relation("newsdayCarFeatures"))
            .select(Pred::eq("make", make.clone()))
            .project(["make", "model", "price", "features", "picture"]);
        let result = Evaluator::new(&mut cat).eval(&e, &AccessSpec::new()).expect("evals");
        let truth = data.matching(SiteSlice::Newsday, Some(&make), None);
        assert_eq!(result.len(), truth.len());
        // features column populated from the detail pages
        let fidx = result.schema().index_of(&"features".into()).expect("features col");
        assert!(result.tuples().iter().all(|t| !t.get(fidx).is_null()));
        assert!(cat.stats.total_pages() > 0);
    }

    #[test]
    fn kellys_blue_book_via_algebra() {
        let (mut cat, _) = catalog();
        let e = Expr::relation("kellys").select(Pred::and(vec![
            Pred::eq("make", "jaguar"),
            Pred::eq("model", "xj6"),
            Pred::eq("condition", "good"),
            Pred::eq("pricetype", "retail"),
        ]));
        let rel = Evaluator::new(&mut cat).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(rel.len(), 11, "one row per year 1988–1998");
        let bb = rel.schema().index_of(&"bbprice".into()).expect("bbprice");
        assert!(rel.tuples().iter().all(|t| t.get(bb).as_int().is_some()));
    }

    #[test]
    fn binding_sets_match_handles() {
        let (cat, _) = catalog();
        let b = cat.bindings("kellys").expect("bindings");
        assert_eq!(b.bindings().len(), 1);
        assert_eq!(b.bindings()[0].len(), 4); // make, model, condition, pricetype
        let free = cat.bindings("autoWeb").expect("bindings");
        assert!(free.satisfied_by(&Default::default()), "autoWeb is enumerable");
    }

    #[test]
    fn budgeted_fetch_records_positions_and_journal() {
        use webbase_navigation::budget::QueryBudget;
        let (mut cat, _) = catalog();
        let tracker = Arc::new(BudgetTracker::new(QueryBudget::unlimited()));
        cat.set_budget(tracker.clone());
        let spec = AccessSpec::new().with("make", "ford");
        cat.fetch("newsday", &spec).expect("fetches");
        assert_eq!(cat.positions().len(), 1);
        assert_eq!(cat.positions()[0].relation, "newsday");
        let token = cat.resume_token().expect("budget attached");
        assert!(!token.journal.is_empty(), "every fetched page is journalled");
        assert!(token.journal.iter().all(|e| e.request.url.host == "www.newsday.com"));
        let snap = tracker.snapshot();
        assert!(
            snap.sites.get("www.newsday.com").is_some_and(|s| s.served),
            "fair-share floor released after the site's first completed invocation"
        );
    }

    #[test]
    fn execute_returns_results_in_input_order() {
        let (mut cat, data) = catalog();
        let make = sessions::popular_newsday_make(&data);
        let jobs = vec![
            ("newsday".to_string(), AccessSpec::new().with("make", make.clone())),
            ("autoWeb".to_string(), AccessSpec::new()),
            ("newsday".to_string(), AccessSpec::new().with("make", make.clone())),
            ("nosuch".to_string(), AccessSpec::new()),
        ];
        let results = cat.execute(&jobs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert!(matches!(&results[3], Err(EvalError::UnknownRelation(n)) if n == "nosuch"));
        assert_eq!(
            results[0].as_ref().map(Relation::len),
            results[2].as_ref().map(Relation::len),
            "repeated invocation is deterministic (second hits the cache)"
        );
    }

    #[test]
    fn preferred_handle_uses_most_constants() {
        // newsdayCarFeatures has {url} and the navigation handle; with
        // url bound the direct one must be used (cheap), which we observe
        // through the page count.
        let (mut cat, data) = catalog();
        let make = sessions::popular_newsday_make(&data);
        let base = cat.fetch("newsday", &AccessSpec::new().with("make", make)).expect("newsday");
        let url_idx = base.schema().index_of(&"url".into()).expect("url col");
        let url = base.tuples()[0].get(url_idx).clone();
        let pages_before = cat.stats.total_pages();
        let feat =
            cat.fetch("newsdayCarFeatures", &AccessSpec::new().with("url", url)).expect("features");
        assert_eq!(feat.len(), 1);
        let delta = cat.stats.total_pages() - pages_before;
        assert!(delta <= 2, "direct dereference should fetch ~1 page, got {delta}");
    }

    const FORD: (&str, &str) = ("make", "ford");
    const ADS: &str = "ads";

    #[test]
    fn navigators_are_built_on_first_invocation() {
        let (shape, _, _) = fixture();
        let mut cat = VpsCatalog::over(shape, PageStore::new(), None);
        assert!(cat.built_hosts().is_empty(), "a per-query catalog starts with no navigator");
        // Planning-time questions never build one.
        assert!(cat.schema("kellys").is_some() && cat.bindings("kellys").is_some());
        assert!(cat.built_hosts().is_empty());
        cat.fetch("newsday", &AccessSpec::new().with(FORD.0, FORD.1)).expect("fetches");
        cat.fetch("newsday", &AccessSpec::new().with("make", "honda")).expect("fetches");
        assert_eq!(cat.built_hosts(), ["www.newsday.com"], "one navigator, built once");
        assert!(cat.degradation().is_clean());
    }

    #[test]
    fn obs_budget_and_cancel_set_before_a_navigator_exists_reach_it() {
        use std::collections::BTreeSet;
        use webbase_navigation::budget::QueryBudget;
        use webbase_obs::MetricsRegistry;
        let (shape, web, _) = fixture();
        let corpus: BTreeSet<&str> =
            shape.relations().filter_map(|r| shape.relation_host(r)).collect();
        let registry = Arc::new(MetricsRegistry::new());
        let tracker = Arc::new(BudgetTracker::new(QueryBudget::unlimited()));
        let mut cat = VpsCatalog::over(shape.clone(), PageStore::new(), None);
        cat.set_obs(Obs::metrics_only(registry.clone()));
        cat.set_budget(tracker.clone());
        let listed: BTreeSet<String> = tracker.snapshot().sites.into_keys().collect();
        assert_eq!(
            listed.iter().map(String::as_str).collect::<BTreeSet<_>>(),
            corpus,
            "every corpus host holds a fair-share floor before any navigator exists"
        );
        cat.fetch("newsday", &AccessSpec::new().with(FORD.0, FORD.1)).expect("fetches");
        assert!(registry.get(Metric::NavSteps) > 0, "the navigator traced into the catalog's obs");
        assert!(tracker.snapshot().fetches > 0, "the navigator spent against the catalog's budget");

        let cancel = CancelToken::new();
        cancel.cancel();
        let mut cat = VpsCatalog::over(shape, PageStore::new(), None);
        cat.set_cancel(cancel);
        let before = web.total_stats().requests;
        let _ = cat.fetch("newsday", &AccessSpec::new().with(FORD.0, FORD.1));
        assert_eq!(cat.built_hosts(), ["www.newsday.com"]);
        assert_eq!(web.total_stats().requests, before, "the cancel stopped the first invocation");
    }

    /// A shared-engine-style session: the VPS memo, the logical memo
    /// and a read set attached, like an engine's shared session.
    fn shared_session(
        shape: &Arc<CatalogShape>,
        memo: &AnswerMemo,
        logical: &AnswerMemo,
    ) -> (VpsCatalog, ReadSet) {
        let mut cat = VpsCatalog::over(shape.clone(), PageStore::new(), None);
        let reads = ReadSet::new();
        cat.set_memos(memo.clone(), logical.clone());
        cat.set_reads(reads.clone());
        (cat, reads)
    }

    #[test]
    fn a_logical_hit_replays_the_provenance_of_the_evaluation_it_skips() {
        let (shape, _, _) = fixture();
        let (memo, logical) = (AnswerMemo::new(), AnswerMemo::new());
        let spec = AccessSpec::new().with(FORD.0, FORD.1);
        // A dependent join: one newsday invocation, then one
        // newsdayCarFeatures invocation per ad.
        let ads = Expr::relation("newsday").join(Expr::relation("newsdayCarFeatures"));
        let (mut cold, cold_reads) = shared_session(&shape, &memo, &logical);
        let answer = cold
            .derived(&ADS.into(), &spec, false, |vps| Evaluator::new(vps).eval(&ads, &spec))
            .unwrap();
        assert!(cold.invocation_log().len() > 2, "the join invokes its inner side per ad");

        let (mut warm, warm_reads) = shared_session(&shape, &memo, &logical);
        let vps_before = (memo.hits(), memo.misses());
        let hit = warm
            .derived(
                &ADS.into(),
                &spec,
                false,
                |_: &mut VpsCatalog| -> Result<Relation, EvalError> {
                    panic!("a settled logical invocation was evaluated again")
                },
            )
            .expect("hits");
        assert_eq!(hit, answer);
        assert_eq!((memo.hits(), memo.misses()), vps_before, "the hit ran no VPS invocation");
        assert_eq!((logical.hits(), logical.misses()), (1, 1));
        // Same provenance as the skipped evaluation: the invocation log
        // (sharing the VPS entries' deps lists) and the read set.
        assert_eq!(warm.invocation_log(), cold.invocation_log());
        for ((_, a), (_, b)) in warm.invocation_log().iter().zip(cold.invocation_log()) {
            assert!(Arc::ptr_eq(a, b), "a replay copied a deps list");
        }
        assert_eq!(warm_reads.all(), cold_reads.all());
        assert!(warm.built_hosts().is_empty(), "a hit builds no navigator");

        // The relaxed-union flag is part of the key.
        let mut relaxed = 0;
        warm.derived(&ADS.into(), &spec, true, |vps| {
            relaxed += 1;
            Evaluator::new(vps).with_relaxed_union(true).eval(&ads, &spec)
        })
        .expect("evaluates");
        assert_eq!((relaxed, logical.len()), (1, 2));
    }

    #[test]
    fn budgeted_and_degraded_evaluations_leave_no_logical_entry() {
        use webbase_navigation::budget::QueryBudget;
        use webbase_webworld::faults::FlakySite;
        use webbase_webworld::server::Site;
        let spec = AccessSpec::new().with(FORD.0, FORD.1);
        let (memo, logical) = (AnswerMemo::new(), AnswerMemo::new());

        // A budgeted session neither reads nor fills the level.
        let (shape, _, _) = fixture();
        let (mut cat, _) = shared_session(&shape, &memo, &logical);
        cat.set_budget(Arc::new(BudgetTracker::new(QueryBudget::unlimited())));
        cat.derived(&ADS.into(), &spec, false, |vps| vps.fetch("newsday", &spec)).expect("fetches");
        assert_eq!((logical.hits(), logical.misses(), logical.len()), (0, 0, 0));

        // Maps recorded on the healthy web, served by one failing every
        // request: the evaluation degrades, so nothing settles.
        let data = Dataset::generate(5, 600);
        let healthy = standard_web(data.clone(), LatencyModel::lan());
        let failing = standard_web_faulty(data.clone(), LatencyModel::lan(), |_, s| {
            Box::new(FlakySite::new(s, 1)) as Box<dyn Site>
        });
        let mut broken = CatalogShape::new(FetchPolicy::default_policy());
        let (host, session) = sessions::all_sessions(&data).swap_remove(0);
        let (map, _) = Recorder::record(healthy, host, &session).expect("records");
        broken.add_map(failing, map).expect("a recorded map compiles");
        let (mut cat, _) = shared_session(&Arc::new(broken), &memo, &logical);
        let _ = cat.derived(&ADS.into(), &spec, false, |vps| vps.fetch("newsday", &spec));
        assert!(!cat.degradation().is_clean(), "every fetch failed");
        assert_eq!(logical.misses(), 1, "the degraded run led the key");
        assert!(logical.is_empty(), "a degraded evaluation settled an answer");
    }

    #[test]
    fn memos_without_a_read_set_settle_entries_any_drift_evicts() {
        use webbase_navigation::{DriftBus, DriftEvent, DriftKind, DriftOrigin};
        let (shape, _, _) = fixture();
        let (memo, logical) = (AnswerMemo::new(), AnswerMemo::new());
        let (bus, store) = (DriftBus::new(), PageStore::new());
        for m in [memo.clone(), logical.clone()] {
            let store = store.clone();
            bus.subscribe(move |event| {
                m.invalidate_pages(&store.ids_of(&event.requests).into_iter().collect());
            });
        }
        // Memos attached, read set not: the pages each answer read are
        // unknown.
        let mut cat = VpsCatalog::over(shape, store.clone(), None);
        cat.set_memos(memo.clone(), logical.clone());
        let spec = AccessSpec::new().with(FORD.0, FORD.1);
        cat.derived(&ADS.into(), &spec, false, |vps| vps.fetch("newsday", &spec)).expect("fetches");
        assert_eq!((memo.len(), logical.len()), (1, 1));
        // Drift on a page neither answer could have read still evicts
        // both: unknown provenance never outlives a drift event.
        bus.publish(DriftEvent {
            host: "www.elsewhere.test".to_string(),
            kind: DriftKind::PageChanged,
            origin: DriftOrigin::Manual,
            requests: vec![Request::get(Url::new("www.elsewhere.test", "/"))],
            node: None,
        });
        assert!(memo.is_empty(), "a VPS entry of unknown provenance survived drift");
        assert!(logical.is_empty(), "a logical entry of unknown provenance survived drift");
    }

    #[test]
    fn a_pool_set_before_a_navigator_exists_reaches_it() {
        let (shape, _, _) = fixture();
        let pool = Arc::new(HostPools::new(1));
        let mut cat = VpsCatalog::over(shape, PageStore::new(), Some(pool.clone()));
        // Hold newsday's only connection: the catalog's first fetch
        // there must wait on this very pool.
        let slot = pool.acquire("www.newsday.com");
        let worker = std::thread::spawn(move || {
            cat.fetch("newsday", &AccessSpec::new().with(FORD.0, FORD.1)).map(|r| r.len())
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pool.waits() == 0 && !worker.is_finished() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        drop(slot);
        worker.join().expect("worker").expect("fetches");
        assert!(pool.waits() > 0, "the late-built navigator never used the catalog's pool");
    }
}
