//! A browser session over the simulated Web.
//!
//! The designer's browsing (mapping by example) and the query-time
//! navigation executor both drive this session: load a page, follow a
//! link by its text, fill out and submit a form. Every loaded page is
//! parsed once and kept with its extracted links and forms.
//!
//! The session reads through a **fetch cache** keyed by the canonical
//! request (see [`crate::store::PageStore`]); backtracking in the
//! Transaction F-logic interpreter re-executes navigation prefixes, and
//! the cache keeps those re-executions from touching the (simulated)
//! network — the paper relies on the same idempotence when it re-runs
//! navigation expressions. By default each session owns a private
//! store; the multi-query engine hands every session one shared store
//! so concurrent queries serve each other's pages.

use crate::budget::{BudgetDenial, BudgetTracker, JournalEntry};
use crate::cancel::{CancelToken, Interrupt};
use crate::pool::HostPools;
use crate::resilience::{CircuitState, DegradationReport, FetchPolicy, HostHealth};
use crate::store::{PageClaim, PageStore};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use webbase_html::extract::{self, Form, Link, WidgetKind};
use webbase_html::Document;
use webbase_obs::{Metric, Obs, SpanKind};
use webbase_webworld::prelude::*;

/// A fetched-and-parsed page.
#[derive(Debug)]
pub struct LoadedPage {
    /// The canonical request this page answered. This — not the cache
    /// slot or the allocation address — is the page's identity: the
    /// simulated Web is a pure function of the request, so equal
    /// requests denote the same page even across eviction and refetch.
    pub request: Request,
    pub url: Url,
    pub doc: Document,
    pub title: String,
    pub links: Vec<Link>,
    pub forms: Vec<Form>,
    /// The document closed properly (`</html>`). A page without the
    /// marker may have been truncated in flight, so structural
    /// conclusions (drift detection) must not be drawn from it.
    /// Deliberately ill-formed sites never set this.
    pub complete: bool,
    /// Hash of the raw response body this page was parsed from. Two
    /// fetches of one request served the same bytes iff the hashes
    /// match — the revalidation sweep's change detector (conservative:
    /// any byte difference counts as drift).
    pub body_hash: u64,
}

/// FNV-1a over the raw body bytes.
pub(crate) fn body_hash(body: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in body {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl LoadedPage {
    pub fn from_response(request: Request, resp: &Response) -> LoadedPage {
        let html = resp.html();
        let complete = html.trim_end().ends_with("</html>");
        let doc = webbase_html::parse(html);
        let title = doc.title().unwrap_or_default();
        let links = extract::links(&doc);
        let forms = extract::forms(&doc);
        let url = request.url.clone();
        let body_hash = body_hash(&resp.body);
        LoadedPage { request, url, doc, title, links, forms, complete, body_hash }
    }

    /// Structural signature for map-node identity: URL path (digit runs
    /// generalised) plus the page's *stable* structure — its forms and
    /// data layouts. Links are deliberately excluded: they vary with
    /// content ("More" on all but the last result page, one detail link
    /// per row), and would fragment one logical page schema into many
    /// nodes.
    pub fn signature(&self) -> String {
        let path = generalize_path(&self.url.path);
        let mut parts: Vec<String> =
            self.forms.iter().map(|f| format!("form:{}", f.action)).collect();
        for t in extract::tables(&self.doc) {
            if !t.header.is_empty() {
                parts.push(format!("table:{}", t.header.join("/")));
            }
        }
        let mut dt_labels: Vec<String> =
            self.doc.elements_by_tag("dt").map(|id| self.doc.text_content(id)).collect();
        dt_labels.sort();
        dt_labels.dedup();
        if !dt_labels.is_empty() {
            parts.push(format!("dl:{}", dt_labels.join("/")));
        }
        parts.sort();
        parts.dedup();
        format!("{path}|{}", parts.join(","))
    }

    pub fn form_by_action(&self, action: &str) -> Option<&Form> {
        self.forms.iter().find(|f| f.action == action)
    }

    pub fn link_by_text(&self, text: &str) -> Option<&Link> {
        self.links.iter().find(|l| l.text == text)
    }
}

/// The parameter an HTTP 440 body names as expired (the
/// `expired-param: <name>` marker [`webbase_webworld::faults::ExpiringSessionSite`] emits).
fn parse_expired_param(body: &str) -> Option<String> {
    let rest = &body[body.find("expired-param:")? + "expired-param:".len()..];
    let name: String =
        rest.trim_start().chars().take_while(|c| !c.is_whitespace() && *c != '<').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Replace digit runs in a path with `*` so `/car/17` and `/car/90210`
/// share a node.
pub fn generalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_digits = false;
    for c in path.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('*');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// Browser errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowseError {
    NoCurrentPage,
    NoSuchLink(String),
    NoSuchForm(String),
    HttpError {
        url: String,
        status: u16,
    },
    /// A value was supplied for a select/radio field outside its domain.
    ValueOutsideDomain {
        field: String,
        value: String,
    },
    /// The response's simulated latency exceeded the policy timeout.
    Timeout {
        url: String,
        after: Duration,
    },
    /// The site's circuit breaker is open; the request failed fast
    /// without touching the (simulated) network.
    CircuitOpen {
        host: String,
    },
    /// The site rejected a stale CGI session token (HTTP 440) and the
    /// request carried nothing recoverable to replay without it.
    SessionExpired {
        url: String,
    },
    /// The query budget refused the request (deadline, fetch quota, or
    /// fair-share admission). The branch is abandoned cleanly; the
    /// shortfall is itemised in the degradation report.
    BudgetExhausted {
        host: String,
        denial: BudgetDenial,
    },
    /// The query was cancelled (client disconnect or server shutdown).
    /// Like a budget denial, the branch abandons cleanly at the next
    /// checkpoint and partial results stay sound.
    Cancelled {
        host: String,
    },
}

impl BrowseError {
    /// Is this a server-side degradation (as opposed to a navigation
    /// mistake like a missing link or an out-of-domain value)?
    pub fn is_degradation(&self) -> bool {
        match self {
            BrowseError::HttpError { status, .. } => *status >= 500,
            BrowseError::Timeout { .. }
            | BrowseError::CircuitOpen { .. }
            | BrowseError::BudgetExhausted { .. }
            | BrowseError::Cancelled { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for BrowseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowseError::NoCurrentPage => write!(f, "no page loaded"),
            BrowseError::NoSuchLink(t) => write!(f, "no link named {t:?} on page"),
            BrowseError::NoSuchForm(a) => write!(f, "no form with action {a:?} on page"),
            BrowseError::HttpError { url, status } => write!(f, "HTTP {status} fetching {url}"),
            BrowseError::ValueOutsideDomain { field, value } => {
                write!(f, "value {value:?} outside the domain of field {field:?}")
            }
            BrowseError::Timeout { url, after } => {
                write!(f, "timed out after {after:?} (simulated) fetching {url}")
            }
            BrowseError::CircuitOpen { host } => {
                write!(f, "circuit open for {host}: failing fast")
            }
            BrowseError::SessionExpired { url } => {
                write!(f, "session expired fetching {url} (unrecoverable)")
            }
            BrowseError::BudgetExhausted { host, denial } => {
                write!(f, "budget refused request to {host}: {denial}")
            }
            BrowseError::Cancelled { host } => {
                write!(f, "query cancelled before a request to {host}")
            }
        }
    }
}

impl std::error::Error for BrowseError {}

/// A browsing session: current page + fetch cache + statistics +
/// resilience state (retry policy, per-host circuit breakers,
/// degradation accounting).
pub struct Browser {
    web: SyntheticWeb,
    current: Option<Arc<LoadedPage>>,
    /// The fetch cache. Private to this session unless constructed with
    /// [`Browser::with_store`], in which case it is shared with every
    /// other session holding the same store.
    store: PageStore,
    /// Network attempts (cache misses; retries count).
    pub fetches: u32,
    /// Cache hits.
    pub cache_hits: u32,
    /// Retried attempts.
    pub retries: u32,
    /// Simulated network time accumulated over misses (responses,
    /// timeout waits, and retry backoff — charged, never slept).
    pub simulated_network: Duration,
    /// Whether to use the cache (ablation benchmarks disable it).
    pub caching: bool,
    /// The retry/timeout/breaker policy applied to every request.
    pub policy: FetchPolicy,
    health: HashMap<String, HostHealth>,
    degradation: DegradationReport,
    /// Per-host count of stale-session replays (HTTP 440 recovered by
    /// re-issuing the request from its checkpointed inputs).
    session_recoveries: HashMap<String, u64>,
    /// The query budget this session spends against, shared with every
    /// other session the same query drives. `None` = unbudgeted (the
    /// pre-budget behaviour, bit for bit).
    budget: Option<Arc<BudgetTracker>>,
    /// Journal of every successfully fetched page (request + raw body),
    /// kept only while a budget is attached — it becomes the resume
    /// token's page intern.
    journal: Vec<JournalEntry>,
    /// Charge fetches to the owning site's quota only, not the global
    /// one — set by the executor around quarantined `FollowByValue`
    /// scans so a drifted node cannot drain other sites' budgets.
    site_only_charging: bool,
    /// Cooperative cancellation token, polled at every budget
    /// checkpoint. `None` = uncancellable (the single-owner behaviour).
    cancel: Option<CancelToken>,
    /// Observability handle (trace sink + metrics registry), shared down
    /// the layer stack like the budget tracker. Disabled by default, in
    /// which case every touch point below is a single branch.
    obs: Obs,
    /// Per-host connection pools, shared across sessions by the engine.
    /// `None` = unpooled (every fetch goes straight to the Web).
    pool: Option<Arc<HostPools>>,
}

impl Browser {
    pub fn new(web: SyntheticWeb) -> Browser {
        Browser::with_policy(web, FetchPolicy::default_policy())
    }

    /// A browser with an explicit fetch policy (maintenance uses
    /// [`FetchPolicy::no_retry`] so flaky responses surface on the
    /// first attempt).
    pub fn with_policy(web: SyntheticWeb, policy: FetchPolicy) -> Browser {
        Browser::with_store(web, policy, PageStore::new())
    }

    /// A browser reading through a caller-supplied (possibly shared)
    /// page store. The engine uses this to let concurrent queries serve
    /// each other's fetches.
    pub fn with_store(web: SyntheticWeb, policy: FetchPolicy, store: PageStore) -> Browser {
        Browser {
            web,
            current: None,
            store,
            fetches: 0,
            cache_hits: 0,
            retries: 0,
            simulated_network: Duration::ZERO,
            caching: true,
            policy,
            health: HashMap::new(),
            degradation: DegradationReport::default(),
            session_recoveries: HashMap::new(),
            budget: None,
            journal: Vec::new(),
            site_only_charging: false,
            cancel: None,
            obs: Obs::none(),
            pool: None,
        }
    }

    /// The page store this session reads through.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Attach shared per-host connection pools; subsequent fetches
    /// acquire a slot for the target host around the network exchange.
    pub fn set_pool(&mut self, pool: Arc<HostPools>) {
        self.pool = Some(pool);
    }

    pub fn without_cache(web: SyntheticWeb) -> Browser {
        let mut b = Browser::new(web);
        b.caching = false;
        b
    }

    /// What every site endured in this session, with the breaker's
    /// current state folded in.
    /// Whether [`Browser::degradation`] would report clean, without
    /// building the report (the breaker flags it adds degrade nothing).
    pub fn is_clean(&self) -> bool {
        self.degradation.is_clean()
    }

    pub fn degradation(&self) -> DegradationReport {
        let mut report = self.degradation.clone();
        for (host, h) in &self.health {
            report.site_mut(host).breaker_open = h.state == CircuitState::Open;
        }
        report
    }

    /// Stale-session replays per host (see [`BrowseError::SessionExpired`]).
    pub fn session_recoveries(&self) -> &HashMap<String, u64> {
        &self.session_recoveries
    }

    /// The breaker state for `host`.
    pub fn circuit_state(&self, host: &str) -> CircuitState {
        self.health.get(host).map(|h| h.state).unwrap_or_default()
    }

    /// Record that the executor abandoned a navigation branch because a
    /// fetch on `host` failed.
    pub fn note_abandoned_branch(&mut self, host: &str) {
        self.degradation.site_mut(host).branches_abandoned += 1;
    }

    /// Attach the query budget this session spends against.
    pub fn set_budget(&mut self, budget: Arc<BudgetTracker>) {
        self.budget = Some(budget);
    }

    /// Attach the cancellation token this session polls at every budget
    /// checkpoint.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Attach (or detach, with [`Obs::none`]) the observability handle.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Bring this browser's trace track (its host's simulated clock) up
    /// to the network time accumulated so far.
    fn obs_advance(&mut self, host: &str) {
        self.obs.sink.advance(host, self.simulated_network);
    }

    pub fn budget(&self) -> Option<&Arc<BudgetTracker>> {
        self.budget.as_ref()
    }

    /// The pages fetched while a budget was attached, in fetch order.
    pub fn journal(&self) -> &[JournalEntry] {
        &self.journal
    }

    /// Charge subsequent fetches to their site's quota only (the
    /// quarantined-node path). Callers must reset this when the scan
    /// ends.
    pub fn set_site_only_charging(&mut self, on: bool) {
        self.site_only_charging = on;
    }

    /// Intern a journalled page into the fetch cache without touching
    /// the network or the fetch counters. Resuming a query preloads the
    /// token's journal this way, so the re-run traverses the completed
    /// frontier on cache hits alone.
    pub fn preload(&mut self, entry: &JournalEntry) {
        let resp =
            Response { status: 200, body: entry.body.clone(), stall: std::time::Duration::ZERO };
        let page = Arc::new(LoadedPage::from_response(entry.request.clone(), &resp));
        self.store.insert(entry.request.clone(), page);
        // A preloaded page stays journalled: it is already paid for, and
        // the *next* resume token must keep covering it even though this
        // run will only ever see it as a cache hit.
        self.journal.push(entry.clone());
    }

    /// Cooperative cancellation check, run at every budget checkpoint.
    /// A cancelled query abandons the branch exactly like a spent
    /// budget: degradation is itemised, and when a budget tracker is
    /// attached the sticky exhaustion cause makes the planner emit a
    /// resume token for the unfinished work.
    fn check_cancel(&mut self, host: &str) -> Result<(), BrowseError> {
        let Some(cancel) = &self.cancel else { return Ok(()) };
        match cancel.poll() {
            Interrupt::None => Ok(()),
            Interrupt::Panic => panic!("chaos: injected panic before a request to {host}"),
            Interrupt::Cancel => {
                self.degradation.site_mut(host).cancelled += 1;
                self.obs.count(Metric::Cancellations);
                if let Some(budget) = &self.budget {
                    budget.note_cancelled(host);
                }
                if self.obs.tracing() {
                    self.obs.sink.advance(host, self.simulated_network);
                    self.obs.sink.event(
                        host,
                        SpanKind::Fetch,
                        "cooperative check".to_string(),
                        vec![("disposition", "cancelled".to_string())],
                    );
                }
                Err(BrowseError::Cancelled { host: host.to_string() })
            }
        }
    }

    /// Cooperative deadline check for the executor's iteration points
    /// ("More" chains, choice scans). Past the deadline the denial is
    /// recorded and the branch abandons cleanly *before* the next parse.
    /// Cancellation is polled first — it fires even on unbudgeted
    /// queries, whose checkpoints are otherwise free.
    pub fn budget_check(&mut self, host: &str) -> Result<(), BrowseError> {
        self.check_cancel(host)?;
        let Some(budget) = &self.budget else { return Ok(()) };
        if budget.deadline_exceeded() {
            let denial = budget.try_admit(host, true).expect_err("deadline passed");
            self.degradation.site_mut(host).budget_denied += 1;
            self.obs.count(Metric::BudgetDenials);
            if self.obs.tracing() {
                self.obs.sink.advance(host, self.simulated_network);
                self.obs.sink.event(
                    host,
                    SpanKind::Fetch,
                    "cooperative check".to_string(),
                    vec![
                        ("disposition", "budget_denied".to_string()),
                        ("denial", denial.to_string()),
                    ],
                );
            }
            return Err(BrowseError::BudgetExhausted { host: host.to_string(), denial });
        }
        Ok(())
    }

    /// Charge simulated network time to this session and, when a budget
    /// is attached, to the query deadline.
    fn charge_network(&mut self, d: Duration) {
        self.simulated_network += d;
        if let Some(budget) = &self.budget {
            budget.charge(d);
        }
    }

    pub fn current(&self) -> Option<&Arc<LoadedPage>> {
        self.current.as_ref()
    }

    /// A handle to the underlying Web.
    pub fn web(&self) -> SyntheticWeb {
        self.web.clone()
    }

    /// Make a previously loaded page current again without a fetch
    /// (browser Back).
    pub fn restore(&mut self, page: Arc<LoadedPage>) {
        self.current = Some(page);
    }

    fn request(&mut self, req: Request) -> Result<Arc<LoadedPage>, BrowseError> {
        // Cancellation precedes even the cache: once the client is
        // gone, every remaining navigation step is wasted work.
        self.check_cancel(&req.url.host.clone())?;
        // A miss leads the page's fetch until `lead` drops: other
        // sessions missing it meanwhile wait for this fetch. Every
        // return below drops it, interned page or not.
        let lead = if self.caching {
            match self.store.claim(&req) {
                PageClaim::Hit(page) => {
                    self.cache_hits += 1;
                    self.obs.count(Metric::CacheHits);
                    if self.obs.tracing() {
                        let host = req.url.host.clone();
                        self.obs_advance(&host);
                        self.obs.sink.event(
                            &host,
                            SpanKind::CacheHit,
                            req.url.to_string(),
                            Vec::new(),
                        );
                    }
                    return Ok(page);
                }
                PageClaim::Leader(guard) => Some(guard),
            }
        } else {
            None
        };
        let host = req.url.host.clone();

        // Circuit-breaker gate: an open circuit fails fast (no network
        // charge) until the cooldown moves it to half-open.
        if self.policy.breaker_enabled() {
            let health = self.health.entry(host.clone()).or_default();
            if health.state == CircuitState::Open {
                health.record_skip(&self.policy);
                self.degradation.site_mut(&host).fast_failures += 1;
                self.obs.count(Metric::FastFailures);
                if self.obs.tracing() {
                    self.obs_advance(&host);
                    self.obs.sink.event(
                        &host,
                        SpanKind::Fetch,
                        req.url.to_string(),
                        vec![("disposition", "breaker_open".to_string())],
                    );
                }
                return Err(BrowseError::CircuitOpen { host });
            }
        }
        // A half-open circuit lets exactly one probe through, unretried.
        let probing = self.circuit_state(&host) == CircuitState::HalfOpen;
        let max_retries = if probing { 0 } else { self.policy.max_retries };

        // A probe whose worst case (the policy timeout) no longer fits
        // in the remaining deadline is not worth spending: keep failing
        // fast and leave the probe for a caller with time to wait.
        if probing {
            if let (Some(budget), Some(timeout)) = (&self.budget, self.policy.timeout) {
                if budget.remaining_deadline().is_some_and(|r| r < timeout) {
                    self.degradation.site_mut(&host).fast_failures += 1;
                    self.obs.count(Metric::FastFailures);
                    if self.obs.tracing() {
                        self.obs_advance(&host);
                        self.obs.sink.event(
                            &host,
                            SpanKind::Fetch,
                            req.url.to_string(),
                            vec![("disposition", "probe_deferred".to_string())],
                        );
                    }
                    return Err(BrowseError::CircuitOpen { host });
                }
            }
        }

        let mut retry = 0;
        loop {
            // Budget admission, per network attempt (cache hits never
            // get here and are free).
            if let Some(budget) = self.budget.clone() {
                if let Err(denial) = budget.try_admit(&host, self.site_only_charging) {
                    self.degradation.site_mut(&host).budget_denied += 1;
                    self.obs.count(Metric::BudgetDenials);
                    if self.obs.tracing() {
                        self.obs_advance(&host);
                        self.obs.sink.event(
                            &host,
                            SpanKind::Fetch,
                            req.url.to_string(),
                            vec![
                                ("disposition", "budget_denied".to_string()),
                                ("denial", denial.to_string()),
                            ],
                        );
                    }
                    return Err(BrowseError::BudgetExhausted { host, denial });
                }
            }
            let span = if self.obs.tracing() {
                self.obs_advance(&host);
                self.obs.sink.begin(
                    &host,
                    SpanKind::Fetch,
                    req.url.to_string(),
                    vec![("attempt", (retry + 1).to_string())],
                )
            } else {
                webbase_obs::SpanHandle::INERT
            };
            let (resp, latency) = match &self.pool {
                Some(pool) => {
                    let _slot = pool.acquire(&host);
                    self.web.fetch(&req)
                }
                None => self.web.fetch(&req),
            };
            self.fetches += 1;
            self.obs.count(Metric::Fetches);
            self.degradation.site_mut(&host).requests += 1;

            // Classify the attempt. The simulated latency (which
            // includes any server stall) is checked against the policy
            // timeout: a client that hangs up at the timeout mark is
            // charged the timeout, not the full stall.
            let timed_out = self.policy.timeout.is_some_and(|t| latency > t);
            let failure = if timed_out {
                self.charge_network(self.policy.timeout.expect("checked"));
                let d = self.degradation.site_mut(&host);
                d.failures += 1;
                d.timeouts += 1;
                self.obs.count(Metric::Timeouts);
                self.obs.observe_fetch_latency(self.policy.timeout.expect("checked"));
                Some(BrowseError::Timeout {
                    url: req.url.to_string(),
                    after: self.policy.timeout.expect("checked"),
                })
            } else if resp.status >= 500 {
                self.charge_network(latency);
                self.degradation.site_mut(&host).failures += 1;
                self.obs.count(Metric::HttpFailures);
                self.obs.observe_fetch_latency(latency);
                Some(BrowseError::HttpError { url: req.url.to_string(), status: resp.status })
            } else {
                None
            };

            let Some(err) = failure else {
                self.charge_network(latency);
                self.obs.observe_fetch_latency(latency);
                self.health.entry(host.clone()).or_default().record_success();
                if self.obs.tracing() {
                    self.obs_advance(&host);
                    let disposition = if resp.status == 440 {
                        "session_expired".to_string()
                    } else if resp.is_ok() {
                        "ok".to_string()
                    } else {
                        format!("http={}", resp.status)
                    };
                    self.obs.sink.end_with(span, vec![("disposition", disposition)]);
                }
                if resp.status == 440 {
                    // Stale CGI session token: replay from checkpointed
                    // inputs (the request minus the expired parameter).
                    // The replay requests another page, so this claim is
                    // released first: a page leader waits on nothing.
                    drop(lead);
                    return self.recover_session(req, &resp);
                }
                if !resp.is_ok() {
                    // 4xx is a navigation outcome, not a site failure:
                    // no retry, no breaker count.
                    return Err(BrowseError::HttpError {
                        url: req.url.to_string(),
                        status: resp.status,
                    });
                }
                let page = Arc::new(LoadedPage::from_response(req.clone(), &resp));
                self.obs.count(Metric::PagesParsed);
                if self.budget.is_some() {
                    self.journal
                        .push(JournalEntry { request: req.clone(), body: resp.body.clone() });
                }
                if self.caching {
                    // `insert_fetched` journals the body to the WAL (if
                    // one is attached) so a warm restart can replay it.
                    self.store.insert_fetched(req, page.clone(), &resp.body);
                }
                return Ok(page);
            };

            if self.obs.tracing() {
                self.obs_advance(&host);
                let disposition =
                    if timed_out { "timeout".to_string() } else { format!("http={}", resp.status) };
                self.obs.sink.end_with(span, vec![("disposition", disposition)]);
            }
            let tripped = self.health.entry(host.clone()).or_default().record_failure(&self.policy);
            if tripped {
                self.degradation.site_mut(&host).breaker_trips += 1;
                self.obs.count(Metric::BreakerOpens);
                if self.obs.tracing() {
                    self.obs.sink.event(&host, SpanKind::BreakerOpen, host.clone(), Vec::new());
                }
                // The breaker just opened: stop retrying this request.
                return Err(err);
            }
            if retry >= max_retries {
                return Err(err);
            }
            let backoff = self.policy.backoff_for(retry);
            if let Some(remaining) = self.budget.as_ref().and_then(|b| b.remaining_deadline()) {
                if backoff >= remaining {
                    // The scheduled retry would land past the deadline:
                    // no caller could use its response. Charge only the
                    // time actually left and surface the last error.
                    self.charge_network(remaining);
                    if self.obs.tracing() {
                        self.obs_advance(&host);
                        self.obs.sink.event(
                            &host,
                            SpanKind::Backoff,
                            "clipped to deadline".to_string(),
                            Vec::new(),
                        );
                    }
                    return Err(err);
                }
            }
            self.charge_network(backoff);
            self.retries += 1;
            self.obs.count(Metric::Retries);
            self.degradation.site_mut(&host).retries += 1;
            if self.obs.tracing() {
                self.obs_advance(&host);
                self.obs.sink.event(
                    &host,
                    SpanKind::Backoff,
                    format!("retry {}", retry + 1),
                    vec![("backoff_us", backoff.as_micros().to_string())],
                );
            }
            retry += 1;
        }
    }

    /// Recover from an HTTP 440 ("Login Time-out"): the body names the
    /// expired parameter; the request minus that parameter *is* the
    /// chain's checkpoint (make/model/page survive), so re-issuing it
    /// resumes a "More"-pagination chain from the last good page
    /// instead of restarting the session. One level only — the stripped
    /// request no longer carries the token, so it gets a fresh grant.
    fn recover_session(
        &mut self,
        req: Request,
        resp: &Response,
    ) -> Result<Arc<LoadedPage>, BrowseError> {
        let stripped = parse_expired_param(resp.html()).map(|p| {
            let mut s = req.clone();
            s.url.query.retain(|(k, _)| k != &p);
            s.params.retain(|(k, _)| k != &p);
            s
        });
        match stripped {
            Some(s) if s != req => {
                *self.session_recoveries.entry(req.url.host.clone()).or_default() += 1;
                self.obs.count(Metric::SessionRecoveries);
                if self.obs.tracing() {
                    let host = req.url.host.clone();
                    self.obs_advance(&host);
                    self.obs.sink.event(
                        &host,
                        SpanKind::SessionRecovery,
                        req.url.to_string(),
                        Vec::new(),
                    );
                }
                let page = self.request(s.clone())?;
                // Journal under the stale key too (same body as the
                // replayed request): a resumed query re-issues the
                // original request verbatim and must hit the cache.
                if self.budget.is_some() {
                    if let Some(body) =
                        self.journal.iter().rev().find(|e| e.request == s).map(|e| e.body.clone())
                    {
                        self.journal.push(JournalEntry { request: req.clone(), body });
                    }
                }
                // Cache under the stale key too: backtracking re-issues
                // the original request verbatim. The page's *identity*
                // stays the stripped request it canonically answers.
                if self.caching {
                    self.store.insert(req, page.clone());
                }
                Ok(page)
            }
            _ => Err(BrowseError::SessionExpired { url: req.url.to_string() }),
        }
    }

    /// Load an absolute URL.
    pub fn goto(&mut self, url: Url) -> Result<Arc<LoadedPage>, BrowseError> {
        let page = self.request(Request::get(url))?;
        self.current = Some(page.clone());
        Ok(page)
    }

    /// Follow the link with the given anchor text on the current page.
    pub fn follow_link(&mut self, text: &str) -> Result<Arc<LoadedPage>, BrowseError> {
        let current = self.current.clone().ok_or(BrowseError::NoCurrentPage)?;
        let link =
            current.link_by_text(text).ok_or_else(|| BrowseError::NoSuchLink(text.to_string()))?;
        let target = current.url.resolve(&link.href);
        let page = self.request(Request::get(target))?;
        self.current = Some(page.clone());
        Ok(page)
    }

    /// Follow a link on a *given* page (not necessarily current) — used
    /// by the executor, whose "current page" is a logic variable.
    pub fn follow_on(
        &mut self,
        page: &LoadedPage,
        href: &str,
    ) -> Result<Arc<LoadedPage>, BrowseError> {
        let target = page.url.resolve(href);
        let loaded = self.request(Request::get(target))?;
        self.current = Some(loaded.clone());
        Ok(loaded)
    }

    /// Fill out and submit the form with the given action on `page`.
    /// `values` are (field name, value) pairs for settable fields;
    /// hidden fields are submitted automatically; fields with finite
    /// domains reject out-of-domain values (a browser would not let you
    /// type into a select).
    pub fn submit_on(
        &mut self,
        page: &LoadedPage,
        form_action: &str,
        values: &[(String, String)],
    ) -> Result<Arc<LoadedPage>, BrowseError> {
        let form = page
            .form_by_action(form_action)
            .ok_or_else(|| BrowseError::NoSuchForm(form_action.to_string()))?;
        let mut params: Vec<(String, String)> = Vec::new();
        for f in form.data_fields() {
            match &f.kind {
                WidgetKind::Hidden => {
                    params.push((f.name.clone(), f.default.clone().unwrap_or_default()));
                }
                kind => {
                    if let Some((_, v)) = values.iter().find(|(n, _)| *n == f.name) {
                        if let Some(domain) = kind.domain() {
                            if !domain.contains(v) && !v.is_empty() {
                                return Err(BrowseError::ValueOutsideDomain {
                                    field: f.name.clone(),
                                    value: v.clone(),
                                });
                            }
                        }
                        if !v.is_empty() {
                            params.push((f.name.clone(), v.clone()));
                        }
                    }
                }
            }
        }
        let target = page.url.resolve(&form.action);
        let req = if form.method == "post" {
            Request::post(target, params)
        } else {
            Request::get(target.with_query(params))
        };
        let loaded = self.request(req)?;
        self.current = Some(loaded.clone());
        Ok(loaded)
    }

    /// Submit the form with the given action on the *current* page.
    pub fn submit_form(
        &mut self,
        form_action: &str,
        values: &[(String, String)],
    ) -> Result<Arc<LoadedPage>, BrowseError> {
        let current = self.current.clone().ok_or(BrowseError::NoCurrentPage)?;
        self.submit_on(&current, form_action, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_webworld::data::Dataset;

    fn web() -> SyntheticWeb {
        standard_web(Dataset::generate(5, 400), LatencyModel::lan())
    }

    fn newsday_home() -> Url {
        Url::parse("http://www.newsday.com/").expect("valid url")
    }

    #[test]
    fn browse_newsday_chain() {
        let mut b = Browser::new(web());
        b.goto(newsday_home()).expect("home loads");
        b.follow_link("Automobiles").expect("auto hub");
        let ucp = b.follow_link("Used Cars").expect("used car page");
        assert_eq!(ucp.forms.len(), 1);
        let result = b
            .submit_form("/cgi-bin/nclassy", &[("make".into(), "ford".into())])
            .expect("form submits");
        // ford is popular → refine page (form f2) or data page
        assert!(!result.forms.is_empty() || !extract::tables(&result.doc).is_empty());
    }

    #[test]
    fn missing_link_and_form_errors() {
        let mut b = Browser::new(web());
        assert!(matches!(b.follow_link("x"), Err(BrowseError::NoCurrentPage)));
        b.goto(newsday_home()).expect("home loads");
        assert!(matches!(b.follow_link("No Such Link"), Err(BrowseError::NoSuchLink(_))));
        assert!(matches!(b.submit_form("/nope", &[]), Err(BrowseError::NoSuchForm(_))));
    }

    #[test]
    fn select_domain_enforced() {
        let mut b = Browser::new(web());
        b.goto(newsday_home()).expect("home");
        b.follow_link("Automobiles").expect("hub");
        b.follow_link("Used Cars").expect("ucp");
        let err = b
            .submit_form("/cgi-bin/nclassy", &[("make".into(), "zeppelin".into())])
            .expect_err("domain violation");
        assert!(matches!(err, BrowseError::ValueOutsideDomain { .. }));
    }

    #[test]
    fn cache_serves_repeat_requests() {
        let mut b = Browser::new(web());
        b.goto(newsday_home()).expect("home");
        b.goto(newsday_home()).expect("home again");
        assert_eq!(b.fetches, 1);
        assert_eq!(b.cache_hits, 1);
        let mut nb = Browser::without_cache(web());
        nb.goto(newsday_home()).expect("home");
        nb.goto(newsday_home()).expect("home again");
        assert_eq!(nb.fetches, 2);
    }

    #[test]
    fn signature_generalises_ids() {
        assert_eq!(generalize_path("/car/123"), "/car/*");
        assert_eq!(generalize_path("/cars/ford"), "/cars/ford");
        assert_eq!(generalize_path("/a1b22c"), "/a*b*c");
    }

    #[test]
    fn http_errors_surface() {
        let mut b = Browser::new(web());
        let err = b
            .goto(Url::parse("http://www.newsday.com/nonexistent").expect("valid"))
            .expect_err("404");
        assert!(matches!(err, BrowseError::HttpError { status: 404, .. }));
    }

    #[test]
    fn hidden_fields_submitted_automatically() {
        let mut b = Browser::new(web());
        // Reach the kellys condition page, whose form carries make/model
        // as hidden fields.
        b.goto(Url::parse("http://www.kbb.com/condition?make=ford&model=escort").expect("valid"))
            .expect("condition page");
        let page = b
            .submit_form(
                "/cgi-bin/bb",
                &[("condition".into(), "good".into()), ("pricetype".into(), "retail".into())],
            )
            .expect("submit with hidden fields");
        let tables = extract::tables(&page.doc);
        assert!(!tables.is_empty(), "price page is a data page");
        assert_eq!(tables[0].rows[0][0], "ford");
    }

    /// A site that serves 500 for its first `fails` requests, then
    /// recovers — the transient-outage shape retries exist for.
    struct RecoveringSite {
        fails: u64,
        counter: std::sync::atomic::AtomicU64,
    }

    impl RecoveringSite {
        fn new(fails: u64) -> RecoveringSite {
            RecoveringSite { fails, counter: std::sync::atomic::AtomicU64::new(0) }
        }
    }

    impl webbase_webworld::server::Site for RecoveringSite {
        fn host(&self) -> &str {
            "recover.test"
        }
        fn handle(&self, _req: &Request) -> Response {
            let n = self.counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n < self.fails {
                let mut resp = Response::ok("<html><body><h1>500</h1>".to_string());
                resp.status = 500;
                resp
            } else {
                Response::ok("<html><head><title>ok</title></head><body><p>up</p>".to_string())
            }
        }
    }

    fn single_site_web(site: impl webbase_webworld::server::Site + 'static) -> SyntheticWeb {
        SyntheticWeb::builder().site(site).latency(LatencyModel::zero()).build()
    }

    /// A site that takes real time to answer, so concurrent sessions
    /// all miss its page before the first fetch returns.
    struct SlowSite;

    impl webbase_webworld::server::Site for SlowSite {
        fn host(&self) -> &str {
            "slow.test"
        }
        fn handle(&self, _req: &Request) -> Response {
            std::thread::sleep(Duration::from_millis(40));
            Response::ok("<html><head><title>slow</title></head></html>".to_string())
        }
    }

    #[test]
    fn sessions_missing_one_cold_page_share_one_wire_fetch() {
        let web = single_site_web(SlowSite);
        let store = PageStore::new();
        let sessions = 6;
        let barrier = std::sync::Barrier::new(sessions);
        std::thread::scope(|scope| {
            for _ in 0..sessions {
                let mut b =
                    Browser::with_store(web.clone(), FetchPolicy::default_policy(), store.clone());
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    b.goto(Url::new("slow.test", "/")).expect("page");
                });
            }
        });
        assert_eq!(web.total_stats().requests, 1, "concurrent misses fetched the page twice");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn retry_recovers_transient_failure() {
        let mut b = Browser::new(single_site_web(RecoveringSite::new(1)));
        let page = b.goto(Url::new("recover.test", "/")).expect("retry recovers");
        assert_eq!(page.title, "ok");
        assert_eq!(b.fetches, 2, "one failure + one successful retry");
        assert_eq!(b.retries, 1);
        // Backoff was charged to the simulated clock, never slept.
        assert!(b.simulated_network >= b.policy.backoff_for(0));
        let report = b.degradation();
        let site = report.sites["recover.test"];
        assert_eq!((site.failures, site.retries), (1, 1));
        assert!(!site.breaker_open, "recovered site closes the breaker");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::Closed);
    }

    #[test]
    fn retries_exhausted_returns_last_error() {
        let policy = FetchPolicy { breaker_threshold: 0, ..FetchPolicy::default_policy() };
        let mut b = Browser::with_policy(single_site_web(RecoveringSite::new(10)), policy);
        let err = b.goto(Url::new("recover.test", "/")).expect_err("still down");
        assert!(matches!(err, BrowseError::HttpError { status: 500, .. }));
        assert_eq!(b.fetches, 1 + policy.max_retries);
    }

    #[test]
    fn timeout_charges_the_timeout_not_the_stall() {
        use webbase_webworld::faults::StallingSite;
        let web =
            single_site_web(StallingSite::new(RecoveringSite::new(0), 1, Duration::from_secs(120)));
        let policy = FetchPolicy {
            max_retries: 0,
            timeout: Some(Duration::from_secs(10)),
            breaker_threshold: 0,
            ..FetchPolicy::default_policy()
        };
        let mut b = Browser::with_policy(web, policy);
        let err = b.goto(Url::new("recover.test", "/")).expect_err("stall > timeout");
        assert!(
            matches!(err, BrowseError::Timeout { after, .. } if after == Duration::from_secs(10))
        );
        // The client hung up at the timeout mark: it is charged 10s of
        // simulated waiting, not the server's 120s stall.
        assert_eq!(b.simulated_network, Duration::from_secs(10));
        let report = b.degradation();
        assert_eq!(report.sites["recover.test"].timeouts, 1);
    }

    #[test]
    fn breaker_opens_fails_fast_and_half_open_probes() {
        use webbase_webworld::faults::FlakySite;
        // Permanently dead site (every request 500s).
        let web = single_site_web(FlakySite::new(RecoveringSite::new(0), 1));
        let mut b = Browser::new(web);
        let url = Url::new("recover.test", "/");

        // First logical request: initial attempt + retries until the
        // threshold trips the breaker mid-loop.
        let err = b.goto(url.clone()).expect_err("dead site");
        assert!(matches!(err, BrowseError::HttpError { status: 500, .. }));
        assert_eq!(b.fetches, b.policy.breaker_threshold, "trip stops the retry loop");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::Open);

        // While open: fail fast, no network traffic.
        let fetches_when_opened = b.fetches;
        for _ in 0..b.policy.breaker_cooldown {
            let err = b.goto(url.clone()).expect_err("open circuit");
            assert!(matches!(err, BrowseError::CircuitOpen { .. }));
        }
        assert_eq!(b.fetches, fetches_when_opened, "open circuit never fetches");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::HalfOpen);

        // Half-open: exactly one unretried probe goes through; it fails,
        // so the breaker re-opens.
        let err = b.goto(url.clone()).expect_err("probe fails");
        assert!(matches!(err, BrowseError::HttpError { status: 500, .. }));
        assert_eq!(b.fetches, fetches_when_opened + 1, "single probe, no retries");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::Open);

        let report = b.degradation();
        let site = report.sites["recover.test"];
        assert_eq!(site.breaker_trips, 2);
        assert_eq!(site.fast_failures, b.policy.breaker_cooldown as u64);
        assert!(site.breaker_open);
    }

    #[test]
    fn half_open_probe_success_closes_the_breaker() {
        // Dead for exactly the attempts that trip the breaker, healthy after.
        let policy = FetchPolicy::default_policy();
        let web = single_site_web(RecoveringSite::new(policy.breaker_threshold as u64));
        let mut b = Browser::with_policy(web, policy);
        let url = Url::new("recover.test", "/");
        b.goto(url.clone()).expect_err("trips");
        for _ in 0..policy.breaker_cooldown {
            b.goto(url.clone()).expect_err("open");
        }
        let page = b.goto(url).expect("probe succeeds, site recovered");
        assert_eq!(page.title, "ok");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::Closed);
        assert!(!b.degradation().sites["recover.test"].breaker_open);
    }

    /// A paginated CGI whose pages link onward with query hrefs — the
    /// shape [`ExpiringSessionSite`] threads its tokens through.
    struct Pager;
    impl webbase_webworld::server::Site for Pager {
        fn host(&self) -> &str {
            "pager.test"
        }
        fn handle(&self, req: &Request) -> Response {
            let page: u32 =
                req.param_nonempty("page").and_then(|p| p.parse().ok()).unwrap_or_default();
            Response::ok(format!(
                "<html><head><title>page {page}</title></head><body>\
                 <p>page {page}</p><a href=\"/list?page={}\">More</a>",
                page + 1
            ))
        }
    }

    #[test]
    fn stale_session_replays_from_checkpointed_inputs() {
        use webbase_webworld::faults::ExpiringSessionSite;
        // ttl 0: every granted token is stale by the time it is used.
        let mut b = Browser::new(single_site_web(ExpiringSessionSite::new(Pager, 0)));
        let p0 = b.goto(Url::new("pager.test", "/list")).expect("grant");
        let more = p0.link_by_text("More").expect("has More").href.clone();
        assert!(more.contains("sess="), "token threaded through the chain: {more}");
        let p1 = b.follow_on(&p0, &more).expect("stale token recovered");
        assert_eq!(p1.title, "page 1", "chain resumes at the checkpoint, not the start");
        assert_eq!(b.session_recoveries()["pager.test"], 1);
        assert!(b.degradation().is_clean(), "session churn is not a site failure");

        // Backtracking re-issues the stale request verbatim: the cache
        // absorbs it without another round of recovery.
        let fetches = b.fetches;
        let again = b.follow_on(&p0, &more).expect("cached");
        assert!(Arc::ptr_eq(&p1, &again));
        assert_eq!(b.fetches, fetches);
        assert_eq!(b.session_recoveries()["pager.test"], 1);
    }

    #[test]
    fn unrecoverable_session_expiry_surfaces() {
        // A 440 naming a parameter the request does not carry cannot be
        // replayed — the error must say so rather than loop.
        struct Always440;
        impl webbase_webworld::server::Site for Always440 {
            fn host(&self) -> &str {
                "locked.test"
            }
            fn handle(&self, _req: &Request) -> Response {
                let mut resp = Response::ok("<html><body><p>expired-param: token</p>".to_string());
                resp.status = 440;
                resp
            }
        }
        let mut b = Browser::new(single_site_web(Always440));
        let err = b.goto(Url::new("locked.test", "/")).expect_err("no checkpoint to replay");
        assert!(matches!(err, BrowseError::SessionExpired { .. }));
    }

    #[test]
    fn budget_quota_denial_fails_cleanly() {
        use crate::budget::{BudgetTracker, QueryBudget};
        let mut b = Browser::new(single_site_web(RecoveringSite::new(0)));
        b.set_budget(Arc::new(BudgetTracker::new(QueryBudget::unlimited().with_fetch_quota(1))));
        b.goto(Url::new("recover.test", "/")).expect("first fetch admitted");
        b.goto(Url::new("recover.test", "/")).expect("cache hit is free");
        let err = b.goto(Url::new("recover.test", "/other")).expect_err("quota spent");
        assert!(
            matches!(
                &err,
                BrowseError::BudgetExhausted { denial: BudgetDenial::GlobalQuotaExhausted, .. }
            ),
            "got {err:?}"
        );
        assert!(err.is_degradation(), "exhaustion abandons the branch like a site fault");
        assert_eq!(b.fetches, 1, "the denied request never touched the network");
        assert_eq!(b.degradation().sites["recover.test"].budget_denied, 1);
        assert_eq!(b.journal().len(), 1, "only the admitted page is journalled");
    }

    #[test]
    fn retry_backoff_is_clipped_to_the_deadline() {
        use crate::budget::{BudgetTracker, QueryBudget};
        let policy = FetchPolicy { breaker_threshold: 0, ..FetchPolicy::default_policy() };
        let mut b = Browser::with_policy(single_site_web(RecoveringSite::new(10)), policy);
        let deadline = Duration::from_millis(50);
        let tracker =
            Arc::new(BudgetTracker::new(QueryBudget::unlimited().with_deadline(deadline)));
        b.set_budget(tracker.clone());
        // First attempt fails; the 100ms backoff exceeds the 50ms left,
        // so the retry is abandoned and only the remainder is charged —
        // never simulated time past the point any caller could use the
        // response.
        let err = b.goto(Url::new("recover.test", "/")).expect_err("down");
        assert!(matches!(err, BrowseError::HttpError { status: 500, .. }));
        assert_eq!(b.retries, 0, "clipped retry never happened");
        assert_eq!(b.simulated_network, deadline);
        assert_eq!(tracker.remaining_deadline(), Some(Duration::ZERO));
    }

    #[test]
    fn preloaded_journal_pages_serve_from_cache() {
        use crate::budget::{BudgetTracker, QueryBudget};
        let mut first = Browser::new(single_site_web(RecoveringSite::new(0)));
        first.set_budget(Arc::new(BudgetTracker::new(QueryBudget::unlimited())));
        let page = first.goto(Url::new("recover.test", "/")).expect("loads");
        let journal: Vec<_> = first.journal().to_vec();
        assert_eq!(journal.len(), 1);

        let mut resumed = Browser::new(single_site_web(RecoveringSite::new(0)));
        for entry in &journal {
            resumed.preload(entry);
        }
        let again = resumed.goto(Url::new("recover.test", "/")).expect("cache");
        assert_eq!(resumed.fetches, 0, "journalled page never re-fetched");
        assert_eq!(resumed.cache_hits, 1);
        assert_eq!(again.title, page.title);
        assert_eq!(again.signature(), page.signature(), "byte-identical reconstruction");
    }

    #[test]
    fn half_open_probe_defers_when_deadline_cannot_cover_it() {
        use crate::budget::{BudgetTracker, QueryBudget};
        use webbase_webworld::faults::FlakySite;
        let web = single_site_web(FlakySite::new(RecoveringSite::new(0), 1));
        let mut b = Browser::new(web);
        let url = Url::new("recover.test", "/");
        b.goto(url.clone()).expect_err("dead site trips the breaker");
        for _ in 0..b.policy.breaker_cooldown {
            b.goto(url.clone()).expect_err("open circuit");
        }
        assert_eq!(b.circuit_state("recover.test"), CircuitState::HalfOpen);
        // With less deadline left than the probe's worst case (the
        // policy timeout), the probe is deferred, not spent.
        let tracker = Arc::new(BudgetTracker::new(
            QueryBudget::unlimited().with_deadline(Duration::from_secs(1)),
        ));
        b.set_budget(tracker);
        let fetches = b.fetches;
        let err = b.goto(url).expect_err("probe deferred");
        assert!(matches!(err, BrowseError::CircuitOpen { .. }));
        assert_eq!(b.fetches, fetches, "no network spend on the deferred probe");
        assert_eq!(b.circuit_state("recover.test"), CircuitState::HalfOpen, "probe not consumed");
    }

    #[test]
    fn healthy_browsing_reports_clean() {
        let mut b = Browser::new(web());
        b.goto(newsday_home()).expect("home");
        b.follow_link("Automobiles").expect("hub");
        assert!(b.degradation().is_clean());
        assert_eq!(b.retries, 0);
    }

    #[test]
    fn empty_values_treated_as_unset() {
        let mut b = Browser::new(web());
        b.goto(Url::parse("http://www.kbb.com/condition?make=ford&model=escort").expect("valid"))
            .expect("page");
        // Year "" (the any option) must not be submitted, and must not
        // trip the domain check.
        let page = b
            .submit_form(
                "/cgi-bin/bb",
                &[
                    ("condition".into(), "good".into()),
                    ("pricetype".into(), "retail".into()),
                    ("year".into(), String::new()),
                ],
            )
            .expect("submits");
        assert!(extract::tables(&page.doc)[0].rows.len() > 1, "all years returned");
    }
}
