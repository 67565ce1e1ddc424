//! Execution of compiled navigation programs.
//!
//! "Navigation expressions are processed by the Transaction F-logic
//! interpreter … On top of XSB, we use the HTTP library … to follow
//! links, submit forms and retrieve documents from the Web."
//!
//! Here the interpreter is [`webbase_flogic::Machine`] and the HTTP
//! library is a [`Browser`] session over the simulated Web. The bridge
//! is [`NavOracle`]: when a page loads it asserts the page's F-logic
//! objects into the interpreter's store (class memberships, `actions`,
//! link `name`s, form `cgi`s) so the compiled rules can *pattern-match
//! on the Web* — and it implements the action builtins:
//!
//! * `fetch_entry(site, P)` — load a site's entry page;
//! * `doit(A, params(...), P′)` — execute action object `A` (follow the
//!   link / fill out and submit the form) and bind the resulting page;
//! * `doit_value(P, set, V, P′)` — follow the link of a link-defined
//!   attribute whose value is `V` (enumerates the set when `V` is
//!   unbound);
//! * `collect(P, spec, t(...))` — run a data page's extraction script,
//!   one solution per tuple.
//!
//! Oracle effects on the store are rolled back on backtracking (the
//! Transaction-Logic semantics); the fetches themselves are served from
//! the browser's cache on re-execution.

use crate::browser::{Browser, LoadedPage};
use crate::budget::{BudgetTracker, JournalEntry};
use crate::compile::{compile_map, CompiledRelation, CompiledSite};
use crate::extractor::ExtractionSpec;
use crate::healing::{apply_heal, needs_recompile, PageProbe, PendingChange, RepairReport};
use crate::map::{NavigationMap, NodeId, NodeKind};
use crate::resilience::{DegradationReport, FetchPolicy};
use crate::store::PageStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webbase_flogic::oracle::{Oracle, OracleOutcome};
use webbase_flogic::store::ObjectStore;
use webbase_flogic::term::{Sym, Term};
use webbase_flogic::unify::Bindings;
use webbase_flogic::{Machine, Program};
use webbase_obs::{Metric, Obs, SpanHandle, SpanKind};
use webbase_relational::Value;
use webbase_webworld::prelude::*;

/// A concrete, executable action attached to an asserted action object.
#[derive(Debug, Clone)]
enum ConcreteAction {
    Follow { page: usize, href: String, text: String },
    Submit { page: usize, cgi: String },
}

/// The symbols the bridge dispatches on and asserts, interned once per
/// process instead of once per call.
struct Syms {
    fetch_entry: Sym,
    goto_url: Sym,
    doit: Sym,
    doit_value: Sym,
    collect: Sym,
    web_page: Sym,
    data_page: Sym,
    address: Sym,
    title: Sym,
    link_follow: Sym,
    form_submit: Sym,
    name: Sym,
    cgi: Sym,
    source: Sym,
    actions: Sym,
    t: Sym,
    pair: Sym,
}

fn syms() -> &'static Syms {
    static SYMS: OnceLock<Syms> = OnceLock::new();
    SYMS.get_or_init(|| Syms {
        fetch_entry: Sym::new("fetch_entry"),
        goto_url: Sym::new("goto_url"),
        doit: Sym::new("doit"),
        doit_value: Sym::new("doit_value"),
        collect: Sym::new("collect"),
        web_page: Sym::new("web_page"),
        data_page: Sym::new("data_page"),
        address: Sym::new("address"),
        title: Sym::new("title"),
        link_follow: Sym::new("link_follow"),
        form_submit: Sym::new("form_submit"),
        name: Sym::new("name"),
        cgi: Sym::new("cgi"),
        source: Sym::new("source"),
        actions: Sym::new("actions"),
        t: Sym::new("t"),
        pair: Sym::new("pair"),
    })
}

/// One molecule of a page's F-logic objects.
#[derive(Debug)]
enum Fact {
    Isa(Term, Sym),
    Scalar(Term, Sym, Term),
    SetVal(Term, Sym, Term),
}

/// A page as the interpreter sees it. Pages are immutable and a
/// navigator's extraction specs are fixed, so the oid, the molecules
/// (resolved link addresses, action objects, the data-page class) are
/// built on the page's first sight and re-asserted, as they are, into
/// every later run's fresh store.
struct InternedPage {
    page: Arc<LoadedPage>,
    oid: Term,
    facts: Vec<Fact>,
}

/// The oracle: browser + page/action registries + extraction specs.
pub struct NavOracle {
    browser: Browser,
    pages: Vec<InternedPage>,
    /// Page oid → index into `pages`.
    oids: HashMap<Sym, usize>,
    /// Loaded-page identity → page index (so backtracked re-executions
    /// reuse oids). Keyed by the page's canonical *request*: distinct
    /// requests — including POSTs to one URL with different form
    /// parameters — get distinct pages (a URL key would conflate those
    /// POSTs), while the same request always names the same page even
    /// if the cache evicted and refetched it in between. (The old
    /// pointer key broke exactly there: eviction re-allocated the page
    /// and silently minted a second identity for it.)
    page_ids: HashMap<Request, usize>,
    actions: HashMap<Sym, ConcreteAction>,
    specs: HashMap<String, ExtractionSpec>,
    value_link_sets: HashMap<String, Vec<(String, String)>>,
    /// In-flight drift detector; `None` when self-healing is disabled.
    probe: Option<PageProbe>,
}

impl NavOracle {
    pub fn new(web: SyntheticWeb, caching: bool) -> NavOracle {
        NavOracle::with_policy(web, caching, FetchPolicy::default_policy())
    }

    /// An oracle whose browser applies an explicit [`FetchPolicy`].
    pub fn with_policy(web: SyntheticWeb, caching: bool, policy: FetchPolicy) -> NavOracle {
        NavOracle::with_store(web, caching, policy, PageStore::new())
    }

    /// An oracle whose browser reads through a caller-supplied (possibly
    /// shared) page store.
    pub fn with_store(
        web: SyntheticWeb,
        caching: bool,
        policy: FetchPolicy,
        store: PageStore,
    ) -> NavOracle {
        let mut browser = Browser::with_store(web, policy, store);
        browser.caching = caching;
        NavOracle {
            browser,
            pages: Vec::new(),
            oids: HashMap::new(),
            page_ids: HashMap::new(),
            actions: HashMap::new(),
            specs: HashMap::new(),
            value_link_sets: HashMap::new(),
            probe: None,
        }
    }

    /// Arm the in-flight drift detector against a recorded map.
    pub(crate) fn set_probe(&mut self, probe: PageProbe) {
        self.probe = Some(probe);
    }

    pub(crate) fn clear_probe(&mut self) {
        self.probe = None;
    }

    /// Drain the drift detections accumulated since the last drain.
    pub(crate) fn take_probe_pending(&mut self) -> Vec<PendingChange> {
        self.probe.as_mut().map(PageProbe::take_pending).unwrap_or_default()
    }

    pub(crate) fn probe_quarantine(&mut self, node: NodeId) {
        if let Some(p) = &mut self.probe {
            p.quarantine(node);
        }
    }

    /// Re-snapshot the probe's catalogue from a repaired map (keeps the
    /// quarantine set).
    pub(crate) fn rebuild_probe(&mut self, map: &NavigationMap) {
        if let Some(p) = &self.probe {
            self.probe = Some(p.rebuilt_from(map));
        }
    }

    /// Stale CGI sessions replayed per host (HTTP 440 recovery).
    pub fn session_recoveries(&self) -> &HashMap<String, u64> {
        self.browser.session_recoveries()
    }

    /// Attach (or detach, with `None`) the query budget this oracle's
    /// browser spends against.
    pub fn set_budget(&mut self, budget: Option<Arc<BudgetTracker>>) {
        self.browser.set_budget(budget);
    }

    /// Attach (or detach) the cancellation token this oracle's browser
    /// polls.
    pub fn set_cancel(&mut self, cancel: Option<crate::cancel::CancelToken>) {
        self.browser.set_cancel(cancel);
    }

    /// Attach shared per-host connection pools on the browser.
    pub fn set_pool(&mut self, pool: Arc<crate::pool::HostPools>) {
        self.browser.set_pool(pool);
    }

    /// Attach (or detach) the observability handle on the browser.
    pub fn set_obs(&mut self, obs: Obs) {
        self.browser.set_obs(obs);
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        self.browser.obs()
    }

    /// Open a navigation-step span on `host`, counting the step. The
    /// label is only built when tracing is live.
    fn nav_span(&self, host: &str, label: impl FnOnce() -> String) -> SpanHandle {
        let obs = self.browser.obs();
        obs.count(Metric::NavSteps);
        if obs.tracing() {
            obs.sink.advance(host, self.browser.simulated_network);
            obs.sink.begin(host, SpanKind::Nav, label(), Vec::new())
        } else {
            SpanHandle::INERT
        }
    }

    /// Close a navigation-step span at the host's advanced clock.
    fn nav_end(&self, host: &str, span: SpanHandle) {
        let obs = self.browser.obs();
        if obs.tracing() {
            obs.sink.advance(host, self.browser.simulated_network);
            obs.sink.end(span);
        }
    }

    /// The pages fetched while a budget was attached (the resume
    /// token's page intern).
    pub fn journal(&self) -> &[JournalEntry] {
        self.browser.journal()
    }

    /// Intern a journalled page into the fetch cache (resume path).
    pub fn preload(&mut self, entry: &JournalEntry) {
        self.browser.preload(entry);
    }

    pub fn register_spec(&mut self, id: &str, spec: ExtractionSpec) {
        self.specs.insert(id.to_string(), spec);
    }

    pub fn register_value_links(&mut self, id: &str, choices: Vec<(String, String)>) {
        self.value_link_sets.insert(id.to_string(), choices);
    }

    pub fn fetches(&self) -> u32 {
        self.browser.fetches
    }

    pub fn cache_hits(&self) -> u32 {
        self.browser.cache_hits
    }

    pub fn retries(&self) -> u32 {
        self.browser.retries
    }

    pub fn simulated_network(&self) -> Duration {
        self.browser.simulated_network
    }

    /// The fetch policy the oracle's browser applies.
    pub fn policy(&self) -> FetchPolicy {
        self.browser.policy
    }

    /// Per-site degradation accumulated by the oracle's browser.
    pub fn degradation(&self) -> DegradationReport {
        self.browser.degradation()
    }

    /// Whether [`NavOracle::degradation`] would report clean, without
    /// building the report.
    pub fn is_clean(&self) -> bool {
        self.browser.is_clean()
    }

    /// Count an abandoned navigation branch when `err` is a server-side
    /// degradation (5xx, timeout, open circuit) rather than a
    /// navigation mistake.
    fn note_branch(&mut self, host: &str, err: &crate::browser::BrowseError) {
        if err.is_degradation() {
            self.browser.note_abandoned_branch(host);
        }
    }

    /// The Web this oracle browses.
    pub fn web(&self) -> SyntheticWeb {
        self.browser.web()
    }

    /// Register (or find) a page, asserting its F-logic objects.
    fn intern_page(&mut self, page: Arc<LoadedPage>, store: &mut ObjectStore) -> Term {
        let idx = match self.page_ids.get(&page.request) {
            Some(&i) => i,
            None => {
                let i = self.pages.len();
                self.page_ids.insert(page.request.clone(), i);
                // First sight of this page: check it against the
                // recorded catalogue for structural drift.
                if let Some(p) = &mut self.probe {
                    p.inspect(&page.request, &page);
                }
                let interned = self.page_facts(i, page);
                self.oids.insert(term_sym(&interned.oid), i);
                self.pages.push(interned);
                i
            }
        };
        // (Re-)assert the page's molecules. Idempotent inserts make
        // re-assertion after backtracking safe.
        let interned = &self.pages[idx];
        for fact in &interned.facts {
            match fact {
                Fact::Isa(o, c) => store.insert_isa(o.clone(), *c),
                Fact::Scalar(o, a, v) => store.insert_scalar(o.clone(), *a, v.clone()),
                Fact::SetVal(o, a, v) => store.insert_setval(o.clone(), *a, v.clone()),
            }
        }
        interned.oid.clone()
    }

    /// Build page `idx`'s oid and molecules, registering its actions.
    fn page_facts(&mut self, idx: usize, page: Arc<LoadedPage>) -> InternedPage {
        let s = syms();
        let oid = Term::atom(&format!("pg{idx}"));
        let mut facts = vec![Fact::Isa(oid.clone(), s.web_page)];
        if self.specs.values().any(|spec| spec.matches(&page.doc)) {
            facts.push(Fact::Isa(oid.clone(), s.data_page));
        }
        facts.push(Fact::Scalar(oid.clone(), s.address, Term::str(page.url.to_string())));
        facts.push(Fact::Scalar(oid.clone(), s.title, Term::str(page.title.clone())));
        for (k, link) in page.links.iter().enumerate() {
            let a = Term::atom(&format!("act_pg{idx}_l{k}"));
            facts.push(Fact::Isa(a.clone(), s.link_follow));
            facts.push(Fact::Scalar(a.clone(), s.name, Term::atom(&link.text)));
            // Absolute target address — what the paper's expression
            // `link(name -> 'Car Features', address -> Url)` unifies
            // against, and what the `@url` extraction pseudo-source
            // produces for the page itself.
            let address = page.url.resolve(&link.href).to_string();
            facts.push(Fact::Scalar(a.clone(), s.address, Term::Str(address)));
            facts.push(Fact::Scalar(a.clone(), s.source, oid.clone()));
            facts.push(Fact::SetVal(oid.clone(), s.actions, a.clone()));
            self.actions.insert(
                term_sym(&a),
                ConcreteAction::Follow {
                    page: idx,
                    href: link.href.clone(),
                    text: link.text.clone(),
                },
            );
        }
        for (k, form) in page.forms.iter().enumerate() {
            let a = Term::atom(&format!("act_pg{idx}_f{k}"));
            facts.push(Fact::Isa(a.clone(), s.form_submit));
            facts.push(Fact::Scalar(a.clone(), s.cgi, Term::atom(&form.action)));
            facts.push(Fact::Scalar(a.clone(), s.source, oid.clone()));
            facts.push(Fact::SetVal(oid.clone(), s.actions, a.clone()));
            self.actions.insert(
                term_sym(&a),
                ConcreteAction::Submit { page: idx, cgi: form.action.clone() },
            );
        }
        InternedPage { page, oid, facts }
    }

    fn page_of(&self, term: &Term) -> Option<Arc<LoadedPage>> {
        let Term::Atom(s) = term else { return None };
        self.oids.get(s).map(|&i| self.pages[i].page.clone())
    }

    fn builtin_fetch_entry(&mut self, args: &[Term], store: &mut ObjectStore) -> OracleOutcome {
        let site = match &args[0] {
            Term::Str(s) => s.clone(),
            Term::Atom(a) => a.name(),
            _ => return OracleOutcome::Fail,
        };
        // Looked up per call: a map over every host of the Web, built
        // per navigator, would make each session cost grow with the
        // whole Web rather than with the sites a query visits.
        let Some(url) = self.browser.web().entry(&site) else {
            return OracleOutcome::Fail;
        };
        // Cooperative deadline check before the chain even starts.
        if let Err(e) = self.browser.budget_check(&url.host) {
            self.note_branch(&url.host, &e);
            return OracleOutcome::Fail;
        }
        let span = self.nav_span(&url.host, || format!("entry {site}"));
        let result = self.browser.goto(url.clone());
        self.nav_end(&url.host, span);
        match result {
            Ok(page) => {
                let oid = self.intern_page(page, store);
                OracleOutcome::Solutions(vec![vec![args[0].clone(), oid]])
            }
            Err(e) => {
                self.note_branch(&url.host, &e);
                OracleOutcome::Fail
            }
        }
    }

    /// `goto_url(Url, P)` — dereference a bound page address directly
    /// (the invocation mode of handles whose mandatory attribute is the
    /// page URL, like `newsdayCarFeatures`).
    fn builtin_goto_url(&mut self, args: &[Term], store: &mut ObjectStore) -> OracleOutcome {
        let Term::Str(url_str) = &args[0] else {
            // Unbound or non-string address: this invocation mode needs
            // the URL supplied.
            return OracleOutcome::Fail;
        };
        let Some(url) = Url::parse(url_str) else { return OracleOutcome::Fail };
        if let Err(e) = self.browser.budget_check(&url.host) {
            self.note_branch(&url.host, &e);
            return OracleOutcome::Fail;
        }
        let span = self.nav_span(&url.host, || format!("goto {url_str}"));
        let result = self.browser.goto(url.clone());
        self.nav_end(&url.host, span);
        match result {
            Ok(page) => {
                let oid = self.intern_page(page, store);
                OracleOutcome::Solutions(vec![vec![args[0].clone(), oid]])
            }
            Err(e) => {
                self.note_branch(&url.host, &e);
                OracleOutcome::Fail
            }
        }
    }

    fn builtin_doit(&mut self, args: &[Term], store: &mut ObjectStore) -> OracleOutcome {
        let Term::Atom(action_sym) = &args[0] else { return OracleOutcome::Fail };
        let Some(concrete) = self.actions.get(action_sym).cloned() else {
            return OracleOutcome::Fail;
        };
        // Cooperative deadline check per action — this is what cancels
        // a "More" chain cleanly *between* iterations instead of
        // mid-parse.
        let check_host = match &concrete {
            ConcreteAction::Follow { page, .. } | ConcreteAction::Submit { page, .. } => {
                self.pages[*page].page.url.host.clone()
            }
        };
        if let Err(e) = self.browser.budget_check(&check_host) {
            self.note_branch(&check_host, &e);
            return OracleOutcome::Fail;
        }
        let (result, host) = match concrete {
            ConcreteAction::Follow { page, href, text } => {
                let page = self.pages[page].page.clone();
                let host = page.url.host.clone();
                let span = self.nav_span(&host, || format!("follow '{text}'"));
                let result = self.browser.follow_on(&page, &href);
                self.nav_end(&host, span);
                (result, host)
            }
            ConcreteAction::Submit { page, cgi } => {
                let page = self.pages[page].page.clone();
                let host = page.url.host.clone();
                let values = params_to_values(&args[1]);
                // Fail fast when a widget-inferred mandatory field is
                // left unbound — the site would refuse anyway.
                if let Some(form) = page.form_by_action(&cgi) {
                    for name in form.inferred_mandatory_fields() {
                        let supplied = values.iter().any(|(n, v)| n == name && !v.is_empty());
                        let has_default = form
                            .field(name)
                            .is_some_and(|f| f.default.as_deref().is_some_and(|d| !d.is_empty()));
                        if !supplied && !has_default {
                            return OracleOutcome::Fail;
                        }
                    }
                }
                let span = self.nav_span(&host, || {
                    let params: Vec<String> =
                        values.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("submit {cgi} {{{}}}", params.join(", "))
                });
                let result = self.browser.submit_on(&page, &cgi, &values);
                self.nav_end(&host, span);
                (result, host)
            }
        };
        match result {
            Ok(next) => {
                let oid = self.intern_page(next, store);
                OracleOutcome::Solutions(vec![vec![args[0].clone(), args[1].clone(), oid]])
            }
            Err(e) => {
                self.note_branch(&host, &e);
                OracleOutcome::Fail
            }
        }
    }

    fn builtin_doit_value(&mut self, args: &[Term], store: &mut ObjectStore) -> OracleOutcome {
        let Some(page) = self.page_of(&args[0]) else { return OracleOutcome::Fail };
        let Term::Atom(set_sym) = &args[1] else { return OracleOutcome::Fail };
        let Some(choices) = self.value_link_sets.get(set_sym.as_str()).cloned() else {
            return OracleOutcome::Fail;
        };
        // Bound value → one choice; unbound → enumerate them all. The
        // recorder normalises choice values to lowercase, but replayed
        // and imported maps may carry the site's original casing — the
        // comparison must not care.
        let selected: Vec<(String, String)> = match &args[2] {
            Term::Str(v) => {
                choices.into_iter().filter(|(val, _)| val.eq_ignore_ascii_case(v)).collect()
            }
            Term::Atom(a) => {
                let v = a.as_str();
                choices.into_iter().filter(|(val, _)| val.eq_ignore_ascii_case(v)).collect()
            }
            Term::Var(_) => choices,
            _ => return OracleOutcome::Fail,
        };
        let bound = !matches!(&args[2], Term::Var(_));
        // Scanning the choices of a quarantined node is speculative work
        // on a drifted page: charge it to the owning site's quota only,
        // so the scan cannot drain other sites' share of the global
        // budget.
        let quarantined = self.probe.as_ref().is_some_and(|p| p.page_quarantined(&page));
        if quarantined {
            self.browser.set_site_only_charging(true);
        }
        let host = page.url.host.clone();
        let mut solutions = Vec::new();
        for (value, href) in selected {
            // Deadline check per choice: a long enumeration cancels
            // between follows, not mid-parse.
            if let Err(e) = self.browser.budget_check(&host) {
                self.note_branch(&host, &e);
                break;
            }
            let span = self.nav_span(&host, || format!("choice {}='{value}'", set_sym.name()));
            let result = self.browser.follow_on(&page, &href);
            self.nav_end(&host, span);
            match result {
                Ok(next) => {
                    let oid = self.intern_page(next, store);
                    // Echo the caller's own term back when it was bound:
                    // a case-insensitive match must still unify with it.
                    let value_term = if bound { args[2].clone() } else { Term::str(value) };
                    solutions.push(vec![args[0].clone(), args[1].clone(), value_term, oid]);
                }
                // A degraded choice is abandoned; the surviving choices
                // still answer (graceful partial enumeration).
                Err(e) => self.note_branch(&host, &e),
            }
        }
        if quarantined {
            self.browser.set_site_only_charging(false);
        }
        if solutions.is_empty() {
            OracleOutcome::Fail
        } else {
            OracleOutcome::Solutions(solutions)
        }
    }

    fn builtin_collect(&mut self, args: &[Term]) -> OracleOutcome {
        let Some(page) = self.page_of(&args[0]) else { return OracleOutcome::Fail };
        let Term::Atom(spec_sym) = &args[1] else { return OracleOutcome::Fail };
        let Some(spec) = self.specs.get(spec_sym.as_str()) else {
            return OracleOutcome::Fail;
        };
        let url = page.url.to_string();
        let records = spec.extract(&page.doc, &url);
        let attrs = spec.attrs();
        let solutions: Vec<Vec<Term>> = records
            .iter()
            .map(|rec| {
                let tuple_args: Vec<Term> = attrs
                    .iter()
                    .map(|a| value_to_term(rec.get(a).unwrap_or(&Value::Null)))
                    .collect();
                vec![args[0].clone(), args[1].clone(), Term::Compound(syms().t, tuple_args)]
            })
            .collect();
        let obs = self.browser.obs();
        if obs.tracing() {
            let host = page.url.host.clone();
            obs.sink.advance(&host, self.browser.simulated_network);
            obs.sink.event(
                &host,
                SpanKind::Nav,
                format!("collect {}", spec_sym.name()),
                vec![("rows", records.len().to_string())],
            );
        }
        OracleOutcome::Solutions(solutions)
    }
}

impl Oracle for NavOracle {
    fn call(
        &mut self,
        pred: Sym,
        args: &[Term],
        store: &mut ObjectStore,
        _bindings: &Bindings,
    ) -> OracleOutcome {
        let s = syms();
        match args.len() {
            2 if pred == s.fetch_entry => self.builtin_fetch_entry(args, store),
            2 if pred == s.goto_url => self.builtin_goto_url(args, store),
            3 if pred == s.doit => self.builtin_doit(args, store),
            4 if pred == s.doit_value => self.builtin_doit_value(args, store),
            3 if pred == s.collect => self.builtin_collect(args),
            _ => OracleOutcome::NotMine,
        }
    }
}

/// `params` / `params(pair(name, V), …)` → submission values; unbound
/// pairs are dropped (optional fields left blank).
fn params_to_values(t: &Term) -> Vec<(String, String)> {
    let Term::Compound(_, pairs) = t else { return Vec::new() };
    pairs
        .iter()
        .filter_map(|p| match p {
            Term::Compound(f, kv) if *f == syms().pair && kv.len() == 2 => {
                let name = match &kv[0] {
                    Term::Atom(a) => a.name(),
                    Term::Str(s) => s.clone(),
                    _ => return None,
                };
                let value = term_to_submit_value(&kv[1])?;
                Some((name, value))
            }
            _ => None,
        })
        .collect()
}

fn term_to_submit_value(t: &Term) -> Option<String> {
    match t {
        Term::Str(s) => Some(s.clone()),
        Term::Atom(a) => Some(a.name()),
        Term::Int(i) => Some(i.to_string()),
        Term::Float(f) => Some(f.to_string()),
        Term::Var(_) => None, // unbound: leave the field blank
        Term::Compound(..) => None,
    }
}

/// Relational value → logic term.
pub fn value_to_term(v: &Value) -> Term {
    match v {
        Value::Str(s) => Term::Str(s.clone()),
        Value::Int(i) => Term::Int(*i),
        Value::Float(f) => Term::Float(*f),
        Value::Bool(b) => Term::atom(if *b { "true" } else { "false" }),
        Value::Null => Term::atom("null"),
    }
}

/// Logic term → relational value.
pub fn term_to_value(t: &Term) -> Value {
    match t {
        Term::Str(s) => Value::Str(s.clone()),
        Term::Int(i) => Value::Int(*i),
        Term::Float(f) => Value::Float(*f),
        Term::Atom(a) if a.name() == "null" => Value::Null,
        Term::Atom(a) => Value::Str(a.name()),
        Term::Var(_) | Term::Compound(..) => Value::Null,
    }
}

fn term_sym(t: &Term) -> Sym {
    match t {
        Term::Atom(s) => *s,
        other => unreachable!("expected atom oid, got {other:?}"),
    }
}

/// The records of one navigation-program execution, as rows of values
/// aligned with the relation's attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub attrs: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// Statistics of one navigation-program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Pages fetched from the network.
    pub pages_fetched: u32,
    /// Cache hits during backtracking.
    pub cache_hits: u32,
    /// Retries spent recovering from transient failures.
    pub retries: u32,
    /// Simulated network time (includes retry backoff and timeouts).
    pub network: Duration,
    /// Real CPU time spent in the interpreter.
    pub cpu: Duration,
}

/// A site's compiled navigation programs, ready to execute.
///
/// The navigator keeps one long-lived [`NavOracle`] whose browser cache
/// persists across `run_relation` calls — so a dependent join that
/// invokes a relation once per key (the `newsdayCarFeatures` pattern)
/// re-traverses the site from the cache instead of the network.
///
/// The oracle and healing state sit behind mutexes (lock order: oracle
/// then healing, never the reverse), so a navigator shared behind an
/// `Arc` is `Send + Sync`; `run_relation` holds the oracle lock for the
/// whole run, serialising runs *per navigator* while distinct
/// navigators — even over one shared page store — run concurrently.
pub struct SiteNavigator {
    /// Shared with every other navigator built from the same map by the
    /// engine: compilation happens once, not per query.
    compiled: Arc<CompiledSite>,
    pub map: NavigationMap,
    oracle: Mutex<NavOracle>,
    /// Self-healing state; `None` when disabled. `map` stays the
    /// pristine recorded map — repairs go to a lazily cloned working
    /// copy inside.
    healing: Mutex<Option<HealState>>,
}

/// The navigator's self-healing side: the working (repaired) map, its
/// recompiled program, and the report of what happened.
#[derive(Default)]
struct HealState {
    /// Cloned from the recorded map on first repair.
    working: Option<NavigationMap>,
    /// Present once a repair touched compiled constants.
    compiled: Option<Arc<CompiledSite>>,
    report: RepairReport,
}

/// Navigation execution errors.
#[derive(Debug)]
pub enum NavError {
    UnknownRelation(String),
    Engine(webbase_flogic::interp::EngineError),
}

impl std::fmt::Display for NavError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NavError::UnknownRelation(r) => write!(f, "no navigation program for relation {r}"),
            NavError::Engine(e) => write!(f, "navigation engine error: {e}"),
        }
    }
}

impl std::error::Error for NavError {}

impl SiteNavigator {
    /// Compile a recorded map for execution against `web`.
    pub fn new(web: SyntheticWeb, map: NavigationMap) -> SiteNavigator {
        SiteNavigator::with_caching(web, map, true, FetchPolicy::default_policy())
    }

    /// Like [`SiteNavigator::new`] with an explicit [`FetchPolicy`]
    /// governing retries, timeouts, and circuit breaking.
    pub fn with_policy(
        web: SyntheticWeb,
        map: NavigationMap,
        policy: FetchPolicy,
    ) -> SiteNavigator {
        SiteNavigator::with_caching(web, map, true, policy)
    }

    /// Like [`SiteNavigator::new`] with the fetch cache disabled (the
    /// caching ablation benchmark). Preserves the fetch policy.
    pub fn without_cache(self) -> SiteNavigator {
        let oracle = self.oracle.into_inner();
        let policy = oracle.policy();
        let mut nav = SiteNavigator::with_caching(oracle.web(), self.map, false, policy);
        nav.compiled = self.compiled;
        nav
    }

    /// Disable query-time self-healing (the overhead-ablation
    /// benchmark): no drift probe, no repair/retry loop, no report.
    pub fn without_healing(self) -> SiteNavigator {
        self.oracle.lock().clear_probe();
        *self.healing.lock() = None;
        self
    }

    /// Per-site degradation accumulated over every run of this
    /// navigator (retries, timeouts, fast-fails, abandoned branches).
    pub fn degradation(&self) -> DegradationReport {
        self.oracle.lock().degradation()
    }

    /// Whether [`SiteNavigator::degradation`] would report clean,
    /// without building the report.
    pub fn is_clean(&self) -> bool {
        self.oracle.lock().is_clean()
    }

    /// What self-healing did across every run of this navigator:
    /// repairs auto-applied, runs replayed, sessions recovered, nodes
    /// quarantined.
    pub fn repair_report(&self) -> RepairReport {
        let mut report = self.healing.lock().as_ref().map(|h| h.report.clone()).unwrap_or_default();
        let oracle = self.oracle.lock();
        for (host, n) in oracle.session_recoveries() {
            report.site_mut(host).sessions_recovered = *n;
        }
        report
    }

    /// Attach the query budget every subsequent run spends against, or
    /// detach it (and the journal of the run it covered) with `None`.
    pub fn set_budget(&self, budget: Option<Arc<BudgetTracker>>) {
        self.oracle.lock().set_budget(budget);
    }

    /// Attach the cancellation token every subsequent run polls at its
    /// budget checkpoints, or detach it with `None`.
    pub fn set_cancel(&self, cancel: Option<crate::cancel::CancelToken>) {
        self.oracle.lock().set_cancel(cancel);
    }

    /// Attach (or detach, with [`Obs::none`]) the observability handle
    /// every subsequent run reports into. The navigator traces onto the
    /// track named after its site.
    pub fn set_obs(&self, obs: Obs) {
        self.oracle.lock().set_obs(obs);
    }

    /// Attach shared per-host connection pools to this navigator's
    /// browser session.
    pub fn set_pool(&self, pool: Arc<crate::pool::HostPools>) {
        self.oracle.lock().set_pool(pool);
    }

    /// The pages fetched while a budget was attached, in fetch order —
    /// this navigator's slice of a resume token's journal.
    pub fn journal(&self) -> Vec<JournalEntry> {
        self.oracle.lock().journal().to_vec()
    }

    /// Intern journalled pages into the fetch cache so a resumed query
    /// re-traverses them without network fetches.
    pub fn preload_journal<'a>(&self, entries: impl IntoIterator<Item = &'a JournalEntry>) {
        let mut oracle = self.oracle.lock();
        for entry in entries {
            oracle.preload(entry);
        }
    }

    fn with_caching(
        web: SyntheticWeb,
        map: NavigationMap,
        caching: bool,
        policy: FetchPolicy,
    ) -> SiteNavigator {
        // Shipped maps reach navigators only through the engine, whose
        // pre-flight rejects a map that does not compile.
        let compiled = Arc::new(compile_map(&map).expect("a navigator's map compiles"));
        SiteNavigator::from_artifacts(web, map, compiled, caching, policy, PageStore::new())
    }

    /// Build a session around *already-compiled* artifacts and a
    /// (possibly shared) page store — the multi-query engine's
    /// per-query constructor: compilation happens once per map, and
    /// every session over the same store serves the others' fetches.
    pub fn from_compiled(
        web: SyntheticWeb,
        map: NavigationMap,
        compiled: Arc<CompiledSite>,
        policy: FetchPolicy,
        store: PageStore,
    ) -> SiteNavigator {
        SiteNavigator::from_artifacts(web, map, compiled, true, policy, store)
    }

    fn from_artifacts(
        web: SyntheticWeb,
        map: NavigationMap,
        compiled: Arc<CompiledSite>,
        caching: bool,
        policy: FetchPolicy,
        store: PageStore,
    ) -> SiteNavigator {
        let mut oracle = NavOracle::with_store(web, caching, policy, store);
        // Register extraction specs (one per relation registration) and
        // link-defined attribute sets once, up front.
        for reg in &map.relations {
            if let NodeKind::Data(spec) = &map.node(reg.data_node).kind {
                oracle.register_spec(
                    &crate::compile::spec_id_for(&reg.relation, reg.data_node),
                    spec.clone(),
                );
            }
        }
        for (id, choices) in &compiled.value_link_sets {
            oracle.register_value_links(id, choices.clone());
        }
        oracle.set_probe(PageProbe::from_map(&map));
        SiteNavigator {
            compiled,
            map,
            oracle: Mutex::new(oracle),
            healing: Mutex::new(Some(HealState::default())),
        }
    }

    /// The shared compiled artifacts (for engines that reuse one
    /// compilation across many per-query sessions).
    pub fn compiled(&self) -> Arc<CompiledSite> {
        self.compiled.clone()
    }

    /// The compiled relations (name, attrs).
    pub fn relations(&self) -> &[CompiledRelation] {
        &self.compiled.relations
    }

    pub fn program(&self) -> &Program {
        &self.compiled.program
    }

    /// The Figure 4 reproduction: the program in concrete syntax.
    pub fn render_program(&self) -> String {
        crate::compile::render_program(&self.compiled)
    }

    /// Execute the navigation program of `relation`, with `given`
    /// attribute values bound, returning extracted records and run
    /// statistics.
    ///
    /// With self-healing enabled this is a repair loop: run, drain the
    /// probe's drift detections, auto-apply / quarantine, and — when a
    /// repair touched a constant baked into the program (a link name, a
    /// form CGI) — recompile the working map and replay the run once.
    /// The replay re-traverses mostly from the browser cache.
    pub fn run_relation<K: AsRef<str>>(
        &self,
        relation: &str,
        given: &[(K, Value)],
    ) -> Result<(Vec<crate::extractor::Record>, RunStats), NavError> {
        let (rows, stats) = self.run_rows(relation, given)?;
        let records = rows
            .rows
            .into_iter()
            .map(|row| rows.attrs.iter().cloned().zip(row).collect())
            .collect();
        Ok((records, stats))
    }

    /// [`SiteNavigator::run_relation`] with each record as a row of
    /// values aligned with [`Rows::attrs`], so no record repeats the
    /// attribute names.
    pub fn run_rows<K: AsRef<str>>(
        &self,
        relation: &str,
        given: &[(K, Value)],
    ) -> Result<(Rows, RunStats), NavError> {
        let mut oracle = self.oracle.lock();
        let (fetches0, hits0, retries0, net0) =
            (oracle.fetches(), oracle.cache_hits(), oracle.retries(), oracle.simulated_network());
        let obs = oracle.obs().clone();
        let span = if obs.tracing() {
            obs.sink.advance(&self.map.site, net0);
            let given_str: Vec<String> =
                given.iter().map(|(k, v)| format!("{}={v}", k.as_ref())).collect();
            obs.sink.begin(
                &self.map.site,
                SpanKind::NavRun,
                relation.to_string(),
                vec![("given", given_str.join(" "))],
            )
        } else {
            SpanHandle::INERT
        };
        let mut cpu = Duration::ZERO;
        let mut attempt = 0;
        let records = loop {
            let healing = self.healing.lock();
            let active: &CompiledSite =
                healing.as_ref().and_then(|h| h.compiled.as_deref()).unwrap_or(&self.compiled);
            let rel = active
                .relations
                .iter()
                .find(|r| r.name == relation)
                .ok_or_else(|| NavError::UnknownRelation(relation.to_string()))?;

            // Build the goal rel(T1..Tn) with given values bound; the
            // other attributes are the variables solved for.
            use webbase_flogic::term::Var;
            let bound: Vec<Option<&Value>> = rel
                .attrs
                .iter()
                .map(|attr| given.iter().find(|(a, _)| a.as_ref() == attr).map(|(_, v)| v))
                .collect();
            let args: Vec<Term> = bound
                .iter()
                .enumerate()
                .map(|(i, v)| v.map_or(Term::Var(Var(i as u32)), value_to_term))
                .collect();
            let goal = webbase_flogic::goal::Goal::Atom(Sym::new(relation), args);
            let vars: Vec<Var> =
                (0..bound.len()).filter(|&i| bound[i].is_none()).map(|i| Var(i as u32)).collect();

            let t0 = std::time::Instant::now();
            let mut machine =
                Machine::with_oracle(&active.program, ObjectStore::new(), &mut *oracle);
            let solutions = machine.solve_rows(&goal, &vars).map_err(NavError::Engine)?;
            cpu += t0.elapsed();

            // Each row: the solved values in attribute order, a given
            // attribute echoing its given value.
            let rows: Vec<Vec<Value>> = solutions
                .into_iter()
                .map(|solved| {
                    let mut solved = solved.iter();
                    bound
                        .iter()
                        .map(|given| match given {
                            Some(v) => (*v).clone(),
                            None => solved.next().map_or(Value::Null, term_to_value),
                        })
                        .collect()
                })
                .collect();
            let attrs = rel.attrs.clone();
            drop(machine);
            drop(healing);

            let pending = oracle.take_probe_pending();
            if pending.is_empty() || attempt >= 1 {
                break Rows { attrs, rows };
            }
            if !self.absorb_repairs(&mut oracle, &pending) {
                // Nothing the compiled program depends on changed: the
                // answers stand, the repaired map just reflects the site.
                break Rows { attrs, rows };
            }
            attempt += 1;
        };
        let stats = RunStats {
            pages_fetched: oracle.fetches() - fetches0,
            cache_hits: oracle.cache_hits() - hits0,
            retries: oracle.retries() - retries0,
            network: oracle.simulated_network() - net0,
            cpu,
        };
        if obs.tracing() {
            obs.sink.advance(&self.map.site, oracle.simulated_network());
            obs.sink.end_with(span, vec![("records", records.rows.len().to_string())]);
        }
        Ok((records, stats))
    }

    /// Classify and fold drained drift detections: auto-applicable
    /// changes repair the working map, manual-intervention changes
    /// quarantine their node for the rest of the query. Returns whether
    /// a repair touched compiled constants (→ recompile and replay).
    fn absorb_repairs(&self, oracle: &mut NavOracle, pending: &[PendingChange]) -> bool {
        use webbase_html::diff::Severity;
        let mut healing = self.healing.lock();
        let Some(state) = healing.as_mut() else { return false };
        let host = self.map.site.clone();
        let obs = oracle.obs().clone();
        let mut constants_changed = false;
        for p in pending {
            let site = state.report.site_mut(&host);
            match p.change.severity() {
                Severity::AutoApplicable => {
                    let entry = (p.node, p.change.clone());
                    if site.auto_applied.contains(&entry) {
                        continue;
                    }
                    let working = state.working.get_or_insert_with(|| self.map.clone());
                    apply_heal(working, p);
                    constants_changed |= needs_recompile(&p.change);
                    site.auto_applied.push(entry);
                    obs.count(Metric::Repairs);
                    if obs.tracing() {
                        obs.sink.advance(&host, oracle.simulated_network());
                        obs.sink.event(
                            &host,
                            SpanKind::Repair,
                            self.map.node(p.node).name.clone(),
                            vec![("change", format!("{:?}", p.change))],
                        );
                    }
                }
                Severity::ManualIntervention => {
                    if site.quarantined.iter().any(|(n, _)| *n == p.node) {
                        continue;
                    }
                    site.quarantined.push((p.node, self.map.node(p.node).name.clone()));
                    oracle.probe_quarantine(p.node);
                    obs.count(Metric::Quarantines);
                    if obs.tracing() {
                        obs.sink.advance(&host, oracle.simulated_network());
                        obs.sink.event(
                            &host,
                            SpanKind::Quarantine,
                            self.map.node(p.node).name.clone(),
                            vec![("change", format!("{:?}", p.change))],
                        );
                    }
                }
            }
        }
        if constants_changed {
            let working = state.working.as_ref().expect("repairs imply a working map");
            // Repairs rewrite constants, never a relation's fields.
            let compiled = compile_map(working).expect("a repaired map compiles");
            for (id, choices) in &compiled.value_link_sets {
                oracle.register_value_links(id, choices.clone());
            }
            oracle.rebuild_probe(working);
            state.report.site_mut(&host).steps_replayed += 1;
            state.compiled = Some(Arc::new(compiled));
            obs.count(Metric::Replays);
            if obs.tracing() {
                obs.sink.advance(&host, oracle.simulated_network());
                obs.sink.event(
                    &host,
                    SpanKind::Replay,
                    "recompiled program".to_string(),
                    Vec::new(),
                );
            }
        }
        constants_changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::{CellParse, FieldSpec};
    use crate::model::ActionDescr;
    use crate::recorder::{DesignerAction, Recorder};
    use std::sync::Arc;
    use webbase_webworld::data::{Dataset, SiteSlice};

    fn web_and_data() -> (SyntheticWeb, Arc<Dataset>) {
        let d = Dataset::generate(5, 600);
        (standard_web(d.clone(), LatencyModel::lan()), d)
    }

    fn newsday_navigator(web: SyntheticWeb, data: &Dataset) -> SiteNavigator {
        let session = crate::sessions::newsday(data);
        let (map, _) = Recorder::record(web.clone(), "www.newsday.com", &session).expect("records");
        SiteNavigator::new(web, map)
    }

    #[test]
    fn newsday_relation_end_to_end() {
        let (web, data) = web_and_data();
        let nav = newsday_navigator(web, &data);
        let (records, stats) = nav
            .run_relation(
                "newsday",
                &[
                    ("make".to_string(), Value::str("ford")),
                    ("model".to_string(), Value::str("escort")),
                ],
            )
            .expect("runs");
        let truth = data.matching(SiteSlice::Newsday, Some("ford"), Some("escort"));
        assert_eq!(records.len(), truth.len(), "all pages collected via More iteration");
        for r in &records {
            assert_eq!(r["make"], Value::str("ford"));
            assert_eq!(r["model"], Value::str("escort"));
            assert!(matches!(r["price"], Value::Int(_)));
            assert!(matches!(r["url"], Value::Str(_)));
        }
        assert!(stats.pages_fetched >= 4, "home, hub, form pages, data pages");
        assert!(stats.network > Duration::ZERO);
    }

    #[test]
    fn unbound_model_collects_all_fords() {
        let (web, data) = web_and_data();
        let nav = newsday_navigator(web, &data);
        let (records, _) =
            nav.run_relation("newsday", &[("make".to_string(), Value::str("ford"))]).expect("runs");
        let truth = data.matching(SiteSlice::Newsday, Some("ford"), None);
        assert_eq!(records.len(), truth.len());
        // Every ground-truth ad is present (match on contact which is unique-ish).
        for ad in truth {
            assert!(
                records.iter().any(|r| r["contact"] == Value::str(&ad.contact)
                    && r["year"] == Value::Int(ad.year as i64)),
                "missing ad {ad:?}"
            );
        }
    }

    #[test]
    fn rare_make_direct_branch() {
        let (web, data) = web_and_data();
        // A make with few newsday ads goes straight to the data page; the
        // compiled program must handle the branch where the refine form
        // never appears.
        let rare = webbase_webworld::data::MAKES
            .iter()
            .map(|(m, _)| *m)
            .min_by_key(|m| data.matching(SiteSlice::Newsday, Some(m), None).len())
            .expect("makes exist");
        let truth = data.matching(SiteSlice::Newsday, Some(rare), None);
        let nav = newsday_navigator(web, &data);
        let (records, _) =
            nav.run_relation("newsday", &[("make".to_string(), Value::str(rare))]).expect("runs");
        assert_eq!(records.len(), truth.len());
    }

    #[test]
    fn missing_mandatory_binding_returns_empty() {
        let (web, data) = web_and_data();
        let nav = newsday_navigator(web, &data);
        // make unbound: f1 cannot be submitted (select is mandatory); the
        // program fails finitely with no answers.
        let (records, _) = nav.run_relation("newsday", &[] as &[(String, Value)]).expect("runs");
        assert!(records.is_empty());
    }

    #[test]
    fn unknown_relation_error() {
        let (web, data) = web_and_data();
        let nav = newsday_navigator(web, &data);
        assert!(matches!(
            nav.run_relation("nope", &[] as &[(String, Value)]),
            Err(NavError::UnknownRelation(_))
        ));
    }

    #[test]
    fn caching_reduces_fetches() {
        let (web, data) = web_and_data();
        let session = crate::sessions::newsday(&data);
        let (map, _) = Recorder::record(web.clone(), "www.newsday.com", &session).expect("records");
        let given = [("make".to_string(), Value::str("ford"))];
        let cached = SiteNavigator::new(web.clone(), map.clone());
        let (r1, s1) = cached.run_relation("newsday", &given).expect("runs");
        // A single run fetches each page once (the executor memoises its
        // traversal); the cache pays off on *re-execution* against the
        // long-lived navigator, which re-traverses from the cache.
        let (r1b, s1b) = cached.run_relation("newsday", &given).expect("runs");
        assert_eq!(r1.len(), r1b.len(), "re-execution repeats the answers");
        assert!(s1b.cache_hits > 0, "re-execution hits the cache");
        assert_eq!(s1b.pages_fetched, 0, "re-execution fetches nothing new");
        let uncached = SiteNavigator::new(web, map).without_cache();
        let (r2, s2) = uncached.run_relation("newsday", &given).expect("runs");
        assert_eq!(r1.len(), r2.len(), "same answers either way");
        let (_, s2b) = uncached.run_relation("newsday", &given).expect("runs");
        assert_eq!(s2b.cache_hits, 0, "no cache, no hits");
        assert!(
            s2b.pages_fetched >= s1.pages_fetched.max(1),
            "without the cache every re-execution re-fetches ({} vs {})",
            s2b.pages_fetched,
            s2.pages_fetched
        );
    }

    #[test]
    fn autoweb_value_links_enumerate_and_select() {
        let (web, data) = web_and_data();
        let session = vec![
            DesignerAction::Goto("http://www.autoweb.com/".into()),
            DesignerAction::FollowLinkAsValue { attr: "make".into(), chosen: "Jaguar".into() },
            DesignerAction::MarkDataPage {
                relation: "autoweb".into(),
                spec: ExtractionSpec::Table {
                    fields: vec![
                        FieldSpec::new("Make", "make", CellParse::Text),
                        FieldSpec::new("Model", "model", CellParse::Text),
                        FieldSpec::new("Year", "year", CellParse::Number),
                        FieldSpec::new("Price", "price", CellParse::Number),
                        FieldSpec::new("Features", "features", CellParse::Text),
                        FieldSpec::new("Zip", "zip", CellParse::Text),
                        FieldSpec::new("Contact", "contact", CellParse::Text),
                    ],
                },
            },
            DesignerAction::FollowLink("More".into()),
        ];
        let (map, _) = Recorder::record(web.clone(), "www.autoweb.com", &session).expect("records");
        let nav = SiteNavigator::new(web, map);
        // Bound make: selects exactly the jaguar link.
        let (records, _) = nav
            .run_relation("autoweb", &[("make".to_string(), Value::str("jaguar"))])
            .expect("runs");
        let truth = data.matching(SiteSlice::AutoWeb, Some("jaguar"), None);
        assert_eq!(records.len(), truth.len());
        // Unbound make: enumerates every make link.
        let (all, _) = nav.run_relation("autoweb", &[] as &[(String, Value)]).expect("runs");
        let all_truth = data.ads_for(SiteSlice::AutoWeb).count();
        assert_eq!(all.len(), all_truth);
    }

    #[test]
    fn value_link_selection_ignores_choice_case() {
        // The recorder normalises choice values to lowercase, but a map
        // that came back from maintenance replay or a fact-map import
        // may carry the site's original casing ("Jaguar"). Selecting
        // with the usual lowercase binding must still find the link —
        // and the solution must unify with the caller's own term.
        let (web, data) = web_and_data();
        let session = crate::sessions::auto_web(&data);
        let (mut map, _) =
            Recorder::record(web.clone(), "www.autoweb.com", &session).expect("records");
        let uppercase_first = |v: &str| {
            let mut c = v.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        };
        for node in &mut map.nodes {
            for action in &mut node.actions {
                if let ActionDescr::FollowByValue { choices, .. } = action {
                    for (val, _) in choices.iter_mut() {
                        *val = uppercase_first(val);
                    }
                }
            }
        }
        for edge in &mut map.edges {
            if let ActionDescr::FollowByValue { choices, .. } = &mut edge.action {
                for (val, _) in choices.iter_mut() {
                    *val = uppercase_first(val);
                }
            }
        }
        let nav = SiteNavigator::new(web, map);
        let (records, _) = nav
            .run_relation("autoWeb", &[("make".to_string(), Value::str("jaguar"))])
            .expect("runs");
        let truth = data.matching(SiteSlice::AutoWeb, Some("jaguar"), None);
        assert_eq!(records.len(), truth.len(), "mixed-case choices must still match");
        for r in &records {
            assert_eq!(r["make"], Value::str("jaguar"), "bound term echoed back, not recased");
        }
    }

    /// Regression: the executor used to key page objects by the cache
    /// pointer (`Rc::as_ptr`), so evicting a page and refetching it
    /// minted a *second* F-logic identity for the same page — silently,
    /// since the deterministic Web returns identical bytes. Identity is
    /// now the canonical request: eviction and refetch must yield the
    /// same oid.
    #[test]
    fn page_identity_by_request_survives_eviction() {
        let (web, _data) = web_and_data();
        let mut oracle = NavOracle::new(web, true);
        let mut objs = ObjectStore::new();
        let url = Url::parse("http://www.newsday.com/").expect("valid");
        let p1 = oracle.browser.goto(url.clone()).expect("loads");
        let oid1 = oracle.intern_page(p1.clone(), &mut objs);
        // Evict and refetch: a fresh parse at a fresh allocation.
        assert!(oracle.browser.store().evict(&p1.request));
        let p2 = oracle.browser.goto(url).expect("reloads");
        assert!(!Arc::ptr_eq(&p1, &p2), "eviction forces a fresh allocation");
        let oid2 = oracle.intern_page(p2, &mut objs);
        assert_eq!(oid1, oid2, "page identity is the request, not the allocation");
        assert_eq!(oracle.pages.len(), 1, "one page, one registry slot");
    }

    #[test]
    fn navigator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SiteNavigator>();
        assert_send_sync::<NavOracle>();
        assert_send_sync::<crate::browser::Browser>();
        assert_send_sync::<crate::browser::LoadedPage>();
        assert_send_sync::<crate::store::PageStore>();
    }

    #[test]
    fn figure4_program_renders() {
        let (web, data) = web_and_data();
        let nav = newsday_navigator(web, &data);
        let text = nav.render_program();
        assert!(text.contains("newsday("), "{text}");
        assert!(text.contains("fetch_entry"), "{text}");
        assert!(text.contains("doit"), "{text}");
        // and it re-parses
        webbase_flogic::parser::parse_program(&text)
            .unwrap_or_else(|e| panic!("program must reparse: {e}\n{text}"));
    }
}
