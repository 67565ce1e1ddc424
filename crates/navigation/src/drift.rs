//! The drift bus: structured change notifications flowing from the
//! physical layer up to whoever caches answers derived from it.
//!
//! PR 7 could *repair* drift in-flight (healing probes patch the map
//! mid-query) but nothing downstream ever learned a page had changed —
//! a result cache primed before the drift kept serving the old answer.
//! This module turns detection into an event: healing, maintenance,
//! and the new background revalidation [`sweep`] all publish
//! [`DriftEvent`]s on a shared [`DriftBus`], and the engine subscribes
//! to invalidate exactly the cache entries whose recorded page-request
//! dependencies intersect the event.
//!
//! The sweep is deliberately dumb and conservative: it re-fetches every
//! interned request (optionally one host), hashes the fresh body, and
//! compares against the hash the page was parsed from
//! ([`crate::browser::LoadedPage::body_hash`]). Any byte difference is
//! drift; a non-200 answer is degradation, not drift, and is skipped.
//! Changed pages are re-interned immediately (re-journalled when a WAL
//! is attached) so the store is already fresh when subscribers react.
//! Sweeps are budget-charged and cancellable like any other navigation
//! work: a denial or cancellation ends the sweep early with whatever
//! events were already collected — late, never wrong.

use crate::browser::LoadedPage;
use crate::budget::{BudgetDenial, BudgetTracker};
use crate::cancel::{CancelToken, Interrupt};
use crate::healing::RepairReport;
use crate::map::NodeId;
use crate::store::PageStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webbase_obs::sync::SafeMutex;
use webbase_webworld::request::Request;
use webbase_webworld::server::SyntheticWeb;

/// What changed, in increasing order of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftKind {
    /// A page's served bytes differ from the interned copy. The store
    /// already holds the fresh parse; dependents must refresh.
    PageChanged,
    /// A map node was auto-repaired (the compiled program may have been
    /// patched and replayed). Answers built on the old shape are suspect.
    Repaired,
    /// A map node needs manual intervention; the site's answers cannot
    /// be trusted until a designer re-records it.
    Quarantined,
}

/// Which detector published the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftOrigin {
    /// The background revalidation [`sweep`].
    Sweep,
    /// In-flight healing probes ([`crate::healing`]).
    Healing,
    /// Offline map maintenance ([`crate::maintenance`]).
    Maintenance,
    /// An operator asked (the `REFRESH` verb).
    Manual,
}

impl DriftKind {
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::PageChanged => "page_changed",
            DriftKind::Repaired => "repaired",
            DriftKind::Quarantined => "quarantined",
        }
    }
}

impl DriftOrigin {
    pub fn name(&self) -> &'static str {
        match self {
            DriftOrigin::Sweep => "sweep",
            DriftOrigin::Healing => "healing",
            DriftOrigin::Maintenance => "maintenance",
            DriftOrigin::Manual => "manual",
        }
    }
}

/// One structured drift notification: page → map-node → site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEvent {
    /// The site that drifted.
    pub host: String,
    pub kind: DriftKind,
    pub origin: DriftOrigin,
    /// The specific page requests that changed (empty for node/site
    /// scoped events, which taint the whole host).
    pub requests: Vec<Request>,
    /// The map node involved, when the detector knows it.
    pub node: Option<NodeId>,
}

impl DriftEvent {
    /// Does this event name specific pages (`false` ⇒ whole-host taint)?
    pub fn page_scoped(&self) -> bool {
        self.kind == DriftKind::PageChanged && !self.requests.is_empty()
    }
}

type Subscriber = Box<dyn Fn(&DriftEvent) + Send + Sync>;

#[derive(Default)]
struct BusInner {
    subscribers: SafeMutex<Vec<Subscriber>>,
    published: AtomicU64,
    /// Bounded tail of recent events, for the `FRESHNESS` verb.
    recent: SafeMutex<Vec<DriftEvent>>,
}

const RECENT_CAP: usize = 64;

/// A clone-cheap fan-out channel for [`DriftEvent`]s. Subscribers run
/// synchronously on the publisher's thread, in subscription order —
/// when `publish` returns, every subscriber has seen the event, so a
/// sweep-then-query sequence can never race the invalidation.
#[derive(Clone, Default)]
pub struct DriftBus {
    inner: Arc<BusInner>,
}

impl std::fmt::Debug for DriftBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftBus").field("published", &self.published()).finish()
    }
}

impl DriftBus {
    pub fn new() -> DriftBus {
        DriftBus::default()
    }

    pub fn subscribe(&self, f: impl Fn(&DriftEvent) + Send + Sync + 'static) {
        self.inner.subscribers.lock().push(Box::new(f));
    }

    pub fn publish(&self, event: DriftEvent) {
        for sub in self.inner.subscribers.lock().iter() {
            sub(&event);
        }
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        let mut recent = self.inner.recent.lock();
        if recent.len() >= RECENT_CAP {
            recent.remove(0);
        }
        recent.push(event);
    }

    /// Events published since creation.
    pub fn published(&self) -> u64 {
        self.inner.published.load(Ordering::Relaxed)
    }

    /// The most recent events (bounded tail), oldest first.
    pub fn recent(&self) -> Vec<DriftEvent> {
        self.inner.recent.lock().clone()
    }
}

/// Translate a healing [`RepairReport`] delta into bus events: each
/// auto-repair becomes a [`DriftKind::Repaired`] event, each quarantine
/// a [`DriftKind::Quarantined`] one.
pub fn events_from_repairs(report: &RepairReport, origin: DriftOrigin) -> Vec<DriftEvent> {
    let mut out = Vec::new();
    for (host, repair) in &report.sites {
        for (node, _change) in &repair.auto_applied {
            out.push(DriftEvent {
                host: host.clone(),
                kind: DriftKind::Repaired,
                origin,
                requests: Vec::new(),
                node: Some(*node),
            });
        }
        for (node, _name) in &repair.quarantined {
            out.push(DriftEvent {
                host: host.clone(),
                kind: DriftKind::Quarantined,
                origin,
                requests: Vec::new(),
                node: Some(*node),
            });
        }
    }
    out
}

/// What one revalidation sweep did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Interned requests re-fetched and compared.
    pub checked: usize,
    /// Requests whose fresh body differed (re-interned, event published).
    pub changed: usize,
    /// Requests skipped: non-200 answers (degradation, not drift) or
    /// pages evicted mid-sweep.
    pub skipped: usize,
    /// The sweep stopped early on a cancel/panic fuse.
    pub cancelled: bool,
    /// The sweep stopped early when the budget denied admission.
    pub denied: Option<BudgetDenial>,
    /// Events published on the bus (one per host with changed pages).
    pub events: usize,
}

/// Re-fetch every interned page (optionally restricted to one host),
/// compare body hashes, re-intern what changed, and publish one
/// [`DriftKind::PageChanged`] event per drifted host.
///
/// Budget-charged (`try_admit` per request, `charge` per fetch) and
/// cancellable between requests. Early exit keeps everything already
/// found: the events for hosts completed so far are still published.
pub fn sweep(
    web: &SyntheticWeb,
    store: &PageStore,
    bus: &DriftBus,
    host: Option<&str>,
    origin: DriftOrigin,
    budget: Option<&BudgetTracker>,
    cancel: Option<&CancelToken>,
) -> SweepReport {
    let mut report = SweepReport::default();
    let mut changed: BTreeMap<String, Vec<Request>> = BTreeMap::new();
    for req in store.requests(host) {
        if let Some(token) = cancel {
            if token.poll() != Interrupt::None {
                report.cancelled = true;
                break;
            }
        }
        if let Some(tracker) = budget {
            if let Err(denial) = tracker.try_admit(&req.url.host, false) {
                report.denied = Some(denial);
                break;
            }
        }
        // Peek at the interned copy without disturbing hit/miss
        // accounting semantics for queries: a sweep lookup is a real
        // lookup, so plain `get` is fine — but a page evicted between
        // the worklist snapshot and now is simply no longer a
        // dependency of anything and can be skipped.
        let Some(cached) = store.get(&req) else {
            report.skipped += 1;
            continue;
        };
        let (resp, cost) = web.fetch(&req);
        if let Some(tracker) = budget {
            tracker.charge(cost);
        }
        if !resp.is_ok() {
            // An erroring site is a degradation concern, not drift: the
            // cached page is the best answer we have.
            report.skipped += 1;
            continue;
        }
        report.checked += 1;
        let fresh = crate::browser::body_hash(&resp.body);
        if fresh != cached.body_hash {
            let page = Arc::new(LoadedPage::from_response(req.clone(), &resp));
            store.insert_fetched(req.clone(), page, &resp.body);
            changed.entry(req.url.host.clone()).or_default().push(req);
        }
    }
    for (host, requests) in changed {
        report.changed += requests.len();
        report.events += 1;
        bus.publish(DriftEvent {
            host,
            kind: DriftKind::PageChanged,
            origin,
            requests,
            node: None,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use webbase_webworld::faults::{MutatingSite, Mutation, MutationClock};
    use webbase_webworld::prelude::*;

    /// A fixed set of pages under one host.
    struct Pages {
        host: String,
        pages: Vec<(String, String)>,
    }

    impl Pages {
        fn new(host: &str, pages: &[(&str, &str)]) -> Pages {
            Pages {
                host: host.into(),
                pages: pages.iter().map(|(p, b)| ((*p).into(), (*b).into())).collect(),
            }
        }
    }

    impl Site for Pages {
        fn host(&self) -> &str {
            &self.host
        }
        fn handle(&self, req: &Request) -> Response {
            match self.pages.iter().find(|(p, _)| *p == req.url.path) {
                Some((_, body)) => Response::ok(body.clone()),
                None => Response::not_found(&req.url.path),
            }
        }
    }

    /// Two tiny static sites; `a.test` carries a scheduled mutation.
    fn world() -> (SyntheticWeb, webbase_webworld::faults::MutationClock) {
        let (site_a, clock) = MutatingSite::new(
            Pages::new(
                "a.test",
                &[
                    ("/", "<html><title>a</title><a href=\"/x\">x</a></html>"),
                    ("/x", "<html><title>x</title>old price</html>"),
                ],
            ),
            vec![Mutation::new("old price", "new price")],
        );
        let web = SyntheticWeb::builder()
            .boxed_site(Box::new(site_a))
            .site(Pages::new("b.test", &[("/", "<html><title>b</title>stable</html>")]))
            .build();
        (web, clock)
    }

    fn prime(web: &SyntheticWeb, store: &PageStore, host: &str, path: &str) -> Request {
        let req = Request::get(Url::new(host, path));
        let (resp, _) = web.fetch(&req);
        let page = Arc::new(LoadedPage::from_response(req.clone(), &resp));
        store.insert(req.clone(), page);
        req
    }

    #[test]
    fn sweep_detects_only_what_mutated_and_refreshes_the_store() {
        let (web, clock) = world();
        let store = PageStore::new();
        let rx = prime(&web, &store, "a.test", "/x");
        prime(&web, &store, "a.test", "/");
        prime(&web, &store, "b.test", "/");
        let old_hash = store.get(&rx).expect("primed").body_hash;
        let bus = DriftBus::new();
        let seen = Arc::new(SafeMutex::new(Vec::new()));
        let sink = seen.clone();
        bus.subscribe(move |ev| sink.lock().push(ev.clone()));

        // No drift yet: a sweep is a no-op.
        let quiet = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, None, None);
        assert_eq!((quiet.checked, quiet.changed, quiet.events), (3, 0, 0));
        assert!(seen.lock().is_empty());

        clock.advance();
        let report = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, None, None);
        assert_eq!((report.changed, report.events), (1, 1));
        let events = seen.lock().clone();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].host, "a.test");
        assert_eq!(events[0].kind, DriftKind::PageChanged);
        assert_eq!(events[0].requests, vec![rx.clone()]);
        assert!(events[0].page_scoped());
        // The store already holds the fresh parse…
        let fresh = store.get(&rx).expect("still interned");
        assert_ne!(fresh.body_hash, old_hash);
        let (live, _) = web.fetch(&rx);
        assert_eq!(fresh.body_hash, crate::browser::body_hash(&live.body));
        // …so an immediate second sweep finds nothing new.
        let again = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, None, None);
        assert_eq!(again.changed, 0);
    }

    #[test]
    fn sweep_respects_host_filter_budget_and_cancellation() {
        let (web, clock) = world();
        let store = PageStore::new();
        prime(&web, &store, "a.test", "/x");
        prime(&web, &store, "b.test", "/");
        clock.advance();
        let bus = DriftBus::new();

        // Host filter: sweeping only the stable host sees no drift.
        let only_b = sweep(&web, &store, &bus, Some("b.test"), DriftOrigin::Manual, None, None);
        assert_eq!((only_b.checked, only_b.changed), (1, 0));

        // A zero-fetch budget denies the first admission.
        let broke =
            BudgetTracker::new(QueryBudget { max_fetches: Some(0), ..QueryBudget::default() });
        let denied = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, Some(&broke), None);
        assert!(denied.denied.is_some());
        assert_eq!(denied.checked, 0);

        // A pre-cancelled token stops before the first fetch.
        let token = CancelToken::new();
        token.cancel();
        let stopped = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, None, Some(&token));
        assert!(stopped.cancelled);
        assert_eq!(stopped.checked, 0);

        // An admitted sweep checks every page.
        let tracker = BudgetTracker::new(QueryBudget::default());
        let ok = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, Some(&tracker), None);
        assert_eq!(ok.checked, 2);
    }

    /// `n` interned pages on `a.test`, every one carrying a scheduled
    /// price rewrite, interleaved in the store with pages of a stable
    /// host.
    fn wide_world(n: usize) -> (SyntheticWeb, MutationClock, PageStore) {
        let paths: Vec<String> = (0..n).map(|i| format!("/p{i}")).collect();
        let bodies: Vec<(&str, &str)> =
            paths.iter().map(|p| (p.as_str(), "<html><title>p</title>old price</html>")).collect();
        let (site_a, clock) =
            MutatingSite::new(Pages::new("a.test", &bodies), vec![Mutation::new("old", "new")]);
        let web = SyntheticWeb::builder()
            .boxed_site(Box::new(site_a))
            .site(Pages::new("b.test", &bodies))
            .build();
        let store = PageStore::new();
        for path in &paths {
            prime(&web, &store, "b.test", path);
            prime(&web, &store, "a.test", path);
        }
        (web, clock, store)
    }

    #[test]
    fn a_sweep_publishes_changed_pages_in_store_order() {
        let (web, clock, store) = wide_world(24);
        let order = store.requests(Some("a.test"));
        assert_eq!(order.len(), 24);
        let bus = DriftBus::new();
        let seen = Arc::new(SafeMutex::new(Vec::new()));
        let sink = seen.clone();
        bus.subscribe(move |ev| sink.lock().push(ev.clone()));
        clock.advance();
        let report = sweep(&web, &store, &bus, None, DriftOrigin::Sweep, None, None);
        assert_eq!((report.checked, report.changed, report.events), (48, 24, 1), "{report:?}");
        let events = seen.lock().clone();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].host, "a.test");
        assert_eq!(events[0].requests, order, "the event keeps the host's store order");
        assert_eq!(store.requests(Some("a.test")), order, "re-interning keeps the order");
    }

    #[test]
    fn a_fetch_quota_checks_exactly_quota_pages_and_reports_the_denial() {
        let (web, clock, store) = wide_world(24);
        clock.advance();
        let bus = DriftBus::new();
        for quota in [1, 5, 23] {
            let tracker = BudgetTracker::new(QueryBudget {
                max_fetches: Some(quota),
                ..QueryBudget::default()
            });
            let report =
                sweep(&web, &store, &bus, Some("b.test"), DriftOrigin::Sweep, Some(&tracker), None);
            assert_eq!(report.checked as u64, quota, "{report:?}");
            assert!(report.denied.is_some(), "{report:?}");
            assert_eq!(tracker.snapshot().fetches, quota);
        }
    }

    #[test]
    fn repairs_translate_to_node_scoped_events() {
        let mut report = RepairReport::default();
        report.site_mut("a.test").quarantined.push((3, "results".into()));
        report.site_mut("a.test").steps_replayed = 1;
        let events = events_from_repairs(&report, DriftOrigin::Healing);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, DriftKind::Quarantined);
        assert_eq!(events[0].node, Some(3));
        assert!(!events[0].page_scoped(), "node-scoped events taint the whole host");
    }
}
