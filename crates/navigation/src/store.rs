//! The shared page store: a thread-safe fetch cache keyed by the
//! canonical request, shareable across browser sessions and across
//! concurrent queries.
//!
//! Historically every [`crate::browser::Browser`] owned a private
//! `HashMap<Request, Rc<LoadedPage>>`: nothing outlived a query, and a
//! second query re-fetched (and re-parsed) every page the first had
//! already paid for. The store lifts that cache into an `Arc`-shared,
//! lock-guarded map so the multi-query engine can hand **one** store to
//! every per-query browser session: the first query to touch a page
//! parses it, every later query — on any thread — gets the same
//! `Arc<LoadedPage>` back as a cache hit. Sessions that miss one page
//! at the same time wait for a single wire fetch ([`PageStore::claim`]).
//!
//! Identity is **by request**, never by pointer: distinct POSTs to one
//! CGI URL are distinct pages, and an evicted-then-refetched page is
//! *the same page* (same request ⇒ same deterministic body ⇒ same
//! parse). The executor keys its F-logic page objects the same way, so
//! eviction can never silently change page identity (see the
//! regression test in `crate::executor`). The store also *numbers*
//! each distinct request once: a [`PageId`] is assigned on first sight
//! and never reused, so it survives drift re-fetches, eviction and
//! re-insertion. Provenance (read sets, memo deps, the freshness
//! ledger, the journal's result deps) holds ids, not copied requests;
//! the request and its host are looked up from the id.
//!
//! Eviction is FIFO over insertion order when a capacity is set; the
//! default store is unbounded (the simulated Web is small). Hit, miss,
//! and eviction totals are atomic counters, readable without a lock.

use crate::browser::LoadedPage;
use crate::budget::JournalEntry;
use crate::wal::WriteAheadLog;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webbase_obs::sync::{Flight, FlightGuard, SafeMutex, SafeRwLock, Singleflight};
use webbase_webworld::request::Request;

/// One distinct page request's number in a [`PageStore`]: dense,
/// assigned on first sight, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(u32);

impl PageId {
    pub const fn new(n: u32) -> PageId {
        PageId(n)
    }

    pub const fn get(self) -> u32 {
        self.0
    }

    /// The id as a dense index (ids count up from 0 per store).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of page ids as a bitmap: membership is a shift and a mask.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageSet {
    words: Vec<u64>,
}

impl PageSet {
    pub fn new() -> PageSet {
        PageSet::default()
    }

    /// Add `id`; `false` if it was already present.
    pub fn insert(&mut self, id: PageId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    pub fn contains(&self, id: PageId) -> bool {
        self.words.get(id.index() / 64).is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }
}

impl FromIterator<PageId> for PageSet {
    fn from_iter<I: IntoIterator<Item = PageId>>(ids: I) -> PageSet {
        let mut set = PageSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// Distinct ids of `ids`, first-seen order kept.
fn dedupe(ids: &[PageId]) -> Vec<PageId> {
    let mut seen = PageSet::new();
    ids.iter().copied().filter(|&id| seen.insert(id)).collect()
}

/// One numbered request and, while it is resident, its page.
#[derive(Debug)]
struct Slot {
    request: Request,
    page: Option<Arc<LoadedPage>>,
}

#[derive(Debug, Default)]
struct StoreState {
    /// Every request ever seen, with its id: the index of its slot.
    ids: HashMap<Request, PageId>,
    slots: Vec<Slot>,
    /// Resident ids in insertion order, for FIFO eviction under a
    /// capacity bound.
    order: VecDeque<PageId>,
}

impl StoreState {
    fn intern(&mut self, req: &Request) -> PageId {
        if let Some(&id) = self.ids.get(req) {
            return id;
        }
        let id = PageId(u32::try_from(self.slots.len()).expect("fewer than 2^32 distinct pages"));
        self.slots.push(Slot { request: req.clone(), page: None });
        self.ids.insert(req.clone(), id);
        id
    }

    fn page(&self, id: PageId) -> Option<&Arc<LoadedPage>> {
        self.slots[id.index()].page.as_ref()
    }
}

#[derive(Debug)]
struct StoreInner {
    state: SafeRwLock<StoreState>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Pages some session is fetching right now: a second session that
    /// misses one waits for the leader's fetch instead of repeating it.
    fetches: Singleflight<PageId>,
    /// Optional write-ahead journal: freshly fetched bodies are
    /// appended so a restarted engine can rebuild the store fetch-free.
    wal: SafeMutex<Option<WriteAheadLog>>,
}

/// The page ids one query session touched, shared between the store
/// handle that records them and the layer that turns them into
/// cache-entry dependencies. Clone-cheap (`Arc` inside); appends keep
/// arrival order so a caller can mark a position and slice what one
/// invocation read.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    reads: Arc<SafeMutex<Vec<PageId>>>,
}

impl ReadSet {
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    pub fn record(&self, id: PageId) {
        self.reads.lock().push(id);
    }

    /// Append ids this session depends on without reading them itself
    /// (e.g. the recorded dependencies of a memoised answer it reused).
    pub fn extend(&self, ids: &[PageId]) {
        if !ids.is_empty() {
            self.reads.lock().extend_from_slice(ids);
        }
    }

    /// Ids recorded so far (a position usable with
    /// [`ReadSet::slice_from`]).
    pub fn len(&self) -> usize {
        self.reads.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids recorded since `mark`, deduplicated, first-seen order
    /// kept.
    pub fn slice_from(&self, mark: usize) -> Vec<PageId> {
        dedupe(self.reads.lock().get(mark..).unwrap_or(&[]))
    }

    /// Every id recorded, deduplicated.
    pub fn all(&self) -> Vec<PageId> {
        self.slice_from(0)
    }
}

/// A clone-cheap handle to one shared page store (`Arc` inside).
///
/// A handle may carry a [`ReadSet`] recorder (see [`PageStore::tracked`]):
/// the recorder is a property of the *handle*, not the store, so one
/// engine-shared store can serve many sessions that each record their
/// own page dependencies.
#[derive(Debug, Clone)]
pub struct PageStore {
    inner: Arc<StoreInner>,
    reads: Option<ReadSet>,
}

impl Default for PageStore {
    fn default() -> PageStore {
        PageStore::new()
    }
}

/// What [`PageStore::claim`] resolved to.
#[derive(Debug)]
pub enum PageClaim {
    /// The page is resident (possibly fetched by a leader this session
    /// waited for).
    Hit(Arc<LoadedPage>),
    /// The caller fetches the page; sessions that miss it meanwhile
    /// wait until the guard drops — after the leader interned the page,
    /// or because its fetch failed, was denied, was cancelled or
    /// panicked. With no page interned, the next waiter leads.
    Leader(FlightGuard<PageId>),
}

impl PageStore {
    /// An unbounded store (the per-session default).
    pub fn new() -> PageStore {
        PageStore::with_bound(None)
    }

    /// A store holding at most `capacity` pages, evicting FIFO.
    pub fn with_capacity(capacity: usize) -> PageStore {
        PageStore::with_bound(Some(capacity.max(1)))
    }

    fn with_bound(capacity: Option<usize>) -> PageStore {
        PageStore {
            inner: Arc::new(StoreInner {
                state: SafeRwLock::new(StoreState::default()),
                capacity,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                fetches: Singleflight::new(),
                wal: SafeMutex::new(None),
            }),
            reads: None,
        }
    }

    /// A handle onto the *same* store that records every page this
    /// handle (and its clones) touches into `reads` — the dependency
    /// tracking behind drift-driven cache invalidation. Both cache hits
    /// and fresh inserts count: either way the session's answer was
    /// computed from that page.
    pub fn tracked(&self, reads: ReadSet) -> PageStore {
        PageStore { inner: self.inner.clone(), reads: Some(reads) }
    }

    /// Attach a write-ahead journal: every later [`insert_fetched`]
    /// appends its body before interning.
    ///
    /// [`insert_fetched`]: PageStore::insert_fetched
    pub fn set_wal(&self, wal: WriteAheadLog) {
        *self.inner.wal.lock() = Some(wal);
    }

    fn record(&self, id: PageId) {
        if let Some(reads) = &self.reads {
            reads.record(id);
        }
    }

    /// Look up the page a request resolved to, counting a hit or miss.
    pub fn get(&self, req: &Request) -> Option<Arc<LoadedPage>> {
        let found = {
            let state = self.inner.state.read();
            state.ids.get(req).and_then(|&id| Some((id, state.page(id)?.clone())))
        };
        match found {
            Some((id, page)) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                self.record(id);
                Some(page)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Singleflight lookup: the resident page, or leadership of its
    /// fetch. A miss numbers the request; when another session already
    /// leads it, the caller waits until that leader's guard drops and
    /// looks again, so a herd missing one page pays one wire fetch.
    /// One lookup counts one hit or one miss, however long it waited.
    ///
    /// Deadlock-free: while it holds a page claim, a leader waits on
    /// nothing but a connection slot, which only fetches in progress
    /// hold (a browser releases its claim before a 440 session replay
    /// requests another page). Page claims are therefore the bottom
    /// level of the answer memo's wait-for order.
    pub fn claim(&self, req: &Request) -> PageClaim {
        if let Some(page) = self.get(req) {
            return PageClaim::Hit(page);
        }
        let id = self.inner.state.write().intern(req);
        // A leader interns its page before its guard drops.
        let resident = || self.inner.state.read().page(id).cloned();
        match self.inner.fetches.claim(&id, resident, || ()) {
            Flight::Found(page) => {
                self.record(id);
                PageClaim::Hit(page)
            }
            Flight::Lead(guard) => PageClaim::Leader(guard),
        }
    }

    /// Intern a page that was just fetched from the wire, journalling
    /// its body when a WAL is attached. Preloads and recovery use plain
    /// [`insert`] so replayed pages are not re-journalled.
    ///
    /// [`insert`]: PageStore::insert
    pub fn insert_fetched(&self, req: Request, page: Arc<LoadedPage>, body: &bytes::Bytes) {
        // The handle is cloned out so that sessions render their bodies
        // in parallel; the journal serialises only the writes.
        let wal = self.inner.wal.lock().clone();
        if let Some(wal) = wal {
            // Best-effort durability: a full disk costs warm-restart
            // coverage for this page, never the in-flight query.
            let _ = wal.append_page(&JournalEntry { request: req.clone(), body: body.clone() });
        }
        self.insert(req, page);
    }

    /// Re-intern a journalled page body — warm restart's replay path.
    /// The body is re-parsed exactly as the original fetch parsed it,
    /// and the plain [`insert`] keeps the WAL untouched (the record is
    /// already on disk).
    ///
    /// [`insert`]: PageStore::insert
    pub fn preload(&self, entry: &JournalEntry) {
        let resp = webbase_webworld::request::Response {
            status: 200,
            body: entry.body.clone(),
            stall: std::time::Duration::ZERO,
        };
        let page = Arc::new(LoadedPage::from_response(entry.request.clone(), &resp));
        self.insert(entry.request.clone(), page);
    }

    /// Intern a page under its canonical request. Under a capacity
    /// bound the oldest entries are evicted first.
    pub fn insert(&self, req: Request, page: Arc<LoadedPage>) {
        let id = {
            let mut state = self.inner.state.write();
            let id = state.intern(&req);
            if state.slots[id.index()].page.replace(page).is_none() {
                state.order.push_back(id);
            }
            if let Some(cap) = self.inner.capacity {
                while state.order.len() > cap {
                    let Some(oldest) = state.order.pop_front() else { break };
                    state.slots[oldest.index()].page = None;
                    self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            id
        };
        self.record(id);
    }

    /// Drop one entry (returns whether it was present). Its id stays.
    pub fn evict(&self, req: &Request) -> bool {
        let mut state = self.inner.state.write();
        let Some(&id) = state.ids.get(req) else { return false };
        let present = state.slots[id.index()].page.take().is_some();
        if present {
            state.order.retain(|&r| r != id);
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
        }
        present
    }

    /// Drop every entry (ids stay).
    pub fn clear(&self) {
        let mut state = self.inner.state.write();
        let n = state.order.len() as u64;
        for id in std::mem::take(&mut state.order) {
            state.slots[id.index()].page = None;
        }
        self.inner.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.inner.state.read().order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the store since creation.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing since creation.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped (capacity, `evict`, or `clear`) since creation.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Every resident request, in insertion order — the revalidation
    /// sweep's worklist. With a `host`, only that host's requests are
    /// cloned (the filter runs under the read lock).
    pub fn requests(&self, host: Option<&str>) -> Vec<Request> {
        let state = self.inner.state.read();
        state
            .order
            .iter()
            .map(|id| &state.slots[id.index()].request)
            .filter(|r| host.is_none_or(|h| r.url.host == h))
            .cloned()
            .collect()
    }

    /// The id `req` was numbered with, if the store has seen it.
    pub fn id(&self, req: &Request) -> Option<PageId> {
        self.inner.state.read().ids.get(req).copied()
    }

    /// The id of `req`, numbering it if the store has not seen it yet.
    pub fn intern(&self, req: &Request) -> PageId {
        if let Some(id) = self.id(req) {
            return id;
        }
        self.inner.state.write().intern(req)
    }

    /// The request numbered `id`, if this store numbered it.
    pub fn request(&self, id: PageId) -> Option<Request> {
        self.inner.state.read().slots.get(id.index()).map(|s| s.request.clone())
    }

    /// The ids of those of `reqs` the store has seen; a request it
    /// never saw cannot be anyone's dependency.
    pub fn ids_of(&self, reqs: &[Request]) -> Vec<PageId> {
        let state = self.inner.state.read();
        reqs.iter().filter_map(|r| state.ids.get(r).copied()).collect()
    }

    /// Every id numbered for a request on `host`.
    pub fn on_host(&self, host: &str) -> PageSet {
        let state = self.inner.state.read();
        let on_host = state.slots.iter().enumerate().filter(|(_, s)| s.request.url.host == host);
        on_host.map(|(i, _)| PageId(i as u32)).collect()
    }

    /// The distinct hosts of `ids` (ids this store never numbered are
    /// skipped).
    pub fn hosts(&self, ids: &[PageId]) -> BTreeSet<String> {
        let state = self.inner.state.read();
        let mut hosts = BTreeSet::new();
        let mut last: Option<&str> = None;
        for slot in ids.iter().filter_map(|id| state.slots.get(id.index())) {
            let host = slot.request.url.host.as_str();
            if last != Some(host) {
                hosts.insert(host.to_string());
                last = Some(host);
            }
        }
        hosts
    }

    /// Do two handles name the same underlying store?
    pub fn same_store(&self, other: &PageStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use webbase_webworld::prelude::*;
    use webbase_webworld::request::Response;

    fn page(host: &str, path: &str) -> (Request, Arc<LoadedPage>) {
        let req = Request::get(Url::new(host, path));
        let resp = Response::ok(format!("<html><head><title>{path}</title></head></html>"));
        (req.clone(), Arc::new(LoadedPage::from_response(req, &resp)))
    }

    #[test]
    fn get_insert_and_counters() {
        let store = PageStore::new();
        let (req, pg) = page("a.test", "/x");
        assert!(store.get(&req).is_none());
        store.insert(req.clone(), pg.clone());
        let back = store.get(&req).expect("present");
        assert!(Arc::ptr_eq(&back, &pg));
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let store = PageStore::with_capacity(2);
        let (r1, p1) = page("a.test", "/1");
        let (r2, p2) = page("a.test", "/2");
        let (r3, p3) = page("a.test", "/3");
        store.insert(r1.clone(), p1);
        store.insert(r2.clone(), p2);
        store.insert(r3.clone(), p3);
        assert_eq!(store.len(), 2);
        assert!(store.get(&r1).is_none(), "oldest entry evicted first");
        assert!(store.get(&r2).is_some() && store.get(&r3).is_some());
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn poisoned_state_lock_recovers_and_is_counted() {
        let store = PageStore::new();
        let (req, pg) = page("a.test", "/x");
        store.insert(req.clone(), pg);
        let before = webbase_obs::sync::poison_recoveries();
        let poisoner = store.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.inner.state.raw().write().expect("clean lock");
            panic!("holder dies mid-update");
        }));
        assert!(store.inner.state.raw().is_poisoned(), "raw lock really poisoned");
        assert!(store.get(&req).is_some(), "store stays usable after a panicked holder");
        let (r2, p2) = page("a.test", "/y");
        store.insert(r2.clone(), p2);
        assert_eq!(store.len(), 2);
        assert!(
            webbase_obs::sync::poison_recoveries() > before,
            "lock_poison_recovered counter incremented"
        );
    }

    #[test]
    fn tracked_handle_records_hits_and_inserts_only_for_itself() {
        let store = PageStore::new();
        let (r1, p1) = page("a.test", "/1");
        let (r2, p2) = page("a.test", "/2");
        store.insert(r1.clone(), p1);
        let reads = ReadSet::new();
        let tracked = store.tracked(reads.clone());
        assert!(tracked.same_store(&store), "tracked handle aliases the same store");
        let mark = reads.len();
        let _ = tracked.get(&r1); // hit → recorded
        let _ = tracked.get(&r2); // miss → not a dependency
        tracked.insert(r2.clone(), p2); // insert → recorded
        let _ = tracked.get(&r1); // duplicate hit
        let ids = reads.slice_from(mark);
        assert_eq!(ids, vec![store.intern(&r1), store.intern(&r2)], "deduped, in order");
        let requests: Vec<Request> = ids.iter().filter_map(|&id| store.request(id)).collect();
        assert_eq!(requests, vec![r1.clone(), r2.clone()], "ids resolve to their requests");
        // The untracked base handle records nothing.
        let _ = store.get(&r1);
        assert_eq!(reads.len(), 3, "base-handle reads invisible to the session's set");
    }

    #[test]
    fn read_set_slices_dedupe_across_records_and_extensions() {
        let (p1, p2, p3, p4) = (PageId(1), PageId(2), PageId(3), PageId(70));
        let reads = ReadSet::new();
        reads.record(p1);
        reads.extend(&[p2, p1, p3]);
        reads.extend(&[]); // an empty extension records nothing
        let mark = reads.len();
        reads.record(p3);
        reads.extend(&[p2, p1, p3]);
        reads.record(p4);
        reads.record(p2);
        // Duplicates inside and across extensions collapse to their
        // first sighting; order is arrival order.
        assert_eq!(reads.all(), vec![p1, p2, p3, p4]);
        // A mark taken between calls slices exactly what came after it.
        assert_eq!(reads.slice_from(mark), vec![p3, p2, p1, p4]);
        assert_eq!(reads.slice_from(reads.len()), Vec::<PageId>::new());
        assert_eq!(reads.slice_from(reads.len() + 3), Vec::<PageId>::new());
    }

    #[test]
    fn page_sets_hold_ids_across_words() {
        let mut set = PageSet::new();
        assert!(!set.contains(PageId(0)));
        assert!(set.insert(PageId(3)) && set.insert(PageId(64)) && set.insert(PageId(200)));
        assert!(!set.insert(PageId(64)), "a second insert reports the id present");
        for n in [3, 64, 200] {
            assert!(set.contains(PageId(n)), "{n}");
        }
        for n in [0, 63, 65, 199, 201, 5000] {
            assert!(!set.contains(PageId(n)), "{n}");
        }
        assert_eq!(set, [PageId(200), PageId(3), PageId(64)].into_iter().collect());
    }

    #[test]
    fn requests_lists_interned_pages_in_order() {
        let store = PageStore::new();
        let (r1, p1) = page("a.test", "/1");
        let (r2, p2) = page("b.test", "/2");
        store.insert(r1.clone(), p1);
        store.insert(r2.clone(), p2);
        assert_eq!(store.requests(None), vec![r1.clone(), r2.clone()]);
        assert_eq!(store.requests(Some("b.test")), vec![r2]);
        assert_eq!(store.requests(Some("c.test")), Vec::<Request>::new());
        store.evict(&r1);
        assert_eq!(store.requests(None).len(), 1);
    }

    #[test]
    fn an_id_survives_a_refetch_an_eviction_and_a_clear() {
        let store = PageStore::with_capacity(2);
        let (r1, p1) = page("a.test", "/1");
        let (r2, p2) = page("b.test", "/2");
        let (r3, p3) = page("a.test", "/3");
        assert_eq!(store.id(&r1), None, "a request is numbered on first sight");
        let id1 = store.intern(&r1);
        store.insert(r1.clone(), p1.clone());
        store.insert(r2.clone(), p2.clone());
        let id2 = store.id(&r2).expect("an insert numbers its request");
        assert_ne!(id1, id2);
        // A drift re-fetch replaces the page under the same id.
        let (_, refetched) = page("a.test", "/1");
        store.insert(r1.clone(), refetched);
        assert_eq!(store.intern(&r1), id1);
        // Eviction (explicit, by capacity, or a clear) keeps the id, and
        // a re-insert finds it again; ids are never reused.
        assert!(store.evict(&r1));
        store.insert(r3.clone(), p3);
        store.insert(r1.clone(), p1);
        assert!(store.get(&r2).is_none(), "the capacity bound evicted r2");
        assert_eq!((store.id(&r1), store.id(&r2)), (Some(id1), Some(id2)));
        store.clear();
        store.insert(r2.clone(), p2);
        assert_eq!(store.id(&r2), Some(id2));
        assert_eq!(store.request(id1), Some(r1.clone()));
        assert_eq!(store.request(PageId(99)), None);
        // Lookups by request and by host.
        let id3 = store.intern(&r3);
        assert_eq!(store.ids_of(&[r3.clone(), Request::get(Url::new("x", "/")), r1]), [id3, id1]);
        assert_eq!(store.on_host("a.test"), [id1, id3].into_iter().collect());
        assert_eq!(
            store.hosts(&[id1, id3, id2, id1]),
            ["a.test", "b.test"].into_iter().map(String::from).collect()
        );
    }

    #[test]
    fn shared_across_threads() {
        let store = PageStore::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let (req, pg) = page("a.test", &format!("/{i}"));
                    store.insert(req.clone(), pg);
                    store.get(&req).is_some()
                })
            })
            .collect();
        assert!(handles.into_iter().all(|h| h.join().expect("thread")));
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn a_herd_missing_one_page_waits_for_one_leader() {
        let store = PageStore::new();
        let (req, pg) = page("a.test", "/cold");
        let PageClaim::Leader(guard) = store.claim(&req) else { panic!("an empty store hits") };
        let herd: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                let req = req.clone();
                std::thread::spawn(move || match store.claim(&req) {
                    PageClaim::Hit(page) => page,
                    PageClaim::Leader(_) => panic!("a led page must be waited for"),
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        store.insert(req.clone(), pg.clone());
        drop(guard);
        for waiter in herd {
            assert!(Arc::ptr_eq(&waiter.join().expect("waiter"), &pg));
        }
        assert_eq!(store.misses(), 5, "each claim counts one lookup");
    }

    #[test]
    fn a_leader_that_fails_hands_the_page_to_a_waiter() {
        let store = PageStore::new();
        let (req, pg) = page("a.test", "/flaky");
        let PageClaim::Leader(failed) = store.claim(&req) else { panic!("an empty store hits") };
        let waiter = {
            let store = store.clone();
            let req = req.clone();
            std::thread::spawn(move || match store.claim(&req) {
                PageClaim::Leader(guard) => {
                    store.insert(req, pg);
                    drop(guard);
                    true
                }
                PageClaim::Hit(_) => false,
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(failed); // the fetch errored: nothing interned
        assert!(waiter.join().expect("waiter"), "the waiter took the fetch over");
        assert!(matches!(store.claim(&req), PageClaim::Hit(_)));
    }
}
