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
//! `Arc<LoadedPage>` back as a cache hit.
//!
//! Identity is **by request**, never by pointer: distinct POSTs to one
//! CGI URL are distinct pages, and an evicted-then-refetched page is
//! *the same page* (same request ⇒ same deterministic body ⇒ same
//! parse). The executor keys its F-logic page objects the same way, so
//! eviction can never silently change page identity (see the
//! regression test in `crate::executor`).
//!
//! Eviction is FIFO over insertion order when a capacity is set; the
//! default store is unbounded (the simulated Web is small). Hit, miss,
//! and eviction totals are atomic counters, readable without a lock.

use crate::browser::LoadedPage;
use crate::budget::JournalEntry;
use crate::wal::WriteAheadLog;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webbase_obs::sync::{SafeMutex, SafeRwLock};
use webbase_webworld::request::Request;

#[derive(Debug, Default)]
struct StoreState {
    pages: HashMap<Request, Arc<LoadedPage>>,
    /// Insertion order, for FIFO eviction under a capacity bound.
    order: VecDeque<Request>,
}

#[derive(Debug)]
struct StoreInner {
    state: SafeRwLock<StoreState>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Optional write-ahead journal: freshly fetched bodies are
    /// appended so a restarted engine can rebuild the store fetch-free.
    wal: SafeMutex<Option<WriteAheadLog>>,
}

/// The page requests one query session touched, shared between the
/// store handle that records them and the layer that turns them into
/// cache-entry dependencies. Clone-cheap (`Arc` inside); appends keep
/// arrival order so a caller can mark a position and slice what one
/// invocation read.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    reads: Arc<SafeMutex<Vec<Read>>>,
}

/// One append to a [`ReadSet`]: a page the session read itself, or the
/// shared dependency list of an answer it reused.
#[derive(Debug)]
enum Read {
    Page(Request),
    Chunk(Arc<[Request]>),
}

impl Read {
    fn requests(&self) -> &[Request] {
        match self {
            Read::Page(req) => std::slice::from_ref(req),
            Read::Chunk(reqs) => reqs,
        }
    }
}

impl ReadSet {
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    pub fn record(&self, req: &Request) {
        self.reads.lock().push(Read::Page(req.clone()));
    }

    /// Append foreign requests as one shared chunk (e.g. the recorded
    /// dependencies of a memoised answer this session reused without
    /// re-fetching). An empty chunk records nothing.
    pub fn extend(&self, reqs: &Arc<[Request]>) {
        if !reqs.is_empty() {
            self.reads.lock().push(Read::Chunk(reqs.clone()));
        }
    }

    /// Appends so far (a position usable with [`ReadSet::slice_from`]).
    pub fn len(&self) -> usize {
        self.reads.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The requests recorded since `mark`, deduplicated, first-seen
    /// order kept.
    pub fn slice_from(&self, mark: usize) -> Vec<Request> {
        let reads = self.reads.lock();
        let mut seen = std::collections::HashSet::new();
        reads
            .get(mark..)
            .unwrap_or(&[])
            .iter()
            .flat_map(Read::requests)
            .filter(|r| seen.insert(*r))
            .cloned()
            .collect()
    }

    /// Every request recorded, deduplicated.
    pub fn all(&self) -> Vec<Request> {
        self.slice_from(0)
    }
}

/// A clone-cheap handle to one shared page store (`Arc` inside).
///
/// A handle may carry a [`ReadSet`] recorder (see [`PageStore::tracked`]):
/// the recorder is a property of the *handle*, not the store, so one
/// engine-shared store can serve many sessions that each record their
/// own page-request dependencies.
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

impl PageStore {
    /// An unbounded store (the per-session default).
    pub fn new() -> PageStore {
        PageStore {
            inner: Arc::new(StoreInner {
                state: SafeRwLock::new(StoreState::default()),
                capacity: None,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                wal: SafeMutex::new(None),
            }),
            reads: None,
        }
    }

    /// A store holding at most `capacity` pages, evicting FIFO.
    pub fn with_capacity(capacity: usize) -> PageStore {
        PageStore {
            inner: Arc::new(StoreInner {
                state: SafeRwLock::new(StoreState::default()),
                capacity: Some(capacity.max(1)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
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

    /// Look up the page a request resolved to, counting a hit or miss.
    pub fn get(&self, req: &Request) -> Option<Arc<LoadedPage>> {
        let found = self.inner.state.read().pages.get(req).cloned();
        match &found {
            Some(_) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(reads) = &self.reads {
                    reads.record(req);
                }
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
            }
        };
        found
    }

    /// Intern a page that was just fetched from the wire, journalling
    /// its body when a WAL is attached. Preloads and recovery use plain
    /// [`insert`] so replayed pages are not re-journalled.
    ///
    /// [`insert`]: PageStore::insert
    pub fn insert_fetched(&self, req: Request, page: Arc<LoadedPage>, body: &bytes::Bytes) {
        if let Some(wal) = self.inner.wal.lock().as_ref() {
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
        if let Some(reads) = &self.reads {
            reads.record(&req);
        }
        let mut state = self.inner.state.write();
        if state.pages.insert(req.clone(), page).is_none() {
            state.order.push_back(req);
        }
        if let Some(cap) = self.inner.capacity {
            while state.pages.len() > cap {
                let Some(oldest) = state.order.pop_front() else { break };
                state.pages.remove(&oldest);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop one entry (returns whether it was present).
    pub fn evict(&self, req: &Request) -> bool {
        let mut state = self.inner.state.write();
        let present = state.pages.remove(req).is_some();
        if present {
            state.order.retain(|r| r != req);
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
        }
        present
    }

    /// Drop every entry.
    pub fn clear(&self) {
        let mut state = self.inner.state.write();
        let n = state.pages.len() as u64;
        state.pages.clear();
        state.order.clear();
        self.inner.evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub fn len(&self) -> usize {
        self.inner.state.read().pages.len()
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

    /// Every interned request, in insertion order — the revalidation
    /// sweep's worklist. With a `host`, only that host's requests are
    /// cloned (the filter runs under the read lock).
    pub fn requests(&self, host: Option<&str>) -> Vec<Request> {
        let state = self.inner.state.read();
        let on_host = |r: &&Request| host.is_none_or(|h| r.url.host == h);
        state.order.iter().filter(on_host).cloned().collect()
    }

    /// Do two handles name the same underlying store?
    pub fn same_store(&self, other: &PageStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(reads.slice_from(mark), vec![r1.clone(), r2.clone()], "deduped, in order");
        // The untracked base handle records nothing.
        let _ = store.get(&r1);
        assert_eq!(reads.len(), 3, "base-handle reads invisible to the session's set");
    }

    #[test]
    fn read_set_slices_dedupe_across_records_and_shared_chunks() {
        let req = |path: &str| Request::get(Url::new("a.test", path));
        let (r1, r2, r3, r4) = (req("/1"), req("/2"), req("/3"), req("/4"));
        let reads = ReadSet::new();
        reads.record(&r1);
        let chunk: Arc<[Request]> = vec![r2.clone(), r1.clone(), r3.clone()].into();
        reads.extend(&chunk);
        reads.extend(&Arc::from([])); // an empty chunk records nothing
        let mark = reads.len();
        reads.record(&r3);
        reads.extend(&chunk);
        reads.record(&r4);
        reads.record(&r2);
        // Duplicates inside and across chunks collapse to their first
        // sighting; order is arrival order.
        assert_eq!(reads.all(), vec![r1.clone(), r2.clone(), r3.clone(), r4.clone()]);
        // A mark taken between calls slices exactly what came after it.
        assert_eq!(reads.slice_from(mark), vec![r3.clone(), r2.clone(), r1.clone(), r4.clone()]);
        assert_eq!(reads.slice_from(reads.len()), Vec::<Request>::new());
        assert_eq!(reads.slice_from(reads.len() + 3), Vec::<Request>::new());
        // The chunk itself is shared, not copied.
        assert_eq!(Arc::strong_count(&chunk), 3);
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
}
