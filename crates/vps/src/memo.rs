//! The shared answer memo: whole-invocation result caching across
//! concurrent queries.
//!
//! The page store (navigation layer) already lets a second query skip
//! the *network*; the memo lets it skip the Transaction F-logic
//! interpretation too. Keyed by `(relation, access-spec bindings)`, it
//! returns the exact `Relation` a previous identical invocation
//! produced — sound because the simulated Web is a pure function of the
//! request, so equal invocations denote equal answers.
//!
//! The engine keeps two instances. The VPS memo answers handle
//! invocations; its entries' provenance is the pages each one read. The
//! logical memo answers §5 logical invocations; its entries' provenance
//! is the VPS invocations each evaluation made. Both are consulted only
//! by unbudgeted sessions and settled only from clean runs: a budgeted
//! run must do its own admission, journalling, and position
//! bookkeeping, and a degraded or cancelled run may have produced a
//! partial answer that must not be replayed to other tenants as
//! complete. Whole-query answers are not kept here: the engine's view
//! table holds each query text's plan, answer and provenance in one
//! entry and claims texts through the same [`Singleflight`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webbase_navigation::store::{PageId, PageSet};
use webbase_obs::sync::{Flight, FlightGuard, SafeRwLock, Singleflight};
use webbase_relational::{Attr, Relation, Value};

/// Memo key: relation name + the access-spec bindings, sorted by
/// attribute so equivalent specs collide. Both names are shared, so a
/// key built from a catalog's relation and a spec's attributes copies
/// no string.
pub type MemoKey = (Arc<str>, Vec<(Attr, Value)>);

/// One VPS invocation as provenance: its memo key and the ids of the
/// pages it read (empty when they are unknown). Both halves are shared
/// — the deps list is the one the VPS entry owns — so the logs, logical
/// entries and views that copy an invocation copy two pointers.
pub type Invocation = (Arc<MemoKey>, Arc<[PageId]>);

/// What a memoised answer was computed from. Drift evicts exactly the
/// entries whose provenance reads a drifted page, and a hit replays the
/// provenance into the reusing session, since a hit reads nothing
/// itself.
#[derive(Debug, Clone)]
pub enum Provenance {
    /// Nothing recorded: any drift event evicts the entry.
    Unknown,
    /// The ids of the pages one VPS invocation read.
    Pages(Arc<[PageId]>),
    /// The VPS invocations one logical evaluation made. One invocation
    /// with no recorded pages makes the whole entry unknown provenance.
    Invocations(Arc<[Invocation]>),
}

impl Provenance {
    /// Must drift on the pages in `drifted` evict this entry?
    fn touched_by(&self, drifted: &PageSet) -> bool {
        let read = |deps: &[PageId]| deps.iter().any(|&id| drifted.contains(id));
        match self {
            Provenance::Unknown => true,
            Provenance::Pages(deps) => read(deps),
            Provenance::Invocations(calls) => {
                calls.iter().any(|(_, deps)| deps.is_empty() || read(deps))
            }
        }
    }
}

/// One memoised answer and what it was computed from, recorded by the
/// leader so drift evicts exactly the dependent entries and a hit can
/// report the same dependencies without re-fetching anything. Both
/// halves are shared (`Relation` and `Arc`s), so a hit copies neither.
#[derive(Debug)]
struct Entry {
    answer: Relation,
    provenance: Provenance,
}

#[derive(Debug)]
struct MemoInner {
    answers: SafeRwLock<HashMap<MemoKey, Entry>>,
    /// Keys some session is computing right now: a second session
    /// asking for an in-flight key waits for the leader's answer
    /// instead of recomputing it.
    flights: Singleflight<MemoKey>,
    /// Bumped by every drift invalidation. A leader that saw it move
    /// while computing does not publish: its answer may predate the
    /// drift, and the eviction that would have caught it already ran.
    invalidations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// A clone-cheap handle to one shared answer memo (`Arc` inside).
#[derive(Debug, Clone)]
pub struct AnswerMemo {
    inner: Arc<MemoInner>,
}

impl Default for AnswerMemo {
    fn default() -> AnswerMemo {
        AnswerMemo::new()
    }
}

impl AnswerMemo {
    pub fn new() -> AnswerMemo {
        AnswerMemo {
            inner: Arc::new(MemoInner {
                answers: SafeRwLock::new(HashMap::new()),
                flights: Singleflight::new(),
                invalidations: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
            }),
        }
    }

    /// Build the canonical key for an invocation.
    pub fn key(relation: &str, given: &[(Attr, Value)]) -> MemoKey {
        let mut bindings = given.to_vec();
        bindings.sort_by(|a, b| a.0.cmp(&b.0));
        (relation.into(), bindings)
    }

    /// Evict every entry that read a page in `drifted` — plus,
    /// conservatively, entries with *no* recorded dependencies (answers
    /// whose provenance is unknown). A host-wide drift passes every id
    /// numbered on the host. Returns the evicted keys.
    pub fn invalidate_pages(&self, drifted: &PageSet) -> Vec<MemoKey> {
        // Bumped before the scan: a leader settling after the scan
        // finds the bump and drops its answer; one settling before it
        // is in the map for the scan to find.
        self.inner.invalidations.fetch_add(1, Ordering::SeqCst);
        let victims: Vec<MemoKey> = self
            .inner
            .answers
            .read()
            .iter()
            .filter(|(_, e)| e.provenance.touched_by(drifted))
            .map(|(key, _)| key.clone())
            .collect();
        if !victims.is_empty() {
            let mut answers = self.inner.answers.write();
            for key in &victims {
                answers.remove(key);
            }
        }
        victims
    }

    /// The memoised answer and provenance for `key`, counted as a hit.
    fn hit(&self, key: &MemoKey) -> Option<MemoClaim> {
        let answers = self.inner.answers.read();
        let entry = answers.get(key)?;
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        Some(MemoClaim::Hit(entry.answer.clone(), entry.provenance.clone()))
    }

    /// Singleflight claim: either a memoised answer, or leadership of
    /// this key's computation. A settled key is a plain read of the
    /// answer map; only a miss takes the in-flight lock. When another
    /// session is already computing the key, the caller blocks until
    /// that leader settles and then retries — under a concurrent
    /// thundering herd, one session pays for each distinct invocation
    /// and every other session gets it for a hash lookup.
    ///
    /// Deadlock-free by construction. The engine's query-text claims
    /// (its view table), its two instances and the page store's fetch
    /// claims form levels, and a session only ever waits on a lower
    /// level than any key it leads: a query leader waits on logical
    /// and VPS keys and pages; a logical leader waits only on VPS keys
    /// and pages, because
    /// definitions range over VPS relations alone; a VPS leader waits
    /// only on pages; a page leader waits on nothing
    /// ([`webbase_navigation::PageStore::claim`]). A session leads at
    /// most one key per level at a time (invocations at one level are
    /// not nested), so every edge in the wait-for graph points strictly
    /// downward and ends at a page leader that is fetching. The wait is
    /// additionally bounded: a waiter re-checks every 50ms, so if a
    /// leader vanishes without settling (its query failed), a waiter
    /// takes over ([`Singleflight::claim`]).
    pub fn claim(&self, key: &MemoKey) -> MemoClaim {
        if let Some(hit) = self.hit(key) {
            return hit;
        }
        let mut waited = false;
        let on_wait = || {
            waited = true;
            self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
        };
        match self.inner.flights.claim(key, || self.hit(key), on_wait) {
            Flight::Found(hit) => hit,
            Flight::Lead(flight) => {
                if !waited {
                    self.inner.misses.fetch_add(1, Ordering::Relaxed);
                }
                MemoClaim::Leader(LeaderGuard {
                    memo: self.clone(),
                    invalidations: self.inner.invalidations.load(Ordering::SeqCst),
                    flight,
                })
            }
        }
    }

    /// Requests that found their key already being computed by another
    /// session and waited for its answer instead of recomputing.
    pub fn coalesced(&self) -> u64 {
        self.inner.coalesced.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.inner.answers.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Leaderships released because their holder panicked (each one
    /// promoted a waiter; see [`FlightGuard`]).
    pub fn aborted(&self) -> u64 {
        self.inner.flights.aborted()
    }
}

/// What `AnswerMemo::claim` resolved to.
#[derive(Debug)]
pub enum MemoClaim {
    /// A previous identical invocation already settled this answer,
    /// with what it was computed from.
    Hit(Relation, Provenance),
    /// The caller owns this key's computation; every other session
    /// asking for it waits until the guard settles (or is dropped).
    Leader(LeaderGuard),
}

/// Leadership of one in-flight memo key. Dropping the guard releases
/// the key and wakes waiters even when the computation failed or
/// panicked, so an error path can never strand the herd: the next
/// waiter simply takes over as leader.
#[derive(Debug)]
pub struct LeaderGuard {
    memo: AnswerMemo,
    /// The memo's invalidation count when leadership began.
    invalidations: u64,
    /// Clears the in-flight key and wakes the waiters when it drops.
    flight: FlightGuard<MemoKey>,
}

impl LeaderGuard {
    /// Publish the computed answer — `None` when the run degraded and
    /// must not be replayed to other tenants — with what it was
    /// computed from, then release the key. An answer is dropped
    /// instead when a drift invalidation ran since the claim: it may
    /// have been computed from pages that drift replaced.
    pub fn settle(self, answer: Option<Relation>, provenance: Provenance) {
        if let Some(answer) = answer {
            let mut answers = self.memo.inner.answers.write();
            if self.memo.inner.invalidations.load(Ordering::SeqCst) == self.invalidations {
                answers.insert(self.flight.key().clone(), Entry { answer, provenance });
            }
        }
        // The flight drops next: it clears the in-flight mark *after*
        // the answer is visible, which is the ordering `claim` relies on.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use webbase_relational::{Schema, Tuple};

    #[test]
    fn key_normalises_binding_order() {
        let a = AnswerMemo::key(
            "r",
            &[(Attr::new("b"), Value::str("2")), (Attr::new("a"), Value::str("1"))],
        );
        let b = AnswerMemo::key(
            "r",
            &[(Attr::new("a"), Value::str("1")), (Attr::new("b"), Value::str("2"))],
        );
        assert_eq!(a, b);
    }

    fn one_row() -> Relation {
        let mut rel = Relation::new(Schema::new(["x"]));
        rel.push(Tuple::from_values([Value::Int(7)]));
        rel
    }

    /// Lead `key` and settle `one_row()` with unknown provenance.
    fn settle_unknown(memo: &AnswerMemo, key: &MemoKey) {
        match memo.claim(key) {
            MemoClaim::Leader(guard) => guard.settle(Some(one_row()), Provenance::Unknown),
            MemoClaim::Hit(..) => panic!("key settled twice"),
        }
    }

    /// Is an answer for `key` resident? A miss leads the key and drops
    /// the lead at once.
    fn resident(memo: &AnswerMemo, key: &MemoKey) -> bool {
        matches!(memo.claim(key), MemoClaim::Hit(..))
    }

    #[test]
    fn roundtrip_and_counters() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        assert!(!resident(&memo, &key));
        settle_unknown(&memo, &key);
        match memo.claim(&key) {
            MemoClaim::Hit(back, Provenance::Unknown) => assert_eq!(back, one_row()),
            other => panic!("settled with unknown provenance: {other:?}"),
        }
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 2, 1));
    }

    #[test]
    fn claim_leads_then_hits() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(Some(one_row()), Provenance::Unknown),
            MemoClaim::Hit(..) => panic!("empty memo cannot hit"),
        }
        match memo.claim(&key) {
            MemoClaim::Hit(rel, _) => assert_eq!(rel.len(), 1),
            MemoClaim::Leader(_) => panic!("settled key must hit"),
        }
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(memo.coalesced(), 0);
    }

    #[test]
    fn claim_coalesces_a_concurrent_herd_onto_one_leader() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[(Attr::new("a"), Value::str("1"))]);
        let leader = match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard,
            MemoClaim::Hit(..) => panic!("empty memo cannot hit"),
        };
        let herd: Vec<_> = (0..4)
            .map(|_| {
                let memo = memo.clone();
                let key = key.clone();
                std::thread::spawn(move || match memo.claim(&key) {
                    MemoClaim::Hit(rel, _) => rel.len(),
                    MemoClaim::Leader(_) => panic!("key is led; follower must wait for the answer"),
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        leader.settle(Some(one_row()), Provenance::Unknown);
        for worker in herd {
            assert_eq!(worker.join().expect("follower"), 1);
        }
        assert_eq!(memo.coalesced(), 4);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn a_panicking_leader_hands_leadership_to_a_waiter_and_is_counted() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let panicker = {
            let memo = memo.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                let _leader = match memo.claim(&key) {
                    MemoClaim::Leader(guard) => guard,
                    MemoClaim::Hit(..) => panic!("empty memo cannot hit"),
                };
                panic!("chaos: leader dies mid-computation");
            })
        };
        assert!(panicker.join().is_err());
        assert_eq!(memo.aborted(), 1);
        // The key is released: the next claimant becomes leader and the
        // herd converges as if the panic never happened.
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(Some(one_row()), Provenance::Unknown),
            MemoClaim::Hit(..) => panic!("nothing was published by the panicker"),
        }
        match memo.claim(&key) {
            MemoClaim::Hit(rel, _) => assert_eq!(rel.len(), 1),
            MemoClaim::Leader(_) => panic!("settled key must hit"),
        }
    }

    #[test]
    fn poisoned_memo_locks_recover_and_are_counted() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        settle_unknown(&memo, &key);
        let before = webbase_obs::sync::poison_recoveries();
        let panicker = {
            let memo = memo.clone();
            std::thread::spawn(move || {
                let _answers = memo.inner.answers.raw().write().expect("first writer");
                let _inflight = memo.inner.flights.raw().lock().expect("first holder");
                panic!("poison both memo locks");
            })
        };
        assert!(panicker.join().is_err());
        assert!(memo.inner.answers.raw().is_poisoned());
        assert!(memo.inner.flights.raw().is_poisoned());
        // Reads, writes, and the singleflight protocol all keep working.
        assert!(resident(&memo, &key), "still memoised");
        settle_unknown(&memo, &AnswerMemo::key("s", &[]));
        match memo.claim(&AnswerMemo::key("t", &[])) {
            MemoClaim::Leader(guard) => guard.settle(None, Provenance::Unknown),
            MemoClaim::Hit(..) => panic!("unknown key cannot hit"),
        }
        assert!(webbase_obs::sync::poison_recoveries() > before);
    }

    /// Lead `key` and settle `one_row()` with `deps`.
    fn settle_with(memo: &AnswerMemo, key: &MemoKey, deps: Vec<PageId>) {
        match memo.claim(key) {
            MemoClaim::Leader(guard) => {
                guard.settle(Some(one_row()), Provenance::Pages(deps.into()));
            }
            MemoClaim::Hit(..) => panic!("key settled twice"),
        }
    }

    fn deps_of(memo: &AnswerMemo, key: &MemoKey) -> Option<Vec<PageId>> {
        match memo.claim(key) {
            MemoClaim::Hit(_, Provenance::Pages(deps)) => Some(deps.to_vec()),
            MemoClaim::Hit(..) => None,
            MemoClaim::Leader(_) => panic!("key is not memoised"),
        }
    }

    fn drifted(ids: &[PageId]) -> PageSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn a_hit_returns_the_deps_settled_with_its_answer() {
        let memo = AnswerMemo::new();
        let pages = vec![PageId::new(1), PageId::new(2)];
        let key = AnswerMemo::key("r", &[]);
        settle_with(&memo, &key, pages.clone());
        match memo.claim(&key) {
            MemoClaim::Hit(rel, Provenance::Pages(deps)) => {
                assert_eq!(rel, one_row());
                assert_eq!(&deps[..], &pages[..]);
                // Two hits share one deps list.
                let MemoClaim::Hit(_, Provenance::Pages(again)) = memo.claim(&key) else {
                    panic!("settled with pages")
                };
                assert!(Arc::ptr_eq(&deps, &again));
            }
            MemoClaim::Hit(..) => panic!("settled with pages"),
            MemoClaim::Leader(_) => panic!("settled key must hit"),
        }
        // An answer settled without deps hits with unknown provenance.
        let legacy = AnswerMemo::key("legacy", &[]);
        settle_unknown(&memo, &legacy);
        assert_eq!(deps_of(&memo, &legacy), None);
        assert_eq!((memo.hits(), memo.misses()), (3, 2));
    }

    #[test]
    fn drift_invalidates_exactly_the_dependent_entries() {
        // Pages 1 and 2 are on host a, page 70 on host b.
        let (page_a, other_a, page_b) = (PageId::new(1), PageId::new(2), PageId::new(70));
        let memo = AnswerMemo::new();
        let on_a = AnswerMemo::key("r_a", &[]);
        let on_b = AnswerMemo::key("r_b", &[]);
        let unknown = AnswerMemo::key("legacy", &[]);
        settle_with(&memo, &on_a, vec![page_a]);
        settle_with(&memo, &on_b, vec![page_b]);
        settle_unknown(&memo, &unknown);
        assert_eq!(deps_of(&memo, &on_a), Some(vec![page_a]));

        // page_a drifts: r_a dies, r_b survives, deps-less legacy dies
        // conservatively.
        let evicted = memo.invalidate_pages(&drifted(&[page_a]));
        assert!(evicted.contains(&on_a) && evicted.contains(&unknown));
        assert!(!resident(&memo, &on_a));
        assert!(!resident(&memo, &unknown));
        assert!(resident(&memo, &on_b));
        // The deps went with the answer: a fresh claim leads, and the
        // new answer carries only what it was settled with.
        settle_with(&memo, &on_a, vec![page_b]);
        assert_eq!(deps_of(&memo, &on_a), Some(vec![page_b]));
        assert!(memo.invalidate_pages(&drifted(&[page_a, other_a])).is_empty());

        // Host-wide invalidation (every id on b) takes out the rest of
        // b, answers and deps together, and a deps-less answer with them.
        settle_unknown(&memo, &unknown);
        let mut evicted = memo.invalidate_pages(&drifted(&[page_b]));
        evicted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(evicted, vec![unknown.clone(), on_a.clone(), on_b.clone()]);
        assert!(memo.is_empty());
    }

    #[test]
    fn an_invocation_list_is_evicted_through_any_of_its_pages() {
        let memo = AnswerMemo::new();
        let (page_a, page_b) = (PageId::new(1), PageId::new(2));
        let call =
            |rel: &str, deps: Vec<PageId>| (Arc::new(AnswerMemo::key(rel, &[])), deps.into());
        let settle = |key: &MemoKey, calls: Vec<Invocation>| match memo.claim(key) {
            MemoClaim::Leader(guard) => {
                guard.settle(Some(one_row()), Provenance::Invocations(calls.into()));
            }
            MemoClaim::Hit(..) => panic!("key settled twice"),
        };
        let joined = AnswerMemo::key("joined", &[]);
        let partly_unknown = AnswerMemo::key("partly_unknown", &[]);
        settle(&joined, vec![call("r_a", vec![page_a]), call("r_b", vec![page_b])]);
        settle(&partly_unknown, vec![call("r_a", vec![page_a]), call("r_c", Vec::new())]);
        // A hit hands back the invocation list it was settled with.
        match memo.claim(&joined) {
            MemoClaim::Hit(_, Provenance::Invocations(calls)) => {
                let rels: Vec<&str> = calls.iter().map(|(k, _)| &*k.0).collect();
                assert_eq!(rels, ["r_a", "r_b"]);
            }
            other => panic!("settled with invocations: {other:?}"),
        }
        // Drift on a page no invocation read still evicts the entry
        // with an invocation of unknown provenance, and only that one.
        let elsewhere = PageId::new(3);
        assert_eq!(memo.invalidate_pages(&drifted(&[elsewhere])), vec![partly_unknown]);
        // Drift on a page the second invocation read evicts the list.
        assert_eq!(memo.invalidate_pages(&drifted(&[page_b])), vec![joined]);
        assert!(memo.is_empty());
    }

    #[test]
    fn a_leader_that_straddles_an_invalidation_publishes_nothing() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let page = PageId::new(1);
        let MemoClaim::Leader(guard) = memo.claim(&key) else { panic!("empty memo cannot hit") };
        // Drift lands while the leader computes: its answer may have
        // read the replaced page, and the eviction has already run.
        memo.invalidate_pages(&drifted(&[page]));
        guard.settle(Some(one_row()), Provenance::Pages(vec![page].into()));
        assert!(memo.is_empty(), "an answer computed across a drift event was published");
        // The next claimant leads and publishes normally.
        settle_with(&memo, &key, Vec::new());
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn dropping_an_unsettled_leader_hands_leadership_to_a_waiter() {
        let memo = AnswerMemo::new();
        let key = AnswerMemo::key("r", &[]);
        let leader = match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard,
            MemoClaim::Hit(..) => panic!("empty memo cannot hit"),
        };
        drop(leader); // failed computation: nothing published
        match memo.claim(&key) {
            MemoClaim::Leader(guard) => guard.settle(None, Provenance::Unknown),
            MemoClaim::Hit(..) => panic!("nothing was published"),
        }
        assert!(memo.is_empty());
    }
}
