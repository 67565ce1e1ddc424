//! The freshness contract, end to end: **a maintained view is
//! indistinguishable from a cold re-run** at the same web generation.
//!
//! Sites carry seeded mutation schedules ([`MutatingSite`]) switched on
//! by explicit generation clocks, so the web's state is a pure function
//! of `(request, generation)` — never of traffic. After every refresh
//! the engine's served answers are compared against `query_isolated`
//! oracles that re-fetch the live (mutated) web from scratch, and the
//! `stale_served` tripwire must stay at zero throughout.
//!
//! The dataset seed comes from `WEBBASE_TEST_SEED` (CI sweeps 11/23/47)
//! and the suite must pass threaded, under `RUST_TEST_THREADS=1`, and
//! pinned to one CPU (`taskset -c 0`), where the refresh's view rebuild
//! runs inline instead of on every core.

mod common;

use common::{seed, JAGUAR_QUERY};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use webbase::engine::{Engine, EngineConfig, QueryOptions};
use webbase::{LatencyModel, Relation};
use webbase_navigation::{DriftOrigin, WalRecovery};
use webbase_webworld::data::{Dataset, MAKES};
use webbase_webworld::faults::{seeded_schedule, MutatingSite, Mutation, MutationClock};
use webbase_webworld::prelude::*;
use webbase_webworld::server::Site;

const FORD: &str = "UsedCarUR(make='ford', price)";
const NYTIMES: &str = "www.nytimes.com";
const NYDAILY: &str = "www.nydailynews.com";
const KELLYS: &str = "www.kbb.com";
const NEWSDAY: &str = "www.newsday.com";

/// The drift pool: one scheduled mutation per site. Three are
/// data-only price rewrites (delta- or cold-refreshable); the newsday
/// form rename is manual-intervention drift that quarantines during the
/// rebuild — the ladder's last rung.
fn drift_pool() -> Vec<(&'static str, Mutation)> {
    vec![
        (NYTIMES, Mutation::new("$", "$1")),
        (KELLYS, Mutation::new("$", "$2").on_path("/cgi-bin/bb")),
        (NYDAILY, Mutation::new("$", "$3")),
        (NEWSDAY, Mutation::new("name=make>", "name=mk2>").on_path("/auto/used")),
    ]
}

/// An engine over the standard web with every `hosts` site wrapped in a
/// [`MutatingSite`]; mutations are inert at generation 0, so the
/// navigation maps record against the healthy web.
fn drifting_engine(
    schedules: &[(&str, Vec<Mutation>)],
) -> (Engine, HashMap<String, MutationClock>) {
    drifting_engine_with(schedules, EngineConfig::default(), |_, site| site)
}

/// [`drifting_engine`] under `config`, with every site also passed
/// through `wrap`.
fn drifting_engine_with(
    schedules: &[(&str, Vec<Mutation>)],
    config: EngineConfig,
    wrap: impl Fn(&str, Box<dyn Site>) -> Box<dyn Site>,
) -> (Engine, HashMap<String, MutationClock>) {
    let data = Dataset::generate(seed(), 400);
    let clocks: Mutex<HashMap<String, MutationClock>> = Mutex::new(HashMap::new());
    let web = standard_web_faulty(data.clone(), LatencyModel::lan(), |h, s| {
        let site = match schedules.iter().find(|(host, _)| *host == h) {
            Some((host, schedule)) => {
                let (site, clock) = MutatingSite::new(s, schedule.clone());
                clocks.lock().expect("clocks").insert(host.to_string(), clock);
                Box::new(site) as Box<dyn Site>
            }
            None => s,
        };
        wrap(h, site)
    });
    let engine = Engine::build_on(web, data, config).expect("builds");
    let clocks = clocks.into_inner().expect("clocks");
    assert_eq!(clocks.len(), schedules.len(), "every scheduled host must exist in the web");
    (engine, clocks)
}

fn served(engine: &Engine, text: &str) -> Relation {
    engine.query("tenant", text, QueryOptions::default()).expect("query runs").relation
}

fn oracle(engine: &Engine, text: &str) -> Relation {
    engine.query_isolated("oracle", text, QueryOptions::default()).expect("oracle runs").relation
}

/// Refresh everything, then check the freshness contract for `queries`:
/// every served answer equals a cold isolated re-run at the current
/// generation, and nothing stale was ever served.
fn checkpoint(
    engine: &Engine,
    queries: &[&str],
) -> Result<(), proptest::test_runner::TestCaseError> {
    engine.refresh(None, DriftOrigin::Maintenance, None, None);
    for text in queries {
        let fresh = oracle(engine, text);
        let answer = served(engine, text);
        prop_assert_eq!(
            &answer,
            &fresh,
            "maintained view for {} diverged from a cold re-run",
            text
        );
    }
    prop_assert_eq!(engine.stats().stale_served, 0, "stale answer served");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Arbitrary interleavings of per-site drift and maintenance: after
    /// every refresh, served answers equal cold re-runs and
    /// `stale_served` stays zero — across delta refreshes, cold
    /// rebuilds, and quarantining structural drift alike.
    #[test]
    fn maintained_views_equal_cold_reruns_under_arbitrary_drift(
        ops in proptest::collection::vec(0usize..5, 1..8),
    ) {
        let pool = drift_pool();
        let schedules: Vec<(&str, Vec<Mutation>)> =
            pool.iter().map(|(h, m)| (*h, vec![m.clone()])).collect();
        let (engine, clocks) = drifting_engine(&schedules);

        // Prime the cache at generation 0 and sanity-check it.
        checkpoint(&engine, &[FORD, JAGUAR_QUERY])?;

        for op in ops {
            match op {
                0..=3 => {
                    let host = pool[op].0;
                    clocks[host].advance();
                }
                _ => checkpoint(&engine, &[FORD, JAGUAR_QUERY])?,
            }
        }
        // However the storm ended, the final state must converge.
        checkpoint(&engine, &[FORD, JAGUAR_QUERY])?;
    }
}

/// A seeded multi-step drift storm on one site: the schedule order
/// comes from [`seeded_schedule`] under the CI seed, and the engine is
/// held to the freshness contract at every generation.
#[test]
fn seeded_storm_refreshes_to_cold_equivalence_at_every_generation() {
    let pool =
        vec![Mutation::new("$", "$1"), Mutation::new("$1", "$2"), Mutation::new("ford", "fordx")];
    let schedule = seeded_schedule(seed(), &pool, pool.len());
    let (engine, clocks) = drifting_engine(&[(NYTIMES, schedule.clone())]);
    let clock = &clocks[NYTIMES];

    let healthy = served(&engine, FORD);
    for generation in 1..=schedule.len() as u64 {
        clock.set(generation);
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        let fresh = oracle(&engine, FORD);
        let answer = served(&engine, FORD);
        assert_eq!(
            answer, fresh,
            "generation {generation}: maintained view diverged from a cold re-run ({report:?})"
        );
    }
    assert_ne!(served(&engine, FORD), healthy, "the storm must be answer-visible");
    let stats = engine.stats();
    assert_eq!(stats.stale_served, 0, "{stats:?}");
    assert!(stats.view_invalidated >= 1, "drift never invalidated anything: {stats:?}");
}

/// One refresh at width: many cached views over one drifting site are
/// rebuilt on every core, and each comes back equal to a cold re-run —
/// object-level, cold or evicted, never stale. Equal in order, too: an
/// object-level rebuild unions the plan's objects in plan order, as a
/// cold run does.
#[test]
fn one_refresh_rebuilds_many_drifted_views_to_cold_equivalence() {
    let (engine, clocks) = drifting_engine(&[(NYTIMES, vec![Mutation::new("$", "$1")])]);
    let texts: Vec<String> = MAKES
        .iter()
        .flat_map(|(make, models)| {
            let by_model = models
                .iter()
                .take(1)
                .map(move |m| format!("UsedCarUR(make='{make}', model='{m}', price)"));
            std::iter::once(format!("UsedCarUR(make='{make}', price)")).chain(by_model)
        })
        .collect();
    assert!(texts.len() >= 16, "{} texts", texts.len());
    for text in &texts {
        served(&engine, text);
    }
    clocks[NYTIMES].advance();

    let invalidated = engine.stats().view_invalidated;
    let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
    let drifted = (engine.stats().view_invalidated - invalidated) as usize;
    assert!(report.sweep.changed > 0, "the price rewrite must be detected: {report:?}");
    assert!(
        drifted * 2 >= texts.len(),
        "most cached views must read the drifted prices: {drifted}"
    );
    assert_eq!(
        report.delta_refreshed + report.cold_refreshed + report.evicted,
        drifted,
        "every drifted view is rebuilt or left evicted exactly once: {report:?}"
    );
    assert!(report.delta_refreshed > 0, "no view was refreshed at object level: {report:?}");
    for text in &texts {
        let (answer, fresh) = (served(&engine, text), oracle(&engine, text));
        assert_eq!(
            (answer.schema(), answer.tuples()),
            (fresh.schema(), fresh.tuples()),
            "{text}: diverged from a cold re-run, or came back in another order"
        );
    }
    assert_eq!(engine.stats().stale_served, 0, "stale answer served");
}

/// Counts the requests a [`Gate`]d site serves, and parks one of them.
struct Tap {
    served: AtomicUsize,
    /// The request to park, numbered from 1 since the last `arm` (0:
    /// none).
    park_at: AtomicUsize,
    parked: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Tap {
    /// A tap, the receiver told when a request parks, and the sender
    /// that releases it.
    fn new() -> (Arc<Tap>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (parked, on_park) = mpsc::channel();
        let (release, on_release) = mpsc::channel();
        let tap = Tap {
            served: AtomicUsize::new(0),
            park_at: AtomicUsize::new(0),
            parked: Mutex::new(parked),
            release: Mutex::new(on_release),
        };
        (Arc::new(tap), on_park, release)
    }

    /// Restart the count; park request `park_at` of it (0: none).
    fn arm(&self, park_at: usize) {
        self.served.store(0, Ordering::SeqCst);
        self.park_at.store(park_at, Ordering::SeqCst);
    }
}

/// A site whose requests pass through a [`Tap`]. A parked request
/// waits at most 30 s for its release, so a test that fails before
/// releasing it cannot hang the suite.
struct Gate {
    inner: Box<dyn Site>,
    tap: Arc<Tap>,
}

impl Site for Gate {
    fn host(&self) -> &str {
        self.inner.host()
    }

    fn entry(&self) -> Url {
        self.inner.entry()
    }

    fn handle(&self, req: &Request) -> Response {
        let n = self.tap.served.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.tap.park_at.load(Ordering::SeqCst) {
            let _ = self.tap.parked.lock().expect("tap").send(());
            let _ = self.tap.release.lock().expect("tap").recv_timeout(Duration::from_secs(30));
        }
        self.inner.handle(req)
    }
}

/// An answer whose reads straddle a drift event is not cached as
/// current, nor journalled as one. A sweep swaps fresh pages into the
/// store before it publishes their event, so a leader that read NYTimes
/// before the sweep and publishes after its event holds old prices.
/// Here the leader parks on its last kbb fetch, after its Classifieds
/// object has read NYTimes, while a refresh sweeps NYTimes; the next
/// query must equal a cold re-run.
#[test]
fn an_answer_read_before_a_drift_is_not_cached_after_it() {
    const FORD_BB: &str = "UsedCarUR(make='ford', model, year, price, bbprice, condition='good')";
    let gated = |tap: &Arc<Tap>, park_at: usize, journal: Option<PathBuf>| {
        let (engine, clocks) = drifting_engine_with(
            &[(NYTIMES, vec![Mutation::new("$", "$1")])],
            EngineConfig { journal, ..EngineConfig::default() },
            |host, site| {
                if host == KELLYS {
                    Box::new(Gate { inner: site, tap: tap.clone() })
                } else {
                    site
                }
            },
        );
        served(&engine, FORD);
        clocks[NYTIMES].advance();
        tap.arm(park_at);
        engine
    };
    // Count the query's kbb fetches on an identical engine: the Dealers
    // object's come before the Classifieds object reads NYTimes, so
    // only the last one is sure to come after.
    let (counter, _, _) = Tap::new();
    served(&gated(&counter, 0, None), FORD_BB);
    let fetches = counter.served.load(Ordering::SeqCst);
    assert!(fetches > 0, "the query must fetch from kbb");

    let journal = std::env::temp_dir().join(format!(
        "webbase-consistency-{}-{}-straddle",
        std::process::id(),
        seed()
    ));
    let _ = std::fs::remove_file(&journal); // a left-over journal would warm-restart

    let (tap, on_park, release) = Tap::new();
    let engine = gated(&tap, fetches, Some(journal.clone()));
    std::thread::scope(|s| {
        let leader = s.spawn(|| served(&engine, FORD_BB));
        on_park.recv_timeout(Duration::from_secs(30)).expect("the leader parks on its last fetch");
        let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        assert!(report.sweep.changed > 0, "the price rewrite must be detected: {report:?}");
        release.send(()).expect("the parked fetch waits for its release");
        leader.join().expect("leader thread");
    });
    let recovered = WalRecovery::load(&journal).expect("the journal reads back");
    assert!(
        recovered.results.iter().all(|(text, ..)| text != FORD_BB),
        "a warm restart would revive the answer read before the drift"
    );
    assert_eq!(
        served(&engine, FORD_BB),
        oracle(&engine, FORD_BB),
        "an answer read before the drift was cached as current"
    );
    assert_eq!(engine.stats().stale_served, 0, "stale answer served");
    let _ = std::fs::remove_file(&journal);
}

/// Manual-intervention drift quarantines its node again in every session
/// that reaches it, but the engine publishes each quarantine once: after
/// the refresh that found it, queries over the host are cached again,
/// with no further drift event, and each equals a cold re-run. When the
/// site changes back, the sweep's page event ends the quarantine.
#[test]
fn a_standing_quarantine_is_published_once_and_its_views_cache_again() {
    let rename = drift_pool().into_iter().filter(|(host, _)| *host == NEWSDAY).map(|(_, m)| m);
    let (engine, clocks) = drifting_engine(&[(NEWSDAY, rename.collect())]);
    let healthy = served(&engine, FORD);
    clocks[NEWSDAY].advance();
    engine.refresh(Some(NEWSDAY), DriftOrigin::Maintenance, None, None);

    let before = engine.stats();
    for round in 0..4 {
        assert_eq!(served(&engine, FORD), oracle(&engine, FORD), "query {round}");
    }
    let after = engine.stats();
    assert!(after.result_hits >= before.result_hits + 3, "{before:?} -> {after:?}");
    assert_eq!(after.drift_events, before.drift_events, "a quarantine was published again");

    clocks[NEWSDAY].set(0);
    let report = engine.refresh(Some(NEWSDAY), DriftOrigin::Maintenance, None, None);
    assert!(report.sweep.changed > 0, "the form must change back: {report:?}");
    assert_eq!(served(&engine, FORD), oracle(&engine, FORD), "after the repair");
    assert_eq!(served(&engine, FORD), healthy, "the newsday branch must come back");
    assert_eq!(engine.stats().stale_served, 0, "stale answer served");
}

/// Texts that differ only in UR-level predicates (year floor, price
/// bound) make the same logical invocations, so they share every
/// logical-memo entry. Drift on the NYTimes pages they all read must
/// still reach each view: after the refresh every maintained view
/// equals a cold re-run.
#[test]
fn views_sharing_every_logical_invocation_refresh_to_cold_equivalence() {
    let (engine, clocks) = drifting_engine(&[(NYTIMES, vec![Mutation::new("$", "$1")])]);
    let texts = [
        "UsedCarUR(make='ford', model, year >= 1990, price)",
        "UsedCarUR(make='ford', model, year >= 1994, price)",
        "UsedCarUR(make='ford', model, year, price) WHERE price < 9000",
        "UsedCarUR(make='ford', model, year >= 1992, price) WHERE price < 6000",
    ];
    let mut before = vec![served(&engine, texts[0])];
    let first = engine.stats().logical_misses;
    before.extend(texts[1..].iter().map(|text| served(&engine, text)));
    let stats = engine.stats();
    assert_eq!(stats.logical_misses, first, "the texts must share every logical invocation");
    assert!(stats.logical_hits > 0, "{stats:?}");

    clocks[NYTIMES].advance();
    let report = engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
    assert!(report.sweep.changed > 0, "the price rewrite must be detected: {report:?}");
    let mut visible = false;
    for (text, old) in texts.iter().zip(&before) {
        let answer = served(&engine, text);
        assert_eq!(answer, oracle(&engine, text), "{text}: diverged from a cold re-run");
        visible |= answer != *old;
    }
    assert!(visible, "the drift must be answer-visible");
    assert_eq!(engine.stats().stale_served, 0, "stale answer served");
}

/// Concurrent tenants querying across a refresh never observe a torn
/// generation: every answer equals the cold re-run at the old or the
/// new generation — nothing in between, nothing stale.
#[test]
fn concurrent_queries_across_a_refresh_see_whole_generations() {
    let (engine, clocks) = drifting_engine(&[(NYTIMES, vec![Mutation::new("$", "$1")])]);
    let before = served(&engine, FORD);
    clocks[NYTIMES].advance();
    let after = oracle(&engine, FORD);
    assert_ne!(before, after, "the mutation must be answer-visible");

    std::thread::scope(|s| {
        let refresher = s.spawn(|| {
            engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
        });
        let tenants: Vec<_> = (0..4)
            .map(|t| {
                let engine = &engine;
                s.spawn(move || {
                    (0..6)
                        .map(|_| {
                            engine
                                .query(&format!("tenant{t}"), FORD, QueryOptions::default())
                                .expect("query survives the refresh")
                                .relation
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in tenants {
            for answer in t.join().expect("tenant thread") {
                assert!(
                    answer == before || answer == after,
                    "a tenant observed a torn generation: neither the old nor the new answer"
                );
            }
        }
        refresher.join().expect("refresher thread");
    });

    // Post-refresh steady state: the new generation, atomically.
    assert_eq!(served(&engine, FORD), after, "post-refresh answer is not the new generation");
    assert_eq!(engine.stats().stale_served, 0);
}
