//! Concurrency battery for the multi-query engine (`webbase::Engine`).
//!
//! Every test follows the same discipline: compute the answer on the
//! fully isolated single-owner stack first (`Engine::query_isolated`,
//! which shares nothing — private page store, no memo, no result
//! cache), then fan the same queries across OS threads through the
//! shared engine and demand byte-identical relations. Sharing may only
//! change *cost*, never *answers*.
//!
//! The dataset seed comes from `WEBBASE_TEST_SEED` (default 11); CI
//! sweeps the suite across seeds 11, 23, and 47. The suite is also
//! green under `RUST_TEST_THREADS=1` — each test spawns and joins its
//! own workers, so harness-level serialisation changes nothing.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use webbase::{Engine, LatencyModel, QueryOptions, Relation, SpanKind};
use webbase_relational::eval::{AccessSpec, Evaluator, RelationProvider};

use common::JAGUAR_QUERY;

const FORD: &str = "UsedCarUR(make='ford', price)";
const HONDA: &str = "UsedCarUR(make='honda', model='civic', year, price)";
const TOYOTA: &str = "UsedCarUR(make='toyota', model='camry', year, price)";

fn engine() -> Engine {
    Engine::build_demo(common::seed(), 400, LatencyModel::lan())
}

/// Mixed workload of `n` queries cycling through four distinct texts.
fn workload(n: usize) -> Vec<&'static str> {
    let texts = [JAGUAR_QUERY, FORD, HONDA, TOYOTA];
    (0..n).map(|i| texts[i % texts.len()]).collect()
}

/// Run `work` across `threads` workers on the shared engine, each
/// worker its own tenant, returning the answers in submission order.
fn fan_out(engine: &Engine, work: &[&str], threads: usize) -> Vec<Relation> {
    let mut slots: Vec<Option<Relation>> = vec![None; work.len()];
    let answers = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let answers = &answers;
            let engine = engine.clone();
            scope.spawn(move || {
                let tenant = format!("tenant{t}");
                for (i, text) in work.iter().enumerate().skip(t).step_by(threads) {
                    let out = engine
                        .query(&tenant, text, QueryOptions::default())
                        .expect("shared query runs");
                    answers.lock().expect("answers lock")[i] = Some(out.relation);
                }
            });
        }
    });
    slots.into_iter().map(|s| s.expect("every slot filled")).collect()
}

fn assert_identical_to_serial(queries: usize, threads: usize) {
    let engine = engine();
    let work = workload(queries);
    // Serial oracle on the isolated stack: shares nothing with the
    // concurrent runs below except the simulated web itself.
    let baseline: Vec<Relation> = work
        .iter()
        .map(|text| {
            engine
                .query_isolated("oracle", text, QueryOptions::default())
                .expect("isolated query runs")
                .relation
        })
        .collect();
    let concurrent = fan_out(&engine, &work, threads);
    for (i, (got, want)) in concurrent.iter().zip(&baseline).enumerate() {
        assert_eq!(got, want, "query {i} ({}) diverged from the serial baseline", work[i]);
    }
    assert_eq!(engine.stats().queries as usize, queries);
}

#[test]
fn eight_concurrent_queries_match_the_serial_baseline() {
    assert_identical_to_serial(8, 4);
}

#[test]
fn sixteen_concurrent_queries_match_the_serial_baseline() {
    assert_identical_to_serial(16, 8);
}

#[test]
fn thirty_two_concurrent_queries_match_the_serial_baseline() {
    assert_identical_to_serial(32, 16);
}

#[test]
fn cross_query_page_sharing_is_counter_verified() {
    let engine = engine();
    // Cold query: populates the shared page store and pays real
    // fetches — its per-query metrics registry records no cache hits
    // beyond intra-query revisits; the store records only misses from
    // this first walk.
    let first = engine.query("alice", JAGUAR_QUERY, QueryOptions::default()).expect("first");
    let store_after_first = engine.stats();
    assert!(store_after_first.store_misses > 0, "cold query must miss the store");
    let ford_requests_before = engine.web().total_stats().requests;

    // Overlapping query, different text (so the result cache cannot
    // answer it): the ford walk revisits the same sites' entry and
    // form pages the jaguar walk already interned.
    let second = engine.query("bob", FORD, QueryOptions::default()).expect("second");
    let after_second = engine.stats();
    let cross_hits = after_second.store_hits - store_after_first.store_hits;
    assert!(cross_hits > 0, "overlapping query must hit pages the first one interned");
    // The same sharing is visible in the second query's *own*
    // metrics registry (each query gets a private one).
    let per_query_hits = second.metrics.counters.get("cache_hits").copied().unwrap_or(0);
    assert!(per_query_hits >= cross_hits, "per-query registry missed shared-store hits");
    assert!(
        engine.web().total_stats().requests > ford_requests_before,
        "different bindings still require some fresh fetches"
    );
    assert!(!first.relation.tuples().is_empty() || !second.relation.tuples().is_empty());
}

#[test]
fn concurrent_traced_queries_keep_private_disjoint_span_trees() {
    let engine = engine();
    // Two tenants trace different queries at the same time. Each gets
    // a private Obs, so the span trees must be disjoint: no span of
    // one query's trace may describe the other query's bindings.
    let (jag, ford) = std::thread::scope(|scope| {
        let e1 = engine.clone();
        let e2 = engine.clone();
        let a = scope.spawn(move || {
            e1.query("alice", JAGUAR_QUERY, QueryOptions::traced()).expect("traced jaguar")
        });
        let b = scope
            .spawn(move || e2.query("bob", FORD, QueryOptions::traced()).expect("traced ford"));
        (a.join().expect("alice worker"), b.join().expect("bob worker"))
    });
    let jag_trace = jag.observation.expect("jaguar trace").trace;
    let ford_trace = ford.observation.expect("ford trace").trace;
    assert!(!jag_trace.is_empty() && !ford_trace.is_empty());

    // One root each, describing its own query.
    let jag_root = jag_trace.root().expect("jaguar root");
    let ford_root = ford_trace.root().expect("ford root");
    assert_eq!(jag_root.kind, SpanKind::Query);
    assert_eq!(ford_root.kind, SpanKind::Query);

    // No span id appears in both trees with the same content — the
    // trees were built by different sinks and share nothing.
    let jag_handles: HashSet<String> = jag_trace
        .of_kind(SpanKind::Handle)
        .iter()
        .filter_map(|s| s.field("given").map(str::to_string))
        .collect();
    for span in ford_trace.of_kind(SpanKind::Handle) {
        if let Some(given) = span.field("given") {
            assert!(!given.contains("jaguar"), "ford trace leaked a jaguar invocation: {given}");
        }
    }
    for given in &jag_handles {
        assert!(!given.contains("ford"), "jaguar trace leaked a ford invocation: {given}");
    }

    // Tracing changed observability, not the answer.
    let plain = engine
        .query_isolated("oracle", JAGUAR_QUERY, QueryOptions::default())
        .expect("isolated jaguar");
    assert_eq!(jag.relation, plain.relation);
}

#[test]
fn identical_concurrent_queries_coalesce_without_changing_answers() {
    let engine = engine();
    let oracle = engine
        .query_isolated("oracle", TOYOTA, QueryOptions::default())
        .expect("isolated toyota")
        .relation;
    let answers = fan_out(&engine, &[TOYOTA; 8], 8);
    for (i, got) in answers.iter().enumerate() {
        assert_eq!(got, &oracle, "coalesced query {i} diverged");
    }
    let stats = engine.stats();
    // Exactly one session executed the text; the other seven shared
    // its settled answer (waiting for the leader or arriving later).
    assert_eq!(stats.result_misses, 1, "one leader per distinct text: {stats:?}");
    assert_eq!(stats.result_hits, 7, "followers must share the leader's answer: {stats:?}");
}

#[test]
fn a_herd_on_one_logical_invocation_evaluates_it_once() {
    const HERD: usize = 6;
    let engine = engine();
    let spec = AccessSpec::new().with("make", "ford");
    let (mut isolated, _) = engine.session(true);
    let expected = isolated.fetch("classifieds", &spec).expect("isolated classifieds");
    let def = isolated.relation("classifieds").expect("classifieds is defined").def.clone();
    let evaluations = AtomicUsize::new(0);
    let leading = AtomicBool::new(false);
    let answers: Vec<Relation> = std::thread::scope(|scope| {
        // The leader claims the invocation and holds it, evaluating the
        // definition only once the rest of the herd waits on it.
        let leader = scope.spawn(|| {
            let (mut layer, _) = engine.session(false);
            layer
                .vps
                .derived(&"classifieds".into(), &spec, false, |vps| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    leading.store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while engine.stats().logical_coalesced < (HERD - 1) as u64
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Evaluator::new(vps).eval(&def, &spec)
                })
                .expect("leader evaluates")
        });
        while !leading.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The followers take the ordinary logical-layer path.
        let followers: Vec<_> = (1..HERD)
            .map(|_| {
                scope.spawn(|| {
                    let (mut layer, _) = engine.session(false);
                    layer.fetch("classifieds", &spec).expect("follower fetches")
                })
            })
            .collect();
        std::iter::once(leader)
            .chain(followers)
            .map(|worker| worker.join().expect("herd thread"))
            .collect()
    });
    for (i, got) in answers.iter().enumerate() {
        assert_eq!(got, &expected, "herd member {i} diverged from the isolated evaluation");
    }
    let stats = engine.stats();
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    assert_eq!(stats.logical_misses, 1, "one evaluation for the whole herd: {stats:?}");
    assert_eq!(stats.logical_coalesced, (HERD - 1) as u64, "the rest waited: {stats:?}");
    assert_eq!(stats.logical_hits, (HERD - 1) as u64, "and then shared the answer: {stats:?}");
}
