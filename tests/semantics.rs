//! Soundness of the abstract interpreter (webcheck pass 4) against the
//! live executor, across all 15 webworld sites.
//!
//! The contract (pinned here, stated in `webcheck::semantic`): for
//! every invocation, the deduplicated pages read satisfy `observed ≤
//! max` always, and `observed ≥ min` when the invocation ran cold to
//! completion without drift repairs or budget/cancel interruption.
//! Dynamic page reads must land inside the static read-set at host
//! granularity — the engine's `readset_escape` tripwire, pinned to
//! zero here under drift and mid-chain cancellation alike. And a plan
//! whose static lower bound already exceeds the fetch quota must be
//! denied before the first page fetch.
//!
//! The deterministic suites sweep seeds 11/23/47 in-process; the
//! drift/cancel proptest runs at `WEBBASE_TEST_SEED` so the CI matrix
//! sweeps it too.

mod common;

use std::sync::OnceLock;
use webbase::{Engine, EngineConfig, EngineError, LatencyModel, QueryOptions};
use webbase_logical::QueryBudget;
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::DriftOrigin;
use webbase_relational::value::Value;
use webbase_webcheck::site_semantics;
use webbase_webworld::data::Dataset;
use webbase_webworld::prelude::standard_web;

const SEEDS: [u64; 3] = [11, 23, 47];
const FORD: &str = "UsedCarUR(make='ford', price)";

/// A cold car-demo engine (13 sites) over a healthy LAN web.
fn car_engine(seed: u64, config: EngineConfig) -> Engine {
    let data = Dataset::generate(seed, 300);
    let web = standard_web(data.clone(), LatencyModel::lan());
    Engine::build_on(web, data, config).expect("engine builds")
}

// ───────────────── cold completed runs: the full interval ────────────

#[test]
fn cold_engine_queries_land_inside_the_static_interval() {
    for seed in SEEDS {
        for text in [FORD, common::JAGUAR_QUERY] {
            // A fresh engine per query: the page store must be cold or
            // the lower bound does not bind (warm spine pages are free).
            let engine = car_engine(seed, EngineConfig::default());
            let (_plan, sem) = engine.explain_semantics(text).expect("plan compiles");
            let sem = sem.expect("every car plan has full semantics");
            let before = engine.web().total_stats().requests;
            engine.query("t0", text, QueryOptions::default()).expect("clean query");
            let observed = engine.web().total_stats().requests - before;
            assert!(
                observed >= sem.cost.min,
                "seed {seed} {text:?}: {observed} fetched < static lower bound {} — \
                 the admission gate would over-deny",
                sem.cost.min
            );
            assert!(
                sem.cost.max.admits(observed),
                "seed {seed} {text:?}: {observed} fetched escapes static upper bound {}",
                sem.cost.max
            );
            let stats = engine.stats();
            assert_eq!(stats.readset_escape, 0, "seed {seed} {text:?}: dynamic reads escaped");
            assert_eq!(stats.static_denied, 0, "gate is off by default");
        }
    }
}

// ─────────── the apartment stack: per-invocation intervals ───────────

#[test]
fn apartment_invocations_respect_their_relation_intervals() {
    for seed in SEEDS {
        let engine = webbase_bench::apartment_stack(seed);
        let web = engine.web();
        // Per-relation, per-invocation: a fresh navigator (cold fetch
        // cache) runs each relation once; `pages_fetched` is then the
        // deduplicated page count of that single invocation.
        let bindings: Vec<(&str, Vec<(String, Value)>)> = vec![
            ("aptListings", vec![("borough".into(), Value::str("brooklyn"))]),
            (
                "rentGuide",
                vec![("borough".into(), Value::str("queens")), ("bedrooms".into(), Value::Int(1))],
            ),
        ];
        for map in engine.maps() {
            let sem = site_semantics(map);
            for (name, given) in &bindings {
                let Some(rel_sem) = sem.relation(name) else { continue };
                let nav = SiteNavigator::new(web.clone(), map.clone());
                let (_, stats) = nav.run_relation(name, given).expect("invocation runs");
                let observed = stats.pages_fetched as u64;
                assert!(
                    rel_sem.cost.contains(observed),
                    "seed {seed} {name}: one invocation fetched {observed} pages, \
                     outside {}",
                    rel_sem.cost
                );
            }
        }
        // The whole stack through the planner: both choice groups, so
        // both sites' spines are paid — the plan-level lower bound is
        // the sum of the two per-host spine sizes.
        let total = engine
            .maps()
            .map(|m| site_semantics(m).total_cost())
            .fold(webbase_webcheck::CostInterval::empty(), webbase_webcheck::CostInterval::plus);
        let q = "AptUR(borough='brooklyn', bedrooms=1, rent, fairrent)";
        let before = web.total_stats().requests;
        engine.query("t0", q, QueryOptions::default()).expect("apt query runs");
        let observed = web.total_stats().requests - before;
        assert!(
            observed >= total.min && total.max.admits(observed),
            "seed {seed}: apartment plan fetched {observed}, outside {total}"
        );
    }
}

// ──────── the gate: a hopeless quota is denied before any fetch ──────

#[test]
fn static_lower_bound_above_quota_is_denied_fetch_free() {
    let seed = common::seed();
    let engine =
        car_engine(seed, EngineConfig { static_admission: true, ..EngineConfig::default() });
    let (_plan, sem) = engine.explain_semantics(FORD).expect("plan compiles");
    let needed = sem.expect("semantics").cost.min;
    assert!(needed > 1, "the ford plan must need more than one fetch");
    let before = engine.web().total_stats().requests;
    let hopeless = QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(needed - 1));
    match engine.query("t0", FORD, hopeless) {
        Err(EngineError::Deferred(_)) => {}
        other => panic!("a hopeless quota must be deferred, got {other:?}"),
    }
    assert_eq!(
        engine.web().total_stats().requests,
        before,
        "a statically denied query must not touch the network"
    );
    let stats = engine.stats();
    assert_eq!(stats.static_denied, 1, "the denial must be counted");
    assert_eq!(stats.queries, 0, "a denied query never ran");
    // The same query under an adequate quota is admitted and completes.
    let ample = QueryOptions::budgeted(QueryBudget::unlimited().with_fetch_quota(10_000));
    engine.query("t0", FORD, ample).expect("an adequate quota is admitted");
    assert_eq!(engine.stats().static_denied, 1, "no new denials");
}

// ───── drift + mid-chain cancellation: the tripwires stay at zero ────

/// One shared drifting engine (the NYTimes site carries the mutation
/// schedule); the clock only ever advances, so cases stay monotone.
fn drift_fixture() -> &'static (Engine, webbase_webworld::faults::MutationClock) {
    static FIX: OnceLock<(Engine, webbase_webworld::faults::MutationClock)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = Dataset::generate(common::seed(), 300);
        let (web, clock) = webbase_bench::drifting_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_on(web, data, EngineConfig::default()).expect("engine builds");
        (engine, clock)
    })
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under MutatingSite drift (with the refresh ladder running) and
    /// mid-chain budget/cancel interruption, execution never reads a
    /// host outside the plan's static read-set (`readset_escape` == 0),
    /// never serves a known-stale view (`stale_served` == 0), and a
    /// budgeted run never overspends its quota.
    #[test]
    fn drift_and_cancellation_never_escape_the_static_read_set(
        advance in 0usize..3,
        quota in 2u64..40,
        polls in 1u64..6,
        pick in 0usize..2,
    ) {
        let (engine, clock) = drift_fixture();
        for _ in 0..advance {
            if (clock.generation() as usize) < webbase_bench::DRIFT_GENERATIONS {
                clock.advance();
                engine.refresh(
                    Some(webbase_bench::DRIFT_HOST),
                    DriftOrigin::Maintenance,
                    None,
                    None,
                );
            }
        }
        let text = if pick == 0 { FORD } else { common::JAGUAR_QUERY };

        // Mid-chain budget exhaustion: a sound partial, never an error.
        let budget = QueryBudget::unlimited().with_fetch_quota(quota);
        let out = engine
            .query("prop-budget", text, QueryOptions::budgeted(budget))
            .expect("budget exhaustion is not an error");
        if let Some(snap) = &out.plan.budget {
            prop_assert!(snap.fetches <= quota, "overspent: {} > {quota}", snap.fetches);
        }

        // Mid-chain cooperative cancellation at a navigation checkpoint.
        let token = webbase::CancelToken::new().cancel_after_polls(polls);
        let options = QueryOptions { cancel: Some(token), ..QueryOptions::default() };
        engine.query("prop-cancel", text, options).expect("cancellation is not an error");

        let stats = engine.stats();
        prop_assert_eq!(stats.readset_escape, 0, "dynamic reads escaped the static read-set");
        prop_assert_eq!(stats.stale_served, 0, "a known-stale view was served");
    }
}
