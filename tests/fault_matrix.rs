//! The fault matrix: the paper's queries against the full thirteen-site
//! Web with every site degraded — flaky (intermittent 500s), truncating
//! (mid-transfer disconnects), and stalling (hung CGI scripts).
//!
//! The contract under failure is the one §7's "dynamic nature of the
//! Web" demands: queries *complete*, partial answers are a subset of the
//! healthy answers (never fabricated), the degradation report names
//! exactly the sites that misbehaved, and identical seeds produce
//! byte-identical answers and reports.

mod common;

use common::{
    faulty_webbase, faulty_webbase_at, healthy_webbase, healthy_webbase_at, subset, FORD_SELECT,
    JAGUAR_QUERY,
};
use std::collections::BTreeSet;
use std::time::Duration;
use webbase::{LatencyModel, Metric, Obs, SpanKind};
use webbase_logical::{BudgetDenial, QueryBudget};
use webbase_webworld::faults::{
    DelayedSite, DriftingSite, ExpiringSessionSite, FlakySite, StallingSite, TruncatingSite,
};
use webbase_webworld::server::Site;

/// A query whose newsday branch paginates (model unbound → a long
/// "More" chain).
const FORD_QUERY: &str = "UsedCarUR(make='ford', price)";

const NEWSDAY: &str = "www.newsday.com";

#[test]
fn fault_matrix_partial_answers_are_sound() {
    let mut healthy = healthy_webbase();
    let (jag_full, _) = healthy.query(JAGUAR_QUERY).expect("healthy jaguar query");
    let sel_full = healthy.select("classifieds", FORD_SELECT).expect("healthy select");
    assert!(!jag_full.is_empty(), "seed must produce jaguar answers");
    assert!(!sel_full.is_empty(), "seed must produce escort answers");

    type Wrap = Box<dyn Fn(&str, Box<dyn Site>) -> Box<dyn Site>>;
    let matrix: Vec<(&str, Wrap)> = vec![
        (
            "flaky(7)",
            Box::new(|_h: &str, s: Box<dyn Site>| Box::new(FlakySite::new(s, 7)) as Box<dyn Site>),
        ),
        ("truncating(800)", Box::new(|_h, s| Box::new(TruncatingSite::new(s, 800)))),
        (
            "stalling(5, 120s)",
            Box::new(|_h, s| Box::new(StallingSite::new(s, 5, Duration::from_secs(120)))),
        ),
    ];
    for (name, wrap) in matrix {
        let mut wb = faulty_webbase(wrap);
        let (jag, _) =
            wb.query(JAGUAR_QUERY).unwrap_or_else(|e| panic!("{name}: jaguar query failed: {e}"));
        assert!(subset(&jag, &jag_full), "{name}: fabricated jaguar answers");
        let sel = wb
            .select("classifieds", FORD_SELECT)
            .unwrap_or_else(|e| panic!("{name}: select failed: {e}"));
        assert!(subset(&sel, &sel_full), "{name}: fabricated select answers");
    }
}

#[test]
fn all_sites_flaky_reports_exactly_the_degraded_sites() {
    let run = || {
        let mut wb = faulty_webbase(|_h, s| Box::new(FlakySite::new(s, 7)) as Box<dyn Site>);
        let (result, plan) = wb.query(JAGUAR_QUERY).expect("flaky query completes");
        (result, plan.degradation, wb.web().stats())
    };
    let (result, report, stats) = run();
    assert!(!result.is_empty(), "retries recover the flaky answers");

    // Ground truth from the server side: a host saw a 500 iff it fielded
    // at least 7 requests (the wrapper fails every 7th). The report must
    // name exactly those hosts — no more, no less.
    let expected: BTreeSet<&str> =
        stats.iter().filter(|(_, s)| s.requests >= 7).map(|(h, _)| h.as_str()).collect();
    let reported: BTreeSet<&str> = report.degraded_sites().into_iter().collect();
    assert_eq!(reported, expected, "{}", report.render());
    assert!(!reported.is_empty(), "the jaguar query must touch a busy site");
    assert!(report.total_retries() > 0);

    // Determinism: same seed, same fault schedule → identical answers
    // and an identical report.
    let (result2, report2, _) = run();
    assert_eq!(result, result2, "answers must be a pure function of the seed");
    assert_eq!(report, report2, "reports must be a pure function of the seed");
}

#[test]
fn stalling_sites_time_out_but_queries_recover() {
    // 120s stalls dwarf the default 30s fetch timeout: every 5th request
    // times out, the retry (off the stall schedule) succeeds.
    let mut wb = faulty_webbase(|_h, s| {
        Box::new(StallingSite::new(s, 5, Duration::from_secs(120))) as Box<dyn Site>
    });
    let (result, plan) = wb.query(JAGUAR_QUERY).expect("stalling query completes");
    assert!(!result.is_empty());
    let timeouts: u64 = plan.degradation.sites.values().map(|s| s.timeouts).sum();
    assert!(timeouts > 0, "stalls over the timeout must be observed as timeouts");
    for (host, site) in &plan.degradation.sites {
        assert!(!site.breaker_open, "{host}: isolated timeouts must not open the circuit");
    }
}

#[test]
fn stalling_sites_under_a_deadline_yield_sound_partials_and_a_token() {
    let (jag_full, _) = healthy_webbase().query(JAGUAR_QUERY).expect("healthy jaguar query");

    // Every 5th request stalls past the 30s fetch timeout; two such
    // timeouts blow a 45s query deadline, so the run must end early —
    // cleanly, with a sound partial answer and a resume token.
    let run = || {
        let mut wb = faulty_webbase(|_h, s| {
            Box::new(StallingSite::new(s, 5, Duration::from_secs(120))) as Box<dyn Site>
        });
        let budget = QueryBudget::unlimited().with_deadline(Duration::from_secs(45));
        let (partial, plan) =
            wb.query_with_budget(JAGUAR_QUERY, budget).expect("deadline exhaustion must not abort");
        (partial, plan)
    };
    let (partial, plan) = run();
    assert!(subset(&partial, &jag_full), "fabricated answers under the deadline");
    assert!(partial.len() < jag_full.len(), "two 30s timeouts must blow a 45s deadline");
    let snap = plan.budget.as_ref().expect("budgeted runs carry a snapshot");
    assert_eq!(snap.exhausted, Some(BudgetDenial::DeadlineExceeded));
    assert!(!plan.degradation.is_clean(), "the shortfall must be reported");
    assert!(plan.resume.is_some(), "deadline exhaustion must leave a resume token");

    // Determinism: same seed, same faults, same deadline → identical
    // partial answers and an identical spend.
    let (partial2, plan2) = run();
    assert_eq!(partial, partial2, "partials must be a pure function of the seed");
    assert_eq!(snap.fetches, plan2.budget.expect("snapshot").fetches);
}

#[test]
fn expiring_sessions_under_a_deadline_yield_sound_partials() {
    let (ford_full, _) = healthy_webbase().query(FORD_QUERY).expect("healthy ford query");

    // Newsday's sessions all expire (every "More" step goes through
    // replay) and every newsday page costs a simulated second: a 3s
    // deadline affords at most a few newsday pages, nowhere near the
    // replaying chain.
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(DelayedSite::new(ExpiringSessionSite::new(s, 0), Duration::from_secs(1)))
                as Box<dyn Site>
        } else {
            s
        }
    });
    let budget = QueryBudget::unlimited().with_deadline(Duration::from_secs(3));
    let (partial, plan) =
        wb.query_with_budget(FORD_QUERY, budget).expect("expiring sessions must not abort");
    assert!(subset(&partial, &ford_full), "fabricated answers under the deadline");
    assert!(partial.len() < ford_full.len(), "the delayed newsday chain cannot finish in 3s");
    let snap = plan.budget.expect("budgeted runs carry a snapshot");
    assert_eq!(snap.exhausted, Some(BudgetDenial::DeadlineExceeded));
    assert!(!plan.degradation.is_clean(), "the shortfall must be reported");
}

#[test]
fn session_replays_are_charged_to_the_owning_site_quota() {
    let (ford_full, _) = healthy_webbase().query(FORD_QUERY).expect("healthy ford query");

    // Per-site quota of 4: newsday's entry chain fits, but its stale-
    // session replays (charged to newsday, not to the global pool) push
    // it over and the site is cut off mid-chain.
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(ExpiringSessionSite::new(s, 0)) as Box<dyn Site>
        } else {
            s
        }
    });
    let budget = QueryBudget::unlimited().with_site_quota(4);
    let (partial, plan) =
        wb.query_with_budget(FORD_QUERY, budget).expect("site quota must not abort");
    assert!(subset(&partial, &ford_full), "fabricated answers under the site quota");
    assert!(partial.len() < ford_full.len(), "newsday's replaying chain cannot fit in 4 fetches");
    let snap = plan.budget.expect("budgeted runs carry a snapshot");
    for (host, spend) in &snap.sites {
        assert!(spend.fetches <= 4, "{host} overspent its site quota: {}", spend.fetches);
    }
    let newsday = snap.sites.get(NEWSDAY).expect("newsday must be tracked");
    assert!(newsday.denied > 0, "newsday's replays must be charged to newsday");
}

#[test]
fn dead_site_trips_the_breaker_and_stays_fast() {
    // At the paper's dialup latencies the healthy baseline is realistic,
    // so the ≤2× bound below measures the breaker, not the noise floor.
    let mut healthy = healthy_webbase_at(LatencyModel::dialup_1999());
    let (jag_full, _) = healthy.query(JAGUAR_QUERY).expect("healthy jaguar query");
    let healthy_net = healthy.layer.vps.stats.total_network();

    // www.nytimes.com drops every request: one of the classifieds sites
    // is permanently dead.
    let mut dead = faulty_webbase_at(LatencyModel::dialup_1999(), |h, s| {
        if h == "www.nytimes.com" {
            Box::new(FlakySite::new(s, 1)) as Box<dyn Site>
        } else {
            s
        }
    });
    let (result, plan) = dead.query(JAGUAR_QUERY).expect("query completes around the corpse");
    assert!(!result.is_empty(), "the other classifieds sites still answer");
    assert!(subset(&result, &jag_full), "a dead site cannot add answers");

    let site =
        plan.degradation.sites.get("www.nytimes.com").expect("the dead site must be reported");
    assert!(site.breaker_open, "the circuit must end the query open");
    assert!(site.breaker_trips >= 1);

    // A follow-up query finds the circuit still open and fails fast:
    // no fresh retries are spent re-probing the corpse.
    let sel = dead.select("classifieds", FORD_SELECT).expect("follow-up select");
    assert!(!sel.is_empty(), "newsday and the daily news still answer");
    let cumulative = dead.layer.vps.degradation();
    let site = cumulative.sites.get("www.nytimes.com").expect("still reported");
    assert!(site.fast_failures > 0, "later attempts must fail fast, not re-probe");

    // The breaker caps the cost of the corpse: simulated wall-clock stays
    // within 2× of the healthy run (acceptance bound), instead of paying
    // retries + backoff for every one of the site's pages.
    let dead_net = dead.layer.vps.stats.total_network();
    assert!(
        dead_net <= healthy_net * 2,
        "dead site blew up the wall-clock: {dead_net:?} vs healthy {healthy_net:?}"
    );
}

// ---------------------------------------------------------------------
// Observability cross-checks: the metrics registry, the trace, and the
// degradation/repair reports are three independent records of the same
// execution. They are incremented at the same instrumentation points,
// so any drift between them is a bug in one of the three.
// ---------------------------------------------------------------------

/// A paginating select (model unbound → newsday's whole "More" chain).
const FORD_ALL: &str = "SELECT make, model, year, price WHERE make=ford";

#[test]
fn metrics_counters_cross_check_the_degradation_report() {
    let mut wb = faulty_webbase(|_h, s| Box::new(FlakySite::new(s, 7)) as Box<dyn Site>);
    let (result, plan, obs) = wb.query_traced(JAGUAR_QUERY).expect("flaky traced query");
    assert!(!result.is_empty());
    let m = &obs.metrics;
    let deg = &plan.degradation;
    assert!(deg.total_retries() > 0, "a flaky web must force retries for this test to bite");

    assert_eq!(m.get(Metric::Retries), deg.total_retries(), "retries: counter vs report");
    let timeouts: u64 = deg.sites.values().map(|s| s.timeouts).sum();
    assert_eq!(m.get(Metric::Timeouts), timeouts, "timeouts: counter vs report");
    let failures: u64 = deg.sites.values().map(|s| s.failures).sum();
    assert_eq!(
        m.get(Metric::HttpFailures) + m.get(Metric::Timeouts),
        failures,
        "failures split into 5xx + timeouts"
    );
    let fast: u64 = deg.sites.values().map(|s| s.fast_failures).sum();
    assert_eq!(m.get(Metric::FastFailures), fast, "fast failures: counter vs report");
    let trips: u64 = deg.sites.values().map(|s| s.breaker_trips).sum();
    assert_eq!(m.get(Metric::BreakerOpens), trips, "breaker trips: counter vs report");

    // The trace is the third record: one backoff event per retry, and
    // the latency histogram observed every completed network attempt.
    let backoffs = obs.trace.of_kind(SpanKind::Backoff).len() as u64;
    assert_eq!(backoffs, deg.total_retries(), "one backoff span per retry");
    assert_eq!(
        m.fetch_latency.count,
        m.get(Metric::Fetches),
        "every network attempt lands in the latency histogram"
    );
}

#[test]
fn budget_denials_in_the_degradation_report_match_the_counter() {
    let mut wb = healthy_webbase();
    let obs = Obs::full();
    wb.layer.vps.set_obs(obs.clone());
    let budget = QueryBudget::unlimited().with_fetch_quota(10);
    let (_, plan) = wb.query_with_budget(FORD_QUERY, budget).expect("quota must not abort");
    let trace = obs.sink.finish();
    let m = obs.metrics.as_ref().expect("full obs carries a registry").snapshot();
    wb.layer.vps.set_obs(Obs::none());

    let deg_denied: u64 = plan.degradation.sites.values().map(|s| s.budget_denied).sum();
    assert!(deg_denied > 0, "a quota of 10 must deny fetches for this test to bite");
    assert_eq!(m.get(Metric::BudgetDenials), deg_denied, "denials: counter vs report");
    // Every denial is also visible in the trace as a budget_denied fetch
    // disposition.
    let denied_spans = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Fetch && s.field("disposition") == Some("budget_denied"))
        .count() as u64;
    assert_eq!(denied_spans, deg_denied, "denials: trace vs report");
}

#[test]
fn repairs_in_the_repair_report_match_counter_and_spans() {
    // Newsday's auto hub renames its "Used Cars" link — auto-repaired
    // mid-query, then the run is replayed (compiled constant changed).
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(
                DriftingSite::new(s, ">Used Cars</a>", ">Pre-owned Cars</a>").only_on_path("/auto"),
            ) as Box<dyn Site>
        } else {
            s
        }
    });
    let obs = Obs::full();
    wb.layer.vps.set_obs(obs.clone());
    wb.select("classifieds", FORD_ALL).expect("drifted query must not abort");
    let trace = obs.sink.finish();
    let m = obs.metrics.as_ref().expect("registry").snapshot();
    wb.layer.vps.set_obs(Obs::none());

    let rep = wb.layer.vps.repairs();
    let auto_applied: u64 = rep.sites.values().map(|s| s.auto_applied.len() as u64).sum();
    let replayed: u64 = rep.sites.values().map(|s| s.steps_replayed).sum();
    assert!(auto_applied > 0, "the renamed link must be auto-repaired for this test to bite");
    assert!(replayed > 0, "a repaired compiled constant must force a replay");
    assert_eq!(m.get(Metric::Repairs), auto_applied, "repairs: counter vs report");
    assert_eq!(m.get(Metric::Replays), replayed, "replays: counter vs report");
    assert_eq!(
        trace.of_kind(SpanKind::Repair).len() as u64,
        auto_applied,
        "repairs: spans vs report"
    );
    assert_eq!(trace.of_kind(SpanKind::Replay).len() as u64, replayed, "replays: spans vs report");
    assert_eq!(m.get(Metric::Quarantines), 0, "auto-repairable drift must not quarantine");
}

#[test]
fn quarantines_and_session_recoveries_match_their_counters() {
    // Scenario C: newsday's search form renames its mandatory field —
    // not auto-repairable, the node is quarantined.
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(DriftingSite::new(s, "name=make>", "name=mk2>").only_on_path("/auto/used"))
                as Box<dyn Site>
        } else {
            s
        }
    });
    let obs = Obs::full();
    wb.layer.vps.set_obs(obs.clone());
    wb.select("classifieds", FORD_ALL).expect("quarantine must not abort");
    let trace = obs.sink.finish();
    let m = obs.metrics.as_ref().expect("registry").snapshot();
    wb.layer.vps.set_obs(Obs::none());
    let quarantined: u64 =
        wb.layer.vps.repairs().sites.values().map(|s| s.quarantined.len() as u64).sum();
    assert!(quarantined > 0, "the renamed mandatory field must quarantine its node");
    assert_eq!(m.get(Metric::Quarantines), quarantined, "quarantines: counter vs report");
    assert_eq!(
        trace.of_kind(SpanKind::Quarantine).len() as u64,
        quarantined,
        "quarantines: spans vs report"
    );

    // Stale CGI sessions on newsday: every "More" step is recovered from
    // checkpointed inputs, and each recovery is counted and traced.
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(ExpiringSessionSite::new(s, 0)) as Box<dyn Site>
        } else {
            s
        }
    });
    let obs = Obs::full();
    wb.layer.vps.set_obs(obs.clone());
    wb.select("classifieds", FORD_ALL).expect("session replay must not abort");
    let trace = obs.sink.finish();
    let m = obs.metrics.as_ref().expect("registry").snapshot();
    wb.layer.vps.set_obs(Obs::none());
    let recovered: u64 = wb.layer.vps.repairs().sites.values().map(|s| s.sessions_recovered).sum();
    assert!(recovered > 0, "ttl-0 sessions must force recoveries");
    assert_eq!(m.get(Metric::SessionRecoveries), recovered, "recoveries: counter vs report");
    assert_eq!(
        trace.of_kind(SpanKind::SessionRecovery).len() as u64,
        recovered,
        "recoveries: spans vs report"
    );
}
