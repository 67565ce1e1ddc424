//! Budget-bounded execution and resumable partial results.
//!
//! The contract: a query that exhausts its [`QueryBudget`] stops
//! cleanly with a **sound** partial answer (a subset of the unbounded
//! answer, never fabricated), accounts for every denied fetch in its
//! degradation report, and emits a resume token whose journal lets a
//! later run re-traverse the completed frontier with **zero
//! re-fetches** — including tokens captured mid-"More"-chain and
//! mid-session-replay. The token round-trips through the F-logic fact
//! format byte-exactly, and the union of partial + resumed runs equals
//! the unbounded answer.

mod common;

use common::{faulty_webbase, healthy_webbase, subset, JAGUAR_QUERY};
use webbase::QueryOptions;
use webbase_logical::{parse_resume, render_resume, QueryBudget};
use webbase_webworld::faults::ExpiringSessionSite;
use webbase_webworld::server::Site;

/// A query whose newsday branch paginates (model unbound → a long
/// "More" chain), so a tight quota bites mid-chain.
const FORD_QUERY: &str = "UsedCarUR(make='ford', price)";

const NEWSDAY: &str = "www.newsday.com";

/// Newsday's pagination links carry session tokens that are stale by
/// the time they are followed (ttl 0): every "More" step goes through
/// session recovery.
fn expiring_newsday(h: &str, s: Box<dyn Site>) -> Box<dyn Site> {
    if h == NEWSDAY {
        Box::new(ExpiringSessionSite::new(s, 0)) as Box<dyn Site>
    } else {
        s
    }
}

#[test]
fn exhausted_queries_never_error_and_account_for_every_denial() {
    let (full, _) = healthy_webbase().query(JAGUAR_QUERY).expect("healthy jaguar query");
    assert!(!full.is_empty(), "seed must produce jaguar answers");

    for quota in [0u64, 1, 3, 7, 15] {
        let mut wb = healthy_webbase();
        let budget = QueryBudget::unlimited().with_fetch_quota(quota);
        let out = wb
            .query_with(JAGUAR_QUERY, QueryOptions::budgeted(budget))
            .unwrap_or_else(|e| panic!("quota {quota}: exhaustion surfaced as an error: {e}"));
        let (partial, plan) = (&out.relation, &out.plan);
        assert!(subset(partial, &full), "quota {quota}: fabricated tuples");
        assert!(partial.len() < full.len(), "quota {quota} cannot complete the jaguar query");

        let snap = plan.budget.as_ref().expect("budgeted runs must carry a spend snapshot");
        assert!(snap.fetches <= quota, "quota {quota}: overspent ({} fetches)", snap.fetches);
        assert!(snap.exhausted.is_some(), "quota {quota}: the shortfall must be flagged");
        assert!(!snap.starved_sites().is_empty(), "quota {quota}: someone must be starved");

        // Every denial the tracker recorded lands in the degradation
        // report — the shortfall is itemised, not silently swallowed.
        let denied: u64 = snap.sites.values().map(|s| s.denied).sum();
        let reported: u64 = plan.degradation.sites.values().map(|s| s.budget_denied).sum();
        assert!(denied > 0, "quota {quota}: an incomplete run must have denials");
        assert_eq!(reported, denied, "quota {quota}: report must account for every denial");
        assert!(!plan.degradation.is_clean(), "quota {quota}");

        // The resume token journals exactly the admitted fetches.
        let token = plan.resume.as_ref().expect("exhausted runs must emit a resume token");
        assert_eq!(token.journal.len() as u64, snap.fetches, "quota {quota}");
        assert_eq!(token.spent_fetches, snap.fetches, "quota {quota}");
    }
}

#[test]
fn a_token_captured_mid_more_chain_resumes_to_the_full_answer_fetch_free() {
    let mut unbounded = healthy_webbase();
    let before = unbounded.web().total_stats().requests;
    let (full, _) = unbounded.query(FORD_QUERY).expect("unbounded ford query");
    let full_requests = (unbounded.web().total_stats().requests - before) as usize;
    assert!(!full.is_empty(), "seed must produce ford answers");

    // Quota 6 covers newsday's entry chain but not its "More" chain:
    // the token is captured mid-pagination.
    let mut wb = healthy_webbase();
    let before = wb.web().total_stats().requests;
    let budget = QueryBudget::unlimited().with_fetch_quota(6);
    let out = wb
        .query_with(FORD_QUERY, QueryOptions::budgeted(budget))
        .expect("budget exhaustion must not be an error");
    let mut spent = (wb.web().total_stats().requests - before) as usize;
    let partial = out.relation;
    assert!(subset(&partial, &full), "fabricated partial tuples");
    assert!(partial.len() < full.len(), "quota 6 must interrupt the run");
    let token = out.plan.resume.clone().expect("an interrupted run must emit a token");
    assert!(!token.journal.is_empty());

    // The token round-trips through the F-logic fact format exactly.
    let rendered = render_resume(&token);
    let parsed = parse_resume(&rendered).expect("rendered token must parse back");
    assert_eq!(parsed, token, "render → parse must be the identity");
    assert_eq!(render_resume(&parsed), rendered, "re-render must be byte-identical");

    // Resume until the budget stops biting. Every round starts a fresh
    // webbase (cold caches) so the only state carried is the token.
    let mut token = Some(parsed);
    let mut result = partial;
    let mut rounds = 0;
    while let Some(t) = token {
        rounds += 1;
        assert!(rounds < 100, "resume must converge");
        let mut next = healthy_webbase();
        let before = next.web().total_stats().requests;
        let journalled = t.journal.len();
        let out =
            next.query_with(FORD_QUERY, QueryOptions::resuming(t)).expect("resume must not fail");
        let round_spent = (next.web().total_stats().requests - before) as usize;
        // Zero re-fetches of journalled pages: this round's network spend
        // plus the pages already paid for never exceeds the unbounded bill.
        assert!(
            round_spent + journalled <= full_requests,
            "journalled pages were re-fetched: {round_spent} new + {journalled} journalled > \
             {full_requests}"
        );
        spent += round_spent;
        assert!(subset(&out.relation, &full), "fabricated resumed tuples");
        result = out.relation;
        if let Some(nt) = &out.plan.resume {
            assert!(nt.journal.len() > journalled, "the journal must strictly grow");
        }
        token = out.plan.resume.clone();
    }
    assert_eq!(result, full, "partial + resumed must equal the unbounded answer");
    assert!(rounds >= 2, "quota 6 must take several rounds on the ford chain");
    assert!(spent <= full_requests, "{spent} total requests vs {full_requests} unbounded");
}

#[test]
fn a_token_captured_mid_session_replay_round_trips_and_resumes() {
    let (full, _) =
        faulty_webbase(expiring_newsday).query(FORD_QUERY).expect("session replay completes");
    assert!(!full.is_empty(), "seed must produce ford answers");

    let mut wb = faulty_webbase(expiring_newsday);
    let budget = QueryBudget::unlimited().with_fetch_quota(8);
    let out = wb
        .query_with(FORD_QUERY, QueryOptions::budgeted(budget))
        .expect("budgeted run against expiring sessions must not abort");
    let partial = out.relation;
    assert!(subset(&partial, &full), "fabricated partial tuples");
    assert!(partial.len() < full.len(), "quota 8 must interrupt the replaying chain");
    let token = out.plan.resume.clone().expect("an interrupted run must emit a token");

    // Session recovery journals the stale fetch and its replayed
    // replacement; the duplicate keys must survive the round-trip.
    let parsed = parse_resume(&render_resume(&token)).expect("rendered token must parse back");
    assert_eq!(parsed, token, "render → parse must be the identity");

    let mut token = Some(parsed);
    let mut result = partial;
    let mut rounds = 0;
    while let Some(t) = token {
        rounds += 1;
        assert!(rounds < 100, "resume must converge");
        let mut next = faulty_webbase(expiring_newsday);
        let out =
            next.query_with(FORD_QUERY, QueryOptions::resuming(t)).expect("resume must not fail");
        assert!(subset(&out.relation, &full), "fabricated resumed tuples");
        result = out.relation;
        token = out.plan.resume.clone();
    }
    assert_eq!(result, full, "resume must recover the whole replayed chain");
}

#[test]
fn fair_share_spreads_a_tight_quota_across_sites() {
    let (full, _) = healthy_webbase().query(FORD_QUERY).expect("healthy ford query");
    let run = |fair: bool| {
        let mut wb = healthy_webbase();
        let budget = QueryBudget::unlimited().with_fetch_quota(13).with_fair_share(fair);
        let out = wb.query_with(FORD_QUERY, QueryOptions::budgeted(budget)).expect("budgeted run");
        (out.relation, out.plan.budget.clone().expect("snapshot"))
    };
    let (p_fair, s_fair) = run(true);
    let (p_greedy, s_greedy) = run(false);
    assert!(subset(&p_fair, &full) && subset(&p_greedy, &full), "fabricated tuples");
    assert!(s_fair.exhausted.is_some() && s_greedy.exhausted.is_some(), "quota 13 must bite");

    // 13 registered sites and a quota of 13 → a one-fetch floor per
    // site. Greedy admission lets the first chain eat the quota;
    // fair-share admission guarantees every attempted site its floor.
    let touched =
        |s: &webbase_logical::BudgetSnapshot| s.sites.values().filter(|x| x.fetches > 0).count();
    assert!(
        touched(&s_fair) >= touched(&s_greedy),
        "fair share must not serve fewer sites: {} vs {}",
        touched(&s_fair),
        touched(&s_greedy)
    );
    assert!(touched(&s_fair) >= 3, "fair share must spread across the classifieds sites");
    let max_fair = s_fair.sites.values().map(|x| x.fetches).max().unwrap_or(0);
    let max_greedy = s_greedy.sites.values().map(|x| x.fetches).max().unwrap_or(0);
    assert!(
        max_fair <= max_greedy,
        "fair share must cap the greediest site: {max_fair} vs {max_greedy}"
    );
}

#[test]
fn a_plain_query_after_a_budgeted_one_on_one_webbase_is_complete() {
    // A budgeted run's tracker (and its cancel token and trace handle)
    // lasts for that run only: the next plain run on the same session
    // spends against no quota and answers in full.
    let mut wb = healthy_webbase();
    for text in [JAGUAR_QUERY, FORD_QUERY] {
        let (expected, _) = healthy_webbase().query(text).expect("fresh run");
        let budget = QueryBudget::unlimited().with_fetch_quota(3);
        let out = wb.query_with(text, QueryOptions::budgeted(budget)).expect("budgeted run");
        assert!(out.plan.resume.is_some(), "quota 3 must interrupt {text}");
        let (plain, plan) = wb.query(text).expect("plain run");
        assert!(plan.degradation.is_clean(), "{text}:\n{}", plan.degradation.render());
        assert!(
            plan.budget.is_none() && plan.resume.is_none(),
            "{text}: a budget outlived its run"
        );
        assert_eq!(plain, expected, "{text}: the plain run after a budgeted one is partial");
    }
}

// ---------------------------------------------------------------------
// Fair-share admission as a property, over random multi-tenant traffic.
//
// The engine's admission scheduler reuses the budget tracker with
// *tenants* in the site role: one query = one fetch charge, completion
// = `mark_served`. The properties below are therefore stated directly
// against the tracker, which makes them exhaustive over arrival orders
// rather than over whatever interleaving a live engine happens to
// produce.

use proptest::prelude::*;
use webbase_logical::BudgetTracker;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation and the max-min floor, at every step of a random
    /// admission history:
    ///
    /// 1. per-tenant spends always sum to the global spend (no charge
    ///    is lost or double-counted),
    /// 2. the global spend never exceeds the quota, and
    /// 3. for every tenant `h`, the spend so far plus the floors still
    ///    reserved for *other unserved* tenants fits in the quota —
    ///    i.e. no tenant can eat into another's max-min share before
    ///    that tenant has been served.
    #[test]
    fn fair_share_conserves_spend_and_respects_max_min_floors(
        quota in 1u64..40,
        n_tenants in 2usize..6,
        ops in proptest::collection::vec((0usize..6, 0u8..4), 1..120),
    ) {
        let budget = QueryBudget::unlimited().with_fetch_quota(quota).with_fair_share(true);
        let tracker = BudgetTracker::new(budget);
        let tenants: Vec<String> = (0..n_tenants).map(|i| format!("tenant{i}")).collect();
        for t in &tenants {
            tracker.register_site(t);
        }
        let floor = quota / n_tenants as u64;
        let mut admitted = 0u64;
        let mut denied = 0u64;
        for (pick, op) in ops {
            let tenant = &tenants[pick % n_tenants];
            if op == 3 {
                tracker.mark_served(tenant);
            } else {
                match tracker.try_admit(tenant, false) {
                    Ok(()) => admitted += 1,
                    Err(_) => denied += 1,
                }
            }
            let snap = tracker.snapshot();
            // (1) Conservation: per-tenant spends sum to the global
            // spend, and both match our own ledger; denials likewise.
            let spent: u64 = snap.sites.values().map(|s| s.fetches).sum();
            prop_assert_eq!(spent, snap.fetches, "per-tenant spends drifted from global");
            prop_assert_eq!(snap.fetches, admitted, "tracker lost or invented a charge");
            let refused: u64 = snap.sites.values().map(|s| s.denied).sum();
            prop_assert_eq!(refused, denied, "tracker lost or invented a denial");
            // (2) The quota is a hard cap.
            prop_assert!(snap.fetches <= quota, "overspent: {} > {}", snap.fetches, quota);
            // (3) Max-min: from any tenant's viewpoint, what everyone
            // has spent plus the floors still reserved for the other
            // unserved tenants must fit in the quota.
            for h in &tenants {
                let reserved: u64 = snap
                    .sites
                    .iter()
                    .filter(|(o, s)| o.as_str() != h.as_str() && !s.served)
                    .map(|(_, s)| floor.saturating_sub(s.fetches))
                    .sum();
                prop_assert!(
                    snap.fetches + reserved <= quota,
                    "{h}'s admissions invaded an unserved tenant's floor: \
                     spent {} + reserved {} > quota {}",
                    snap.fetches,
                    reserved,
                    quota
                );
            }
        }
        // A tenant that was never served and never asked keeps its full
        // floor available at the end of any history.
        let snap = tracker.snapshot();
        for (h, s) in &snap.sites {
            if !s.served && s.fetches == 0 {
                prop_assert!(
                    snap.fetches + floor <= quota || floor == 0,
                    "{h} was starved out of its floor"
                );
            }
        }
    }
}
