//! Property tests for the observability layer.
//!
//! Two families: (1) the span tree a real traced query produces is
//! well-formed at any seed — exactly one root, children nested inside
//! their parents' intervals, per-track timestamps monotone; the same
//! invariants hold for adversarial synthetic sink usage (spans left
//! open, interleaved tracks). (2) Metrics counters are monotone across
//! a resumed query's rounds — resumption may re-serve journalled pages
//! from cache, but no counter ever goes backwards.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use webbase::{LatencyModel, MetricsRegistry, Obs, QueryOptions, QueryTrace, Webbase, METRICS};
use webbase_logical::QueryBudget;
use webbase_obs::{SpanKind, TraceSink, QUERY_TRACK};

fn assert_well_formed(trace: &QueryTrace) -> Result<(), TestCaseError> {
    prop_assert!(!trace.spans.is_empty(), "a traced query must record spans");
    // Exactly one root, renumbered to id 0.
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    prop_assert_eq!(roots.len(), 1, "span tree must have a single root");
    prop_assert_eq!(roots[0].id, 0);
    let mut last_start: BTreeMap<&str, Duration> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        prop_assert_eq!(s.id, i, "ids must be dense after renumbering");
        prop_assert!(s.start <= s.end, "span {i}: start after end");
        if let Some(p) = s.parent {
            prop_assert!(p < s.id, "span {}: parent {} not earlier", s.id, p);
            let parent = &trace.spans[p];
            prop_assert!(
                parent.start <= s.start && s.end <= parent.end,
                "span {} [{:?}..{:?}] escapes parent {} [{:?}..{:?}]",
                s.id,
                s.start,
                s.end,
                p,
                parent.start,
                parent.end
            );
        }
        // Per-track monotonicity: spans are renumbered in per-track
        // emission order, so start times never regress within a track.
        if let Some(prev) = last_start.insert(s.track.as_str(), s.start) {
            prop_assert!(
                prev <= s.start,
                "track {}: start regressed {prev:?} -> {:?}",
                s.track,
                s.start
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Real traces are well-formed at any seed, for both a plain query
    /// and one that exercises the dependent-join tail.
    #[test]
    fn traced_queries_produce_well_formed_span_trees(seed in 1u64..=100) {
        let mut wb = Webbase::build_demo(seed, 400, LatencyModel::lan());
        let out = wb
            .query_with("UsedCarUR(make='ford', model='escort', year, price)", QueryOptions::traced())
            .expect("traced query runs");
        let obs = out.observation.expect("a traced run returns its observation");
        assert_well_formed(&obs.trace)?;
        // Rendering is total and agrees with the span count.
        prop_assert_eq!(obs.trace.render_jsonl().lines().count(), obs.trace.spans.len());
    }

    /// The invariants survive adversarial sink usage: random interleaved
    /// begins/events/advances across tracks, with some spans never ended
    /// (finish() closes them at the final track clock).
    #[test]
    fn synthetic_span_trees_are_well_formed(
        ops in proptest::collection::vec((0u8..4, 0usize..3, 0u64..5_000), 1..60),
    ) {
        let sink = TraceSink::enabled();
        let tracks = [QUERY_TRACK, "site-a.test", "site-b.test"];
        // The root must exist before site spans for single-root to hold.
        let root = sink.begin(QUERY_TRACK, SpanKind::Query, "q", Vec::new());
        let mut open = vec![(QUERY_TRACK, root)];
        for (op, t, us) in ops {
            let track = tracks[t];
            match op {
                0 => {
                    let h = sink.begin(track, SpanKind::Nav, format!("step {us}"), Vec::new());
                    open.push((track, h));
                }
                1 => {
                    // End the most recently opened span (well-nested use).
                    if open.len() > 1 {
                        let (tr, h) = open.pop().expect("non-empty");
                        sink.end_with(h, vec![("closed", tr.to_string())]);
                    }
                }
                2 => sink.event(track, SpanKind::Fetch, "GET /", Vec::new()),
                _ => sink.advance(track, Duration::from_micros(us)),
            }
        }
        // Some spans (root included) are deliberately left open.
        let trace = sink.finish();
        assert_well_formed(&trace)?;
    }

    /// Counters only grow across the rounds of a resumed query: each
    /// resumption preloads the journal and spends a fresh budget, and
    /// every metric's value is ≥ its value after the previous round.
    #[test]
    fn counters_are_monotone_across_resumed_queries(quota in 4u64..=12) {
        let mut wb = Webbase::build_demo(11, 400, LatencyModel::lan());
        let registry = Arc::new(MetricsRegistry::new());
        wb.layer.vps.set_obs(Obs::metrics_only(registry.clone()));
        let q = "UsedCarUR(make='ford', price)";
        let budget = QueryBudget::unlimited().with_fetch_quota(quota);
        let out = wb.query_with(q, QueryOptions::budgeted(budget)).expect("budgeted query runs");
        let mut token = out.plan.resume.clone();
        prop_assert!(token.is_some(), "quota {quota} must not finish the ford query");
        let mut prev = registry.snapshot();
        let mut rounds = 0;
        while let Some(t) = token {
            rounds += 1;
            prop_assert!(rounds < 100, "resume loop failed to converge");
            let out = wb.query_with(q, QueryOptions::resuming(t)).expect("resumes");
            let snap = registry.snapshot();
            for m in METRICS {
                prop_assert!(
                    snap.get(m) >= prev.get(m),
                    "round {rounds}: {} regressed {} -> {}",
                    m.name(),
                    prev.get(m),
                    snap.get(m)
                );
            }
            prop_assert!(
                snap.fetch_latency.count >= prev.fetch_latency.count,
                "latency observations regressed"
            );
            prev = snap;
            token = out.plan.resume.clone();
        }
    }
}
