//! Healthy-path cost of the query-budget hooks: per-fetch admission
//! (deadline + global/site quota + fair-share reservation under a
//! mutex), the cooperative deadline checks at every "More" iteration,
//! and the resume journal capturing each fetched body. With a budget
//! generous enough never to deny, the budgeted navigator must stay
//! within 2% of the plain one — and must charge *zero* extra simulated
//! wall-clock, which is asserted outright before the measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use webbase_bench::lan_webbase;
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::{BudgetTracker, QueryBudget};
use webbase_relational::Value;

/// Every limit enabled (so every admission branch runs), none reachable.
fn generous_budget() -> QueryBudget {
    QueryBudget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_fetch_quota(1_000_000)
        .with_site_quota(1_000_000)
        .with_fair_share(true)
}

fn bench_budget_overhead(c: &mut Criterion) {
    let wb = lan_webbase();
    let mut group = c.benchmark_group("budget_overhead");
    group.sample_size(30);
    // make=ford with model unbound paginates: long More chains mean many
    // fetches, i.e. the worst healthy case for per-fetch admission.
    let given = vec![("make".to_string(), Value::str("ford"))];
    for host in ["www.newsday.com", "www.wwwheels.com"] {
        let map = wb.map_for(host).expect("mapped").clone();
        let relation =
            webbase::timing::timing_relations().iter().find(|(h, _)| *h == host).unwrap().1;
        let web = wb.web().clone();
        // Soundness preconditions, checked once and loudly: the generous
        // budget never denies, and admission charges no simulated time.
        {
            let plain = SiteNavigator::new(web.clone(), map.clone());
            let (base_records, base) = plain.run_relation(relation, &given).expect("runs");
            let nav = SiteNavigator::new(web.clone(), map.clone());
            let tracker = Arc::new(BudgetTracker::new(generous_budget()));
            tracker.register_site(host);
            nav.set_budget(tracker.clone());
            let (records, run) = nav.run_relation(relation, &given).expect("runs");
            assert!(tracker.exhausted().is_none(), "generous budget denied on the healthy path");
            assert_eq!(records.len(), base_records.len(), "budget changed the answer");
            assert_eq!(run.network, base.network, "budget admission charged simulated time");
        }
        group.bench_function(format!("{host}/budget_on"), |b| {
            b.iter(|| {
                let nav = SiteNavigator::new(web.clone(), map.clone());
                let tracker = Arc::new(BudgetTracker::new(generous_budget()));
                tracker.register_site(host);
                nav.set_budget(tracker);
                let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                black_box(records.len())
            });
        });
        group.bench_function(format!("{host}/budget_off"), |b| {
            b.iter(|| {
                let nav = SiteNavigator::new(web.clone(), map.clone());
                let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                black_box(records.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_budget_overhead);
criterion_main!(benches);
