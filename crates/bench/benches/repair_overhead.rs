//! Healthy-path cost of the self-healing hooks: the drift probe
//! inspects every freshly interned page, and the repair loop drains it
//! after each run. On an undrifted site nothing is ever pending, so the
//! two navigators below should be within noise of each other (the
//! acceptance bar is <2% overhead).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webbase_bench::lan_webbase;
use webbase_navigation::executor::SiteNavigator;
use webbase_relational::Value;

fn bench_repair_overhead(c: &mut Criterion) {
    let wb = lan_webbase();
    let mut group = c.benchmark_group("repair_overhead");
    group.sample_size(30);
    // make=ford with model unbound paginates: long More chains mean
    // many interned pages, i.e. the worst healthy case for the probe.
    let given = vec![("make".to_string(), Value::str("ford"))];
    for host in ["www.newsday.com", "www.wwwheels.com"] {
        let map = wb.map_for(host).expect("mapped").clone();
        let relation =
            webbase::timing::timing_relations().iter().find(|(h, _)| *h == host).unwrap().1;
        let web = wb.web().clone();
        group.bench_function(format!("{host}/healing_on"), |b| {
            b.iter(|| {
                let nav = SiteNavigator::new(web.clone(), map.clone());
                let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                black_box(records.len())
            });
        });
        group.bench_function(format!("{host}/healing_off"), |b| {
            b.iter(|| {
                let nav = SiteNavigator::new(web.clone(), map.clone()).without_healing();
                let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                black_box(records.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair_overhead);
criterion_main!(benches);
