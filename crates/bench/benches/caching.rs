//! Fetch-cache ablation: the same navigation with the browser cache on
//! versus off. Backtracking in the Transaction F-logic interpreter
//! re-executes navigation prefixes; the cache absorbs those
//! re-executions (and repeated invocations of one relation during a
//! dependent join).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webbase_bench::lan_webbase;
use webbase_navigation::executor::SiteNavigator;
use webbase_relational::Value;

fn bench_caching(c: &mut Criterion) {
    let wb = lan_webbase();
    let map = wb.map_for("www.newsday.com").expect("mapped").clone();
    let web = wb.web().clone();
    let given = vec![("make".to_string(), Value::str("ford"))];
    let mut group = c.benchmark_group("fetch_cache");
    group.sample_size(20);
    group.bench_function("cached", |b| {
        b.iter(|| {
            let nav = SiteNavigator::new(web.clone(), map.clone());
            let (records, stats) = nav.run_relation("newsday", black_box(&given)).expect("runs");
            black_box((records.len(), stats.pages_fetched))
        });
    });
    group.bench_function("uncached", |b| {
        b.iter(|| {
            let nav = SiteNavigator::new(web.clone(), map.clone()).without_cache();
            let (records, stats) = nav.run_relation("newsday", black_box(&given)).expect("runs");
            black_box((records.len(), stats.pages_fetched))
        });
    });
    // Repeated invocation of one relation through a shared navigator —
    // the dependent-join access pattern.
    group.bench_function("repeated_invocations_shared_cache", |b| {
        b.iter(|| {
            let nav = SiteNavigator::new(web.clone(), map.clone());
            let mut total = 0;
            for make in ["ford", "toyota", "honda"] {
                let given = vec![("make".to_string(), Value::str(make))];
                let (records, _) = nav.run_relation("newsday", &given).expect("runs");
                total += records.len();
            }
            black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_caching);
criterion_main!(benches);
