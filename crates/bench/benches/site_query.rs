//! §7 timing table benchmark: the `make=ford AND model=escort` query
//! against representative sites, measuring real CPU time per site
//! (the repro binary reports the simulated elapsed time separately).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webbase::timing::timing_relations;
use webbase_bench::lan_webbase;
use webbase_navigation::executor::SiteNavigator;
use webbase_relational::Value;

fn bench_site_queries(c: &mut Criterion) {
    let wb = lan_webbase();
    let mut group = c.benchmark_group("site_query");
    group.sample_size(10);
    for (host, relation) in timing_relations() {
        // Representative spread: the biggest chain, a mid-size site, the
        // conditional site, and the form-chain site.
        if !matches!(
            host,
            "www.wwwheels.com" | "www.nytimes.com" | "www.newsday.com" | "www.kbb.com"
        ) {
            continue;
        }
        let map = wb.map_for(host).expect("mapped").clone();
        let web = wb.web().clone();
        let mut given = vec![
            ("make".to_string(), Value::str("ford")),
            ("model".to_string(), Value::str("escort")),
        ];
        if relation == "kellys" {
            given.push(("condition".to_string(), Value::str("good")));
            given.push(("pricetype".to_string(), Value::str("retail")));
        }
        group.bench_function(host, |b| {
            b.iter(|| {
                // Fresh navigator per iteration: cold cache, like the
                // paper's per-site measurements.
                let nav = SiteNavigator::new(web.clone(), map.clone());
                let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                black_box(records.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_site_queries);
criterion_main!(benches);
