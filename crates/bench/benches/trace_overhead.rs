//! Healthy-path cost of the observability hooks: every instrumented
//! layer guards its span construction behind `Obs::tracing()` and its
//! counter bumps behind an `Option` on the registry, so with the sink
//! disabled the whole subsystem should be a handful of branches per
//! fetch. The three navigators below run the same paginating query with
//! observability off, metrics-only, and full tracing; `off` must stay
//! within noise of the pre-observability baseline (<3% is the
//! acceptance bar), and `trace` bounds the worst case users opt into
//! with `repro --trace`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use webbase::{MetricsRegistry, Obs};
use webbase_bench::lan_webbase;
use webbase_navigation::executor::SiteNavigator;
use webbase_relational::Value;

fn bench_trace_overhead(c: &mut Criterion) {
    let wb = lan_webbase();
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(30);
    // make=ford with model unbound paginates: the most fetches and nav
    // steps per run, i.e. the worst healthy case for per-step guards.
    let given = vec![("make".to_string(), Value::str("ford"))];
    for host in ["www.newsday.com", "www.wwwheels.com"] {
        let map = wb.map_for(host).expect("mapped").clone();
        let relation =
            webbase::timing::timing_relations().iter().find(|(h, _)| *h == host).unwrap().1;
        let web = wb.web().clone();
        // One unmeasured run so lazily generated pages in the shared web
        // are hot before the first mode is timed (the modes would
        // otherwise be ordered by how much one-time work they absorbed).
        let warm = SiteNavigator::new(web.clone(), map.clone());
        warm.run_relation(relation, &given).expect("warms");
        type ObsMaker = fn() -> Obs;
        let modes: [(&str, ObsMaker); 3] = [
            ("off", Obs::none),
            ("metrics", || Obs::metrics_only(Arc::new(MetricsRegistry::new()))),
            ("trace", Obs::full),
        ];
        for (mode, make_obs) in modes {
            group.bench_function(format!("{host}/{mode}"), |b| {
                b.iter(|| {
                    let nav = SiteNavigator::new(web.clone(), map.clone());
                    nav.set_obs(make_obs());
                    let (records, _) = nav.run_relation(relation, black_box(&given)).expect("runs");
                    black_box(records.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
