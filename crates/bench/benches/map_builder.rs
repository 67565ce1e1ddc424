//! §7 map-builder benchmark: replaying a designer session into a
//! navigation map, and compiling the map into its navigation programs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webbase_bench::bench_dataset;
use webbase_navigation::compile::compile_map;
use webbase_navigation::recorder::Recorder;
use webbase_navigation::sessions;
use webbase_webworld::prelude::*;

fn bench_map_builder(c: &mut Criterion) {
    let data = bench_dataset();
    let web = standard_web(data.clone(), LatencyModel::lan());
    let mut group = c.benchmark_group("map_builder");
    group.sample_size(20);

    // The full Newsday session (the paper's ~30-minutes-by-hand case).
    let newsday = sessions::newsday(&data);
    group.bench_function("record_newsday", |b| {
        b.iter(|| {
            let (map, stats) =
                Recorder::record(web.clone(), "www.newsday.com", black_box(&newsday))
                    .expect("records");
            black_box((map.nodes.len(), stats.objects))
        });
    });

    // All thirteen sites.
    let all = sessions::all_sessions(&data);
    group.bench_function("record_all_sites", |b| {
        b.iter(|| {
            let mut total = 0;
            for (host, session) in &all {
                let (map, _) = Recorder::record(web.clone(), host, session).expect("records");
                total += map.object_count();
            }
            black_box(total)
        });
    });

    // Map → Transaction F-logic compilation (the paper: linear time).
    let (map, _) = Recorder::record(web.clone(), "www.newsday.com", &newsday).expect("records");
    group.bench_function("compile_newsday", |b| {
        b.iter(|| black_box(compile_map(black_box(&map)).expect("compiles").program.rule_count()));
    });
    group.finish();
}

criterion_group!(benches, bench_map_builder);
criterion_main!(benches);
