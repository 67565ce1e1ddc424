//! §6 structured-UR benchmarks: maximal-object enumeration over the
//! Figure 5 hierarchy, scaling over synthetic hierarchies, and query
//! planning (without execution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webbase_bench::lan_webbase;
use webbase_ur::compat::{example62_rules, CompatRule, CompatRules};
use webbase_ur::hierarchy::{figure5, Alternative, ChoiceGroup, Hierarchy};
use webbase_ur::maximal::maximal_objects;
use webbase_ur::query::parse_query;

/// A synthetic hierarchy with `groups` choice groups of two alternatives
/// plus one exclusion rule per adjacent group pair.
fn synthetic(groups: usize) -> (Hierarchy, CompatRules) {
    let h = Hierarchy {
        ur_name: "SyntheticUR".into(),
        groups: (0..groups)
            .map(|g| ChoiceGroup {
                name: format!("G{g}"),
                alternatives: vec![
                    Alternative::new(&format!("A{g}"), &format!("rel{g}")),
                    Alternative::new(&format!("B{g}"), &format!("rel{g}")),
                ],
            })
            .collect(),
    };
    let rules = CompatRules::new(
        (1..groups)
            .map(|g| CompatRule::excludes(&[&format!("A{}", g - 1)], &format!("B{g}")))
            .collect(),
    );
    (h, rules)
}

fn bench_ur(c: &mut Criterion) {
    let mut group = c.benchmark_group("ur");

    // The paper's Figure 5 instance.
    let h = figure5();
    let rules = example62_rules();
    group.bench_function("maximal_objects_figure5", |b| {
        b.iter(|| black_box(maximal_objects(black_box(&h), black_box(&rules)).len()));
    });

    for n in [4usize, 6, 8] {
        let (sh, sr) = synthetic(n);
        group.bench_with_input(BenchmarkId::new("maximal_objects_synthetic", n), &n, |b, _| {
            b.iter(|| black_box(maximal_objects(black_box(&sh), black_box(&sr)).len()));
        });
    }

    // Query parse + plan over the real webbase (no execution).
    let wb = lan_webbase();
    let text = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                safety='good', condition='good') WHERE price < bbprice";
    group.bench_function("parse_query", |b| {
        b.iter(|| black_box(parse_query(black_box(text)).expect("parses").outputs.len()));
    });
    let q = parse_query(text).expect("parses");
    group.bench_function("plan_jaguar_query", |b| {
        b.iter(|| {
            black_box(wb.planner().plan(black_box(&q), &wb.layer).expect("plans").objects.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ur);
criterion_main!(benches);
