//! Per-layer metrics, derived from the spans of the traced rounds and
//! the engine's counters around them.

use crate::bench::Round;
use crate::trace::{self, span, Span};
use crate::{delta, ops, ratio, EndToEnd, Metrics};
use std::collections::BTreeMap;
use std::time::Instant;
use webbase::EngineStats;

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Mean duration (µs) of the spans named `name`.
fn mean_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect();
    mean(&d)
}

/// Print, per span name, the count, total time and self time.
pub fn print_self_times(spans: &[Span]) {
    let mut rows: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(trace::self_times(spans)) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += own;
    }
    println!(
        "trace: {:<20} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "self ms", "self us/span"
    );
    for (name, (n, total, own)) in rows {
        println!(
            "trace: {name:<20} {n:>8} {:>12.3} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e3 / n as f64
        );
    }
}

/// Time html parsing and extraction over the bodies the traced rounds
/// were served. Returns (parse µs/KB, extract µs/KB).
pub fn html_rates(bodies: &[bytes::Bytes]) -> (f64, f64) {
    let texts: Vec<&str> = bodies.iter().map(|b| std::str::from_utf8(b).unwrap_or("")).collect();
    let kb: f64 = texts.iter().map(|t| t.len() as f64).sum::<f64>() / 1024.0;
    if kb == 0.0 {
        return (0.0, 0.0);
    }
    let (mut parse_ns, mut extract_ns, mut passes) = (0u128, 0u128, 0u32);
    // Enough passes for a measurable total, whatever the sample size.
    while passes < 3 || (parse_ns < 50_000_000 && passes < 50) {
        for text in &texts {
            let t0 = Instant::now();
            let doc = span("html.parse", || webbase_html::parse(text));
            let t1 = Instant::now();
            span("html.extract", || {
                std::hint::black_box((
                    webbase_html::extract::links(&doc),
                    webbase_html::extract::forms(&doc),
                    webbase_html::extract::tables(&doc),
                ))
            });
            parse_ns += (t1 - t0).as_nanos();
            extract_ns += t1.elapsed().as_nanos();
        }
        passes += 1;
    }
    let per_kb = |ns: u128| ns as f64 / 1e3 / (kb * f64::from(passes));
    (per_kb(parse_ns), per_kb(extract_ns))
}

/// The per-layer metrics of the traced rounds; `plain` and `traced` are
/// the end-to-end figures of the untraced and traced rounds, whose
/// difference is the tracing overhead.
pub fn per_layer(
    spans: &[Span],
    rounds: &[Round],
    plain: &EndToEnd,
    traced: &EndToEnd,
    html: (f64, f64),
) -> Metrics {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let parent = |s: &Span| s.parent.and_then(|p| by_id.get(&p).copied());
    let cold_query =
        |s: &Span| s.name == "core.query" && parent(s).is_some_and(|p| p.name == "read.cold");
    // Per cold read (µs, KB): parse, explain, query, serving under the
    // query, and the bytes served.
    let mut cold: BTreeMap<u64, [f64; 5]> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op != 0) {
        let slot = match s.name {
            "ur.parse" => 0,
            "core.explain" => 1,
            "core.query" if cold_query(s) => 2,
            "webworld.serve" if parent(s).is_some_and(cold_query) => 3,
            _ => continue,
        };
        let row = cold.entry(s.op).or_default();
        row[slot] += s.dur_ns() as f64 / 1e3;
        if slot == 3 {
            row[4] += s.bytes as f64 / 1024.0;
        }
    }
    let rows: Vec<[f64; 5]> = cold.values().copied().filter(|r| r[2] > 0.0).collect();
    let col = |f: &dyn Fn(&[f64; 5]) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
    let (parse_us, explain_us, query_us) = (col(&|r| r[0]), col(&|r| r[1]), col(&|r| r[2]));
    let (serve_us, kb) = (col(&|r| r[3]), col(&|r| r[4]));
    let exec_us = col(&|r| r[2] - r[1]);
    let html_us = (html.0 + html.1) * kb;
    let probes: Vec<_> = rounds.iter().flat_map(|r| &r.logs).flat_map(|l| &l.cold_probes).collect();
    let probe_mean = |f: &dyn Fn(&crate::bench::ColdProbe) -> f64| {
        mean(&probes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let d = |f: fn(&EngineStats) -> u64| delta(rounds, f);
    let hit_ratio = |hits: fn(&EngineStats) -> u64, misses: fn(&EngineStats) -> u64| {
        ratio(d(hits), d(hits) + d(misses))
    };
    let per_round = |f: &dyn Fn(&Round) -> f64| mean(&rounds.iter().map(f).collect::<Vec<_>>());

    let mut m = Metrics(Vec::new());
    m.put("core.explain_us", explain_us, "us");
    m.put("core.exec_us", exec_us, "us");
    m.put("core.exec_residual_us", exec_us - serve_us - html_us, "us");
    m.put("core.explain_share", ratio(explain_us, query_us), "ratio");
    m.put("core.result_hit_ratio", hit_ratio(|s| s.result_hits, |s| s.result_misses), "ratio");
    m.put("core.result_coalesced", d(|s| s.result_coalesced), "count");
    m.put("core.refresh_us", mean_us(spans, "core.refresh"), "us");
    m.put("core.view_rebuild_us", mean_us(spans, "core.view_rebuild"), "us");
    m.put("navigation.sweep_us", mean_us(spans, "navigation.sweep"), "us");
    let refreshes = d(|s| s.delta_refresh) + d(|s| s.cold_refresh);
    m.put("core.delta_share", ratio(d(|s| s.delta_refresh), refreshes), "ratio");
    m.put(
        "core.views_invalidated_per_event",
        ratio(d(|s| s.view_invalidated), d(|s| s.drift_events)),
        "count",
    );
    m.put("core.tracked_views", per_round(&|r| r.tracked_views as f64), "count");
    m.put("vps.memo_len", per_round(&|r| r.after.memo_len as f64), "count");
    m.put("ur.parse_us", parse_us, "us");
    m.put("ur.objects_per_query", probe_mean(&|p| p.objects as f64), "count");
    m.put("vps.memo_hit_ratio", hit_ratio(|s| s.memo_hits, |s| s.memo_misses), "ratio");
    m.put("vps.invocations_per_query", probe_mean(&|p| p.invocations as f64), "count");
    m.put("navigation.store_hit_ratio", hit_ratio(|s| s.store_hits, |s| s.store_misses), "ratio");
    m.put("navigation.nav_steps_per_query", probe_mean(&|p| p.nav_steps as f64), "count");
    m.put("navigation.record_us", mean_us(spans, "navigation.record"), "us");
    m.put("webcheck.analyze_us", mean_us(spans, "webcheck.analyze"), "us");
    let journal: f64 = rounds.iter().map(|r| r.journal_growth as f64).sum();
    m.put("navigation.journal_bytes_per_query", ratio(journal, ops(rounds) as f64), "B");
    m.put("webworld.serve_us", serve_us, "us");
    m.put("webworld.kb_per_query", kb, "KB");
    m.put("html.parse_us_per_kb", html.0, "us/KB");
    m.put("html.extract_us_per_kb", html.1, "us/KB");
    m.put("trace.overhead_qps_pct", 100.0 * ratio(plain.qps - traced.qps, plain.qps), "%");
    m.put(
        "trace.overhead_cold_p50_pct",
        100.0 * ratio(traced.cold.p50_ms - plain.cold.p50_ms, plain.cold.p50_ms),
        "%",
    );
    println!(
        "layers: cold query {query_us:.1} us = explain {explain_us:.1} + exec {exec_us:.1}; \
         exec = serve {serve_us:.1} + html est {html_us:.1} + residual {:.1}; \
         explain share {:.3}",
        exec_us - serve_us - html_us,
        ratio(explain_us, query_us)
    );
    println!(
        "layers: base counts: result {} hits / {} misses, memo {} / {}, store {} / {}, \
         refreshes {} delta / {} cold over {} drift events, {} cold reads traced",
        d(|s| s.result_hits),
        d(|s| s.result_misses),
        d(|s| s.memo_hits),
        d(|s| s.memo_misses),
        d(|s| s.store_hits),
        d(|s| s.store_misses),
        d(|s| s.delta_refresh),
        d(|s| s.cold_refresh),
        d(|s| s.drift_events),
        rows.len()
    );
    m
}
