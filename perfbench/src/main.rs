//! The repository benchmark: three seeded closed-loop workloads over the
//! shared webbase `Engine`, with real-time end-to-end metrics and an
//! outside-in per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mix|gen200-cold|paper-drift --seed N --seconds S --trace 0|1
//! ```
//!
//! Two closed-loop client threads (tenants that each wait for their
//! reply) drive one `Engine` in-process; the wire protocol and TCP stay
//! outside the timed path. The work comes in rounds: a round sets up a
//! fresh engine and sends it a fixed number of operations, so every
//! round does the same work and a machine that runs faster or slower for
//! a while moves only the times. Rounds repeat until `S` seconds have
//! passed, and the metrics pool every round.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` it runs untraced rounds for `S/2` seconds and traced
//! rounds for `S/2`, and prints the per-layer metrics and the tracing
//! overhead. Either way the answers are checked, and the last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod bench;
mod layers;
mod stats;
mod trace;
mod workload;

use bench::{Round, Verdict};
use stats::{median, Latency};
use std::process::ExitCode;
use std::time::Instant;
use webbase::EngineStats;
use workload::{Workload, CLIENTS};

/// Extra set-ups before the rounds of an untraced run: at least the
/// first, at most the second, until `SETUP_BUDGET_S` is spent. With the
/// rounds' own they give the median `setup_s`.
const SETUP_REPS: (usize, usize) = (5, 40);
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples of every round and client, concatenated.
fn pooled(rounds: &[Round], pick: impl Fn(&bench::ClientLog) -> &Vec<u64>) -> Vec<u64> {
    rounds.iter().flat_map(|r| r.logs.iter()).flat_map(|l| pick(l).iter().copied()).collect()
}

/// An engine counter's growth over the timed loops of every round.
fn delta(rounds: &[Round], f: fn(&EngineStats) -> u64) -> f64 {
    rounds.iter().map(|r| (f(&r.after) - f(&r.before)) as f64).sum()
}

fn ops(rounds: &[Round]) -> usize {
    rounds
        .iter()
        .flat_map(|r| r.logs.iter())
        .map(|l| l.cold_ns.len() + l.warm_ns.len() + l.write_ns.len())
        .sum()
}

/// Each workload's tail-percentile ceiling for cold reads, fixed from
/// the samples one round yields (750, 200 and 100), so a faster program
/// does not move the metric to another percentile.
fn cold_ceiling(w: Workload) -> u32 {
    match w {
        Workload::PaperMix | Workload::Gen200Cold => 95,
        Workload::PaperDrift => 90,
    }
}

/// The end-to-end figures of a set of untraced rounds.
pub struct EndToEnd {
    pub qps: f64,
    pub cold: Latency,
    pub warm_p50_ms: f64,
    pub fetches_per_query: f64,
}

fn end_to_end(w: Workload, rounds: &[Round]) -> Result<EndToEnd, String> {
    let cold = pooled(rounds, |l| &l.cold_ns);
    let warm = pooled(rounds, |l| &l.warm_ns);
    let writes = pooled(rounds, |l| &l.write_ns);
    let all: Vec<u64> = [&cold[..], &warm[..], &writes[..]].concat();
    let cold_l = Latency::of(&cold, cold_ceiling(w)).ok_or("too few cold queries for a tail")?;
    let probes: Vec<f64> = rounds.iter().flat_map(|r| r.warm_ms.iter().copied()).collect();
    let refresh: Vec<f64> = rounds.iter().flat_map(|r| r.refresh_ms.iter().copied()).collect();
    let elapsed: f64 = rounds.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let n = ops(rounds) as f64;
    let e = EndToEnd {
        qps: n / elapsed,
        cold: cold_l,
        warm_p50_ms: median(&probes),
        fetches_per_query: delta(rounds, |s| s.web_requests) / n,
    };
    let line = |name: &str, l: &Latency| {
        println!(
            "e2e: {name:<8} p50 {:10.3} ms  p{} {:10.3} ms  ({} samples)",
            l.p50_ms, l.tail_pct, l.tail_ms, l.count
        );
    };
    let reads = (cold.len() + warm.len()) as f64;
    println!(
        "e2e: {} rounds, {n} ops in {elapsed:.3} s = {:.1} ops/s; {} cold / {} warm reads \
         ({:.1}% / {:.1}%), {} writes",
        rounds.len(),
        e.qps,
        cold.len(),
        warm.len(),
        100.0 * ratio(cold.len() as f64, reads),
        100.0 * ratio(warm.len() as f64, reads),
        writes.len()
    );
    line("cold", &e.cold);
    for (name, ns) in [("repeats", &warm), ("all ops", &all)] {
        if let Some(l) = Latency::of(ns, 99) {
            line(name, &l);
        }
    }
    println!("e2e: warm     p50 {:10.3} ms  ({} serial repeats)", e.warm_p50_ms, probes.len());
    // Printed, not a metric: the static-Web passes read bimodally.
    println!("e2e: refresh  p50 {:10.3} ms  ({} samples)", median(&refresh), refresh.len());
    println!(
        "e2e: fetches/op {:.3}; result cache {} hits / {} misses / {} coalesced; \
         journal {:.3} MB per round (flushed, never fsynced)",
        e.fetches_per_query,
        delta(rounds, |s| s.result_hits),
        delta(rounds, |s| s.result_misses),
        delta(rounds, |s| s.result_coalesced),
        rounds.iter().map(|r| r.journal_growth as f64).sum::<f64>()
            / 1048576.0
            / rounds.len() as f64
    );
    Ok(e)
}

fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in the output object, in insertion order.
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Outcome {
    attempted: u64,
    verdict: Verdict,
    metrics: Metrics,
}

/// Take the rounds' gate verdicts, and count their attempted operations.
fn gate_totals(rounds: &mut [Round]) -> (u64, Verdict) {
    let mut verdict = Verdict::default();
    let mut attempted = 0;
    for r in rounds {
        attempted += r.logs.iter().map(|l| l.attempted).sum::<u64>();
        verdict.add(std::mem::take(&mut r.verdict));
    }
    (attempted, verdict)
}

fn untraced_run(args: &Args, texts: &[String]) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        drop(bench::setup(w, args.seed, false, texts));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rounds = bench::run_rounds(w, args.seed, texts, args.seconds, false);
    let (attempted, verdict) = gate_totals(&mut rounds);
    setups.extend(rounds.iter().map(|r| r.setup_s));
    let e = end_to_end(w, &rounds)?;
    println!("e2e: setup  p50 {:.6} s over {} set-ups", median(&setups), setups.len());
    let mut m = Metrics(Vec::new());
    m.put("setup_s", median(&setups), "s");
    m.put("qps", e.qps, "1/s");
    m.put("cold_p50_ms", e.cold.p50_ms, "ms");
    m.put("cold_tail_ms", e.cold.tail_ms, "ms");
    m.put("warm_p50_ms", e.warm_p50_ms, "ms");
    m.put("fetches_per_query", e.fetches_per_query, "count");
    m.put("rss_peak_mb", rss_peak_mb(), "MB");
    Ok(Outcome { attempted, verdict, metrics: m })
}

fn traced_run(args: &Args, texts: &[String]) -> Result<Outcome, String> {
    let (w, seed, half) = (args.workload, args.seed, args.seconds / 2.0);
    // Reference: the same rounds untraced.
    let mut plain = bench::run_rounds(w, seed, texts, half, false);
    let (mut attempted, mut verdict) = gate_totals(&mut plain);
    let e0 = end_to_end(w, &plain)?;
    trace::enable(true);
    let mut traced = bench::run_rounds(w, seed, texts, half, true);
    let (more, v) = gate_totals(&mut traced);
    attempted += more;
    verdict.add(v);
    let html = layers::html_rates(&trace::take_bodies());
    let spans = trace::take_spans();
    trace::enable(false);
    println!("traced rounds:");
    let e1 = end_to_end(w, &traced)?;
    let path = bench::out_dir().join(format!("trace-{}.jsonl", w.name()));
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_jsonl(&spans, &mut file)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    layers::print_self_times(&spans);
    let metrics = layers::per_layer(&spans, &traced, &e0, &e1, html);
    Ok(Outcome { attempted, verdict, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(bench::out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", bench::out_dir().display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} clients {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let texts = bench::paper_texts(args.workload, args.seed);
    let outcome = if args.trace { traced_run(&args, &texts) } else { untraced_run(&args, &texts) };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.verdict.messages {
        eprintln!("perfbench: FAIL {m}");
    }
    let correct = outcome.verdict.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.verdict.failed,
        outcome.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
