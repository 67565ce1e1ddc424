//! `loadgen` — the multi-query engine's load generator.
//!
//! Runs the same jaguar/ford workload through three cost models and
//! reports queries-per-second and p50/p99 *simulated* network latency
//! per query:
//!
//! * `serial_isolated` — every query on a private session with a
//!   private page store and no memo: the pre-engine single-owner
//!   baseline (what N users each running their own stack would pay).
//! * `serial_shared` — the same queries, one at a time, through the
//!   shared engine: page store + answer memo reuse, no concurrency.
//! * `concurrent_shared` — the same queries fanned across worker
//!   threads over the shared engine: the `webbased` serving model.
//!
//! Every mode must produce byte-identical answers per query; the run
//! fails otherwise. The acceptance target is concurrent-shared qps
//! above 4x serial-isolated qps. Parallelism can account for at most
//! the machine's core count of that speedup (the report records it);
//! the rest comes from *sharing* (skipped fetches, parses, and F-logic
//! interpretation) — which is the architectural claim: the engine's
//! shared artifacts, not thread count, carry the multi-tenant load.
//!
//! ```text
//! loadgen [--queries 48] [--threads 16] [--seed 42] [--ads 900]
//!         [--smoke] [--write] [--disconnect-rate R] [--chaos]
//!         [--drift-rate R] [--consistency]
//! ```
//!
//! `--write` saves the report to `BENCH_loadgen.json`; `--smoke` is
//! the CI configuration (small workload, no file output).
//!
//! `--sites N` switches the workload to a **generated corpus**: `N`
//! clean seeded webworld sites (see `webbase_webworld::generate`), one
//! exemplar structured-UR query per site, cycled to the query budget.
//! The engine builds over the generated corpus via
//! `Engine::build_corpus`; shared answers are gated byte-identical
//! against isolated re-runs, and the `readset_escape` and
//! `stale_served` tripwires must both be zero.
//!
//! The freshness flags benchmark the result cache under drift instead:
//! `--drift-rate R` mutates the NYTimes site under roughly `R` drift
//! events per query and runs the workload twice — once with
//! incremental view maintenance (`engine.refresh`: sweep + the refresh
//! ladder, which re-runs only the plan objects a drift touched where it
//! can and every object otherwise) and once with sweep-only
//! invalidation (views evicted, every refresh paid as a cold recompute
//! on the next miss) — reporting `stale_hits` (served stale answers:
//! must be 0) and `refreshes` (object-level "delta" / cold) columns per
//! mode. `--consistency` runs
//! that comparison at 1%, 5%, and 20% drift and (with `--write`)
//! saves `BENCH_consistency.json`.
//!
//! The failure-injection flags exercise the crash-safe runtime under
//! load: `--disconnect-rate R` cancels roughly every `1/R`-th shared
//! query mid-navigation (a client hanging up), `--chaos` makes every
//! fifth shared query panic at its first checkpoint. Every injected
//! failure is followed by a clean re-run of the same query, and the
//! answer-equality gate applies to the recovered answer — so the run
//! only passes if the engine actually absorbs the failures. The
//! isolated baseline is never injected; per-mode `failed`/`recovered`
//! counts land in the report.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use webbase::{
    CancelToken, Engine, EngineConfig, EngineError, LatencyModel, QueryOptions, Relation,
};

const JAGUAR: &str = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                      safety='good', condition='good') WHERE price < bbprice";
const FORD: &str = "UsedCarUR(make='ford', price)";

struct Args {
    queries: usize,
    threads: usize,
    seed: u64,
    ads: usize,
    write: bool,
    smoke: bool,
    disconnect_rate: f64,
    chaos: bool,
    drift_rate: f64,
    consistency: bool,
    sites: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: 48,
        threads: 16,
        seed: 42,
        ads: 900,
        write: false,
        smoke: false,
        disconnect_rate: 0.0,
        chaos: false,
        drift_rate: 0.0,
        consistency: false,
        sites: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--queries" => {
                args.queries =
                    value("--queries")?.parse().map_err(|e| format!("--queries: {e}"))?;
            }
            "--threads" => {
                args.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ads" => args.ads = value("--ads")?.parse().map_err(|e| format!("--ads: {e}"))?,
            "--write" => args.write = true,
            "--smoke" => {
                args.queries = 8;
                args.threads = 4;
                args.ads = 400;
                args.smoke = true;
            }
            "--disconnect-rate" => {
                args.disconnect_rate = value("--disconnect-rate")?
                    .parse()
                    .map_err(|e| format!("--disconnect-rate: {e}"))?;
            }
            "--chaos" => args.chaos = true,
            "--drift-rate" => {
                args.drift_rate =
                    value("--drift-rate")?.parse().map_err(|e| format!("--drift-rate: {e}"))?;
            }
            "--consistency" => args.consistency = true,
            "--sites" => {
                args.sites = value("--sites")?.parse().map_err(|e| format!("--sites: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "loadgen [--queries 48] [--threads 16] [--seed 42] [--ads 900] \
                     [--smoke] [--write] [--disconnect-rate R] [--chaos] \
                     [--drift-rate R] [--consistency] [--sites N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.threads == 0 || args.queries == 0 {
        return Err("--queries and --threads must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&args.disconnect_rate) {
        return Err("--disconnect-rate takes a fraction in [0, 1]".to_string());
    }
    if !(0.0..=1.0).contains(&args.drift_rate) {
        return Err("--drift-rate takes a fraction in [0, 1]".to_string());
    }
    Ok(args)
}

/// What (if anything) to break in one query. Deterministic per index,
/// so every mode injects the same failures and runs stay comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    Clean,
    /// Cancel after the second navigation checkpoint — a client that
    /// disconnected mid-query.
    Disconnect,
    /// Panic at the first checkpoint — a crashing query thread.
    Panic,
}

fn injection(args: &Args, index: usize, isolated: bool) -> Inject {
    // The isolated baseline is the answer oracle: never injected.
    if isolated {
        return Inject::Clean;
    }
    if args.chaos && index.is_multiple_of(5) {
        return Inject::Panic;
    }
    if args.disconnect_rate > 0.0 {
        let stride = (1.0 / args.disconnect_rate).round().max(1.0) as usize;
        if index.is_multiple_of(stride) {
            return Inject::Disconnect;
        }
    }
    Inject::Clean
}

/// The alternating jaguar/ford workload, one entry per query.
fn workload(n: usize) -> Vec<String> {
    (0..n).map(|i| if i % 2 == 0 { JAGUAR.to_string() } else { FORD.to_string() }).collect()
}

struct QueryRun {
    index: usize,
    relation: Relation,
    simulated_ms: f64,
    /// This query's first attempt was broken by injection (cancelled
    /// or panicked) — `relation` is the clean re-run's answer.
    failed: bool,
}

struct ModeReport {
    qps: f64,
    wall_ms: f64,
    p50_simulated_ms: f64,
    p99_simulated_ms: f64,
    /// Injected failures, and how many of them re-ran to the correct
    /// answer (the equality gate fails the run if any did not).
    failed: u64,
    recovered: u64,
    runs: Vec<QueryRun>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn finish(mut runs: Vec<QueryRun>, wall_ms: f64) -> ModeReport {
    runs.sort_by_key(|r| r.index);
    let mut sims: Vec<f64> = runs.iter().map(|r| r.simulated_ms).collect();
    sims.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let failed = runs.iter().filter(|r| r.failed).count() as u64;
    ModeReport {
        qps: runs.len() as f64 / (wall_ms / 1000.0),
        wall_ms,
        p50_simulated_ms: percentile(&sims, 50.0),
        p99_simulated_ms: percentile(&sims, 99.0),
        failed,
        // Every failed attempt is re-run below; reaching the report at
        // all means the re-run produced an answer (panics abort).
        recovered: failed,
        runs,
    }
}

fn run_clean(
    engine: &Engine,
    tenant: &str,
    text: &str,
    index: usize,
    isolated: bool,
) -> webbase::QueryOutcome {
    if isolated {
        engine.query_isolated(tenant, text, QueryOptions::default())
    } else {
        engine.query(tenant, text, QueryOptions::default())
    }
    .unwrap_or_else(|e| panic!("query {index} failed: {e}"))
}

fn run_query(
    engine: &Engine,
    tenant: &str,
    text: &str,
    index: usize,
    isolated: bool,
    inject: Inject,
) -> QueryRun {
    let failed = match inject {
        Inject::Clean => false,
        Inject::Disconnect | Inject::Panic => {
            let token = match inject {
                Inject::Disconnect => CancelToken::new().cancel_after_polls(2),
                _ => CancelToken::new().panic_after_polls(1),
            };
            let options = QueryOptions { cancel: Some(token.clone()), ..QueryOptions::default() };
            match engine.query(tenant, text, options) {
                // A cache hit can answer before the fuse arms — then
                // nothing failed and there is nothing to recover.
                Ok(_) => token.is_cancelled(),
                Err(EngineError::Panicked(_)) => true,
                Err(e) => panic!("query {index}: injection caused a non-panic failure: {e}"),
            }
        }
    };
    let out = run_clean(engine, tenant, text, index, isolated);
    QueryRun {
        index,
        relation: out.relation,
        simulated_ms: out.metrics.fetch_latency.sum_us as f64 / 1000.0,
        failed,
    }
}

fn serial_mode(engine: &Engine, args: &Args, work: &[String], isolated: bool) -> ModeReport {
    let start = Instant::now();
    let runs: Vec<QueryRun> = work
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let inject = injection(args, i, isolated);
            run_query(engine, &format!("tenant{}", i % 4), text, i, isolated, inject)
        })
        .collect();
    finish(runs, start.elapsed().as_secs_f64() * 1000.0)
}

fn concurrent_mode(engine: &Engine, args: &Args, work: &[String]) -> ModeReport {
    let threads = args.threads;
    let runs = Mutex::new(Vec::with_capacity(work.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let runs = &runs;
            let engine = engine.clone();
            scope.spawn(move || {
                let tenant = format!("tenant{t}");
                for (i, text) in work.iter().enumerate().skip(t).step_by(threads) {
                    let inject = injection(args, i, false);
                    let run = run_query(&engine, &tenant, text, i, false, inject);
                    runs.lock().expect("runs lock").push(run);
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    finish(runs.into_inner().expect("runs lock"), wall_ms)
}

// ── freshness under drift: incremental maintenance vs cold recompute ──

use webbase_bench::{drifting_web, DRIFT_GENERATIONS, DRIFT_HOST as NYTIMES};

fn drifting_build(args: &Args) -> (Engine, webbase_webworld::faults::MutationClock) {
    let data = webbase_webworld::data::Dataset::generate(args.seed, args.ads);
    let (web, clock) = drifting_web(data.clone(), LatencyModel::lan());
    let engine = Engine::build_on(web, data, EngineConfig::default()).expect("engine builds");
    (engine, clock)
}

/// Deterministic drift placement: an event fires at query `i` whenever
/// the cumulative expected event count `(i+1)·rate` crosses an integer,
/// so a run of `n` queries sees ~`n·rate` events, evenly spread.
fn drift_due(i: usize, rate: f64) -> bool {
    rate > 0.0 && ((i + 1) as f64 * rate).floor() > (i as f64 * rate).floor()
}

struct DriftReport {
    qps: f64,
    wall_ms: f64,
    p50_simulated_ms: f64,
    p99_simulated_ms: f64,
    drift_events: u64,
    delta_refresh: u64,
    cold_refresh: u64,
    stale_hits: u64,
    readset_escape: u64,
    web_requests: u64,
    diverged: u64,
}

/// One pass of the workload under drift. `incremental` runs the
/// engine's refresh ladder at every drift event; otherwise the event is
/// a sweep only — views are invalidated and every refresh is paid as a
/// cold recompute by the next query that misses.
fn drift_mode(args: &Args, rate: f64, work: &[String], incremental: bool) -> DriftReport {
    use webbase_navigation::{sweep, DriftOrigin};
    let (engine, clock) = drifting_build(args);
    let mut sims = Vec::with_capacity(work.len());
    let mut drift_events = 0u64;
    let start = Instant::now();
    for (i, text) in work.iter().enumerate() {
        if drift_due(i, rate) && clock.generation() < DRIFT_GENERATIONS as u64 {
            clock.advance();
            drift_events += 1;
            if incremental {
                engine.refresh(Some(NYTIMES), DriftOrigin::Maintenance, None, None);
            } else {
                sweep(
                    engine.web(),
                    engine.store(),
                    engine.drift_bus(),
                    Some(NYTIMES),
                    DriftOrigin::Sweep,
                    None,
                    None,
                );
            }
        }
        let out = run_clean(&engine, &format!("tenant{}", i % 4), text, i, false);
        sims.push(out.metrics.fetch_latency.sum_us as f64 / 1000.0);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let stats = engine.stats();
    // Freshness gate (after the stats snapshot, so oracle traffic does
    // not pollute the web_requests column): the final served answers
    // must equal cold isolated re-runs against the drifted web.
    let mut diverged = 0u64;
    for text in [JAGUAR, FORD] {
        let fresh = engine
            .query_isolated("oracle", text, QueryOptions::default())
            .expect("oracle runs")
            .relation;
        let served =
            engine.query("gate", text, QueryOptions::default()).expect("gate runs").relation;
        if served != fresh {
            diverged += 1;
        }
    }
    sims.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    DriftReport {
        qps: work.len() as f64 / (wall_ms / 1000.0),
        wall_ms,
        p50_simulated_ms: percentile(&sims, 50.0),
        p99_simulated_ms: percentile(&sims, 99.0),
        drift_events,
        delta_refresh: stats.delta_refresh,
        cold_refresh: stats.cold_refresh,
        stale_hits: stats.stale_served,
        readset_escape: stats.readset_escape,
        web_requests: stats.web_requests,
        diverged,
    }
}

fn drift_json(name: &str, m: &DriftReport) -> String {
    format!(
        "      \"{name}\": {{ \"qps\": {:.1}, \"wall_ms\": {:.1}, \
         \"p50_simulated_ms\": {:.1}, \"p99_simulated_ms\": {:.1}, \
         \"drift_events\": {}, \"delta_refresh\": {}, \"cold_refresh\": {}, \
         \"stale_hits\": {}, \"web_requests\": {} }}",
        m.qps,
        m.wall_ms,
        m.p50_simulated_ms,
        m.p99_simulated_ms,
        m.drift_events,
        m.delta_refresh,
        m.cold_refresh,
        m.stale_hits,
        m.web_requests
    )
}

fn drift_row(label: &str, m: &DriftReport) {
    eprintln!(
        "loadgen: {label:<18}{:8.1} qps  events {:>3}  refreshes {} delta / {} cold  \
         stale_hits {}  web requests {:>5}",
        m.qps, m.drift_events, m.delta_refresh, m.cold_refresh, m.stale_hits, m.web_requests
    );
}

/// The `--drift-rate` / `--consistency` entry point: incremental view
/// maintenance vs sweep-and-recompute, at one or three drift rates.
fn drift_main(args: &Args) -> ExitCode {
    // 1% drift needs ≥100 queries to place a single event.
    let n = args.queries.max(100);
    let work = workload(n);
    let rates: Vec<f64> =
        if args.consistency { vec![0.01, 0.05, 0.20] } else { vec![args.drift_rate] };
    eprintln!(
        "loadgen: freshness benchmark — {} queries, seed {}, {} ads, drift rates {:?}",
        n, args.seed, args.ads, rates
    );
    let mut failed = false;
    let mut sections = Vec::new();
    for &rate in &rates {
        eprintln!("loadgen: drift rate {:.0}%", rate * 100.0);
        let incremental = drift_mode(args, rate, &work, true);
        drift_row("drift-incremental", &incremental);
        let cold = drift_mode(args, rate, &work, false);
        drift_row("drift-cold", &cold);
        for (label, m) in [("incremental", &incremental), ("cold", &cold)] {
            if m.stale_hits > 0 {
                eprintln!("loadgen: FAIL — {label} served {} stale answers", m.stale_hits);
                failed = true;
            }
            if m.diverged > 0 {
                eprintln!("loadgen: FAIL — {label} final answers diverged from cold re-runs");
                failed = true;
            }
            if m.readset_escape > 0 {
                eprintln!(
                    "loadgen: FAIL — {label} saw {} fetches outside the static read set",
                    m.readset_escape
                );
                failed = true;
            }
        }
        sections.push(format!(
            "    \"drift_{}pct\": {{\n{},\n{}\n    }}",
            (rate * 100.0).round() as u64,
            drift_json("incremental", &incremental),
            drift_json("cold", &cold)
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"consistency\",\n  \"description\": \"Freshness-safe result cache \
         under drift: the NYTimes site mutates every rendered price on a generation clock at the \
         given rate per query. 'incremental' runs the engine's refresh ladder (sweep, then an \
         object-level refresh re-running only the affected plan objects, or a full re-run where \
         no strict subset is affected) at every drift event; 'cold' only sweeps (views evicted, each refresh paid as a full recompute by \
         the next miss). Served answers are gated against cold isolated re-runs; stale_hits is \
         the engine's stale_served tripwire and must be zero.\",\n  \
         \"command\": \"cargo run --release -p webbase-bench --bin loadgen -- --consistency \
         --queries {} --seed {} --ads {} --write\",\n  \
         \"results\": {{\n{}\n  }},\n  \
         \"target\": \"zero stale answers at every drift rate; incremental refresh re-fetches \
         only the drifted site\",\n  \"verdict\": \"{}\"\n}}\n",
        n,
        args.seed,
        args.ads,
        sections.join(",\n"),
        if failed { "FAIL" } else { "PASS — no stale answers served at any drift rate" }
    );
    println!("{json}");
    if args.write {
        std::fs::write("BENCH_consistency.json", &json).expect("write BENCH_consistency.json");
        eprintln!("loadgen: wrote BENCH_consistency.json");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ── generated-corpus mode: N seeded sites, one exemplar query each ──

/// The `--sites N` entry point: build the engine over a clean generated
/// corpus, cycle each site's exemplar query through the three modes,
/// gate shared answers against isolated re-runs, and pin both engine
/// tripwires (`readset_escape`, `stale_served`) to zero. Correctness
/// only — with one distinct query per site there is little cross-query
/// sharing, so no qps gate applies.
fn sites_main(args: &Args) -> ExitCode {
    use webbase_webworld::generate::{GenCorpus, SiteSpec};
    let corpus = GenCorpus::generate(args.seed, args.sites);
    let exemplars: Vec<String> = corpus.specs.iter().map(SiteSpec::exemplar_query).collect();
    let n = args.queries.max(args.sites);
    let work: Vec<String> = (0..n).map(|i| exemplars[i % exemplars.len()].clone()).collect();
    eprintln!(
        "loadgen: generated corpus — {} sites, {} queries, {} threads, seed {}",
        args.sites, n, args.threads, args.seed
    );
    let build = |label: &str| {
        eprintln!("loadgen: building {label} engine over the generated corpus...");
        let web = corpus.web(LatencyModel::lan());
        Engine::build_corpus(web, webbase::Corpus::generated(&corpus), EngineConfig::default())
            .expect("engine builds")
    };

    let iso_engine = build("serial-isolated");
    let isolated = serial_mode(&iso_engine, args, &work, true);
    eprintln!("loadgen: serial-isolated  {:8.1} qps", isolated.qps);

    let shared_engine = build("serial-shared");
    let shared = serial_mode(&shared_engine, args, &work, false);
    eprintln!("loadgen: serial-shared    {:8.1} qps", shared.qps);

    let conc_engine = build("concurrent-shared");
    let concurrent = concurrent_mode(&conc_engine, args, &work);
    eprintln!("loadgen: concurrent-shared{:8.1} qps", concurrent.qps);

    let mut failed = false;
    for (i, base) in isolated.runs.iter().enumerate() {
        for (mode, report) in [("serial_shared", &shared), ("concurrent_shared", &concurrent)] {
            if report.runs[i].relation != base.relation {
                eprintln!("loadgen: FAIL — {mode} query {i} diverged from the isolated answer");
                failed = true;
            }
        }
    }
    if !failed {
        eprintln!("loadgen: all {n} answers byte-identical across modes");
    }
    for (label, engine) in [
        ("serial-isolated", &iso_engine),
        ("serial-shared", &shared_engine),
        ("concurrent-shared", &conc_engine),
    ] {
        let stats = engine.stats();
        if stats.readset_escape > 0 {
            eprintln!(
                "loadgen: FAIL — {label} saw {} fetches outside the static read set",
                stats.readset_escape
            );
            failed = true;
        }
        if stats.stale_served > 0 {
            eprintln!("loadgen: FAIL — {label} served {} stale answers", stats.stale_served);
            failed = true;
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"loadgen_sites\",\n  \"description\": \"Generated-corpus load: {} \
         seeded synthetic sites, one exemplar structured-UR query per site, cycled to {} queries \
         and run serial-isolated, serial-shared, and across {} threads. Answers are gated \
         byte-identical across modes; readset_escape and stale_served must both be zero.\",\n  \
         \"command\": \"cargo run --release -p webbase-bench --bin loadgen -- --sites {} \
         --seed {}\",\n  \"results\": {{\n{},\n{},\n{}\n  }},\n  \
         \"target\": \"equal answers across modes; zero tripwires\",\n  \"verdict\": \"{}\"\n}}\n",
        args.sites,
        n,
        args.threads,
        args.sites,
        args.seed,
        mode_json("serial_isolated", &isolated),
        mode_json("serial_shared", &shared),
        mode_json("concurrent_shared", &concurrent),
        if failed { "FAIL" } else { "PASS — generated corpus served with zero tripwires" }
    );
    println!("{json}");
    if args.write {
        std::fs::write("BENCH_loadgen_sites.json", &json).expect("write BENCH_loadgen_sites.json");
        eprintln!("loadgen: wrote BENCH_loadgen_sites.json");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn mode_json(name: &str, m: &ModeReport) -> String {
    format!(
        "    \"{name}\": {{ \"qps\": {:.1}, \"wall_ms\": {:.1}, \
         \"p50_simulated_ms\": {:.1}, \"p99_simulated_ms\": {:.1}, \
         \"failed\": {}, \"recovered\": {} }}",
        m.qps, m.wall_ms, m.p50_simulated_ms, m.p99_simulated_ms, m.failed, m.recovered
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.sites > 0 {
        return sites_main(&args);
    }
    if args.consistency || args.drift_rate > 0.0 {
        return drift_main(&args);
    }
    let work = workload(args.queries);
    eprintln!(
        "loadgen: {} queries, {} threads, seed {}, {} ads",
        args.queries, args.threads, args.seed, args.ads
    );
    let build = |label: &str| {
        eprintln!("loadgen: building {label} engine...");
        let data = webbase_webworld::data::Dataset::generate(args.seed, args.ads);
        let web = webbase_webworld::prelude::standard_web(data.clone(), LatencyModel::lan());
        Engine::build_on(web, data, EngineConfig::default()).expect("engine builds")
    };

    // Each mode gets a fresh engine so no mode inherits another's warm
    // caches; within a mode, sharing (or its absence) is the variable.
    let iso_engine = build("serial-isolated");
    let isolated = serial_mode(&iso_engine, &args, &work, true);
    eprintln!("loadgen: serial-isolated  {:8.1} qps", isolated.qps);

    let shared_engine = build("serial-shared");
    let shared = serial_mode(&shared_engine, &args, &work, false);
    eprintln!(
        "loadgen: serial-shared    {:8.1} qps  ({} failed, {} recovered)",
        shared.qps, shared.failed, shared.recovered
    );

    let conc_engine = build("concurrent-shared");
    let concurrent = concurrent_mode(&conc_engine, &args, &work);
    eprintln!(
        "loadgen: concurrent-shared{:8.1} qps  ({} failed, {} recovered)",
        concurrent.qps, concurrent.failed, concurrent.recovered
    );

    // Answer-equality gate: every mode, every query, identical relation.
    for (i, base) in isolated.runs.iter().enumerate() {
        for (mode, report) in [("serial_shared", &shared), ("concurrent_shared", &concurrent)] {
            if report.runs[i].relation != base.relation {
                eprintln!("loadgen: FAIL — {mode} query {i} diverged from the isolated answer");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("loadgen: all {} answers byte-identical across modes", args.queries);

    // Soundness tripwire: the abstract interpreter's static read sets
    // must cover every page any mode actually fetched.
    for (label, engine) in [
        ("serial-isolated", &iso_engine),
        ("serial-shared", &shared_engine),
        ("concurrent-shared", &conc_engine),
    ] {
        let escapes = engine.stats().readset_escape;
        if escapes > 0 {
            eprintln!("loadgen: FAIL — {label} saw {escapes} fetches outside the static read set");
            return ExitCode::FAILURE;
        }
    }

    let speedup = concurrent.qps / isolated.qps;
    let stats = conc_engine.stats();
    eprintln!(
        "loadgen: speedup {speedup:.1}x  (store hits {}, memo hits {}, pool waits {})",
        stats.store_hits, stats.memo_hits, stats.pool_waits
    );
    eprintln!(
        "loadgen: store misses serial-shared {} vs concurrent {}",
        shared_engine.stats().store_misses,
        stats.store_misses
    );
    // The qps gate applies to real configurations. The smoke config
    // is 8 queries on a small dataset — two cold executions dominate,
    // so it only verifies correctness (equal answers across modes).
    // Injection runs pay for every failure twice (break + recover) in
    // the shared modes only, so they too are correctness-only.
    let injecting = args.chaos || args.disconnect_rate > 0.0;
    let pass = speedup > 4.0 || args.smoke || injecting;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let json = format!(
        "{{\n  \"benchmark\": \"loadgen\",\n  \"description\": \"Multi-query engine throughput: \
         the alternating jaguar/ford workload run serial-isolated (private store, no memo — the \
         single-owner baseline), serial through the shared engine, and fanned across {} threads \
         over the shared engine (the webbased serving model). Answers are verified byte-identical \
         across all three modes before any number is reported.\",\n  \
         \"command\": \"cargo run --release -p webbase-bench --bin loadgen -- --queries {} \
         --threads {} --seed {} --ads {} --write\",\n  \
         \"method\": \"fresh engine per mode (no cross-mode cache inheritance); wall-clock qps \
         over the whole mode; per-query simulated network latency from the per-query metrics \
         histogram (sum of simulated fetch latencies; store/memo hits are simulated-free); \
         {cores} cores available (std::thread::available_parallelism), so parallelism accounts \
         for at most {cores}x of the speedup and sharing for the rest\",\n  \
         \"results\": {{\n{},\n{},\n{},\n    \"speedup_concurrent_vs_isolated\": {:.1},\n    \
         \"concurrent_store_hits\": {},\n    \"concurrent_memo_hits\": {},\n    \
         \"concurrent_pool_waits\": {}\n  }},\n  \
         \"target\": \"concurrent-shared qps > 4x serial-isolated qps at equal answers\",\n  \
         \"verdict\": \"{} — {:.1}x\",\n  \
         \"notes\": \"The isolated baseline pays fetch+parse+interpretation for every query; the \
         shared engine answers repeats from the answer memo and overlapping pages from the page \
         store, so its marginal query cost approaches a hash lookup. p50/p99 are simulated \
         milliseconds per query: isolated queries pay the full simulated network every time, \
         shared ones mostly zero.\"\n}}\n",
        args.threads,
        args.queries,
        args.threads,
        args.seed,
        args.ads,
        mode_json("serial_isolated", &isolated),
        mode_json("serial_shared", &shared),
        mode_json("concurrent_shared", &concurrent),
        speedup,
        stats.store_hits,
        stats.memo_hits,
        stats.pool_waits,
        if args.smoke {
            "SMOKE (answers verified; qps gate not applied)"
        } else if injecting {
            "CHAOS (failures injected and recovered; qps gate not applied)"
        } else if pass {
            "PASS"
        } else {
            "FAIL"
        },
        speedup,
    );
    println!("{json}");
    if args.write {
        std::fs::write("BENCH_loadgen.json", &json).expect("write BENCH_loadgen.json");
        eprintln!("loadgen: wrote BENCH_loadgen.json");
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("loadgen: FAIL — speedup {speedup:.1}x below the 4x target");
        ExitCode::FAILURE
    }
}
