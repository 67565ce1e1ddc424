//! One workload round: set up a fresh engine, drive it with the
//! closed-loop clients through a fixed amount of work, and check the
//! answers.

use crate::trace::{self, span, TimedSite};
use crate::workload::{self, GenQuery, Op, Sequence, Workload, CLIENTS};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use webbase::{Corpus, Engine, EngineConfig, EngineStats, QueryOptions, Relation};
use webbase_navigation::{sweep, DriftOrigin, Recorder};
use webbase_webworld::data::Dataset;
use webbase_webworld::faults::{MutatingSite, MutationClock};
use webbase_webworld::generate::{GenCorpus, SiteSpec};
use webbase_webworld::prelude::{standard_web_faulty, LatencyModel, SyntheticWeb};
use webbase_webworld::server::Site;

/// Sites in the generated corpus.
const GEN_SITES: usize = 200;
/// The generated corpus's seed. Like the paper corpus (the standard
/// `webbase_bench` dataset), the Web is fixed: `--seed` varies the
/// traffic, so runs on different seeds measure the same system.
const GEN_CORPUS_SEED: u64 = 11;
/// Answers kept per client for the isolated gate, one per (generation,
/// text) pair.
const MAX_SAMPLES: usize = 2000;
/// Sampled (generation, text) pairs re-run on an isolated session per
/// round.
const GATE_PAIRS: usize = 8;
/// Refreshed views re-checked at the end of a drift round.
const GATE_VIEWS: usize = 4;
/// Maintenance passes over the static Web timed after each round of the
/// workloads without writes.
const REFRESH_PROBES: usize = 5;

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The workload's query texts (the generated corpus's come with its
/// engine, see [`setup`]).
pub fn paper_texts(w: Workload, seed: u64) -> Vec<String> {
    match w {
        Workload::PaperMix => workload::paper_pool(seed, workload::shape(w).pool),
        Workload::PaperDrift => workload::drift_pool(),
        Workload::Gen200Cold => Vec::new(),
    }
}

// ───────────────────────────── set-up ─────────────────────────────

/// One workload's engine and everything the loop and the gate need.
pub struct Bench {
    w: Workload,
    pub engine: Engine,
    texts: Vec<String>,
    /// Generated corpus and its queries (gen200-cold), for the oracle.
    gen: Option<(GenCorpus, Vec<GenQuery>)>,
    /// The drifting site's generation clock (paper-drift).
    clock: Option<MutationClock>,
    journal: Option<PathBuf>,
}

impl Bench {
    /// The corpus the engine was built from, for the traced replay.
    fn corpus(&self) -> Corpus {
        match &self.gen {
            Some((corpus, _)) => Corpus::generated(corpus),
            None => Corpus::paper(self.engine.data().expect("paper engines carry data").clone()),
        }
    }

    /// What the maintenance path refreshes: the drifting host on the
    /// paper corpus, every host on the generated one.
    fn refresh_host(&self) -> Option<&'static str> {
        self.gen.is_none().then_some(webbase_bench::DRIFT_HOST)
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(j) = &self.journal {
            let _ = std::fs::remove_file(j);
        }
    }
}

fn wrap(traced: bool, site: Box<dyn Site>) -> Box<dyn Site> {
    if traced {
        Box::new(TimedSite(site))
    } else {
        site
    }
}

/// Generate the dataset or corpus, build the web and the engine:
/// everything up to the first timed query. `paper_texts` is built by the
/// caller (query generation is the benchmark's work, not set-up).
pub fn setup(w: Workload, seed: u64, traced: bool, paper_texts: &[String]) -> Bench {
    let latency = LatencyModel::lan();
    match w {
        Workload::PaperMix | Workload::PaperDrift => {
            let drift = w == Workload::PaperDrift;
            let (data, web, clock) = span("webworld.generate", || {
                let data = Dataset::generate(webbase_bench::BENCH_SEED, webbase_bench::BENCH_ADS);
                let slot = Mutex::new(None);
                let web = standard_web_faulty(data.clone(), latency, |host, s| {
                    if drift && host == webbase_bench::DRIFT_HOST {
                        let (site, clock) = MutatingSite::new(s, webbase_bench::drift_schedule());
                        *slot.lock().expect("clock slot") = Some(clock);
                        wrap(traced, Box::new(site))
                    } else {
                        wrap(traced, s)
                    }
                });
                (data, web, slot.into_inner().expect("clock slot"))
            });
            let journal = drift.then(|| {
                let path = out_dir().join(format!("{}-{}.wal", w.name(), std::process::id()));
                // A left-over journal would warm-restart the engine.
                let _ = std::fs::remove_file(&path);
                path
            });
            let config = EngineConfig { journal: journal.clone(), ..EngineConfig::default() };
            let engine = span("core.build", || {
                Engine::build_on(web, data, config).expect("the paper corpus builds")
            });
            Bench { w, engine, texts: paper_texts.to_vec(), gen: None, clock, journal }
        }
        Workload::Gen200Cold => {
            let (corpus, web) = span("webworld.generate", || {
                let corpus = GenCorpus::generate(GEN_CORPUS_SEED, GEN_SITES);
                let mut b = SyntheticWeb::builder();
                for spec in &corpus.specs {
                    b = b.boxed_site(wrap(traced, Box::new(spec.site())));
                }
                (corpus, b.latency(latency).build())
            });
            let engine = span("core.build", || {
                Engine::build_corpus(web, Corpus::generated(&corpus), EngineConfig::default())
                    .expect("the generated corpus builds")
            });
            let queries = workload::gen_queries(seed, &corpus);
            let texts = queries.iter().map(|q| q.text(&corpus.specs[q.site])).collect();
            Bench { w, engine, texts, gen: Some((corpus, queries)), clock: None, journal: None }
        }
    }
}

/// Replay every corpus session with the public `Recorder` and analyse
/// each map with `webcheck::analyze_full`, one span each.
fn trace_recording(bench: &Bench) {
    trace::set_op(0);
    for site in bench.corpus().sites {
        let map = span("navigation.record", || {
            let mut rec = Recorder::with_standardizer(
                bench.engine.web().clone(),
                &site.host,
                site.standardizer.clone(),
            );
            for action in &site.session {
                rec.apply(action).expect("a session that built the engine replays");
            }
            rec.finish().0
        });
        span("webcheck.analyze", || webbase_webcheck::analyze_full(&map));
    }
}

// ─────────────────────────── timed loop ───────────────────────────

/// A traced cold read: its plan objects, VPS handle invocations and
/// navigation steps.
pub struct ColdProbe {
    pub objects: usize,
    pub invocations: u64,
    pub nav_steps: u64,
}

#[derive(Default)]
pub struct ClientLog {
    pub cold_ns: Vec<u64>,
    pub warm_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// (generation, text, answer) of sampled reads, for the gate.
    samples: Vec<(u64, usize, Relation)>,
    pub cold_probes: Vec<ColdProbe>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Reads share the gate; a write (drift + its refresh) holds it alone,
/// so every read sees exactly one generation and can be checked against
/// an isolated run at that generation. A waiting writer holds the
/// turnstile, which keeps new reads out until it is through: a plain
/// `RwLock` lets a busy reader starve the writer.
#[derive(Default)]
struct DriftGate {
    turnstile: Mutex<()>,
    lock: RwLock<()>,
}

impl DriftGate {
    fn read(&self) -> RwLockReadGuard<'_, ()> {
        drop(self.turnstile.lock().expect("drift gate turnstile"));
        self.lock.read().expect("drift gate")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ()> {
        let _turn = self.turnstile.lock().expect("drift gate turnstile");
        self.lock.write().expect("drift gate")
    }
}

/// State shared by the clients of one round.
struct Shared<'a> {
    bench: &'a Bench,
    seed: u64,
    traced: bool,
    /// Which texts have been sent: the first send is the cold one.
    issued: Mutex<Vec<bool>>,
    gate: DriftGate,
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh id for the spans of one benchmark operation.
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

fn client_loop(sh: &Shared, client: usize) -> ClientLog {
    let bench = sh.bench;
    let engine = &bench.engine;
    let tenant = format!("tenant{client}");
    let mut log = ClientLog::default();
    let mut sampled = HashSet::new();
    let round = workload::shape(bench.w).round;
    let ops = Sequence::new(bench.w, sh.seed, client, bench.texts.len());
    for op in ops.take(if client == 0 { round.0 } else { round.1 }) {
        log.attempted += 1;
        let op_id = next_op();
        trace::set_op(op_id);
        match op {
            Op::Read(t) => {
                let _shared = sh.gate.read();
                let text = &bench.texts[t];
                let cold = !std::mem::replace(&mut sh.issued.lock().expect("issued set")[t], true);
                let generation = bench.clock.as_ref().map_or(0, MutationClock::generation);
                let mut objects = 0;
                let timed = || {
                    let t0 = Instant::now();
                    let out =
                        span("core.query", || engine.query(&tenant, text, QueryOptions::default()));
                    (out, t0.elapsed().as_nanos() as u64)
                };
                let (out, ns) = if !sh.traced {
                    timed()
                } else if cold {
                    span("read.cold", || {
                        let _ = span("ur.parse", || webbase_ur::query::parse_query(text));
                        if let Ok(plan) = span("core.explain", || engine.explain(text)) {
                            objects = plan.objects.len();
                        }
                        timed()
                    })
                } else {
                    span("read.warm", timed)
                };
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        log.fail(format!("query {text}: {e}"));
                        continue;
                    }
                };
                if cold {
                    log.cold_ns.push(ns);
                    if sh.traced {
                        use webbase::Metric;
                        log.cold_probes.push(ColdProbe {
                            objects,
                            invocations: out.metrics.get(Metric::HandleInvocations),
                            nav_steps: out.metrics.get(Metric::NavSteps),
                        });
                    }
                } else {
                    log.warm_ns.push(ns);
                }
                match &bench.gen {
                    Some((corpus, queries)) => {
                        let q = &queries[t];
                        let spec = &corpus.specs[q.site];
                        if gen_answer(spec, &out.relation).as_ref() != Some(&q.oracle(spec)) {
                            log.fail(format!("{text}: answer differs from the oracle"));
                        }
                    }
                    None => {
                        if log.samples.len() < MAX_SAMPLES && sampled.insert((generation, t)) {
                            log.samples.push((generation, t, out.relation));
                        }
                    }
                }
            }
            Op::Write(generation) => {
                let _exclusive = sh.gate.write();
                bench.clock.as_ref().expect("writes need a drifting site").set(generation);
                let t0 = Instant::now();
                maintenance(bench, sh.traced);
                log.write_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    log
}

/// One maintenance pass over the refresh host. Traced, the sweep runs
/// first on its own, so the `Engine::refresh` that follows times only
/// the view rebuild (its own sweep then finds nothing new).
fn maintenance(bench: &Bench, traced: bool) {
    let engine = &bench.engine;
    let host = bench.refresh_host();
    let refresh = || engine.refresh(host, DriftOrigin::Maintenance, None, None);
    if !traced {
        refresh();
        return;
    }
    span("core.refresh", || {
        span("navigation.sweep", || {
            sweep(
                engine.web(),
                engine.store(),
                engine.drift_bus(),
                host,
                DriftOrigin::Maintenance,
                None,
                None,
            )
        });
        span("core.view_rebuild", refresh);
    });
}

type GenAnswer = Vec<(String, i64, i64)>;

/// A generated-site answer in the oracle's form; `None` when a column
/// is missing or a value has the wrong type.
fn gen_answer(spec: &SiteSpec, rel: &Relation) -> Option<GenAnswer> {
    let col = |base: &str| rel.schema().index_of(&spec.attr(base).into());
    let (item, qty, price) = (col("item")?, col("qty")?, col("price")?);
    let mut rows = Vec::with_capacity(rel.len());
    for t in rel.tuples() {
        rows.push((
            t.get(item).as_str()?.to_string(),
            t.get(qty).as_int()?,
            t.get(price).as_int()?,
        ));
    }
    rows.sort();
    rows.dedup();
    Some(rows)
}

// ───────────────────────── correctness gate ─────────────────────────

/// Failures found by the gate: a count, and the first messages.
#[derive(Default)]
pub struct Verdict {
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }
}

/// Re-run sampled answers on isolated sessions of the same engine, at
/// the generation each was served at; on a drifting web also re-check
/// refreshed views at the final generation. The pairs checked are spread
/// over the sample by a hash. Returns (checks, violations). Runs outside
/// any span, so it is never traced.
fn isolated_gate(bench: &Bench, logs: &[ClientLog]) -> (usize, Vec<String>) {
    let engine = &bench.engine;
    let mut groups: BTreeMap<(u64, u64, usize), Vec<&Relation>> = BTreeMap::new();
    for log in logs {
        for (generation, t, rel) in &log.samples {
            let spread = webbase_webworld::data::fnv(&format!("{generation}:{t}"));
            groups.entry((spread, *generation, *t)).or_default().push(rel);
        }
    }
    let final_gen = bench.clock.as_ref().map(MutationClock::generation);
    let mut checks = 0;
    let mut bad = Vec::new();
    let text = |t: usize| &bench.texts[t];
    let isolated = |t: usize| engine.query_isolated("gate", text(t), QueryOptions::default());
    for (&(_, generation, t), answers) in groups.iter().take(GATE_PAIRS) {
        if let Some(clock) = &bench.clock {
            clock.set(generation);
        }
        checks += answers.len();
        match isolated(t) {
            Ok(iso) if answers.iter().all(|rel| **rel == iso.relation) => {}
            Ok(_) => bad.push(format!(
                "{} at generation {generation}: served answer differs from the isolated re-run",
                text(t)
            )),
            Err(e) => bad.push(format!("isolated re-run of {} failed: {e}", text(t))),
        }
    }
    if let (Some(clock), Some(generation)) = (&bench.clock, final_gen) {
        clock.set(generation);
        let mut views: Vec<usize> = Vec::new();
        for &(_, _, t) in groups.keys() {
            if !views.contains(&t) && views.len() < GATE_VIEWS {
                views.push(t);
            }
        }
        for t in views {
            checks += 1;
            let served = engine.query("gate", text(t), QueryOptions::default());
            match (served, isolated(t)) {
                (Ok(s), Ok(i)) if s.relation == i.relation => {}
                (Ok(_), Ok(_)) => {
                    bad.push(format!("refreshed view {} differs from the isolated re-run", text(t)))
                }
                (Err(e), _) | (_, Err(e)) => {
                    bad.push(format!("view check of {} failed: {e}", text(t)))
                }
            }
        }
    }
    (checks, bad)
}

/// The whole gate for one round: failed operations (errors and answers
/// that differ from the oracle), the isolated re-runs, and the engine's
/// two tripwires.
fn gate(bench: &Bench, logs: &[ClientLog]) -> Verdict {
    let mut v = Verdict {
        failed: logs.iter().map(|l| l.failed).sum(),
        messages: logs.iter().flat_map(|l| l.errors.iter().cloned()).collect(),
    };
    let (checks, isolated_bad) = match bench.gen {
        Some(_) => (logs.iter().map(|l| l.cold_ns.len() + l.warm_ns.len()).sum(), Vec::new()),
        None => isolated_gate(bench, logs),
    };
    let stats = bench.engine.stats();
    println!(
        "gate: {} failed operations; {checks} answers checked ({} mismatched); \
         stale_served {}, readset_escape {}",
        v.failed,
        isolated_bad.len(),
        stats.stale_served,
        stats.readset_escape
    );
    v.failed += isolated_bad.len() as u64 + stats.stale_served + stats.readset_escape;
    v.messages.extend(isolated_bad);
    if stats.stale_served > 0 {
        v.messages.push(format!("stale_served = {}", stats.stale_served));
    }
    if stats.readset_escape > 0 {
        v.messages.push(format!("readset_escape = {}", stats.readset_escape));
    }
    v
}

// ───────────────────────────── a round ─────────────────────────────

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub elapsed: Duration,
    pub logs: Vec<ClientLog>,
    /// Engine counters around the timed loop.
    pub before: EngineStats,
    pub after: EngineStats,
    pub journal_growth: u64,
    /// Result-cache hit latencies (ms): each text the round sent, sent
    /// once more after the loop from one client.
    pub warm_ms: Vec<f64>,
    /// Refresh latencies (ms): the loop's writes on the drift workload;
    /// on the others, maintenance passes over the static Web after the
    /// loop.
    pub refresh_ms: Vec<f64>,
    pub tracked_views: usize,
    pub verdict: Verdict,
}

fn file_len(path: Option<&PathBuf>) -> u64 {
    path.and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len())
}

/// Set up a fresh engine and run one round of the workload on it.
pub fn run_round(w: Workload, seed: u64, texts: &[String], traced: bool) -> Round {
    trace::set_op(0);
    let t0 = Instant::now();
    let bench = span("setup", || setup(w, seed, traced, texts));
    let setup_s = t0.elapsed().as_secs_f64();
    if traced {
        trace_recording(&bench);
    }
    let sh = Shared {
        bench: &bench,
        seed,
        traced,
        issued: Mutex::new(vec![false; bench.texts.len()]),
        gate: DriftGate::default(),
    };
    let before = bench.engine.stats();
    let journal_before = file_len(bench.journal.as_ref());
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let sh = &sh;
                scope.spawn(move || {
                    let log = client_loop(sh, client);
                    trace::flush_thread();
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed();
    let after = bench.engine.stats();
    let journal_growth = file_len(bench.journal.as_ref()).saturating_sub(journal_before);
    // Repeats in the loop contend with the other client, and gen200-cold
    // has none, so hit latency is measured here, serially.
    trace::set_op(0);
    let sent: Vec<usize> = sh
        .issued
        .into_inner()
        .expect("issued set")
        .iter()
        .enumerate()
        .filter_map(|(t, &s)| s.then_some(t))
        .collect();
    let mut probe_failures = Vec::new();
    let warm_ms = sent
        .iter()
        .map(|&t| {
            let t0 = Instant::now();
            if let Err(e) = bench.engine.query("probe", &bench.texts[t], QueryOptions::default()) {
                probe_failures.push(format!("repeat of {}: {e}", bench.texts[t]));
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let writes: Vec<u64> = logs.iter().flat_map(|l| l.write_ns.iter().copied()).collect();
    let refresh_ms = if writes.is_empty() {
        (0..REFRESH_PROBES)
            .map(|_| {
                trace::set_op(next_op());
                let t0 = Instant::now();
                maintenance(&bench, traced);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    } else {
        writes.iter().map(|&ns| ns as f64 / 1e6).collect()
    };
    trace::set_op(0);
    let tracked_views = bench.engine.freshness().tracked_views;
    let mut verdict = gate(&bench, &logs);
    verdict.failed += probe_failures.len() as u64;
    verdict.messages.extend(probe_failures);
    Round {
        setup_s,
        elapsed,
        logs,
        before,
        after,
        journal_growth,
        warm_ms,
        refresh_ms,
        tracked_views,
        verdict,
    }
}

/// Rounds on fresh engines until `seconds` have passed (at least one).
pub fn run_rounds(
    w: Workload,
    seed: u64,
    texts: &[String],
    seconds: f64,
    traced: bool,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(run_round(w, seed, texts, traced));
    }
    rounds
}
