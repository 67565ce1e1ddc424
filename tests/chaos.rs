//! Chaos battery for the crash-safe server runtime.
//!
//! Every scenario injects a failure — a panicking leader, a client
//! disconnect mid-query, a torn journal, a kill-and-restart cycle —
//! and gates on the same two invariants:
//!
//! 1. **Answer equality**: after recovery, the engine's answer equals
//!    the isolated serial oracle's (a private session sharing nothing).
//! 2. **Counter/span sanity**: failures are counted where they were
//!    contained, nothing is left in flight, and no lock stays poisoned.
//!
//! The dataset seed comes from `WEBBASE_TEST_SEED` (default 11); CI
//! sweeps seeds 11/23/47.

mod common;

use common::{seed, subset, JAGUAR_QUERY};
use webbase::{
    CancelToken, Engine, EngineConfig, EngineError, LatencyModel, Lifecycle, QueryOptions, Relation,
};
use webbase_logical::QueryBudget;

const FORD: &str = "UsedCarUR(make='ford', price)";

fn engine() -> Engine {
    Engine::build_demo(seed(), 400, LatencyModel::lan())
}

fn journaled_engine(path: &std::path::Path) -> Engine {
    let data = webbase_webworld::data::Dataset::generate(seed(), 400);
    let web = webbase_webworld::prelude::standard_web(data.clone(), LatencyModel::lan());
    let config = EngineConfig { journal: Some(path.to_path_buf()), ..EngineConfig::default() };
    Engine::build_on(web, data, config).expect("journaled engine builds")
}

fn oracle(engine: &Engine, text: &str) -> Relation {
    engine.query_isolated("oracle", text, QueryOptions::default()).expect("oracle runs").relation
}

fn journal_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("webbase-chaos-{}-{}-{name}", std::process::id(), seed()))
}

#[test]
fn leader_panic_hands_off_and_the_engine_survives() {
    let engine = engine();
    let chaos = QueryOptions {
        cancel: Some(CancelToken::new().panic_after_polls(1)),
        ..QueryOptions::default()
    };
    let err = engine.query("crashy", JAGUAR_QUERY, chaos);
    assert!(matches!(err, Err(EngineError::Panicked(_))), "fuse must fire: {err:?}");
    let stats = engine.stats();
    assert_eq!(stats.panics, 1, "{stats:?}");
    assert!(stats.result_aborted >= 1, "the panicking leader must hand off: {stats:?}");
    assert_eq!(engine.inflight_queries(), 0, "no orphaned in-flight entry");
    // The same query now runs to the oracle's answer — the panic
    // neither cached garbage nor wedged any shared structure.
    let after = engine.query("steady", JAGUAR_QUERY, QueryOptions::default()).expect("serves on");
    assert_eq!(after.relation, oracle(&engine, JAGUAR_QUERY), "post-panic answer diverged");
    assert_eq!(engine.stats().panics, 1, "recovery run panicked");
}

#[test]
fn concurrent_followers_survive_a_leader_panic() {
    let engine = engine();
    let expected = oracle(&engine, JAGUAR_QUERY);
    let results: Vec<Result<Relation, EngineError>> = std::thread::scope(|scope| {
        let fused = {
            let engine = engine.clone();
            scope.spawn(move || {
                let chaos = QueryOptions {
                    cancel: Some(CancelToken::new().panic_after_polls(1)),
                    ..QueryOptions::default()
                };
                engine.query("crashy", JAGUAR_QUERY, chaos).map(|o| o.relation)
            })
        };
        // Give the fused query time to claim result-cache leadership,
        // then pile followers onto the same key.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let followers: Vec<_> = (0..3)
            .map(|t| {
                let engine = engine.clone();
                scope.spawn(move || {
                    let tenant = format!("tenant{t}");
                    engine.query(&tenant, JAGUAR_QUERY, QueryOptions::default()).map(|o| o.relation)
                })
            })
            .collect();
        let mut results = vec![fused.join().expect("fused thread")];
        results.extend(followers.into_iter().map(|f| f.join().expect("follower thread")));
        results
    });
    let ok: Vec<&Relation> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let errs: Vec<&EngineError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(ok.len() >= 3, "at most the fused query may fail: {errs:?}");
    for rel in &ok {
        assert_eq!(**rel, expected, "a survivor's answer diverged from the oracle");
    }
    for e in &errs {
        assert!(matches!(e, EngineError::Panicked(_)), "only the injected panic may fail: {e}");
    }
    let stats = engine.stats();
    assert_eq!(stats.panics as usize, errs.len(), "{stats:?}");
    assert_eq!(engine.inflight_queries(), 0);
}

#[test]
fn a_cancelled_query_aborts_cleanly_and_is_not_cached() {
    let engine = engine();
    let expected = oracle(&engine, FORD);
    let token = CancelToken::new().cancel_after_polls(2);
    let out = engine
        .query(
            "leaver",
            FORD,
            QueryOptions { cancel: Some(token.clone()), ..QueryOptions::default() },
        )
        .expect("cancellation is a clean partial, not an error");
    assert!(token.is_cancelled(), "the fuse must have fired");
    assert!(!out.plan.degradation.is_clean(), "a cancelled run is degraded by definition");
    assert!(subset(&out.relation, &expected), "a cancelled partial fabricated tuples");
    assert!(out.relation.len() < expected.len(), "cancel at poll 2 cannot finish the walk");
    let stats = engine.stats();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(engine.inflight_queries(), 0, "no orphaned navigation");
    // The partial must not have been published: a fresh tenant gets
    // the full answer, not the cancelled remnant.
    let after = engine.query("steady", FORD, QueryOptions::default()).expect("full run");
    assert_eq!(after.relation, expected, "the cancelled partial leaked into the result cache");
}

#[test]
fn a_budgeted_cancel_checkpoints_to_a_resume_token() {
    let engine = engine();
    let expected = oracle(&engine, FORD);
    let chaos = QueryOptions {
        budget: Some(QueryBudget::unlimited()),
        cancel: Some(CancelToken::new().cancel_after_polls(3)),
        ..QueryOptions::default()
    };
    let partial = engine.query("leaver", FORD, chaos).expect("budgeted cancel stays a partial");
    let token =
        partial.plan.resume.clone().expect("a budgeted cancelled run must leave a resume token");
    assert!(subset(&partial.relation, &expected));
    // Resuming spends a fresh (unlimited) budget on the unfinished
    // tail and converges to the oracle's answer.
    let resumed = engine.query("leaver", FORD, QueryOptions::resuming(token)).expect("resumes");
    assert_eq!(resumed.relation, expected, "resume after cancel did not converge");
    assert_eq!(engine.stats().cancelled, 1);
}

#[test]
fn shutdown_cancels_in_flight_queries_and_drains() {
    let engine = engine();
    let expected = oracle(&engine, FORD);
    let worker = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.query("slow", FORD, QueryOptions::default()))
    };
    // Let the worker get in flight (cold engine: the walk takes a
    // while), then pull the plug under it.
    std::thread::sleep(std::time::Duration::from_millis(10));
    engine.shutdown();
    assert_eq!(engine.lifecycle(), Lifecycle::Stopped);
    let result = worker.join().expect("worker thread");
    // Depending on timing the worker either finished before the
    // cancel landed (full answer) or aborted cleanly (sound partial).
    match result {
        Ok(out) => assert!(subset(&out.relation, &expected), "shutdown fabricated tuples"),
        Err(e) => panic!("shutdown must cancel cooperatively, not fail the query: {e}"),
    }
    assert!(engine.drain_wait(std::time::Duration::from_secs(5)), "queries left in flight");
    let err = engine.query("late", FORD, QueryOptions::default());
    assert!(matches!(err, Err(EngineError::Draining)), "stopped engine admitted: {err:?}");
    // The isolated oracle is a measurement tool, not a tenant: it
    // still runs after shutdown.
    assert_eq!(oracle(&engine, FORD), expected);
}

#[test]
fn warm_restart_replays_the_journal_fetch_free() {
    let path = journal_path("warm");
    let _ = std::fs::remove_file(&path);
    let first = journaled_engine(&path);
    let original = first.query("t", FORD, QueryOptions::default()).expect("journalled run");
    drop(first);

    let second = journaled_engine(&path);
    let stats = second.stats();
    assert!(stats.journal_recovered_pages > 0, "{stats:?}");
    assert_eq!(stats.journal_recovered_results, 1, "{stats:?}");
    assert_eq!(stats.journal_torn, 0, "{stats:?}");
    let before = second.web().total_stats().requests;
    let replay = second.query("t", FORD, QueryOptions::default()).expect("replayed run");
    let after = second.web().total_stats().requests;
    assert_eq!(replay.relation, original.relation, "restart changed the answer");
    // The oracle below runs on a private store and fetches freely —
    // measure the replay's cost before it, not after.
    assert_eq!(after, before, "warm restart re-fetched");
    assert_eq!(replay.relation, oracle(&second, FORD), "restart diverged from the oracle");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_torn_journal_recovers_the_surviving_prefix() {
    let path = journal_path("torn");
    let _ = std::fs::remove_file(&path);
    let first = journaled_engine(&path);
    first.query("t", FORD, QueryOptions::default()).expect("journalled run");
    drop(first);
    // Tear the tail off mid-record — the crash case fsync cannot save.
    let bytes = std::fs::read(&path).expect("journal exists");
    assert!(bytes.len() > 40, "journal too small to tear meaningfully");
    std::fs::write(&path, &bytes[..bytes.len() - 25]).expect("truncate");

    let second = journaled_engine(&path);
    let stats = second.stats();
    assert!(stats.journal_torn > 0, "the torn record must be detected: {stats:?}");
    // Whatever survived is a sound cache; the engine re-fetches the
    // rest and still converges to the oracle.
    let out = second.query("t", FORD, QueryOptions::default()).expect("degraded journal serves");
    assert_eq!(out.relation, oracle(&second, FORD), "torn recovery diverged");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stats_snapshots_are_fieldwise_monotone_under_load() {
    // STATS reads its counters individually (torn *group* reads are
    // accepted by design — see the server's STATS handler), so the
    // pinned contract is per-field monotonicity across snapshots.
    let engine = engine();
    let snapshots: Vec<webbase::EngineStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|t| {
                let engine = engine.clone();
                scope.spawn(move || {
                    let tenant = format!("tenant{t}");
                    for text in [FORD, JAGUAR_QUERY, FORD] {
                        let _ = engine.query(&tenant, text, QueryOptions::default());
                    }
                })
            })
            .collect();
        let mut snaps = Vec::new();
        while workers.iter().any(|w| !w.is_finished()) {
            snaps.push(engine.stats());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for w in workers {
            w.join().expect("worker");
        }
        snaps.push(engine.stats());
        snaps
    });
    for pair in snapshots.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(b.queries >= a.queries, "queries went backwards: {a:?} -> {b:?}");
        assert!(b.store_hits >= a.store_hits, "store_hits went backwards: {a:?} -> {b:?}");
        assert!(b.store_misses >= a.store_misses, "store_misses went backwards: {a:?} -> {b:?}");
        assert!(b.memo_hits >= a.memo_hits, "memo_hits went backwards: {a:?} -> {b:?}");
        assert!(b.memo_misses >= a.memo_misses, "memo_misses went backwards: {a:?} -> {b:?}");
        assert!(b.memo_len >= a.memo_len, "memo_len went backwards: {a:?} -> {b:?}");
        assert!(b.logical_hits >= a.logical_hits, "logical_hits went backwards: {a:?} -> {b:?}");
        assert!(
            b.logical_misses >= a.logical_misses,
            "logical_misses went backwards: {a:?} -> {b:?}"
        );
        assert!(b.logical_len >= a.logical_len, "logical_len went backwards: {a:?} -> {b:?}");
        assert!(b.result_hits >= a.result_hits, "result_hits went backwards: {a:?} -> {b:?}");
        assert!(b.result_misses >= a.result_misses, "result_misses went backwards: {a:?} -> {b:?}");
        assert!(b.web_requests >= a.web_requests, "web_requests went backwards: {a:?} -> {b:?}");
        assert!(b.panics >= a.panics && b.cancelled >= a.cancelled, "{a:?} -> {b:?}");
        assert!(b.drift_events >= a.drift_events, "drift_events went backwards: {a:?} -> {b:?}");
        assert!(
            b.view_invalidated >= a.view_invalidated,
            "view_invalidated went backwards: {a:?} -> {b:?}"
        );
        assert!(b.delta_refresh >= a.delta_refresh, "delta_refresh went backwards: {a:?} -> {b:?}");
        assert!(b.cold_refresh >= a.cold_refresh, "cold_refresh went backwards: {a:?} -> {b:?}");
        assert_eq!(b.stale_served, 0, "a stale answer was served under load: {b:?}");
    }
    let last = snapshots.last().expect("at least one snapshot");
    assert_eq!(last.queries, 9, "all nine queries completed: {last:?}");
    assert_eq!(last.panics, 0);
    assert_eq!(last.stale_served, 0, "the freshness tripwire fired: {last:?}");
}

// ── hostile journals: a seeded mutation battery ───────────────────────

use webbase::WebbaseError;
use webbase_navigation::{DriftEvent, DriftKind, DriftOrigin, WalRecovery};
use webbase_webworld::topology::GenRng;

/// A narrow query, so the journal stays small: one make and model.
const NARROW: &str = "UsedCarUR(make='jaguar', model='xj6', price)";

/// Mutated journals fed to `WalRecovery::load`, and to a full warm
/// restart, per seed.
const LOAD_INPUTS: usize = 2000;
const RESTART_INPUTS: usize = 20;

/// A small real journal: the narrow query's pages, its id definitions
/// and result, a drift invalidation of that result, and a re-publish
/// citing ids the file already defines.
fn small_journal(path: &std::path::Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let engine = journaled_engine(path);
    engine.query("t", NARROW, QueryOptions::default()).expect("journalled run");
    engine.drift_bus().publish(DriftEvent {
        host: "www.newsday.com".to_string(),
        kind: DriftKind::Quarantined,
        origin: DriftOrigin::Manual,
        requests: Vec::new(),
        node: None,
    });
    engine.query("t", NARROW, QueryOptions::default()).expect("re-published run");
    drop(engine);
    let journal = std::fs::read(path).expect("journal written");
    let text = String::from_utf8_lossy(&journal);
    for record in ["wal_page(", "wal_id(", "wal_result(", "wal_deps(", "wal_invalidate("] {
        assert!(text.contains(record), "the seed journal lacks a {record}…) record");
    }
    journal
}

/// One to three seeded mutations: a byte overwritten, deleted or
/// inserted; a line deleted, duplicated, swapped or cut short; or a
/// digit run replaced by an edge-case number.
fn mutate(rng: &mut GenRng, journal: &[u8]) -> Vec<u8> {
    const NUMBERS: [&str; 7] =
        ["0", "1", "-1", "4294967295", "4294967296", "18446744073709551616", "0000000"];
    let mut bytes = journal.to_vec();
    for _ in 0..=rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len());
                match rng.below(3) {
                    0 => bytes[at] = rng.next_u64() as u8,
                    1 => drop(bytes.remove(at)),
                    _ => bytes.insert(at, rng.next_u64() as u8),
                }
            }
            1 => {
                let mut lines: Vec<Vec<u8>> =
                    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let at = rng.below(lines.len());
                match rng.below(4) {
                    0 => drop(lines.remove(at)),
                    1 => lines.insert(at, lines[at].clone()),
                    2 => {
                        let other = rng.below(lines.len());
                        lines.swap(at, other);
                    }
                    _ => {
                        let cut = rng.below(lines[at].len() + 1);
                        lines[at].truncate(cut);
                    }
                }
                bytes = lines.join(&b'\n');
            }
            _ => {
                let runs: Vec<(usize, usize)> = {
                    let mut runs = Vec::new();
                    let mut i = 0;
                    while i < bytes.len() {
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        if i > start {
                            runs.push((start, i));
                        }
                        i += 1;
                    }
                    runs
                };
                if let Some(&(start, end)) = runs.get(rng.below(runs.len().max(1))) {
                    let number = if rng.chance(1, 2) {
                        rng.pick(&NUMBERS).to_string()
                    } else {
                        rng.below(100).to_string()
                    };
                    bytes.splice(start..end, number.bytes());
                }
            }
        }
    }
    bytes
}

#[test]
fn hostile_journals_recover_or_fail_cleanly_never_panic() {
    let journal = small_journal(&journal_path("hostile-seed"));
    let path = journal_path("hostile-input");
    let mut rng = GenRng::new(seed() ^ 0x00c0_ffee);
    let mut restarts = 0usize;
    for i in 0..LOAD_INPUTS {
        let input = mutate(&mut rng, &journal);
        std::fs::write(&path, &input).expect("write mutated journal");
        let loaded = std::panic::catch_unwind(|| WalRecovery::load(&path));
        let keep = || {
            let kept = journal_path(&format!("hostile-panic-{i}"));
            std::fs::write(&kept, &input).expect("keep the input");
            kept
        };
        assert!(
            loaded.is_ok(),
            "seed {} input {i} panicked WalRecovery::load: {:?}",
            seed(),
            keep()
        );
        // Every so many inputs, the whole warm restart: engine build
        // over the journal, then one query against what it recovered.
        if i % (LOAD_INPUTS / RESTART_INPUTS) == 0 {
            restarts += 1;
            let outcome = std::panic::catch_unwind(|| {
                let data = webbase_webworld::data::Dataset::generate(seed(), 400);
                let web =
                    webbase_webworld::prelude::standard_web(data.clone(), LatencyModel::lan());
                let config =
                    EngineConfig { journal: Some(path.clone()), ..EngineConfig::default() };
                match Engine::build_on(web, data, config) {
                    Ok(engine) => engine.query("t", NARROW, QueryOptions::default()).map(|_| ()),
                    Err(WebbaseError::Journal(_)) => Ok(()),
                    Err(e) => panic!("a journal failed the build with {e}, not a Journal error"),
                }
            });
            assert!(
                outcome.is_ok(),
                "seed {} input {i} panicked a warm restart: {:?}",
                seed(),
                keep()
            );
            let failed = outcome.expect("checked").err();
            assert!(
                failed.is_none(),
                "seed {} input {i}: the recovered engine failed {failed:?}",
                seed()
            );
        }
    }
    assert!(restarts >= RESTART_INPUTS, "{restarts} warm restarts");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(journal_path("hostile-seed"));
}

// ── hostile queries: a seeded mutation battery ────────────────────────

/// Mutated UR queries planned per seed, the ones that plan executed (up
/// to the cap), and mutated §7 SELECTs run per seed.
const QUERY_INPUTS: usize = 2000;
const QUERY_RUNS: usize = 200;
const SELECT_INPUTS: usize = 500;

/// The paper's four query shapes (perfbench's paper-mix pool draws from
/// the same ones).
const QUERY_SHAPES: [&str; 4] = [
    JAGUAR_QUERY,
    "UsedCarUR(make='ford', model, year >= 1990, price, bbprice, rate, zip='10001', \
     duration=36, condition='good', payment := price * (1 + rate / 100 * duration / 12) / \
     duration) WHERE payment < 1000 AND price < bbprice",
    "UsedCarUR(make='jaguar', model='xj6', year >= 1993, price)",
    FORD,
];

/// §7 SELECTs over logical and VPS relations.
const SELECTS: [(&str, &str); 4] = [
    ("classifieds", common::FORD_SELECT),
    ("classifieds", "SELECT make, model, year, price, contact WHERE make=jaguar AND year >= 1993"),
    ("newsday", "SELECT make, model, price, url WHERE make=ford AND price < 5000"),
    ("kellys", "SELECT year, bbprice WHERE make=ford AND model=escort AND condition=good"),
];

/// Names a mutation may swap in for an identifier: UR attributes,
/// relations, keywords and near misses.
const NAMES: [&str; 20] = [
    "make",
    "model",
    "year",
    "price",
    "bbprice",
    "safety",
    "condition",
    "rate",
    "zip",
    "duration",
    "payment",
    "url",
    "features",
    "contact",
    "classifieds",
    "newsday",
    "WHERE",
    "AND",
    "nosuch",
    "price_",
];

/// The journal mutator's byte, line and digit-run edits, or one
/// identifier replaced by a name from [`NAMES`].
fn mutate_text(rng: &mut GenRng, text: &str) -> String {
    if rng.chance(1, 2) {
        return String::from_utf8_lossy(&mutate(rng, text.as_bytes())).into_owned();
    }
    let bytes = text.as_bytes();
    let mut idents = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            i += 1;
        }
        if i > start {
            idents.push((start, i));
        }
        i += 1;
    }
    let mut out = text.to_string();
    if let Some(&(start, end)) = idents.get(rng.below(idents.len().max(1))) {
        let name: &&str = rng.pick(&NAMES);
        out.replace_range(start..end, name);
    }
    out
}

/// Run `f` on `input`, failing the test with the seed and input if it
/// panics.
fn never_panics<T>(what: &str, input: &str, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(_) => panic!("seed {}: {what} panicked on {input:?}", seed()),
    }
}

#[test]
fn hostile_queries_and_selects_answer_or_fail_cleanly_never_panic() {
    let engine = engine();
    let mut rng = GenRng::new(seed() ^ 0x0bad_cafe);
    let (mut planned, mut ran) = (0usize, 0usize);
    for _ in 0..QUERY_INPUTS {
        let shape = *rng.pick(&QUERY_SHAPES);
        let text = mutate_text(&mut rng, shape);
        let plan = never_panics("explain", &text, || engine.explain(&text));
        if plan.is_ok() {
            planned += 1;
            if ran < QUERY_RUNS {
                ran += 1;
                // Ok or Err, never a panic: the engine's own containment
                // would turn one into `Panicked`, which fails here too.
                let out = never_panics("query", &text, || {
                    engine.query("t", &text, QueryOptions::default())
                });
                if let Err(EngineError::Panicked(failure)) = out {
                    panic!("seed {}: query panicked on {text:?}: {failure:?}", seed());
                }
            }
        }
    }
    assert!(planned > 0 && ran > 0, "no mutated query planned ({planned}) or ran ({ran})");
    assert_eq!(engine.stats().panics, 0);

    let mut webbase = webbase::Webbase::build_demo(seed(), 400, LatencyModel::lan());
    let mut answered = 0usize;
    for _ in 0..SELECT_INPUTS {
        let (relation, sql) = *rng.pick(&SELECTS);
        let relation =
            if rng.chance(1, 8) { mutate_text(&mut rng, relation) } else { relation.to_string() };
        let sql = mutate_text(&mut rng, sql);
        let input = format!("{relation}: {sql}");
        if never_panics("select", &input, || webbase.select(&relation, &sql)).is_ok() {
            answered += 1;
        }
    }
    assert!(answered > 0, "no mutated SELECT answered");
}

// ── hostile resume tokens: a seeded mutation battery ──────────────────

/// Mutated resume tokens parsed per seed, and the parsed ones resumed
/// (up to the cap), each on a fresh webbase.
const TOKEN_INPUTS: usize = 2000;
const TOKEN_RESUMES: usize = 300;

#[test]
fn hostile_resume_tokens_resume_or_fail_cleanly_never_panic() {
    use webbase_logical::{parse_resume, render_resume};
    let fresh = || webbase::Webbase::build_demo(seed(), 400, LatencyModel::lan());
    let budget = QueryBudget::unlimited().with_fetch_quota(6);
    let out = fresh().query_with(JAGUAR_QUERY, QueryOptions::budgeted(budget)).expect("runs");
    let token = render_resume(out.plan.resume.as_ref().expect("quota 6 interrupts the query"));
    let mut rng = GenRng::new(seed() ^ 0x7a4e_5eed);
    let (mut parsed, mut resumed) = (0usize, 0usize);
    for _ in 0..TOKEN_INPUTS {
        let text = String::from_utf8_lossy(&mutate(&mut rng, token.as_bytes())).into_owned();
        let Ok(hostile) = never_panics("parse_resume", &text, || parse_resume(&text)) else {
            continue;
        };
        parsed += 1;
        if resumed < TOKEN_RESUMES {
            resumed += 1;
            // Ok or Err, never a panic.
            let _ = never_panics("resume", &text, || {
                fresh().query_with(JAGUAR_QUERY, QueryOptions::resuming(hostile))
            });
        }
    }
    assert!(parsed > 0 && resumed > 0, "no mutated token parsed ({parsed}) or resumed ({resumed})");
}
