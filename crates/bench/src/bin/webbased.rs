//! `webbased` — the long-lived multi-query daemon.
//!
//! Builds the shared [`Engine`] once, then serves the line-oriented
//! wire protocol (see `webbase::server`) to any number of concurrent
//! TCP connections. Every connection is a tenant session over the same
//! engine: compiled maps, page store, answer memo, and connection
//! pools are shared; traces, budgets, and answers are private.
//!
//! Each connection gets *two* threads: a reader that owns the socket's
//! read half and a worker that runs the dispatch loop off a channel of
//! request lines. The split is what makes mid-query disconnects
//! observable — when the client goes away without `QUIT`, the reader
//! cancels the session's token and the in-flight query abandons
//! navigation at its next checkpoint instead of running orphaned.
//!
//! With `--journal`, admitted page bodies and settled results are
//! written to a write-ahead journal; restarting `webbased` on the same
//! journal rebuilds the page store and result cache without touching
//! the (simulated) network — warm restart.
//!
//! ```text
//! webbased [--port 1999] [--seed 42] [--ads 1500] [--dialup]
//!          [--admission N] [--static-admission] [--epoch-every N]
//!          [--journal PATH]
//! ```
//!
//! With `--static-admission`, queries running under a `BUDGET n` fetch
//! quota whose statically-derived fetch-cost lower bound already
//! exceeds `n` are `DEFER`red before the first page fetch (the
//! `static_denied` counter tracks these).
//!
//! Try it with netcat:
//!
//! ```text
//! $ cargo run -p webbase-bench --bin webbased -- --port 1999 &
//! $ printf 'TENANT alice\nQUERY UsedCarUR(make=%s, price)\nQUIT\n' "'ford'" | nc 127.0.0.1 1999
//! ```

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use webbase::{
    read_request_line, serve_channel, AdmissionConfig, CancelToken, Engine, EngineConfig,
    LatencyModel, ServerConfig, SessionEnd,
};

struct Args {
    port: u16,
    seed: u64,
    ads: usize,
    dialup: bool,
    admission: Option<u64>,
    fair_share: bool,
    static_admission: bool,
    epoch_every: Option<u64>,
    journal: Option<PathBuf>,
    drift_gen: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 1999,
        seed: 42,
        ads: 1500,
        dialup: false,
        admission: None,
        fair_share: true,
        static_admission: false,
        epoch_every: None,
        journal: None,
        drift_gen: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => args.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ads" => args.ads = value("--ads")?.parse().map_err(|e| format!("--ads: {e}"))?,
            "--dialup" => args.dialup = true,
            "--no-fair-share" => args.fair_share = false,
            "--static-admission" => args.static_admission = true,
            "--admission" => {
                args.admission =
                    Some(value("--admission")?.parse().map_err(|e| format!("--admission: {e}"))?);
            }
            "--epoch-every" => {
                args.epoch_every = Some(
                    value("--epoch-every")?.parse().map_err(|e| format!("--epoch-every: {e}"))?,
                );
            }
            "--journal" => args.journal = Some(PathBuf::from(value("--journal")?)),
            "--drift-gen" => {
                args.drift_gen =
                    Some(value("--drift-gen")?.parse().map_err(|e| format!("--drift-gen: {e}"))?);
            }
            "--help" | "-h" => {
                println!(
                    "webbased [--port 1999] [--seed 42] [--ads 1500] [--dialup] \
                     [--admission N] [--no-fair-share] [--static-admission] \
                     [--epoch-every N] [--journal PATH] [--drift-gen N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Pump request lines from the socket into the worker's channel.
/// Returns once the client hangs up (EOF or read error); a hangup
/// *without* a pipelined `QUIT`/`SHUTDOWN` is a disconnect, and the
/// session token is cancelled so an in-flight query stops cooperatively
/// instead of navigating for nobody.
fn pump_lines(read_half: TcpStream, tx: mpsc::Sender<Vec<u8>>, cancel: CancelToken) {
    let mut reader = BufReader::new(read_half);
    let mut quit_seen = false;
    loop {
        let mut buf = Vec::new();
        match read_request_line(&mut reader, &mut buf) {
            Ok(false) | Err(_) => break,
            Ok(true) => {
                if let Ok(text) = std::str::from_utf8(&buf) {
                    let verb = text.trim();
                    if verb.eq_ignore_ascii_case("quit") || verb.eq_ignore_ascii_case("shutdown") {
                        quit_seen = true;
                    }
                }
                if tx.send(buf).is_err() {
                    return; // the worker already ended the session
                }
            }
        }
    }
    if !quit_seen {
        cancel.cancel();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("webbased: {e}");
            return ExitCode::FAILURE;
        }
    };
    let latency = if args.dialup { LatencyModel::dialup_1999() } else { LatencyModel::lan() };
    eprintln!("webbased: building engine (seed {}, {} ads)...", args.seed, args.ads);
    let data = webbase_webworld::data::Dataset::generate(args.seed, args.ads);
    // With --drift-gen, the drift host carries a mutation schedule:
    // the engine records its maps against generation 0 (mutations
    // inert), then the clock jumps to N before serving — a web that
    // changed while the daemon was down.
    let (web, drift_clock) = if args.drift_gen.is_some() {
        let (web, clock) = webbase_bench::drifting_web(data.clone(), latency);
        (web, Some(clock))
    } else {
        (webbase_webworld::prelude::standard_web(data.clone(), latency), None)
    };
    let config = EngineConfig {
        admission: args.admission.map(|queries_per_epoch| AdmissionConfig {
            queries_per_epoch,
            fair_share: args.fair_share,
        }),
        journal: args.journal.clone(),
        static_admission: args.static_admission,
        ..EngineConfig::default()
    };
    let engine = match Engine::build_on(web, data, config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("webbased: build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(clock), Some(generation)) = (&drift_clock, args.drift_gen) {
        clock.set(generation);
        if generation > 0 {
            eprintln!(
                "webbased: {} now serves drift generation {generation}",
                webbase_bench::DRIFT_HOST
            );
        }
    }
    let stats = engine.stats();
    if stats.journal_recovered_pages > 0 || stats.journal_recovered_results > 0 {
        eprintln!(
            "webbased: warm restart: {} pages, {} results replayed ({} torn records dropped)",
            stats.journal_recovered_pages, stats.journal_recovered_results, stats.journal_torn
        );
    }
    let server_config =
        Arc::new(ServerConfig { epoch_every: args.epoch_every, ..ServerConfig::default() });
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("webbased: bind 127.0.0.1:{}: {e}", args.port);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("webbased: serving {} sites on 127.0.0.1:{}", engine.report().sites.len(), args.port);
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("webbased: accept: {e}");
                continue;
            }
        };
        let engine = engine.clone();
        let server_config = server_config.clone();
        thread::spawn(move || {
            let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
            let read_half = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("webbased: clone stream for {peer}: {e}");
                    return;
                }
            };
            let cancel = CancelToken::new();
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            {
                let cancel = cancel.clone();
                thread::spawn(move || pump_lines(read_half, tx, cancel));
            }
            match serve_channel(&engine, &server_config, &rx, &stream, &cancel) {
                Ok(SessionEnd::Shutdown) => {
                    eprintln!("webbased: shutdown requested by {peer}; draining...");
                    engine.drain_wait(Duration::from_secs(30));
                    eprintln!("webbased: bye");
                    std::process::exit(0);
                }
                Ok(_) => {}
                Err(e) => eprintln!("webbased: connection {peer}: {e}"),
            }
        });
    }
    ExitCode::SUCCESS
}
