//! The `webbased` wire protocol: a line-oriented query service over
//! the shared [`Engine`].
//!
//! One connection is one tenant session. Requests are single lines;
//! replies are a status line (`OK …`, `ERR <code> …`, or `DEFER …`),
//! optionally followed by a tab-separated body terminated by `END`.
//! The protocol is deliberately 1999-shaped — telnet-friendly, no
//! framing beyond newlines:
//!
//! ```text
//! TENANT alice          → OK tenant alice
//! TRACE ON              → OK trace on
//! BUDGET 40             → OK budget 40
//! BUDGET NONE           → OK budget none
//! QUERY UsedCarUR(...)  → OK 3 12          (columns, rows)
//!                         make model ...   (tab-separated header)
//!                         jaguar xj6 ...   (tab-separated tuples)
//!                         END
//! EXPLAIN UsedCarUR(..) → OK plan / rendered plan / END
//! STATS                 → OK stats / key value lines / END
//! REFRESH [site]        → OK refresh ... (revalidate pages, rebuild views)
//! FRESHNESS             → OK freshness / ledger + recent drift / END
//! PING                  → OK pong
//! DRAIN                 → OK draining 0 in flight   (admissions stop)
//! SHUTDOWN              → OK shutting down          (session ends)
//! QUIT                  → OK bye           (connection closes)
//! ```
//!
//! `DEFER <reason>` answers a query the admission scheduler refused
//! this epoch — the tenant's cue to back off and retry, not an error.
//!
//! Every `ERR` carries a numeric code so clients can react without
//! parsing prose, and *no* protocol error ends the session:
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 400  | malformed argument or non-UTF-8 request line        |
//! | 404  | unknown command                                     |
//! | 413  | request line longer than [`MAX_LINE`] bytes         |
//! | 422  | query/plan error (parse failure, unknown relation)  |
//! | 500  | query execution panicked (contained; engine serves on) |
//! | 503  | engine is draining or stopped                       |
//!
//! [`serve_connection`] is generic over `BufRead`/`Write`, so the
//! same loop serves a TCP socket (the `webbased` binary), an
//! in-memory buffer (the tests), or stdio. [`serve_channel`] is the
//! same dispatch fed from a channel of raw lines — the `webbased`
//! daemon's shape, where a reader thread owns the socket and cancels
//! the session token on client disconnect.

use std::io::{self, BufRead, Write};
use std::sync::mpsc::Receiver;

use crate::engine::{Engine, EngineError, QueryOptions};
use webbase_navigation::{BudgetTracker, CancelToken, DriftOrigin, QueryBudget};

/// Longest request line the server accepts (bytes, newline included).
/// Longer lines answer `ERR 413` and are discarded; the session lives.
pub const MAX_LINE: usize = 8192;

/// Per-connection defaults (a connection can change all of these with
/// `TENANT` / `TRACE` / `BUDGET` commands).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tenant name used before any `TENANT` command.
    pub default_tenant: String,
    /// Reset the admission epoch automatically every `n` completed
    /// queries (`None` = only explicit `EPOCH` commands reset it).
    pub epoch_every: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { default_tenant: "anonymous".to_string(), epoch_every: None }
    }
}

/// Why a serve loop returned. `Shutdown` tells the daemon to drain
/// and exit the *process*, not just this connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client said `QUIT`.
    Quit,
    /// The input ended (socket closed, channel hung up).
    Eof,
    /// The client said `SHUTDOWN`.
    Shutdown,
}

struct Session {
    tenant: String,
    trace: bool,
    budget: Option<QueryBudget>,
    served: u64,
    /// The session's cancel token ([`serve_channel`] arms one; plain
    /// [`serve_connection`] has no way to observe a mid-query
    /// disconnect, so it runs without).
    cancel: Option<CancelToken>,
}

impl Session {
    fn new(config: &ServerConfig, cancel: Option<CancelToken>) -> Session {
        Session {
            tenant: config.default_tenant.clone(),
            trace: false,
            budget: None,
            served: 0,
            cancel,
        }
    }
}

/// Serve one connection until `QUIT`, `SHUTDOWN`, or EOF. Errors out
/// only on I/O failure — protocol misuse answers `ERR <code>` and
/// keeps the connection.
pub fn serve_connection<R: BufRead, W: Write>(
    engine: &Engine,
    config: &ServerConfig,
    mut reader: R,
    mut writer: W,
) -> io::Result<SessionEnd> {
    let mut session = Session::new(config, None);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            writer.flush()?;
            return Ok(SessionEnd::Eof);
        }
        if let Some(end) = handle_line(engine, config, &mut session, &buf, &mut writer)? {
            writer.flush()?;
            return Ok(end);
        }
        writer.flush()?;
    }
}

/// [`serve_connection`]'s dispatch, fed from a channel of raw request
/// lines instead of a `BufRead`. The `webbased` daemon runs this on a
/// worker thread while a reader thread owns the socket: when the
/// client disconnects mid-query, the reader cancels `cancel` and the
/// in-flight query abandons navigation at its next checkpoint.
pub fn serve_channel<W: Write>(
    engine: &Engine,
    config: &ServerConfig,
    lines: &Receiver<Vec<u8>>,
    mut writer: W,
    cancel: &CancelToken,
) -> io::Result<SessionEnd> {
    let mut session = Session::new(config, Some(cancel.clone()));
    loop {
        let Ok(raw) = lines.recv() else {
            writer.flush()?;
            return Ok(SessionEnd::Eof);
        };
        if let Some(end) = handle_line(engine, config, &mut session, &raw, &mut writer)? {
            writer.flush()?;
            return Ok(end);
        }
        writer.flush()?;
    }
}

/// Answer one raw request line. `Some(end)` ends the session.
fn handle_line<W: Write>(
    engine: &Engine,
    config: &ServerConfig,
    session: &mut Session,
    raw: &[u8],
    writer: &mut W,
) -> io::Result<Option<SessionEnd>> {
    if raw.len() > MAX_LINE {
        writeln!(writer, "ERR 413 request line exceeds {MAX_LINE} bytes")?;
        return Ok(None);
    }
    let Ok(text) = std::str::from_utf8(raw) else {
        writeln!(writer, "ERR 400 request line is not valid UTF-8")?;
        return Ok(None);
    };
    let line = text.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "PING" => writeln!(writer, "OK pong")?,
        "QUIT" => {
            writeln!(writer, "OK bye")?;
            return Ok(Some(SessionEnd::Quit));
        }
        "DRAIN" => {
            engine.drain();
            writeln!(writer, "OK draining {} in flight", engine.inflight_queries())?;
        }
        "SHUTDOWN" => {
            engine.shutdown();
            writeln!(writer, "OK shutting down")?;
            return Ok(Some(SessionEnd::Shutdown));
        }
        "TENANT" => {
            if rest.is_empty() {
                writeln!(writer, "ERR 400 tenant name required")?;
            } else {
                session.tenant = rest.to_string();
                writeln!(writer, "OK tenant {}", session.tenant)?;
            }
        }
        "TRACE" => match rest.to_ascii_uppercase().as_str() {
            "ON" => {
                session.trace = true;
                writeln!(writer, "OK trace on")?;
            }
            "OFF" => {
                session.trace = false;
                writeln!(writer, "OK trace off")?;
            }
            _ => writeln!(writer, "ERR 400 TRACE takes ON or OFF")?,
        },
        "BUDGET" => {
            if rest.eq_ignore_ascii_case("none") {
                session.budget = None;
                writeln!(writer, "OK budget none")?;
            } else {
                match rest.parse::<u64>() {
                    Ok(n) => {
                        session.budget = Some(QueryBudget::unlimited().with_fetch_quota(n));
                        writeln!(writer, "OK budget {n}")?;
                    }
                    Err(_) => writeln!(writer, "ERR 400 BUDGET takes a fetch quota or NONE")?,
                }
            }
        }
        "EPOCH" => {
            engine.reset_epoch();
            writeln!(writer, "OK epoch")?;
        }
        "QUERY" => {
            if rest.is_empty() {
                writeln!(writer, "ERR 400 query text required")?;
                return Ok(None);
            }
            let options = QueryOptions {
                budget: session.budget.clone(),
                trace: session.trace,
                cancel: session.cancel.clone(),
                resume: None,
            };
            match engine.query(&session.tenant, rest, options) {
                Ok(out) => {
                    let rel = &out.relation;
                    let attrs = rel.schema().attrs();
                    writeln!(writer, "OK {} {}", attrs.len(), rel.len())?;
                    let header: Vec<&str> =
                        attrs.iter().map(webbase_relational::Attr::as_str).collect();
                    writeln!(writer, "{}", header.join("\t"))?;
                    for t in rel.tuples() {
                        let row: Vec<String> =
                            (0..attrs.len()).map(|i| t.get(i).to_string()).collect();
                        writeln!(writer, "{}", row.join("\t"))?;
                    }
                    if out.plan.resume.is_some() {
                        writeln!(writer, "PARTIAL budget exhausted")?;
                    }
                    if let Some(obs) = &out.observation {
                        writeln!(writer, "TRACE {} spans", obs.trace.spans.len())?;
                    }
                    writeln!(writer, "END")?;
                    session.served += 1;
                    if let Some(every) = config.epoch_every {
                        if session.served.is_multiple_of(every) {
                            engine.reset_epoch();
                        }
                    }
                }
                Err(EngineError::Deferred(denial)) => {
                    writeln!(writer, "DEFER {denial}")?;
                }
                Err(e @ EngineError::Panicked(_)) => writeln!(writer, "ERR 500 {e}")?,
                Err(e @ EngineError::Draining) => writeln!(writer, "ERR 503 {e}")?,
                Err(e) => writeln!(writer, "ERR 422 {e}")?,
            }
        }
        "REFRESH" => {
            // Revalidate cached pages against the live Web (optionally
            // one site) and rebuild whatever drift invalidated. Charged
            // against the session budget like any navigation work, and
            // cancellable on client disconnect.
            let host = (!rest.is_empty()).then_some(rest);
            let tracker = session.budget.clone().map(BudgetTracker::new);
            let report = engine.refresh(
                host,
                DriftOrigin::Manual,
                tracker.as_ref(),
                session.cancel.as_ref(),
            );
            writeln!(
                writer,
                "OK refresh {} checked {} changed {} delta {} cold {} evicted",
                report.sweep.checked,
                report.sweep.changed,
                report.delta_refreshed,
                report.cold_refreshed,
                report.evicted
            )?;
        }
        "FRESHNESS" => {
            let f = engine.freshness();
            writeln!(writer, "OK freshness")?;
            writeln!(writer, "epoch\t{}", f.epoch)?;
            writeln!(writer, "tracked_views\t{}", f.tracked_views)?;
            writeln!(writer, "drifted\t{}", f.drifted.len())?;
            writeln!(writer, "events_published\t{}", f.events_published)?;
            for text in &f.drifted {
                writeln!(writer, "stale\t{text}")?;
            }
            for event in &f.recent {
                writeln!(
                    writer,
                    "event\t{:?}\t{:?}\t{}\t{}",
                    event.kind,
                    event.origin,
                    event.host,
                    event.requests.len()
                )?;
            }
            writeln!(writer, "END")?;
        }
        "EXPLAIN" => match engine.explain_semantics(rest) {
            Ok((plan, semantics)) => {
                writeln!(writer, "OK plan")?;
                for l in plan.render().lines() {
                    writeln!(writer, "{l}")?;
                }
                // The abstract interpreter's verdict: the static
                // fetch-cost interval and the per-host read-set.
                if let Some(semantics) = semantics {
                    for l in semantics.render().lines() {
                        writeln!(writer, "{l}")?;
                    }
                }
                writeln!(writer, "END")?;
            }
            Err(e) => writeln!(writer, "ERR 422 {e}")?,
        },
        "STATS" => {
            // The snapshot reads each counter individually (Relaxed
            // atomics), so a STATS taken while queries run can show a
            // *torn group* — e.g. a query counted but its store hits
            // not yet. Accepted by design: every counter is
            // individually monotone, which is all the harnesses rely
            // on, and a coherent group snapshot would put one lock on
            // the hot path of every counter bump. Pinned by
            // `stats_snapshots_are_fieldwise_monotone` in the chaos
            // battery.
            let s = engine.stats();
            writeln!(writer, "OK stats")?;
            writeln!(writer, "queries\t{}", s.queries)?;
            writeln!(writer, "deferred\t{}", s.deferred)?;
            writeln!(writer, "store_hits\t{}", s.store_hits)?;
            writeln!(writer, "store_misses\t{}", s.store_misses)?;
            writeln!(writer, "store_evictions\t{}", s.store_evictions)?;
            writeln!(writer, "memo_hits\t{}", s.memo_hits)?;
            writeln!(writer, "memo_misses\t{}", s.memo_misses)?;
            writeln!(writer, "memo_len\t{}", s.memo_len)?;
            writeln!(writer, "memo_coalesced\t{}", s.memo_coalesced)?;
            writeln!(writer, "logical_hits\t{}", s.logical_hits)?;
            writeln!(writer, "logical_misses\t{}", s.logical_misses)?;
            writeln!(writer, "logical_len\t{}", s.logical_len)?;
            writeln!(writer, "logical_coalesced\t{}", s.logical_coalesced)?;
            writeln!(writer, "result_hits\t{}", s.result_hits)?;
            writeln!(writer, "result_misses\t{}", s.result_misses)?;
            writeln!(writer, "result_coalesced\t{}", s.result_coalesced)?;
            writeln!(writer, "pool_waits\t{}", s.pool_waits)?;
            writeln!(writer, "panics\t{}", s.panics)?;
            writeln!(writer, "cancelled\t{}", s.cancelled)?;
            writeln!(writer, "result_aborted\t{}", s.result_aborted)?;
            writeln!(writer, "memo_aborted\t{}", s.memo_aborted)?;
            writeln!(writer, "lock_poison_recovered\t{}", s.lock_poison_recovered)?;
            writeln!(writer, "journal_recovered_pages\t{}", s.journal_recovered_pages)?;
            writeln!(writer, "journal_recovered_results\t{}", s.journal_recovered_results)?;
            writeln!(writer, "journal_torn\t{}", s.journal_torn)?;
            writeln!(writer, "web_requests\t{}", s.web_requests)?;
            writeln!(writer, "drift_events\t{}", s.drift_events)?;
            writeln!(writer, "view_invalidated\t{}", s.view_invalidated)?;
            writeln!(writer, "delta_refresh\t{}", s.delta_refresh)?;
            writeln!(writer, "cold_refresh\t{}", s.cold_refresh)?;
            writeln!(writer, "stale_served\t{}", s.stale_served)?;
            writeln!(writer, "static_denied\t{}", s.static_denied)?;
            writeln!(writer, "readset_escape\t{}", s.readset_escape)?;
            writeln!(writer, "END")?;
        }
        _ => writeln!(writer, "ERR 404 unknown command {verb}")?,
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_webworld::prelude::LatencyModel;

    fn drive(engine: &Engine, script: &str) -> String {
        let mut out = Vec::new();
        serve_connection(engine, &ServerConfig::default(), script.as_bytes(), &mut out)
            .expect("in-memory serve");
        String::from_utf8(out).expect("utf8 reply")
    }

    #[test]
    fn ping_quit_and_unknown() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(&engine, "PING\nFROB\nQUIT\nPING\n");
        assert_eq!(reply, "OK pong\nERR 404 unknown command FROB\nOK bye\n");
    }

    #[test]
    fn query_streams_header_rows_and_end() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(
            &engine,
            "TENANT alice\nQUERY UsedCarUR(make='honda', model='civic', year, price)\n",
        );
        let mut lines = reply.lines();
        assert_eq!(lines.next(), Some("OK tenant alice"));
        let status = lines.next().expect("status line");
        assert!(status.starts_with("OK "), "{status}");
        let header = lines.next().expect("header");
        assert!(header.split('\t').any(|c| c == "price"), "{header}");
        assert_eq!(reply.lines().last(), Some("END"));
    }

    #[test]
    fn parse_errors_answer_err_and_keep_the_connection() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(&engine, "QUERY Used CarUR(\nPING\n");
        assert!(reply.starts_with("ERR 422 "), "{reply}");
        assert!(reply.ends_with("OK pong\n"), "{reply}");
    }

    #[test]
    fn overlong_and_non_utf8_lines_answer_coded_errors_and_keep_the_session() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let mut script = Vec::new();
        script.extend_from_slice(b"PING\n");
        // One line over the cap...
        script.extend_from_slice(&vec![b'Q'; MAX_LINE + 1]);
        script.push(b'\n');
        // ...one that is not UTF-8...
        script.extend_from_slice(b"QUERY \xff\xfe\n");
        // ...and the session still answers afterwards.
        script.extend_from_slice(b"PING\nQUIT\n");
        let mut out = Vec::new();
        let end = serve_connection(&engine, &ServerConfig::default(), script.as_slice(), &mut out)
            .expect("in-memory serve");
        assert_eq!(end, SessionEnd::Quit);
        let reply = String::from_utf8(out).expect("utf8 reply");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK pong");
        assert!(lines[1].starts_with("ERR 413 "), "{reply}");
        assert!(lines[2].starts_with("ERR 400 "), "{reply}");
        assert_eq!(lines[3], "OK pong");
        assert_eq!(lines[4], "OK bye");
    }

    #[test]
    fn budget_yields_partial_marker() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(&engine, "BUDGET 2\nQUERY UsedCarUR(make='ford', price)\n");
        assert!(reply.contains("OK budget 2"), "{reply}");
        assert!(reply.contains("PARTIAL budget exhausted"), "{reply}");
    }

    #[test]
    fn trace_reports_span_count_and_stats_report_counters() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(
            &engine,
            "TRACE ON\nQUERY UsedCarUR(make='honda', model='civic', year, price)\nSTATS\nQUIT\n",
        );
        assert!(reply.contains("TRACE "), "{reply}");
        assert!(reply.contains("queries\t1"), "{reply}");
        assert!(reply.contains("panics\t0"), "{reply}");
        assert!(reply.contains("web_requests\t"), "{reply}");
        assert!(reply.contains("OK bye"), "{reply}");
    }

    #[test]
    fn explain_includes_the_static_analysis_section() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(&engine, "EXPLAIN UsedCarUR(make='ford', price)\nSTATS\nQUIT\n");
        assert!(reply.contains("OK plan"), "{reply}");
        assert!(reply.contains("static cost: ["), "{reply}");
        assert!(reply.contains("static read set:"), "{reply}");
        assert!(reply.contains(" nodes {"), "{reply}");
        // EXPLAIN is fetch-free and never trips the tripwires.
        assert!(reply.contains("static_denied\t0"), "{reply}");
        assert!(reply.contains("readset_escape\t0"), "{reply}");
    }

    #[test]
    fn refresh_and_freshness_verbs_answer() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply = drive(
            &engine,
            "QUERY UsedCarUR(make='honda', model='civic', year, price)\n\
             REFRESH\nFRESHNESS\nSTATS\nQUIT\n",
        );
        assert!(reply.contains("OK refresh "), "{reply}");
        assert!(reply.contains(" checked "), "{reply}");
        assert!(reply.contains("OK freshness"), "{reply}");
        assert!(reply.contains("epoch\t"), "{reply}");
        assert!(reply.contains("tracked_views\t"), "{reply}");
        // Nothing mutated, so the sweep found no drift and the
        // freshness counters show a quiet system.
        assert!(reply.contains("view_invalidated\t0"), "{reply}");
        assert!(reply.contains("stale_served\t0"), "{reply}");
    }

    #[test]
    fn drain_rejects_new_queries_and_shutdown_ends_the_session() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let reply =
            drive(&engine, "DRAIN\nQUERY UsedCarUR(make='honda', model='civic', year, price)\n");
        assert!(reply.contains("OK draining 0 in flight"), "{reply}");
        assert!(reply.contains("ERR 503 "), "{reply}");
        let mut out = Vec::new();
        let end = serve_connection(
            &engine,
            &ServerConfig::default(),
            "SHUTDOWN\nPING\n".as_bytes(),
            &mut out,
        )
        .expect("in-memory serve");
        assert_eq!(end, SessionEnd::Shutdown, "SHUTDOWN must end the session");
        let reply = String::from_utf8(out).expect("utf8 reply");
        assert!(reply.contains("OK shutting down"), "{reply}");
        assert!(!reply.contains("OK pong"), "no dispatch after SHUTDOWN: {reply}");
    }

    #[test]
    fn serve_channel_dispatches_lines_and_reports_eof_on_hangup() {
        let engine = Engine::build_demo(5, 400, LatencyModel::lan());
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        tx.send(b"PING\n".to_vec()).expect("send");
        tx.send(b"STATS\n".to_vec()).expect("send");
        drop(tx);
        let mut out = Vec::new();
        let cancel = CancelToken::new();
        let end = serve_channel(&engine, &ServerConfig::default(), &rx, &mut out, &cancel)
            .expect("channel serve");
        assert_eq!(end, SessionEnd::Eof);
        let reply = String::from_utf8(out).expect("utf8 reply");
        assert!(reply.starts_with("OK pong\n"), "{reply}");
        assert!(reply.contains("OK stats"), "{reply}");
    }
}
