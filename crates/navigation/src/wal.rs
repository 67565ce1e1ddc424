//! Write-ahead journal for warm restarts.
//!
//! The shared engine's page store and whole-query result cache live in
//! memory; a daemon restart used to discard both and re-pay every fetch.
//! This module persists the two durable artifacts as they are produced —
//! admitted page bodies (the same `request + body` pairs a
//! [`ResumeToken`] journals) and settled result-cache entries — in the
//! `persist` module's F-logic fact syntax, so the journal is readable by
//! the same calculus that reads navigation maps:
//!
//! ```text
//! wal_page(0, get, 'www.newsday.com', '/auto').
//! wal_query(0, 0, 'make', 'ford').
//! wal_body(0, '%3Chtml%3E...').
//! wal_commit(0).
//! wal_id(1, 7, get, 'www.newsday.com', '/auto').
//! wal_idq(1, 7, 0, 'make', 'ford').
//! wal_id(1, 9, post, 'www.newsday.com', '/search').
//! wal_idp(1, 9, 0, 'model', 'escort').
//! wal_commit(1).
//! wal_result(2, 'UsedCarUR%28...%29').
//! wal_attr(2, 0, 'make').
//! wal_row(2, 0, 0, str, 'ford').
//! wal_deps(2, '7 9').
//! wal_commit(2).
//! ```
//!
//! A result's page deps are one list of the page store's ids
//! ([`PageId`]). The first time an opened journal cites an id, the same
//! append writes the id's request in a definition block (`wal_id`)
//! just before the result, so every definition precedes its first use
//! in the file. Ids are the store's, and a restarted engine numbers its
//! pages afresh, so recovery resolves each citation against the latest
//! definition of that id before it: file order.
//!
//! Every record is one block of facts terminated by a `wal_commit`
//! line, appended with a single `write_all` + flush, so a crash can at
//! worst leave one torn block at the tail. Recovery splits the file at
//! `wal_commit` lines, parses each block independently, and **drops**
//! any block that is uncommitted or unparseable (counting it in
//! [`WalRecovery::torn`]) — a torn journal never poisons a restart, it
//! just costs a re-fetch. A result that cites an id no surviving block
//! defined is dropped and counted the same way. A handle never writes
//! after a torn tail: [`WriteAheadLog::open`] and a failed append both
//! leave the tail to be cut off before the next write, so a fragment
//! cannot fuse with the block after it (and take that block's id
//! definitions down with it).
//!
//! [`ResumeToken`]: crate::budget::ResumeToken

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::budget::JournalEntry;
use crate::persist::{as_i64, as_str, as_usize, facts, pct, pct_bytes, q, unpct, unpct_bytes};
use crate::store::{PageId, PageSet};
use std::fmt::Write as _;
use webbase_flogic::parser::parse_program;
use webbase_flogic::program::Program;
use webbase_flogic::term::Term;
use webbase_obs::sync::SafeMutex;
use webbase_relational::{Relation, Schema, Tuple, Value};
use webbase_webworld::request::{Method, Request};
use webbase_webworld::url::Url;

#[derive(Debug)]
struct WalInner {
    file: SafeMutex<WalFile>,
    seq: AtomicU64,
}

/// The open file and the page ids this handle has defined in it.
#[derive(Debug)]
struct WalFile {
    file: File,
    defined: PageSet,
    /// Length of the file's committed prefix: it ends at a block
    /// boundary.
    len: u64,
    /// Bytes past `len` (a crash's or a failed write's fragment) that
    /// the next write cuts off first.
    torn: bool,
}

impl WalFile {
    /// Append whole blocks, at a block boundary. A failed write leaves
    /// `defined` as it was: the fragment is cut off before the next
    /// write, so the file holds only what `defined` says it does.
    fn write(&mut self, out: &[u8]) -> io::Result<()> {
        if self.torn {
            self.file.set_len(self.len)?;
            self.torn = false;
        }
        match self.file.write_all(out).and_then(|()| self.file.flush()) {
            Ok(()) => {
                self.len += out.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.torn = true;
                Err(e)
            }
        }
    }
}

/// An append-only journal of admitted pages and settled results.
/// Clone-cheap; appends are serialised under one lock and flushed per
/// record so the commit line hits the file with its block.
#[derive(Debug, Clone)]
pub struct WriteAheadLog {
    inner: Arc<WalInner>,
}

impl WriteAheadLog {
    /// Open (or create) the journal at `path` for appending. Committed
    /// records are left in place — run [`WalRecovery::load`] first to
    /// read them; an uncommitted tail, which recovery drops anyway, is
    /// cut off before the first append.
    pub fn open(path: &Path) -> io::Result<WriteAheadLog> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (_, tail) = split_blocks(&bytes);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = (bytes.len() - tail.len()) as u64;
        let mut wal = WalFile { file, defined: PageSet::new(), len, torn: !tail.is_empty() };
        if tail.is_empty() && bytes.last().is_some_and(|&b| b != b'\n') {
            wal.write(b"\n")?; // the last commit line lacked its newline
        }
        Ok(WriteAheadLog {
            inner: Arc::new(WalInner { file: SafeMutex::new(wal), seq: AtomicU64::new(0) }),
        })
    }

    fn append(&self, body: &str) -> io::Result<()> {
        self.inner.file.lock().write(body.as_bytes())
    }

    fn next_seq(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Journal one admitted page body (called from the fetch-success
    /// path; cache hits and preloads are not re-journalled).
    pub fn append_page(&self, entry: &JournalEntry) -> io::Result<()> {
        let seq = self.next_seq();
        let mut out = String::new();
        let req = &entry.request;
        let (method, host, path) =
            (method_name(req.method), q(&pct(&req.url.host)), q(&pct(&req.url.path)));
        let _ = writeln!(out, "wal_page({seq}, {method}, {host}, {path}).");
        for (j, (k, v)) in req.url.query.iter().enumerate() {
            let _ = writeln!(out, "wal_query({seq}, {j}, {}, {}).", q(&pct(k)), q(&pct(v)));
        }
        for (j, (k, v)) in req.params.iter().enumerate() {
            let _ = writeln!(out, "wal_param({seq}, {j}, {}, {}).", q(&pct(k)), q(&pct(v)));
        }
        let _ = writeln!(out, "wal_body({seq}, {}).", q(&pct_bytes(&entry.body)));
        let _ = writeln!(out, "wal_commit({seq}).");
        self.append(&out)
    }

    /// Journal one settled result-cache entry: the exact query text, the
    /// clean, complete relation that was published for it, and the ids
    /// of the pages the answer was computed from (one `wal_deps` list),
    /// so a warm restart can keep invalidating the recovered entry
    /// precisely when those pages drift. `request_of` resolves an id
    /// this handle has not defined yet; its definition goes out in the
    /// same write, ahead of the result. An id it cannot resolve fails
    /// the append and writes nothing.
    pub fn append_result(
        &self,
        query: &str,
        relation: &Relation,
        deps: &[PageId],
        request_of: impl Fn(PageId) -> Option<Request>,
    ) -> io::Result<()> {
        // The result block renders outside the journal lock; only the
        // id definitions depend on what this handle has written. Their
        // block's number is taken first, so numbers rise in file order.
        let defs_seq = self.next_seq();
        let seq = self.next_seq();
        let mut result = String::new();
        let _ = writeln!(result, "wal_result({seq}, {}).", q(&pct(query)));
        for (j, attr) in relation.schema().attrs().iter().enumerate() {
            let _ = writeln!(result, "wal_attr({seq}, {j}, {}).", q(&pct(attr.as_str())));
        }
        for (r, tuple) in relation.tuples().iter().enumerate() {
            for (c, value) in tuple.values().iter().enumerate() {
                let (kind, payload) = render_value(value);
                let _ =
                    writeln!(result, "wal_row({seq}, {r}, {c}, {kind}, {}).", q(&pct(&payload)));
            }
        }
        let mut list = String::new();
        for (j, id) in deps.iter().enumerate() {
            let sep = if j == 0 { "" } else { " " };
            let _ = write!(list, "{sep}{}", id.get());
        }
        let _ = writeln!(result, "wal_deps({seq}, {}).", q(&list));
        let _ = writeln!(result, "wal_commit({seq}).");

        // The definitions render outside the lock too, one per id this
        // handle had not defined when the append began. `defined` only
        // grows, so under the lock that set can only have shrunk.
        let candidates: Vec<PageId> = {
            let wal = self.inner.file.lock();
            let mut seen = PageSet::new();
            deps.iter()
                .copied()
                .filter(|&id| !wal.defined.contains(id) && seen.insert(id))
                .collect()
        };
        let mut definitions = Vec::with_capacity(candidates.len());
        for id in candidates {
            let req = request_of(id).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("unknown page id {}", id.get()))
            })?;
            definitions.push((id, render_definition(defs_seq, id, &req)));
        }

        let mut wal = self.inner.file.lock();
        definitions.retain(|(id, _)| !wal.defined.contains(*id));
        if definitions.is_empty() {
            return wal.write(result.as_bytes());
        }
        let mut out: String = definitions.iter().map(|(_, def)| def.as_str()).collect();
        let _ = writeln!(out, "wal_commit({defs_seq}).");
        out.push_str(&result);
        wal.write(out.as_bytes())?;
        // Defined only once the definitions are in the file.
        for (id, _) in definitions {
            wal.defined.insert(id);
        }
        Ok(())
    }

    /// Journal the drift-driven eviction of a cached result, so a warm
    /// restart does not resurrect an entry that was invalidated before
    /// the crash. Recovery applies blocks in file order: an invalidation
    /// drops earlier-journalled results for `query`, and a later
    /// re-published `wal_result` block re-adds the fresh one.
    pub fn append_invalidate(&self, query: &str) -> io::Result<()> {
        let seq = self.next_seq();
        let mut out = String::new();
        let _ = writeln!(out, "wal_invalidate({seq}, {}).", q(&pct(query)));
        let _ = writeln!(out, "wal_commit({seq}).");
        self.append(&out)
    }
}

/// One id's definition lines (`wal_id` and its query and form pairs)
/// in block `seq`.
fn render_definition(seq: u64, id: PageId, req: &Request) -> String {
    let mut out = String::new();
    let id = id.get();
    let (method, host, path) =
        (method_name(req.method), q(&pct(&req.url.host)), q(&pct(&req.url.path)));
    let _ = writeln!(out, "wal_id({seq}, {id}, {method}, {host}, {path}).");
    for (k, (key, val)) in req.url.query.iter().enumerate() {
        let (key, val) = (q(&pct(key)), q(&pct(val)));
        let _ = writeln!(out, "wal_idq({seq}, {id}, {k}, {key}, {val}).");
    }
    for (k, (key, val)) in req.params.iter().enumerate() {
        let (key, val) = (q(&pct(key)), q(&pct(val)));
        let _ = writeln!(out, "wal_idp({seq}, {id}, {k}, {key}, {val}).");
    }
    out
}

fn method_name(method: Method) -> &'static str {
    match method {
        Method::Get => "get",
        Method::Post => "post",
    }
}

fn parse_method(term: &Term) -> Option<Method> {
    match as_str(term, "wal method").ok()?.as_str() {
        "get" => Some(Method::Get),
        "post" => Some(Method::Post),
        _ => None,
    }
}

fn render_value(value: &Value) -> (&'static str, String) {
    match value {
        Value::Str(s) => ("str", s.clone()),
        Value::Int(n) => ("int", n.to_string()),
        Value::Float(f) => ("float", f.to_string()),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Null => ("null", String::new()),
    }
}

fn parse_value(kind: &str, payload: String) -> Option<Value> {
    Some(match kind {
        "str" => Value::Str(payload),
        "int" => Value::Int(payload.parse().ok()?),
        "float" => Value::Float(payload.parse().ok()?),
        "bool" => Value::Bool(payload == "true"),
        "null" => Value::Null,
        _ => return None,
    })
}

/// What survived a journal file: recovered pages and results (each
/// result with the page requests it depends on, its journalled ids
/// resolved), plus the count of torn blocks that were dropped:
/// uncommitted or unparseable ones, and results citing an id no
/// earlier surviving block defined. Blocks apply in file order, so a
/// journalled `wal_invalidate` removes the results committed before it
/// while a re-publish after it survives, and an id cited after a
/// re-definition resolves to the later request.
#[derive(Debug, Default)]
pub struct WalRecovery {
    pub pages: Vec<JournalEntry>,
    pub results: Vec<(String, Relation, Vec<Request>)>,
    pub torn: u64,
    /// The latest definition of each journalled page id seen so far.
    ids: HashMap<u32, Request>,
}

impl WalRecovery {
    /// Read every committed record from `path`. A missing file is an
    /// empty (cold) journal, not an error.
    pub fn load(path: &Path) -> io::Result<WalRecovery> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalRecovery::default()),
            Err(e) => return Err(e),
        };
        let mut recovery = WalRecovery::default();
        let (blocks, tail) = split_blocks(&bytes);
        for block in blocks {
            recovery.absorb(&String::from_utf8_lossy(block));
        }
        if !tail.trim_ascii().is_empty() {
            recovery.torn += 1; // tail block never committed
        }
        Ok(recovery)
    }

    fn absorb(&mut self, block: &str) {
        match parse_program(block).ok().and_then(|prog| parse_block(&prog)) {
            Some(WalRecord::Page(entry)) => self.pages.push(entry),
            Some(WalRecord::Ids(defs)) => self.ids.extend(defs),
            Some(WalRecord::Result(query, relation, cited)) => {
                let deps: Option<Vec<Request>> =
                    cited.iter().map(|id| self.ids.get(id).cloned()).collect();
                match deps {
                    Some(deps) => self.results.push((query, relation, deps)),
                    None => self.torn += 1, // cites an id never defined
                }
            }
            Some(WalRecord::Invalidate(query)) => {
                self.results.retain(|(text, _, _)| *text != query);
            }
            None => self.torn += 1,
        }
    }
}

/// A journal's committed blocks, each running through its `wal_commit`
/// line (and that line's newline), and the uncommitted tail after them.
fn split_blocks(bytes: &[u8]) -> (Vec<&[u8]>, &[u8]) {
    let mut blocks = Vec::new();
    let (mut start, mut at) = (0, 0);
    while at < bytes.len() {
        let end = bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| at + i + 1);
        if bytes[at..end].trim_ascii_start().starts_with(b"wal_commit(") {
            blocks.push(&bytes[start..end]);
            start = end;
        }
        at = end;
    }
    (blocks, &bytes[start..])
}

enum WalRecord {
    Page(JournalEntry),
    Ids(Vec<(u32, Request)>),
    Result(String, Relation, Vec<u32>),
    Invalidate(String),
}

/// The `(key, value)` pairs of `pred` facts `pred(seq, [owner,] k, key,
/// value)` in `k` order; `owner` filters on the second argument when
/// given. `None` when a matching fact is malformed.
fn pairs(
    prog: &Program,
    pred: &str,
    seq: i64,
    owner: Option<i64>,
) -> Option<Vec<(String, String)>> {
    let arity = if owner.is_some() { 5 } else { 4 };
    let mut rows = Vec::new();
    for p in facts(prog, pred, arity) {
        if p[0] != Term::Int(seq) {
            continue;
        }
        let rest = match owner {
            Some(o) if p[1] != Term::Int(o) => continue,
            Some(_) => &p[2..],
            None => &p[1..],
        };
        let k = as_usize(&rest[0], "wal pair seq").ok()?;
        let key = unpct(&as_str(&rest[1], "wal pair key").ok()?).ok()?;
        let val = unpct(&as_str(&rest[2], "wal pair value").ok()?).ok()?;
        rows.push((k, (key, val)));
    }
    rows.sort_by_key(|(k, _)| *k);
    Some(rows.into_iter().map(|(_, kv)| kv).collect())
}

/// Rebuild a request from its method, host and path terms plus its
/// query and form pairs.
fn request(
    method: &Term,
    host: &Term,
    path: &Term,
    query: Vec<(String, String)>,
    params: Vec<(String, String)>,
) -> Option<Request> {
    let host = unpct(&as_str(host, "wal host").ok()?).ok()?;
    let path = unpct(&as_str(path, "wal path").ok()?).ok()?;
    let mut url = Url::new(&host, &path);
    url.query = query;
    Some(Request { method: parse_method(method)?, url, params })
}

/// Interpret one committed block; `None` means the block is malformed
/// (counted as torn by the caller).
fn parse_block(prog: &Program) -> Option<WalRecord> {
    if let Some(a) = facts(prog, "wal_page", 4).first() {
        let seq = as_i64(&a[0], "wal seq").ok()?;
        let query = pairs(prog, "wal_query", seq, None)?;
        let params = pairs(prog, "wal_param", seq, None)?;
        let request = request(&a[1], &a[2], &a[3], query, params)?;
        let body = facts(prog, "wal_body", 2)
            .into_iter()
            .find(|b| b[0] == Term::Int(seq))
            .and_then(|b| as_str(&b[1], "wal body").ok())
            .and_then(|s| unpct_bytes(&s).ok())?;
        return Some(WalRecord::Page(JournalEntry { request, body: bytes::Bytes::from(body) }));
    }
    let defs = facts(prog, "wal_id", 5);
    if let Some(first) = defs.first() {
        let seq = as_i64(&first[0], "wal seq").ok()?;
        let mut ids = Vec::with_capacity(defs.len());
        for d in defs.iter().filter(|d| d[0] == Term::Int(seq)) {
            let id = as_i64(&d[1], "wal id").ok()?;
            let query = pairs(prog, "wal_idq", seq, Some(id))?;
            let params = pairs(prog, "wal_idp", seq, Some(id))?;
            ids.push((u32::try_from(id).ok()?, request(&d[2], &d[3], &d[4], query, params)?));
        }
        return Some(WalRecord::Ids(ids));
    }
    if let Some(a) = facts(prog, "wal_result", 2).first() {
        let seq = as_i64(&a[0], "wal seq").ok()?;
        let query = unpct(&as_str(&a[1], "wal query").ok()?).ok()?;
        let mut attrs = Vec::new();
        for f in facts(prog, "wal_attr", 3) {
            if f[0] != Term::Int(seq) {
                continue;
            }
            let j = as_usize(&f[1], "wal attr seq").ok()?;
            attrs.push((j, unpct(&as_str(&f[2], "wal attr").ok()?).ok()?));
        }
        attrs.sort_by_key(|(j, _)| *j);
        let attrs: Vec<String> = attrs.into_iter().map(|(_, a)| a).collect();
        if attrs.iter().enumerate().any(|(i, a)| attrs[..i].contains(a)) {
            return None; // duplicate attrs would panic Schema::new
        }
        let mut cells: Vec<(usize, usize, Value)> = Vec::new();
        for f in facts(prog, "wal_row", 5) {
            if f[0] != Term::Int(seq) {
                continue;
            }
            let r = as_usize(&f[1], "wal row").ok()?;
            let c = as_usize(&f[2], "wal col").ok()?;
            let kind = as_str(&f[3], "wal kind").ok()?;
            let payload = unpct(&as_str(&f[4], "wal payload").ok()?).ok()?;
            cells.push((r, c, parse_value(&kind, payload)?));
        }
        cells.sort_by_key(|(r, c, _)| (*r, *c));
        let mut relation = Relation::new(Schema::new(attrs.iter().map(String::as_str)));
        let mut row: Vec<Value> = Vec::new();
        let mut current = 0usize;
        for (r, c, value) in cells {
            if r != current {
                if row.len() != attrs.len() {
                    return None; // short row: torn record
                }
                relation.push(Tuple::from_values(std::mem::take(&mut row)));
                current = r;
            }
            if c != row.len() {
                return None; // gap or duplicate cell
            }
            row.push(value);
        }
        if !row.is_empty() {
            if row.len() != attrs.len() {
                return None;
            }
            relation.push(Tuple::from_values(row));
        }
        // Exactly one dep list: a result without one has lost its
        // provenance, which must never pass for "reads nothing".
        let mut lists = facts(prog, "wal_deps", 2).into_iter().filter(|d| d[0] == Term::Int(seq));
        let list = as_str(&lists.next()?[1], "wal deps").ok()?;
        if lists.next().is_some() {
            return None;
        }
        let deps = list.split_whitespace().map(|n| n.parse().ok()).collect::<Option<Vec<u32>>>()?;
        return Some(WalRecord::Result(query, relation, deps));
    }
    if let Some(a) = facts(prog, "wal_invalidate", 2).first() {
        let query = unpct(&as_str(&a[1], "wal query").ok()?).ok()?;
        return Some(WalRecord::Invalidate(query));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PageStore;

    fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("webbase-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn entry(host: &str, path: &str, body: &str) -> JournalEntry {
        let mut url = Url::new(host, path);
        url.query = vec![("make".to_string(), "ford".to_string())];
        JournalEntry {
            request: Request { method: Method::Get, url, params: Vec::new() },
            body: bytes::Bytes::from(body.as_bytes().to_vec()),
        }
    }

    fn sample_relation() -> Relation {
        let mut rel = Relation::new(Schema::new(["make", "year", "price"]));
        rel.push(Tuple::from_values([Value::str("ford"), Value::Int(1999), Value::Float(1234.5)]));
        rel.push(Tuple::from_values([Value::str("jaguar"), Value::Int(1995), Value::Null]));
        rel
    }

    /// A store that has numbered `reqs`, in order.
    fn numbered(reqs: &[Request]) -> PageStore {
        let store = PageStore::new();
        for r in reqs {
            store.intern(r);
        }
        store
    }

    #[test]
    fn pages_and_results_roundtrip() {
        let path = temp("roundtrip");
        let wal = WriteAheadLog::open(&path).expect("open wal");
        let page = entry("www.newsday.com", "/auto", "<html>tricky 'quotes' & bytes\n</html>");
        wal.append_page(&page).expect("append page");
        let rel = sample_relation();
        let mut post = entry("www.newsday.com", "/search", "").request;
        post.method = Method::Post;
        post.params = vec![("model".to_string(), "escort".to_string())];
        let deps = vec![page.request.clone(), post];
        let store = numbered(&deps);
        let ids = store.ids_of(&deps);
        let resolve = |id| store.request(id);
        wal.append_result("UsedCarUR(make='ford', price)", &rel, &ids, resolve)
            .expect("append result");
        // A second result citing the same ids defines nothing again.
        let before = std::fs::metadata(&path).expect("journal").len();
        wal.append_result("Again(x)", &rel, &ids[..1], resolve).expect("append result");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.matches("wal_id(").count(), 2, "each id defined once per opened file");
        assert!(!text[before as usize..].contains("wal_id("));

        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.torn, 0);
        assert_eq!(recovered.pages.len(), 1);
        assert_eq!(recovered.pages[0].request, page.request);
        assert_eq!(recovered.pages[0].body, page.body, "bodies are byte-identical");
        assert_eq!(recovered.results.len(), 2);
        assert_eq!(recovered.results[0].0, "UsedCarUR(make='ford', price)");
        assert_eq!(recovered.results[0].1, rel);
        assert_eq!(recovered.results[0].2, deps, "dependency requests roundtrip exactly");
        assert_eq!(recovered.results[1].2, deps[..1], "a later citation resolves too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_list_deps_roundtrip_in_order_with_duplicates_and_none() {
        let path = temp("id-lists");
        let wal = WriteAheadLog::open(&path).expect("open wal");
        let reqs: Vec<Request> =
            (0..70).map(|i| entry("a.example.com", &format!("/{i}"), "").request).collect();
        let store = numbered(&reqs);
        let ids = store.ids_of(&reqs);
        // Out of numbering order, spanning several bitmap words.
        let cited = vec![ids[66], ids[3], ids[0], ids[65]];
        let resolve = |id| store.request(id);
        wal.append_result("Q(a)", &sample_relation(), &cited, resolve).expect("append");
        wal.append_result("Q(none)", &sample_relation(), &[], resolve).expect("append");
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.torn, 0);
        let expected: Vec<Request> = [66, 3, 0, 65].iter().map(|&i| reqs[i].clone()).collect();
        assert_eq!(recovered.results[0].2, expected);
        assert_eq!(recovered.results[1].2, Vec::<Request>::new(), "an empty list is no deps");
        // An id the resolver does not know fails the append, unwritten.
        let before = std::fs::metadata(&path).expect("journal").len();
        let unknown = PageId::new(4000);
        assert!(wal.append_result("Q(b)", &sample_relation(), &[unknown], resolve).is_err());
        assert_eq!(std::fs::metadata(&path).expect("journal").len(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ids_defined_again_after_a_reopen_resolve_in_file_order() {
        let path = temp("redefine");
        let (a, b) =
            (entry("a.example.com", "/a", "").request, entry("b.example.com", "/b", "").request);
        {
            // The first run numbers `a` 0 and `b` 1.
            let store = numbered(&[a.clone(), b.clone()]);
            let wal = WriteAheadLog::open(&path).expect("open");
            wal.append_result(
                "First(x)",
                &sample_relation(),
                &store.ids_of(std::slice::from_ref(&a)),
                |id| store.request(id),
            )
            .expect("append");
        }
        {
            // A restarted run numbers them the other way round; its
            // handle defines id 0 again before citing it.
            let store = numbered(&[b.clone(), a.clone()]);
            let wal = WriteAheadLog::open(&path).expect("reopen");
            wal.append_result(
                "Second(x)",
                &sample_relation(),
                &store.ids_of(std::slice::from_ref(&b)),
                |id| store.request(id),
            )
            .expect("append");
        }
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.torn, 0);
        assert_eq!(recovered.results[0].2, vec![a], "cited before the re-definition");
        assert_eq!(recovered.results[1].2, vec![b], "cited after it");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_define_each_cited_id_once_before_its_first_use() {
        let path = temp("concurrent");
        let reqs: Vec<Request> =
            (0..40).map(|i| entry("a.example.com", &format!("/{i}"), "").request).collect();
        let store = numbered(&reqs);
        let ids = store.ids_of(&reqs);
        let wal = WriteAheadLog::open(&path).expect("open wal");
        // Every thread cites ids the others cite too, so definitions race.
        let cited = |t: usize, r: usize| -> Vec<usize> {
            (0..8).map(|k| (t * 7 + r * 3 + k * 5) % reqs.len()).collect()
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let (wal, store, ids, cited) = (&wal, &store, &ids, &cited);
                s.spawn(move || {
                    for r in 0..25 {
                        let deps: Vec<PageId> = cited(t, r).into_iter().map(|i| ids[i]).collect();
                        let text = format!("Q{t}_{r}(x)");
                        wal.append_result(&text, &sample_relation(), &deps, |id| store.request(id))
                            .expect("append");
                    }
                });
            }
        });
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!((recovered.results.len(), recovered.torn), (100, 0));
        for (text, _, deps) in &recovered.results {
            let (t, r) = text[1..text.len() - 3].split_once('_').expect("Qt_r(x)");
            let want: Vec<Request> = cited(t.parse().expect("t"), r.parse().expect("r"))
                .into_iter()
                .map(|i| reqs[i].clone())
                .collect();
            assert_eq!(deps, &want, "{text}");
        }
        let distinct: PageSet =
            (0..4).flat_map(|t| (0..25).flat_map(move |r| cited(t, r))).map(|i| ids[i]).collect();
        let defined = ids.iter().filter(|&&id| distinct.contains(id)).count();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.matches("wal_id(").count(), defined, "each cited id defined once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_result_citing_an_undefined_id_is_dropped_as_torn() {
        let path = temp("undefined");
        let wal = WriteAheadLog::open(&path).expect("open wal");
        let reqs =
            [entry("a.example.com", "/", "").request, entry("b.example.com", "/", "").request];
        let store = numbered(&reqs);
        let ids = store.ids_of(&reqs);
        let resolve = |id| store.request(id);
        wal.append_result("Kept(x)", &sample_relation(), &ids[..1], resolve).expect("append");
        wal.append_result("Torn(x)", &sample_relation(), &ids, resolve).expect("append");
        drop(wal);
        // Tear the second append's definition block: id 1 is then never
        // defined, and the result citing it must not survive.
        let text = std::fs::read_to_string(&path).expect("read back");
        let torn: String = text
            .lines()
            .filter(|l| !(l.starts_with("wal_id(") && l.split(", ").nth(1) == Some("1")))
            .fold(String::new(), |acc, l| acc + l + "\n");
        assert_ne!(torn, text, "the definition block was found and torn");
        std::fs::write(&path, torn).expect("write torn journal");
        let recovered = WalRecovery::load(&path).expect("recover");
        let texts: Vec<&str> = recovered.results.iter().map(|(t, _, _)| t.as_str()).collect();
        assert_eq!(texts, ["Kept(x)"]);
        assert_eq!(recovered.torn, 2, "the torn definition block and the result citing it");

        // A result block citing an id no block defines at all.
        std::fs::write(
            &path,
            "wal_result(0, 'Q%28x%29').\nwal_attr(0, 0, 'x').\nwal_deps(0, '7').\nwal_commit(0).\n\
             wal_result(1, 'R%28x%29').\nwal_attr(1, 0, 'x').\nwal_commit(1).\n",
        )
        .expect("write journal");
        let recovered = WalRecovery::load(&path).expect("recover");
        assert!(recovered.results.is_empty(), "{:?}", recovered.results);
        assert_eq!(recovered.torn, 2, "an undefined id and a missing dep list are both torn");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalidations_apply_in_file_order() {
        let path = temp("invalidate");
        let wal = WriteAheadLog::open(&path).expect("open wal");
        let stale = sample_relation();
        let reqs = vec![entry("www.newsday.com", "/auto", "").request];
        let store = numbered(&reqs);
        let deps = store.ids_of(&reqs);
        let resolve = |id| store.request(id);
        wal.append_result("Q(a)", &stale, &deps, resolve).expect("stale publish");
        wal.append_result("Other(b)", &stale, &[], resolve).expect("unrelated publish");
        wal.append_invalidate("Q(a)").expect("drift invalidation");
        let mut fresh = Relation::new(Schema::new(["make", "year", "price"]));
        fresh.push(Tuple::from_values([Value::str("saab"), Value::Int(2001), Value::Null]));
        wal.append_result("Q(a)", &fresh, &deps, resolve).expect("re-publish after refresh");

        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.torn, 0);
        assert_eq!(recovered.results.len(), 2, "stale entry removed, re-publish kept");
        assert_eq!(recovered.results[0].0, "Other(b)");
        assert_eq!(recovered.results[1].0, "Q(a)");
        assert_eq!(recovered.results[1].1, fresh, "recovered Q(a) is the post-drift value");
        assert_eq!(recovered.results[1].2, reqs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_recovers_empty() {
        let r = WalRecovery::load(Path::new("/nonexistent/webbase-wal")).expect("cold journal");
        assert_eq!(r.pages.len() + r.results.len(), 0);
        assert_eq!(r.torn, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let path = temp("torn");
        let wal = WriteAheadLog::open(&path).expect("open wal");
        wal.append_page(&entry("a.example.com", "/", "first")).expect("append");
        wal.append_page(&entry("b.example.com", "/", "second")).expect("append");
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the tail so the
        // last block loses its commit line.
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("truncate");
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.pages.len(), 1, "only the committed record survives");
        assert_eq!(recovered.pages[0].request.url.host, "a.example.com");
        assert_eq!(recovered.torn, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_reopened_journal_cuts_a_torn_tail_before_appending() {
        let path = temp("torn-reopen");
        let reqs =
            [entry("a.example.com", "/a", "").request, entry("b.example.com", "/b", "").request];
        {
            let wal = WriteAheadLog::open(&path).expect("open");
            wal.append_page(&entry("a.example.com", "/a", "first")).expect("append");
            wal.append_page(&entry("b.example.com", "/b", "second")).expect("append");
        }
        // A crash tears the second page block inside its body line: no
        // commit line, no final newline.
        let bytes = std::fs::read(&path).expect("read back");
        let body = bytes.windows(9).rposition(|w| w == b"wal_body(").expect("a body line");
        std::fs::write(&path, &bytes[..body + 14]).expect("tear");
        assert_eq!(WalRecovery::load(&path).expect("recover").torn, 1);
        {
            // The restarted run's first append is a definition block
            // ahead of a result: it must not fuse with the fragment.
            let store = numbered(&reqs);
            let wal = WriteAheadLog::open(&path).expect("reopen");
            let ids = store.ids_of(&reqs);
            wal.append_result("After(x)", &sample_relation(), &ids, |id| store.request(id))
                .expect("append");
            wal.append_result("Again(x)", &sample_relation(), &ids[1..], |id| store.request(id))
                .expect("append");
        }
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.torn, 0, "the fragment was cut off, not fused");
        assert_eq!(recovered.pages.len(), 1);
        let texts: Vec<&str> = recovered.results.iter().map(|(t, _, _)| t.as_str()).collect();
        assert_eq!(texts, ["After(x)", "Again(x)"]);
        assert_eq!(recovered.results[0].2, reqs, "fresh ids resolve to their requests");
        assert_eq!(recovered.results[1].2, reqs[1..]);
        // Of the old file exactly its committed prefix stays: the first
        // page's block, without the torn block's `wal_page` line.
        let text = std::fs::read(&path).expect("read back");
        let kept = bytes.windows(15).position(|w| w == b"wal_commit(0).\n").expect("first") + 15;
        assert_eq!(text[..kept], bytes[..kept]);
        assert!(text[kept..].starts_with(b"wal_id("));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_final_commit_line_without_its_newline_stays_committed() {
        let path = temp("no-newline");
        {
            let wal = WriteAheadLog::open(&path).expect("open");
            wal.append_page(&entry("a.example.com", "/", "first")).expect("append");
        }
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes.last(), Some(&b'\n'));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("drop the newline");
        {
            let wal = WriteAheadLog::open(&path).expect("reopen");
            wal.append_page(&entry("b.example.com", "/", "second")).expect("append");
        }
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!((recovered.pages.len(), recovered.torn), (2, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_block_is_torn_not_fatal() {
        let path = temp("garbage");
        std::fs::write(&path, "wal_page(0, get, 'h').\nwal_commit(0).\n!!!not facts\n")
            .expect("write garbage");
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.pages.len(), 0);
        assert_eq!(recovered.torn, 2, "bad-arity block and uncommitted tail both counted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopened_journal_appends_after_existing_records() {
        let path = temp("reopen");
        {
            let wal = WriteAheadLog::open(&path).expect("open");
            wal.append_page(&entry("a.example.com", "/", "first")).expect("append");
        }
        {
            let wal = WriteAheadLog::open(&path).expect("reopen");
            wal.append_page(&entry("b.example.com", "/", "second")).expect("append");
        }
        let recovered = WalRecovery::load(&path).expect("recover");
        assert_eq!(recovered.pages.len(), 2);
        assert_eq!(recovered.torn, 0);
        let _ = std::fs::remove_file(&path);
    }
}
