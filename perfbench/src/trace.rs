//! Outside-in tracing: spans recorded by the benchmark around each call
//! it makes into a layer's public functions.
//!
//! Spans are kept in per-thread buffers and gathered when the run ends.
//! Each span carries the id of the span that caused it and the id of the
//! benchmark operation (query or refresh) it belongs to. The simulated
//! Web is traced through [`TimedSite`], a wrapper around every site that
//! opens a `webworld.serve` span under whatever span is open on the
//! fetching thread, so the Web's own cost is never counted as webbase
//! time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use webbase_webworld::request::{Request, Response};
use webbase_webworld::server::Site;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The benchmark operation the span belongs to (0 outside the timed
    /// loop: set-up and the post-run html measurement).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes served, for `webworld.serve` spans.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds covered by the union of `intervals`, clipped to
/// `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static GATHERED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Bodies served to benchmark operations, for the html measurement
/// (bounded; set-up traffic is left out).
static BODIES: Mutex<(Vec<bytes::Bytes>, usize)> = Mutex::new((Vec::new(), 0));
const BODY_BUDGET: usize = 4 << 20;

#[derive(Default)]
struct ThreadTrace {
    /// Open spans, innermost last: (id, name, start).
    stack: Vec<(u64, &'static str, u64)>,
    op: u64,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Set the operation id new spans on this thread belong to.
pub fn set_op(op: u64) {
    LOCAL.with(|t| t.borrow_mut().op = op);
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off for every thread. While off, [`span`]
/// only runs its closure.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name` on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_bytes(name, || (f(), 0))
}

/// Like [`span`], with `f` also returning the bytes to record.
fn span_bytes<R>(name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f().0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|t| t.borrow_mut().stack.push((id, name, now_ns())));
    let (out, bytes) = f();
    let end_ns = now_ns();
    LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        let (id, name, start_ns) = t.stack.pop().expect("span stack is balanced");
        let parent = t.stack.last().map(|s| s.0);
        let op = t.op;
        t.done.push(Span { id, parent, op, name, start_ns, end_ns, bytes });
    });
    out
}

fn inside_span() -> bool {
    LOCAL.with(|t| !t.borrow().stack.is_empty())
}

/// Move this thread's finished spans to the shared collection. Every
/// thread that records spans calls this before it ends.
pub fn flush_thread() {
    let done = LOCAL.with(|t| std::mem::take(&mut t.borrow_mut().done));
    GATHERED.lock().expect("span collection lock").extend(done);
}

/// Every gathered span, in start order; clears the collection.
pub fn take_spans() -> Vec<Span> {
    flush_thread();
    let mut spans = std::mem::take(&mut *GATHERED.lock().expect("span collection lock"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The bodies served to benchmark operations so far; clears the
/// collection.
pub fn take_bodies() -> Vec<bytes::Bytes> {
    std::mem::take(&mut BODIES.lock().expect("body collection lock").0)
}

/// A simulated site whose every request is timed as a `webworld.serve`
/// span. Requests made outside any span (the correctness gate) are
/// served untimed.
pub struct TimedSite(pub Box<dyn Site>);

impl Site for TimedSite {
    fn host(&self) -> &str {
        self.0.host()
    }

    fn entry(&self) -> webbase_webworld::url::Url {
        self.0.entry()
    }

    fn handle(&self, req: &Request) -> Response {
        if !inside_span() {
            return self.0.handle(req);
        }
        let resp = span_bytes("webworld.serve", || {
            let resp = self.0.handle(req);
            let n = resp.len_bytes() as u64;
            (resp, n)
        });
        let in_op = LOCAL.with(|t| t.borrow().op != 0);
        let mut bodies = BODIES.lock().expect("body collection lock");
        if in_op && bodies.1 < BODY_BUDGET {
            bodies.1 += resp.body.len();
            bodies.0.push(resp.body.clone());
        }
        resp
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "t", start_ns, end_ns, bytes: 0 }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 40)]), 30);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (30, 40)]), 30);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (50, 60), (15, 55)]), 50);
        // Clipped to the parent's interval.
        assert_eq!(covered_ns(20, 50, &[(0, 30), (45, 90)]), 15);
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp(1, None, 0, 100),
            // Two children overlapping each other: union is [10, 50).
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 30, 50),
            // A grandchild does not count against the root.
            sp(4, Some(2), 12, 20),
            // A child spilling past its parent's end is clipped.
            sp(5, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 8, 30]);
    }

    #[test]
    fn spans_nest_per_thread() {
        enable(true);
        std::thread::spawn(|| {
            set_op(7);
            span("outer", || span("inner", || ()));
            flush_thread();
        })
        .join()
        .expect("tracing thread");
        let spans: Vec<Span> = take_spans().into_iter().filter(|s| s.op == 7).collect();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
