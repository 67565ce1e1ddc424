//! A registry of monotone counters and latency histograms, shared across
//! the Browser ↔ VpsCatalog ↔ UrPlan threads the same way `BudgetTracker`
//! is: one `Arc<MetricsRegistry>` handed down the layer stack, atomics
//! inside so the parallel timing harness can increment without locking.
//!
//! Counters only ever go up (the monotonicity property tests depend on
//! it); point-in-time views are taken with [`MetricsRegistry::snapshot`],
//! which is an ordinary mergeable value with deterministic rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every counter the registry tracks. The discriminant indexes the
/// registry's atomic array, so the enum is the single source of truth
/// for metric names (see README's metric table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Network fetch attempts that reached the wire (includes retries).
    Fetches,
    /// Requests answered from the page cache without touching the wire.
    CacheHits,
    /// Fetch attempts re-issued after a retryable failure.
    Retries,
    /// Attempts classified as timeouts (stall ≥ the fetch timeout).
    Timeouts,
    /// Attempts that came back as retryable server errors (5xx).
    HttpFailures,
    /// Circuit-breaker transitions into the Open state.
    BreakerOpens,
    /// Requests rejected instantly because the breaker was open.
    FastFailures,
    /// Requests rejected by budget admission (deadline or quota).
    BudgetDenials,
    /// Map repairs auto-applied by the self-healing layer.
    Repairs,
    /// Navigation nodes quarantined pending manual intervention.
    Quarantines,
    /// Navigation programs recompiled and replayed after a repair.
    Replays,
    /// Expired sessions re-established from checkpointed inputs.
    SessionRecoveries,
    /// Pages successfully parsed into the page model.
    PagesParsed,
    /// Navigation steps executed (entry, goto, follow, submit, choice).
    NavSteps,
    /// VPS handle invocations (one per `VpsCatalog::fetch`).
    HandleInvocations,
    /// Tuples emitted by VPS handles into the logical layer.
    TuplesEmitted,
    /// Logical-layer invocations answered from the engine's logical
    /// memo: the definition was not evaluated, and no VPS handle ran.
    LogicalHits,
    /// Navigation attempts abandoned because the query was cancelled
    /// (client disconnect, shutdown, or an explicit cancel).
    Cancellations,
    /// Drift events published on the navigation drift bus (page change,
    /// repair, or quarantine detections).
    DriftEvents,
    /// Cached views (result-cache entries) invalidated by drift.
    ViewInvalidated,
    /// Drifted views refreshed at object level: only the plan objects
    /// that read a drifted page re-ran.
    DeltaRefresh,
    /// Drifted views refreshed by re-running every plan object, or left
    /// evicted (drift no strict subset of the objects accounts for, or
    /// a failed rebuild).
    ColdRefresh,
    /// Answers served from a cache entry *after* drift had invalidated
    /// it — the freshness contract's tripwire; must stay 0.
    StaleServed,
    /// Queries denied before any fetch because static analysis proved
    /// the plan's fetch-cost lower bound exceeds the remaining quota.
    StaticDenied,
    /// Runtime page reads that escaped the plan's static read-set —
    /// the abstract interpreter's soundness tripwire; must stay 0.
    ReadsetEscape,
}

/// All metrics, in declaration order (= atomic array order).
pub const METRICS: [Metric; 25] = [
    Metric::Fetches,
    Metric::CacheHits,
    Metric::Retries,
    Metric::Timeouts,
    Metric::HttpFailures,
    Metric::BreakerOpens,
    Metric::FastFailures,
    Metric::BudgetDenials,
    Metric::Repairs,
    Metric::Quarantines,
    Metric::Replays,
    Metric::SessionRecoveries,
    Metric::PagesParsed,
    Metric::NavSteps,
    Metric::HandleInvocations,
    Metric::TuplesEmitted,
    Metric::LogicalHits,
    Metric::Cancellations,
    Metric::DriftEvents,
    Metric::ViewInvalidated,
    Metric::DeltaRefresh,
    Metric::ColdRefresh,
    Metric::StaleServed,
    Metric::StaticDenied,
    Metric::ReadsetEscape,
];

impl Metric {
    /// The stable snake_case name used in snapshots, renders, and docs.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Fetches => "fetches",
            Metric::CacheHits => "cache_hits",
            Metric::Retries => "retries",
            Metric::Timeouts => "timeouts",
            Metric::HttpFailures => "http_failures",
            Metric::BreakerOpens => "breaker_opens",
            Metric::FastFailures => "fast_failures",
            Metric::BudgetDenials => "budget_denials",
            Metric::Repairs => "repairs",
            Metric::Quarantines => "quarantines",
            Metric::Replays => "replays",
            Metric::SessionRecoveries => "session_recoveries",
            Metric::PagesParsed => "pages_parsed",
            Metric::NavSteps => "nav_steps",
            Metric::HandleInvocations => "handle_invocations",
            Metric::TuplesEmitted => "tuples_emitted",
            Metric::LogicalHits => "logical_hits",
            Metric::Cancellations => "cancellations",
            Metric::DriftEvents => "drift_events",
            Metric::ViewInvalidated => "view_invalidated",
            Metric::DeltaRefresh => "delta_refresh",
            Metric::ColdRefresh => "cold_refresh",
            Metric::StaleServed => "stale_served",
            Metric::StaticDenied => "static_denied",
            Metric::ReadsetEscape => "readset_escape",
        }
    }

    fn index(self) -> usize {
        METRICS.iter().position(|m| *m == self).expect("metric listed in METRICS")
    }
}

/// Upper bucket bounds for the fetch-latency histogram, in simulated
/// milliseconds; an implicit overflow bucket catches everything above.
pub const LATENCY_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

const BUCKETS: usize = LATENCY_BOUNDS_MS.len() + 1;

/// A fixed-bucket histogram over the *simulated* clock. Observations are
/// lock-free; like the counters, every cell is monotone.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, latency: Duration) {
        let ms = latency.as_millis() as u64;
        let slot = LATENCY_BOUNDS_MS.iter().position(|b| ms <= *b).unwrap_or(BUCKETS - 1);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Cumulative-free per-bucket counts, one per `LATENCY_BOUNDS_MS`
    /// entry plus the trailing overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum_us: u64,
}

impl HistogramSnapshot {
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; other.buckets.len()];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }
}

/// The shared registry: an atomic cell per [`Metric`] plus the fetch
/// latency histogram. `Sync` by construction, shared as
/// `Arc<MetricsRegistry>` exactly like `BudgetTracker`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; METRICS.len()],
    fetch_latency: Histogram,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn inc(&self, metric: Metric) {
        self.add(metric, 1);
    }

    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric.index()].fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric.index()].load(Ordering::Relaxed)
    }

    /// Record one fetch attempt's simulated latency.
    pub fn observe_fetch_latency(&self, latency: Duration) {
        self.fetch_latency.observe(latency);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = METRICS
            .iter()
            .map(|m| (m.name().to_string(), self.get(*m)))
            .collect::<BTreeMap<_, _>>();
        MetricsSnapshot { counters, fetch_latency: self.fetch_latency.snapshot() }
    }
}

/// A point-in-time, mergeable view of a registry. Keys are the stable
/// metric names; rendering is deterministic (BTreeMap order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub fetch_latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Counter value by [`Metric`]; zero when never incremented.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters.get(metric.name()).copied().unwrap_or(0)
    }

    /// Sum another snapshot into this one (all cells are additive).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        self.fetch_latency.merge(&other.fetch_latency);
    }

    /// True when nothing was ever counted.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0) && self.fetch_latency.count == 0
    }

    /// Human table: one `name  value` row per nonzero counter, then the
    /// latency histogram when it has observations.
    pub fn render(&self) -> String {
        let mut out = String::from("metrics:\n");
        let width = self.counters.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in &self.counters {
            if *value > 0 {
                let _ = writeln!(out, "  {name:width$}  {value}");
            }
        }
        if let Some(mean_us) = self.fetch_latency.sum_us.checked_div(self.fetch_latency.count) {
            let _ = writeln!(
                out,
                "  fetch latency: {} observations, mean {}.{:03}ms",
                self.fetch_latency.count,
                mean_us / 1000,
                mean_us % 1000
            );
            for (i, n) in self.fetch_latency.buckets.iter().enumerate() {
                if *n > 0 {
                    let bound = LATENCY_BOUNDS_MS
                        .get(i)
                        .map_or_else(|| "+inf".to_string(), |b| format!("<={b}ms"));
                    let _ = writeln!(out, "    {bound:>8}  {n}");
                }
            }
        }
        out
    }
}
