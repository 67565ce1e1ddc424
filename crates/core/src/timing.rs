//! The §7 timing experiments.
//!
//! "To give an idea of the complexity of the sites and query execution
//! times, below we show the number of pages navigated and (some of the
//! best) evaluation times for the query SELECT make,model,year,price
//! WHERE make=ford AND model=escort over 10 car-related sites."
//!
//! [`serial_timing`] regenerates that table over the simulated sites:
//! per site, the pages navigated, the interpreter CPU time, and the
//! elapsed time (CPU + the simulated 1999 network). [`parallel_timing`]
//! runs the same per-site queries on threads — the experiment behind the
//! paper's conclusion that "parallelization of query evaluation is
//! crucial for obtaining acceptable response times".

use crate::webbase::Webbase;
use std::sync::Arc;
use std::time::Duration;
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::map::NavigationMap;
use webbase_navigation::{
    BudgetSnapshot, BudgetTracker, DegradationReport, MetricsRegistry, MetricsSnapshot, Obs,
    QueryBudget, RepairReport,
};
use webbase_relational::Value;
use webbase_webworld::prelude::*;

/// One row of the timing table.
#[derive(Debug, Clone)]
pub struct SiteTiming {
    pub site: String,
    pub relation: String,
    pub pages: u32,
    pub tuples: usize,
    pub cpu: Duration,
    /// cpu + simulated network: the "elapsed time" column.
    pub elapsed: Duration,
    /// What this site's run endured (retries, timeouts, breaker state).
    /// Clean on a healthy web.
    pub degradation: DegradationReport,
    /// What self-healing did during this site's run. Clean on an
    /// undrifted web.
    pub repairs: RepairReport,
    /// This run's counters and fetch-latency histogram (each navigator
    /// carries its own registry, so rows merge without double counting).
    pub metrics: MetricsSnapshot,
}

/// Serial vs parallel wall-clock comparison.
#[derive(Debug, Clone)]
pub struct TimingComparison {
    pub serial_wall: Duration,
    pub parallel_wall: Duration,
    pub rows: Vec<SiteTiming>,
}

impl TimingComparison {
    pub fn speedup(&self) -> f64 {
        self.serial_wall.as_secs_f64() / self.parallel_wall.as_secs_f64().max(1e-9)
    }
}

/// The (host, relation) pairs of the §7 table, in the paper's row order.
pub fn timing_relations() -> Vec<(&'static str, &'static str)> {
    vec![
        ("www.autoweb.com", "autoWeb"),
        ("www.wwwheels.com", "wwwheels"),
        ("www.nytimes.com", "nyTimes"),
        ("www.carreviews.com", "carReviews"),
        ("www.nydailynews.com", "nyDaily"),
        ("www.caranddriver.com", "carAndDriver"),
        ("www.autoconnect.com", "autoConnect"),
        ("www.newsday.com", "newsday"),
        ("autos.yahoo.com", "yahooCars"),
        ("www.kbb.com", "kellys"),
    ]
}

/// The query parameters each site receives: `make=ford AND model=escort`
/// (plus the attributes our extended Kelly's insists on).
fn given_for(relation: &str, make: &str, model: &str) -> Vec<(String, Value)> {
    let mut given =
        vec![("make".to_string(), Value::str(make)), ("model".to_string(), Value::str(model))];
    if relation == "kellys" {
        given.push(("condition".to_string(), Value::str("good")));
        given.push(("pricetype".to_string(), Value::str("retail")));
    }
    given
}

/// Run one site's query with a fresh navigator (its own browser cache),
/// so per-site page counts are independent. Under a shared tracker the
/// navigator is still fresh; only the tracker is shared, which is how
/// the timing experiments observe cross-site quota contention.
fn run_one(
    web: &SyntheticWeb,
    map: &NavigationMap,
    relation: &str,
    make: &str,
    model: &str,
    budget: Option<&Arc<BudgetTracker>>,
) -> SiteTiming {
    let nav = SiteNavigator::new(web.clone(), map.clone());
    nav.set_budget(budget.cloned());
    let registry = Arc::new(MetricsRegistry::new());
    nav.set_obs(Obs::metrics_only(registry.clone()));
    let given = given_for(relation, make, model);
    let (records, stats) = nav
        .run_relation(relation, &given)
        .unwrap_or_else(|e| panic!("timing query on {relation} failed: {e}"));
    if let Some(tracker) = budget {
        tracker.mark_served(&map.site);
    }
    SiteTiming {
        site: map.site.clone(),
        relation: relation.to_string(),
        pages: stats.pages_fetched,
        tuples: records.len(),
        cpu: stats.cpu,
        elapsed: stats.cpu + stats.network,
        // The navigator is fresh, so its cumulative reports are exactly
        // this run's.
        degradation: nav.degradation(),
        repairs: nav.repair_report(),
        metrics: registry.snapshot(),
    }
}

/// One tracker for `budget`, shared by every site of the table, with
/// every timing site registered up front.
fn shared_tracker(budget: Option<QueryBudget>) -> Option<Arc<BudgetTracker>> {
    budget.map(|budget| {
        let tracker = Arc::new(BudgetTracker::new(budget));
        for (host, _) in timing_relations() {
            tracker.register_site(host);
        }
        tracker
    })
}

/// Fold one per-row report into its merged whole — the shape shared by
/// degradation and repair merging (rows come from independent
/// per-site navigators, so the merge is the whole story, serial or
/// parallel).
fn merged<T: Default>(
    rows: &[SiteTiming],
    project: impl Fn(&SiteTiming) -> &T,
    fold: impl Fn(&mut T, &T),
) -> T {
    let mut out = T::default();
    for r in rows {
        fold(&mut out, project(r));
    }
    out
}

/// Merge the per-row degradation reports of a timing run.
pub fn merged_degradation(rows: &[SiteTiming]) -> DegradationReport {
    merged(rows, |r| &r.degradation, DegradationReport::merge)
}

/// Merge the per-row repair reports of a timing run (same shape as
/// [`merged_degradation`]).
pub fn merged_repairs(rows: &[SiteTiming]) -> RepairReport {
    merged(rows, |r| &r.repairs, RepairReport::merge)
}

/// The §7 table: the query against each site in turn. Under `budget`
/// every site draws on one shared tracker — the same deadline and fetch
/// quotas — and the returned snapshot shows exactly where the budget
/// went (and which sites were denied).
pub fn serial_timing(
    wb: &Webbase,
    make: &str,
    model: &str,
    budget: Option<QueryBudget>,
) -> (Vec<SiteTiming>, Option<BudgetSnapshot>) {
    let tracker = shared_tracker(budget);
    let rows = timing_relations()
        .into_iter()
        .map(|(host, relation)| {
            let map = wb.map_for(host).expect("demo webbase maps every timing site");
            run_one(wb.web(), map, relation, make, model, tracker.as_ref())
        })
        .collect();
    (rows, tracker.map(|t| t.snapshot()))
}

/// The same queries, one thread per site (crossbeam scoped threads —
/// each thread compiles its own navigator; the simulated Web is shared).
/// A budget's tracker is the only state the site threads share: quota
/// admission is atomic across them, so the global quota holds even
/// under concurrency.
pub fn parallel_timing(
    wb: &Webbase,
    make: &str,
    model: &str,
    budget: Option<QueryBudget>,
) -> (Vec<SiteTiming>, Option<BudgetSnapshot>) {
    let tracker = shared_tracker(budget);
    let (web, tracker_ref) = (wb.web(), tracker.as_ref());
    let rows = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = timing_relations()
            .into_iter()
            .map(|(host, relation)| {
                let map = wb.map_for(host).expect("demo webbase maps every timing site");
                scope.spawn(move |_| run_one(web, map, relation, make, model, tracker_ref))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("site query thread panicked")).collect()
    })
    .expect("crossbeam scope");
    (rows, tracker.map(|t| t.snapshot()))
}

/// Run both and compare wall-clocks. The *simulated* wall-clock of the
/// serial run is the sum of per-site elapsed; of the parallel run, the
/// maximum (sites proceed concurrently).
pub fn compare(wb: &Webbase, make: &str, model: &str) -> TimingComparison {
    let (rows, _) = serial_timing(wb, make, model, None);
    let serial_wall: Duration = rows.iter().map(|r| r.elapsed).sum();
    let (parallel_rows, _) = parallel_timing(wb, make, model, None);
    let parallel_wall: Duration = parallel_rows.iter().map(|r| r.elapsed).max().unwrap_or_default();
    TimingComparison { serial_wall, parallel_wall, rows }
}

/// Render the §7 table.
pub fn render_table(rows: &[SiteTiming]) -> String {
    let mut out =
        String::from("Site                     # of pages   tuples   cpu (ms)   elapsed (ms)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>10.1} {:>14.1}\n",
            r.site,
            r.pages,
            r.tuples,
            r.cpu.as_secs_f64() * 1e3,
            r.elapsed.as_secs_f64() * 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Webbase {
        Webbase::build_demo(5, 600, LatencyModel::dialup_1999())
    }

    #[test]
    fn timing_table_shape() {
        let wb = demo();
        let (rows, snap) = serial_timing(&wb, "ford", "escort", None);
        assert!(snap.is_none(), "an unbudgeted table tracks no spend");
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.pages > 0, "{}: no pages", r.site);
            assert!(r.elapsed > r.cpu, "{}: elapsed includes network", r.site);
        }
        // The paper's shape: WWWheels (huge slice, tiny pages, make-only
        // form) navigates the most pages; single-quote sites the least.
        let wwwheels = rows.iter().find(|r| r.site == "www.wwwheels.com").expect("row");
        for other in &rows {
            if other.site != wwwheels.site {
                assert!(
                    wwwheels.pages >= other.pages,
                    "wwwheels should dominate: {} vs {} ({})",
                    wwwheels.pages,
                    other.pages,
                    other.site
                );
            }
        }
        let txt = render_table(&rows);
        assert!(txt.lines().count() == 11);
        // A healthy web degrades nothing.
        let merged = merged_degradation(&rows);
        assert!(merged.is_clean(), "{}", merged.render());
    }

    #[test]
    fn parallel_matches_serial_results() {
        let wb = demo();
        let (serial, _) = serial_timing(&wb, "ford", "escort", None);
        let (parallel, _) = parallel_timing(&wb, "ford", "escort", None);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.site, p.site);
            assert_eq!(s.tuples, p.tuples, "{}: tuple counts differ", s.site);
            assert_eq!(s.pages, p.pages, "{}: page counts differ", s.site);
        }
    }

    #[test]
    fn fair_share_budget_spreads_pages_across_sites() {
        let wb = demo();
        // 10 sites, quota 20, fair share on: every site's floor of 2 is
        // reserved, so nobody starves.
        let budget = QueryBudget::unlimited().with_fetch_quota(20).with_fair_share(true);
        let (rows, snap) = serial_timing(&wb, "ford", "escort", Some(budget));
        let snap = snap.expect("a budgeted table snapshots its spend");
        assert!(rows.iter().all(|r| r.pages >= 1), "{}", render_table(&rows));
        assert_eq!(snap.fetches, 20, "the whole quota is spent");
        assert!(snap.exhausted.is_some());
        // Same quota without fair share: the sites early in the row
        // order drain it and the tail gets nothing.
        let (rows, snap) = serial_timing(
            &wb,
            "ford",
            "escort",
            Some(QueryBudget::unlimited().with_fetch_quota(20)),
        );
        assert!(snap.expect("snapshot").fetches <= 20);
        assert_eq!(
            rows.last().expect("rows").pages,
            0,
            "without fair share the last site must starve:\n{}",
            render_table(&rows)
        );
    }

    #[test]
    fn parallel_budget_is_shared_across_threads() {
        let wb = demo();
        let (rows, snap) = parallel_timing(
            &wb,
            "ford",
            "escort",
            Some(QueryBudget::unlimited().with_fetch_quota(15)),
        );
        let snap = snap.expect("a budgeted table snapshots its spend");
        assert!(snap.fetches <= 15, "admission is atomic across site threads");
        let total: u32 = rows.iter().map(|r| r.pages).sum();
        assert!(total <= 15, "page spend bounded by the shared quota, got {total}");
        assert!(snap.exhausted.is_some(), "ten sites cannot fit in 15 fetches");
    }

    #[test]
    fn parallelisation_wins_on_simulated_wall_clock() {
        let wb = demo();
        let cmp = compare(&wb, "ford", "escort");
        assert!(
            cmp.parallel_wall < cmp.serial_wall,
            "parallel {:?} !< serial {:?}",
            cmp.parallel_wall,
            cmp.serial_wall
        );
        // The speedup is bounded by the slowest site (WWWheels dominates
        // — Amdahl), so it is well short of 10×, but must be real.
        assert!(cmp.speedup() > 1.2, "speedup {}", cmp.speedup());
    }
}
