//! Integration tests for the §7 experiments: map maintenance across
//! site versions, the timing table, and the map-builder statistics.

use webbase::timing::{self, serial_timing};
use webbase::{LatencyModel, Webbase};
use webbase_navigation::maintenance::check_map;
use webbase_navigation::recorder::Recorder;
use webbase_navigation::sessions;
use webbase_webworld::data::Dataset;
use webbase_webworld::sites::standard_web_versioned;

#[test]
fn map_builder_statistics_shape() {
    let wb = Webbase::build_demo(11, 600, LatencyModel::lan());
    // The §7 shape: Newsday is the biggest map, with a manual share
    // under 5%; every site stays in single-digit-ish manual territory.
    let newsday = wb
        .report()
        .sites
        .iter()
        .find(|(s, _)| s == "www.newsday.com")
        .map(|(_, st)| *st)
        .expect("newsday recorded");
    assert!(newsday.objects >= 35);
    assert!(newsday.attributes >= 150);
    // ~5% as the paper reports (exact value varies with the dataset seed
    // since the rare-make branch may add map objects).
    assert!(newsday.manual_ratio() < 0.06);
    for (site, st) in &wb.report().sites {
        assert!(st.manual_ratio() < 0.15, "{site}: {}", st.manual_ratio());
    }
}

#[test]
fn timing_table_reproduces_the_papers_shape() {
    let wb = Webbase::build_demo(11, 600, LatencyModel::dialup_1999());
    let (rows, _) = serial_timing(&wb, "ford", "escort", None);
    assert_eq!(rows.len(), 10);
    // Shape checks, not absolute numbers:
    // 1. Every site answers with at least one page fetched.
    for r in &rows {
        assert!(r.pages >= 1, "{}", r.site);
    }
    // 2. The page counts spread over an order of magnitude (13..103 in
    //    the paper).
    let min = rows.iter().map(|r| r.pages).min().expect("rows");
    let max = rows.iter().map(|r| r.pages).max().expect("rows");
    assert!(max >= 5 * min, "spread too small: {min}..{max}");
    // 3. Elapsed dominates CPU everywhere (fetching dominates, as the
    //    paper observes).
    for r in &rows {
        assert!(r.elapsed >= r.cpu);
    }
}

#[test]
fn parallel_evaluation_helps() {
    let wb = Webbase::build_demo(11, 600, LatencyModel::dialup_1999());
    let cmp = timing::compare(&wb, "ford", "escort");
    assert!(cmp.parallel_wall < cmp.serial_wall);
}

#[test]
fn maintenance_over_all_sites() {
    // Record every map on v1, check against v1 (clean) and v2 (the
    // documented evolutions; everything auto-applies).
    let data = Dataset::generate(11, 400);
    let web_v1 = standard_web_versioned(data.clone(), LatencyModel::lan(), 1);
    let web_v2 = standard_web_versioned(data.clone(), LatencyModel::lan(), 2);
    let mut total_changes = 0;
    for (host, session) in sessions::all_sessions(&data) {
        let (mut map, _) = Recorder::record(web_v1.clone(), host, &session).expect("records");
        let clean = check_map(web_v1.clone(), &mut map);
        assert!(clean.is_clean(), "{host} dirty against its own version: {:?}", clean.changes);
        let report = check_map(web_v2.clone(), &mut map);
        assert_eq!(report.manual_needed, 0, "{host}: {:?}", report.changes);
        total_changes += report.changes.len();
        // After auto-repair the map is clean against v2.
        let again = check_map(web_v2.clone(), &mut map);
        assert!(again.is_clean(), "{host} not repaired: {:?}", again.changes);
    }
    assert!(total_changes >= 4, "v2 must differ visibly (kellys + newsday)");
}

#[test]
fn repaired_map_still_answers_queries() {
    // The paper's Kelly's case end to end: record on v1, repair against
    // v2, and the 1999 model year becomes queryable.
    let data = Dataset::generate(11, 400);
    let web_v1 = standard_web_versioned(data.clone(), LatencyModel::lan(), 1);
    let web_v2 = standard_web_versioned(data.clone(), LatencyModel::lan(), 2);
    let (mut map, _) =
        Recorder::record(web_v1, "www.kbb.com", &sessions::kellys()).expect("records");
    check_map(web_v2.clone(), &mut map);
    let nav = webbase_navigation::executor::SiteNavigator::new(web_v2, map);
    use webbase_relational::Value;
    let (records, _) = nav
        .run_relation(
            "kellys",
            &[
                ("make".to_string(), Value::str("ford")),
                ("model".to_string(), Value::str("escort")),
                ("condition".to_string(), Value::str("good")),
                ("pricetype".to_string(), Value::str("retail")),
                ("year".to_string(), Value::Int(1999)),
            ],
        )
        .expect("runs");
    assert_eq!(records.len(), 1, "1999 values reachable after repair");
}
