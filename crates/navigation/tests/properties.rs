//! Property-based tests for the navigation layer: recorder idempotence,
//! compile totality, and executor/ground-truth agreement across random
//! query parameters.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use webbase_navigation::compile::compile_map;
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::map::NavigationMap;
use webbase_navigation::recorder::Recorder;
use webbase_navigation::sessions;
use webbase_relational::Value;
use webbase_webworld::data::{Dataset, SiteSlice, MAKES};
use webbase_webworld::prelude::*;

struct Fixture {
    web: SyntheticWeb,
    data: Arc<Dataset>,
    maps: Vec<(String, NavigationMap)>,
}

/// Recording every site once is expensive; share one fixture across all
/// property cases (proptest shrinks inputs, not the fixture).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = Dataset::generate(7, 500);
        let web = standard_web(data.clone(), LatencyModel::zero());
        let maps = sessions::all_sessions(&data)
            .into_iter()
            .map(|(host, session)| {
                let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
                (host.to_string(), map)
            })
            .collect();
        Fixture { web, data, maps }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Navigation agrees with ground truth for any (make, model) pair on
    /// Newsday.
    #[test]
    fn newsday_matches_ground_truth(make_i in 0usize..10, model_i in 0usize..4, with_model in any::<bool>()) {
        let fix = fixture();
        let (make, models) = MAKES[make_i];
        let model = models[model_i % models.len()];
        let map = &fix.maps.iter().find(|(h, _)| h == "www.newsday.com").expect("mapped").1;
        let nav = SiteNavigator::new(fix.web.clone(), map.clone());
        let mut given = vec![("make".to_string(), Value::str(make))];
        if with_model {
            given.push(("model".to_string(), Value::str(model)));
        }
        let (records, _) = nav.run_relation("newsday", &given).expect("runs");
        let truth = fix.data.matching(
            SiteSlice::Newsday,
            Some(make),
            with_model.then_some(model),
        );
        prop_assert_eq!(records.len(), truth.len(), "make={} model={:?}", make, with_model.then_some(model));
    }

    /// Compilation is total over every recorded map and its output
    /// re-parses (Figure 4 is always well-formed).
    #[test]
    fn compiled_programs_reparse(site_i in 0usize..13) {
        let fix = fixture();
        let (_, map) = &fix.maps[site_i % fix.maps.len()];
        let compiled = compile_map(map).expect("a recorded map compiles");
        prop_assert!(compiled.program.rule_count() > 0);
        let text = webbase_flogic::pretty::program(&compiled.program);
        let reparsed = webbase_flogic::parser::parse_program(&text)
            .unwrap_or_else(|e| panic!("{}: {e}\n{text}", map.site));
        prop_assert_eq!(reparsed.rule_count(), compiled.program.rule_count());
    }

    /// Re-recording a session into an existing map is idempotent
    /// (nodes/edges never duplicate).
    #[test]
    fn recording_idempotent(site_i in 0usize..13) {
        let fix = fixture();
        let (host, once_map) = &fix.maps[site_i % fix.maps.len()];
        let session = sessions::all_sessions(&fix.data)
            .into_iter()
            .find(|(h, _)| h == host)
            .expect("session")
            .1;
        let doubled: Vec<_> = session.iter().cloned().chain(session.iter().cloned()).collect();
        let (twice_map, _) = Recorder::record(fix.web.clone(), host, &doubled).expect("records");
        prop_assert_eq!(twice_map.nodes.len(), once_map.nodes.len(), "{}", host);
        prop_assert_eq!(twice_map.edges.len(), once_map.edges.len(), "{}", host);
    }

    /// Kelly's blue-book navigation returns the generator's value for any
    /// (make, model, year, condition, pricetype).
    #[test]
    fn kellys_matches_generator(
        make_i in 0usize..10,
        model_i in 0usize..4,
        year in 1988u32..=1998,
        cond_i in 0usize..3,
        retail in any::<bool>(),
    ) {
        let fix = fixture();
        let (make, models) = MAKES[make_i];
        let model = models[model_i % models.len()];
        let condition = webbase_webworld::data::CONDITIONS[cond_i];
        let pricetype = if retail { "retail" } else { "trade-in" };
        let map = &fix.maps.iter().find(|(h, _)| h == "www.kbb.com").expect("mapped").1;
        let nav = SiteNavigator::new(fix.web.clone(), map.clone());
        let (records, _) = nav
            .run_relation(
                "kellys",
                &[
                    ("make".to_string(), Value::str(make)),
                    ("model".to_string(), Value::str(model)),
                    ("year".to_string(), Value::Int(year as i64)),
                    ("condition".to_string(), Value::str(condition)),
                    ("pricetype".to_string(), Value::str(pricetype)),
                ],
            )
            .expect("runs");
        prop_assert_eq!(records.len(), 1);
        let expected = webbase_webworld::data::blue_book_price_typed(
            make, model, year, condition, pricetype,
        );
        prop_assert_eq!(&records[0]["bbprice"], &Value::Int(expected as i64));
    }
}
