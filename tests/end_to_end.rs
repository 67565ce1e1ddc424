//! Cross-crate integration tests: the full pipeline from designer
//! session to UR answers, checked against the dataset's ground truth.

use std::sync::Arc;
use webbase::{LatencyModel, Webbase};
use webbase_relational::eval::RelationProvider;
use webbase_relational::prelude::*;
use webbase_webworld::data::{
    blue_book_price_typed, insurance_cost, safety_rating, Dataset, SiteSlice,
};

fn demo() -> Webbase {
    Webbase::build_demo(11, 600, LatencyModel::lan())
}

/// Ads for a make across the slices the `classifieds` logical relation
/// covers.
fn classifieds_truth(data: &Arc<Dataset>, make: &str) -> usize {
    [SiteSlice::Newsday, SiteSlice::NyTimes, SiteSlice::NewYorkDaily]
        .iter()
        .map(|s| data.matching(*s, Some(make), None).len())
        .sum()
}

#[test]
fn classifieds_collects_every_ground_truth_ad() {
    let mut wb = demo();
    let data = wb.data().clone();
    for make in ["ford", "jaguar", "volvo"] {
        let rel = wb
            .layer
            .fetch("classifieds", &AccessSpec::new().with("make", make))
            .expect("classifieds fetch");
        assert_eq!(
            rel.len(),
            classifieds_truth(&data, make),
            "classifieds({make}) disagrees with ground truth"
        );
    }
}

#[test]
fn ur_query_price_below_book_matches_ground_truth() {
    let mut wb = demo();
    let data = wb.data().clone();
    let (result, _) = wb
        .query(
            "UsedCarUR(make='bmw', model, year, price, bbprice, condition='good') \
             WHERE price < bbprice",
        )
        .expect("query runs");
    // Ground truth over classifieds + dealers slices, deduped by the
    // projected attributes (set semantics).
    let mut expected = std::collections::BTreeSet::new();
    for slice in [
        SiteSlice::Newsday,
        SiteSlice::NyTimes,
        SiteSlice::NewYorkDaily,
        SiteSlice::CarPoint,
        SiteSlice::AutoWeb,
    ] {
        for ad in data.matching(slice, Some("bmw"), None) {
            // Kelly's v1 form only offers model years 1988–1998 (the
            // 1999 option arrives with the versioned web), so 1999 ads
            // cannot be priced and never join with blue_price.
            if ad.year > 1998 {
                continue;
            }
            let bb = blue_book_price_typed(&ad.make, &ad.model, ad.year, "good", "retail");
            if ad.price < bb {
                expected.insert((ad.model.clone(), ad.year, ad.price, bb));
            }
        }
    }
    assert_eq!(result.len(), expected.len());
}

#[test]
fn safety_and_insurance_attributes_agree_with_generators() {
    let mut wb = demo();
    let (result, _) = wb
        .query("UsedCarUR(make='saab', model='900', year, safety, cost, condition='good')")
        .expect("query runs");
    assert!(!result.is_empty());
    let yi = result.schema().index_of(&"year".into()).expect("year");
    let si = result.schema().index_of(&"safety".into()).expect("safety");
    let ci = result.schema().index_of(&"cost".into()).expect("cost");
    for t in result.tuples() {
        let year = t.get(yi).as_int().expect("year int") as u32;
        assert_eq!(
            t.get(si),
            &Value::str(safety_rating("saab", "900", year)),
            "safety generator mismatch"
        );
        // cost is full or liability depending on the object — either is a
        // valid generator output.
        let cost = t.get(ci).as_int().expect("cost int") as u32;
        assert!(
            cost == insurance_cost("saab", "900", year, "full")
                || cost == insurance_cost("saab", "900", year, "liability"),
            "insurance generator mismatch: {cost}"
        );
    }
}

#[test]
fn scoped_constants_do_not_leak_across_roles() {
    // The unique-role regression: zip belongs to the finance concept; a
    // dealer's own zip (projected away in the logical view) must not be
    // filtered by it.
    let mut wb = demo();
    // Both queries restrict to 1993+ (the finance site only quotes cars
    // it knows, ≥ 1993) so the only difference is the rate join itself.
    let with_zip = wb
        .query(
            "UsedCarUR(make='toyota', model='camry', year >= 1993, price, rate, \
             zip='10001', duration=36)",
        )
        .expect("query runs");
    let without_rate = wb
        .query("UsedCarUR(make='toyota', model='camry', year >= 1993, price)")
        .expect("query runs");
    // Every camry ad appears in both: compare the distinct (year, price)
    // pairs. (Row counts differ legitimately — the rate query unions the
    // Loan and Lease objects, which quote different rates per ad.)
    let pairs = |rel: &Relation| -> std::collections::BTreeSet<(i64, i64)> {
        let yi = rel.schema().index_of(&"year".into()).expect("year");
        let pi = rel.schema().index_of(&"price".into()).expect("price");
        rel.tuples()
            .iter()
            .map(|t| (t.get(yi).as_int().expect("year"), t.get(pi).as_int().expect("price")))
            .collect()
    };
    assert_eq!(pairs(&with_zip.0), pairs(&without_rate.0));
}

#[test]
fn relaxed_union_returns_partial_answers() {
    use webbase_logical::{paper_schema, LogicalLayer};
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::{sessions, FetchPolicy, PageStore};
    use webbase_vps::{CatalogShape, VpsCatalog};
    use webbase_webworld::prelude::*;

    // Build a layer whose `classifieds` union has one un-invocable side:
    // record only the Newsday map, then define classifieds over newsday ∪
    // nyTimes (nyTimes unmapped → unknown relation → strict union fails).
    let data = Dataset::generate(11, 300);
    let web = standard_web(data.clone(), LatencyModel::lan());
    let mut shape = CatalogShape::new(FetchPolicy::default_policy());
    let (map, _) = Recorder::record(web.clone(), "www.newsday.com", &sessions::newsday(&data))
        .expect("records");
    shape.add_map(web, map).expect("a recorded map compiles");
    let cat = VpsCatalog::over(Arc::new(shape), PageStore::new(), None);
    let layer = LogicalLayer::new(cat, paper_schema());

    let mut strict = layer;
    let err = strict.fetch("classifieds", &AccessSpec::new().with("make", "ford"));
    assert!(err.is_err(), "strict union must fail with unmapped sides");

    let mut relaxed = strict.with_relaxed_union(true);
    let rel = relaxed
        .fetch("classifieds", &AccessSpec::new().with("make", "ford"))
        .expect("relaxed union yields partial answers");
    assert_eq!(rel.len(), data.matching(SiteSlice::Newsday, Some("ford"), None).len());
}

#[test]
fn deterministic_across_rebuilds() {
    let mut a = Webbase::build_demo(3, 300, LatencyModel::lan());
    let mut b = Webbase::build_demo(3, 300, LatencyModel::lan());
    let q = "UsedCarUR(make='dodge', model, year, price)";
    let (ra, _) = a.query(q).expect("a runs");
    let (rb, _) = b.query(q).expect("b runs");
    assert_eq!(ra, rb);
}

#[test]
fn figure_renderings_are_consistent() {
    let wb = demo();
    // Table 1 names every VPS relation the maps registered.
    let t1 = wb.layer.vps.shape().render_table1();
    for rel in wb.layer.vps.shape().relations() {
        assert!(t1.contains(rel), "table 1 missing {rel}");
    }
    // Figure 2 map renders with the Figure 4 program re-parseable.
    let map = wb.map_for("www.newsday.com").expect("mapped");
    assert!(map.render_dot().starts_with("digraph"));
    let nav = webbase_navigation::executor::SiteNavigator::new(wb.web().clone(), map.clone());
    webbase_flogic::parser::parse_program(&nav.render_program())
        .expect("figure 4 output must re-parse");
    // Figure 5 + compatibility rules render.
    let fig5 = wb.planner().hierarchy.render(&wb.ur_attributes());
    assert!(fig5.contains("UsedCarUR("));
    assert!(wb.planner().rules.render().contains("Lease"));
}

#[test]
fn second_domain_builds_through_public_api() {
    // The apartment-hunting example, as a checked integration test: the
    // library is a framework, not a car-shaped demo.
    use webbase::{Corpus, Engine, EngineConfig, QueryOptions};
    use webbase_webworld::prelude::*;
    use webbase_webworld::sites::apartments::{fair_rent, AptListings, AptMarket, RentGuide};

    let market = AptMarket::generate(11, 150);
    let web = SyntheticWeb::builder()
        .site(AptListings::new(market.clone()))
        .site(RentGuide::new())
        .latency(LatencyModel::zero())
        .build();
    let engine = Engine::build_corpus(web, Corpus::apartments(), EngineConfig::default())
        .expect("the apartment sessions replay");

    for borough in ["brooklyn", "manhattan", "bronx"] {
        for beds in 0..=3u32 {
            let text = format!(
                "AptUR(borough='{borough}', bedrooms={beds}, rent, contact) \
                 WHERE rent < fairrent"
            );
            let result = engine.query("t", &text, QueryOptions::default()).expect("runs").relation;
            let guide = fair_rent(borough, beds);
            let expected: std::collections::BTreeSet<(u32, String)> = market
                .matching(Some(borough), Some(beds))
                .into_iter()
                .filter(|a| a.rent < guide)
                .map(|a| (a.rent, a.contact.clone()))
                .collect();
            assert_eq!(
                result.len(),
                expected.len(),
                "{borough}/{beds}: webbase disagrees with ground truth"
            );
        }
    }
}
