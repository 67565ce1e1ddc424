//! Building a webbase for a **new application domain** with nothing but
//! the public API — apartments instead of used cars.
//!
//! ```bash
//! cargo run --example apartment_hunting
//! ```
//!
//! The paper (§6): "webbases will be designed for application domains
//! (such as cars, jobs, houses) by the experts in those domains, and
//! designing concept hierarchies and compatibility constraints is a
//! feasible task for them." This example is that expert's workflow, end
//! to end:
//!
//! 1. map two rental sites by example;
//! 2. let the VPS derive the handles;
//! 3. define the logical relations;
//! 4. define the concept hierarchy;
//! 5. ask for apartments renting *below the fair-rent guideline* —
//!    the apartment-domain twin of the jaguar-under-blue-book query.

use std::sync::Arc;
use webbase_logical::{LogicalLayer, LogicalRelation};
use webbase_navigation::extractor::{CellParse, ExtractionSpec, FieldSpec};
use webbase_navigation::recorder::{DesignerAction, Recorder};
use webbase_relational::prelude::*;
use webbase_ur::compat::CompatRules;
use webbase_ur::hierarchy::{Alternative, ChoiceGroup, Hierarchy};
use webbase_ur::plan::UrPlanner;
use webbase_ur::query::parse_query;
use webbase_vps::VpsCatalog;
use webbase_webworld::prelude::*;
use webbase_webworld::sites::{AptListings, AptMarket, RentGuide};

fn main() {
    // ── 0. The (simulated) raw Web of the new domain. ────────────────
    let market = AptMarket::generate(42, 150);
    let web = SyntheticWeb::builder()
        .site(AptListings::new(market.clone()))
        .site(RentGuide::new())
        .latency(LatencyModel::lan())
        .build();

    // ── 1. Mapping by example: the designer browses each site once. ──
    let listings_session = vec![
        DesignerAction::Goto("http://www.aptlistings.com/".into()),
        DesignerAction::SubmitForm {
            action: "/cgi-bin/find".into(),
            values: vec![("borough".into(), "brooklyn".into())],
        },
        DesignerAction::MarkDataPage {
            relation: "aptListings".into(),
            spec: ExtractionSpec::Table {
                fields: vec![
                    FieldSpec::new("Borough", "borough", CellParse::Text),
                    FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                    FieldSpec::new("Rent", "rent", CellParse::Number),
                    FieldSpec::new("Contact", "contact", CellParse::Text),
                ],
            },
        },
        DesignerAction::FollowLink("More".into()),
    ];
    let guide_session = vec![
        DesignerAction::Goto("http://www.rentguide.com/".into()),
        DesignerAction::SubmitForm {
            action: "/cgi-bin/guide".into(),
            values: vec![("borough".into(), "queens".into()), ("beds".into(), "1".into())],
        },
        DesignerAction::MarkDataPage {
            relation: "rentGuide".into(),
            spec: ExtractionSpec::Table {
                fields: vec![
                    FieldSpec::new("Borough", "borough", CellParse::Text),
                    FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                    FieldSpec::new("Fair Rent", "fairrent", CellParse::Number),
                ],
            },
        },
    ];

    // The domain expert supplies the domain's attribute vocabulary —
    // the recorder's default standardiser knows cars, not apartments.
    // One manual mapping (beds → bedrooms) covers both sites' forms.
    let standardizer = || {
        let mut s = webbase_relational::standardize::Standardizer::new([
            "borough", "bedrooms", "rent", "contact", "fairrent",
        ]);
        s.map("beds", "bedrooms");
        s
    };

    let mut catalog = VpsCatalog::new();
    for (host, session) in
        [("www.aptlistings.com", listings_session), ("www.rentguide.com", guide_session)]
    {
        let mut recorder = Recorder::with_standardizer(web.clone(), host, standardizer());
        for action in &session {
            recorder.apply(action).expect("designer action applies");
        }
        let (map, stats) = recorder.finish();
        println!(
            "mapped {host}: {} objects, {} attrs, {} manual facts, {} auto-standardised",
            stats.objects, stats.attributes, stats.manual_facts, stats.auto_standardized
        );
        catalog.add_map(web.clone(), map);
    }
    println!("\n{}", catalog.shape().render_table1());
    println!("{}", catalog.shape().render_table3());

    // ── 2./3. The logical layer (trivial here: one relation per site). ─
    let relations = vec![
        LogicalRelation::new(
            "listings",
            Expr::relation("aptListings").project(["borough", "bedrooms", "rent", "contact"]),
        ),
        LogicalRelation::new(
            "guidelines",
            Expr::relation("rentGuide").project(["borough", "bedrooms", "fairrent"]),
        ),
    ];
    let mut layer = LogicalLayer::new(catalog, relations);
    println!("{}", layer.binding_report());

    // ── 4. The external schema: a two-concept hierarchy, no traps. ───
    let hierarchy = Hierarchy {
        ur_name: "AptUR".into(),
        groups: vec![
            ChoiceGroup {
                name: "Listings".into(),
                alternatives: vec![Alternative::new("Listings", "listings")],
            },
            ChoiceGroup {
                name: "FairRent".into(),
                alternatives: vec![Alternative::new("FairRent", "guidelines")],
            },
        ],
    };
    let planner = UrPlanner::new(hierarchy, CompatRules::default());

    // ── 5. Ad hoc queries against AptUR. ─────────────────────────────
    for text in [
        "AptUR(borough='brooklyn', bedrooms=2, rent, contact) WHERE rent < fairrent",
        "AptUR(borough='manhattan', bedrooms=1, rent, fairrent)",
    ] {
        println!("── {text}\n");
        let q = parse_query(text).expect("parses");
        match planner.execute(&q, &mut layer) {
            Ok((result, plan)) => {
                print!("{}", plan.render());
                println!("{}", result.to_table());
            }
            Err(e) => println!("✗ {e}"),
        }
    }

    // Sanity against ground truth, so the example doubles as a check.
    let q =
        parse_query("AptUR(borough='brooklyn', bedrooms=2, rent, contact) WHERE rent < fairrent")
            .expect("parses");
    let (result, _) = planner.execute(&q, &mut layer).expect("runs");
    let expected = expected_bargains(&market, "brooklyn", 2);
    assert_eq!(result.len(), expected, "webbase disagrees with ground truth");
    println!("ground-truth check: {} bargain(s) ✓", result.len());
}

fn expected_bargains(market: &Arc<AptMarket>, borough: &str, beds: u32) -> usize {
    use std::collections::BTreeSet;
    let guide = webbase_webworld::sites::apartments::fair_rent(borough, beds);
    market
        .matching(Some(borough), Some(beds))
        .into_iter()
        .filter(|a| a.rent < guide)
        .map(|a| (a.rent, a.contact.clone()))
        .collect::<BTreeSet<_>>()
        .len()
}
