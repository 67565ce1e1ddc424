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
//! to end. The expert writes the domain down once, as
//! `webbase::Corpus::apartments`:
//!
//! 1. a designer session that maps each of two rental sites by example;
//! 2. the logical relations;
//! 3. the concept hierarchy.
//!
//! The engine replays the sessions, lets the VPS derive the handles,
//! and wires the layers. Then the example asks for apartments renting
//! *below the fair-rent guideline* — the apartment-domain twin of the
//! jaguar-under-blue-book query.

use std::sync::Arc;
use webbase::{Corpus, Engine, EngineConfig, QueryOptions};
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

    // ── 1.–3. Mapping by example, then the layers above the maps. ───
    let engine = Engine::build_corpus(web, Corpus::apartments(), EngineConfig::default())
        .expect("designer sessions replay");
    for (host, stats) in &engine.report().sites {
        println!(
            "mapped {host}: {} objects, {} attrs, {} manual facts, {} auto-standardised",
            stats.objects, stats.attributes, stats.manual_facts, stats.auto_standardized
        );
    }
    let (layer, _) = engine.session(true);
    println!("\n{}", layer.vps.shape().render_table1());
    println!("{}", layer.vps.shape().render_table3());
    println!("{}", layer.binding_report());

    // ── Ad hoc queries against AptUR. ────────────────────────────────
    let bargains = "AptUR(borough='brooklyn', bedrooms=2, rent, contact) WHERE rent < fairrent";
    for text in [bargains, "AptUR(borough='manhattan', bedrooms=1, rent, fairrent)"] {
        println!("── {text}\n");
        match engine.query("expert", text, QueryOptions::default()) {
            Ok(outcome) => {
                print!("{}", outcome.plan.render());
                println!("{}", outcome.relation.to_table());
            }
            Err(e) => println!("✗ {e}"),
        }
    }

    // Sanity against ground truth, so the example doubles as a check.
    let result = engine.query("expert", bargains, QueryOptions::default()).expect("runs").relation;
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
