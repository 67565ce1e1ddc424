//! Shared fixture for the fault-injection integration suites
//! (`fault_matrix.rs`, `self_healing.rs`).
//!
//! Maps are recorded once against a healthy web and shipped (the
//! fact-map deployment mode); every faulty or drifted run reloads the
//! same maps, so the only difference between runs is the web's
//! behaviour. The dataset seed comes from `WEBBASE_TEST_SEED` (default
//! 11) so CI can sweep the suite across seeds.

use std::sync::{Arc, OnceLock};
use webbase::{LatencyModel, Webbase};
use webbase_relational::Relation;
use webbase_webworld::data::Dataset;
use webbase_webworld::prelude::*;
use webbase_webworld::server::Site;

/// The §1 jaguar query (good safety, priced under blue book).
#[allow(dead_code)]
pub const JAGUAR_QUERY: &str = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                                safety='good', condition='good') WHERE price < bbprice";

/// The §7 timing-table query.
#[allow(dead_code)]
pub const FORD_SELECT: &str = "SELECT make, model, year, price WHERE make=ford AND model=escort";

/// The dataset seed under test: `WEBBASE_TEST_SEED` or 11.
pub fn seed() -> u64 {
    std::env::var("WEBBASE_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

/// Generated-corpus scale for the differential battery: the suites run
/// `default` sites per seed unless `WEBBASE_GEN_SITES=<n>` opts into a
/// bigger (or smaller) corpus — e.g. `WEBBASE_GEN_SITES=100` stretches
/// the whole battery to a 100-site webworld.
#[allow(dead_code)]
pub fn gen_sites(default: usize) -> usize {
    std::env::var("WEBBASE_GEN_SITES").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The generated corpus under test: clean-knob sites at [`seed`],
/// scaled by [`gen_sites`].
#[allow(dead_code)]
pub fn gen_corpus(default_sites: usize) -> webbase_webworld::generate::GenCorpus {
    webbase_webworld::generate::GenCorpus::generate(seed(), gen_sites(default_sites))
}

#[allow(dead_code)]
pub fn fixture() -> &'static (Arc<Dataset>, Vec<String>) {
    static FIX: OnceLock<(Arc<Dataset>, Vec<String>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Webbase::build_demo(seed(), 400, LatencyModel::lan());
        (wb.data().clone(), wb.export_fact_maps())
    })
}

#[allow(dead_code)]
pub fn webbase_on(web: SyntheticWeb) -> Webbase {
    let (data, maps) = fixture();
    Webbase::build_from_fact_maps(web, data.clone(), maps).expect("fact maps reload")
}

#[allow(dead_code)]
pub fn healthy_webbase_at(latency: LatencyModel) -> Webbase {
    let (data, _) = fixture();
    webbase_on(standard_web(data.clone(), latency))
}

#[allow(dead_code)]
pub fn healthy_webbase() -> Webbase {
    healthy_webbase_at(LatencyModel::lan())
}

#[allow(dead_code)]
pub fn faulty_webbase_at(
    latency: LatencyModel,
    wrap: impl Fn(&str, Box<dyn Site>) -> Box<dyn Site>,
) -> Webbase {
    let (data, _) = fixture();
    webbase_on(standard_web_faulty(data.clone(), latency, wrap))
}

#[allow(dead_code)]
pub fn faulty_webbase(wrap: impl Fn(&str, Box<dyn Site>) -> Box<dyn Site>) -> Webbase {
    faulty_webbase_at(LatencyModel::lan(), wrap)
}

/// Every tuple of `partial` appears in `full` — degraded answers may be
/// fewer, never fabricated.
#[allow(dead_code)]
pub fn subset(partial: &Relation, full: &Relation) -> bool {
    partial.tuples().iter().all(|t| full.tuples().contains(t))
}
