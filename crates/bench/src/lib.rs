//! # webbase-bench
//!
//! Benchmarks and the experiment-reproduction harness.
//!
//! * `src/bin/repro.rs` — the `repro` binary regenerates **every table
//!   and figure** of the paper (Tables 1–3, Figures 1–5, Example 6.2,
//!   the §5 binding example, and the §7 experiment tables). Run
//!   `cargo run -p webbase-bench --bin repro -- --all`.
//! * `benches/` — Criterion benchmarks, one per experiment/ablation:
//!   `site_query` (§7 timing table), `map_builder` (§7 statistics),
//!   `parallel_eval` (§9 parallelisation), `caching` (fetch-cache
//!   ablation), `binding` (§5 propagation), `join_ordering`
//!   (exact-vs-greedy ablation), `ur_maximal` (§6 maximal objects),
//!   `html_parse` (well-formed vs faulty pages), `flogic_engine`
//!   (interpreter micro-benchmarks).
//!
//! Shared fixtures live here so benches and the repro binary agree on
//! the workload.

use std::sync::Arc;
use webbase::{LatencyModel, Webbase};
use webbase_webworld::data::Dataset;

/// The standard benchmark dataset seed.
pub const BENCH_SEED: u64 = 42;
/// The standard benchmark market size.
pub const BENCH_ADS: usize = 1500;

/// The demo webbase every benchmark runs against (1999 network profile,
/// so elapsed-time columns resemble the paper's).
pub fn bench_webbase() -> Webbase {
    Webbase::build_demo(BENCH_SEED, BENCH_ADS, LatencyModel::dialup_1999())
}

/// A webbase over a near-zero-latency network (for CPU-bound benches).
pub fn lan_webbase() -> Webbase {
    Webbase::build_demo(BENCH_SEED, BENCH_ADS, LatencyModel::lan())
}

/// The benchmark dataset alone.
pub fn bench_dataset() -> Arc<Dataset> {
    Dataset::generate(BENCH_SEED, BENCH_ADS)
}

/// The apartment-domain webbase of `examples/apartment_hunting.rs`: an
/// engine over [`webbase::Corpus::apartments`], its two rental sites
/// mapped by replaying the corpus's designer sessions. Together with
/// the 13 car sites this brings the static-analysis gate (and the
/// soundness suites) to the full 15-site webworld.
pub fn apartment_stack(seed: u64) -> webbase::Engine {
    use webbase_webworld::prelude::SyntheticWeb;
    use webbase_webworld::sites::{AptListings, AptMarket, RentGuide};

    let market = AptMarket::generate(seed, 150);
    let web = SyntheticWeb::builder()
        .site(AptListings::new(market))
        .site(RentGuide::new())
        .latency(LatencyModel::lan())
        .build();
    let corpus = webbase::Corpus::apartments();
    webbase::Engine::build_corpus(web, corpus, webbase::EngineConfig::default())
        .expect("apartment stack records")
}

/// The host the drift harness mutates (NYTimes classifieds).
pub const DRIFT_HOST: &str = "www.nytimes.com";

/// How many scheduled mutations the drifting site carries. Each
/// generation prepends another `9` to every rendered price, so prices
/// stay numeric (12 extra digits keeps them inside `i64`), every
/// generation is answer-visible, and page markup/links never change.
pub const DRIFT_GENERATIONS: usize = 12;

/// The shared drift-storm schedule (see [`DRIFT_GENERATIONS`]).
pub fn drift_schedule() -> Vec<webbase_webworld::faults::Mutation> {
    (0..DRIFT_GENERATIONS)
        .map(|k| {
            webbase_webworld::faults::Mutation::new(
                &format!("${}", "9".repeat(k)),
                &format!("${}", "9".repeat(k + 1)),
            )
        })
        .collect()
}

/// The standard web with [`DRIFT_HOST`] wrapped in a
/// [`webbase_webworld::faults::MutatingSite`] carrying
/// [`drift_schedule`]. Mutations are inert at generation 0, so engines
/// record their maps against the healthy web; advance the returned
/// clock to drift.
pub fn drifting_web(
    data: Arc<Dataset>,
    latency: LatencyModel,
) -> (webbase_webworld::prelude::SyntheticWeb, webbase_webworld::faults::MutationClock) {
    use webbase_webworld::faults::MutatingSite;
    use webbase_webworld::server::Site;
    let slot = std::sync::Mutex::new(None);
    let web = webbase_webworld::prelude::standard_web_faulty(data, latency, |h, s| {
        if h == DRIFT_HOST {
            let (site, clock) = MutatingSite::new(s, drift_schedule());
            *slot.lock().expect("clock slot") = Some(clock);
            Box::new(site) as Box<dyn Site>
        } else {
            s
        }
    });
    let clock = slot.into_inner().expect("clock slot").expect("drift host wrapped");
    (web, clock)
}
