//! Quickstart: build the paper's used-car webbase and run the §1 query.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! This stands up the simulated 1999 Web (thirteen car-domain sites),
//! replays the designer's mapping-by-example sessions, wires the three
//! layers, and runs the paper's opening example: *"make a list of used
//! Jaguars advertised in New York City area, such that each car is a
//! 1993 or later model, has good safety ratings, and its selling price
//! is less than its Blue Book value."*

use webbase::{LatencyModel, Webbase};

fn main() {
    println!("Building the used-car webbase (simulated Web, 13 sites)…\n");
    let mut wb = Webbase::build_demo(42, 600, LatencyModel::lan());
    println!("{}", wb.report().render());

    let query = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                 safety='good', condition='good') WHERE price < bbprice";
    println!("Query:\n  {query}\n");

    let plan = wb.explain(query).expect("query plans");
    println!("{}", plan.render());

    let (result, _) = wb.query(query).expect("query runs");
    println!("Answers ({} rows):\n{}", result.len(), result.to_table());

    let stats = &wb.layer.vps.stats;
    println!(
        "Pages fetched while answering: {} (simulated network {:?}, cpu {:?})",
        stats.total_pages(),
        stats.total_network(),
        stats.total_cpu()
    );
}
