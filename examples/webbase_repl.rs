//! An interactive structured-UR shell — the "user interface that permits
//! a high degree of ad hoc querying by naive Web users" of §2, in its
//! plainest possible form.
//!
//! ```bash
//! cargo run --example webbase_repl
//! ```
//!
//! Commands:
//!
//! ```text
//! UsedCarUR(make='ford', model, price < 6000)   run a query
//! .attrs                                        list the UR attributes
//! .hierarchy                                    show Figure 5
//! .objects                                      show the maximal objects
//! .explain <query>                              plan without executing
//! .stats                                        pages fetched so far
//! .quit
//! ```

use std::io::{BufRead, Write};
use webbase::{LatencyModel, Webbase};
use webbase_ur::maximal::{maximal_objects, render_maximal};

fn main() {
    println!("building the used-car webbase…");
    let mut wb = Webbase::build_demo(42, 600, LatencyModel::lan());
    println!(
        "ready. {} sites mapped, {} UR attributes. Try:\n  \
         UsedCarUR(make='ford', model, year, price < 6000)\n  \
         (.attrs, .hierarchy, .objects, .explain <q>, .stats, .quit)\n",
        wb.maps().len(),
        wb.ur_attributes().len()
    );

    let stdin = std::io::stdin();
    loop {
        print!("UR> ");
        std::io::stdout().flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".attrs" => println!("{}\n", wb.ur_attributes().join(", ")),
            ".hierarchy" => {
                println!("{}", wb.planner().hierarchy.render(&wb.ur_attributes()));
            }
            ".objects" => {
                let objects = maximal_objects(&wb.planner().hierarchy, &wb.planner().rules);
                println!("{}{}", wb.planner().rules.render(), render_maximal(&objects));
            }
            ".stats" => {
                let s = &wb.layer.vps.stats;
                println!(
                    "pages fetched: {}   simulated network: {:?}   interpreter cpu: {:?}\n",
                    s.total_pages(),
                    s.total_network(),
                    s.total_cpu()
                );
            }
            _ if line.starts_with(".explain") => {
                let q = line.trim_start_matches(".explain").trim();
                match wb.explain(q) {
                    Ok(plan) => println!("{}", plan.render()),
                    Err(e) => println!("✗ {e}\n"),
                }
            }
            query => match wb.query(query) {
                Ok((result, plan)) => {
                    for obj in &plan.objects {
                        let names: Vec<&str> =
                            obj.alternatives.iter().map(String::as_str).collect();
                        println!("-- object {}", names.join(" ⋈ "));
                    }
                    println!("{}({} rows)\n", result.to_table(), result.len());
                }
                Err(e) => println!("✗ {e}\n"),
            },
        }
    }
    println!("bye.");
}
