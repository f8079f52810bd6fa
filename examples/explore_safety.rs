//! §5 partial safety ordering, end to end: generate the Figure 6 space
//! (on a reduced strategy set for speed), measure each configuration,
//! build the poset, prune under a budget, and print the stars.
//!
//! ```sh
//! cargo run --example explore_safety [budget_req_per_sec]
//! ```

use flexos::prelude::*;
use flexos_bench::fig6_poset;
use flexos_explore::prune_and_star;
use flexos_sweep::{engine, SpaceSpec};

fn main() -> Result<(), Fault> {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800_000.0);

    // Measure a 32-point slice of the space (strategies A+B, all
    // hardening masks) to keep the example quick.
    let spec = SpaceSpec::fig6("redis", 5, 30);
    let slice = 32;
    println!("measuring {slice} configurations...");
    let mut measured = Vec::new();
    for i in 0..slice {
        let perf = engine::run_point(&spec, i)?.ops_per_sec;
        measured.push((spec.point(i), perf));
    }

    let poset = fig6_poset(&measured);
    poset.check_axioms().expect("sound partial order");
    let report = prune_and_star(&poset, budget);

    println!(
        "\nbudget {:.0} req/s: {} survive, {} pruned, {} starred",
        budget,
        report.surviving.len(),
        report.pruned(slice),
        report.stars.len()
    );
    for &s in &report.stars {
        println!(
            "  * {:>9.0} req/s  {}",
            poset.node(s).performance,
            poset.node(s).label
        );
    }
    println!("\npick any star: it is a safest-available configuration at this budget.");
    Ok(())
}
