//! Figure 8: the Redis configuration poset and the safest configurations
//! above a 500k req/s budget (stars).

use flexos_bench::{fig6_poset, fmt_rate, run_fig6_sweep};
use flexos_explore::prune_and_star;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    let budget = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000.0);
    eprintln!("running 80 redis configurations...");
    let sweep = run_fig6_sweep("redis").expect("sweep runs");

    let poset = fig6_poset(&sweep);
    poset.check_axioms().expect("partial order is sound");
    let report = prune_and_star(&poset, budget);

    println!("# Figure 8: partial safety ordering on the Redis numbers");
    println!("poset nodes: {}", poset.len());
    println!("cover edges: {}", poset.cover_edges().len());
    println!(
        "budget {} => {} survive, {} pruned",
        fmt_rate(budget),
        report.surviving.len(),
        report.pruned(poset.len())
    );
    println!("\n# starred (safest configurations meeting the budget):");
    for &s in &report.stars {
        println!(
            "  * {:>10}  {}",
            fmt_rate(poset.node(s).performance),
            poset.node(s).label
        );
    }
    println!(
        "\n# paper: 80 -> 5 starred configurations at 500k req/s; here: 80 -> {}",
        report.stars.len()
    );

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
