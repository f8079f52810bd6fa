//! Figure 6: Redis/Nginx throughput over the 80-configuration sweep.

use flexos_bench::obs::{emit_canonical_if_requested, extract_obs_args};
use flexos_bench::{fig6_label, fmt_rate, run_fig6_sweep};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = extract_obs_args(&mut args);
    let app = args.first().cloned().unwrap_or_else(|| "redis".into());
    eprintln!("running 80 configurations for {app}...");
    let sweep = run_fig6_sweep(&app).expect("sweep runs");
    let perf: Vec<f64> = sweep.iter().map(|&(_, p)| p).collect();

    let mut order: Vec<usize> = (0..sweep.len()).collect();
    order.sort_by(|&a, &b| perf[a].total_cmp(&perf[b]));

    println!("# Figure 6 ({app}): throughput per configuration, ascending");
    println!("# [•=hardened ◦=plain: app,newlib,uksched,lwip] strategy");
    for &i in &order {
        println!("{:>10}  {}", fmt_rate(perf[i]), fig6_label(&sweep[i].0));
    }

    let baseline = perf.iter().cloned().fold(f64::MIN, f64::max);
    let slowest = perf.iter().cloned().fold(f64::MAX, f64::min);
    let under20 = perf.iter().filter(|&&p| baseline / p < 1.20).count();
    let under45 = perf.iter().filter(|&&p| baseline / p < 1.45).count();
    println!("\n# summary");
    println!(
        "fastest: {}  slowest: {}  span: {:.1}x",
        fmt_rate(baseline),
        fmt_rate(slowest),
        baseline / slowest
    );
    println!("configs <20% overhead: {under20}   configs <45% overhead: {under45}");
    println!("# paper (redis): span 4.1x (292k..1199k); (nginx): 9 configs <20%, 32 <45%");

    emit_canonical_if_requested(&obs);
}
