//! Figure 7: normalized Nginx vs Redis performance per configuration,
//! grouped by compartment count.

use flexos_bench::run_fig6_sweep;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    let _ = args;
    eprintln!("running 2x80 configurations (redis + nginx)...");
    let redis_sweep = run_fig6_sweep("redis").expect("redis sweep");
    let nginx_sweep = run_fig6_sweep("nginx").expect("nginx sweep");
    let redis: Vec<f64> = redis_sweep.iter().map(|&(_, p)| p).collect();
    let nginx: Vec<f64> = nginx_sweep.iter().map(|&(_, p)| p).collect();

    let rmax = redis.iter().cloned().fold(f64::MIN, f64::max);
    let nmax = nginx.iter().cloned().fold(f64::MIN, f64::max);

    println!("# Figure 7: normalized performance (redis_norm, nginx_norm, compartments)");
    for (i, (point, _)) in redis_sweep.iter().enumerate() {
        println!(
            "{:.4} {:.4} {}",
            redis[i] / rmax,
            nginx[i] / nmax,
            point.strategy.compartments()
        );
    }
    // The paper's observation: the same config slows the two apps by
    // different, hard-to-predict amounts (points off the diagonal).
    let mut off_diagonal = 0;
    for i in 0..redis.len() {
        if ((redis[i] / rmax) - (nginx[i] / nmax)).abs() > 0.05 {
            off_diagonal += 1;
        }
    }
    println!("\n# {off_diagonal}/80 configs deviate >5% between the two apps");

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
