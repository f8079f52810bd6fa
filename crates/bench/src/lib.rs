//! # flexos-bench — the evaluation harness (§6)
//!
//! One binary per table/figure of the paper's evaluation; each prints the
//! same rows/series the paper reports, regenerated from the simulation:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig06 redis` / `fig06 nginx` | Figure 6: 80-configuration throughput sweeps |
//! | `fig07` | Figure 7: normalized Nginx-vs-Redis scatter |
//! | `fig08` | Figure 8: poset + stars under a 500k req/s budget |
//! | `fig09` | Figure 9: iPerf throughput vs receive-buffer size |
//! | `fig10` | Figure 10: SQLite 5000 INSERTs across systems |
//! | `fig11a` | Figure 11a: shared stack-allocation latencies |
//! | `fig11b` | Figure 11b: gate latencies |
//! | `table1` | Table 1: porting effort |
//! | `sweep` | parallel exploration of a named `flexos_sweep` space |
//!
//! `cargo bench` covers the microbenchmarks plus allocator/gate
//! ablations via the self-contained [`harness`] module (the build
//! environment has no crates.io access, so no criterion).

pub mod obs;

use flexos_explore::{ConfigNode, Poset};
use flexos_machine::fault::Fault;
use flexos_sweep::report::sweep_leq;
use flexos_sweep::space::hardening_dots;
use flexos_sweep::{SpaceSpec, SweepPoint};
use flexos_system::{FlexOs, SystemBuilder};

/// Requests used to warm each Figure 6 configuration. The fast data
/// path (ISSUE 3) made a simulated request cost ~0.5 µs host-side, so
/// the sweep drives ~100× the traffic the seed harness could afford.
pub const FIG6_WARMUP: u64 = 500;
/// Requests measured per Figure 6 configuration.
pub const FIG6_MEASURED: u64 = 5000;

/// The sweep's `(warmup, measured)` request counts, honouring the
/// `FIG6_WARMUP` / `FIG6_MEASURED` environment variables (CI smoke runs
/// and byte-for-byte comparisons against pre-speedup outputs use the old
/// small counts; steady-state throughput is count-independent).
pub fn fig6_counts() -> (u64, u64) {
    let env_u64 = |name: &str, default: u64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    (
        env_u64("FIG6_WARMUP", FIG6_WARMUP),
        env_u64("FIG6_MEASURED", FIG6_MEASURED),
    )
}

/// Runs the full 80-point sweep for `app`, returning each point of
/// `flexos_sweep::SpaceSpec::fig6(app, ..)` with its throughput, in
/// enumeration order.
///
/// The space is swept thread-per-worker (`SWEEP_THREADS` workers,
/// defaulting to the host's parallelism). Per-point results are a pure
/// function of the point, so the output is bit-identical to a serial
/// loop — `tests/sweep_determinism.rs` pins the equivalence.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run_fig6_sweep(app: &str) -> Result<Vec<(SweepPoint, f64)>, Fault> {
    if !matches!(app, "redis" | "nginx") {
        return Err(Fault::InvalidConfig {
            reason: format!("unknown fig6 app `{app}`"),
        });
    }
    let (warmup, measured) = fig6_counts();
    let spec = SpaceSpec::fig6(app, warmup, measured);
    let results = flexos_sweep::engine::run(&spec)?;
    Ok(spec
        .points()
        .zip(results)
        .map(|(p, r)| (p, r.ops_per_sec))
        .collect())
}

/// The historical Figure 6 row label of a point: hardening dots over
/// `app, newlib, uksched, lwip`, then the strategy
/// (`[•◦◦•] redis+newlib / sched+lwip`).
pub fn fig6_label(point: &SweepPoint) -> String {
    format!(
        "[{}] {}",
        hardening_dots(point.hardening_mask),
        point.strategy.label(point.workload.app())
    )
}

/// The Figure 8 poset over measured Figure 6 points: nodes carry
/// [`fig6_label`] and the measured throughput, ordered by the sweep's
/// §5 safety relation.
pub fn fig6_poset(measured: &[(SweepPoint, f64)]) -> Poset {
    let nodes = measured
        .iter()
        .enumerate()
        .map(|(index, (point, performance))| ConfigNode {
            index,
            label: fig6_label(point),
            performance: *performance,
        })
        .collect();
    Poset::new(nodes, |a, b| sweep_leq(&measured[a].0, &measured[b].0))
}

/// Builds a plain FlexOS instance for microbenchmarks.
///
/// # Errors
///
/// Configuration faults.
pub fn plain_instance() -> Result<FlexOs, Fault> {
    SystemBuilder::new(flexos_system::configs::none())
        .app(flexos_apps::redis_component())
        .build()
}

/// A minimal timing harness with a criterion-shaped API.
///
/// The container image cannot reach crates.io, so `cargo bench` targets
/// use this instead of criterion: same `bench_function` / `iter` /
/// `iter_batched` surface, wall-clock medians over a fixed sample
/// count, plain-text report lines.
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// Iterations batched into one timing sample.
    const BATCH: u32 = 64;

    /// Entry point mirroring `criterion::Criterion`.
    pub struct Criterion {
        samples: usize,
    }

    impl Default for Criterion {
        fn default() -> Self {
            Criterion { samples: 20 }
        }
    }

    impl Criterion {
        /// Sets how many timing samples each benchmark takes.
        #[must_use]
        pub fn sample_size(mut self, samples: usize) -> Self {
            self.samples = samples.max(3);
            self
        }

        /// Times `routine` and prints a `name: median ns/iter` row.
        pub fn bench_function(&mut self, name: &str, mut routine: impl FnMut(&mut Bencher)) {
            let mut b = Bencher {
                samples: self.samples,
                ns_per_iter: Vec::new(),
            };
            routine(&mut b);
            let mut ns = b.ns_per_iter;
            ns.sort_unstable_by(f64::total_cmp);
            let median = ns.get(ns.len() / 2).copied().unwrap_or(0.0);
            println!(
                "bench {name:<28} {median:>12.1} ns/iter ({} samples)",
                ns.len()
            );
        }
    }

    /// Per-benchmark timing state mirroring `criterion::Bencher`.
    pub struct Bencher {
        samples: usize,
        ns_per_iter: Vec<f64>,
    }

    impl Bencher {
        /// Times `routine` alone, batched to amortize timer overhead.
        pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
            for _ in 0..self.samples {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    black_box(routine());
                }
                let dt = t0.elapsed();
                self.ns_per_iter
                    .push(dt.as_nanos() as f64 / f64::from(BATCH));
            }
        }

        /// Times `routine` over fresh `setup()` state, excluding setup.
        pub fn iter_batched<S, O>(
            &mut self,
            mut setup: impl FnMut() -> S,
            mut routine: impl FnMut(S) -> O,
        ) {
            for _ in 0..self.samples {
                let inputs: Vec<S> = (0..BATCH).map(|_| setup()).collect();
                let t0 = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                let dt = t0.elapsed();
                self.ns_per_iter
                    .push(dt.as_nanos() as f64 / f64::from(BATCH));
            }
        }
    }
}

/// Formats a rate as the paper's `292.0k` / `1.2M`-style labels.
pub fn fmt_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1_000_000.0 {
        format!("{:.1}M", ops_per_sec / 1_000_000.0)
    } else {
        format!("{:.1}k", ops_per_sec / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(292_000.0), "292.0k");
        assert_eq!(fmt_rate(1_199_200.0), "1.2M");
    }

    #[test]
    fn one_fig6_point_runs() {
        let (warmup, measured) = fig6_counts();
        let spec = SpaceSpec::fig6("redis", warmup, measured);
        let r = flexos_sweep::engine::run_point(&spec, 0).unwrap();
        assert!(r.ops_per_sec > 100_000.0);
    }

    #[test]
    fn fig6_labels_keep_the_historical_row_form() {
        let spec = SpaceSpec::fig6("nginx", 1, 1);
        assert_eq!(fig6_label(&spec.point(0)), "[◦◦◦◦] nginx+newlib+sched+lwip");
        assert_eq!(
            fig6_label(&spec.point(16 * 3 + 0b0101)),
            "[•◦•◦] nginx+newlib / sched+lwip"
        );
    }
}
