//! `sweep-lazy`: the paper's exploration step — the lazy §5 sweep over
//! the 8000-point `full` space at budget 0.8 — plus the point images it
//! builds.

use std::time::Instant;

use flexos_core::compartment::Mechanism;
use flexos_machine::fault::Fault;
use flexos_sweep::lazy::{lazy_sweep_all, LazyConfig, ProgressSnapshot};
use flexos_sweep::space::{SweepPoint, Workload};
use flexos_sweep::SpaceSpec;
use flexos_system::{FlexOs, SystemBuilder};

use crate::sim::Rng;
use crate::trace::Recorder;

/// Host worker threads of the measured sweep.
pub const THREADS: usize = 2;
/// The sweep's uniform budget.
pub const BUDGET: f64 = 0.8;
/// Warm-up and measured requests per point.
pub const WARMUP: u64 = 20;
pub const MEASURED: u64 = 200;

/// The explored space.
pub fn space() -> SpaceSpec {
    SpaceSpec::full(WARMUP, MEASURED)
}

/// What one lazy sweep classified and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub points: usize,
    pub canonical: usize,
    pub measured: usize,
    pub inferred: usize,
    pub surviving: usize,
    pub stars: usize,
    /// Virtual cycles summed over every measured point.
    pub vcycles: u64,
}

/// A sweep's outcome and its host wall time.
pub struct Timed {
    pub outcome: Outcome,
    pub secs: f64,
}

/// Runs one lazy sweep of `spec` on `threads` host workers, calling
/// `between_scopes` each time a classification scope is settled (no
/// worker is running then). The time spent in `between_scopes` is left
/// out of [`Timed::secs`].
pub fn sweep(
    spec: &SpaceSpec,
    threads: usize,
    rec: &mut dyn Recorder,
    between_scopes: &mut dyn FnMut(),
) -> Result<Timed, Fault> {
    let cfg = LazyConfig::uniform(threads, BUDGET);
    let mut hook_secs = 0.0;
    let mut on_scope = |_: &ProgressSnapshot| {
        let t = Instant::now();
        between_scopes();
        hook_secs += t.elapsed().as_secs_f64();
    };
    let t0 = Instant::now();
    rec.begin("sweep.lazy_sweep_all");
    let out = lazy_sweep_all(spec, &cfg, Some(&mut on_scope));
    rec.end();
    let secs = t0.elapsed().as_secs_f64() - hook_secs;
    let out = out?;
    Ok(Timed {
        outcome: Outcome {
            points: out.stats.points,
            canonical: out.stats.canonical,
            measured: out.stats.measured,
            inferred: out.stats.inferred,
            surviving: out.surviving.len(),
            stars: out.stars.len(),
            vcycles: out.results.values().map(|r| r.cycles).sum(),
        },
        secs,
    })
}

/// Builds and boots point `index` of `spec` with its application
/// installed — the set-up the sweep repeats for every measured point.
pub fn boot_point(spec: &SpaceSpec, index: usize, rec: &mut dyn Recorder) -> Result<FlexOs, Fault> {
    let point = spec.point(index);
    rec.begin("system.build");
    let os = SystemBuilder::new(point.config.clone())
        .app(app_component(point.workload))
        .cores(point.cores as usize)
        .build();
    rec.end();
    let os = os?;
    rec.begin("apps.install");
    let installed = match point.workload {
        Workload::RedisGet { .. } => flexos_apps::workloads::install_redis(&os).map(drop),
        Workload::NginxGet => flexos_apps::workloads::install_nginx(&os).map(drop),
        Workload::IperfStream { .. } => flexos_apps::workloads::install_iperf(&os).map(drop),
    };
    rec.end();
    installed?;
    Ok(os)
}

fn app_component(w: Workload) -> flexos_core::component::Component {
    match w {
        Workload::RedisGet { .. } => flexos_apps::redis_component(),
        Workload::NginxGet => flexos_apps::nginx_component(),
        Workload::IperfStream { .. } => flexos_apps::iperf_component(),
    }
}

/// Spread of fixed point indices whose set-up time `setup_s` reports on
/// this workload; fixed so every seed times the same images.
pub fn setup_points(spec: &SpaceSpec, n: usize) -> Vec<usize> {
    (0..n).map(|i| i * spec.len() / n).collect()
}

/// `n` distinct points of `spec` drawn from `seed` that satisfy `keep`.
pub fn sample(
    spec: &SpaceSpec,
    seed: u64,
    n: usize,
    keep: impl Fn(&SweepPoint) -> bool,
) -> Vec<SweepPoint> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<SweepPoint> = Vec::with_capacity(n);
    for _ in 0..100 * spec.len() {
        if out.len() == n {
            break;
        }
        let p = spec.point(rng.below(spec.len() as u64) as usize);
        if keep(&p) && out.iter().all(|q| q.index != p.index) {
            out.push(p);
        }
    }
    out
}

/// A point whose image crosses an MPK boundary with Redis unpipelined:
/// the sweep-lazy stand-in for a single request path.
pub fn is_mpk_redis(p: &SweepPoint) -> bool {
    p.mechanism == Mechanism::IntelMpk
        && matches!(p.workload, Workload::RedisGet { pipeline: 1, .. })
}
