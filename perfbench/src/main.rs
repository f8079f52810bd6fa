//! Host-time benchmark of the FlexOS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload redis-kv|nginx-smp|sweep-lazy --seed N --seconds S --trace 0|1
//! ```
//!
//! The simulator is deterministic, so its virtual cycles are output to
//! check, not a speed: every metric is host time or host memory. The
//! untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) records spans around the benchmark's own calls into
//! each layer, runs the layer probes, writes the spans to
//! `perfbench/out/`, and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! See `perfbench/NOTES.md` for the workloads, metrics and protocol.

mod explore;
mod kv;
mod probes;
mod sim;
mod stats;
mod trace;
mod web;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use flexos_core::compartment::Mechanism;
use flexos_core::config::SafetyConfig;
use flexos_machine::fault::Fault;
use flexos_sweep::engine::run_point;
use flexos_sweep::space::Workload;
use flexos_system::FlexOs;

use sim::{Closed, Phase, Reference};
use stats::{median, quantile};
use trace::{Off, Recorder, Spans};

/// The seed of the reference phase whose virtual-cycle total is
/// recorded below.
pub const RECORDED_SEED: u64 = 1;
/// Requests in the reference phase.
pub const REF_OPS: u64 = 20_000;
/// Recorded virtual-cycle totals of the reference phase.
pub const KV_REF_VCYCLES: u64 = 40_627_799;
pub const WEB_REF_VCYCLES: u64 = 82_218_225;
/// Recorded outcome of one lazy sweep of the `full` space.
pub const SWEEP_EXPECTED: explore::Outcome = explore::Outcome {
    points: 8000,
    canonical: 8000,
    measured: 4720,
    inferred: 3280,
    surviving: 864,
    stars: 72,
    vcycles: 4_175_803_652,
};

/// Seconds of load between two timed set-ups of a request workload.
const SETUP_SLICE_S: f64 = 0.25;
/// Distinct point images `sweep-lazy` times for `setup_s`, cycled.
const SWEEP_SETUPS: usize = 80;
/// Untimed requests between set-up and the measured phase.
const WARMUP_OPS: u64 = 4096;
/// Points timed through `engine::run_point` for `sweep.run_point_ms`.
const RUN_POINTS: usize = 4;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-request counts read from the reference phase, in
/// [`Reference::per_request`] order: (name, unit).
pub const COUNT_METRICS: [(&str, &str); 7] = [
    ("machine.vcycles_per_req", "cycles/req"),
    ("core.crossings_per_req", "count/req"),
    ("alloc.mallocs_per_req", "count/req"),
    ("net.segments_per_req", "count/req"),
    ("sched.switches_per_req", "count/req"),
    ("machine.ipi_cycles_per_req", "cycles/req"),
    ("machine.contention_cycles_per_req", "cycles/req"),
];

/// Every per-layer metric: (name, the end-to-end metric and workloads
/// it should move). Printed into each trace file so a reader
/// of the spans has the map beside them.
const LAYER_MAP: [(&str, &str); 28] = [
    ("net.client_send_ns", "ops_per_s on redis-kv, nginx-smp"),
    ("net.client_drain_ns", "ops_per_s on redis-kv, nginx-smp"),
    (
        "apps.serve_ns",
        "ops_per_s, op_us_p50 on redis-kv, nginx-smp",
    ),
    ("system.build_ms", "setup_s on all; ops_per_s on sweep-lazy"),
    ("sweep.run_point_ms", "ops_per_s on sweep-lazy"),
    (
        "core.gate_ns",
        "ops_per_s: ~2-3% on redis-kv (MPK-DSS), ~25% on nginx-smp (EPT-RPC)",
    ),
    ("core.gate_remote_ns", "ops_per_s on nginx-smp only"),
    (
        "machine.mem_read_ns",
        "ops_per_s on redis-kv, nginx-smp (most on nginx-smp)",
    ),
    (
        "machine.mem_write_ns",
        "ops_per_s on redis-kv, nginx-smp (most on nginx-smp)",
    ),
    (
        "alloc.malloc_free_ns",
        "ops_per_s on redis-kv only; no change on nginx-smp",
    ),
    ("apps.resp_decode_ns", "ops_per_s on redis-kv only"),
    ("apps.dict_get_ns", "ops_per_s on redis-kv only"),
    ("apps.dict_set_ns", "ops_per_s on redis-kv only"),
    ("apps.http_parse_ns", "ops_per_s on nginx-smp only"),
    ("net.segment_parse_ns", "ops_per_s on redis-kv, nginx-smp"),
    ("sched.yield_ns", "ops_per_s on redis-kv, nginx-smp"),
    ("machine.vcycles_per_req", "checked, must not move"),
    ("core.crossings_per_req", "ops_per_s via gate_ns"),
    ("alloc.mallocs_per_req", "ops_per_s via malloc_free_ns"),
    ("net.segments_per_req", "ops_per_s via segment_parse_ns"),
    ("sched.switches_per_req", "ops_per_s via yield_ns"),
    ("machine.ipi_cycles_per_req", "ops_per_s on nginx-smp"),
    (
        "machine.contention_cycles_per_req",
        "ops_per_s on nginx-smp",
    ),
    ("sweep.measured_points", "ops_per_s on sweep-lazy"),
    ("sweep.inferred_points", "ops_per_s on sweep-lazy"),
    ("sweep.skip_rate", "ops_per_s on sweep-lazy"),
    ("sweep.parallel_speedup", "ops_per_s on sweep-lazy"),
    ("trace.overhead_pct", "none: cost of the spans themselves"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["redis-kv", "nginx-smp", "sweep-lazy"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be redis-kv, nginx-smp or sweep-lazy (got `{}`)",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What a run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// (name, value, unit), in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let result = match args.workload.as_str() {
        "redis-kv" => run_kv(&args, &mut spans),
        "nginx-smp" => run_web(&args, &mut spans),
        _ => run_sweep(&args, &mut spans),
    };
    let report = match result {
        Ok(r) => r,
        Err(f) => {
            eprintln!("perfbench: {} faulted: {f:?}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        if let Err(e) = write_trace(&args, &report, &spans) {
            eprintln!("perfbench: cannot write the trace file: {e}");
            return ExitCode::from(1);
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{}  {name} = {value} {unit}", args.workload);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Runs `w` for `seconds`, with one timed set-up (built, then dropped)
/// after every [`SETUP_SLICE_S`] of load. Set-up samples so spread over
/// the run meet the host in the same mix of speeds as the requests do,
/// where back-to-back set-ups would all land in one moment.
fn measure<W: Closed, R: Recorder>(
    w: &mut W,
    rec: &mut R,
    seconds: f64,
    setup_secs: &mut Vec<f64>,
    mut setup: impl FnMut(&mut dyn Recorder) -> Result<(), Fault>,
) -> Result<Phase, Fault> {
    let start = Instant::now();
    let mut phase = Phase::with_capacity(1 << 15);
    while phase.ops == 0 || start.elapsed().as_secs_f64() < seconds {
        sim::extend_phase(w, rec, SETUP_SLICE_S, None, &mut phase);
        let t0 = Instant::now();
        setup(rec)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    Ok(phase)
}

/// Runs one of the two request workloads: set-up, reference phase,
/// measured phase and, when traced, the layer probes.
fn run_requests<W: Closed>(
    args: &Args,
    spans: &mut Spans,
    expected_vcycles: u64,
    image: impl Fn() -> SafetyConfig,
    setup: impl Fn(SafetyConfig, u64, &mut dyn Recorder) -> Result<W, Fault>,
    probe: impl FnOnce(&FlexOs, &mut Spans) -> Result<[f64; 11], Fault>,
    run_points: impl Fn(&flexos_sweep::space::SweepPoint) -> bool,
) -> Result<Report, Fault> {
    let mut r = Report::default();
    let mut setup_secs = Vec::new();
    let t0 = Instant::now();
    let mut w = setup(image(), args.seed, &mut Off)?;
    setup_secs.push(t0.elapsed().as_secs_f64());

    let mut check = setup(image(), RECORDED_SEED, &mut Off)?;
    let reference = sim::reference(&mut check, REF_OPS);
    drop(check);
    let warm = sim::run_phase(&mut w, &mut Off, 0.0, Some(WARMUP_OPS));

    let mut again = |rec: &mut dyn Recorder| setup(image(), args.seed, rec).map(drop);
    let mut phases: Vec<Phase> = Vec::new();
    if args.trace {
        let half = args.seconds / 2.0;
        phases.push(measure(
            &mut w,
            &mut Off,
            half,
            &mut setup_secs,
            &mut again,
        )?);
        phases.push(measure(&mut w, spans, half, &mut setup_secs, &mut again)?);
    } else {
        phases.push(measure(
            &mut w,
            &mut Off,
            args.seconds,
            &mut setup_secs,
            &mut again,
        )?);
    }
    let setup_s = median(&setup_secs);

    r.attempted = REF_OPS + warm.ops + phases.iter().map(|p| p.ops).sum::<u64>();
    r.failed = reference.failed + warm.failed + phases.iter().map(|p| p.failed).sum::<u64>();
    if reference.counts.vcycles != expected_vcycles {
        r.notes.push(format!(
            "reference vcycles {} != recorded {expected_vcycles}: every operation counts as failed",
            reference.counts.vcycles
        ));
        r.failed = r.attempted;
    }

    let measured = &phases[0];
    r.notes.push(format!(
        "{} requests measured in {} chunks of {}; chunk req/s p10 {:.0}, p50 {:.0}, p90 {:.0}; \
         {} set-ups",
        measured.ops,
        measured.chunk_rates.len(),
        Phase::CHUNK,
        quantile(&measured.chunk_rates, 0.1),
        quantile(&measured.chunk_rates, 0.5),
        quantile(&measured.chunk_rates, 0.9),
        setup_secs.len(),
    ));

    if !args.trace {
        end_to_end(
            &mut r,
            measured.ops_per_s(),
            measured.p50_us(),
            measured.p99_us(),
            setup_s,
        );
        return Ok(r);
    }

    let overhead = (phases[0].ops_per_s() / phases[1].ops_per_s() - 1.0) * 100.0;
    loop_layers(&mut r, spans);
    let probed = probe(w.os(), spans)?;
    let spec = explore::space();
    let points = explore::sample(&spec, args.seed, RUN_POINTS, run_points);
    r.metric(
        "sweep.run_point_ms",
        time_run_points(&spec, &points, spans)?,
        "ms",
    );
    probe_layers(&mut r, probed);
    count_layers(&mut r, &reference);
    for name in ["sweep.measured_points", "sweep.inferred_points"] {
        r.metric(name, 0.0, "count");
    }
    r.metric("sweep.skip_rate", 0.0, "ratio");
    r.metric("sweep.parallel_speedup", 0.0, "x");
    r.metric("trace.overhead_pct", overhead, "%");
    Ok(r)
}

fn end_to_end(r: &mut Report, ops_per_s: f64, p50_us: f64, p99_us: f64, setup_s: f64) {
    let values = [ops_per_s, p50_us, p99_us, setup_s, stats::peak_rss_mib()];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        r.metric(name, v, unit);
    }
}

/// The span-derived metrics of the request loop and the set-ups.
fn loop_layers(r: &mut Report, spans: &Spans) {
    r.metric("net.client_send_ns", spans.mean_ns("net.client_send"), "ns");
    r.metric(
        "net.client_drain_ns",
        spans.mean_ns("net.client_drain"),
        "ns",
    );
    r.metric("apps.serve_ns", spans.mean_ns("apps.serve"), "ns");
    r.metric("system.build_ms", spans.mean_ns("system.build") / 1e6, "ms");
}

fn probe_layers(r: &mut Report, probed: [f64; 11]) {
    for (name, v) in probes::NAMES.iter().zip(probed) {
        r.metric(name, v, "ns");
    }
}

fn count_layers(r: &mut Report, reference: &Reference) {
    for ((name, unit), v) in COUNT_METRICS.iter().zip(reference.per_request()) {
        r.metric(name, v, unit);
    }
}

/// Median host ms of `engine::run_point` over `points`.
fn time_run_points(
    spec: &flexos_sweep::SpaceSpec,
    points: &[flexos_sweep::space::SweepPoint],
    spans: &mut Spans,
) -> Result<f64, Fault> {
    let mut ms = Vec::with_capacity(points.len());
    for p in points {
        let t0 = Instant::now();
        spans.begin("sweep.run_point");
        let out = run_point(spec, p.index);
        spans.end();
        out?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// A twin of `image` on two cores, for the remote-gate probe.
fn smp_twin(image: SafetyConfig) -> Result<FlexOs, Fault> {
    kv::boot(image, 2, &mut Off)
}

fn run_kv(args: &Args, spans: &mut Spans) -> Result<Report, Fault> {
    let seed = args.seed;
    run_requests(
        args,
        spans,
        KV_REF_VCYCLES,
        kv::config,
        kv::Kv::setup,
        |os, spans| {
            let smp = smp_twin(kv::config())?;
            let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);
            let t = probes::Target {
                os,
                smp: &smp,
                payload: kv::SET_LEN,
                request: &request,
                seed,
            };
            probes::run(&t, spans)
        },
        |p| p.mechanism == Mechanism::IntelMpk && matches!(p.workload, Workload::RedisGet { .. }),
    )
}

fn run_web(args: &Args, spans: &mut Spans) -> Result<Report, Fault> {
    let seed = args.seed;
    let page = flexos_apps::http::welcome_page().len();
    run_requests(
        args,
        spans,
        WEB_REF_VCYCLES,
        web::config,
        web::Web::setup,
        |os, spans| {
            let t = probes::Target {
                os,
                smp: os,
                payload: page,
                request: web::REQUEST,
                seed,
            };
            probes::run(&t, spans)
        },
        |p| p.mechanism == Mechanism::VmEpt && p.workload == Workload::NginxGet,
    )
}

fn run_sweep(args: &Args, spans: &mut Spans) -> Result<Report, Fault> {
    let mut r = Report::default();
    let spec = explore::space();
    let setup_points = explore::setup_points(&spec, SWEEP_SETUPS);
    let check = |t: &explore::Timed, r: &mut Report| {
        r.attempted += t.outcome.points as u64;
        let failed = sweep_failed(&t.outcome, &SWEEP_EXPECTED);
        if failed > 0 {
            r.failed += failed;
            r.notes.push(format!(
                "sweep outcome {:?} != recorded {SWEEP_EXPECTED:?}",
                t.outcome
            ));
        }
    };

    if !args.trace {
        // Set-ups are timed one per settled scope, spread over the run
        // for the reason given at `measure`.
        let mut setup_secs = Vec::new();
        let mut fault = None;
        let mut boot = || {
            let index = setup_points[setup_secs.len() % setup_points.len()];
            let t0 = Instant::now();
            match explore::boot_point(&spec, index, &mut Off) {
                Ok(os) => {
                    setup_secs.push(t0.elapsed().as_secs_f64());
                    drop(os);
                }
                Err(f) => fault = Some(f),
            }
        };
        // One latency sample per sweep: host µs per classified point.
        // With fewer than 100 sweeps the 99th percentile is the slowest
        // sweep, which also gives the throughput, for the reason given
        // at `sim::Phase`.
        let start = Instant::now();
        let mut us_per_point = Vec::new();
        while us_per_point.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let t = explore::sweep(&spec, explore::THREADS, &mut Off, &mut boot)?;
            check(&t, &mut r);
            us_per_point.push(t.secs * 1e6 / t.outcome.points as f64);
        }
        if let Some(f) = fault {
            return Err(f);
        }
        r.notes.push(format!(
            "{} sweeps of {} points on {} workers, host us per point: {us_per_point:.1?}; \
             {} set-ups",
            us_per_point.len(),
            spec.len(),
            explore::THREADS,
            setup_secs.len(),
        ));
        let p99 = quantile(&us_per_point, 0.99);
        end_to_end(
            &mut r,
            1e6 / p99,
            median(&us_per_point),
            p99,
            median(&setup_secs),
        );
        return Ok(r);
    }

    for &index in &setup_points {
        explore::boot_point(&spec, index, spans)?;
    }
    let two = explore::sweep(&spec, explore::THREADS, spans, &mut || ())?;
    check(&two, &mut r);
    let one = explore::sweep(&spec, 1, spans, &mut || ())?;
    check(&one, &mut r);

    // The request path of the sweep's own images: a sampled MPK Redis
    // point whose application really crosses into lwip, replayed with
    // the redis-kv loop untraced and then traced.
    let mut replay = None;
    for p in explore::sample(&spec, args.seed, 16, explore::is_mpk_redis) {
        let w = kv::Kv::setup(p.config.clone(), args.seed, &mut Off)?;
        let env = &w.os().env;
        let app = w.os().app_ids[0];
        let lwip = env.component_id("lwip").expect("lwip is registered");
        if env
            .gates()
            .kind(env.compartment_of(app), env.compartment_of(lwip))
            .crosses_domain()
        {
            replay = Some((p, w));
            break;
        }
    }
    let (point, mut w) = replay.ok_or(Fault::InvalidConfig {
        reason: "no sampled MPK Redis point crosses into lwip".to_string(),
    })?;
    let mut check_kv = kv::Kv::setup(point.config.clone(), args.seed, &mut Off)?;
    let reference = sim::reference(&mut check_kv, REF_OPS);
    drop(check_kv);
    let replay_secs = (args.seconds / 4.0).min(2.0);
    let untraced = sim::run_phase(&mut w, &mut Off, replay_secs, None);
    let traced = sim::run_phase(&mut w, spans, replay_secs, None);
    r.attempted += REF_OPS + untraced.ops + traced.ops;
    r.failed += reference.failed + untraced.failed + traced.failed;
    r.notes.push(format!(
        "replayed point {} ({})",
        point.index,
        spec.label_of(point.index)
    ));

    loop_layers(&mut r, spans);
    let smp = smp_twin(point.config.clone())?;
    let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);
    let probed = probes::run(
        &probes::Target {
            os: w.os(),
            smp: &smp,
            payload: kv::SET_LEN,
            request: &request,
            seed: args.seed,
        },
        spans,
    )?;
    let points = [
        explore::sample(&spec, args.seed, RUN_POINTS / 2, |p| {
            p.mechanism == Mechanism::IntelMpk
        }),
        explore::sample(&spec, args.seed, RUN_POINTS / 2, |p| {
            p.mechanism == Mechanism::VmEpt
        }),
    ]
    .concat();
    r.metric(
        "sweep.run_point_ms",
        time_run_points(&spec, &points, spans)?,
        "ms",
    );
    probe_layers(&mut r, probed);
    count_layers(&mut r, &reference);
    let o = two.outcome;
    r.metric("sweep.measured_points", o.measured as f64, "count");
    r.metric("sweep.inferred_points", o.inferred as f64, "count");
    r.metric(
        "sweep.skip_rate",
        o.inferred as f64 / o.canonical as f64,
        "ratio",
    );
    r.metric("sweep.parallel_speedup", one.secs / two.secs, "x");
    r.metric(
        "trace.overhead_pct",
        (untraced.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        "%",
    );
    Ok(r)
}

/// Points of a sweep counted as failed: all of them unless its outcome,
/// virtual-cycle total included, is exactly `expected`.
fn sweep_failed(outcome: &explore::Outcome, expected: &explore::Outcome) -> u64 {
    if outcome == expected {
        0
    } else {
        outcome.points as u64
    }
}

/// Output of a host command, trimmed; `unknown` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the traced run's metrics, layer map, host metadata and spans
/// to `perfbench/out/trace-<workload>-<seed>.json`.
fn write_trace(args: &Args, report: &Report, spans: &Spans) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let moves = LAYER_MAP
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, m)| m);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\n{{\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\"moves\":\"{moves}\"}}"
        );
    }
    let (kept, totals) = spans.to_json();
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\n\"host\":{{\"nproc\":{},\"rustc\":\"{}\",\"git_sha\":\"{}\"}},\n\
         \"spans_closed\":{},\"spans_kept\":{},\n\"metrics\":[{metrics}\n],\n\"span_totals\":{totals},\n\"spans\":{kept}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_output(&rustc, &["--version"]),
        command_output("git", &["rev-parse", "HEAD"]),
        spans.closed(),
        spans.closed().min(Spans::KEEP as u64),
    );
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, body)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Reduced-length runs of every workload, each checking that a wrong
/// expected reply or cycle total is counted as failed, not passed.
/// Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.05,
            trace: false,
        }
    }

    fn kv_run(expected_vcycles: u64) -> Report {
        run_requests(
            &args("redis-kv"),
            &mut Spans::new(),
            expected_vcycles,
            kv::config,
            kv::Kv::setup,
            |_, _| unreachable!("untraced"),
            |_| true,
        )
        .unwrap()
    }

    fn web_run(expected_vcycles: u64) -> Report {
        run_requests(
            &args("nginx-smp"),
            &mut Spans::new(),
            expected_vcycles,
            web::config,
            web::Web::setup,
            |_, _| unreachable!("untraced"),
            |_| true,
        )
        .unwrap()
    }

    #[test]
    fn redis_kv_passes_at_the_recorded_cycle_total_only() {
        let ok = kv_run(KV_REF_VCYCLES);
        assert!(ok.attempted > REF_OPS);
        assert_eq!(ok.failed, 0, "{:?}", ok.notes);
        let wrong = kv_run(KV_REF_VCYCLES + 1);
        assert_eq!(wrong.failed, wrong.attempted);
        assert!(wrong.json().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn nginx_smp_passes_at_the_recorded_cycle_total_only() {
        let ok = web_run(WEB_REF_VCYCLES);
        assert_eq!(ok.failed, 0, "{:?}", ok.notes);
        let wrong = web_run(WEB_REF_VCYCLES - 1);
        assert_eq!(wrong.failed, wrong.attempted);
    }

    #[test]
    fn a_wrong_redis_reply_is_counted_as_failed() {
        let mut w = kv::Kv::setup(kv::config(), 3, &mut Off).unwrap();
        let good = sim::run_phase(&mut w, &mut Off, 0.0, Some(2000));
        assert_eq!(good.failed, 0);
        // The model now disagrees with the server on every key.
        for v in &mut w.model {
            v[0] ^= 1;
        }
        let bad = sim::run_phase(&mut w, &mut Off, 0.0, Some(2000));
        assert!(bad.failed > 1000, "{} of 2000 failed", bad.failed);
    }

    #[test]
    fn a_truncated_nginx_page_is_counted_as_failed() {
        let mut w = web::Web::setup(web::config(), 3, &mut Off).unwrap();
        assert_eq!(sim::run_phase(&mut w, &mut Off, 0.0, Some(500)).failed, 0);
        w.expected.pop();
        assert_eq!(sim::run_phase(&mut w, &mut Off, 0.0, Some(500)).failed, 500);
    }

    #[test]
    fn a_sweep_off_its_recorded_outcome_is_counted_as_failed() {
        let spec = flexos_sweep::SpaceSpec::quick(2, 10);
        let t = explore::sweep(&spec, explore::THREADS, &mut Off, &mut || ()).unwrap();
        let o = t.outcome;
        assert_eq!(o.points, spec.len());
        assert_eq!(sweep_failed(&o, &o), 0);
        let stars = explore::Outcome {
            stars: o.stars + 1,
            ..o
        };
        let cycles = explore::Outcome {
            vcycles: o.vcycles + 1,
            ..o
        };
        assert_eq!(sweep_failed(&o, &stars), o.points as u64);
        assert_eq!(sweep_failed(&o, &cycles), o.points as u64);
    }
}
