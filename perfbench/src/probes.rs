//! Layer probes: direct calls into one layer's public functions on the
//! workload's own image with the workload's own inputs, timed in
//! batches from outside. Each batch is one span; a probe's figure is
//! the median over its batches of host ns per call.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use flexos_apps::dict::Dict;
use flexos_apps::{http, resp};
use flexos_core::component::ComponentId;
use flexos_machine::fault::Fault;
use flexos_net::tcp::{write_frame, SegmentView, FLAG_ACK, FLAG_PSH};
use flexos_system::FlexOs;

use crate::kv::{GET_SPACE, PRELOAD_KEYS, SET_LEN};
use crate::sim::Rng;
use crate::stats::median;
use crate::trace::{Recorder, Spans};
use crate::web;

/// Timed batches per probe.
const BATCHES: usize = 25;
/// Calls per batch.
const CALLS: u64 = 4096;

/// Names of the probe metrics, in the order [`run`] returns them.
pub const NAMES: [&str; 11] = [
    "core.gate_ns",
    "core.gate_remote_ns",
    "machine.mem_read_ns",
    "machine.mem_write_ns",
    "alloc.malloc_free_ns",
    "apps.resp_decode_ns",
    "apps.dict_get_ns",
    "apps.dict_set_ns",
    "apps.http_parse_ns",
    "net.segment_parse_ns",
    "sched.yield_ns",
];

/// Where the probes run and with what.
pub struct Target<'a> {
    /// The workload's image.
    pub os: &'a FlexOs,
    /// The same configuration booted on two or more cores; the remote
    /// gate probe issues its calls from core 1.
    pub smp: &'a FlexOs,
    /// Bytes a request moves through simulated memory (mem probes).
    pub payload: usize,
    /// The request bytes the client sends (segment probe).
    pub request: &'a [u8],
    /// Seeds the key and value draws.
    pub seed: u64,
}

fn time(
    rec: &mut Spans,
    name: &'static str,
    mut f: impl FnMut() -> Result<(), Fault>,
) -> Result<f64, Fault> {
    for _ in 0..CALLS / 4 {
        f()?;
    }
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        rec.begin(name);
        let t0 = Instant::now();
        for _ in 0..CALLS {
            f()?;
        }
        let ns = t0.elapsed().as_nanos() as f64;
        rec.end();
        per_call.push(ns / CALLS as f64);
    }
    Ok(median(&per_call))
}

fn app(os: &FlexOs) -> ComponentId {
    *os.app_ids.first().expect("the image has an application")
}

/// One `lwip_poll` call from the application into lwip on `core`.
fn gate(os: &FlexOs, core: usize, rec: &mut Spans, name: &'static str) -> Result<f64, Fault> {
    let env = &os.env;
    let lwip = env.component_id("lwip").expect("lwip is registered");
    let target = env.resolve(lwip, "lwip_poll");
    env.switch_core(core);
    let ns = env.run_as(app(os), || {
        time(rec, name, || env.call_resolved(target, || Ok(())))
    });
    env.switch_core(0);
    ns
}

/// Runs every probe on `t`, returning host ns per call in [`NAMES`]
/// order.
pub fn run(t: &Target<'_>, rec: &mut Spans) -> Result<[f64; 11], Fault> {
    let os = t.os;
    let env = &os.env;
    let app = app(os);
    let mut rng = Rng::new(t.seed);
    let keys: Vec<Vec<u8>> = (0..GET_SPACE)
        .map(|i| format!("key:{i}").into_bytes())
        .collect();
    let value: Vec<u8> = (0..SET_LEN).map(|i| b'a' + i as u8).collect();
    let draws: Vec<usize> = (0..1024).map(|_| rng.below(GET_SPACE) as usize).collect();
    let set_draws: Vec<usize> = (0..1024)
        .map(|_| rng.below(PRELOAD_KEYS) as usize)
        .collect();

    let gate_ns = gate(os, 0, rec, "probe.core.gate")?;
    let remote_ns = gate(t.smp, 1, rec, "probe.core.gate_remote")?;

    let (read_ns, write_ns, alloc_ns) = env.run_as(app, || -> Result<_, Fault> {
        let addr = env.malloc(t.payload as u64)?;
        let mut buf = vec![0x5Au8; t.payload];
        let write = time(rec, "probe.machine.mem_write", || env.mem_write(addr, &buf))?;
        let read = time(rec, "probe.machine.mem_read", || {
            env.mem_read(addr, &mut buf)
        })?;
        env.free(addr)?;
        let alloc = time(rec, "probe.alloc.malloc_free", || {
            let a = env.malloc(SET_LEN as u64)?;
            env.free(a)
        })?;
        Ok((read, write, alloc))
    })?;

    let requests: Vec<Vec<u8>> = draws
        .iter()
        .zip(&set_draws)
        .enumerate()
        .map(|(n, (&g, &s))| {
            if n % 10 == 0 {
                resp::encode_request(&[b"SET", &keys[s], &value])
            } else {
                resp::encode_request(&[b"GET", &keys[g]])
            }
        })
        .collect();
    let mut parsed = resp::RespRequest::new();
    let mut n = 0usize;
    let decode_ns = time(rec, "probe.apps.resp_decode", || {
        n = (n + 1) % requests.len();
        black_box(resp::decode_request_into(&requests[n], &mut parsed)?);
        Ok(())
    })?;

    let (get_ns, set_ns) = env.run_as(app, || -> Result<_, Fault> {
        let mut dict = Dict::with_capacity(Rc::clone(env), 16384)?;
        for (i, k) in keys.iter().take(PRELOAD_KEYS as usize).enumerate() {
            dict.set(k, format!("value-{i:010}").as_bytes())?;
        }
        let mut out = Vec::new();
        let mut n = 0usize;
        let get = time(rec, "probe.apps.dict_get", || {
            n = (n + 1) % draws.len();
            out.clear();
            black_box(dict.get_into(&keys[draws[n]], &mut out)?);
            Ok(())
        })?;
        let set = time(rec, "probe.apps.dict_set", || {
            n = (n + 1) % set_draws.len();
            dict.set(&keys[set_draws[n]], &value)
        })?;
        Ok((get, set))
    })?;

    let http_ns = time(rec, "probe.apps.http_parse", || {
        black_box(http::parse_request(web::REQUEST)?);
        Ok(())
    })?;

    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        50_000,
        80,
        1,
        1,
        FLAG_ACK | FLAG_PSH,
        65535,
        t.request,
    );
    let segment_ns = time(rec, "probe.net.segment_parse", || {
        black_box(SegmentView::parse(&frame)?.payload.len());
        Ok(())
    })?;

    let yield_ns = env.run_as(os.sched.component_id(), || {
        time(rec, "probe.sched.yield", || {
            black_box(os.sched.yield_now());
            Ok(())
        })
    })?;

    Ok([
        gate_ns, remote_ns, read_ns, write_ns, alloc_ns, decode_ns, get_ns, set_ns, http_ns,
        segment_ns, yield_ns,
    ])
}
