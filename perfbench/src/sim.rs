//! Pieces shared by the workloads: the seeded input stream, the timed
//! closed loop, and the simulator's deterministic counters.

use std::time::Instant;

use flexos_machine::fault::Fault;
use flexos_system::FlexOs;

use crate::stats::quantile;
use crate::trace::Recorder;

/// A closed-loop request workload over one booted image.
pub trait Closed {
    /// The image under load.
    fn os(&self) -> &FlexOs;

    /// Makes one request and checks its reply: `Ok((host_ns,
    /// reply_correct))`, where `host_ns` runs from the send to the
    /// drained reply.
    fn step<R: Recorder>(&mut self, rec: &mut R) -> Result<(u64, bool), Fault>;
}

/// The xorshift64* stream every workload draws its inputs from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // xorshift has an all-zero fixed point; force a nonzero state.
        Rng(seed | (1 << 63))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Result of one timed closed-loop phase, summarised per chunk of
/// [`Phase::CHUNK`] requests.
///
/// The host this was sized on runs the simulator at one of two speeds,
/// about 2x apart, switching every few seconds with load from outside
/// the process (it behaves like a busy sibling hardware thread); a run
/// spends an unpredictable share of its time in the fast mode. A whole-run mean or median moves with that
/// share, so each figure is read at the slow decile of the chunks: the
/// rate and latencies the simulator sustains in nine chunks out of ten.
pub struct Phase {
    /// Requests attempted.
    pub ops: u64,
    /// Requests whose reply did not match the model, or that faulted.
    pub failed: u64,
    /// Requests per host second of each chunk.
    pub chunk_rates: Vec<f64>,
    /// Median host ns per request within each chunk, from the send to
    /// the drained reply.
    pub chunk_p50_ns: Vec<f64>,
    /// 99th-percentile host ns per request within each chunk (the 21st
    /// slowest of 2048).
    pub chunk_p99_ns: Vec<f64>,
    /// The open chunk's latencies.
    latency: Vec<u64>,
}

impl Phase {
    /// Requests per chunk.
    pub const CHUNK: usize = 2048;

    /// An empty phase with room for `chunks` chunks. A phase that stays
    /// within it allocates nothing while it runs, so the host heap (and
    /// `peak_rss_mib`) does not depend on how fast the run went.
    pub fn with_capacity(chunks: usize) -> Phase {
        Phase {
            ops: 0,
            failed: 0,
            chunk_rates: Vec::with_capacity(chunks),
            chunk_p50_ns: Vec::with_capacity(chunks),
            chunk_p99_ns: Vec::with_capacity(chunks),
            latency: Vec::with_capacity(Self::CHUNK),
        }
    }

    /// Requests per host second sustained in nine chunks out of ten.
    pub fn ops_per_s(&self) -> f64 {
        quantile(&self.chunk_rates, 0.1)
    }

    /// Median request latency, in µs, that nine chunks out of ten meet.
    pub fn p50_us(&self) -> f64 {
        quantile(&self.chunk_p50_ns, 0.9) / 1e3
    }

    /// 99th-percentile request latency, in µs, that nine chunks out of
    /// ten meet.
    pub fn p99_us(&self) -> f64 {
        quantile(&self.chunk_p99_ns, 0.9) / 1e3
    }
}

/// Runs requests of `w` back to back until `seconds` of host time have
/// passed (whole chunks only, at least one) or, if `max_ops` is set,
/// until that many requests were made.
pub fn run_phase<W: Closed, R: Recorder>(
    w: &mut W,
    rec: &mut R,
    seconds: f64,
    max_ops: Option<u64>,
) -> Phase {
    let mut phase = Phase::with_capacity(0);
    extend_phase(w, rec, seconds, max_ops, &mut phase);
    phase
}

/// [`run_phase`], adding the requests and chunks to `phase`.
pub fn extend_phase<W: Closed, R: Recorder>(
    w: &mut W,
    rec: &mut R,
    seconds: f64,
    max_ops: Option<u64>,
    phase: &mut Phase,
) {
    let start = Instant::now();
    let mut chunk_start = start;
    let mut ops = 0u64;
    loop {
        rec.next_request();
        match w.step(rec) {
            Ok((ns, ok)) => {
                phase.latency.push(ns);
                phase.failed += u64::from(!ok);
            }
            Err(_) => phase.failed += 1,
        }
        rec.end_request();
        ops += 1;
        if max_ops.is_some_and(|m| ops >= m) {
            break;
        }
        if ops.is_multiple_of(Phase::CHUNK as u64) {
            let now = Instant::now();
            phase
                .chunk_rates
                .push(Phase::CHUNK as f64 / (now - chunk_start).as_secs_f64());
            chunk_start = now;
            let latency = &mut phase.latency;
            if !latency.is_empty() {
                let n = latency.len();
                phase
                    .chunk_p50_ns
                    .push(*latency.select_nth_unstable(n / 2).1 as f64);
                phase
                    .chunk_p99_ns
                    .push(*latency.select_nth_unstable(n * 99 / 100).1 as f64);
                latency.clear();
            }
            if max_ops.is_none() && (now - start).as_secs_f64() >= seconds {
                break;
            }
        }
    }
    phase.ops += ops;
}

/// The simulator's own counters, as a snapshot to diff.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Virtual cycles summed over every core's clock.
    pub vcycles: u64,
    pub crossings: u64,
    pub mallocs: u64,
    /// TCP segments the stack received plus those it sent.
    pub segments: u64,
    pub switches: u64,
    pub ipi_cycles: u64,
    pub contention_cycles: u64,
}

impl Counts {
    /// Reads every counter of `os`. Gate crossings and the SMP charges
    /// only count since their last reset, so call
    /// [`Counts::reset_and_read`] at the start of a phase.
    pub fn read(os: &FlexOs) -> Counts {
        let machine = os.env.machine();
        let net = os.net.stats();
        Counts {
            vcycles: (0..os.env.num_cores())
                .map(|c| machine.core_clock(c).now())
                .sum(),
            crossings: os.env.gates().total_crossings(),
            mallocs: os.env.total_alloc_stats().mallocs,
            segments: net.rx_segments + net.tx_segments,
            switches: os.sched.stats().switches,
            ipi_cycles: machine.ipi_cycles(),
            contention_cycles: machine.contention_cycles(),
        }
    }

    /// Resets the resettable counters, then reads every counter.
    pub fn reset_and_read(os: &FlexOs) -> Counts {
        os.env.reset_counters();
        os.env.machine().reset_smp_counters();
        Counts::read(os)
    }

    /// Counts accrued since `start`.
    pub fn since(&self, start: &Counts) -> Counts {
        Counts {
            vcycles: self.vcycles - start.vcycles,
            crossings: self.crossings - start.crossings,
            mallocs: self.mallocs - start.mallocs,
            segments: self.segments - start.segments,
            switches: self.switches - start.switches,
            ipi_cycles: self.ipi_cycles - start.ipi_cycles,
            contention_cycles: self.contention_cycles - start.contention_cycles,
        }
    }
}

/// Outcome of the fixed-length reference phase every request workload
/// runs at the recorded seed: its virtual-cycle total must equal the
/// recorded value, so a change that only speeds up the simulator is
/// shown to leave the simulated result alone.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub ops: u64,
    pub failed: u64,
    pub counts: Counts,
}

impl Reference {
    /// Per-request counts, in the order of [`crate::COUNT_METRICS`].
    pub fn per_request(&self) -> [f64; 7] {
        let c = self.counts;
        let n = self.ops.max(1) as f64;
        [
            c.vcycles as f64 / n,
            c.crossings as f64 / n,
            c.mallocs as f64 / n,
            c.segments as f64 / n,
            c.switches as f64 / n,
            c.ipi_cycles as f64 / n,
            c.contention_cycles as f64 / n,
        ]
    }
}

/// Runs `ops` untraced requests of `w` with the counters reset first.
pub fn reference<W: Closed>(w: &mut W, ops: u64) -> Reference {
    let start = Counts::reset_and_read(w.os());
    let phase = run_phase(w, &mut crate::trace::Off, 0.0, Some(ops));
    Reference {
        ops,
        failed: phase.failed,
        counts: Counts::read(w.os()).since(&start),
    }
}
