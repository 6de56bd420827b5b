//! What a run accumulates across its rounds, and the seeded input
//! generators the workloads share.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::layers::Snap;
use crate::reference;

/// Completed ops a window pools before its statistics are taken: enough
/// for ten samples beyond the 99th percentile.
const WINDOW_OPS: usize = 1000;

/// The reference computation's time on the host the reference figures
/// were taken on; times are reported as if the host ran at that speed.
const REFERENCE_NOMINAL_NS: f64 = 400_000.0;

/// Accumulated over the measured rounds of one run.
///
/// Consecutive whole rounds are pooled into windows of at least
/// [`WINDOW_OPS`] completed ops; each window yields a set-up time, a
/// throughput, a median and a 99th-percentile latency, and the run reports
/// the median over its windows. Every window holds the same op mix (whole
/// rounds of one sequence), so the median over windows shrugs off the
/// host's slow spells without favouring any part of a round.
///
/// A shared host's speed also drifts over minutes, which a median within
/// one run cannot absorb. Before every round the run times a fixed
/// reference computation (see [`reference`]); each window's times are
/// scaled by [`REFERENCE_NOMINAL_NS`] over the median reference time of
/// its rounds.
#[derive(Default)]
pub struct Measure {
    /// Set-up time of every round of the open window, in seconds.
    pub setup_s: Vec<f64>,
    /// Reference samples of the open window, in nanoseconds.
    ref_ns: Vec<u64>,
    /// Per closed window: median set-up time in seconds, scaled.
    pub win_setup_s: Vec<f64>,
    /// Per closed window: median reference time in nanoseconds.
    pub win_ref_ns: Vec<f64>,
    /// Per closed window, unscaled: ops per second and p50 latency.
    pub raw_rate: Vec<f64>,
    pub raw_p50_us: Vec<f64>,
    /// Host-time latency of every completed op of the open window, in
    /// nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Host time spent inside timed ops (the measured phase) of the open
    /// window.
    pub busy: Duration,
    /// Per closed window, scaled: completed ops per second, p50 and p99
    /// latency in microseconds.
    pub win_rate: Vec<f64>,
    pub win_p50_us: Vec<f64>,
    pub win_p99_us: Vec<f64>,
    pub attempted: u64,
    pub completed: u64,
    /// Failed ops by typed cause.
    pub failures: BTreeMap<String, u64>,
    /// Layer counters summed over the timed ops.
    pub counters: Snap,
    /// Correctness-check violations (empty when every check passed).
    pub violations: Vec<String>,
    /// Logical acquire latencies (ticks) of the lock workload's grants.
    pub ticks: Vec<u64>,
    pub rounds: u64,
}

impl Measure {
    pub fn fail(&mut self, cause: impl Into<String>) {
        *self.failures.entry(cause.into()).or_default() += 1;
    }

    pub fn complete(&mut self, lat: Duration) {
        self.completed += 1;
        self.lat_ns.push(lat.as_nanos() as u64);
    }

    /// Record a check violation; only the first few are kept verbatim.
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Time the reference computation; call before each round.
    pub fn sample_reference(&mut self) {
        self.ref_ns.push(reference::sample_ns());
    }

    /// Close the open window once it holds enough ops (or unconditionally
    /// with `force`, for a run too short to fill one).
    pub fn close_window(&mut self, force: bool) {
        if self.lat_ns.is_empty() || (!force && self.lat_ns.len() < WINDOW_OPS) {
            return;
        }
        let ref_ns = percentile(&mut self.ref_ns, 0.50) as f64;
        // Host time at the nominal reference speed.
        let scale = REFERENCE_NOMINAL_NS / ref_ns;
        let rate = self.lat_ns.len() as f64 / self.busy.as_secs_f64();
        let p50_us = percentile(&mut self.lat_ns, 0.50) as f64 / 1e3;
        let p99_us = percentile(&mut self.lat_ns, 0.99) as f64 / 1e3;
        self.win_ref_ns.push(ref_ns);
        self.raw_rate.push(rate);
        self.raw_p50_us.push(p50_us);
        self.win_setup_s.push(median_f64(&self.setup_s) * scale);
        self.win_rate.push(rate / scale);
        self.win_p50_us.push(p50_us * scale);
        self.win_p99_us.push(p99_us * scale);
        self.setup_s.clear();
        self.ref_ns.clear();
        self.lat_ns.clear();
        self.busy = Duration::ZERO;
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in [0, 1]).
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

pub fn median_f64(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// SplitMix64: the benchmark's own generator, independent of the program.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The payload of stream `stream` of op `op`: a pure function of
/// `(seed, op, stream)`, so a receiver's bytes can be regenerated and
/// compared without keeping what was sent.
pub fn payload_into(seed: u64, op: u64, stream: u64, out: &mut [u8]) {
    let mut g = SplitMix::new(seed ^ op.wrapping_mul(0xA076_1D64_78BD_642F) ^ (stream << 56));
    for chunk in out.chunks_mut(8) {
        let w = g.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
