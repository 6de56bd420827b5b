//! The repository benchmark: three workloads on the deterministic
//! `ViaSystem` fabric, single process, single thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc_fanout|reg_churn|dlm_onesided \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run first plays one warm-up round (checked, not measured), then plays
//! whole measured rounds until `--seconds` of host time have passed. Every
//! round rebuilds the fabric and repeats the same seeded op sequence, so
//! layer counters per op, and the share of failed ops, are the same in
//! every run whatever its length.
//!
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics (self
//! times come from the spans the traced run records).

mod churn;
mod layers;
mod lockfleet;
mod measure;
mod reference;
mod rpc;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median_f64, peak_rss_mb, percentile, Measure};
use trace::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// One round of a workload: build a fresh fabric, play the seeded op
/// sequence, check the results.
type Round = fn(u64, &mut Measure, &mut Tracer) -> Result<(), String>;

struct Workload {
    name: &'static str,
    round: Round,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rpc_fanout",
        round: rpc::round,
    },
    Workload {
        name: "reg_churn",
        round: churn::round,
    },
    Workload {
        name: "dlm_onesided",
        round: lockfleet::round,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(r: &Measure) -> Vec<Metric> {
    vec![
        m("setup_s", median_f64(&r.win_setup_s), "s"),
        m("ops_per_s", median_f64(&r.win_rate), "ops/s"),
        m("op_p50_us", median_f64(&r.win_p50_us), "us"),
        m("op_p99_us", median_f64(&r.win_p99_us), "us"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(r: &mut Measure, self_ns: &BTreeMap<&'static str, u64>) -> Vec<Metric> {
    let done = r.completed;
    let per_op = |r: &Measure, c: &str| ratio(r.counters.get(c), done);
    let us = |names: &[&str]| {
        let ns: u64 = names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum();
        ratio(ns, done) / 1e3
    };
    vec![
        m(
            "simmem.major_faults",
            per_op(r, "simmem.major_faults"),
            "count/op",
        ),
        m(
            "simmem.swap_outs",
            per_op(r, "simmem.swap_outs"),
            "count/op",
        ),
        m(
            "simmem.minor_faults",
            per_op(r, "simmem.minor_faults"),
            "count/op",
        ),
        m(
            "simmem.reclaim_skips",
            per_op(r, "simmem.reclaim_skips"),
            "count/op",
        ),
        m(
            "vialock.pages_pinned",
            per_op(r, "vialock.pages_pinned"),
            "pages/op",
        ),
        m(
            "vialock.pin_retries",
            per_op(r, "vialock.pin_retries"),
            "count/op",
        ),
        m(
            "vialock.cache_hit_ratio",
            ratio(
                r.counters.get("vialock.cache_hits"),
                r.counters.get("vialock.cache_lookups"),
            ),
            "ratio",
        ),
        m("via.register_us", us(&["ViaSystem::register_mem"]), "us/op"),
        m(
            "via.rdma_us",
            us(&[
                "ViaSystem::post_rdma_write",
                "ViaSystem::pump",
                "ViaSystem::poll_cq",
            ]),
            "us/op",
        ),
        m(
            "via.deregister_us",
            us(&["ViaSystem::deregister_mem"]),
            "us/op",
        ),
        m("via.dma_ops", per_op(r, "via.dma_ops"), "count/op"),
        m(
            "via.tlb_hit_ratio",
            ratio(
                r.counters.get("via.tlb_hits"),
                r.counters.get("via.tlb_hits") + r.counters.get("via.tlb_misses"),
            ),
            "ratio",
        ),
        m(
            "via.payload_allocs",
            per_op(r, "via.payload_allocs"),
            "count/op",
        ),
        m(
            "via.cq_overruns",
            ratio(r.counters.get("via.cq_overruns"), r.rounds),
            "count/round",
        ),
        m("via.atomic_cas", per_op(r, "via.atomic_cas"), "count/op"),
        m("msg.send_us", us(&["Comm::send"]), "us/op"),
        m("msg.recv_us", us(&["Comm::recv"]), "us/op"),
        m("msg.wait_us", us(&["Comm::wait"]), "us/op"),
        m("msg.copy_bytes", per_op(r, "msg.copy_bytes"), "B/op"),
        m(
            "msg.control_writes",
            per_op(r, "msg.control_writes"),
            "count/op",
        ),
        m("dlm.step_us", us(&["OneSidedSim::step"]), "us/op"),
        m(
            "dlm.cas_per_grant",
            per_op(r, "dlm.cas_attempts"),
            "count/op",
        ),
        m(
            "dlm.steals",
            1000.0 * per_op(r, "dlm.steals"),
            "count/1000ops",
        ),
        m(
            "dlm.acquire_ticks_p50",
            percentile(&mut r.ticks, 0.50) as f64,
            "ticks",
        ),
        m(
            "dlm.acquire_ticks_p99",
            percentile(&mut r.ticks, 0.99) as f64,
            "ticks",
        ),
        m("bench.op_self_us", us(&[trace::OP]), "us/op"),
    ]
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut tracer = Tracer::new(args.trace);

    // Warm-up: checked like every round, never measured.
    let mut warm = Measure::default();
    (w.round)(args.seed, &mut warm, &mut tracer)?;
    tracer.clear();

    let mut r = Measure::default();
    r.violations = warm.violations;
    // A traced run plays every other round untraced, so the tracing
    // overhead is measured in one process under the same host conditions.
    let mut untraced = Measure::default();
    let started = Instant::now();
    while r.rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        if args.trace && r.rounds > untraced.rounds {
            tracer.set_on(false);
            untraced.sample_reference();
            (w.round)(args.seed, &mut untraced, &mut tracer)?;
            tracer.set_on(true);
            untraced.close_window(false);
        } else {
            r.sample_reference();
            (w.round)(args.seed, &mut r, &mut tracer)?;
            tracer.mark_written_prefix();
            r.close_window(false);
        }
    }
    r.close_window(r.win_rate.is_empty());
    untraced.close_window(untraced.win_rate.is_empty());
    r.violations.append(&mut untraced.violations);
    if r.completed == 0 {
        return Err(format!("{}: no op completed", w.name));
    }

    let failed = r.failed();
    let causes: Vec<String> = r.failures.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{}: seed {} rounds {} attempted {} completed {} failed {} [{}]",
        w.name,
        args.seed,
        r.rounds,
        r.attempted,
        r.completed,
        failed,
        causes.join(" ")
    );
    for v in &r.violations {
        println!("check failed: {v}");
    }
    println!(
        "unscaled: {}",
        json_metrics(&[
            m("ops_per_s", median_f64(&r.raw_rate), "ops/s"),
            m("op_p50_us", median_f64(&r.raw_p50_us), "us"),
            m("reference_us", median_f64(&r.win_ref_ns) / 1e3, "us"),
        ])
    );
    let metrics = if args.trace {
        let self_ns = tracer.self_times();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", w.name));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "tracing overhead: {}",
            json_metrics(&[
                m(
                    "untraced_ops_per_s",
                    median_f64(&untraced.win_rate),
                    "ops/s"
                ),
                m("traced_ops_per_s", median_f64(&r.win_rate), "ops/s"),
                m("untraced_op_p50_us", median_f64(&untraced.win_p50_us), "us"),
                m("traced_op_p50_us", median_f64(&r.win_p50_us), "us"),
            ])
        );
        per_layer(&mut r, &self_ns)
    } else {
        end_to_end(&r)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.violations.is_empty(),
        r.attempted,
        failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
