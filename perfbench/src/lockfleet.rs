//! `dlm_onesided`: the one-sided lock table on nine nodes (table host plus
//! 8 client ranks) with the `dlm_bench` quick fleet: 64 clients per rank,
//! 64 stepped per tick, 64 locks with Zipf theta 0.99, 80-tick leases,
//! 3-tick hold and a deadline of 8 leases. An op is one lock request; it
//! completes with a grant or fails with the typed deadline give-up.
//!
//! The fleet's schedule is fixed (it does not read `--seed`): give-ups
//! are failed ops, and only a schedule that is the same in every run gives
//! the same give-up share in every run. A round is a fresh communicator
//! and lock table and [`TICKS_PER_ROUND`] ticks.
//!
//! Requests overlap, so an op's host-time latency runs from the start of
//! the tick it was issued in to the end of the tick it was granted in,
//! counting only time spent inside `OneSidedSim::step`.

use std::time::{Duration, Instant};

use dlm::sim::OneSidedSim;
use msg::{Comm, MsgConfig, RankId};
use simmem::KernelConfig;
use vialock::StrategyKind;

use crate::layers::Snap;
use crate::measure::Measure;
use crate::trace::Tracer;

const CLIENT_RANKS: usize = 8;
const CLIENTS_PER_RANK: usize = 64;
const CLIENTS_PER_TICK: usize = 64;
const NLOCKS: usize = 64;
const THETA: f64 = 0.99;
const LEASE_TICKS: u64 = 80;
const TICKS_PER_ROUND: u64 = 2000;
/// The `dlm_bench` fleet seed.
const FLEET_SEED: u64 = 0xD1A0_10CC;

/// Lock-word layout, decoded here independently of the program: owner+1
/// in the top 24 bits, fencing token in the low 40.
const TOKEN_BITS: u32 = 40;
const SLOT_BYTES: usize = 16;

/// Raw-slot audit state: the last token seen per lock.
struct Audit {
    tokens: Vec<u64>,
    raw: Vec<u8>,
}

impl Audit {
    /// Read every slot from the host's memory and check owners and
    /// token monotonicity.
    fn sample(&mut self, c: &mut Comm, base: simmem::VirtAddr, m: &mut Measure, tick: u64) {
        if let Err(e) = c.read_buffer(0, base, &mut self.raw) {
            m.violation(format!(
                "dlm_onesided tick {tick}: reading the lock table: {e}"
            ));
            return;
        }
        let nclients = (CLIENT_RANKS * CLIENTS_PER_RANK) as u64;
        for (key, slot) in self.raw.chunks(SLOT_BYTES).enumerate() {
            let word = u64::from_le_bytes(slot[..8].try_into().expect("8-byte word"));
            let owner = word >> TOKEN_BITS;
            let token = word & ((1u64 << TOKEN_BITS) - 1);
            if owner > nclients {
                m.violation(format!(
                    "dlm_onesided tick {tick}: lock {key} owned by unknown client {}",
                    owner - 1
                ));
            }
            if token < self.tokens[key] {
                m.violation(format!(
                    "dlm_onesided tick {tick}: lock {key} token went back from {} to {token}",
                    self.tokens[key]
                ));
            }
            self.tokens[key] = token;
        }
    }
}

pub fn round(_seed: u64, m: &mut Measure, tr: &mut Tracer) -> Result<(), String> {
    let t0 = Instant::now();
    let n = 1 + CLIENT_RANKS;
    let mut c = Comm::new(
        n,
        n,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .map_err(|e| format!("dlm_onesided set-up: {e}"))?;
    let ranks: Vec<RankId> = (1..=CLIENT_RANKS).collect();
    let mut sim = OneSidedSim::new(
        &mut c,
        0,
        &ranks,
        CLIENTS_PER_RANK,
        NLOCKS,
        THETA,
        LEASE_TICKS,
        FLEET_SEED,
    )
    .map_err(|e| format!("dlm_onesided set-up: {e}"))?;
    m.setup_s.push(t0.elapsed().as_secs_f64());

    let base = sim.table.win.base;
    let mut audit = Audit {
        tokens: vec![0; NLOCKS],
        raw: vec![0; NLOCKS * SLOT_BYTES],
    };
    // busy_at[t]: time spent stepping before tick t began.
    let mut busy_at: Vec<Duration> = vec![Duration::ZERO; TICKS_PER_ROUND as usize + 2];
    let mut busy = Duration::ZERO;
    let mut grants = 0u64;
    for _ in 0..TICKS_PER_ROUND {
        let tick = sim.now + 1;
        busy_at[tick as usize] = busy;
        let seen = sim.stats.acquire_ticks.len();
        let gave_up = sim.stats.deadline_errors;
        let mut before = Snap::of_comm(&mut c);
        before.add("dlm.cas_attempts", sim.table.stats.cas_attempts);
        before.add("dlm.steals", sim.table.stats.steals);

        tr.next_op();
        let start = Instant::now();
        let r = tr.call("OneSidedSim::step", || sim.step(&mut c, CLIENTS_PER_TICK));
        let end = Instant::now();
        tr.op_span(start, end);
        busy += end - start;

        let mut after = Snap::of_comm(&mut c);
        after.add("dlm.cas_attempts", sim.table.stats.cas_attempts);
        after.add("dlm.steals", sim.table.stats.steals);
        before.charge(&after, m);
        if let Err(e) = r {
            m.fail(format!("{e:?}"));
            m.violation(format!("dlm_onesided tick {tick}: step failed: {e}"));
            break;
        }
        for &waited in &sim.stats.acquire_ticks[seen..] {
            let issued = (tick - waited) as usize;
            m.complete(busy - busy_at[issued]);
            m.attempted += 1;
            grants += 1;
        }
        for _ in gave_up..sim.stats.deadline_errors {
            m.fail("Deadline");
            m.attempted += 1;
        }
        audit.sample(&mut c, base, m, tick);
    }
    m.busy += busy;

    let advance: u64 = audit.tokens.iter().sum();
    if advance < grants {
        m.violation(format!(
            "dlm_onesided: tokens advanced by {advance}, fewer than the {grants} grants"
        ));
    }
    // Every client releases long before its lease runs out and nothing
    // steals, so a release the table rejects is a protocol fault.
    let stale = sim.table.stats.stale_rejections;
    if stale != 0 {
        m.violation(format!(
            "dlm_onesided: {stale} releases rejected as stale or not held"
        ));
    }
    if let Err(e) = c.system_mut().check_invariants() {
        m.violation(format!("dlm_onesided: check_invariants: {e}"));
    }
    // The fleet's schedule is fixed, so every round grants after the same
    // logical waits: one round's are kept, and memory does not grow with
    // the number of rounds a run fits in.
    if m.ticks.is_empty() {
        m.ticks.extend_from_slice(&sim.stats.acquire_ticks);
    }
    m.rounds += 1;
    Ok(())
}
