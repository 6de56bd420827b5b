//! `reg_churn`: the paper's dynamic-registration pattern under page
//! stealing. Node 0 (a 16 MiB kernel) holds a working set of 256 KiB
//! buffers totalling 1.5x its memory. One op picks a buffer with the seed,
//! registers it through the kernel agent (kiobuf pinning), lets node 1
//! RDMA-write a fresh payload into it from its own fixed registration,
//! reaps the completion and deregisters the buffer.
//!
//! A round is a fresh two-node fabric and [`OPS_PER_ROUND`] ops over the
//! same seeded buffer sequence.

use std::time::Instant;

use simmem::{prot, KernelConfig, VirtAddr, PAGE_SIZE};
use via::{DescOp, ProtectionTag, ViaError, ViaSystem};
use vialock::StrategyKind;

use crate::layers::Snap;
use crate::measure::{payload_into, Measure, SplitMix};
use crate::trace::Tracer;

const BUF_BYTES: usize = 256 * 1024;
/// 1.5x the 4096 frames of a medium kernel, in 256 KiB buffers.
const NBUFS: usize = 4096 * PAGE_SIZE * 3 / 2 / BUF_BYTES;
const OPS_PER_ROUND: u64 = 1024;

const TAG: ProtectionTag = ProtectionTag(7);
/// Payload stream of the peer's RDMA write.
const S_WRITE: u64 = 5;

struct Rig {
    sys: ViaSystem,
    p0: simmem::Pid,
    p1: simmem::Pid,
    bufs: Vec<VirtAddr>,
    src: VirtAddr,
    src_mem: via::MemId,
    vi1: via::ViId,
    pinned_at_setup: usize,
}

fn setup() -> Result<Rig, ViaError> {
    let mut sys = ViaSystem::new(2, KernelConfig::medium(), StrategyKind::KiobufReliable);
    let p0 = sys.spawn_process(0);
    let p1 = sys.spawn_process(1);
    let mut bufs = Vec::with_capacity(NBUFS);
    for _ in 0..NBUFS {
        let a = sys.mmap(0, p0, BUF_BYTES, prot::READ | prot::WRITE)?;
        sys.touch_pages(0, p0, a, BUF_BYTES, true)?;
        bufs.push(a);
    }
    let src = sys.mmap(1, p1, BUF_BYTES, prot::READ | prot::WRITE)?;
    sys.touch_pages(1, p1, src, BUF_BYTES, true)?;
    let src_mem = sys.register_mem(1, p1, src, BUF_BYTES, TAG)?;
    let vi1 = sys.create_vi(1, p1, TAG)?;
    let vi0 = sys.create_vi(0, p0, TAG)?;
    sys.connect((1, vi1), (0, vi0))?;
    let pinned_at_setup = sys.node(0).registry.pinned_frames();
    Ok(Rig {
        sys,
        p0,
        p1,
        bufs,
        src,
        src_mem,
        vi1,
        pinned_at_setup,
    })
}

/// The timed part of one op.
fn op_body(r: &mut Rig, buf: VirtAddr, tr: &mut Tracer) -> Result<(), ViaError> {
    let Rig {
        sys,
        p0,
        src,
        src_mem,
        vi1,
        ..
    } = r;
    let mem = tr.call("ViaSystem::register_mem", || {
        sys.register_mem(0, *p0, buf, BUF_BYTES, TAG)
    })?;
    tr.call("ViaSystem::post_rdma_write", || {
        sys.post_rdma_write(1, *vi1, *src_mem, *src, BUF_BYTES, mem, buf)
    })?;
    tr.call("ViaSystem::pump", || sys.pump())?;
    let done = tr.call("ViaSystem::poll_cq", || sys.poll_cq(1, *vi1))?;
    match done {
        Some(c) if c.op == DescOp::RdmaWrite && !c.status.is_error() => {}
        Some(_) => return Err(ViaError::BadState("RDMA write completed in error")),
        None => return Err(ViaError::BadState("RDMA write left no completion")),
    }
    tr.call("ViaSystem::deregister_mem", || sys.deregister_mem(0, mem))
}

pub fn round(seed: u64, m: &mut Measure, tr: &mut Tracer) -> Result<(), String> {
    let t0 = Instant::now();
    let mut r = setup().map_err(|e| format!("reg_churn set-up: {e}"))?;
    m.setup_s.push(t0.elapsed().as_secs_f64());

    let mut pick = SplitMix::new(seed ^ 0x5EED_C4A2);
    let mut want = vec![0u8; BUF_BYTES];
    let mut got = vec![0u8; BUF_BYTES];
    for op in 0..OPS_PER_ROUND {
        let buf = r.bufs[pick.below(NBUFS as u64) as usize];
        payload_into(seed, op, S_WRITE, &mut want);
        r.sys
            .write_user(1, r.p1, r.src, &want)
            .map_err(|e| format!("reg_churn op {op}: filling the source: {e}"))?;

        let before = Snap::of_system(&r.sys);
        tr.next_op();
        let start = Instant::now();
        let res = op_body(&mut r, buf, tr);
        let end = Instant::now();
        tr.op_span(start, end);
        m.busy += end - start;
        m.attempted += 1;
        before.charge(&Snap::of_system(&r.sys), m);

        match res {
            Ok(()) => {
                m.complete(end - start);
                // The locktest property at scale: what the process reads
                // through its own page tables is what the peer wrote.
                r.sys
                    .read_user(0, r.p0, buf, &mut got)
                    .map_err(|e| format!("reg_churn op {op}: reading back: {e}"))?;
                if got != want {
                    m.violation(format!(
                        "reg_churn op {op}: buffer differs from the RDMA payload"
                    ));
                }
            }
            Err(e) => {
                m.fail(format!("{e:?}"));
                m.violation(format!("reg_churn op {op}: unexpected failure: {e}"));
                break;
            }
        }
    }
    if let Err(e) = r.sys.check_invariants() {
        m.violation(format!("reg_churn: check_invariants: {e}"));
    }
    let pinned = r.sys.node(0).registry.pinned_frames();
    if pinned != r.pinned_at_setup {
        m.violation(format!(
            "reg_churn: node 0 pins {pinned} frames, {} at set-up",
            r.pinned_at_setup
        ));
    }
    m.rounds += 1;
    Ok(())
}
