//! `rpc_fanout`: rank 0 sends a 64 B request to ranks 1 and 2; rank 1
//! answers with 64 KiB (one-copy protocol), rank 2 with 256 KiB
//! (zero-copy rendezvous). Three ranks on three nodes, fixed buffers, so
//! after the first op every registration is a cache hit.
//!
//! A round is a fresh communicator and [`OPS_PER_ROUND`] ops. The one-copy
//! reply path never reaps its Send completions, so the 513th 64 KiB reply
//! overruns the 4096-entry completion queue of the 1→0 pair: op 513 of
//! every round fails with `CqOverrun`, and the next round starts from a
//! fresh communicator.

use std::time::Instant;

use msg::{Comm, MsgConfig};
use simmem::{KernelConfig, VirtAddr};
use via::ViaError;
use vialock::StrategyKind;

use crate::layers::Snap;
use crate::measure::{payload_into, Measure};
use crate::trace::Tracer;

const REQ_BYTES: usize = 64;
const ONE_COPY_BYTES: usize = 64 * 1024;
const ZERO_COPY_BYTES: usize = 256 * 1024;
/// 4096 CQ entries / 8 chunks per 64 KiB reply = 512 replies fit; the
/// round ends with the op whose reply does not.
const OPS_PER_ROUND: u64 = 513;

const TAG_REQ: u32 = 1;
const TAG_REP: u32 = 2;

/// Payload streams of one op.
const S_REQ1: u64 = 1;
const S_REQ2: u64 = 2;
const S_REP1: u64 = 3;
const S_REP2: u64 = 4;

struct Bufs {
    req1_src: VirtAddr,
    req2_src: VirtAddr,
    req1_dst: VirtAddr,
    req2_dst: VirtAddr,
    rep1_src: VirtAddr,
    rep2_src: VirtAddr,
    rep1_dst: VirtAddr,
    rep2_dst: VirtAddr,
}

fn setup() -> Result<(Comm, Bufs), ViaError> {
    let mut c = Comm::new(
        3,
        3,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        MsgConfig::classic(),
    )?;
    let buf = |c: &mut Comm, rank, len: usize| -> Result<VirtAddr, ViaError> {
        let a = c.alloc_buffer(rank, len)?;
        c.fill_buffer(rank, a, &vec![0u8; len])?;
        Ok(a)
    };
    let b = Bufs {
        req1_src: buf(&mut c, 0, REQ_BYTES)?,
        req2_src: buf(&mut c, 0, REQ_BYTES)?,
        req1_dst: buf(&mut c, 1, REQ_BYTES)?,
        req2_dst: buf(&mut c, 2, REQ_BYTES)?,
        rep1_src: buf(&mut c, 1, ONE_COPY_BYTES)?,
        rep2_src: buf(&mut c, 2, ZERO_COPY_BYTES)?,
        rep1_dst: buf(&mut c, 0, ONE_COPY_BYTES)?,
        rep2_dst: buf(&mut c, 0, ZERO_COPY_BYTES)?,
    };
    Ok((c, b))
}

/// Expected bytes of every stream of the current op.
struct Expected {
    req1: Vec<u8>,
    req2: Vec<u8>,
    rep1: Vec<u8>,
    rep2: Vec<u8>,
}

impl Expected {
    fn new() -> Expected {
        Expected {
            req1: vec![0; REQ_BYTES],
            req2: vec![0; REQ_BYTES],
            rep1: vec![0; ONE_COPY_BYTES],
            rep2: vec![0; ZERO_COPY_BYTES],
        }
    }

    fn generate(&mut self, seed: u64, op: u64) {
        payload_into(seed, op, S_REQ1, &mut self.req1);
        payload_into(seed, op, S_REQ2, &mut self.req2);
        payload_into(seed, op, S_REP1, &mut self.rep1);
        payload_into(seed, op, S_REP2, &mut self.rep2);
    }
}

/// The send that F1 fails: rank 1's one-copy reply to rank 0.
const ONE_COPY_REPLY: &str = "send 1->0";

/// The timed part of one op. Returns the number of messages whose send
/// was accepted, and the first error with the step that raised it.
fn op_body(c: &mut Comm, b: &Bufs, tr: &mut Tracer) -> (u64, Result<(), (&'static str, ViaError)>) {
    let mut sent = 0u64;
    let at = |step: &'static str| move |e: ViaError| (step, e);
    let r = (|| {
        let h1 = tr
            .call("Comm::send", || {
                c.send(0, 1, TAG_REQ, b.req1_src, REQ_BYTES)
            })
            .map_err(at("send 0->1"))?;
        sent += 1;
        let h2 = tr
            .call("Comm::send", || {
                c.send(0, 2, TAG_REQ, b.req2_src, REQ_BYTES)
            })
            .map_err(at("send 0->2"))?;
        sent += 1;
        let n1 = tr
            .call("Comm::recv", || {
                c.recv(1, 0, TAG_REQ, b.req1_dst, REQ_BYTES)
            })
            .map_err(at("recv 0->1"))?;
        let n2 = tr
            .call("Comm::recv", || {
                c.recv(2, 0, TAG_REQ, b.req2_dst, REQ_BYTES)
            })
            .map_err(at("recv 0->2"))?;
        let h3 = tr
            .call("Comm::send", || {
                c.send(1, 0, TAG_REP, b.rep1_src, ONE_COPY_BYTES)
            })
            .map_err(at(ONE_COPY_REPLY))?;
        sent += 1;
        let h4 = tr
            .call("Comm::send", || {
                c.send(2, 0, TAG_REP, b.rep2_src, ZERO_COPY_BYTES)
            })
            .map_err(at("send 2->0"))?;
        sent += 1;
        let n3 = tr
            .call("Comm::recv", || {
                c.recv(0, 1, TAG_REP, b.rep1_dst, ONE_COPY_BYTES)
            })
            .map_err(at("recv 1->0"))?;
        let n4 = tr
            .call("Comm::recv", || {
                c.recv(0, 2, TAG_REP, b.rep2_dst, ZERO_COPY_BYTES)
            })
            .map_err(at("recv 2->0"))?;
        for h in [h1, h2, h3, h4] {
            tr.call("Comm::wait", || c.wait(h)).map_err(at("wait"))?;
        }
        if (n1, n2, n3, n4) != (REQ_BYTES, REQ_BYTES, ONE_COPY_BYTES, ZERO_COPY_BYTES) {
            return Err((
                "lengths",
                ViaError::BadState("received length differs from sent length"),
            ));
        }
        Ok(())
    })();
    (sent, r)
}

/// Compare what each receiver holds with the regenerated payloads.
fn check(c: &mut Comm, b: &Bufs, exp: &Expected, op: u64, m: &mut Measure) -> Result<(), ViaError> {
    let cases: [(usize, VirtAddr, &[u8], &str); 4] = [
        (1, b.req1_dst, &exp.req1, "request 0->1"),
        (2, b.req2_dst, &exp.req2, "request 0->2"),
        (0, b.rep1_dst, &exp.rep1, "one-copy reply 1->0"),
        (0, b.rep2_dst, &exp.rep2, "zero-copy reply 2->0"),
    ];
    for (rank, addr, want, what) in cases {
        let mut got = vec![0u8; want.len()];
        c.read_buffer(rank, addr, &mut got)?;
        if got != want {
            m.violation(format!("rpc_fanout op {op}: {what} payload differs"));
        }
    }
    Ok(())
}

/// One round: fresh communicator, then [`OPS_PER_ROUND`] ops.
pub fn round(seed: u64, m: &mut Measure, tr: &mut Tracer) -> Result<(), String> {
    let t0 = Instant::now();
    let (mut c, b) = setup().map_err(|e| format!("rpc_fanout set-up: {e}"))?;
    m.setup_s.push(t0.elapsed().as_secs_f64());

    let mut exp = Expected::new();
    for op in 0..OPS_PER_ROUND {
        exp.generate(seed, op);
        let fill = c
            .fill_buffer(0, b.req1_src, &exp.req1)
            .and_then(|()| c.fill_buffer(0, b.req2_src, &exp.req2))
            .and_then(|()| c.fill_buffer(1, b.rep1_src, &exp.rep1))
            .and_then(|()| c.fill_buffer(2, b.rep2_src, &exp.rep2));
        fill.map_err(|e| format!("rpc_fanout op {op}: filling inputs: {e}"))?;

        let before = Snap::of_comm(&mut c);
        tr.next_op();
        let start = Instant::now();
        let (sent, r) = op_body(&mut c, &b, tr);
        let end = Instant::now();
        tr.op_span(start, end);
        m.busy += end - start;
        m.attempted += 1;
        let after = Snap::of_comm(&mut c);
        before.charge(&after, m);

        let msgs = after.get("msg.msgs") - before.get("msg.msgs");
        if msgs != sent {
            m.violation(format!(
                "rpc_fanout op {op}: MsgStats counted {msgs} messages, {sent} were sent"
            ));
        }
        match r {
            Ok(()) => {
                m.complete(end - start);
                check(&mut c, &b, &exp, op, m)
                    .map_err(|e| format!("rpc_fanout op {op}: reading back: {e}"))?;
            }
            Err((ONE_COPY_REPLY, ViaError::CqOverrun)) if op == OPS_PER_ROUND - 1 => {
                // F1: the 513th one-copy reply overruns the 1->0 CQ and
                // breaks that VI; this round is over.
                m.fail("CqOverrun");
                let overruns = after.get("via.cq_overruns") - before.get("via.cq_overruns");
                if overruns != 1 {
                    m.violation(format!(
                        "rpc_fanout op {op}: CqOverrun with {overruns} counted overruns"
                    ));
                }
                break;
            }
            Err((step, e)) => {
                m.fail(format!("{e:?}"));
                m.violation(format!(
                    "rpc_fanout op {op}: unexpected failure in {step}: {e}"
                ));
                break;
            }
        }
    }
    m.rounds += 1;
    Ok(())
}
