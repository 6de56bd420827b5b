//! A fixed reference computation owned by the benchmark, timed between
//! ops to gauge how fast the host is running at that moment.
//!
//! The work mixes what the workloads spend their time on: generating,
//! copying and comparing payload bytes, and filling, walking and draining
//! an ordered map, all within one core's caches. It calls nothing of the
//! program, so no change to the program can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::measure::{payload_into, SplitMix};

const BUF_BYTES: usize = 64 * 1024;
const CHUNK: usize = 8 * 1024;
const KEYS: u64 = 2048;
/// Timed repeats per sample; the sample is their median, so the first,
/// cold-cache repeat does not set it.
const REPEATS: usize = 5;

fn work(src: &mut [u8], dst: &mut [u8], pass: u64) -> u64 {
    payload_into(pass, 0, 0, src);
    for (i, chunk) in src.chunks(CHUNK).enumerate() {
        dst[i * CHUNK..(i + 1) * CHUNK].copy_from_slice(chunk);
    }
    let mut acc = u64::from(src == dst);
    let mut g = SplitMix::new(pass);
    let mut map = BTreeMap::new();
    for k in 0..KEYS {
        map.insert(g.next_u64(), k);
    }
    for (&k, &v) in map.range(g.next_u64()..).take(256) {
        acc = acc.wrapping_add(k ^ v);
    }
    while let Some((k, _)) = map.pop_first() {
        acc ^= k;
    }
    acc
}

/// Time the reference computation: the median of a few repeats, in
/// nanoseconds.
pub fn sample_ns() -> u64 {
    let mut src = vec![0u8; BUF_BYTES];
    let mut dst = vec![0u8; BUF_BYTES];
    let mut ns: Vec<u64> = (0..REPEATS as u64)
        .map(|pass| {
            let t = Instant::now();
            black_box(work(black_box(&mut src), black_box(&mut dst), pass));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    ns[REPEATS / 2]
}
