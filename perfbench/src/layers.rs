//! Snapshots of every layer's public counters, so each timed op can be
//! charged the counter deltas it caused (and nothing the checks between
//! ops cause).

use std::collections::BTreeMap;

use msg::Comm;
use via::ViaSystem;

use crate::measure::Measure;

/// Named counters, summed over nodes.
#[derive(Default)]
pub struct Snap(BTreeMap<&'static str, u64>);

impl Snap {
    /// simmem, vialock registry and via NIC counters of every node.
    pub fn of_system(sys: &ViaSystem) -> Snap {
        let mut s = Snap::default();
        for n in 0..sys.len() {
            let node = sys.node(n);
            let mm = node.kernel.mm_stats();
            let reg = node.registry.snapshot();
            let nic = node.nic.stats;
            s.add("simmem.minor_faults", mm.minor_faults);
            s.add("simmem.major_faults", mm.major_faults);
            s.add("simmem.swap_outs", mm.swap_outs);
            s.add("simmem.reclaim_skips", mm.skipped_pg_locked);
            s.add("vialock.pages_pinned", reg.pages_pinned);
            s.add("vialock.pin_retries", reg.pin_retries);
            s.add("via.dma_ops", nic.dma_ops);
            s.add("via.tlb_hits", nic.tlb_hits);
            s.add("via.tlb_misses", nic.tlb_misses);
            s.add("via.payload_allocs", nic.payload_allocs);
            s.add("via.cq_overruns", nic.cq_overruns);
            s.add("via.atomic_cas", nic.atomic_cas);
        }
        s
    }

    /// [`Snap::of_system`] plus the message layer's counters and its
    /// per-node registration caches.
    pub fn of_comm(c: &mut Comm) -> Snap {
        let mut s = Snap::of_system(c.system_mut());
        for n in 0..c.system_mut().len() {
            let cs = c.cache_stats(n);
            s.add("vialock.cache_hits", cs.hits + cs.covering_hits);
            s.add(
                "vialock.cache_lookups",
                cs.hits + cs.covering_hits + cs.misses,
            );
        }
        s.add("msg.msgs", c.stats.msgs());
        s.add("msg.copy_bytes", c.stats.copy_bytes);
        s.add("msg.control_writes", c.stats.control_writes);
        s
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Charge `after - self` to the run's counters.
    pub fn charge(&self, after: &Snap, m: &mut Measure) {
        for (&name, &v) in &after.0 {
            m.counters.add(name, v - self.get(name));
        }
    }
}
