//! The per-cycle correctness oracle and the determinism record. Both run
//! outside the timed region.

use plum_core::{CycleReport, Plum};

/// Outcome of one attempted cycle, plus the values the end-to-end metrics
/// and the determinism record need from it.
pub struct CycleRecord {
    /// Simulated makespan of the cycle (`times.total() - times.reassign`:
    /// the mapper's host seconds are wall clock, not virtual).
    pub virtual_s: f64,
    /// The adopted assignment's capacity-weighted imbalance over the
    /// post-cycle estimated-cost loads.
    pub imbalance: f64,
    /// Deterministic fingerprint of the cycle's outputs.
    pub hash: u64,
}

/// Check one cycle's invariants and record it. `Err` carries the first
/// violated invariant.
pub fn check_cycle(report: &CycleReport, plum: &Plum) -> Result<CycleRecord, String> {
    let session = &report.traces.session;
    let violations = plum_parsim::check_protocol(session);
    if !violations.is_empty() {
        return Err(format!(
            "session trace violates the SPMD protocol: {:?}",
            &violations[..violations.len().min(3)]
        ));
    }

    // compute + wire + wait + injected == elapsed, per rank.
    let summary = session.summary();
    for (rank, events) in session.events.iter().enumerate() {
        let elapsed = events.iter().map(|e| e.end_time()).fold(0.0, f64::max);
        let accounted = summary.ranks[rank].total();
        if (accounted - elapsed).abs() > 1e-9 * elapsed.max(1.0) {
            return Err(format!(
                "rank {rank}: accounted {accounted} s != elapsed {elapsed} s"
            ));
        }
    }

    // Per-rank loads sum to the leaf count.
    let (wcomp, _) = plum.am.weights();
    let per_rank = plum.engine.per_rank_load(&wcomp);
    let total: u64 = per_rank.iter().sum();
    if total != plum.am.mesh.n_elems() as u64 {
        return Err(format!(
            "per-rank loads sum to {total}, mesh has {} leaves",
            plum.am.mesh.n_elems()
        ));
    }

    // Effective imbalance of the load the balancer saw: the leaf counts
    // scaled by the estimated per-root cost (plain leaf counts under a
    // uniform cost field).
    let imbalance = report.effective_imbalance(&plum.engine.per_rank_load(&plum.dual.wcomp));
    let d = &report.decision;
    let finite = [imbalance, d.imbalance_old, d.imbalance_new]
        .into_iter()
        .chain(d.imbalance_old2)
        .chain(d.imbalance_new2)
        .all(f64::is_finite);
    if !finite {
        return Err(format!(
            "non-finite imbalance: effective {imbalance}, decision {} -> {}",
            d.imbalance_old, d.imbalance_new
        ));
    }
    if !report.capacity.iter().all(|c| c.is_finite() && *c > 0.0) {
        return Err(format!(
            "non-finite or non-positive capacity: {:?}",
            report.capacity
        ));
    }

    let t = &report.times;
    let mut h = Fnv::new();
    for x in [
        t.solver,
        t.marking,
        t.partition,
        d.reassign_comm_time,
        t.remap,
        t.subdivide,
        t.coarsen,
        d.imbalance_new,
        imbalance,
    ] {
        h.write(&x.to_bits().to_le_bytes());
    }
    for n in [
        summary.total_msgs(),
        summary.total_words(),
        report.counts.elements as u64,
        u64::from(d.accepted),
    ] {
        h.write(&n.to_le_bytes());
    }
    h.write(d.method.map_or("none", |m| m.name()).as_bytes());

    Ok(CycleRecord {
        virtual_s: t.total() - t.reassign,
        imbalance,
        hash: h.finish(),
    })
}

/// FNV-1a, 64-bit: a stable hash whose value does not depend on the
/// toolchain (unlike `DefaultHasher`), so digests compare across builds.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a round: the per-cycle fingerprints in order.
pub fn round_digest(hashes: &[u64]) -> String {
    let mut h = Fnv::new();
    for x in hashes {
        h.write(&x.to_le_bytes());
    }
    format!("{:016x}", h.finish())
}
