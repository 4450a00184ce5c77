//! Repartitioning seeded by the previous partition.
//!
//! "An additional benefit of the algorithm is the potential reduction in
//! remapping cost since parallel MeTiS, unlike the serial version, uses the
//! previous partition as the initial guess for the repartitioning." When the
//! weights have drifted (the mesh adapted), starting from the old assignment
//! and diffusing load across part boundaries keeps most dual vertices where
//! they were, so the similarity matrix stays strongly diagonal and the
//! remapping volume small.

use crate::graph::Graph;
use crate::kway::{
    capacity_fractions, combined_view, dual_repair, kway_balance, kway_refine_pass, part_ceilings,
    partition_kway_dual, partition_kway_impl, partition_kway_weighted, PartitionConfig,
};
use crate::metrics::{dual_uniform, imbalance_weighted, part_weights, partition_imbalance};
use crate::rng::Rng;

/// Repartition `g` starting from `prev`. Falls back to a fresh multilevel
/// partition if diffusion cannot reach the balance tolerance (e.g. the old
/// partition is pathologically concentrated).
pub fn repartition_kway(g: &Graph, cfg: &PartitionConfig, prev: &[u32]) -> Vec<u32> {
    repartition_kway_impl(g, cfg, prev, None)
}

/// Capacity-weighted repartitioning: diffuse from `prev` toward per-part
/// loads proportional to `caps` (relative processor capacities). Uniform
/// capacities delegate to [`repartition_kway`] exactly.
pub fn repartition_kway_weighted(
    g: &Graph,
    cfg: &PartitionConfig,
    prev: &[u32],
    caps: &[f64],
) -> Vec<u32> {
    match capacity_fractions(caps, cfg.nparts) {
        None => repartition_kway_impl(g, cfg, prev, None),
        Some(frac) => repartition_kway_impl(g, cfg, prev, Some(&frac)),
    }
}

/// Dual-constraint repartitioning: diffuse from `prev` on the combined
/// totals-normalized weight (keeping most vertices where they were), then
/// repair the true weight pair under the max-of-imbalances objective via
/// [`dual_repair`]. A uniform second weight vector delegates to
/// [`repartition_kway_weighted`] bit-exactly.
pub fn repartition_kway_dual(
    g: &Graph,
    w2: &[u64],
    cfg: &PartitionConfig,
    prev: &[u32],
    caps: &[f64],
) -> Vec<u32> {
    assert_eq!(w2.len(), g.n(), "one second weight per vertex");
    if dual_uniform(w2) {
        return repartition_kway_weighted(g, cfg, prev, caps);
    }
    if cfg.nparts == 1 {
        return vec![0; g.n()];
    }
    let frac = capacity_fractions(caps, cfg.nparts);
    let part = repartition_diffuse(&combined_view(g, w2), cfg, prev, frac.as_deref());
    dual_repair(g, w2, cfg, frac.as_deref(), caps, part)
}

/// The serial multilevel kernel in every mode the load balancer uses:
/// seeded from `prev` (repartitioning) or fresh, over one weight vector or
/// two (`w2`, e.g. particle counts), toward capacity-proportional parts.
pub fn multilevel_serial(
    g: &Graph,
    w2: Option<&[u64]>,
    cfg: &PartitionConfig,
    prev: Option<&[u32]>,
    caps: &[f64],
) -> Vec<u32> {
    match (prev, w2) {
        (Some(prev), Some(w2)) => repartition_kway_dual(g, w2, cfg, prev, caps),
        (Some(prev), None) => repartition_kway_weighted(g, cfg, prev, caps),
        (None, Some(w2)) => partition_kway_dual(g, w2, cfg, caps),
        (None, None) => partition_kway_weighted(g, cfg, caps),
    }
}

/// The diffusion core: balance/refine rounds from `prev`, *without* the
/// fresh-partition fallback. The distributed repartitioner's coarsest solve
/// uses this directly — on a coarse graph the achieved imbalance is limited
/// by vertex granularity (a fresh partition cannot beat it either), and a
/// fresh relabeling there would destroy the seed alignment that keeps
/// migration volume and, under heterogeneous capacities, the part↔processor
/// sizing correct. Residual imbalance is repaired during uncoarsening.
pub(crate) fn repartition_diffuse(
    g: &Graph,
    cfg: &PartitionConfig,
    prev: &[u32],
    frac: Option<&[f64]>,
) -> Vec<u32> {
    assert_eq!(prev.len(), g.n());
    if cfg.nparts == 1 {
        return vec![0; g.n()];
    }
    let mut rng = Rng::new(cfg.seed ^ 0x5265_7061); // "Repa"
    let mut part = prev.to_vec();
    let max_w = part_ceilings(g.total_vwgt(), cfg, frac);
    let mut weights = part_weights(g, &part, cfg.nparts);

    // Diffuse: alternate forced balancing with cut refinement.
    for _ in 0..4 {
        kway_balance(g, &mut part, &mut weights, &max_w);
        for _ in 0..cfg.refine_passes {
            if kway_refine_pass(g, &mut part, &mut weights, &max_w, &mut rng) == 0 {
                break;
            }
        }
        if weights.iter().zip(&max_w).all(|(&w, &m)| w <= m) {
            break;
        }
    }
    part
}

pub(crate) fn repartition_kway_impl(
    g: &Graph,
    cfg: &PartitionConfig,
    prev: &[u32],
    frac: Option<&[f64]>,
) -> Vec<u32> {
    let part = repartition_diffuse(g, cfg, prev, frac);
    if cfg.nparts == 1 {
        return part;
    }
    let achieved = match frac {
        None => partition_imbalance(g, &part, cfg.nparts),
        Some(f) => imbalance_weighted(&part_weights(g, &part, cfg.nparts), f),
    };
    if achieved > cfg.imbalance_tol * 1.10 {
        // Diffusion failed; a fresh partition is better than an unbalanced one.
        return partition_kway_impl(g, cfg, frac);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{partition_kway, quality};
    use crate::metrics::migration;

    fn grid(nx: usize, ny: usize) -> Graph<'static> {
        let id = |x: usize, y: usize| y * nx + x;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x > 0 {
                    adjncy.push(id(x - 1, y) as u32);
                }
                if x + 1 < nx {
                    adjncy.push(id(x + 1, y) as u32);
                }
                if y > 0 {
                    adjncy.push(id(x, y - 1) as u32);
                }
                if y + 1 < ny {
                    adjncy.push(id(x, y + 1) as u32);
                }
                xadj.push(adjncy.len() as u32);
            }
        }
        Graph::from_csr(xadj, adjncy, vec![1; nx * ny])
    }

    #[test]
    fn unchanged_weights_mean_no_migration() {
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        let next = repartition_kway(&g, &cfg, &prev);
        let (moved, _) = migration(&g, &prev, &next);
        assert_eq!(moved, 0, "balanced input must not move anything");
    }

    #[test]
    fn drifted_weights_rebalance_with_small_migration() {
        let mut g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        // Refinement happened in part 0's region: weights grow 4×.
        for v in 0..g.n() {
            if prev[v] == 0 {
                g.vwgt.to_mut()[v] = 4;
            }
        }
        let next = repartition_kway(&g, &cfg, &prev);
        let q = quality(&g, &next, 4);
        assert!(
            q.imbalance <= cfg.imbalance_tol * 1.10 + 0.02,
            "imbalance {}",
            q.imbalance
        );
        let (moved, _) = migration(&g, &prev, &next);
        // Fresh partitioning would relabel almost everything; diffusion
        // should keep the majority in place.
        assert!(
            moved < g.n() / 2,
            "diffusive repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn weighted_repartition_drains_a_slow_part() {
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        // Part 0's processor just slowed to half speed; the others are fine.
        let caps = [0.5, 1.0, 1.0, 1.0];
        let next = repartition_kway_weighted(&g, &cfg, &prev, &caps);
        let w = part_weights(&g, &next, 4);
        let eff = imbalance_weighted(&w, &caps);
        assert!(
            eff <= cfg.imbalance_tol * 1.10 + 0.02,
            "capacity-weighted imbalance {eff} (weights {w:?})"
        );
        // Part 0 should end up near its fair share of 1/7 of the load.
        let share = w[0] as f64 / g.total_vwgt() as f64;
        assert!(
            share < 0.22,
            "slow part still carries {share:.3} of the load"
        );
        // Diffusion, not wholesale relabeling.
        let (moved, _) = migration(&g, &prev, &next);
        assert!(
            moved < g.n() / 2,
            "weighted repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn uniform_capacities_match_unweighted_repartition() {
        let mut g = grid(12, 12);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        for v in 0..g.n() {
            if prev[v] == 1 {
                g.vwgt.to_mut()[v] = 3;
            }
        }
        let plain = repartition_kway(&g, &cfg, &prev);
        let weighted = repartition_kway_weighted(&g, &cfg, &prev, &[1.0; 4]);
        assert_eq!(plain, weighted);
    }

    #[test]
    fn dual_repartition_balances_both_and_keeps_most_in_place() {
        use crate::kway::partition_kway_dual;
        use crate::metrics::{imbalance_weighted, weights_of};
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(4);
        let caps = vec![1.0; 4];
        // Particles drift into part 0's region after the initial balance.
        let w2_init = vec![1u64; g.n()];
        let prev = partition_kway_dual(&g, &w2_init, &cfg, &caps);
        let w2: Vec<u64> = (0..g.n())
            .map(|v| if prev[v] == 0 { 3 } else { 1 })
            .collect();
        let next = repartition_kway_dual(&g, &w2, &cfg, &prev, &caps);
        let i1 = imbalance_weighted(&part_weights(&g, &next, 4), &caps);
        let i2 = imbalance_weighted(&weights_of(&w2, &next, 4), &caps);
        assert!(i1 <= 1.25, "dual repartition w1 imbalance {i1}");
        assert!(i2 <= 1.25, "dual repartition w2 imbalance {i2}");
        let (moved, _) = migration(&g, &prev, &next);
        assert!(
            moved < g.n() / 2,
            "dual repartition moved {moved}/{} vertices",
            g.n()
        );
    }

    #[test]
    fn dual_repartition_reduces_to_weighted_when_uniform() {
        let mut g = grid(12, 12);
        let cfg = PartitionConfig::new(4);
        let prev = partition_kway(&g, &cfg);
        for v in 0..g.n() {
            if prev[v] == 2 {
                g.vwgt.to_mut()[v] = 5;
            }
        }
        let caps = [1.0, 2.0, 1.0, 1.0];
        let single = repartition_kway_weighted(&g, &cfg, &prev, &caps);
        let w2 = vec![3u64; g.n()];
        assert_eq!(repartition_kway_dual(&g, &w2, &cfg, &prev, &caps), single);
    }

    #[test]
    fn pathological_start_falls_back_to_fresh() {
        let g = grid(12, 12);
        let cfg = PartitionConfig::new(4);
        // Everything on one part: diffusion has a long way to go; result
        // must still be balanced (possibly via fallback).
        let prev = vec![0u32; g.n()];
        let next = repartition_kway(&g, &cfg, &prev);
        let q = quality(&g, &next, 4);
        assert!(
            q.imbalance <= cfg.imbalance_tol * 1.12,
            "imbalance {}",
            q.imbalance
        );
    }
}
