//! Space-filling-curve boundary diffusion: the cheap, mild-imbalance end of
//! the balancer portfolio.
//!
//! In the mold of Cubism's diffusion-based rebalancing: elements carry a
//! space-filling-curve key (from `plum_mesh::sfc`), the previous partition
//! is read as ranges along the key order, and mild imbalance is repaired by
//! *shifting range boundaries* one vertex at a time instead of
//! re-partitioning. No graph, no coarsening — cost is a local sweep plus
//! O(nparts) words of collective traffic.
//!
//! The SPMD body follows the same contract as
//! [`crate::distributed::repartition_body`]: all control flow branches on
//! replicated data only, so the partition is a deterministic function of
//! `(keys, weights, prev, nparts, caps)` and independent of the machine
//! model; virtual time comes from per-vertex compute charges and real
//! message traffic (alltoallv of moved vertices, allreduce'd part weights).

use plum_parsim::{makespan, spmd, words_for_bytes, Comm, MachineModel, TraceLog};

use crate::distributed::DistPartition;
use crate::metrics::{dual_uniform, imbalance_weighted, weights_of};

/// Boundary-shift sweeps in the diffusion repair. Each sweep walks the curve
/// once; loads converge geometrically, so a handful suffices.
const DIFFUSE_PASSES: usize = 8;

/// Bytes per (key, id, weight) triple in the distributed key exchange.
const TRIPLE_BYTES: usize = 20;

/// Bytes per (key, id, weight, weight2) quad in the dual-constraint
/// exchange.
const DUAL_TRIPLE_BYTES: usize = 28;

/// Curve order: vertex indices sorted by `(key, index)`. The index
/// tie-break makes the order total even when centroids collide on the
/// quantization lattice.
pub fn sfc_order(keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&v| (keys[v as usize], v));
    order
}

/// Per-part capacity fractions (summing to 1). A degenerate capacity vector
/// falls back to uniform — the same defined-result policy as
/// [`imbalance_weighted`].
fn cap_fractions(caps: &[f64], nparts: usize) -> Vec<f64> {
    assert_eq!(caps.len(), nparts, "one capacity per part");
    let sum: f64 = caps.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![1.0 / nparts as f64; nparts];
    }
    caps.iter().map(|&c| c / sum).collect()
}

/// Shift range boundaries along the curve until no single-vertex move
/// lowers the effective load of the pair it touches. Each accepted move
/// strictly reduces `max(load_a, load_b)` for the two parts at one boundary
/// and leaves every other part untouched, so the global effective imbalance
/// is monotonically non-increasing — diffusion can only repair.
///
/// With a second weight vector `w2` (e.g. particle counts) a move is judged
/// by the *binding* constraint: the worse of the two totals-normalized loads
/// over the part's capacity fraction, so the max-of-imbalances objective is
/// what never increases. `None` or a uniform `w2` judges `w1` alone, so the
/// single-constraint result is reproduced bit-exactly.
pub fn sfc_diffuse(
    keys: &[u64],
    w1: &[u64],
    w2: Option<&[u64]>,
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
) -> Vec<u32> {
    assert_eq!(keys.len(), w1.len(), "one weight per vertex");
    assert_eq!(keys.len(), prev.len(), "one previous part per vertex");
    let frac = cap_fractions(caps, nparts);
    let order = sfc_order(keys);
    match w2.filter(|w2| !dual_uniform(w2)) {
        None => diffuse_sweep(&order, [w1], prev, nparts, |x, p| x[0] as f64 / frac[p]),
        Some(w2) => {
            assert_eq!(keys.len(), w2.len(), "one second weight per vertex");
            let norm = |w: &[u64]| match w.iter().sum::<u64>() {
                0 => 1.0,
                t => t as f64,
            };
            let (n1, n2) = (norm(w1), norm(w2));
            diffuse_sweep(&order, [w1, w2], prev, nparts, |x, p| {
                (x[0] as f64 / n1).max(x[1] as f64 / n2) / frac[p]
            })
        }
    }
}

/// The boundary sweeps of [`sfc_diffuse`] over `N` weight vectors: `load`
/// maps a part's per-constraint totals to its effective load.
fn diffuse_sweep<const N: usize>(
    order: &[u32],
    ws: [&[u64]; N],
    prev: &[u32],
    nparts: usize,
    load: impl Fn(&[u64; N], usize) -> f64,
) -> Vec<u32> {
    let mut part = prev.to_vec();
    let mut acc = vec![[0u64; N]; nparts];
    for v in 0..part.len() {
        for k in 0..N {
            acc[part[v] as usize][k] += ws[k][v];
        }
    }
    let plus = |x: [u64; N], v: usize| -> [u64; N] { std::array::from_fn(|k| x[k] + ws[k][v]) };
    let minus = |x: [u64; N], v: usize| -> [u64; N] { std::array::from_fn(|k| x[k] - ws[k][v]) };
    for pass in 0..DIFFUSE_PASSES {
        let mut moved = false;
        let idx: Box<dyn Iterator<Item = usize>> = if pass % 2 == 0 {
            Box::new(0..order.len().saturating_sub(1))
        } else {
            Box::new((0..order.len().saturating_sub(1)).rev())
        };
        for i in idx {
            let v = order[i] as usize;
            let u = order[i + 1] as usize;
            let (a, b) = (part[v] as usize, part[u] as usize);
            if a == b {
                continue;
            }
            let old = load(&acc[a], a).max(load(&acc[b], b));
            // Candidate 1: pull v across the boundary into b.
            let fwd = load(&minus(acc[a], v), a).max(load(&plus(acc[b], v), b));
            // Candidate 2: pull u back across into a.
            let back = load(&plus(acc[a], u), a).max(load(&minus(acc[b], u), b));
            if fwd <= back && fwd < old {
                acc[a] = minus(acc[a], v);
                acc[b] = plus(acc[b], v);
                part[v] = b as u32;
                moved = true;
            } else if back < fwd && back < old {
                acc[a] = plus(acc[a], u);
                acc[b] = minus(acc[b], u);
                part[u] = a as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    part
}

/// Rank that owns part `p` when `nparts` parts are folded onto `nranks`
/// ranks (block mapping, the same fold the engine uses).
fn part_home(p: usize, nparts: usize, nranks: usize) -> usize {
    p * nranks / nparts
}

/// Multiplier of part `q` in the part-weight checksum: fixed and odd, so
/// every part's weight reaches the checksum through a bijection mod 2^64.
fn checksum_coeff(q: usize) -> u64 {
    (q as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Linear checksum `Σ_q c_q·w_q` (wrapping) of the part weights that the
/// vertices with `mine(v)` contribute. Linear, so the ranks' checksums sum
/// to the checksum of the global part weights.
fn weight_checksum(w: &[u64], part: &[u32], mine: impl Fn(usize) -> bool) -> u64 {
    (0..part.len()).filter(|&v| mine(v)).fold(0u64, |acc, v| {
        acc.wrapping_add(checksum_coeff(part[v] as usize).wrapping_mul(w[v]))
    })
}

/// Shared tail of the SPMD body: send each locally-owned vertex that moved
/// to its destination part's home rank, then cross-check the replicated
/// result against the ranks' own rows through a one-word linear checksum of
/// the part weights per constraint, summed up the reduction tree. A second
/// weight vector widens the per-item payload to (key, id, w1, w2) and adds
/// its checksum word; without one, the traffic — and thus the virtual time
/// — is the single-constraint protocol's.
fn exchange_and_check(
    comm: &mut Comm,
    w1: &[u64],
    w2: Option<&[u64]>,
    owner: &[u32],
    prev: &[u32],
    part: &[u32],
    nparts: usize,
) {
    let rank = comm.rank();
    let nranks = comm.nranks();
    let item_bytes = if w2.is_some() {
        DUAL_TRIPLE_BYTES
    } else {
        TRIPLE_BYTES
    };
    let mut counts = vec![0u64; nranks];
    for v in 0..part.len() {
        // Unmoved vertices cost no traffic in diffusion.
        if owner[v] as usize == rank && prev[v] != part[v] {
            counts[part_home(part[v] as usize, nparts, nranks)] += 1;
        }
    }
    let items: Vec<(usize, u64, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(dst, &c)| (dst, words_for_bytes(item_bytes * c as usize), c))
        .collect();
    let received = comm.alltoallv_sparse(items);
    let received_total: u64 = received.iter().map(|&(_, c)| c).sum();
    let weights: Vec<&[u64]> = std::iter::once(w1).chain(w2).collect();
    let local: Vec<u64> = weights
        .iter()
        .map(|w| weight_checksum(w, part, |v| owner[v] as usize == rank))
        .collect();
    let global = comm.allreduce_sum_u64s(local);
    for (k, w) in weights.iter().enumerate() {
        assert_eq!(
            global[k],
            weight_checksum(w, part, |_| true),
            "constraint {} part-weight checksum diverged",
            k + 1
        );
    }
    // Every triple sent somewhere was received by exactly one home rank.
    let sent_here: u64 = comm.allreduce_sum_u64(counts.iter().sum::<u64>());
    let recv_all: u64 = comm.allreduce_sum_u64(received_total);
    assert_eq!(sent_here, recv_all, "key exchange lost triples");
}

/// SPMD body of the boundary-diffusion repair: only the boundary sweep is
/// charged and only *moved* vertices cost wire traffic — the reason this is
/// the cheap path of the portfolio. Returns the same partition
/// [`sfc_diffuse`] computes serially — bit-identical on every rank and under
/// every machine model. `w2` works as in [`sfc_diffuse`]; a uniform second
/// vector leaves the single-constraint traffic untouched.
///
/// The arithmetic is replicated (every rank computes the identical answer
/// from identical inputs), so a caller driving thousands of ranks can
/// compute it once on the host and pass it as `precomputed`. The *virtual*
/// compute charge is taken either way, so modeled times do not depend on
/// who did the arithmetic; debug builds cross-check the hoisted value
/// against a local recompute.
#[allow(clippy::too_many_arguments)]
pub fn sfc_diffuse_body(
    comm: &mut Comm,
    keys: &[u64],
    w1: &[u64],
    w2: Option<&[u64]>,
    owner: &[u32],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
    vertex_units: f64,
    precomputed: Option<&[u32]>,
) -> Vec<u32> {
    let w2 = w2.filter(|w2| !dual_uniform(w2));
    let compute = || sfc_diffuse(keys, w1, w2, prev, nparts, caps);
    let part = match precomputed {
        Some(part) => {
            debug_assert_eq!(
                part,
                &compute()[..],
                "host-precomputed partition diverges from the replicated arithmetic"
            );
            part.to_vec()
        }
        None => compute(),
    };
    // Boundary sweeps touch each local vertex a handful of times; charge a
    // quarter of a full key sort's per-vertex rate.
    let rank = comm.rank();
    let n_local = owner.iter().filter(|&&o| o as usize == rank).count();
    let units = vertex_units * n_local.div_ceil(4) as f64;
    if units > 0.0 {
        comm.compute(units);
    }
    exchange_and_check(comm, w1, w2, owner, prev, &part, nparts);
    part
}

/// Standalone harness for [`sfc_diffuse_body`]: its own `nranks`-rank SPMD
/// session, mirroring [`crate::repartition_distributed`]. Panics if ranks
/// disagree on the result.
#[allow(clippy::too_many_arguments)]
pub fn sfc_distributed(
    keys: &[u64],
    vwgt: &[u64],
    owner: &[u32],
    prev: &[u32],
    nparts: usize,
    caps: &[f64],
    nranks: usize,
    model: MachineModel,
    vertex_units: f64,
) -> DistPartition {
    // The replicated arithmetic runs once here instead of once per rank.
    let hoisted = sfc_diffuse(keys, vwgt, None, prev, nparts, caps);
    let hoisted = &hoisted;
    let results = spmd(nranks, model, move |comm| {
        comm.phase("partition", |c| {
            sfc_diffuse_body(
                c,
                keys,
                vwgt,
                None,
                owner,
                prev,
                nparts,
                caps,
                vertex_units,
                Some(hoisted),
            )
        })
    });
    let part = results[0].value.clone();
    for r in &results {
        assert_eq!(r.value, part, "rank {} disagrees on the partition", r.rank);
    }
    DistPartition {
        part,
        makespan: makespan(&results),
        trace: TraceLog::from_results(&results),
    }
}

/// Effective (capacity-weighted) imbalance of a partition given per-vertex
/// weights — the quantity diffusion is contracted never to increase. With a
/// second weight vector it is the worse of the two per-constraint
/// imbalances.
pub fn sfc_effective_imbalance(
    w1: &[u64],
    w2: Option<&[u64]>,
    part: &[u32],
    nparts: usize,
    caps: &[f64],
) -> f64 {
    let imb1 = imbalance_weighted(&weights_of(w1, part, nparts), caps);
    w2.map_or(imb1, |w2| {
        imb1.max(imbalance_weighted(&weights_of(w2, part, nparts), caps))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic keys: already curve-ordered by index.
    fn line_keys(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    /// A contiguous labelling whose part 0 holds twice its share.
    fn skewed_seed(n: usize) -> Vec<u32> {
        (0..n)
            .map(|v| (v * 5 / n).saturating_sub(1) as u32)
            .collect()
    }

    #[test]
    fn diffusion_repairs_a_shifted_boundary() {
        let keys = line_keys(40);
        let vwgt = vec![1u64; 40];
        // Badly cut: 30/10 instead of 20/20.
        let prev: Vec<u32> = (0..40).map(|v| u32::from(v >= 30)).collect();
        let caps = [1.0, 1.0];
        let before = sfc_effective_imbalance(&vwgt, None, &prev, 2, &caps);
        let part = sfc_diffuse(&keys, &vwgt, None, &prev, 2, &caps);
        let after = sfc_effective_imbalance(&vwgt, None, &part, 2, &caps);
        assert!(
            after < before,
            "diffusion failed to repair: {before} -> {after}"
        );
        assert!(
            (after - 1.0).abs() < 1e-9,
            "perfectly splittable: got {after}"
        );
    }

    #[test]
    fn dual_diffusion_repairs_the_binding_constraint() {
        let keys = line_keys(60);
        let w1 = vec![1u64; 60];
        // Second constraint interleaved along the curve (every 6th vertex),
        // so a contiguous split balancing both constraints exists.
        let w2: Vec<u64> = (0..60u64)
            .map(|v| if v % 6 == 0 { 20 } else { 1 })
            .collect();
        let caps = [1.0, 1.0];
        // Badly cut seed: 40/20 instead of 30/30 — both constraints skewed.
        let prev: Vec<u32> = (0..60).map(|v| u32::from(v >= 40)).collect();
        let before = sfc_effective_imbalance(&w1, Some(&w2), &prev, 2, &caps);
        assert!(before > 1.3, "seed should be imbalanced: {before}");
        let part = sfc_diffuse(&keys, &w1, Some(&w2), &prev, 2, &caps);
        let after = sfc_effective_imbalance(&w1, Some(&w2), &part, 2, &caps);
        assert!(after < before, "dual diffusion failed: {before} -> {after}");
        assert!(after < 1.1, "binding constraint still loose: {after}");
    }

    #[test]
    fn uniform_second_weights_reduce_to_single() {
        let keys: Vec<u64> = (0..80u64).map(|v| v.wrapping_mul(0x2545) % 4096).collect();
        let w1: Vec<u64> = (0..80u64).map(|v| 1 + v % 5).collect();
        let caps = [1.0, 2.0, 1.0];
        let prev: Vec<u32> = (0..80).map(|v| (v * 3 / 80) as u32).collect();
        for c in [1u64, 9] {
            let w2 = vec![c; 80];
            assert_eq!(
                sfc_diffuse(&keys, &w1, Some(&w2), &prev, 3, &caps),
                sfc_diffuse(&keys, &w1, None, &prev, 3, &caps)
            );
        }
    }

    #[test]
    fn dual_body_matches_serial_and_is_model_invariant() {
        let n = 240;
        let keys = line_keys(n);
        let w1: Vec<u64> = (0..n as u64).map(|v| 1 + v % 4).collect();
        let w2: Vec<u64> = (0..n as u64)
            .map(|v| if v % 29 == 0 { 40 } else { 1 })
            .collect();
        let caps = vec![1.0; 4];
        let owner: Vec<u32> = (0..n).map(|v| (v * 4 / n) as u32).collect();
        let prev = skewed_seed(n);
        let serial = sfc_diffuse(&keys, &w1, Some(&w2), &prev, 4, &caps);
        for model in [MachineModel::sp2(), MachineModel::zero()] {
            let results = spmd(4, model, |comm| {
                comm.phase("partition", |c| {
                    sfc_diffuse_body(
                        c,
                        &keys,
                        &w1,
                        Some(&w2),
                        &owner,
                        &prev,
                        4,
                        &caps,
                        16.0,
                        None,
                    )
                })
            });
            for r in &results {
                assert_eq!(
                    r.value, serial,
                    "dual diffusion body diverged on rank {}",
                    r.rank
                );
            }
        }
    }

    #[test]
    fn weight_checksum_is_linear_over_ranks_and_sees_one_moved_vertex() {
        let n = 97;
        let w: Vec<u64> = (0..n as u64).map(|v| 1 + v * v % 11).collect();
        let mut part: Vec<u32> = (0..n).map(|v| (v % 7) as u32).collect();
        let owner: Vec<u32> = (0..n).map(|v| (v * 5 / n) as u32).collect();
        let global = weight_checksum(&w, &part, |_| true);
        let summed = (0..5u32)
            .map(|r| weight_checksum(&w, &part, |v| owner[v] == r))
            .fold(0u64, u64::wrapping_add);
        assert_eq!(
            summed, global,
            "per-rank checksums must sum to the global one"
        );
        part[40] = (part[40] + 1) % 7;
        assert_ne!(weight_checksum(&w, &part, |_| true), global);
    }

    #[test]
    fn distributed_diffusion_matches_serial_and_is_model_invariant() {
        let n = 300;
        let keys = line_keys(n);
        let vwgt: Vec<u64> = (0..n as u64).map(|v| 1 + v % 3).collect();
        let caps = vec![1.0; 4];
        let owner: Vec<u32> = (0..n).map(|v| (v * 4 / n) as u32).collect();
        let prev = skewed_seed(n);
        let serial = sfc_diffuse(&keys, &vwgt, None, &prev, 4, &caps);
        let run =
            |model, units| sfc_distributed(&keys, &vwgt, &owner, &prev, 4, &caps, 4, model, units);
        let d = run(MachineModel::sp2(), 16.0);
        let zero = run(MachineModel::zero(), 0.0);
        assert_eq!(d.part, serial, "diffusion SPMD body diverged from serial");
        assert_eq!(zero.part, serial, "partition depends on the machine model");
        assert!(
            d.makespan > zero.makespan,
            "sp2 run should cost virtual time"
        );
    }
}
