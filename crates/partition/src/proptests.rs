//! Property tests of the distributed repartitioner internals: parallel
//! heavy-edge matching validity, per-level weight conservation, and the
//! exact-cover/ceiling contract of the final partition — each on random
//! distributed graphs with random ownership.

#![cfg(test)]

use proptest::prelude::*;

use plum_parsim::{spmd, MachineModel};

use crate::distributed::{
    build_level0, contract_distributed, inflow_grant, parallel_hem, DistGraph,
};
use crate::graph::Graph;
use crate::kway::{capacity_fractions, part_ceilings, partition_kway, PartitionConfig};
use crate::metrics::part_weights;
use crate::repartition_distributed;

/// Random connected symmetric graph: a ring plus `extra` chords, with
/// deterministic non-uniform vertex and edge weights derived from the ids
/// (symmetric by construction).
fn random_graph(n: usize, extra: &[(u32, u32)]) -> Graph<'static> {
    use std::collections::BTreeSet;
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for v in 0..n {
        let u = (v + 1) % n;
        adj[v].insert(u as u32);
        adj[u].insert(v as u32);
    }
    for &(a, b) in extra {
        let a = a as usize % n;
        let b = b as usize % n;
        if a != b {
            adj[a].insert(b as u32);
            adj[b].insert(a as u32);
        }
    }
    let ew = |a: u32, b: u32| -> u32 { (a.min(b) * 31 + a.max(b) * 17) % 5 + 1 };
    let mut xadj = vec![0u32];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    for (v, row) in adj.iter().enumerate() {
        for &u in row {
            adjncy.push(u);
            adjwgt.push(ew(v as u32, u));
        }
        xadj.push(adjncy.len() as u32);
    }
    let vwgt: Vec<u64> = (0..n).map(|v| (v as u64 * 7) % 3 + 1).collect();
    let g = Graph {
        xadj: xadj.into(),
        adjncy: adjncy.into(),
        adjwgt: adjwgt.into(),
        vwgt: vwgt.into(),
    };
    g.check().expect("generated graph must be well-formed");
    g
}

/// Rank-major renumbering, mirroring `build_level0`: original id → level-0
/// global id.
fn renumber(owner: &[u32], nranks: usize) -> Vec<u32> {
    let n = owner.len();
    let mut off = vec![0u32; nranks + 1];
    for &o in owner {
        off[o as usize + 1] += 1;
    }
    for r in 0..nranks {
        off[r + 1] += off[r];
    }
    let mut next = off;
    let mut newid = vec![0u32; n];
    for v in 0..n {
        let r = owner[v] as usize;
        newid[v] = next[r];
        next[r] += 1;
    }
    newid
}

/// Global edge weight between owned local vertex `i` and global id `m`.
fn row_weight_to(dg: &DistGraph, i: usize, m: u32) -> u64 {
    dg.row(i)
        .filter(|&(u, _)| u == m)
        .map(|(_, w)| w as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Parallel HEM yields a valid matching: the global mate relation is
    /// involutive (so no vertex is matched twice and both sides of every
    /// cross-rank pair agreed), and every matched pair is an actual edge.
    #[test]
    fn parallel_hem_yields_a_valid_matching(
        n in 24usize..96,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
        level in 0usize..3,
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let gref = &g;
        let ownref = &owner;
        let results = spmd(p, MachineModel::zero(), move |comm| {
            let dg = build_level0(comm.rank(), p, gref, ownref, None);
            let partner = parallel_hem(comm, &dg, 0x9e37, level);
            (dg.off.clone(), partner)
        });
        let off = results[0].value.0.clone();
        let mut mate = vec![u32::MAX; n];
        for r in &results {
            let base = off[r.rank] as usize;
            for (i, &m) in r.value.1.iter().enumerate() {
                mate[base + i] = m;
            }
        }
        let newid = renumber(&owner, p);
        let mut neighbors = vec![Vec::new(); n];
        for v in 0..n {
            for (u, _) in g.edges(v) {
                neighbors[newid[v] as usize].push(newid[u as usize]);
            }
        }
        for v in 0..n {
            let m = mate[v];
            prop_assert!((m as usize) < n, "partner {} out of range at {}", m, v);
            prop_assert_eq!(
                mate[m as usize], v as u32,
                "mate relation not involutive at {} (cross-rank disagreement)", v
            );
            prop_assert!(
                m == v as u32 || neighbors[v].contains(&m),
                "vertex {} matched to non-neighbour {}", v, m
            );
        }
    }

    /// (b) Every coarsening level conserves the total vertex weight, and the
    /// coarse edge-weight total equals the fine total minus the matched
    /// internal edges (each pair's edge appears twice in the symmetric CSR).
    #[test]
    fn coarsening_levels_conserve_vertex_and_edge_weight(
        n in 24usize..96,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let gref = &g;
        let ownref = &owner;
        let results = spmd(p, MachineModel::zero(), move |comm| {
            let mut cur = build_level0(comm.rank(), p, gref, ownref, None);
            // (vertex total, edge total, matched internal edge weight ×2)
            let mut ledger: Vec<(u64, u64, u64)> = Vec::new();
            let vtot = |c: &mut plum_parsim::Comm, dg: &DistGraph| {
                let v: u64 = dg.vwgt.iter().sum();
                let e: u64 = dg.adjwgt.iter().map(|&w| w as u64).sum();
                (c.allreduce_sum_u64(v), c.allreduce_sum_u64(e))
            };
            let (v0, e0) = vtot(comm, &cur);
            ledger.push((v0, e0, 0));
            for level in 0..4 {
                if cur.global_n() <= 8 {
                    break;
                }
                let partner = parallel_hem(comm, &cur, 0x9e37, level);
                let base = cur.off[comm.rank()];
                let mut internal2 = 0u64;
                for (i, &m) in partner.iter().enumerate() {
                    if m != base + i as u32 {
                        internal2 += row_weight_to(&cur, i, m);
                    }
                }
                let internal2 = comm.allreduce_sum_u64(internal2);
                match contract_distributed(comm, &cur, &partner) {
                    Some((coarse, _)) => {
                        cur = coarse;
                        let (v, e) = vtot(comm, &cur);
                        ledger.push((v, e, internal2));
                    }
                    None => break,
                }
            }
            ledger
        });
        let ledger = &results[0].value;
        for r in &results {
            prop_assert_eq!(&r.value, ledger, "rank {} ledger diverged", r.rank);
        }
        prop_assert!(ledger.len() > 1, "no contraction happened");
        for lv in 1..ledger.len() {
            let (v_prev, e_prev, _) = ledger[lv - 1];
            let (v, e, internal2) = ledger[lv];
            prop_assert_eq!(v, v_prev, "vertex weight lost at level {}", lv);
            prop_assert_eq!(
                e, e_prev - internal2,
                "edge weight at level {}: {} fine − {} matched ≠ {} coarse",
                lv, e_prev, internal2, e
            );
        }
    }

    /// (c) The final partition assigns every vertex exactly once, and each
    /// part stays within its capacity ceiling up to one vertex of
    /// granularity slack (the same slack the serial kernel's own tests
    /// allow).
    #[test]
    fn final_partition_is_an_exact_cover_with_bounded_parts(
        n in 60usize..140,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 48),
        owners in proptest::collection::vec(0u32..8, 96),
        p in 2usize..5,
        caps in proptest::collection::vec(0.5f64..2.0, 4),
        use_prev in any::<bool>(),
    ) {
        let g = random_graph(n, &extra);
        let owner: Vec<u32> = (0..n).map(|v| owners[v % owners.len()] % p as u32).collect();
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24; // force the multilevel path on these small graphs
        let prev = partition_kway(&g, &cfg);
        let d = repartition_distributed(
            &g,
            &owner,
            if use_prev { Some(&prev) } else { None },
            &cfg,
            &caps[..p],
            p,
            MachineModel::zero(),
            0.0,
        );
        prop_assert_eq!(d.part.len(), n, "partition must cover every vertex");
        prop_assert!(d.part.iter().all(|&q| (q as usize) < p), "part id out of range");
        let w = part_weights(&g, &d.part, p);
        let frac = capacity_fractions(&caps[..p], p);
        let ceil = part_ceilings(g.total_vwgt(), &cfg, frac.as_deref());
        let maxv = *g.vwgt.iter().max().unwrap();
        for q in 0..p {
            prop_assert!(
                w[q] <= ceil[q] + maxv,
                "part {} weighs {} > ceiling {} + granularity {}",
                q, w[q], ceil[q], maxv
            );
        }
    }

    /// (d) Boundary diffusion is monotone: from an *arbitrary* previous
    /// labelling it never increases the effective (capacity-weighted)
    /// imbalance, never invents part ids, and touches nothing when the
    /// input is already a single part.
    #[test]
    fn sfc_diffusion_never_increases_effective_imbalance(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        wseed in proptest::collection::vec(1u64..9, 160),
        prevseed in proptest::collection::vec(0u32..8, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let keys = &keyseed[..n];
        let vwgt = &wseed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let out = crate::sfc::sfc_diffuse(keys, vwgt, None, &prev, p, &caps[..p]);
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = crate::sfc::sfc_effective_imbalance(vwgt, None, &prev, p, &caps[..p]);
        let after = crate::sfc::sfc_effective_imbalance(vwgt, None, &out, p, &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "diffusion worsened imbalance: {} -> {}",
            before, after
        );
    }

    /// (e) The dual multilevel and repartitioning entry points inherit the
    /// dual greedy ceiling unconditionally: every exit branch of
    /// `dual_repair` returns either a pair within `tol·1.10` or the better
    /// of the graph result and the dual LPT packing, so both constraints
    /// stay under `max(tol·1.10, 2 + s_max·Σc/min(c))` for random weight
    /// pairs, random capacities, and an arbitrary previous labelling.
    #[test]
    fn dual_partitioners_respect_the_dual_ceiling(
        n in 40usize..120,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 32),
        w2seed in proptest::collection::vec(1u64..50, 120),
        prevseed in proptest::collection::vec(0u32..8, 120),
        p in 2usize..6,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
        reseed in any::<bool>(),
    ) {
        use crate::metrics::{imbalance_weighted, weights_of};
        let g = random_graph(n, &extra);
        let w2 = &w2seed[..n];
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24;
        let part = if reseed {
            let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
            crate::repart::repartition_kway_dual(&g, w2, &cfg, &prev, &caps[..p])
        } else {
            crate::kway::partition_kway_dual(&g, w2, &cfg, &caps[..p])
        };
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&q| (q as usize) < p));
        let t1 = g.total_vwgt();
        let t2: u64 = w2.iter().sum();
        let s_max = (0..n)
            .map(|v| g.vwgt[v] as f64 / t1 as f64 + w2[v] as f64 / t2 as f64)
            .fold(0.0, f64::max);
        let csum: f64 = caps[..p].iter().sum();
        let cmin = caps[..p].iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = (cfg.imbalance_tol * 1.10).max(2.0 + s_max * csum / cmin) + 1e-6;
        let i1 = imbalance_weighted(&part_weights(&g, &part, p), &caps[..p]);
        let i2 = imbalance_weighted(&weights_of(w2, &part, p), &caps[..p]);
        prop_assert!(i1 <= bound, "constraint 1 imbalance {} beyond ceiling {}", i1, bound);
        prop_assert!(i2 <= bound, "constraint 2 imbalance {} beyond ceiling {}", i2, bound);
    }

    /// (f) Every dual kernel reduces *bit-exactly* to its single-constraint
    /// counterpart when the second weight vector is uniform — the session
    /// engine can therefore route everything through the dual entry points
    /// without perturbing single-constraint goldens.
    #[test]
    fn dual_kernels_reduce_bit_exactly_when_uniform(
        n in 30usize..100,
        extra in proptest::collection::vec((0u32..1024, 0u32..1024), 24),
        keyseed in proptest::collection::vec(any::<u64>(), 100),
        prevseed in proptest::collection::vec(0u32..8, 100),
        c in 1u64..9,
        p in 2usize..6,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let g = random_graph(n, &extra);
        let w2 = vec![c; n];
        let keys = &keyseed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let mut cfg = PartitionConfig::new(p);
        cfg.coarsen_to = 24;
        prop_assert_eq!(
            crate::sfc::sfc_diffuse(keys, &g.vwgt, Some(&w2), &prev, p, &caps[..p]),
            crate::sfc::sfc_diffuse(keys, &g.vwgt, None, &prev, p, &caps[..p])
        );
        prop_assert_eq!(
            crate::kway::partition_kway_dual(&g, &w2, &cfg, &caps[..p]),
            crate::kway::partition_kway_weighted(&g, &cfg, &caps[..p])
        );
        prop_assert_eq!(
            crate::repart::repartition_kway_dual(&g, &w2, &cfg, &prev, &caps[..p]),
            crate::repart::repartition_kway_weighted(&g, &cfg, &prev, &caps[..p])
        );
    }

    /// (g) Dual boundary diffusion is monotone in the *binding* constraint:
    /// from an arbitrary previous labelling it never increases the
    /// max-of-imbalances objective and never invents part ids.
    #[test]
    fn dual_sfc_diffusion_never_increases_the_binding_imbalance(
        keyseed in proptest::collection::vec(any::<u64>(), 160),
        w1seed in proptest::collection::vec(1u64..9, 160),
        w2seed in proptest::collection::vec(1u64..9, 160),
        prevseed in proptest::collection::vec(0u32..8, 160),
        n in 30usize..160,
        p in 2usize..9,
        caps in proptest::collection::vec(0.5f64..2.0, 8),
    ) {
        let keys = &keyseed[..n];
        let w1 = &w1seed[..n];
        let w2 = &w2seed[..n];
        let prev: Vec<u32> = (0..n).map(|v| prevseed[v] % p as u32).collect();
        let out = crate::sfc::sfc_diffuse(keys, w1, Some(w2), &prev, p, &caps[..p]);
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&q| (q as usize) < p));
        let before = crate::sfc::sfc_effective_imbalance(w1, Some(w2), &prev, p, &caps[..p]);
        let after = crate::sfc::sfc_effective_imbalance(w1, Some(w2), &out, p, &caps[..p]);
        prop_assert!(
            after <= before + 1e-9,
            "dual diffusion worsened the binding imbalance: {} -> {}",
            before, after
        );
    }
}

/// The inflow allocation as a rank-order greedy loop: rank 0 takes what it
/// asks for out of each part's headroom, rank 1 takes from what is left, and
/// so on. `grants[r][q]` is rank `r`'s grant for part `q`.
fn greedy_grants(demands: &[Vec<u64>], headroom: &[u64]) -> Vec<Vec<u64>> {
    let mut grants = vec![vec![0u64; headroom.len()]; demands.len()];
    for (q, &h) in headroom.iter().enumerate() {
        let mut avail = h;
        for (r, d) in demands.iter().enumerate() {
            let grant = d[q].min(avail);
            avail -= grant;
            grants[r][q] = grant;
        }
    }
    grants
}

/// Draw from one of four magnitude classes: zero, small, full range, and
/// within 2^16 of `u64::MAX`.
fn magnitude(x: u64) -> u64 {
    match x & 3 {
        0 => 0,
        1 => (x >> 2) % 1000,
        2 => x,
        _ => u64::MAX - ((x >> 2) & 0xFFFF),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (h) The prefix-sum inflow grant, `min(d_r, H − Σ_{s<r} d_s)` with a
    /// saturating prefix, equals the rank-order greedy allocation for every
    /// rank and part, including zero headroom, headroom near `u64::MAX` and
    /// demands whose sum overflows.
    #[test]
    fn prefix_sum_grant_equals_rank_order_greedy(
        p in 1usize..301,
        nparts in 1usize..301,
        seed in any::<u64>(),
    ) {
        let mut rng = crate::rng::Rng::new(seed);
        let demands: Vec<Vec<u64>> = (0..p)
            .map(|_| (0..nparts).map(|_| magnitude(rng.next_u64())).collect())
            .collect();
        let headroom: Vec<u64> = (0..nparts).map(|_| magnitude(rng.next_u64())).collect();
        let greedy = greedy_grants(&demands, &headroom);
        let mut before = vec![0u64; nparts];
        for (r, d) in demands.iter().enumerate() {
            for q in 0..nparts {
                let grant = inflow_grant(d[q], headroom[q], before[q]);
                prop_assert_eq!(
                    grant, greedy[r][q],
                    "rank {} part {}: demand {} headroom {} before {}",
                    r, q, d[q], headroom[q], before[q]
                );
                before[q] = before[q].saturating_add(d[q]);
            }
        }
    }
}
