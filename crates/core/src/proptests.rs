//! Property-based tests of incremental ownership maintenance: after any
//! sequence of random migrations and refinements, the incrementally updated
//! [`Ownership`] must be exactly equivalent to a from-scratch
//! [`Ownership::build`] on the current mesh and assignment.

#![cfg(test)]

use proptest::prelude::*;

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_mesh::generate::unit_box_mesh;
use plum_mesh::EdgeId;
use plum_solver::WaveField;

use crate::framework::Plum;
use crate::marking::Ownership;
use crate::{select_method, select_method_dual, BalanceMethod, PlumConfig};

/// Assert `own` (incrementally maintained) equals a fresh build.
fn assert_equivalent(own: &Ownership, am: &AdaptiveMesh, proc: &[u32], nproc: usize) {
    let fresh = Ownership::build(am, proc, nproc);
    for r in 0..nproc {
        let mut a = own.elems_of_rank[r].clone();
        let mut b = fresh.elems_of_rank[r].clone();
        a.sort_unstable_by_key(|e| e.idx());
        b.sort_unstable_by_key(|e| e.idx());
        assert_eq!(a, b, "element set of rank {r} diverged");
        assert_eq!(
            own.shared_edges_of_rank(r as u32),
            fresh.shared_edges_of_rank(r as u32),
            "shared-edge count of rank {r} diverged"
        );
    }
    for slot in 0..am.mesh.edge_slots() {
        let a: Vec<u32> = own.ranks_of(EdgeId(slot as u32)).collect();
        let b: Vec<u32> = fresh.ranks_of(EdgeId(slot as u32)).collect();
        assert_eq!(a, b, "rank list of edge slot {slot} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_ownership_matches_from_scratch_build(
        nproc in 1usize..5,
        assign in proptest::collection::vec(0u32..64, 64),
        steps in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(0u32..64, 16)),
            1..4,
        ),
    ) {
        let mut am = AdaptiveMesh::new(unit_box_mesh(2));
        let mut proc: Vec<u32> = (0..am.n_roots())
            .map(|r| assign[r % assign.len()] % nproc as u32)
            .collect();
        let mut own = Ownership::build(&am, &proc, nproc);

        for (is_refine, data) in &steps {
            if *is_refine {
                // Pseudo-random edge marking, legalized, then refined; the
                // incremental path replays the change log.
                let mut marks = EdgeMarks::new(&am.mesh);
                for (i, e) in am.mesh.edges().collect::<Vec<_>>().into_iter().enumerate() {
                    if (data[i % data.len()] + i as u32).is_multiple_of(5) {
                        marks.mark(e);
                    }
                }
                am.upgrade_to_fixpoint(&mut marks);
                let (_, delta) = am.refine_with_delta(&marks, &mut []);
                own.apply_refinement(&delta, &proc);
            } else {
                // Migrate a pseudo-random subset of roots to new ranks.
                let new: Vec<u32> = proc
                    .iter()
                    .enumerate()
                    .map(|(r, &p)| {
                        if data[r % data.len()] % 3 == 0 {
                            data[(r + 1) % data.len()] % nproc as u32
                        } else {
                            p
                        }
                    })
                    .collect();
                own.apply_migration(&am, &proc, &new);
                proc = new;
            }
            assert_equivalent(&own, &am, &proc, nproc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Schedule perturbation changes only virtual times, never outcomes:
    /// under any link-jitter seed, two engine cycles produce bit-identical
    /// discrete results (mesh counts, marking sweeps, balance decisions,
    /// adopted assignments, migration volumes) to the unperturbed engine.
    #[test]
    fn engine_results_invariant_under_jitter_seeds(
        seed in proptest::prelude::any::<u64>(),
        jitter in 0.01f64..0.4,
    ) {
        let run = |chaos: Option<(u64, f64)>| {
            let mut p = Plum::new(
                unit_box_mesh(3),
                WaveField::unit_box(),
                PlumConfig::new(4),
            );
            if let Some((seed, jitter)) = chaos {
                p.chaos.seed = seed;
                p.chaos.link_jitter = jitter;
            }
            let mut out = Vec::new();
            for _ in 0..2 {
                let r = p.adaption_cycle(0.25, 0.3);
                out.push((
                    r.counts,
                    r.marking_sweeps,
                    r.decision.repartitioned,
                    r.decision.accepted,
                    r.decision.new_proc.clone(),
                    r.decision.wmax_old,
                    r.decision.wmax_new,
                    r.capacity.clone(),
                    r.migration.map(|m| (m.elems_moved, m.words_moved, m.msgs)),
                ));
            }
            (out, p.proc_of_root.clone())
        };
        let clean = run(None);
        let jittered = run(Some((seed, jitter)));
        prop_assert_eq!(clean, jittered);
    }
}

/// Effective imbalance as the portfolio policy measures it: max/avg of the
/// per-processor loads, capacity-weighted when the capacities differ.
fn policy_imbalance(w: &[u64], old_proc: &[u32], caps: &[f64]) -> f64 {
    let mut per = vec![0u64; caps.len()];
    for (v, &r) in old_proc.iter().enumerate() {
        per[r as usize] += w[v];
    }
    if caps.iter().all(|&c| c == caps[0]) {
        plum_partition::imbalance(&per)
    } else {
        plum_partition::imbalance_weighted(&per, caps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The policy pin: on generated inputs `select_method` returns
    /// `SfcDiffusion` exactly when SFC keys and a seed exist and the
    /// effective imbalance (of the binding constraint, under two weight
    /// vectors) is at most `sfc_threshold`, and `Multilevel` otherwise.
    #[test]
    fn select_method_reaches_only_multilevel_and_sfc_diffusion(
        nproc in 2usize..65,
        seed in any::<u64>(),
        flags in 0u64..64,
    ) {
        let mut rng = plum_partition::Rng::new(seed);
        let mut unit = || rng.next_u64() as f64 / u64::MAX as f64;
        let n = nproc + (unit() * 8.0 * nproc as f64) as usize;
        // A spread of 0 gives near-balanced loads (the mild tier), a large
        // one a hotspot.
        let spread = [0.0, 0.05, 0.5, 4.0, 40.0][(unit() * 5.0) as usize % 5];
        let round_robin = flags & 1 != 0;
        let old_proc: Vec<u32> = (0..n)
            .map(|v| {
                if round_robin {
                    (v % nproc) as u32
                } else {
                    (unit() * nproc as f64) as u32 % nproc as u32
                }
            })
            .collect();
        let wcomp: Vec<u64> = (0..n)
            .map(|_| 8 + (unit() * spread * 8.0) as u64)
            .collect();
        let w2: Option<Vec<u64>> = (flags & 2 != 0).then(|| {
            if flags & 4 != 0 {
                vec![3; n]
            } else {
                (0..n).map(|_| (unit() * 1000.0) as u64).collect()
            }
        });
        let caps: Vec<f64> = if flags & 8 != 0 {
            (0..nproc).map(|_| 0.25 + unit() * 3.75).collect()
        } else {
            vec![1.0; nproc]
        };
        let has_keys = flags & 16 != 0;
        let seeded = flags & 32 != 0;
        let mut cfg = PlumConfig::new(nproc);
        cfg.sfc_threshold = 1.0 + unit() * 1.5;
        cfg.cost.t_iter = unit() * 1e-3;
        cfg.cost.n_adapt = (unit() * 200.0) as u64;
        cfg.cost.t_refine = unit() * 1e-4;
        cfg.cost.m_words = (unit() * 1000.0) as u64;
        cfg.cost.machine.t_setup = unit() * 1e-3;
        cfg.cost.machine.t_word = unit() * 1e-5;

        let mut imb = policy_imbalance(&wcomp, &old_proc, &caps);
        if let Some(w2) = w2.as_deref().filter(|w| !plum_partition::dual_uniform(w)) {
            imb = imb.max(policy_imbalance(w2, &old_proc, &caps));
        }
        let expect = if has_keys && seeded && imb <= cfg.sfc_threshold {
            BalanceMethod::SfcDiffusion
        } else {
            BalanceMethod::Multilevel
        };
        let got = select_method_dual(
            &wcomp, w2.as_deref(), &old_proc, &cfg, &caps, has_keys, seeded,
        );
        prop_assert_eq!(got, expect);
        if w2.is_none() {
            prop_assert_eq!(
                select_method(&wcomp, &old_proc, &cfg, &caps, has_keys, seeded),
                expect
            );
        }
    }
}
