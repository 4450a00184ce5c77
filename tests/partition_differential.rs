//! Differential battery: the distributed multilevel repartitioner versus the
//! retained serial reference kernel, at P ∈ {2, 8, 64} on a quick-scale
//! Fig-6 mesh.
//!
//! Two regimes are pinned. On the exact-serial path (coarsest graph = input
//! graph) the distributed kernel gathers the problem to rank 0 and runs the
//! very same serial kernel, so the result must be *bit-identical*. On the
//! genuinely multilevel path the two kernels take discretely different
//! matching/refinement decisions, so the contract is qualitative: edge cut
//! within 10% of the serial result and imbalance no worse than the serial
//! result plus a small epsilon.

use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_mesh::{DualGraph, SfcCurve};
use plum_parsim::{check_protocol, MachineModel};
use plum_partition::{
    imbalance_weighted, part_weights, partition_kway, quality, repartition_distributed,
    repartition_kway_weighted, sfc_diffuse, sfc_distributed, Graph, PartitionConfig,
};

const PROC_COUNTS: [usize; 3] = [2, 8, 64];

/// Work units charged per locally-matched vertex; any positive value — the
/// partition result is machine-model independent by construction.
const VERTEX_UNITS: f64 = 16.0;

/// Quick-scale Fig-6 dual graph (~6000 elements) with a deterministic
/// non-uniform weighting: a contiguous band of elements is 8× heavier, as if
/// a refinement wave had just passed through. The uniform seed partition is
/// therefore imbalanced — exactly the state the engine repartitions from.
fn fig6_quick_graph() -> Graph<'static> {
    fig6_quick_graph_with_keys().0
}

/// Same graph plus the Hilbert keys of its elements' centroids — the inputs
/// SFC boundary diffusion consumes.
fn fig6_quick_graph_with_keys() -> (Graph<'static>, Vec<u64>) {
    let (nx, ny, nz) = box_dims_for_elements(6_000);
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let dual = DualGraph::build(&mesh);
    let keys = plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, SfcCurve::Hilbert);
    let mut w = dual.wcomp.clone();
    let n = w.len();
    for x in w.iter_mut().take(n / 5) {
        *x *= 8;
    }
    (
        Graph::from_csr(dual.xadj.clone(), dual.adjncy.clone(), w),
        keys,
    )
}

/// The "previous" partition: computed on uniform weights, like the partition
/// the engine held before the refinement wave changed the weights.
fn seed_partition(g: &Graph, nparts: usize) -> Vec<u32> {
    let uniform = Graph::from_csr(g.xadj.to_vec(), g.adjncy.to_vec(), vec![1; g.n()]);
    partition_kway(&uniform, &PartitionConfig::new(nparts))
}

#[test]
fn exact_path_is_bit_identical_to_serial_at_all_proc_counts() {
    let g = fig6_quick_graph();
    for &p in &PROC_COUNTS {
        let mut cfg = PartitionConfig::new(p);
        // Stop coarsening immediately: the coarsest graph is the input graph,
        // so the distributed kernel must reproduce the serial kernel exactly.
        cfg.coarsen_to = g.n();
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        let serial = repartition_kway_weighted(&g, &cfg, &prev, &caps);
        let dist = repartition_distributed(
            &g,
            &prev,
            Some(&prev),
            &cfg,
            &caps,
            p,
            MachineModel::sp2(),
            VERTEX_UNITS,
        );
        assert_eq!(dist.part, serial, "P={p}: exact path diverged from serial");
        assert!(dist.makespan > 0.0, "P={p}: partitioning took no time");
    }
}

#[test]
fn multilevel_cut_and_balance_track_the_serial_reference() {
    let g = fig6_quick_graph();
    for &p in &PROC_COUNTS {
        let cfg = PartitionConfig::new(p);
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];
        let serial = repartition_kway_weighted(&g, &cfg, &prev, &caps);
        let dist = repartition_distributed(
            &g,
            &prev,
            Some(&prev),
            &cfg,
            &caps,
            p,
            MachineModel::sp2(),
            VERTEX_UNITS,
        );
        let qs = quality(&g, &serial, p);
        let qd = quality(&g, &dist.part, p);
        eprintln!(
            "P={p}: serial cut {} imb {:.4} | distributed cut {} imb {:.4}",
            qs.cut, qs.imbalance, qd.cut, qd.imbalance
        );
        assert!(
            qd.cut as f64 <= qs.cut as f64 * 1.10,
            "P={p}: distributed cut {} exceeds serial {} by more than 10%",
            qd.cut,
            qs.cut
        );
        assert!(
            qd.imbalance <= qs.imbalance.max(cfg.imbalance_tol) + 0.05,
            "P={p}: distributed imbalance {:.4} vs serial {:.4} (tol {})",
            qd.imbalance,
            qs.imbalance,
            cfg.imbalance_tol
        );
    }
}

#[test]
fn multilevel_result_is_deterministic_and_machine_independent() {
    let g = fig6_quick_graph();
    let p = 8;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let a = repartition_distributed(
        &g,
        &prev,
        Some(&prev),
        &cfg,
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    // Different machine model, different compute charge: same partition.
    let b = repartition_distributed(
        &g,
        &prev,
        Some(&prev),
        &cfg,
        &caps,
        p,
        MachineModel::zero(),
        0.0,
    );
    assert_eq!(a.part, b.part, "partition depends on the machine model");
    assert!(a.makespan > b.makespan, "sp2 run should cost virtual time");
}

#[test]
fn weighted_capacities_shift_load_and_respect_ceilings() {
    let g = fig6_quick_graph();
    let p = 8;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    // Two double-capacity processors, as after a chaos slowdown elsewhere.
    let caps: Vec<f64> = (0..p).map(|r| if r < 2 { 2.0 } else { 1.0 }).collect();
    let dist = repartition_distributed(
        &g,
        &prev,
        Some(&prev),
        &cfg,
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    assert_eq!(dist.part.len(), g.n(), "every vertex assigned exactly once");
    assert!(dist.part.iter().all(|&q| (q as usize) < p));
    let w = part_weights(&g, &dist.part, p);
    let imb = imbalance_weighted(&w, &caps);
    assert!(
        imb <= cfg.imbalance_tol * 1.10 + 0.02,
        "capacity-weighted imbalance {imb:.4} exceeds the kernel's ceiling"
    );
    // The double-capacity parts must actually carry more than a fair
    // uniform share between them.
    let heavy: u64 = w[..2].iter().sum();
    let total: u64 = w.iter().sum();
    assert!(
        heavy as f64 > total as f64 * 2.0 / p as f64,
        "2x-capacity parts hold {heavy} of {total}: no load shifted"
    );
}

// ---------------------------------------------------------------------------
// Portfolio battery: SFC boundary diffusion against its serial kernel.
// ---------------------------------------------------------------------------

#[test]
fn portfolio_distributed_kernels_match_serial_at_all_proc_counts() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let vwgt: &[u64] = &g.vwgt;
    for &p in &PROC_COUNTS {
        let prev = seed_partition(&g, p);
        let caps = vec![1.0; p];

        let serial_diff = sfc_diffuse(&keys, vwgt, None, &prev, p, &caps);
        let dist_diff = sfc_distributed(
            &keys,
            vwgt,
            &prev,
            &prev,
            p,
            &caps,
            p,
            MachineModel::sp2(),
            VERTEX_UNITS,
        );
        assert_eq!(dist_diff.part, serial_diff, "P={p}: diffusion diverged");
        assert!(dist_diff.makespan > 0.0, "P={p}: partitioning took no time");

        // Machine-model invariance: the zero model changes only the clock.
        let zero = sfc_distributed(
            &keys,
            vwgt,
            &prev,
            &prev,
            p,
            &caps,
            p,
            MachineModel::zero(),
            0.0,
        );
        assert_eq!(
            zero.part, serial_diff,
            "P={p}: diffusion depends on the model"
        );
        assert!(
            dist_diff.makespan > zero.makespan,
            "P={p}: sp2 must cost time"
        );

        // The balancer must actually improve the seeded hotspot.
        let before = imbalance_weighted(&part_weights(&g, &prev, p), &caps);
        let after = imbalance_weighted(&part_weights(&g, &serial_diff, p), &caps);
        assert!(
            after <= before + 1e-9,
            "P={p}: diffusion worsened imbalance {before:.4} -> {after:.4}"
        );
    }
}

/// Trace invariants of the two rematch contenders' SPMD bodies at P = 64
/// (multilevel and SFC diffusion): the protocol checker finds nothing, and
/// every rank's virtual time is fully accounted by the partition phase
/// breakdown to 1e-9 relative.
#[test]
fn rematch_bodies_are_protocol_clean_and_account_to_1e9_at_p64() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let vwgt: &[u64] = &g.vwgt;
    let p = 64;
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let ml = repartition_distributed(
        &g,
        &prev,
        Some(&prev),
        &PartitionConfig::new(p),
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    let diff = sfc_distributed(
        &keys,
        vwgt,
        &prev,
        &prev,
        p,
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    for (name, dist) in [("multilevel", &ml), ("sfc_diffusion", &diff)] {
        let violations = check_protocol(&dist.trace);
        assert!(
            violations.is_empty(),
            "{name}: protocol violations: {violations:?}"
        );
        let summary = dist.trace.summary();
        let full: f64 = summary.ranks.iter().map(|r| r.total()).sum();
        let agg: f64 = dist
            .trace
            .phase_breakdowns()
            .iter()
            .map(|ph| ph.total())
            .sum();
        assert!(
            (full - agg).abs() <= 1e-9 * full.max(1.0),
            "{name}: phase accounting {agg} vs rank accounting {full}"
        );
        // Real traffic flowed: the exchanges and the weight allreduces are
        // actual messages, not injected time.
        assert!(summary.total_msgs() > 0, "{name}: no messages at P=64");
        assert!(summary.total_words() > 0, "{name}: no words at P=64");
    }
}

/// Acceptance criterion: on the fig6 quick graph at P = 64, SFC boundary
/// diffusion's measured partition makespan undercuts the multilevel
/// repartitioner's by at least 5× — the portfolio's mild-cycle saving.
#[test]
fn diffusion_makespan_undercuts_multilevel_5x_at_p64() {
    let (g, keys) = fig6_quick_graph_with_keys();
    let vwgt: &[u64] = &g.vwgt;
    let p = 64;
    let cfg = PartitionConfig::new(p);
    let prev = seed_partition(&g, p);
    let caps = vec![1.0; p];
    let ml = repartition_distributed(
        &g,
        &prev,
        Some(&prev),
        &cfg,
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    let diff = sfc_distributed(
        &keys,
        vwgt,
        &prev,
        &prev,
        p,
        &caps,
        p,
        MachineModel::sp2(),
        VERTEX_UNITS,
    );
    eprintln!(
        "P=64 makespans: multilevel {:.6}s, diffusion {:.6}s",
        ml.makespan, diff.makespan
    );
    assert!(
        diff.makespan * 5.0 <= ml.makespan,
        "diffusion {:.6}s not ≥5× under multilevel {:.6}s",
        diff.makespan,
        ml.makespan
    );
}
