//! The traced run: per-layer numbers.
//!
//! The engine's phase bodies are private, so the spans sit here, around
//! calls into each crate's public functions. For every cycle the run clones
//! the pre-cycle state and replays the cycle on the clone, one span per
//! call, in the engine's order; then it runs the real engine cycle
//! (untimed by spans) and checks that the replay reached the same marks,
//! partition, assignment and mesh the engine adopted. A mismatch is a
//! failed cycle. Spans are kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_core::{
    coarse_marks, parallel_mark, parallel_migrate, run_mapper, select_method_dual, BalanceMethod,
    CostEstimator, CycleReport, Ownership, Plum, RemapPolicy,
};
use plum_mesh::{DualGraph, VertexField};
use plum_obs::{json, Registry, Timeline, TraceDigest};
use plum_parsim::{spmd, Session};
use plum_partition::{repartition_body_dual, repartition_distributed, Graph};
use plum_reassign::{remap_stats, RemapStats, SimilarityMatrix};
use plum_remap::RemapMetric;
use plum_solver::{edge_error_indicator, solve, SolverConfig};

use crate::check::check_cycle;
use crate::stats::median;
use crate::workload::{Inputs, Step};
use crate::{panic_message, Metric, Outcome};

/// Set-ups replayed span by span for the `mesh.*` metrics.
const SETUP_REPEATS: usize = 3;
/// Steps per `parsim` micro-measurement.
const PARSIM_STEPS: u32 = 20;

/// One timed call: `name` is `<layer>.<call>`, or `cycle.*` / `setup` for a
/// root span that groups one cycle's (or one set-up's) calls.
struct Span {
    name: &'static str,
    /// The cycle (or set-up) the span belongs to; spans of one cycle share
    /// it.
    group: usize,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start: self.now(),
            end: f64::NAN,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.now();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"group\":{},\"parent\":{},\"start\":{},\"end\":{}}}",
                    s.name,
                    s.group,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json::fmt_f64(s.start),
                    json::fmt_f64(s.end)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// The pre-cycle state the replay runs on: clones of the mesh, solution,
/// dual graph, assignment and cost estimate, plus the ownership maps the
/// engine keeps (rebuilt, since they are not `Clone`).
struct Replay {
    am: AdaptiveMesh,
    field: VertexField,
    dual: DualGraph,
    proc_of_root: Vec<u32>,
    cost_est: CostEstimator,
    time: f64,
    own: Ownership,
}

impl Replay {
    fn from(p: &Plum) -> Replay {
        Replay {
            am: p.am.clone(),
            field: p.field.clone(),
            dual: p.dual.clone(),
            proc_of_root: p.proc_of_root.clone(),
            cost_est: p.cost_est.clone(),
            time: p.time,
            own: Ownership::build(&p.am, &p.proc_of_root, p.cfg.nproc),
        }
    }
}

/// What the replay's balancer decided, for comparison with the engine's.
struct Balance {
    method: Option<BalanceMethod>,
    accepted: bool,
    new_proc: Vec<u32>,
    stats: Option<RemapStats>,
    gain: f64,
    cost: f64,
}

fn per_proc(w: &[u64], proc_of: &[u32], nproc: usize) -> Vec<u64> {
    let mut out = vec![0u64; nproc];
    for (v, &r) in proc_of.iter().enumerate() {
        out[r as usize] += w[v];
    }
    out
}

fn max_over_avg(w: &[u64]) -> f64 {
    let total: u64 = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    *w.iter().max().expect("at least one processor") as f64 / (total as f64 / w.len() as f64)
}

/// The load balancer on the replay state, for a homogeneous machine (the
/// benchmark injects no chaos, so every capacity is exactly 1.0): the
/// trigger, the portfolio choice, the distributed multilevel repartitioner,
/// the similarity matrix, the mapper and the gain/cost test. A route other
/// than multilevel replays as one call to the public balance step.
fn replay_balance(tr: &mut Tracer, st: &Replay, p: &Plum, refine_work: &[u64]) -> Balance {
    let cfg = &p.cfg;
    let nproc = cfg.nproc;
    let w2 = p.wcomp2.as_deref();
    let caps = vec![1.0; nproc];
    let old = &st.proc_of_root;
    let w_old = per_proc(&st.dual.wcomp, old, nproc);
    let wmax_old = *w_old.iter().max().expect("at least one processor");
    let binding = w2.map_or(max_over_avg(&w_old), |w2| {
        max_over_avg(&w_old).max(max_over_avg(&per_proc(w2, old, nproc)))
    });
    let mut out = Balance {
        method: None,
        accepted: false,
        new_proc: old.clone(),
        stats: None,
        gain: 0.0,
        cost: 0.0,
    };
    if binding <= cfg.imbalance_trigger || nproc == 1 {
        return out;
    }
    let method = tr.span("core.select_method", || {
        select_method_dual(&st.dual.wcomp, w2, old, cfg, &caps, true, true)
    });
    out.method = Some(method);
    if method != BalanceMethod::Multilevel {
        let d = tr.span("core.balance_step", || {
            plum_core::balance_step_dual(
                &st.dual,
                old,
                refine_work,
                cfg,
                &p.work,
                Some(&p.sfc_keys),
                w2,
            )
        });
        out.accepted = d.accepted;
        out.new_proc = d.new_proc;
        out.stats = d.stats;
        out.gain = d.gain;
        out.cost = d.cost;
        return out;
    }

    let mut pcfg = cfg.partition;
    pcfg.nparts = cfg.nparts();
    let part_caps = vec![1.0; pcfg.nparts];
    // Per-vertex charge of the engine's distributed kernel; it moves only
    // virtual time, never the partition.
    let vertex_units = if cfg.machine.t_flop > 0.0 {
        p.work.t_part_vertex / cfg.machine.t_flop / 4.0
    } else {
        0.0
    };
    let new_part = tr.span("partition.repartition", || {
        let g = Graph::view(&st.dual.xadj, &st.dual.adjncy, &st.dual.wcomp);
        match w2 {
            None => {
                repartition_distributed(
                    &g,
                    old,
                    Some(old),
                    &pcfg,
                    &part_caps,
                    nproc,
                    cfg.machine,
                    vertex_units,
                )
                .part
            }
            Some(w2) => {
                let results = spmd(nproc, cfg.machine, |comm| {
                    comm.phase("partition", |c| {
                        repartition_body_dual(
                            c,
                            &g,
                            w2,
                            old,
                            Some(old),
                            &pcfg,
                            &part_caps,
                            vertex_units,
                        )
                    })
                });
                results.into_iter().next().expect("one rank").value
            }
        }
    });
    let sm = tr.span("reassign.simmatrix", || {
        SimilarityMatrix::from_assignments(&st.dual.wremap, old, &new_part, nproc, pcfg.nparts)
    });
    let (assignment, _) = tr.span("reassign.mapper", || run_mapper(&sm, cfg.mapper));
    tr.span("remap.accept", || {
        let new_proc: Vec<u32> = new_part
            .iter()
            .map(|&j| assignment.proc_of_part[j as usize])
            .collect();
        let wmax_new = *per_proc(&st.dual.wcomp, &new_proc, nproc)
            .iter()
            .max()
            .expect("at least one processor");
        let stats = remap_stats(&sm, &assignment);
        let rmax = |proc_of: &[u32]| {
            *per_proc(refine_work, proc_of, nproc)
                .iter()
                .max()
                .expect("at least one processor")
        };
        out.gain = cfg
            .cost
            .computational_gain(wmax_old, wmax_new, rmax(old), rmax(&new_proc));
        let (c, n) = match cfg.cost.metric {
            RemapMetric::TotalV => (stats.total_elems, stats.total_msgs),
            RemapMetric::MaxV => (stats.max_elems, stats.max_msgs),
        };
        out.cost = cfg.cost.redistribution_cost(c, n);
        out.accepted = cfg.cost.should_accept(out.gain, out.cost);
        out.stats = Some(stats);
        if out.accepted {
            out.new_proc = new_proc;
        }
    });
    out
}

/// Observed cost multipliers at the replay's time, fed to its estimator,
/// as the engine does before marking.
fn observe_costs(tr: &mut Tracer, st: &mut Replay, p: &Plum) {
    if p.cost_field.is_uniform() {
        return;
    }
    tr.span("core.cost_estimate", || {
        let mult: Vec<f64> = p
            .root_centroid
            .iter()
            .map(|&c| p.cost_field.multiplier(&p.wave, c, st.time))
            .collect();
        st.cost_est.observe(&mult);
    });
}

/// The remap phase of the replay, when the balancer accepted.
fn replay_remap(tr: &mut Tracer, st: &mut Replay, p: &Plum, b: &Balance) -> Option<[u64; 3]> {
    if !b.accepted {
        return None;
    }
    let nproc = p.cfg.nproc;
    let m = tr.span("remap.migrate", || {
        parallel_migrate(
            &st.am,
            &st.field,
            &st.proc_of_root,
            &b.new_proc,
            nproc,
            p.cfg.machine,
        )
    });
    tr.span("core.ownership", || {
        st.own
            .apply_migration(&st.am, &st.proc_of_root, &b.new_proc)
    });
    st.proc_of_root = b.new_proc.clone();
    Some([m.elems_moved, m.words_moved, m.msgs])
}

fn marks_of(m: &EdgeMarks) -> Vec<u32> {
    m.iter().map(|e| e.idx() as u32).collect()
}

/// Replay one refinement cycle (remap before subdivision, the default
/// policy). Returns the balancer's decision, the migration volume and a
/// mismatch, if the serial and the parallel marking disagree.
fn replay_refine(
    tr: &mut Tracer,
    st: &mut Replay,
    p: &Plum,
    frac: f64,
    dt: f64,
) -> (Balance, Option<[u64; 3]>, Option<String>) {
    let nproc = p.cfg.nproc;
    st.time += dt;
    tr.span("solver.solve", || {
        solve(
            &st.am.mesh,
            &mut st.field,
            &p.wave,
            st.time,
            &SolverConfig::default(),
        )
    });
    let (_, wremap_now) = tr.span("adapt.weights", || st.am.weights());
    observe_costs(tr, st, p);
    let error = tr.span("solver.error_indicator", || {
        edge_error_indicator(&st.am.mesh, &st.field)
    });
    let (threshold, serial) = tr.span("adapt.mark", || {
        let threshold = st.am.threshold_for_final_fraction(&error, frac);
        let mut marks = st.am.mark_above(&error, threshold);
        st.am.upgrade_to_fixpoint(&mut marks);
        (threshold, marks)
    });
    let marked = tr.span("core.marking", || {
        parallel_mark(
            &st.am,
            &st.own,
            nproc,
            p.cfg.machine,
            &p.work,
            &error,
            threshold,
        )
    });
    let mismatch = (marks_of(&serial) != marks_of(&marked.marks)).then(|| {
        format!(
            "serial marking ({} edges) != parallel marking ({} edges)",
            serial.count(),
            marked.marks.count()
        )
    });
    let pred = tr.span("adapt.predict", || st.am.predict(&marked.marks));
    let children: Vec<u64> = pred
        .wremap
        .iter()
        .zip(&wremap_now)
        .map(|(&a, &b)| a - b)
        .collect();
    st.dual.wcomp = tr.span("core.cost_estimate", || st.cost_est.weights(&pred.wcomp));
    st.dual.wremap = wremap_now;
    let balance = replay_balance(tr, st, p, &children);
    let migration = replay_remap(tr, st, p, &balance);
    let (_, delta) = tr.span("adapt.refine", || {
        st.am
            .refine_with_delta(&marked.marks, std::slice::from_mut(&mut st.field))
    });
    tr.span("core.ownership", || {
        st.own.apply_refinement(&delta, &st.proc_of_root)
    });
    (balance, migration, mismatch)
}

/// Replay one coarsening cycle.
fn replay_coarsen(
    tr: &mut Tracer,
    st: &mut Replay,
    p: &Plum,
    frac: f64,
    dt: f64,
) -> (Balance, Option<[u64; 3]>) {
    let nproc = p.cfg.nproc;
    st.time += dt;
    tr.span("solver.solve", || {
        solve(
            &st.am.mesh,
            &mut st.field,
            &p.wave,
            st.time,
            &SolverConfig::default(),
        )
    });
    observe_costs(tr, st, p);
    let error = tr.span("solver.error_indicator", || {
        edge_error_indicator(&st.am.mesh, &st.field)
    });
    let cmarks = tr.span("core.coarse_marks", || coarse_marks(&st.am, &error, frac));
    tr.span("adapt.coarsen", || {
        st.am.coarsen(&cmarks, std::slice::from_mut(&mut st.field))
    });
    let (wcomp, wremap) = tr.span("adapt.weights", || st.am.weights());
    st.own = tr.span("core.ownership", || {
        Ownership::build(&st.am, &st.proc_of_root, nproc)
    });
    st.dual.wcomp = tr.span("core.cost_estimate", || st.cost_est.weights(&wcomp));
    st.dual.wremap = wremap;
    let refine_work = vec![0; st.dual.n()];
    let balance = replay_balance(tr, st, p, &refine_work);
    let migration = replay_remap(tr, st, p, &balance);
    (balance, migration)
}

/// Compare the replay with the engine's adopted result.
fn compare(
    st: &Replay,
    b: &Balance,
    migration: Option<[u64; 3]>,
    report: &CycleReport,
    plum: &Plum,
) -> Result<(), String> {
    let d = &report.decision;
    let mut diffs = Vec::new();
    if b.method != d.method {
        diffs.push(format!("method {:?} vs engine {:?}", b.method, d.method));
    }
    if b.accepted != d.accepted {
        diffs.push(format!("accepted {} vs engine {}", b.accepted, d.accepted));
    }
    if b.stats != d.stats {
        diffs.push("partition/assignment movement statistics differ".to_string());
    }
    if b.gain.to_bits() != d.gain.to_bits() || b.cost.to_bits() != d.cost.to_bits() {
        diffs.push(format!(
            "gain/cost {}/{} vs engine {}/{}",
            b.gain, b.cost, d.gain, d.cost
        ));
    }
    if b.new_proc != d.new_proc || st.proc_of_root != plum.proc_of_root {
        diffs.push("adopted assignment differs".to_string());
    }
    let engine_migration = report
        .migration
        .as_ref()
        .map(|m| [m.elems_moved, m.words_moved, m.msgs]);
    if migration != engine_migration {
        diffs.push(format!(
            "migration {migration:?} vs engine {engine_migration:?}"
        ));
    }
    if st.am.mesh.counts() != report.counts || st.am.weights() != plum.am.weights() {
        diffs.push("adapted mesh differs".to_string());
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("replay mismatch: {}", diffs.join("; ")))
    }
}

/// Host seconds per rank-step of an empty session step, and per 1-word
/// allreduce, at `nproc` ranks.
fn parsim_costs(nproc: usize, machine: plum_parsim::MachineModel) -> (f64, f64) {
    let mut session = Session::new(nproc, machine);
    session.run(vec![(); nproc], |_, ()| ());
    let t = Instant::now();
    for _ in 0..PARSIM_STEPS {
        session.run(vec![(); nproc], |_, ()| ());
    }
    let step = t.elapsed().as_secs_f64() / (f64::from(PARSIM_STEPS) * nproc as f64);
    let t = Instant::now();
    for _ in 0..PARSIM_STEPS {
        session.run(vec![(); nproc], |c, ()| c.allreduce_sum_f64(1.0));
    }
    let allreduce = t.elapsed().as_secs_f64() / f64::from(PARSIM_STEPS);
    (step, allreduce)
}

/// Deterministic per-cycle values from the engine's report, summed over
/// the first round (divided by cycle counts when reported).
#[derive(Default)]
struct Counts {
    refine_cycles: f64,
    coarsen_cycles: f64,
    cycles: f64,
    repartitioned: f64,
    accepted: f64,
    sums: BTreeMap<&'static str, f64>,
    methods: BTreeMap<&'static str, f64>,
}

impl Counts {
    fn add(&mut self, name: &'static str, x: f64) {
        *self.sums.entry(name).or_default() += x;
    }

    fn record(&mut self, step: Step, before: usize, report: &CycleReport) {
        let after = report.counts.elements;
        self.cycles += 1.0;
        if step.is_refine() {
            self.refine_cycles += 1.0;
            self.add(
                "adapt.elements_created",
                after.saturating_sub(before) as f64,
            );
        } else {
            self.coarsen_cycles += 1.0;
            self.add(
                "adapt.elements_removed",
                before.saturating_sub(after) as f64,
            );
        }
        let d = &report.decision;
        let t = &report.times;
        let method = d.method.map_or("none", |m| m.name());
        *self.methods.entry(method).or_default() += 1.0;
        if d.repartitioned {
            self.repartitioned += 1.0;
            if d.accepted {
                self.accepted += 1.0;
            } else {
                self.add("partition.wasted_virtual_s", t.partition);
            }
        }
        let part = report
            .traces
            .phase("partition")
            .copied()
            .unwrap_or_default();
        self.add("partition.virtual_s", t.partition);
        self.add("partition.words", part.words as f64);
        self.add("partition.msgs", part.msgs as f64);
        self.add("partition.wait_s", part.wait);
        let reassign = report
            .traces
            .phase("reassignment")
            .copied()
            .unwrap_or_default();
        self.add("reassign.virtual_s", d.reassign_comm_time);
        self.add("reassign.words", reassign.words as f64);
        self.add("remap.virtual_s", t.remap);
        if let Some(m) = &report.migration {
            self.add("remap.words", m.words_moved as f64);
            self.add("remap.elems_moved", m.elems_moved as f64);
        }
        self.add("core.marking.virtual_s", t.marking);
        self.add("core.marking.sweeps", report.marking_sweeps as f64);
        self.add("core.solver.virtual_s", t.solver);
        self.add("core.subdivide.virtual_s", t.subdivide);
        self.add("core.coarsen.virtual_s", t.coarsen);
        let session = &report.traces.session;
        let summary = session.summary();
        self.add("parsim.msgs", summary.total_msgs() as f64);
        self.add("parsim.words", summary.total_words() as f64);
        self.add("parsim.wait_s", summary.total_wait());
        self.add(
            "parsim.trace_events",
            session.events.iter().map(Vec::len).sum::<usize>() as f64,
        );
    }
}

/// Which cycles a deterministic mean is taken over.
#[derive(Clone, Copy)]
enum Per {
    Cycle,
    Refine,
    Coarsen,
}

/// The deterministic per-cycle means: name, unit, and the cycles averaged.
const PER_CYCLE: [(&str, &str, Per); 21] = [
    ("adapt.elements_created", "count", Per::Refine),
    ("adapt.elements_removed", "count", Per::Coarsen),
    ("partition.virtual_s", "virtual-s", Per::Cycle),
    ("partition.words", "words", Per::Cycle),
    ("partition.msgs", "msgs", Per::Cycle),
    ("partition.wait_s", "virtual-s", Per::Cycle),
    ("partition.wasted_virtual_s", "virtual-s", Per::Cycle),
    ("reassign.virtual_s", "virtual-s", Per::Cycle),
    ("reassign.words", "words", Per::Cycle),
    ("remap.virtual_s", "virtual-s", Per::Cycle),
    ("remap.words", "words", Per::Cycle),
    ("remap.elems_moved", "count", Per::Cycle),
    ("core.marking.virtual_s", "virtual-s", Per::Cycle),
    ("core.marking.sweeps", "count", Per::Cycle),
    ("core.solver.virtual_s", "virtual-s", Per::Cycle),
    ("core.subdivide.virtual_s", "virtual-s", Per::Refine),
    ("core.coarsen.virtual_s", "virtual-s", Per::Coarsen),
    ("parsim.msgs", "msgs", Per::Cycle),
    ("parsim.words", "words", Per::Cycle),
    ("parsim.wait_s", "virtual-s", Per::Cycle),
    ("parsim.trace_events", "count", Per::Cycle),
];

/// Wall-time metrics: the median duration of one call of the named span.
const WALL: [(&str, &str); 16] = [
    ("mesh.generate.wall_s", "mesh.generate"),
    ("mesh.dual_build.wall_s", "mesh.dual_build"),
    ("mesh.sfc_keys.wall_s", "mesh.sfc_keys"),
    ("solver.solve.wall_s", "solver.solve"),
    ("solver.error_indicator.wall_s", "solver.error_indicator"),
    ("adapt.mark.wall_s", "adapt.mark"),
    ("adapt.predict.wall_s", "adapt.predict"),
    ("adapt.refine.wall_s", "adapt.refine"),
    ("adapt.coarsen.wall_s", "adapt.coarsen"),
    ("core.marking.wall_s", "core.marking"),
    ("partition.wall_s", "partition.repartition"),
    ("reassign.simmatrix.wall_s", "reassign.simmatrix"),
    ("reassign.mapper.wall_s", "reassign.mapper"),
    ("remap.migrate.wall_s", "remap.migrate"),
    ("obs.emit_metrics.wall_s", "obs.emit_metrics"),
    ("obs.digest.wall_s", "obs.digest"),
];

/// Layers whose summed self time per cycle is reported as `<layer>.self_s`.
const LAYERS: [&str; 7] = [
    "solver",
    "adapt",
    "core",
    "partition",
    "reassign",
    "remap",
    "obs",
];

pub fn run(inputs: &Inputs, seconds: f64, spans_path: &std::path::Path) -> Outcome {
    let mut out = Outcome::new(inputs);
    let mut tr = Tracer::new();

    // Set-up, call by call, then the real `Plum::new`.
    let mut plum = None;
    for _ in 0..SETUP_REPEATS {
        let id = tr.begin("setup");
        let mesh = tr.span("mesh.generate", || inputs.mesh());
        let dual = tr.span("mesh.dual_build", || DualGraph::build(&mesh));
        let cfg = inputs.config();
        tr.span("mesh.sfc_keys", || {
            plum_mesh::sfc::element_keys(&mesh, &dual.elem_of, cfg.sfc_curve)
        });
        plum = Some(tr.span("core.plum_new", || inputs.build()));
        tr.end(id);
        tr.group += 1;
    }
    let first = plum.expect("at least one set-up");
    assert_eq!(
        first.cfg.policy,
        RemapPolicy::BeforeRefinement,
        "the replay follows the remap-before-subdivision order"
    );
    let (step_s, allreduce_s) = parsim_costs(first.cfg.nproc, first.cfg.machine);

    let mut counts = Counts::default();
    let mut engine_s = 0.0;
    let mut cycle_roots = Vec::new();
    let mut timeline = Timeline::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut first = Some(first);
    let mut round = 0;
    'rounds: while round == 0 || start.elapsed() < budget {
        let mut plum = first.take().unwrap_or_else(|| inputs.build());
        let mut hashes = Vec::new();
        for (i, &step) in inputs.schedule.iter().enumerate() {
            out.attempted += 1;
            let mut st = Replay::from(&plum);
            let before = plum.am.mesh.n_elems();
            let replay = tr.begin("cycle.replay");
            cycle_roots.push(replay);
            let (balance, migration, mismatch) = match step {
                Step::Refine { frac, dt } => replay_refine(&mut tr, &mut st, &plum, frac, dt),
                Step::Coarsen { frac, dt } => {
                    let (b, m) = replay_coarsen(&mut tr, &mut st, &plum, frac, dt);
                    (b, m, None)
                }
            };
            tr.end(replay);

            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| step.run(&mut plum)));
            engine_s += t.elapsed().as_secs_f64();
            let report = match result {
                Ok(report) => report,
                Err(payload) => {
                    out.fail(round, i, &format!("panicked: {}", panic_message(&payload)));
                    break 'rounds;
                }
            };

            let observe = tr.begin("cycle.observe");
            cycle_roots.push(observe);
            tr.span("obs.emit_metrics", || {
                let mut reg = Registry::new();
                report.emit_metrics(&mut reg);
                let flat = reg.flat_metrics();
                timeline.record_cycle(flat.iter().map(|(k, &v)| (k.as_str(), v)));
            });
            tr.span("obs.digest", || {
                TraceDigest::from_log(&report.traces.session)
            });
            tr.end(observe);
            tr.group += 1;

            let verdict = mismatch
                .map_or(Ok(()), Err)
                .and_then(|()| compare(&st, &balance, migration, &report, &plum))
                .and_then(|()| check_cycle(&report, &plum));
            match verdict {
                Ok(rec) => hashes.push(rec.hash),
                Err(e) => {
                    hashes.push(0);
                    out.fail(round, i, &e);
                }
            }
            if round == 0 {
                counts.record(step, before, &report);
                if i + 1 == inputs.schedule.len() {
                    out.keep_attribution(&report, &plum.timeline);
                }
            }
        }
        out.end_round(round, &plum, &hashes);
        round += 1;
    }

    if let Err(e) = std::fs::write(spans_path, tr.to_json()) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }

    let own = tr.self_times();
    let traced_s: f64 = cycle_roots.iter().map(|&r| tr.spans[r].duration()).sum();
    // Layer spans of the cycles: children of a cycle root, past the set-ups.
    let in_cycles = |s: &Span| s.parent.is_some() && s.group >= SETUP_REPEATS;
    let covered: f64 = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| in_cycles(s))
        .map(|(_, &o)| o)
        .sum();
    let ncycles = (cycle_roots.len() / 2).max(1) as f64;

    let mut metrics = Vec::new();
    for (name, span) in WALL {
        let d = tr.durations(span);
        let v = if d.is_empty() { 0.0 } else { median(&d) };
        metrics.push(Metric::new(name, v, "s"));
    }
    for layer in LAYERS {
        let total: f64 = tr
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| in_cycles(s) && s.layer() == layer)
            .map(|(_, &o)| o)
            .sum();
        metrics.push(Metric::new(
            &format!("{layer}.self_s"),
            total / ncycles,
            "s",
        ));
    }
    for (name, unit, per) in PER_CYCLE {
        let sum = counts.sums.get(name).copied().unwrap_or(0.0);
        let n = match per {
            Per::Cycle => counts.cycles,
            Per::Refine => counts.refine_cycles,
            Per::Coarsen => counts.coarsen_cycles,
        };
        metrics.push(Metric::new(name, sum / n.max(1.0), unit));
    }
    for method in [
        "multilevel",
        "sfc_diffusion",
        "sfc",
        "knapsack",
        "diffusion2",
        "voronoi",
        "none",
    ] {
        let n = counts.methods.get(method).copied().unwrap_or(0.0);
        metrics.push(Metric::new(
            &format!("partition.method.{method}"),
            n,
            "cycles",
        ));
    }
    let accept_ratio = if counts.repartitioned > 0.0 {
        counts.accepted / counts.repartitioned
    } else {
        1.0
    };
    metrics.push(Metric::new(
        "core.balance.accept_ratio",
        accept_ratio,
        "ratio",
    ));
    metrics.push(Metric::new("parsim.step.wall_s", step_s, "s"));
    metrics.push(Metric::new("parsim.allreduce.wall_s", allreduce_s, "s"));
    metrics.push(Metric::new("trace.overhead", traced_s / engine_s, "ratio"));
    metrics.push(Metric::new("trace.coverage", covered / traced_s, "ratio"));
    out.metrics = metrics;
    out.meta_num("rounds", round as f64);
    out.meta_num("traced_cycles", cycle_roots.len() as f64 / 2.0);
    out.meta_num("counted_cycles", counts.cycles);
    out
}
