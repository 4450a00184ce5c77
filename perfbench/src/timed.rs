//! The untraced run: end-to-end metrics with no instrumentation inside the
//! timed region.
//!
//! A run is a sequence of identical *rounds*. Each round builds the
//! workload from its seeded inputs and runs the whole cycle schedule, so
//! every round repeats the same work, the medians do not depend on how many
//! rounds fit into `--seconds`, and every round after the first re-checks
//! determinism against the first.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use plum_core::Plum;

use crate::check::check_cycle;
use crate::stats::{mean, median, peak_rss_mib, tail};
use crate::workload::Inputs;
use crate::{panic_message, Metric, Outcome};

/// Set-ups timed before the first round: at least this many, and more
/// until they have taken [`SETUP_MIN_S`] (each later round adds one more).
/// Small set-ups take milliseconds, so one sample is mostly noise.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Rounds always run, whatever `--seconds` says: determinism is checked
/// between rounds, so one round is not enough.
const MIN_ROUNDS: usize = 2;

/// Mesh generation plus `Plum::new`, timed into `setup_s`.
fn timed_build(inputs: &Inputs, setup_s: &mut Vec<f64>) -> Plum {
    let t = Instant::now();
    let plum = black_box(inputs.build());
    setup_s.push(t.elapsed().as_secs_f64());
    plum
}

pub fn run(inputs: &Inputs, seconds: f64) -> Outcome {
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let mut first = None;
    while setup_s.len() < SETUP_REPEATS || setup_start.elapsed().as_secs_f64() < SETUP_MIN_S {
        first = Some(timed_build(inputs, &mut setup_s));
    }

    let mut out = Outcome::new(inputs);
    let mut walls = Vec::new();
    let mut virtual_s = Vec::new();
    let mut imbalance = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut round = 0;
    'rounds: while round < MIN_ROUNDS || start.elapsed() < budget {
        let mut plum = first
            .take()
            .unwrap_or_else(|| timed_build(inputs, &mut setup_s));
        let mut hashes = Vec::new();
        for (i, step) in inputs.schedule.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| step.run(&mut plum)));
            let wall = t.elapsed().as_secs_f64();
            let report = match result {
                Ok(report) => report,
                Err(payload) => {
                    // The mesh state is unusable after a panic: stop here.
                    out.fail(round, i, &format!("panicked: {}", panic_message(&payload)));
                    break 'rounds;
                }
            };
            walls.push(wall);
            match check_cycle(&report, &plum) {
                Ok(rec) => {
                    hashes.push(rec.hash);
                    if round == 0 {
                        virtual_s.push(rec.virtual_s);
                        imbalance.push(rec.imbalance);
                    }
                }
                Err(e) => {
                    hashes.push(0);
                    out.fail(round, i, &e);
                }
            }
            if round == 0 && i + 1 == inputs.schedule.len() {
                out.keep_attribution(&report, &plum.timeline);
            }
        }
        out.end_round(round, &plum, &hashes);
        if round == 0 {
            // Later rounds repeat the same allocations, but where the heap
            // then peaks depends on how earlier rounds left it; set-up plus
            // one round from a fresh heap is what a user's process pays.
            peak_rss = peak_rss_mib();
        }
        round += 1;
    }

    let (tail_value, tail_pct) = tail(&walls);
    out.meta_num("rounds", round as f64);
    out.meta_num("timed_cycles", walls.len() as f64);
    out.meta_num("setup_samples", setup_s.len() as f64);
    out.meta_num("tail_percentile", tail_pct);
    out.meta_num("virtual_cycles", virtual_s.len() as f64);
    out.meta_num("peak_rss_run_mb", peak_rss_mib().unwrap_or(f64::NAN));
    out.metrics = vec![
        Metric::new("cycle_wall_s.p50", median(&walls), "s"),
        Metric::new("cycle_wall_s.tail", tail_value, "s"),
        Metric::new(
            "cycles_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB"),
        Metric::new("cycle_virtual_s", mean(&virtual_s), "virtual-s"),
        Metric::new("imbalance_final", mean(&imbalance), "ratio"),
    ];
    out
}
