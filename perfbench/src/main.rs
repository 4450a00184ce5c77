//! `plum-perfbench`: the PLUM adaption-cycle benchmark.
//!
//! ```text
//! plum-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation in
//! the timed region; `--trace 1` runs the span-traced replay for the
//! per-layer metrics. Either way every cycle passes the correctness oracle
//! outside the timed region, and the last line of standard output is one
//! JSON object with the result. `perfbench/run.py` builds this binary and
//! wraps it for the benchmark command.

mod check;
mod stats;
mod timed;
mod traced;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use plum_core::{CycleReport, Plum};
use plum_obs::{json, BenchReport, Timeline, TraceDigest};

use check::round_digest;
use workload::{find, Inputs, WORKLOADS};

/// Failure messages kept in the output; the count is always exact.
const MAX_FAILURE_MESSAGES: usize = 20;

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Result of one run, either mode.
pub struct Outcome {
    pub attempted: usize,
    /// Cycles that panicked or failed a check (each cycle counted once).
    failed_cycles: std::collections::BTreeSet<(usize, usize)>,
    failures: Vec<String>,
    pub metrics: Vec<Metric>,
    meta: Vec<(String, String)>,
    /// Digest of the first round's deterministic per-cycle record.
    digest: String,
    /// plum-bench/v2 report holding the last cycle's session digest.
    attribution: Option<BenchReport>,
    inputs: Inputs,
}

impl Outcome {
    pub fn new(inputs: &Inputs) -> Outcome {
        let mut out = Outcome {
            attempted: 0,
            failed_cycles: Default::default(),
            failures: Vec::new(),
            metrics: Vec::new(),
            meta: Vec::new(),
            digest: String::new(),
            attribution: None,
            inputs: inputs.clone(),
        };
        let w = inputs.workload;
        out.meta_str("workload", w.name);
        out.meta_num("seed", inputs.seed as f64);
        out.meta_num("nproc", w.nproc as f64);
        out.meta_num("cycles_per_round", inputs.schedule.len() as f64);
        out.meta_num("initial_elements", {
            let (x, y, z) = inputs.dims;
            (6 * x * y * z) as f64
        });
        out.meta_num("wave_phase", inputs.t0);
        out.meta_num("blade_center_x", inputs.wave.center[0]);
        out.meta_num("blade_center_y", inputs.wave.center[1]);
        if let Some(band) = inputs.band_x {
            out.meta_num("particle_band_x", band);
        }
        out
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta
            .push((key.to_string(), format!("\"{}\"", json::escape(value))));
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), json_num(value)));
    }

    /// Count cycle `cycle` of round `round` as failed, with its reason.
    pub fn fail(&mut self, round: usize, cycle: usize, reason: &str) {
        self.failed_cycles.insert((round, cycle));
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures
                .push(format!("round {round} cycle {cycle}: {reason}"));
        }
    }

    /// Close a round: the mesh must validate, and every round after the
    /// first must reproduce the first round's digest.
    pub fn end_round(&mut self, round: usize, plum: &Plum, hashes: &[u64]) {
        let last = self.inputs.schedule.len() - 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| plum.am.validate())) {
            let reason = format!("mesh validation failed: {}", panic_message(&payload));
            self.fail(round, last, &reason);
        }
        let digest = round_digest(hashes);
        if round == 0 {
            self.digest = digest;
        } else if digest != self.digest {
            let reason = format!("round digest {digest} != {}", self.digest);
            for cycle in 0..=last {
                self.fail(round, cycle, &reason);
            }
        }
    }

    pub fn failed(&self) -> usize {
        self.failed_cycles.len()
    }

    /// Keep the last cycle's session digest and the round's timeline, so a
    /// later change in virtual time can be explained with `plum-bench
    /// explain` against this run's report, without re-running.
    pub fn keep_attribution(&mut self, report: &CycleReport, timeline: &Timeline) {
        let mut b = BenchReport::new(&format!("perfbench_{}", self.inputs.workload.name));
        b.meta_num("seed", self.inputs.seed as f64)
            .meta_num("nproc", self.inputs.workload.nproc as f64)
            .meta_num("cycles", timeline.cycles() as f64);
        let t = &report.times;
        b.set("cycle.virtual_seconds", t.total() - t.reassign)
            .set("balance.imbalance_new", report.decision.imbalance_new);
        b.digest = Some(TraceDigest::from_log(&report.traces.session));
        b.timeline = Some(timeline.clone());
        self.attribution = Some(b);
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(&m.name),
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json::escape(k)))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"meta\": {{{}}}, \"digest\": \"{}\", \"failures\": [{}]}}",
            self.failed() == 0 && self.attempted > 0 && finite,
            self.attempted,
            self.failed(),
            metrics.join(", "),
            meta.join(", "),
            self.digest,
            failures.join(", ")
        )
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        json::fmt_f64(x)
    } else {
        "null".to_string()
    }
}

pub fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    find(&value).ok_or(format!("unknown workload {value:?} (one of {names:?})"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plum-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("plum-perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let inputs = Inputs::generate(args.workload, args.seed);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut out = if args.trace {
        traced::run(
            &inputs,
            args.seconds,
            &args.out.join(format!("{stem}.spans.json")),
        )
    } else {
        timed::run(&inputs, args.seconds)
    };
    out.meta_num("failed_cycles", out.failed() as f64);
    if let Some(b) = &out.attribution {
        let path = args.out.join(format!("{stem}.bench.json"));
        if let Err(e) = std::fs::write(&path, b.to_json()) {
            eprintln!("plum-perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
