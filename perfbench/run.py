#!/usr/bin/env python3
"""Run one workload of the PLUM adaption-cycle benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` (a package of its own
that depends on the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and prints the run metadata on a `# meta`
line followed, as the last line, by one JSON object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`.

Run artefacts go to `.bench_out/`: the full result, the span list of a traced
run, a plum-bench/v2 report holding the last cycle's session digest (input
for `plum-bench explain`), and `digests.json`, the determinism ledger: a run
whose digest differs from an earlier run of the same build, workload and seed
is flagged as incorrect.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# The whole run must end within 180 s; the binary's own rounds take
# `--seconds` plus at most one round.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    # Cargo's output goes to stderr so that stdout carries only the result.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return proc.returncode == 0


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_binary(binary, args):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT_DIR,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return None
    if proc.returncode != 0:
        log(f"benchmark binary exited with code {proc.returncode}")
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark binary printed no result")
        return None


def check_ledger(result, args, build_id):
    """Record this run's digest; flag it if an earlier run of the same build,
    workload and seed (traced or not) recorded another one."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = f"{args.workload}/seed{args.seed}/{build_id[:16]}"
    digest = result["digest"]
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return "first run of this build and seed"
    if earlier != digest:
        return f"DIFFERS from an earlier run ({earlier} != {digest})"
    return "matches earlier runs"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    start = time.monotonic()
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        log("build failed")
        return 1
    binary = os.path.join(target_dir, "release", "plum-perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_binary(binary, args)
    if result is None:
        return 1

    correct = bool(result["correct"])
    failed = int(result["failed"])
    ledger = check_ledger(result, args, sha256(binary))
    if ledger.startswith("DIFFERS"):
        log(f"determinism: digest {ledger}")
        correct = False
        failed = int(result["attempted"])
    expected = expected_metrics(args.trace)
    got = set(result["metrics"])
    if expected is not None and expected != got:
        log(f"metric set differs from BENCHMARK.json: missing {sorted(expected - got)}, "
            f"extra {sorted(got - expected)}")
        correct = False
    for f in result["failures"]:
        log(f"failed cycle: {f}")

    meta = dict(result["meta"])
    meta.update({
        "git_sha": git_sha(),
        "host_nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "digest": result["digest"],
        "determinism": ledger,
        "wall_s": round(time.monotonic() - start, 3),
    })
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".result.json"), "w") as f:
        json.dump(dict(result, meta=meta, correct=correct, failed=failed), f, indent=1)

    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
