#!/usr/bin/env python3
"""Artifact-level benchmark of the QCCD toolflow.

Run from the repository root:

    python3 perfbench/run.py --workload fig8_cold --seed 2020 --seconds 15 --trace 0

The script builds the `perfbench` package (perfbench/Cargo.toml) in
release mode, runs the workload's set-up in one process and its timed
passes in others, checks every pass, and prints one JSON object as the
last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced passes; with `--trace 1` they are the per-layer ones, from
the traced replay. BENCHMARK.json is the single list of metric names and
units: a declared metric the run did not produce is an error.

Correctness: at the default seed (2020, the paper presets) every pass's
artifact must match the digest in perfbench/reference.json, and the exact
counters must match the recorded ones. At any other seed the seeded
circuits are regenerated, and every pass of the run must repeat the
first pass's digest and counters (a warm-cache pass must repeat the
digest of the cold pass that filled its cache). The traced replay must
also reproduce the untraced run job for job. Each mismatch counts as a
failed operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(HERE, "reference.json")
WORK_ROOT = ".bench_work"

WORKLOADS = ("fig8_cold", "a5_policy_fresh_cache", "fig8_warm_cache")
DEFAULT_SEED = 2020

# Counters of an untraced pass that must repeat exactly from pass to
# pass. A warm pass loads what a cold pass executed, so it is compared
# with the pass that filled its cache on the model-output keys only.
PASS_COUNTS = ("jobs", "executed", "cached", "compiles", "parses", "job_errors",
               "sim.shuttle_moves", "sim.simulated_s")
FILL_COUNTS = ("jobs", "parses", "job_errors", "sim.shuttle_moves", "sim.simulated_s")
# Per-layer counts that must repeat exactly across passes and runs.
LAYER_COUNTS = ("compiler.compiles", "compiler.insts_out", "sim.insts",
                "sim.shuttle_moves", "sim.simulated_s", "cache.stores",
                "cache.stage_files")

# Seconds the benchmark's reference computation (`perfbench::calibrate`)
# takes at the reference host speed. Timed intervals are reported at that
# speed: other tenants' load moves a shared host's speed by tens of
# percent for seconds at a time, and the calibrations around an interval
# say how fast the host ran it.
REFERENCE_CALIBRATION_S = 0.01

# Untraced passes run in this many measuring processes, one after another,
# each for an equal share of --seconds. A process's peak resident memory
# depends on how its threads' allocations happened to interleave, so one
# process's figure scatters by several percent; the mean over processes
# does not.
MEASURING_PROCESSES = 5

BUILD_TIMEOUT_S = 840
STEP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def load_reference(workload):
    with open(REFERENCE_JSON) as f:
        ref = json.load(f)
    if ref["seed"] != DEFAULT_SEED:
        raise BenchError(f"{REFERENCE_JSON} is for seed {ref['seed']}, not {DEFAULT_SEED}")
    return ref["workloads"][workload]


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message, count=1):
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)


def at_reference_speed(seconds, calibrations):
    """Each interval's seconds scaled to the reference host speed.

    Interval i ran between calibrations i and i + 1; their mean is the
    host's speed over it.
    """
    if len(calibrations) != len(seconds) + 1:
        raise BenchError(f"{len(seconds)} intervals need {len(seconds) + 1} calibrations, "
                         f"not {len(calibrations)}")
    return [s * REFERENCE_CALIBRATION_S / ((calibrations[i] + calibrations[i + 1]) / 2)
            for i, s in enumerate(seconds)]


def check_counts(tally, what, observed, expected, keys):
    """Counts one check: every key of `keys` equal in both mappings."""
    diff = [f"{k} {observed.get(k)!r} != {expected.get(k)!r}"
            for k in keys if observed.get(k) != expected.get(k)]
    tally.check(not diff, f"{what}: {', '.join(diff)}")


def finish(tally, metrics, trace):
    """The result object, with every declared metric present."""
    out = {}
    for name, unit in declared_metrics(trace):
        if name not in metrics:
            raise BenchError(f"declared metric {name} was not measured")
        out[name] = {"value": metrics[name], "unit": unit}
    for message in tally.messages:
        log(f"FAILED: {message}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def assemble_e2e(workload, seed, setups, measures, reference):
    """Checks untraced passes and derives the end-to-end metrics.

    `setups` holds the reports of the set-up windows, the first of which
    prepared the measured passes; `measures` holds the reports of the
    measuring processes.
    """
    passes = [p for m in measures for p in m["passes"]]
    tally = Tally()
    fill = setups[0].get("fill")
    if reference is not None:
        digest, counts = reference["digest"], reference["pass_counts"]
        if fill is not None:
            tally.check(fill["digest"] == digest,
                        f"cache fill digest {fill['digest']} != reference {digest}")
    else:
        # The warm passes must reproduce what the cold fill wrote.
        digest = fill["digest"] if fill is not None else passes[0]["digest"]
        counts = passes[0]["counts"]
    for i, p in enumerate(passes):
        c = p["counts"]
        tally.attempted += c["jobs"]
        if c["job_errors"]:
            tally.fail(f"pass {i}: {c['job_errors']} job(s) failed", c["job_errors"])
        tally.check(p["digest"] == digest, f"pass {i}: artifact digest {p['digest']} != {digest}")
        check_counts(tally, f"pass {i} counters", c, counts, PASS_COUNTS)
        if fill is not None:
            check_counts(tally, f"pass {i} vs cache fill", c, fill["counts"], FILL_COUNTS)
    walls, cpus, calibrations, setup_times = [], [], [], []
    for m in measures:
        walls += at_reference_speed([p["wall_s"] for p in m["passes"]], m["calib_s"])
        cpus += at_reference_speed([p["cpu_s"] for p in m["passes"]], m["calib_s"])
        calibrations += m["calib_s"]
    for window in setups:
        setup_times += at_reference_speed(window["setup_s"], window["calib_s"])
    host_walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.mean(m["peak_rss_mb"] for m in measures),
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setup_times),
    }
    log(f"{workload} seed {seed}: {len(passes)} passes, host wall_s min {min(host_walls):.4f} "
        f"median {statistics.median(host_walls):.4f} max {max(host_walls):.4f}, calibration median "
        f"{statistics.median(calibrations):.4f}, wall_s at reference speed {metrics['wall_s']:.4f}, "
        f"digest {passes[0]['digest']}, "
        f"counts {json.dumps(passes[0]['counts'])}")
    return finish(tally, metrics, trace=False)


def assemble_trace(workload, seed, measured, reference):
    """Checks traced iterations and derives the per-layer metrics."""
    its = measured["iterations"]
    tally = Tally()
    first = its[0]
    digest = reference["digest"] if reference is not None else first["digest"]
    counts = reference["layer_counts"] if reference is not None else first["layers"]
    for i, it in enumerate(its):
        tally.attempted += it["checked"]
        for message in it["failures"]:
            tally.fail(f"iteration {i}: {message}")
        tally.check(it["digest"] == digest, f"iteration {i}: artifact digest {it['digest']} != {digest}")
        check_counts(tally, f"iteration {i} exact counts", it["layers"], counts, LAYER_COUNTS)
    metrics = {name: statistics.median([it["layers"][name] for it in its]) for name in first["layers"]}
    metrics["trace.overhead_ratio"] = (statistics.median([it["traced_wall_s"] for it in its])
                                       / statistics.median([it["untraced_wall_s"] for it in its]))
    log(f"{workload} seed {seed}: {len(its)} traced iterations, digest {first['digest']}, "
        f"exact counts {json.dumps({k: first['layers'].get(k) for k in LAYER_COUNTS})}")
    return finish(tally, metrics, trace=True)


def run_step(argv, timeout):
    """Runs one benchmark process and parses the JSON on its last stdout line."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[1]} did not finish within {timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv[:2])} printed nothing")
    return json.loads(lines[-1])


def build(binary):
    """Builds `binary` of the perfbench package; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    argv = ["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary]
    try:
        proc = subprocess.run(argv, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("the build did not finish in time") from e
    if proc.returncode != 0:
        raise BenchError(f"the build failed with exit code {proc.returncode}")
    return os.path.join(target, "release", binary)


def run(workload, seed, seconds, trace):
    exe = build("perfbench-trace" if trace else "perfbench-e2e")
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    reference = load_reference(workload) if seed == DEFAULT_SEED else None

    def step(command, directory, *extra):
        argv = [exe, command, "--workload", workload, "--seed", str(seed), "--dir", directory]
        return run_step(argv + list(extra), STEP_TIMEOUT_S)

    try:
        setup = step("setup", work)
        if trace:
            measured = step("measure", work, "--seconds", str(seconds))
            spans = os.path.join(work, "spans.json")
            if os.path.exists(spans):
                shutil.copyfile(spans, os.path.join(WORK_ROOT, f"{workload}.spans.json"))
            return assemble_trace(workload, seed, measured, reference)
        share = str(seconds / MEASURING_PROCESSES)
        measures = [step("measure", work, "--seconds", share) for _ in range(MEASURING_PROCESSES)]
        # Set up again after measuring, so the set-up median spans the
        # run instead of one moment of the host's load.
        again = step("setup", work + "-again")
        return assemble_e2e(workload, seed, [setup, again], measures, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(work + "-again", ignore_errors=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
