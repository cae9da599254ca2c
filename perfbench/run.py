#!/usr/bin/env python3
"""prunekit benchmark.

Each workload is the pruning pipeline on one seeded model. Every step is a
real ``prunekit`` CLI subcommand (or, for ``verify``, one public-API call) in
its own child process, timed from outside with interpreter start-up included
and its peak RSS taken from ``os.wait4``. Steps run one at a time from this
single process (a closed loop with one client). Run it from the repository
root; the children import prunekit from ``./src``:

    python3 perfbench/run.py --workload vgg16-quickstart --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` runs the pipeline twice with tracing off, then repeats single
steps for the rest of ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced pipelines and reports the
per-layer metrics from the traced ones, the tracing overhead, and a per-step
self-time check. Every step's outputs are checked (see ``checks.py``); a step
that exits non-zero or fails a check counts as failed. Each metric is printed
with its unit and sample count; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Times are
scaled to a reference CPU speed (see CAL_REFERENCE_S). The full samples, the
unscaled times and the environment go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = ".perfbench"
CHILD_TIMEOUT_S = 60
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# On a shared host the speed of a CPU swings by tens of percent within
# seconds, and each CPU swings on its own. So the benchmark and its children
# run on one CPU, and a fixed calibration workload runs on it before a child
# starts, after it ends and, with the child stopped, every CAL_INTERVAL_S in
# between. Each stretch of the child's run is scaled by CAL_REFERENCE_S over
# the mean of the calibration times around it. Reported times are thus seconds
# at a reference speed; the unscaled times are kept in the results file.
CAL_BUFFER = bytes(2_000_000)
CAL_REFERENCE_S = 0.015  # median calibrate() on a 2-vCPU x86-64 VM, Python 3.11
CAL_INTERVAL_S = 0.5

STEPS = ("analyze", "plan", "prune", "report", "prune_multipass", "verify")


@dataclass(frozen=True)
class Workload:
    model: str
    preset: str
    flop_target: float
    passes: int
    per_pass: float
    verify_kinds: tuple[str, ...]
    verify_trials: int
    # the model's expected size, so that the workload cannot shrink silently
    nodes: int
    container_bytes: int
    units: int
    dump_units: bool = False


# Why each workload exists is recorded in BENCHMARK.json; which per-layer
# metric should move which end-to-end metric on which workload is in
# layer_map.json.
WORKLOADS = {
    "vgg16-quickstart": Workload(
        model="vgg16",
        preset="vggnet",
        flop_target=0.66,
        passes=3,
        per_pass=0.2,
        verify_kinds=("full_channel",),
        verify_trials=1,
        nodes=48,
        container_bytes=58_946_856,
        units=4_224,
        dump_units=True,
    ),
    "resnet164-plan": Workload(
        model="resnet164",
        preset="resnet",
        flop_target=0.8,
        passes=2,
        per_pass=0.1,
        verify_kinds=("full_channel",),
        verify_trials=1,
        nodes=554,
        container_bytes=6_917_096,
        units=4_496,
    ),
    "densenet40-iterate": Workload(
        model="densenet40",
        preset="densenet",
        flop_target=0.5,
        passes=3,
        per_pass=0.2,
        verify_kinds=("full_channel", "in_channel_only"),
        verify_trials=2,
        nodes=160,
        container_bytes=4_312_072,
        units=3_312,
    ),
}

E2E_METRICS = {
    "setup_s": "s",
    "pipeline_s": "s",
    **{f"{step}_s": "s" for step in STEPS},
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "graph.load_model.self_s": "s",
    "graph.validate.self_s": "s",
    "graph.infer_shapes.self_s": "s",
    "graph.serialize_graph.self_s": "s",
    "graph.serialize_graph.calls": "count",
    "graph.serialize_graph.bytes": "bytes",
    "graph.graph_checksum.self_s": "s",
    "graph.graph_checksum.calls": "count",
    "graph.save_model.self_s": "s",
    "units.build_prune_units.self_s": "s",
    "units.build_prune_units.calls": "count",
    "units.count.full_channel": "count",
    "units.count.in_channel_only": "count",
    "scoring.score_all.self_s": "s",
    "scoring.dependency_l1.self_s": "s",
    "scoring.dependency_l1.calls": "count",
    "scoring.records_export.self_s": "s",
    "costs.effective_model_costs.self_s": "s",
    "costs.effective_model_costs.calls": "count",
    "costs.unit_cost.self_s": "s",
    "planner.select_threshold.self_s": "s",
    "planner.units_removed": "count",
    "planner.recounts_per_removed": "ratio",
    "surgeon.apply_plan.self_s": "s",
    "surgeon.apply_units.self_s": "s",
    "surgeon.clone_graph.self_s": "s",
    "surgeon.zero_equivalence_check.self_s": "s",
    "eval.forward_eval.self_s": "s",
    "eval.forward_eval.calls": "count",
    "cli.import_s": "s",
    **{f"cli.{step}.self_s": "s" for step in STEPS},
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    exit_code: int
    wall_s: float  # wall time the child ran, stops for calibration excluded
    time_s: float  # the same at the reference speed
    rss_mb: float
    start_ns: int  # CLOCK_MONOTONIC, shared with the child's spans
    end_ns: int
    profile: dict = field(default_factory=dict)  # traced steps only


def run_child(argv: list[str], env: dict, log_dir: str, stops: bool = True) -> Child:
    """Run a child to completion with stdout/stderr in ``log_dir``. With
    ``stops`` off the child runs without pauses (its spans must cover its
    whole wall time) and is scaled by the calibrations before and after it."""
    os.makedirs(log_dir, exist_ok=True)
    cal = calibrate()
    wall = scaled = 0.0
    status = usage = None
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
        start = stretch = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    waited = (time.monotonic_ns() - start) / 1e9
                    timeout = min(CAL_INTERVAL_S, CHILD_TIMEOUT_S - waited) if stops else CHILD_TIMEOUT_S - waited
                    if select.select([pidfd], [], [], max(timeout, 0))[0]:
                        break  # the child has exited
                    if waited >= CHILD_TIMEOUT_S:
                        proc.kill()
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break  # it exited just before the stop
                    status = None
                    now = time.monotonic_ns()
                    again = calibrate()
                    wall += (now - stretch) / 1e9
                    scaled += (now - stretch) / 1e9 * CAL_REFERENCE_S / ((cal + again) / 2)
                    cal = again
                    stretch = time.monotonic_ns()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall += (end - stretch) / 1e9
    scaled += (end - stretch) / 1e9 * CAL_REFERENCE_S / ((cal + calibrate()) / 2)
    return Child(proc.returncode, wall, scaled, usage.ru_maxrss / 1024, start, end)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and hashing work."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    hashlib.sha256(CAL_BUFFER).digest()
    return time.perf_counter() - start


def child_env() -> dict:
    """Children import prunekit from ./src; BLAS threads pinned to the CPUs we may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    cpus = str(len(os.sched_getaffinity(0)))
    env.update({var: cpus for var in THREAD_VARS})
    return env


def _tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return " | ".join(f.read().strip().splitlines()[-lines:])


class Bench:
    """One workload at one seed: set-up, repeated pipelines, checks, metrics."""

    def __init__(self, name: str, seed: int, env: dict, work: str):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.env = env
        self.work = work
        self.model = os.path.join(work, "setup0", "model.json")
        self.reference: dict[str, dict] = {}  # step -> artifact digests of its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traced_steps = 0
        self.self_time_failures = 0

    def out(self, step: str) -> str:
        return os.path.join(self.work, step, "out")

    def argv(self, step: str) -> list[str]:
        w, model = self.w, self.model
        common = ["--model", model, "--preset", w.preset]
        return {
            "analyze": ["cli", "analyze", *common, "--out-dir", self.out(step)] + ["--dump-units"] * w.dump_units,
            "plan": ["cli", "plan", *common, "--flop-target", str(w.flop_target), "--out-dir", self.out(step)],
            "prune": ["cli", "prune", *common, "--plan", self._plan(), "--out-dir", self.out(step)],
            "report": ["cli", "report", "--baseline", model, "--pruned", self._pruned("prune"), "--out-dir", self.out(step)],
            "prune_multipass": [
                "cli", "prune", *common, "--passes", str(w.passes), "--per-pass", str(w.per_pass), "--out-dir", self.out(step),
            ],
            "verify": ["verify", model, str(self.seed), str(w.verify_trials), ",".join(w.verify_kinds)],
        }[step]

    def _plan(self) -> str:
        return os.path.join(self.out("plan"), "plan.json")

    def _pruned(self, step: str) -> str:
        return os.path.join(self.out(step), "pruned_manifest.json")

    def check(self, step: str) -> list[str]:
        w = self.w
        if step == "analyze":
            return checks.check_analyze(self.out(step), w.units, w.dump_units)
        if step == "plan":
            return checks.check_plan(self._plan(), w.flop_target, self.model)
        if step == "prune":
            return checks.check_pruned(self._pruned(step), self._plan())
        if step == "report":
            report = os.path.join(self.out(step), "report.json")
            return checks.check_report(report, self.model, self._pruned("prune"), w.flop_target)
        if step == "prune_multipass":
            return checks.check_multipass(self.out(step), w.passes, w.per_pass)
        return checks.check_verify(os.path.join(self.work, step, "stdout.txt"), w.verify_kinds)

    def setup(self, repeats: int) -> list[Child]:
        """Build and save the model ``repeats`` times; every copy must be identical."""
        runs = []
        for i in range(repeats):
            target = os.path.join(self.work, f"setup{i}")
            argv = [sys.executable, CHILD, "setup", self.w.model, str(self.seed), target]
            runs.append(run_child(argv, self.env, target))
            if runs[-1].exit_code != 0:
                self.problems.append(f"setup: exit {runs[-1].exit_code}: {_tail(os.path.join(target, 'stderr.txt'))}")
                continue
            manifest = os.path.join(target, "model.json")
            self.problems += [f"setup: {p}" for p in checks.check_setup(manifest, self.w.nodes, self.w.container_bytes)]
            if i == 0:
                self.reference["setup"] = checks.digests(target)
            else:
                if checks.digests(target) != self.reference["setup"]:
                    self.problems.append(f"setup: copy {i} differs from copy 0 for the same seed")
                shutil.rmtree(target)
        return runs

    def run_step(self, step: str, traced: bool = False, stops: bool = True) -> Child:
        step_dir = os.path.join(self.work, step)
        shutil.rmtree(step_dir, ignore_errors=True)
        spans_path = os.path.join(self.work, f"{step}.spans.json")
        argv = [sys.executable, CHILD] + (["--trace", spans_path] if traced else []) + self.argv(step)
        result = run_child(argv, self.env, step_dir, stops)
        code = result.exit_code
        problems = [] if code == 0 else [f"exit {code}: {_tail(os.path.join(step_dir, 'stderr.txt'))}"]
        if code == 0:
            problems += self.check(step)
            found = checks.digests(step_dir)
            expected = self.reference.setdefault(step, found)
            if found != expected:
                changed = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
                problems.append(f"artifacts differ from the first run: {changed}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{step}: {p}" for p in problems]
        if traced and code == 0:
            with open(spans_path, "r", encoding="utf-8") as f:
                spans = json.load(f)
            profile, uncovered, span_problems = tracer.step_profile(spans, result.start_ns, result.end_ns)
            profile[f"cli.{step}.self_s"] = uncovered / 1e9
            scale = result.time_s / result.wall_s
            result.profile = {k: v * scale if k.endswith("_s") else v for k, v in profile.items()}
            # a failed self-time check is the tracer's fault, not the step's
            self.traced_steps += 1
            self.self_time_failures += bool(span_problems)
            self.problems += [f"{step} trace: {p}" for p in span_problems]
        return result

    def steps(self, seconds: float) -> dict[str, list[Child]]:
        """Two pipelines, then more runs of whichever step has had the least
        measured time so far, until ``seconds`` are used, so that short steps
        get many samples. A step may repeat alone because each step's outputs
        are identical on every run (which ``run_step`` checks)."""
        start = time.monotonic()
        samples = {step: [self.run_step(step)] for step in STEPS}
        for step in STEPS:
            samples[step].append(self.run_step(step))
        while True:
            step = min(STEPS, key=lambda s: sum(r.wall_s for r in samples[s]))
            expected = statistics.fmean(r.wall_s for r in samples[step])
            if time.monotonic() - start + expected > seconds:
                return samples
            samples[step].append(self.run_step(step))

    def traced_pipelines(self, seconds: float) -> list[tuple[dict, dict]]:
        """Pairs of (untraced, traced) pipelines while the next pair is
        expected to end less than half a pair late. No child is stopped for
        calibration, since a traced child's spans must cover its wall time."""
        pairs = []
        start = time.monotonic()
        while True:
            plain = {step: self.run_step(step, stops=False) for step in STEPS}
            traced = {step: self.run_step(step, traced=True, stops=False) for step in STEPS}
            pairs.append((plain, traced))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(pairs) / 2 > seconds:
                return pairs

    def import_times(self, repeats: int) -> list[float]:
        probe = os.path.join(self.work, "import")
        runs = [run_child([sys.executable, "-c", "import prunekit"], self.env, probe) for _ in range(repeats)]
        if any(r.exit_code != 0 for r in runs):
            self.problems.append("import prunekit failed")
        return [r.time_s for r in runs]


def e2e_samples(setups: list[Child], steps: dict[str, list[Child]], timing: str) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; ``timing`` picks ``time_s`` (scaled)
    or ``wall_s`` (as measured)."""
    samples = {"setup_s": [getattr(r, timing) for r in setups]}
    samples.update({f"{step}_s": [getattr(r, timing) for r in results] for step, results in steps.items()})
    # one value per run: the sum of the step medians, and the largest peak RSS of any child
    samples["pipeline_s"] = [sum(statistics.median(samples[f"{step}_s"]) for step in STEPS)]
    samples["peak_rss_mb"] = [max(r.rss_mb for results in steps.values() for r in results)]
    return samples


def layer_samples(import_times: list[float], pairs: list) -> dict[str, list[float]]:
    per_run = []
    for plain, traced in pairs:
        totals: dict[str, float] = {}
        for result in traced.values():
            for key, value in result.profile.items():
                totals[key] = totals.get(key, 0) + value
        removed = totals.get("planner.units_removed", 0)
        totals["planner.recounts_per_removed"] = totals.get("planner.recounts", 0) / removed if removed else 0.0
        totals["trace.overhead_s"] = sum(r.time_s for r in traced.values()) - sum(r.time_s for r in plain.values())
        per_run.append(totals)
    samples = {name: [totals.get(name, 0) for totals in per_run] for name in LAYER_METRICS}
    samples["cli.import_s"] = import_times
    return samples


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return (
        f"{name}: {med:.6g} {unit}  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )


def tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout (the source digest identifies the code then)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment(env: dict, numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": tree_digest("src"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict, work: str) -> dict:
    bench = Bench(name, seed, env, work)
    setups = bench.setup(1 if trace else SETUP_REPEATS)
    if trace:
        import_times = bench.import_times(IMPORT_REPEATS)
        samples, raw, units = layer_samples(import_times, bench.traced_pipelines(seconds)), None, LAYER_METRICS
    else:
        steps = bench.steps(seconds)
        samples, raw, units = e2e_samples(setups, steps, "time_s"), e2e_samples(setups, steps, "wall_s"), E2E_METRICS
    return {
        "workload": name,
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "self_time_check": {"traced_steps": bench.traced_steps, "failed": bench.self_time_failures},
        "samples": samples,
        "raw_samples": raw,
        "metrics": {m: {"value": statistics.median(samples[m]), "unit": units[m]} for m in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="model weights and verified units derive from it")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "prunekit", "cli.py")):
        print("perfbench: src/prunekit not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as f:
        mapped = [m for entry in json.load(f)["map"] for m in entry["metrics"]]
    if sorted(mapped) != sorted(LAYER_METRICS):
        print("perfbench: layer_map.json must name every per-layer metric once", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # numpy generators take non-negative seeds
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    env = child_env()
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    work = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    try:
        # compiles prunekit's bytecode once, so no timed step pays for it
        probe = [sys.executable, "-c", "import numpy, prunekit; print(numpy.__version__)"]
        if run_child(probe, env, work).exit_code != 0:
            print(f"perfbench: cannot import prunekit: {_tail(os.path.join(work, 'stderr.txt'))}", file=sys.stderr)
            return 2
        with open(os.path.join(work, "stdout.txt"), encoding="utf-8") as f:
            info = environment(env, f.read().strip())
        print("# environment " + json.dumps(info, sort_keys=True))
        results = []
        for name in names:
            result = run_workload(name, seed, args.seconds, bool(args.trace), env, os.path.join(work, name))
            results.append(result)
            attempted, failed = result["attempted"], result["failed"]
            print(f"# {name} seed={seed} trace={args.trace}")
            for metric, values in result["samples"].items():
                line = f"{name} {describe(metric, result['metrics'][metric]['unit'], values)}"
                if result["raw_samples"] and metric.endswith("_s"):
                    line += f"  unscaled median {statistics.median(result['raw_samples'][metric]):.6g} s"
                print(line)
            print(f"{name} failed_ratio: {failed / attempted:.6g}  ({failed} of {attempted} steps failed)")
            if args.trace:
                check = result["self_time_check"]
                print(
                    f"{name} self-time check: {check['failed']} of {check['traced_steps']} traced steps fail "
                    "(self times plus cli self time must equal the step's wall time)"
                )
            for problem in result["problems"]:
                print(f"{name} problem: {problem}")
            path = os.path.join(STATE_DIR, "results", f"{name}-seed{seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({**result, "seed": seed, "seconds": args.seconds, "environment": info}, f, indent=2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
