"""Peak RSS of each benchmark step, each in its own child process.

    python3 tools/step_rss.py [--workload vgg16-quickstart|...|all] [--seeds 41,42] [--repeats 1]

Builds each workload's model with ``perfbench/child.py setup`` and runs the
benchmark's six steps on it in pipeline order, with the arguments
``perfbench/run.py`` gives them, then prints each step's ``ru_maxrss`` in MB
from ``os.wait4`` (the largest over ``--repeats`` runs). The benchmark reports
only the largest of these, and its parent process hashes every file its steps
write, which raises the high-water RSS a child starts from on Linux. This
parent imports neither numpy nor prunekit and reads no step output, so each
figure is the step's own. Run it from any directory; the children import
prunekit from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import run  # noqa: E402  (perfbench's workloads, step arguments and child environment)


def max_rss_mb(argv: list[str], env: dict, log_dir: str) -> float:
    """Run ``argv`` with its output in ``log_dir``; its peak RSS in MB. A
    failing child ends the script with its stderr."""
    os.makedirs(log_dir, exist_ok=True)
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            sys.exit(f"{' '.join(argv[2:4])} failed:\n{f.read()}")
    return usage.ru_maxrss / 1024


def workload_rss(name: str, seed: int, repeats: int, env: dict) -> dict[str, float]:
    """Peak RSS in MB of the setup and of each step of one workload at one seed."""
    with tempfile.TemporaryDirectory(prefix="step_rss-") as work:
        bench = run.Bench(name, seed, env, work)
        setup = os.path.join(work, "setup0")
        peaks = {"setup": max_rss_mb([sys.executable, run.CHILD, "setup", bench.w.model, str(seed), setup], env, setup)}
        for step in run.STEPS:
            step_dir = os.path.join(work, step)
            for _ in range(repeats):
                shutil.rmtree(step_dir, ignore_errors=True)
                rss = max_rss_mb([sys.executable, run.CHILD, *bench.argv(step)], env, step_dir)
                peaks[step] = max(peaks.get(step, 0.0), rss)
        return peaks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*run.WORKLOADS, "all"])
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--repeats", type=int, default=1, help="runs of each step; the largest peak is printed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    os.chdir(ROOT)  # run.child_env puts ./src on the children's path
    env = run.child_env()
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    columns = ["setup", *run.STEPS]
    print("workload seed " + " ".join(columns) + " (MB)")
    for name in names:
        for seed in (int(s) for s in args.seeds.split(",")):
            peaks = workload_rss(name, seed, args.repeats, env)
            print(f"{name} {seed} " + " ".join(f"{peaks[c]:.1f}" for c in columns), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
