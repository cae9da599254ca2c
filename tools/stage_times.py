"""Time each stage of the planning path in process.

    python3 tools/stage_times.py [--workload vgg16-quickstart|...|all] [--seed 1] [--repeats 5] [--cpu N]

Builds each benchmark workload's model with ``perfbench/models.py`` at the
seed, saves it to a temporary directory and prints the best of ``--repeats``
wall times, in milliseconds, of each stage of ``plan`` and ``analyze`` under
the workload's preset and FLOP target: ``load_model`` + ``infer_shapes``,
``build_prune_units``, ``score_all``, ``rank_global``, ``select_threshold``
with and without ``graph_checksum`` (stubbed out for the second),
``records_texts`` and ``PruningPlan.to_json``, and of the prune side of that
plan: ``PruningPlan.from_json`` of the written text and
``PruningPlan.removed_table``. A ``gc.collect()`` runs before each timed
call. ``--cpu`` pins this process to one CPU. BLAS runs on one
thread, and prunekit is imported from the ``src`` directory next to this
script, so two checkouts can be compared by running each one's copy of the
script on the same CPU.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import models  # noqa: E402  (the benchmark's seeded model builders)
import run  # noqa: E402  (the benchmark's workloads: model, preset and FLOP target)

import prunekit.planner as planner  # noqa: E402
from prunekit import Config, PruningPlan, build_prune_units, infer_shapes, load_model, rank_global, save_model  # noqa: E402
from prunekit import score_all, select_threshold  # noqa: E402
from prunekit.scoring import records_texts  # noqa: E402

STAGES = (
    "load + infer_shapes",
    "build_prune_units",
    "score_all",
    "rank_global",
    "select_threshold",
    "select_threshold, no checksum",
    "records_texts",
    "PruningPlan.to_json",
    "PruningPlan.from_json",
    "removed_table",
)


def best_ms(fn, repeats: int):
    """The best wall time of ``repeats`` calls of ``fn`` in ms, and its last result."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, result


def stage_times(name: str, seed: int, repeats: int, work: str) -> dict[str, float]:
    """Each stage's best time in ms on one workload's model."""
    w = run.WORKLOADS[name]
    manifest, weights = os.path.join(work, f"{name}.json"), os.path.join(work, f"{name}.bin")
    save_model(models.BUILDERS[w.model](seed=seed), manifest, weights)
    alpha, beta = Config.PRESETS[w.preset]
    config = Config(alpha=alpha, beta=beta, flop_target_ratio=w.flop_target)
    times = {}
    times[STAGES[0]], graph = best_ms(lambda: infer_shapes(load_model(manifest, weights)), repeats)
    times[STAGES[1]], units = best_ms(lambda: build_prune_units(graph), repeats)
    times[STAGES[2]], scores = best_ms(lambda: score_all(graph, units, config), repeats)
    times[STAGES[3]], _ = best_ms(lambda: rank_global(scores), repeats)
    times[STAGES[4]], plan = best_ms(lambda: select_threshold(scores, graph, config), repeats)
    checksum, planner.graph_checksum = planner.graph_checksum, lambda graph: plan.model_checksum
    try:
        times[STAGES[5]], _ = best_ms(lambda: select_threshold(scores, graph, config), repeats)
    finally:
        planner.graph_checksum = checksum
    times[STAGES[6]], _ = best_ms(lambda: records_texts(scores), repeats)
    times[STAGES[7]], text = best_ms(plan.to_json, repeats)
    times[STAGES[8]], plan = best_ms(lambda: PruningPlan.from_json(text), repeats)
    times[STAGES[9]], _ = best_ms(lambda: plan.removed_table(graph), repeats)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*run.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="stage_times-") as work:
        columns = {name: stage_times(name, args.seed, args.repeats, work) for name in names}
    print(f"{'stage (ms, best of ' + str(args.repeats) + ')':<32}" + "".join(f"{name:>20}" for name in names))
    for stage in STAGES:
        print(f"{stage:<32}" + "".join(f"{columns[name][stage]:>20.1f}" for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
