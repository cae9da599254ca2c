"""Time the forward evaluator and the zero-equivalence check in process.

    python3 tools/eval_times.py [--repeats 7] [--seeds 1-10] [--trials 2]

For zoo vgg16, resnet56 and densenet40 (seed 0), prints the best of
``--repeats`` wall times of ``forward_eval`` on seeded random batches of 1, 2
and 8 inputs, and of ``zero_equivalence_check`` with ``--trials`` inputs for
each seed of ``--seeds``, on one unit of each kind the model has, drawn in turn
from one generator seeded with that seed, as the benchmark's ``verify`` step
draws them. Times are in milliseconds. BLAS runs on one thread, and only
prunekit (from the ``src`` directory next to this script) and numpy are
imported, so two checkouts can be compared by running each one's copy of the
script on the same CPU.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from prunekit import build_prune_units, forward_eval, infer_shapes, zero_equivalence_check, zoo  # noqa: E402

MODELS = ("vgg16", "resnet56", "densenet40")
BATCHES = (1, 2, 8)
KINDS = ("full_channel", "in_channel_only")


def best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trials", type=int, default=2)
    args = ap.parse_args(argv)
    for name in MODELS:
        graph = infer_shapes(getattr(zoo, name)(seed=0))
        shape = (graph.input_channels, graph.input_size, graph.input_size)
        for n in BATCHES:
            x = np.random.default_rng(n).standard_normal((n, *shape))
            print(f"{name:<11} forward_eval batch {n}: {best_ms(lambda: forward_eval(graph, x), args.repeats):8.2f} ms")
        units = build_prune_units(graph)
        pools = {kind: pool for kind in KINDS if (pool := [u for u in units if u.kind == kind])}
        times: dict[str, list[float]] = {kind: [] for kind in pools}
        for seed in args.seeds:
            rng = np.random.default_rng(seed)  # one draw per kind, in order, from one generator
            for kind, pool in pools.items():
                unit = pool[int(rng.integers(len(pool)))]
                check = lambda: zero_equivalence_check(graph, unit, trials=args.trials, seed=seed)  # noqa: E731
                times[kind].append(best_ms(check, args.repeats))
        for kind, ms in times.items():
            print(
                f"{name:<11} zero_equivalence_check {kind} (seeds {args.seeds.start}-{args.seeds.stop - 1}): "
                f"min {min(ms):.2f} / median {float(np.median(ms)):.2f} / max {max(ms):.2f} ms"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
