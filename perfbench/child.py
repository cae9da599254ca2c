"""One benchmark step, run in its own process by ``run.py``.

    child.py setup MODEL SEED OUT_DIR
    child.py [--trace SPANS_JSON] cli SUBCOMMAND ARGS...
    child.py [--trace SPANS_JSON] verify MANIFEST SEED TRIALS KIND[,KIND...]

``setup`` builds the seeded model and saves ``model.json``/``model.bin``.
``cli`` runs ``prunekit.cli.main`` exactly as the ``prunekit`` console script
does. ``verify`` picks one unit of each listed kind with the seed and prints
the result of ``zero_equivalence_check`` for each as JSON. With ``--trace``
the prunekit functions are wrapped first and the spans are written to
SPANS_JSON when the step ends.
"""

from __future__ import annotations

import json
import os
import sys


def setup(model: str, seed: str, out_dir: str) -> int:
    from prunekit import save_model

    import models

    graph = models.BUILDERS[model](seed=int(seed))
    save_model(graph, os.path.join(out_dir, "model.json"), os.path.join(out_dir, "model.bin"))
    return 0


def verify(manifest: str, seed: str, trials: str, kinds: str) -> int:
    import numpy as np

    from prunekit import build_prune_units, infer_shapes, load_model, zero_equivalence_check

    graph = infer_shapes(load_model(manifest))
    units = build_prune_units(graph)
    rng = np.random.default_rng(int(seed))
    results = []
    for kind in kinds.split(","):
        pool = [u for u in units if u.kind == kind]
        unit = pool[int(rng.integers(len(pool)))]
        ok = zero_equivalence_check(graph, unit, trials=int(trials), seed=int(seed))
        results.append({"unit": unit.uid, "kind": kind, "equivalent": bool(ok)})
    print(json.dumps(results))
    return 0


def cli(*argv: str) -> int:
    from prunekit.cli import main

    return main(list(argv))


COMMANDS = {"setup": setup, "verify": verify, "cli": cli}


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    command = COMMANDS[argv[0]]
    if spans_path is None:
        return command(*argv[1:])

    import tracer

    recorder = tracer.Tracer()
    tracer.install(recorder)
    try:
        return command(*argv[1:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
