"""Print the sha256 of every artifact of the README quick start.

    python3 tools/quickstart_digests.py

Runs, for zoo vgg16, densenet40 and resnet56 (seed 0, each with its own
preset), the quick start (``analyze --dump-units``, ``plan``, ``prune --plan``,
``report``) and the multi-pass ``prune --passes 3 --per-pass 0.2`` through
``prunekit.cli.main`` in a temporary directory, then prints one
``<sha256>  <model>/<path>`` line per artifact, sorted by path. The
``run_manifest.json`` files carry timings and absolute paths and are skipped.

Refactors must leave every digest unchanged: run the script on two checkouts
and diff the outputs. It imports prunekit from the ``src`` directory next to
this script, so each checkout measures its own code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from prunekit import save_model, zoo  # noqa: E402
from prunekit.cli import main  # noqa: E402

# model -> (preset, quick-start FLOP target)
MODELS = {"vgg16": ("vggnet", "0.66"), "densenet40": ("densenet", "0.5"), "resnet56": ("resnet", "0.5")}


def run_model(name: str, preset: str, flop_target: str, work: str) -> None:
    model = os.path.join(work, "model.json")
    save_model(getattr(zoo, name)(seed=0), model, os.path.join(work, "model.bin"))
    out, pruned, report, multi = (os.path.join(work, d) for d in ("out", "pruned", "report", "multipass"))
    common = ["--model", model, "--preset", preset]
    steps = [
        ["analyze", *common, "--out-dir", out, "--dump-units"],
        ["plan", *common, "--out-dir", out, "--flop-target", flop_target],
        ["prune", *common, "--plan", os.path.join(out, "plan.json"), "--out-dir", pruned],
        ["report", "--baseline", model, "--pruned", os.path.join(pruned, "pruned_manifest.json"), "--out-dir", report],
        ["prune", *common, "--passes", "3", "--per-pass", "0.2", "--out-dir", multi],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise SystemExit(f"{name}: prunekit {' '.join(argv[:1])} exited {rc}")


def digests(top: str) -> dict[str, str]:
    found = {}
    for root, _, files in os.walk(top):
        for name in files:
            if name == "run_manifest.json":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, top)] = hashlib.sha256(f.read()).hexdigest()
    return found


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, (preset, flop_target) in MODELS.items():
            os.makedirs(os.path.join(work, name))
            run_model(name, preset, flop_target, os.path.join(work, name))
        for path, digest in sorted(digests(work).items()):
            print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
