"""Print the sha256 of every artifact of the README quick start.

    python3 tools/quickstart_digests.py

Runs, for zoo vgg16, densenet40 and resnet56 (seed 0, each with its own
preset), the quick start (``analyze --dump-units``, ``plan``, ``prune --plan``,
``report``), the multi-pass ``prune --passes 3 --per-pass 0.2`` followed by
``analyze --dump-units`` on its pruned model (densenet40's has ``in_select``
consumers and in-channel-only units) and four
variant plans that the quick start never reaches (``analyze``/``plan --mode
cpmc-a``; ``plan --flops-convention 2macs --param-target``; ``plan
--weight-norm log``; ``plan`` and ``prune --plan`` under a config file with
``count_aux_params = false`` and ``min_channels_per_layer = 2``) through
``prunekit.cli.main`` in a temporary directory, then prints one
``<sha256>  <model>/<path>`` line per artifact, sorted by path. The
``run_manifest.json`` files carry timings and absolute paths and are skipped.

Refactors must leave every digest unchanged: run the script on two checkouts
and diff the outputs. It imports prunekit from the ``src`` directory next to
this script, so each checkout measures its own code.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from prunekit import save_model, zoo  # noqa: E402
from prunekit.cli import _file_checksum, main  # noqa: E402

# model -> (preset, quick-start FLOP target)
MODELS = {"vgg16": ("vggnet", "0.66"), "densenet40": ("densenet", "0.5"), "resnet56": ("resnet", "0.5")}

NO_AUX_CONFIG = "count_aux_params = false\nmin_channels_per_layer = 2\n"


def run_model(name: str, preset: str, flop_target: str, work: str) -> None:
    model = os.path.join(work, "model.json")
    save_model(getattr(zoo, name)(seed=0), model, os.path.join(work, "model.bin"))
    out, pruned, report, multi = (os.path.join(work, d) for d in ("out", "pruned", "report", "multipass"))
    cpmc_a, two_macs, log_norm, no_aux = (os.path.join(work, d) for d in ("cpmc_a", "2macs", "log_norm", "no_aux"))
    config = os.path.join(work, "no_aux.cfg")
    with open(config, "w", encoding="utf-8") as f:
        f.write(NO_AUX_CONFIG)
    common = ["--model", model, "--preset", preset]
    steps = [
        ["analyze", *common, "--out-dir", out, "--dump-units"],
        ["plan", *common, "--out-dir", out, "--flop-target", flop_target],
        ["prune", *common, "--plan", os.path.join(out, "plan.json"), "--out-dir", pruned],
        ["report", "--baseline", model, "--pruned", os.path.join(pruned, "pruned_manifest.json"), "--out-dir", report],
        ["prune", *common, "--passes", "3", "--per-pass", "0.2", "--out-dir", multi],
        ["analyze", "--model", os.path.join(multi, "pruned_manifest.json"), "--preset", preset, "--dump-units",
         "--out-dir", os.path.join(multi, "analyze")],
        ["analyze", *common, "--mode", "cpmc-a", "--out-dir", cpmc_a],
        ["plan", *common, "--mode", "cpmc-a", "--flop-target", flop_target, "--out-dir", cpmc_a],
        ["plan", *common, "--flops-convention", "2macs", "--flop-target", "0.3", "--param-target", "0.4",
         "--out-dir", two_macs],
        ["plan", *common, "--weight-norm", "log", "--flop-target", flop_target, "--out-dir", log_norm],
        ["plan", *common, "--config", config, "--flop-target", flop_target, "--out-dir", no_aux],
        ["prune", *common, "--config", config, "--plan", os.path.join(no_aux, "plan.json"),
         "--out-dir", os.path.join(no_aux, "pruned")],
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
            if name in ("run_manifest.json", "no_aux.cfg"):
                continue
            path = os.path.join(root, name)
            found[os.path.relpath(path, top)] = _file_checksum(path)  # read in 1 MiB chunks
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
