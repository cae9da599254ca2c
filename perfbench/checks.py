"""Output checks for each benchmark step.

They read only the files the steps wrote and never import prunekit, so a
defect in the program cannot also hide in its checker. Each check returns a
list of problems; an empty list means the step's outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# tensors that count as parameters: weights and biases of weighted layers,
# batch-norm scale and shift (running statistics are buffers)
PARAM_ROLES = {"Conv2d": ("weight", "bias"), "Linear": ("weight", "bias"), "BatchNorm2d": ("gamma", "beta")}


def _load(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def recount_params(manifest_path: str) -> int:
    """Parameters of a saved model, from the tensor shapes in its manifest."""
    total = 0
    for node in _load(manifest_path)["nodes"]:
        for role in PARAM_ROLES.get(node["kind"], ()):
            if role in node["tensors"]:
                total += math.prod(node["tensors"][role]["shape"])
    return total


def digests(directory: str, skip: str = "run_manifest.json") -> dict[str, str]:
    """sha256 of every file under ``directory`` except files named ``skip``."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name == skip:
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_setup(manifest_path: str, nodes: int, container_bytes: int) -> list[str]:
    manifest = _load(manifest_path)
    weights = os.path.join(os.path.dirname(manifest_path), manifest["weights_file"])
    found = (len(manifest["nodes"]), manifest["total_bytes"], os.path.getsize(weights))
    if found != (nodes, container_bytes, container_bytes):
        return [f"model has (nodes, declared bytes, file bytes) {found}, expected {(nodes, container_bytes, container_bytes)}"]
    return []


def check_analyze(out_dir: str, units: int, dumped: bool) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "records.csv"), "r", encoding="utf-8") as f:
        rows = sum(1 for _ in f) - 1
    if rows != units:
        problems.append(f"records.csv has {rows} records, expected {units} units")
    if dumped and len(_load(os.path.join(out_dir, "units.json"))) != units:
        problems.append(f"units.json does not list {units} units")
    return problems


def check_plan(plan_path: str, target: float, baseline_manifest: str | None = None) -> list[str]:
    plan = _load(plan_path)
    problems = []
    if not plan["predicted"]["frr"] >= target:
        problems.append(f"{plan_path}: frr {plan['predicted']['frr']} is below the target {target}")
    if baseline_manifest is not None and plan["baseline"]["params"] != recount_params(baseline_manifest):
        problems.append(f"{plan_path}: baseline params differ from the recount of {baseline_manifest}")
    return problems


def check_pruned(manifest_path: str, plan_path: str) -> list[str]:
    predicted = _load(plan_path)["predicted"]["params"]
    recount = recount_params(manifest_path)
    if recount != predicted:
        return [f"{manifest_path}: recounted {recount} params, plan predicted {predicted}"]
    return []


def check_multipass(out_dir: str, passes: int, per_pass: float) -> list[str]:
    plans = [os.path.join(out_dir, f"plan_pass{i}.json") for i in range(1, passes + 1)]
    missing = [p for p in plans if not os.path.exists(p)]
    if missing:
        return [f"missing plans {missing}"]
    problems = [p for plan in plans for p in check_plan(plan, per_pass)]
    return problems + check_pruned(os.path.join(out_dir, "pruned_manifest.json"), plans[-1])


def check_report(report_path: str, baseline_manifest: str, pruned_manifest: str, target: float) -> list[str]:
    report = _load(report_path)
    expected = (recount_params(baseline_manifest), recount_params(pruned_manifest))
    found = (report["baseline"]["params"], report["pruned"]["params"])
    problems = [] if found == expected else [f"report params {found}, recount {expected}"]
    if not report["frr"] >= target:
        problems.append(f"report frr {report['frr']} is below the target {target}")
    return problems


def check_verify(stdout_path: str, kinds: tuple[str, ...]) -> list[str]:
    with open(stdout_path, "r", encoding="utf-8") as f:
        results = json.loads(f.read().strip().splitlines()[-1])
    if tuple(r["kind"] for r in results) != kinds:
        return [f"verified kinds {[r['kind'] for r in results]}, expected {list(kinds)}"]
    return [f"{r['unit']}: zeroed and pruned outputs differ" for r in results if r["equivalent"] is not True]
