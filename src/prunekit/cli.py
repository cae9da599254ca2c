"""Command-line front end.

Subcommands wire the pipeline stages together: ``analyze`` scores every unit
and exports the records, ``plan`` selects a removal set for a FLOP target,
``prune`` applies a plan (or drives the iterative multi-pass scheme), and
``report`` compares a pruned model against its baseline. Configuration comes
from defaults, then a key=value config file, then a preset, then explicit
flags, each layer overriding the previous one.

Exit codes: 0 success, 2 validation failure, 3 infeasible budget, 4 I/O error.
Failures, a bad command line too, emit a machine-parsable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from . import __version__
from .costs import CONVENTIONS, effective_model_costs
from .errors import DegenerateModelError, GraphValidationError, InfeasibleBudgetError, ManifestError, PruneKitError
from .graph import ModelGraph, container_checksum, infer_shapes, load_model, resolve_weights, save_model
from .planner import PruningPlan, multi_pass, select_threshold
from .scoring import WEIGHT_NORM_MODES, Config, records_texts, score_all
from .surgeon import apply_plan
from .units import build_prune_units

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting, so that main reports it."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as e:
        return _fail("usage", str(e), EXIT_VALIDATION)
    except GraphValidationError as e:
        return _fail("validation", str(e), EXIT_VALIDATION, violations=e.violations)
    except InfeasibleBudgetError as e:
        return _fail("infeasible-budget", str(e), EXIT_INFEASIBLE, best_frr=e.best_frr)
    except PruneKitError as e:
        return _fail(type(e).__name__, str(e), EXIT_VALIDATION)
    except OSError as e:
        return _fail("io", str(e), EXIT_IO)


def _fail(code: str, message: str, exit_code: int, **details) -> int:
    payload = {"error": {"code": code, "message": message}}
    if details:
        payload["error"].update(details)
    print(json.dumps(payload), file=sys.stderr)
    return exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prunekit", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"prunekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model manifest (JSON)")
        p.add_argument("--weights", help="weight container (defaults to manifest's weights_file)")
        p.add_argument("--out-dir", default=".", help="directory for produced artifacts")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--preset", choices=sorted(Config.PRESETS), help="alpha/beta preset")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        # each dest is the Config field the flag sets (see _make_config)
        p.add_argument("--flop-target", type=float, dest="flop_target_ratio", metavar="FLOP_TARGET")
        p.add_argument(
            "--param-target",
            type=float,
            dest="param_target_ratio",
            metavar="PARAM_TARGET",
            help="optional secondary budget",
        )
        p.add_argument("--weight-norm", choices=WEIGHT_NORM_MODES, dest="weight_norm_mode")
        p.add_argument("--mode", choices=["cpmc", "cpmc-a"], help="cpmc-a scores out-channels only")
        p.add_argument("--flops-convention", choices=CONVENTIONS, dest="flops_convention")
        p.add_argument("--min-channels", type=int, dest="min_channels_per_layer", metavar="MIN_CHANNELS")
        p.add_argument("--passes", type=int)
        p.add_argument("--per-pass", type=float, dest="per_pass_ratio", metavar="PER_PASS")

    p = sub.add_parser("analyze", help="score all prunable units and export records")
    common(p)
    p.add_argument("--dump-units", action="store_true", help="also export the unit inventory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="select a removal set meeting the FLOP target")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("prune", help="apply a plan (or run the multi-pass driver)")
    common(p)
    p.add_argument("--plan", help="plan file from `prunekit plan` (single-pass mode)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("report", help="compare a pruned model against its baseline")
    p.add_argument("--baseline", required=True, help="baseline model manifest")
    p.add_argument("--baseline-weights")
    p.add_argument("--pruned", required=True, help="pruned model manifest")
    p.add_argument("--pruned-weights")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--flops-convention", choices=CONVENTIONS, dest="flops_convention", default=Config.flops_convention)
    p.set_defaults(func=cmd_report)
    return parser


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


# config-file value parsers by Config field type, matching the CLI flags
_VALUE_PARSERS = {"float": float, "int": int, "bool": _parse_bool, "str": str}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    parsers = {f.name: _VALUE_PARSERS[f.type.split(" | ")[0]] for f in dataclasses.fields(Config)}
    for lineno, line in enumerate(_read_text(path, f"{path}: ").split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PruneKitError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise PruneKitError(f"{path}:{lineno}: unknown config key {key!r}")
        raw = raw.strip("\"'")
        try:
            values[key] = parsers[key](raw)
        except ValueError:
            raise PruneKitError(f"{path}:{lineno}: bad value {raw!r} for config key {key!r}") from None
    return values


def _read_text(path: str, error_prefix: str) -> str:
    """The file's text; a PruneKitError after ``error_prefix`` when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise PruneKitError(f"{error_prefix}{e}") from None


def _make_config(args: argparse.Namespace) -> Config:
    """One Config of the layered values: config file < preset < flags < ``--mode``."""
    values = _parse_config_file(args.config) if args.config else {}
    if args.preset:
        values["alpha"], values["beta"] = Config.PRESETS[args.preset]
    values.update((f.name, v) for f in dataclasses.fields(Config) if (v := getattr(args, f.name, None)) is not None)
    if args.mode is not None:
        values["use_in_channel"] = args.mode != "cpmc-a"
    return Config(**values)


def _load(args: argparse.Namespace) -> ModelGraph:
    return infer_shapes(load_model(args.model, getattr(args, "weights", None)))


def _file_checksum(path: str) -> str:
    """sha256 of the file, read in 1 MiB chunks so no copy of it is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolved_weights(manifest_path: str | None) -> str | None:
    """The container ``load_model`` reads for this manifest when given no
    weights path, found without reading it; None when the manifest names none
    (loading then says why)."""
    if manifest_path is None:
        return None
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        return resolve_weights(manifest_path, manifest.get("weights_file")) if isinstance(manifest, dict) else None
    except (OSError, ValueError, RecursionError, ManifestError):
        return None


def _write(out_dir: str, name: str, data: bytes) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as f:
        f.write(data)
    return path


# the manifest whose weights_file each weights flag defaults to
_MANIFEST_OF = {"weights": "model", "baseline_weights": "baseline", "pruned_weights": "pruned"}


class _RunManifest:
    def __init__(self, command: str, args: argparse.Namespace, config: Config | None):
        self.started = time.monotonic()
        self.data = {
            "tool": f"prunekit {__version__}",
            "command": command,
            "config": config.to_dict() if config else None,
            "inputs": {},
            "artifacts": [],
            "timings": {},
        }
        for attr in ("model", "weights", "config", "plan", "baseline", "pruned", "baseline_weights", "pruned_weights"):
            path = getattr(args, attr, None)
            resolved = path is None and attr in _MANIFEST_OF
            if resolved:
                path = _resolved_weights(getattr(args, _MANIFEST_OF[attr], None))
            if path and os.path.exists(path):
                # report reads no tensor byte of its containers, and only loading reads a
                # resolved container, so those are sized, not hashed
                size_only = resolved or attr.endswith("_weights")
                record = {"bytes": os.path.getsize(path)} if size_only else {"sha256": _file_checksum(path)}
                self.data["inputs"][attr] = {"path": path, **record}

    def add(self, path: str, sha256: str) -> None:
        self.data["artifacts"].append({"path": path, "sha256": sha256})

    def write_artifact(self, out_dir: str, name: str, text: str) -> None:
        """Write a text artifact as UTF-8 and record it, hashing the bytes written."""
        data = text.encode("utf-8")
        self.add(_write(out_dir, name, data), hashlib.sha256(data).hexdigest())

    def write(self, out_dir: str) -> None:
        self.data["timings"]["total_s"] = round(time.monotonic() - self.started, 6)
        _write(out_dir, "run_manifest.json", (json.dumps(self.data, indent=2) + "\n").encode("utf-8"))


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _make_config(args)
    run = _RunManifest("analyze", args, config)
    graph = _load(args)
    units = build_prune_units(graph)
    records = score_all(graph, units, config)
    csv_text, json_text = records_texts(records)
    run.write_artifact(args.out_dir, "records.csv", csv_text)
    run.write_artifact(args.out_dir, "records.json", json_text)
    del csv_text, json_text  # before units.json, the largest text
    if args.dump_units:
        run.write_artifact(args.out_dir, "units.json", units.to_json())
    params, flops = effective_model_costs(
        graph, convention=config.flops_convention, count_aux_params=config.count_aux_params
    )
    print(f"scored units: {len(units)}")
    print(f"total output channels: {graph.total_channels()}")
    print(f"baseline params: {params}")
    print(f"baseline flops ({config.flops_convention}): {flops}")
    print("layer widths: " + ", ".join(f"{n.id}={n.declared_out_width()}" for n in graph.weighted_layers()))
    run.write(args.out_dir)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    config = _make_config(args)
    run = _RunManifest("plan", args, config)
    graph = _load(args)
    units = build_prune_units(graph)
    records = score_all(graph, units, config)
    plan = select_threshold(records, graph, config)
    run.write_artifact(args.out_dir, "plan.json", plan.to_json())
    print(f"threshold: {plan.threshold}")
    print(f"removed units: {len(plan.removed_unit_ids)}")
    print(f"predicted Prr: {plan.prr:.4f}")
    print(f"predicted Frr: {plan.frr:.4f}")
    run.write(args.out_dir)
    return EXIT_OK


def cmd_prune(args: argparse.Namespace) -> int:
    config = _make_config(args)
    if args.plan and (config.passes > 1 or config.per_pass_ratio is not None):
        raise PruneKitError("--plan applies one saved plan: it cannot be combined with passes > 1 or per_pass_ratio")
    if not args.plan and config.passes == 1 and config.per_pass_ratio is None:
        raise PruneKitError("single-pass pruning needs --plan (or use --passes with --per-pass)")
    run = _RunManifest("prune", args, config)
    graph = _load(args)
    out_dir = args.out_dir

    if args.plan:
        plan = PruningPlan.from_json(_read_text(args.plan, "malformed plan file: "))
        config = plan.config  # every scoring and planning setting comes from the plan
        run.data["config"] = config.to_dict()
        pruned, report = apply_plan(graph, plan)
        report_dict = report.to_dict()
        weights_digest = report.container_checksum
    else:
        steps = multi_pass(graph, config)
        del graph  # multi_pass owns the loaded graph and frees its replaced tensors during pass 1
        for passes, (plan, pruned) in enumerate(steps, 1):
            run.write_artifact(out_dir, f"plan_pass{passes}.json", plan.to_json())
            if passes == 1:
                baseline_flops = plan.baseline_flops
        report_dict = {
            "passes": passes,
            "per_pass_ratio": config.per_pass_ratio,
            "final_frr": 1.0 - plan.predicted_flops / baseline_flops,
        }
        weights_digest = container_checksum(pruned)

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "pruned_manifest.json")
    weights_path = os.path.join(out_dir, "pruned_weights.bin")
    save_model(pruned, manifest_path, weights_path)
    run.add(manifest_path, _file_checksum(manifest_path))
    run.add(weights_path, weights_digest)
    run.write_artifact(out_dir, "surgery_report.json", json.dumps(report_dict, indent=2) + "\n")
    # the (last) plan's counts, which surgery checked against a recount under the plan's config
    print(f"pruned model: {manifest_path}")
    print(f"post params: {plan.predicted_params}")
    print(f"post flops ({config.flops_convention}): {plan.predicted_flops}")
    run.write(out_dir)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    run = _RunManifest("report", args, None)
    convention = args.flops_convention
    # costs and widths need shapes only, so each container is checked but not read;
    # one model in memory at a time: the baseline's costs and widths, then the pruned model's
    baseline = infer_shapes(load_model(args.baseline, args.baseline_weights, structure_only=True))
    base_params, base_flops = effective_model_costs(baseline, convention=convention)
    base_widths = [(n.id, n.declared_out_width()) for n in baseline.weighted_layers()]
    del baseline
    pruned = infer_shapes(load_model(args.pruned, args.pruned_weights, structure_only=True))
    post_params, post_flops = effective_model_costs(pruned, convention=convention)
    pruned_widths = {n.id: n.declared_out_width() for n in pruned.weighted_layers()}
    if base_params == 0 or base_flops == 0:
        raise DegenerateModelError("baseline model has no parameters or no FLOPs to reduce")
    prr = 1.0 - post_params / base_params
    frr = 1.0 - post_flops / base_flops

    rows = []
    for lid, before in base_widths:
        after = pruned_widths.get(lid, 0)
        rows.append((lid, before, after, before - after))
    if not rows:
        raise DegenerateModelError("baseline model has no weighted layer to report")

    payload = {
        "baseline": {"params": base_params, "flops": base_flops},
        "pruned": {"params": post_params, "flops": post_flops},
        "prr": prr,
        "frr": frr,
        "flops_convention": convention,
        "layers": [{"layer": r[0], "before": r[1], "after": r[2], "removed": r[3]} for r in rows],
        "note": "fine-tuning required to recover accuracy (out of scope)",
    }
    run.write_artifact(args.out_dir, "report.json", json.dumps(payload, indent=2) + "\n")

    name_w = max(len(r[0]) for r in rows)
    lines = [f"{'layer'.ljust(name_w)}  before   after  removed"]
    for lid, before, after, removed in rows:
        lines.append(f"{lid.ljust(name_w)}  {before:6d}  {after:6d}  {removed:7d}")
    lines.append("")
    lines.append(f"params: {base_params} -> {post_params}  (Prr {prr:.4f})")
    lines.append(f"flops ({convention}): {base_flops} -> {post_flops}  (Frr {frr:.4f})")
    lines.append("fine-tuning required to recover accuracy (out of scope)")
    text = "\n".join(lines) + "\n"
    run.write_artifact(args.out_dir, "report.txt", text)
    print(text, end="")
    run.write(args.out_dir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
