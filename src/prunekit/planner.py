"""Global ranking and FLOP-budgeted selection.

Units are ranked by ascending importance and marked for removal greedily until
the exact model FLOPs meet the budget. Exact counting (rather than summing
per-unit costs) is what keeps plans truthful: removing channels in adjacent
layers shrinks a layer's cost multiplicatively, and unit costs would
double-count the shared term. Each visited unit's footprint is its run of
``costs.unit_rows``, the rows its price comes from, built once for the whole
scored table. The greedy loop checks the floors against the plain per-layer
width lists of ``costs.RunningCosts``, which moves the exact totals row by
row, and one full recount of the final removal set checks them. Ties in
importance break toward the costlier unit (larger F, then larger P, then unit
id), so equal-importance removals buy the most budget. A survival floor keeps
every weighted layer alive.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from operator import itemgetter

from . import jsontext
from .costs import RunningCosts, effective_model_costs, unit_rows
from .errors import InfeasibleBudgetError, PlanMismatchError, PruneKitError
from .graph import ModelGraph, graph_checksum
from .scoring import Config, ImportanceRecord, _admits, score_all
from .surgeon import apply_units
from .units import UnitTable, build_prune_units

# the keys of a plan entry, in the order the planner writes them
_ENTRY_KEYS = ["unit_id", "imp", "members", "in_slices"]
# plan entries written per run of columns (_entry_texts)
_ENTRY_RUN = 256


@dataclass
class PruningPlan:
    threshold: float  # importance of the last removed unit
    baseline_params: int
    baseline_flops: int
    predicted_params: int
    predicted_flops: int
    prr: float
    frr: float
    layer_widths_before: dict[str, int]
    layer_widths_after: dict[str, int]
    model_checksum: str
    config: dict
    removed_entries: list[dict] = field(default_factory=list)  # ascending importance

    @property
    def removed_unit_ids(self) -> list[str]:
        return [e["unit_id"] for e in self.removed_entries]

    def to_json(self) -> str:
        """``json.dumps`` of the plan with ``indent=2``; the removed units are
        written column by column (:func:`_entry_texts`)."""
        payload = {
            "baseline": {"params": self.baseline_params, "flops": self.baseline_flops},
            "predicted": {"params": self.predicted_params, "flops": self.predicted_flops, "prr": self.prr, "frr": self.frr},
            "threshold": self.threshold,
            "removed_units": self.removed_entries,
            "layer_widths": {"before": self.layer_widths_before, "after": self.layer_widths_after},
            "config": self.config,
            "model_checksum": self.model_checksum,
        }
        ind = "\n  "
        columns = {
            key: [jsontext.array(_entry_texts(value, ind + "  "), ind)]
            if key == "removed_units" and type(value) is list
            else [jsontext.text(value, ind)]
            for key, value in payload.items()
        }
        return jsontext.objects(columns, "\n")[0] + "\n"

    def removed_table(self, graph: ModelGraph) -> UnitTable:
        """The units of ``graph`` that the plan removes, in entry order. A plan
        made from another model is a PlanMismatchError, and so is an entry
        that is not well formed, names no unit or a unit twice, or does not
        list the unit's members and in-slices exactly. Every entry's form is
        checked first; then each entry is matched before the next one."""
        if self.model_checksum != graph_checksum(graph):
            raise PlanMismatchError("plan was produced from a different model (checksum mismatch)")
        units = build_prune_units(graph)
        entries = self.removed_entries
        if not isinstance(entries, list):
            raise PlanMismatchError("corrupt plan: removed units must be a list")
        for entry in entries:
            if not _is_entry(entry):
                if isinstance(entry, dict) and isinstance(entry.get("unit_id"), str):
                    raise PlanMismatchError(f"corrupt plan: unit {entry['unit_id']!r} does not match the graph")
                raise PlanMismatchError(f"corrupt plan: removed unit {entry!r} has no string unit_id")
        row = {uid: i for i, uid in enumerate(units.uid)}
        rows = [row.get(entry["unit_id"], -1) for entry in entries]
        found = [r for r in rows if r >= 0]
        # the entry the planner writes for each row named; its imp is not compared
        expected = dict(zip(found, _entries(units.take(found), [0.0] * len(found))))
        shape = itemgetter("members", "in_slices")
        selected: set[int] = set()
        for entry, r in zip(entries, rows):
            uid = entry["unit_id"]
            if r < 0:
                raise PlanMismatchError(f"corrupt plan: unknown unit {uid!r}")
            if r in selected:
                raise PlanMismatchError(f"corrupt plan: unit {uid!r} listed twice")
            if shape(entry) != shape(expected[r]):
                raise PlanMismatchError(f"corrupt plan: unit {uid!r} does not match the graph")
            selected.add(r)
        return units.take(rows)

    def check(self, pruned: ModelGraph) -> None:
        """Recount ``pruned`` under the plan's config; params or FLOPs other
        than the predicted ones are a PruneKitError."""
        config = Config(**self.config)
        post_params, post_flops = effective_model_costs(
            pruned, convention=config.flops_convention, count_aux_params=config.count_aux_params
        )
        if (post_params, post_flops) != (self.predicted_params, self.predicted_flops):
            raise PruneKitError(
                f"surgery does not match plan: params {post_params} vs {self.predicted_params}, "
                f"flops {post_flops} vs {self.predicted_flops}"
            )

    @staticmethod
    def from_json(text: str) -> "PruningPlan":
        """Parse a plan file; a document of the wrong shape, a field of the
        wrong type (an int field holding a bool or float, say), a removed unit
        that is not well formed or an invalid config is a PruneKitError."""
        try:
            payload = json.loads(text)
            plan = PruningPlan(
                threshold=payload["threshold"],
                baseline_params=payload["baseline"]["params"],
                baseline_flops=payload["baseline"]["flops"],
                predicted_params=payload["predicted"]["params"],
                predicted_flops=payload["predicted"]["flops"],
                prr=payload["predicted"]["prr"],
                frr=payload["predicted"]["frr"],
                layer_widths_before=payload["layer_widths"]["before"],
                layer_widths_after=payload["layer_widths"]["after"],
                model_checksum=payload["model_checksum"],
                config=payload["config"],
                removed_entries=payload["removed_units"],
            )
            plan._check_types()
            Config(**plan.config).validate()
            if not isinstance(plan.removed_entries, list) or not all(map(_is_entry, plan.removed_entries)):
                raise PruneKitError(
                    "removed units need a string unit_id, a number imp, and members and in_slices of [layer, index] pairs"
                )
        except (KeyError, TypeError, PruneKitError, json.JSONDecodeError) as e:
            raise PruneKitError(f"malformed plan file: {e}") from e
        return plan

    def _check_types(self) -> None:
        """Each int, float and str field holds that type (``scoring._admits``),
        and each layer-width map maps names to ints."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "dict[str, int]":
                ok = isinstance(value, dict) and all(_admits("int", w) for w in value.values())
            else:
                ok = f.type not in ("int", "float", "str") or _admits(f.type, value)
            if not ok:
                raise PruneKitError(f"{f.name} must be {f.type}, got {type(value).__name__}")


def _is_entry(entry) -> bool:
    """An object with a string unit_id, a number imp, and members and
    in_slices that are lists of [layer, index] pairs; removed_table compares
    their contents with the real unit."""
    return (
        isinstance(entry, dict)
        and {"unit_id", "imp", "members", "in_slices"} <= entry.keys()
        and isinstance(entry["unit_id"], str)
        and _admits("float", entry["imp"])
        and jsontext.is_pairs(entry["members"])
        and jsontext.is_pairs(entry["in_slices"])
    )


def _entry_texts(entries: list, ind: str) -> list[str]:
    """The text of each plan entry at indentation ``ind``: column by column
    when every entry has the planner's keys in its order, and otherwise from
    ``jsontext.text``. Runs of ``_ENTRY_RUN`` entries are written one after
    another: holding every entry's column texts at once raised resnet164
    ``plan``'s peak RSS by about 1.6 MB."""
    if len(entries) > _ENTRY_RUN:
        runs = (entries[lo : lo + _ENTRY_RUN] for lo in range(0, len(entries), _ENTRY_RUN))
        return [t for run in runs for t in _entry_texts(run, ind)]
    if not all(type(e) is dict and list(e) == _ENTRY_KEYS for e in entries):
        return [jsontext.text(e, ind) for e in entries]
    inner = ind + "  "
    uid, imp, members, in_slices = ([e[key] for e in entries] for key in _ENTRY_KEYS)
    columns = [jsontext.texts(uid, inner), jsontext.texts(imp, inner)]
    columns += [jsontext.pair_lists(members, inner), jsontext.pair_lists(in_slices, inner)]
    return jsontext.objects(dict(zip(_ENTRY_KEYS, columns)), ind)


def rank_global(records: list[ImportanceRecord]) -> list[ImportanceRecord]:
    """Ascending importance; ties resolved by larger FLOP cost, then larger
    parameter cost, then unit id. Deterministic."""
    if not records:
        raise ValueError("no records to rank")
    return sorted(records, key=lambda r: (r.importance, -r.flops, -r.params, r.unit_id))


def select_threshold(
    records: list[ImportanceRecord], graph: ModelGraph, config: Config
) -> PruningPlan:
    """Pick the shortest ascending-importance prefix whose removal meets the
    FLOP budget, skipping units that would empty a layer past the floor.
    Costs two full counts (baseline and final check), however many units are
    marked. The records must come from one ``score_all`` call.

    Raises InfeasibleBudgetError, naming each unmet target and giving the best
    achievable reductions, when the floors make a target unreachable.
    """
    return _select(records, graph, config)[0]


def _select(records: list[ImportanceRecord], graph: ModelGraph, config: Config) -> tuple[PruningPlan, UnitTable]:
    """:func:`select_threshold`'s plan, and its removed units as a table in
    removal order."""
    config.validate()
    ranked = rank_global(records)
    table = ranked[0].table
    if table is None or any(r.table is not table for r in ranked):
        raise ValueError("records to plan must come from one score_all call")
    order = [r.unit_row for r in ranked]
    footprint, bounds = unit_rows(graph, table)
    bounds = bounds.tolist()
    costs = RunningCosts(graph, convention=config.flops_convention, count_aux_params=config.count_aux_params)
    baseline_params, baseline_flops = costs.params, costs.flops
    budget = (1.0 - config.flop_target_ratio) * baseline_flops
    param_budget = (
        (1.0 - config.param_target_ratio) * baseline_params
        if config.param_target_ratio is not None
        else None
    )

    n, m = costs.out_width, costs.in_width
    floor = config.min_channels_per_layer

    taken: list[int] = []  # positions in the ranking
    met = False
    for i, row in enumerate(order):
        rows = footprint[bounds[row] : bounds[row + 1]].tolist()
        # skip a unit that would take a layer below the floor or take its last input slot
        if any(o and n[l] - 1 < floor or m[l] - s < 1 for l, o, s in rows):
            continue
        costs.remove_rows(rows)
        taken.append(i)
        if costs.flops <= budget and (param_budget is None or costs.params <= param_budget):
            met = True
            break
    costs.recount()
    params, flops = costs.params, costs.flops

    frr = 1.0 - flops / baseline_flops
    if not met:
        unmet = [f"FLOP target {config.flop_target_ratio:.3f}"] if flops > budget else []
        if param_budget is not None and params > param_budget:
            unmet.append(f"parameter target {config.param_target_ratio:.3f}")
        raise InfeasibleBudgetError(
            f"{' and '.join(unmet)} unreachable under layer floors; best achievable reduction is "
            f"{frr:.4f} in FLOPs and {1.0 - params / baseline_params:.4f} in parameters",
            best_frr=frr,
        )

    removed = table.take([order[i] for i in taken])
    imps = [ranked[i].importance for i in taken]
    plan = PruningPlan(
        threshold=imps[-1],
        baseline_params=baseline_params,
        baseline_flops=baseline_flops,
        predicted_params=params,
        predicted_flops=flops,
        prr=1.0 - params / baseline_params,
        frr=frr,
        layer_widths_before=dict(zip(costs.layers, costs.declared_out)),
        layer_widths_after=dict(zip(costs.layers, n)),
        model_checksum=graph_checksum(graph),
        config=config.to_dict(),
        removed_entries=_entries(removed, imps),
    )
    return plan, removed


def _entries(units: UnitTable, imps: list[float]) -> list[dict]:
    """The plan entry of each removed unit: its members and in-slices as
    [layer, index] pairs."""
    members, in_slices = units.filters.pairs(units.members), units.slots.pairs(units.in_slices)
    return [
        {"unit_id": uid, "imp": imp, "members": m, "in_slices": s}
        for uid, imp, m, s in zip(units.uid, imps, members, in_slices)
    ]


def multi_pass(graph: ModelGraph, config: Config) -> Iterator[tuple[PruningPlan, ModelGraph]]:
    """Iteratively score, plan and prune ``config.passes`` times, each pass
    removing ``config.per_pass_ratio`` of the current FLOPs and re-scoring the
    pruned weights. Yields each pass's (plan, pruned graph) as it completes.

    ``multi_pass`` takes ownership of ``graph``: each pass's surgery deletes a
    replaced tensor from the graph it prunes as soon as the tensor's kept copy
    exists (``apply_units(release=True)``). So ``graph`` is unusable once pass
    1 has begun, and a yielded graph stays valid only until the next pass
    starts; pass a copy to keep one. A caller that lets go of ``graph`` and
    keeps only the latest pass's graph holds one model plus one layer at a
    time, even during surgery."""
    config.validate()
    if config.per_pass_ratio is None:
        raise PruneKitError("multi-pass pruning needs per_pass_ratio (--per-pass)")
    pass_config = Config(**{**config.to_dict(), "flop_target_ratio": config.per_pass_ratio})
    for _ in range(config.passes):
        units = build_prune_units(graph)
        records = score_all(graph, units, pass_config)
        plan, removed = _select(records, graph, pass_config)
        graph = apply_units(graph, removed, release=True)
        plan.check(graph)
        yield plan, graph
