"""Global ranking and FLOP-budgeted selection.

Units are ranked by ascending importance with one ``np.lexsort`` of the score
table, and the shortest ranked prefix whose removal meets the budget, in
exact model FLOPs, is removed. Exact counting (rather than summing per-unit
costs) is what keeps plans truthful: removing channels in adjacent layers
shrinks a layer's cost multiplicatively, and unit costs would double-count
the shared term. Each unit's footprint is its run of ``costs.unit_rows``,
the rows scoring priced it from; ``costs.RunningCosts.after`` turns the
ranked rows into the exact totals after every prefix, and one full recount
of the final removal set checks them. Ties in importance break toward the
costlier unit (larger F, then larger P, then unit id), so equal-importance
removals buy the most budget. A survival floor keeps every weighted layer
alive, and a unit it stops is skipped.

A plan names each removed unit once, as a ``{"unit_id", "imp"}`` entry in
removal order, under one ``units_checksum``: the ``UnitTable.checksum`` of the
removed rows. The rows' members and slices follow from the model and the unit
builder (``analyze --dump-units`` lists them), so ``PruningPlan.removed_table``
rebuilds the units, takes the named rows and compares their checksum, and a
plan made by a unit builder that built other rows is refused.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import jsontext
from .costs import RunningCosts, effective_model_costs
from .errors import InfeasibleBudgetError, PlanMismatchError, PruneKitError
from .graph import ModelGraph, graph_checksum
from .scoring import Config, ScoreTable, _admits, score_all
from .surgeon import apply_units
from .units import UnitTable, _spans, build_prune_units, graph_table

@dataclass(frozen=True)
class PruningPlan:
    """A plan is checked when it is made and cannot be changed: a field of the
    wrong type, or removal columns of two lengths, is a PruneKitError at
    construction, so every consumer trusts the plan it is given."""

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
    units_checksum: str  # UnitTable.checksum of the removed units, in removal order
    config: Config
    removed_unit_ids: tuple[str, ...]  # ascending importance
    removed_imps: tuple[float, ...]  # each removed unit's importance

    def __post_init__(self) -> None:
        """Each int, float and str field holds that type (``scoring._admits``),
        each layer-width map maps names to ints, ``config`` is a Config and each
        removal column is a tuple of its element type, as long as the other."""
        for f in fields(self):
            value = getattr(self, f.name)
            item = f.type.removeprefix("tuple[").removesuffix(", ...]")  # a column's element type
            if f.type == "dict[str, int]":
                ok = isinstance(value, dict) and all(_admits("int", w) for w in value.values())
            elif f.type == "Config":
                ok = isinstance(value, Config)
            elif item != f.type:  # a column: a tuple of values of its element type, checked once per type
                ok = type(value) is tuple
                if ok and (wrong := [v for v in dict(zip(map(type, value), value)).values() if not _admits(item, v)]):
                    ok, value = False, wrong[0]
            else:
                ok = _admits(f.type, value)
            if not ok:
                raise PruneKitError(f"{f.name} must be {f.type}, got {type(value).__name__}")
        if len(self.removed_unit_ids) != len(self.removed_imps):
            raise PruneKitError(f"{len(self.removed_unit_ids)} removed unit ids but {len(self.removed_imps)} imps")

    def to_json(self) -> str:
        """``json.dumps`` of the plan with ``indent=2``; each removed unit is a
        ``{"unit_id", "imp"}`` object, written from the two columns."""
        ind = "\n  "
        payload = {
            "baseline": {"params": self.baseline_params, "flops": self.baseline_flops},
            "predicted": {"params": self.predicted_params, "flops": self.predicted_flops, "prr": self.prr, "frr": self.frr},
            "threshold": self.threshold,
            "removed_units": None,  # written from the two columns below
            "layer_widths": {"before": self.layer_widths_before, "after": self.layer_widths_after},
            "config": self.config.to_dict(),
            "model_checksum": self.model_checksum,
            "units_checksum": self.units_checksum,
        }
        texts = [jsontext.texts(column, ind + "    ") for column in (self.removed_unit_ids, self.removed_imps)]
        entries = jsontext.objects(dict(zip(("unit_id", "imp"), texts)), ind + "  ")
        columns = {key: [jsontext.text(value, ind)] for key, value in payload.items()}
        columns["removed_units"] = [jsontext.array(entries, ind)]
        return jsontext.objects(columns, "\n")[0] + "\n"

    def removed_table(self, graph: ModelGraph) -> UnitTable:
        """The units of ``graph`` that the plan removes, in removal order. A plan
        made from another model is a PlanMismatchError, and so is an id that
        names no unit or a unit twice, and so are named units whose
        ``UnitTable.checksum`` is not the plan's ``units_checksum``, as when a
        unit builder that built other rows made the plan. Each id is matched in
        turn, then the checksum compared."""
        if self.model_checksum != graph_checksum(graph):
            raise PlanMismatchError("plan was produced from a different model (checksum mismatch)")
        units = build_prune_units(graph)
        row = {uid: i for i, uid in enumerate(units.uid)}
        rows: dict[str, int] = {}
        for uid in self.removed_unit_ids:
            if uid not in row:
                raise PlanMismatchError(f"corrupt plan: unknown unit {uid!r}")
            if uid in rows:
                raise PlanMismatchError(f"corrupt plan: unit {uid!r} listed twice")
            rows[uid] = row[uid]
        removed = units.take(list(rows.values()))
        if removed.checksum() != self.units_checksum:
            raise PlanMismatchError("plan was produced from other units (units checksum mismatch)")
        return removed

    def check(self, pruned: ModelGraph) -> None:
        """Recount ``pruned`` under the plan's config; params or FLOPs other
        than the predicted ones are a PruneKitError."""
        post_params, post_flops = effective_model_costs(
            pruned, convention=self.config.flops_convention, count_aux_params=self.config.count_aux_params
        )
        if (post_params, post_flops) != (self.predicted_params, self.predicted_flops):
            raise PruneKitError(
                f"surgery does not match plan: params {post_params} vs {self.predicted_params}, "
                f"flops {post_flops} vs {self.predicted_flops}"
            )

    @staticmethod
    def from_json(text: str) -> "PruningPlan":
        """Parse a plan file; a document of the wrong shape or nested too deep,
        a removed unit that is not an object of exactly ``unit_id`` and ``imp``,
        or a plan that cannot be made (a field of the wrong type, an invalid
        config) is a PruneKitError."""
        try:
            payload = json.loads(text)
            entries = payload["removed_units"]
            if type(entries) is not list or not all(type(e) is dict and len(e) == 2 for e in entries):
                raise PruneKitError("each removed unit must be an object of unit_id and imp")  # both are read below
            return PruningPlan(
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
                units_checksum=payload["units_checksum"],
                config=Config(**payload["config"]),
                removed_unit_ids=tuple(e["unit_id"] for e in entries),
                removed_imps=tuple(e["imp"] for e in entries),
            )
        except (KeyError, TypeError, PruneKitError, json.JSONDecodeError, RecursionError) as e:
            raise PruneKitError(f"malformed plan file: {e}") from e


def rank_global(scores: ScoreTable) -> ScoreTable:
    """The score rows by ascending importance; ties resolved by larger FLOP
    cost, then larger parameter cost, then unit id. Deterministic."""
    if not len(scores):
        raise ValueError("no records to rank")
    by_uid = np.empty(len(scores), np.int64)
    by_uid[sorted(range(len(scores)), key=scores.unit_id.tolist().__getitem__)] = np.arange(len(scores))
    return scores.take(np.lexsort((by_uid, -scores.params, -scores.flops, scores.importance)))


def select_threshold(scores: ScoreTable, graph: ModelGraph, config: Config) -> PruningPlan:
    """Pick the shortest ascending-importance prefix whose removal meets the
    FLOP budget, skipping units that would empty a layer past the floor.
    Costs two full counts (baseline and final check), however many units are
    marked. ``scores`` must be scored from ``graph`` (or taken from such a
    table).

    Raises InfeasibleBudgetError, naming each unmet target and giving the best
    achievable reductions, when the floors make a target unreachable.
    """
    return _select(scores, graph, config)[0]


def _skipped(rows: np.ndarray, n: np.ndarray, m: np.ndarray, floor: int) -> np.ndarray:
    """Which footprint rows take their layer below the floor from ``n`` filters, or its last slot of ``m``."""
    return (rows[:, 1] > 0) & (n - 1 < floor) | (m - rows[:, 2] < 1)


def _select(scores: ScoreTable, graph: ModelGraph, config: Config) -> tuple[PruningPlan, UnitTable]:
    """:func:`select_threshold`'s plan, and its removed units as a table in
    removal order.

    A pass prices every prefix of the pending ranked units and takes the
    shortest that meets the budgets, if it ends before the first unit that a
    floor skips, and otherwise the units before that one. Widths only fall,
    so a pending unit that the new widths rule out is dropped for good: one
    pass, plus one per floor skip."""
    units = graph_table(graph, scores.units)
    ranked = rank_global(scores)
    footprint, bounds = ranked.footprint
    costs = RunningCosts(graph, convention=config.flops_convention, count_aux_params=config.count_aux_params)
    baseline_params, baseline_flops = costs.params, costs.flops
    # integer budgets, so int64 totals compare exactly; removals never add params
    budget = math.floor((1.0 - config.flop_target_ratio) * baseline_flops)
    param_target = config.param_target_ratio
    param_budget = baseline_params if param_target is None else math.floor((1.0 - param_target) * baseline_params)
    floor = config.min_channels_per_layer

    pending = np.arange(len(ranked))  # positions in the ranking, neither taken nor ruled out
    taken, met = [], False
    while len(pending) and not met:
        lo, hi = bounds[ranked.rows[pending]], bounds[ranked.rows[pending] + 1]
        rows, unit = footprint[_spans(lo, hi)], np.repeat(np.arange(len(pending)), hi - lo)  # unit: index in pending
        ruled_out = np.zeros(len(pending), bool)
        ruled_out[unit[_skipped(rows, costs.out_width[rows[:, 0]], costs.in_width[rows[:, 0]], floor)]] = True
        if ruled_out.any():
            pending = pending[~ruled_out]
            continue
        n, m, params, flops = costs.after(rows)
        stop = unit[_skipped(rows, n, m, floor)].min(initial=len(pending))  # the first unit a floor skips
        last = np.cumsum(np.bincount(unit)[:stop]) - 1  # the last row of each unit before it
        fits = (flops[last] <= budget) & (params[last] <= param_budget)
        k = int(np.argmax(fits)) + 1 if (met := bool(fits.any())) else stop  # stop > 0: unit 0 is not ruled out
        costs.remove(rows[: last[k - 1] + 1], params.item(last[k - 1]), flops.item(last[k - 1]))
        taken.append(pending[:k])
        pending = pending[k:]
    costs.recount()
    params, flops = costs.params, costs.flops

    frr = 1.0 - flops / baseline_flops
    if not met:
        unmet = [f"FLOP target {config.flop_target_ratio:.3f}"] if flops > budget else []
        if param_target is not None and params > param_budget:
            unmet.append(f"parameter target {config.param_target_ratio:.3f}")
        raise InfeasibleBudgetError(
            f"{' and '.join(unmet)} unreachable under layer floors; best achievable reduction is "
            f"{frr:.4f} in FLOPs and {1.0 - params / baseline_params:.4f} in parameters",
            best_frr=frr,
        )

    chosen = ranked.take(np.concatenate(taken))
    removed = units.take(chosen.rows)
    imps = chosen.importance.tolist()
    plan = PruningPlan(
        threshold=imps[-1],
        baseline_params=baseline_params,
        baseline_flops=baseline_flops,
        predicted_params=params,
        predicted_flops=flops,
        prr=1.0 - params / baseline_params,
        frr=frr,
        layer_widths_before=dict(zip(costs.layers, costs.declared[0].tolist())),
        layer_widths_after=dict(zip(costs.layers, costs.out_width.tolist())),
        model_checksum=graph_checksum(graph),
        units_checksum=removed.checksum(),
        config=config,
        removed_unit_ids=tuple(removed.uid),
        removed_imps=tuple(imps),
    )
    return plan, removed


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
    if config.per_pass_ratio is None:
        raise PruneKitError("multi-pass pruning needs per_pass_ratio (--per-pass)")
    pass_config = replace(config, flop_target_ratio=config.per_pass_ratio)
    for _ in range(config.passes):
        units = build_prune_units(graph)
        plan, removed = _select(score_all(graph, units, pass_config), graph, pass_config)
        graph = apply_units(graph, removed, release=True)
        plan.check(graph)
        yield plan, graph
