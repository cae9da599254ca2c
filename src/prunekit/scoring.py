"""Channel importance scoring.

A unit's raw score is the L1 mass of everything that disappears with it: its
filter (out-channel) plus, unless disabled for ablation, the kernel slices of
every consumer that reads it (in-channel). Raw scores are normalized per layer
family so layers of different magnitude become comparable, then combined with
log-normalized parameter and FLOP costs so cheap-but-heavy channels sink:

    importance = weight_score + alpha * (1 - log P / log Pmax)
                              + beta  * (1 - log F / log Fmax)

with Pmax/Fmax taken over every unit of the model.

Scoring works on id arrays, not on ref objects: a unit list's filters and
consumer slices become (layer code, index) arrays in one step
(``units.ref_arrays``), each weighted layer's L1 masses are summed once, and
the per-unit sums add the indexed masses in the order a per-reference loop
would, so every raw score is the same float. P and F are each unit's
footprint rows (``costs.unit_rows``) priced in int64 (``costs.unit_costs``),
the same rows the planner removes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, asdict
from itertools import chain

import numpy as np

from .costs import CONVENTIONS, unit_costs
from .errors import DegenerateModelError, PruneKitError
from .graph import ModelGraph
from .units import FULL_CHANNEL, PruneUnit, _sorted_unique, ref_arrays, run_sums

WEIGHT_NORM_MODES = ("max-min", "max", "log")

# the Python types each Config field type admits
_FIELD_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _admits(annotation: str, value) -> bool:
    """Whether a Config field annotated ``annotation`` ("float", "int | None",
    ...) may hold ``value``. A bool is an int to Python, but only a bool here."""
    name, *optional = annotation.split(" | ")
    if value is None:
        return bool(optional)
    return isinstance(value, _FIELD_TYPES[name]) and (name == "bool" or not isinstance(value, bool))


# csv/json column contract: unit_id, layer, channel, L, GL, GP, GF, Imp
RECORD_COLUMNS = ("unit_id", "layer", "channel", "L", "GL", "GP", "GF", "Imp")


@dataclass
class Config:
    """Scoring and planning configuration."""

    alpha: float = 1.0
    beta: float = 1.0
    flop_target_ratio: float = 0.5
    param_target_ratio: float | None = None  # optional secondary stopping criterion
    weight_norm_mode: str = "max-min"
    use_in_channel: bool = True
    flops_convention: str = "macs"
    min_channels_per_layer: int = 1
    passes: int = 1
    per_pass_ratio: float | None = None
    count_aux_params: bool = True

    PRESETS = {
        "vggnet": (3.0, 1.0),
        "resnet": (1.0, 1.0),
        "densenet": (0.1, 0.1),
    }

    def validate(self) -> None:
        for f in fields(self):
            if not _admits(f.type, value := getattr(self, f.name)):
                raise PruneKitError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")
        if not 0.0 < self.flop_target_ratio < 1.0:
            raise PruneKitError(f"flop_target_ratio must be in (0, 1), got {self.flop_target_ratio}")
        if self.param_target_ratio is not None and not 0.0 < self.param_target_ratio < 1.0:
            raise PruneKitError("param_target_ratio must be in (0, 1)")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise PruneKitError("alpha and beta must be finite and nonnegative")
        if self.weight_norm_mode not in WEIGHT_NORM_MODES:
            raise PruneKitError(f"unknown weight_norm_mode {self.weight_norm_mode!r}")
        if self.flops_convention not in CONVENTIONS:
            raise PruneKitError(f"unknown flops_convention {self.flops_convention!r}")
        if self.min_channels_per_layer < 1:
            raise PruneKitError("min_channels_per_layer must be >= 1")
        if self.passes < 1:
            raise PruneKitError("passes must be >= 1")
        if self.per_pass_ratio is not None and not 0.0 < self.per_pass_ratio < 1.0:
            raise PruneKitError("per_pass_ratio must be in (0, 1)")

    def apply_preset(self, name: str) -> None:
        try:
            self.alpha, self.beta = self.PRESETS[name]
        except KeyError:
            raise PruneKitError(f"unknown preset {name!r}") from None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ImportanceRecord:
    unit_id: str
    layer: str
    channel: int
    raw: float  # L: summed absolute weights of the unit
    weight_score: float  # GL, normalized within the unit's layer family
    param_score: float  # GP in [0, alpha]
    flop_score: float  # GF in [0, beta]
    importance: float  # GL + GP + GF
    params: int
    flops: int
    unit: PruneUnit = field(repr=False, compare=False, default=None)

    def row(self) -> list:
        return [
            self.unit_id,
            self.layer,
            self.channel,
            repr(self.raw),
            repr(self.weight_score),
            repr(self.param_score),
            repr(self.flop_score),
            repr(self.importance),
        ]


def _abs_sums(w: np.ndarray) -> np.ndarray:
    """L1 mass of each slice of ``w`` along axis 0, as a float64 sum over the
    slice's float32 values laid out contiguously. A strided layout would change
    numpy's order of additions; a contiguous one gives the same float whether
    the slice is summed alone or with the rest of the layer."""
    return np.abs(w, order="C").reshape(len(w), -1).sum(axis=1, dtype=np.float64)


def _l1(graph: ModelGraph, widths: dict[str, int], axis: int, layer: np.ndarray, index: np.ndarray) -> np.ndarray:
    """L1 mass of each (layer code, index) filter (axis 0) or input slot
    (axis 1). Each layer's named slices are summed in one ``_abs_sums`` call,
    the whole layer when every slice is named."""
    offset = np.cumsum([0, *widths.values()])
    ids = offset[layer] + index
    named = _sorted_unique(ids)
    bounds = np.searchsorted(named, offset).tolist()  # each layer's run of named ids
    masses = np.zeros(offset[-1])
    for name, base, lo, hi in zip(widths, offset.tolist(), bounds, bounds[1:]):
        if lo < hi:
            view = np.swapaxes(graph.nodes[name].weight(), 0, axis)  # filters or input slots first
            masses[named[lo:hi]] = _abs_sums(view if hi - lo == len(view) else view[named[lo:hi] - base])
    return masses[ids]


def _raw_scores(graph: ModelGraph, units: list[PruneUnit], use_in_channel: bool) -> list[float]:
    """Dependency L1 of every unit. A unit's filters (its members, or the
    origin of an in-channel-only unit) and their consumer slices become id
    arrays in one step; each filter's score is its mass plus its slices'
    masses, and a unit's score the mean of its filters' scores, all added in
    the order a per-reference loop would add them."""
    weighted = graph.weighted_layers()
    out_widths = {n.id: n.declared_out_width() for n in weighted}
    in_widths = {n.id: n.declared_in_width() for n in weighted}
    full = [u.kind == FULL_CHANNEL for u in units]
    filters = [u.members if f else (u.origin,) for u, f in zip(units, full)]
    layer, index, n_filters = ref_arrays(filters, out_widths, "output channel")
    if not n_filters.all():
        raise ValueError("group has no members")
    scores = _l1(graph, out_widths, 0, layer, index)
    if use_in_channel:
        reads = chain.from_iterable(u.member_slices if f else (u.in_slices,) for u, f in zip(units, full))
        layer, index, n_reads = ref_arrays(reads, in_widths, "input slot")
        if len(n_reads) != len(scores):
            raise ValueError("every member needs its own consumer slices (member_slices)")
        scores = scores + run_sums(_l1(graph, in_widths, 1, layer, index), n_reads)
    return (run_sums(scores, n_filters) / n_filters).tolist()


def dependency_l1(graph: ModelGraph, unit: PruneUnit, use_in_channel: bool = True) -> float:
    """Raw score: absolute weight mass of the unit's out-channel(s), plus its
    consumer slices when ``use_in_channel``. Coupled groups average over their
    members. Biases and batch-norm parameters never contribute.
    """
    return _raw_scores(graph, [unit], use_in_channel)[0]


def normalize_weight_scores(scores: list[float], mode: str = "max-min") -> list[float]:
    """Normalize one layer family's raw scores onto [0, 1].

    max-min maps the range endpoints to 0 and 1; a layer whose scores are all
    equal gets the neutral 0.5 so its cost terms decide. max divides by the
    maximum; log uses log(1+L)/log(1+Lmax). Both reject an all-zero layer.
    """
    if not scores:
        raise ValueError("empty score list")
    lmax = max(scores)
    lmin = min(scores)
    if mode == "max-min":
        if lmax == lmin:
            return [0.5] * len(scores)
        return [(s - lmin) / (lmax - lmin) for s in scores]
    if mode == "max":
        if lmax == 0.0:
            raise DegenerateModelError("cannot max-normalize an all-zero layer")
        return [s / lmax for s in scores]
    if mode == "log":
        if lmax == 0.0:
            raise DegenerateModelError("cannot log-normalize an all-zero layer")
        denom = math.log1p(lmax)
        return [math.log1p(s) / denom for s in scores]
    raise ValueError(f"unknown weight_norm_mode {mode!r}")


def normalize_cost_scores(
    p: int, f: int, pmax: int, fmax: int, alpha: float, beta: float
) -> tuple[float, float]:
    """Cost bonuses: 0 for the most expensive unit, up to alpha/beta for the cheapest."""
    if pmax < 2 or fmax < 2:
        raise DegenerateModelError("model too small to normalize cost scores (max cost < 2)")
    if p < 1 or f < 1 or p > pmax or f > fmax:
        raise ValueError(f"cost out of range: P={p}/{pmax}, F={f}/{fmax}")
    gp = alpha * (1.0 - math.log(p) / math.log(pmax))
    gf = beta * (1.0 - math.log(f) / math.log(fmax))
    return gp, gf


def combined_importance(weight_score: float, param_score: float, flop_score: float) -> float:
    return weight_score + param_score + flop_score


def score_all(graph: ModelGraph, units: list[PruneUnit], config: Config) -> list[ImportanceRecord]:
    """Score every unit. Deterministic given graph and config; the cost maxima
    are taken over exactly this unit set. Each weighted layer's L1 sums are
    computed once, and units read them through id arrays. Raises
    DegenerateModelError when there is no unit or a unit's raw score is NaN
    or infinite."""
    config.validate()
    if not units:
        raise DegenerateModelError("model has no prunable units")
    raws = _raw_scores(graph, units, config.use_in_channel)
    for u, raw in zip(units, raws):
        if not math.isfinite(raw):
            raise DegenerateModelError(f"{u.uid}: raw score L is {raw} (non-finite weights)")

    by_family: dict[str, list[int]] = {}
    for i, u in enumerate(units):
        by_family.setdefault(u.family, []).append(i)
    weight_scores = [0.0] * len(units)
    for family, idxs in by_family.items():
        normed = normalize_weight_scores([raws[i] for i in idxs], config.weight_norm_mode)
        for i, g in zip(idxs, normed):
            weight_scores[i] = g

    costs = unit_costs(graph, units, config.flops_convention)
    pmax = max(p for p, _ in costs)
    fmax = max(f for _, f in costs)

    records = []
    for u, raw, gl, (p, f) in zip(units, raws, weight_scores, costs):
        gp, gf = normalize_cost_scores(p, f, pmax, fmax, config.alpha, config.beta)
        anchor = u.members[0] if u.members else u.in_slices[0]
        channel = anchor.channel if u.members else anchor.in_channel
        records.append(
            ImportanceRecord(
                unit_id=u.uid,
                layer=anchor.layer,
                channel=channel,
                raw=raw,
                weight_score=gl,
                param_score=gp,
                flop_score=gf,
                importance=combined_importance(gl, gp, gf),
                params=p,
                flops=f,
                unit=u,
            )
        )
    return records


def records_to_csv(records: list[ImportanceRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for r in records:
        writer.writerow(r.row())
    return buf.getvalue()


def records_to_json(records: list[ImportanceRecord]) -> str:
    rows = [dict(zip(RECORD_COLUMNS, [r.unit_id, r.layer, r.channel, r.raw, r.weight_score, r.param_score, r.flop_score, r.importance])) for r in records]
    return json.dumps(rows, indent=2) + "\n"
