"""Channel importance scoring.

A unit's raw score is the L1 mass of everything that disappears with it: its
filter (out-channel) plus, unless disabled for ablation, the kernel slices of
every consumer that reads it (in-channel). Raw scores are normalized per layer
family so layers of different magnitude become comparable, then combined with
log-normalized parameter and FLOP costs so cheap-but-heavy channels sink:

    importance = weight_score + alpha * (1 - log P / log Pmax)
                              + beta  * (1 - log F / log Fmax)

with Pmax/Fmax taken over every unit of the model.

Scoring reads the unit table's id arrays as stored: each weighted layer's
L1 masses are summed once over the filters and consumer slices the units
name, and the per-unit sums add the indexed masses in the order a
per-reference loop would, so every raw score is the same float. P and F are
each unit's footprint rows (``costs.unit_rows``) priced in int64
(``costs.unit_costs``), the same rows the planner removes. The scores form
one :class:`ScoreTable` of columns, and each normalization runs once over a
column, taking ``math`` logs of each raw score and each distinct price.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import jsontext
from .costs import CONVENTIONS, unit_costs, unit_rows
from .errors import DegenerateModelError, PruneKitError
from .graph import ModelGraph
from .units import PruneUnit, UnitTable, _Numbering, _sorted_unique, graph_row, graph_table, run_sums

WEIGHT_NORM_MODES = ("max-min", "max", "log")

_ABS_VALUES = 1 << 18  # float32 values per block in _abs_sums: a 1 MB buffer

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
# a CSV field that holds none of these is written as it is
_CSV_SPECIAL = re.compile('[,"\r\n]')


@dataclass(frozen=True)
class Config:
    """Scoring and planning configuration. A Config is checked when it is made
    and cannot be changed: an invalid value is a PruneKitError at construction,
    and a variant comes from ``dataclasses.replace``."""

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

    def __post_init__(self) -> None:
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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False, repr=False)
class ScoreTable:
    """The scores of units, one array per column, over the scored ``units``
    and their ``footprint`` (``costs.unit_rows``). A table made by hand,
    without units, can be ranked and exported, not planned. Iterating or
    indexing the table gives :class:`ImportanceRecord` rows; ``take``
    selects rows as a new table over the same units."""

    unit_id: np.ndarray  # object array of str
    layer: np.ndarray  # object array of str: the layer of the unit's first member, or of its first slot
    channel: np.ndarray  # int64: that member's or slot's index
    raw: np.ndarray  # float64 L: summed absolute weights of the unit
    weight_score: np.ndarray  # float64 GL, normalized within the unit's layer family
    param_score: np.ndarray  # float64 GP in [0, alpha]
    flop_score: np.ndarray  # float64 GF in [0, beta]
    importance: np.ndarray  # float64 GL + GP + GF
    params: np.ndarray  # int64 P
    flops: np.ndarray  # int64 F
    rows: np.ndarray  # int64: each row's row of ``units``
    units: UnitTable | None = None
    footprint: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(ImportanceRecord, repeat(self), range(len(self)))

    def __getitem__(self, i: int) -> "ImportanceRecord":
        return ImportanceRecord(self, range(len(self))[i])

    def take(self, rows) -> "ScoreTable":
        """Rows ``rows`` (row numbers, in any order) as a new table."""
        return replace(self, **{column: getattr(self, column)[rows] for column in (*SCORE_COLUMNS, "rows")})


SCORE_COLUMNS = tuple(f.name for f in fields(ScoreTable)[:10])  # the columns, before rows, units and footprint


class ImportanceRecord(NamedTuple):
    """Row ``row`` of ``table``: one unit's scores. Each of ``SCORE_COLUMNS``
    is an attribute, read from the table as a Python value."""

    table: ScoreTable
    row: int

    unit_row = property(lambda self: self.table.rows.item(self.row))  # the record's row of ``table.units``
    unit = property(lambda self: self.table.units[self.unit_row])

    def __getattr__(self, column: str):
        if column not in SCORE_COLUMNS:
            raise AttributeError(column)
        return getattr(self.table, column).item(self.row)


def _abs_sums(w: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """L1 mass of each slice of ``w`` along axis 0, or of the slices ``rows``
    names, as a float64 sum over the slice's float32 values laid out
    contiguously. A strided layout would change numpy's order of additions; a
    contiguous one gives the same float whether the slice is summed alone or
    with others. The slices pass through one reused buffer of about
    ``_ABS_VALUES`` values a block at a time, so no layer-sized copy is made."""
    count = len(w) if rows is None else len(rows)
    step = max(1, _ABS_VALUES // w[0].size)
    buf = np.empty((min(step, count), *w.shape[1:]), w.dtype)
    sums = np.empty(count)
    for lo in range(0, count, step):
        block = buf[: min(step, count - lo)]
        np.abs(w[lo : lo + step] if rows is None else w[rows[lo : lo + step]], out=block)
        sums[lo : lo + len(block)] = block.reshape(len(block), -1).sum(axis=1, dtype=np.float64)
    return sums


def _l1(graph: ModelGraph, numbering: _Numbering, axis: int, ids: np.ndarray) -> np.ndarray:
    """L1 mass of each filter (axis 0) or input slot (axis 1) id of
    ``numbering``. Each layer's named slices are summed in one ``_abs_sums``
    call, the whole layer when every slice is named; only the layers named
    are visited."""
    named = _sorted_unique(ids)
    layer, index = numbering.locate(named)
    bounds = [*np.flatnonzero(np.diff(layer, prepend=-1)).tolist(), len(named)]  # each layer's run of named ids
    masses = np.empty(len(named))
    for lo, hi in zip(bounds, bounds[1:]):
        view = np.swapaxes(graph.nodes[numbering.names[layer[lo]]].weight(), 0, axis)  # filters or input slots first
        masses[lo:hi] = _abs_sums(view, None if hi - lo == len(view) else index[lo:hi])
    return masses[np.searchsorted(named, ids)]


def _raw_scores(graph: ModelGraph, units: UnitTable, use_in_channel: bool) -> np.ndarray:
    """Dependency L1 of every unit. A unit's filters are its members, whose
    consumer slices are each member's reads, or the origin of an
    in-channel-only unit, whose slices are the unit's slots; each filter's
    score is its mass plus its slices' masses, and a unit's score the mean of
    its filters' scores, all added in the order a per-reference loop would
    add them."""
    members, reads, origin = units.members, units.member_reads, units.origin
    own = np.flatnonzero(origin >= 0)  # in-channel-only units, which have no members
    slots = units.in_slices.take(own)
    scores = _l1(graph, units.filters, 0, np.concatenate([members.ids, origin[own]]))
    if use_in_channel:
        masses = _l1(graph, units.slots, 1, np.concatenate([reads.ids, slots.ids]))
        scores = scores + run_sums(masses, np.concatenate([reads.sizes(), slots.sizes()]))
    n = members.sizes()
    raws = run_sums(scores[: len(members.ids)], n) / np.maximum(n, 1)
    raws[own] = scores[len(members.ids) :]
    return raws


def dependency_l1(graph: ModelGraph, unit: PruneUnit, use_in_channel: bool = True) -> float:
    """Raw score: absolute weight mass of the unit's out-channel(s), plus its
    consumer slices when ``use_in_channel``. Coupled groups average over their
    members. Biases and batch-norm parameters never contribute. ``unit`` is a
    row of a table made from ``graph``.
    """
    return _raw_scores(graph, graph_row(graph, unit), use_in_channel).item(0)


def normalize_weight_scores(scores: list[float], mode: str = "max-min") -> list[float]:
    """Normalize one layer family's raw scores onto [0, 1], as
    :func:`score_all` normalizes each family.

    max-min maps the range endpoints to 0 and 1; a layer whose scores are all
    equal gets the neutral 0.5 so its cost terms decide. max divides by the
    maximum; log uses log(1+L)/log(1+Lmax). Both reject an all-zero layer.
    """
    if not scores:
        raise ValueError("empty score list")
    if mode not in WEIGHT_NORM_MODES:
        raise ValueError(f"unknown weight_norm_mode {mode!r}")
    return _weight_scores(np.array(scores, np.float64), [""] * len(scores), mode).tolist()


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


def _weight_scores(raws: np.ndarray, family: list[str], mode: str) -> np.ndarray:
    """GL of every unit: its raw score normalized among its family's raw
    scores (:func:`normalize_weight_scores`). ``log`` takes ``math.log1p`` of
    each raw score and family maximum, since numpy's log1p differs from it
    in the last bit for some inputs on some CPUs."""
    codes = {f: i for i, f in enumerate(dict.fromkeys(family))}
    code = np.fromiter(map(codes.__getitem__, family), np.int64, len(family))
    lmax = np.full(len(codes), -np.inf)
    lmin = -lmax
    np.maximum.at(lmax, code, raws)
    np.minimum.at(lmin, code, raws)
    if mode == "max-min":
        span = (lmax - lmin)[code]
        return np.where(span == 0.0, 0.5, (raws - lmin[code]) / np.where(span == 0.0, 1.0, span))
    if (lmax == 0.0).any():
        raise DegenerateModelError(f"cannot {mode}-normalize an all-zero layer")
    if mode == "max":
        return raws / lmax[code]
    log1p = np.fromiter(map(math.log1p, raws.tolist()), np.float64, len(raws))
    return log1p / np.fromiter(map(math.log1p, lmax.tolist()), np.float64, len(lmax))[code]


def score_all(graph: ModelGraph, units: UnitTable, config: Config) -> ScoreTable:
    """Score every unit of ``units``, a table made from ``graph``, as one
    :class:`ScoreTable`. Deterministic given graph and config; the cost
    maxima are taken over exactly this unit set. Each weighted layer's L1
    sums are computed once, and units read them through id arrays. Raises
    DegenerateModelError when there is no unit or a unit's raw score is NaN
    or infinite."""
    table = graph_table(graph, units)
    if not len(table):
        raise DegenerateModelError("model has no prunable units")
    raws = _raw_scores(graph, table, config.use_in_channel)
    if len(bad := np.flatnonzero(~np.isfinite(raws))):
        raise DegenerateModelError(f"{table.uid[bad[0]]}: raw score L is {raws.item(bad[0])} (non-finite weights)")
    gl = _weight_scores(raws, table.family, config.weight_norm_mode)

    footprint = unit_rows(graph, table)
    params, flops = prices = unit_costs(graph, footprint, config.flops_convention)
    pmax, fmax = prices.max(axis=1).tolist()
    # GP depends on P alone and GF on F alone, and units of one layer shape
    # share their prices, so each distinct P and F is normalized once
    (ps, p_at), (fs, f_at) = (np.unique(c, return_inverse=True) for c in prices)
    gp = np.array([normalize_cost_scores(p, fmax, pmax, fmax, config.alpha, config.beta)[0] for p in ps.tolist()])
    gf = np.array([normalize_cost_scores(pmax, f, pmax, fmax, config.alpha, config.beta)[1] for f in fs.tolist()])
    gp, gf = gp[p_at], gf[f_at]
    layer, channel = table.anchors()
    return ScoreTable(
        unit_id=np.array(table.uid, object), layer=np.array(layer, object), channel=np.array(channel, np.int64),
        raw=raws, weight_score=gl, param_score=gp, flop_score=gf, importance=combined_importance(gl, gp, gf),
        params=params, flops=flops, rows=np.arange(len(table)), units=table, footprint=footprint,
    )


def records_texts(scores: ScoreTable) -> tuple[str, str]:
    """``records.csv`` and ``records.json``: ``csv.writer`` rows of each
    score row's ``RECORD_COLUMNS`` fields, its numbers as ``repr`` spells
    them, and ``json.dumps`` of one object per row with ``indent=2``. Both
    come from one text column per field; each distinct float is rendered
    once, and each CSV row is one join of its fields."""
    uid, layer, channel, *numbers = (getattr(scores, column).tolist() for column in SCORE_COLUMNS[:8])
    reprs, jsons = zip(*map(_number_texts, numbers))
    fields = [_csv_fields(uid), _csv_fields(layer), _csv_fields(map(str, channel)), *reprs]
    csv_text = "\n".join([",".join(RECORD_COLUMNS), *map(",".join, zip(*fields)), ""])
    ind = "\n    "
    columns = [jsontext.texts(uid, ind), jsontext.texts(layer, ind), jsontext.texts(channel, ind), *jsons]
    json_text = jsontext.array(jsontext.objects(dict(zip(RECORD_COLUMNS, columns)), "\n  "), "\n") + "\n"
    return csv_text, json_text


def records_to_csv(scores: ScoreTable) -> str:
    """``records.csv`` alone; :func:`records_texts` writes both files."""
    return records_texts(scores)[0]


def records_to_json(scores: ScoreTable) -> str:
    """``records.json`` alone; :func:`records_texts` writes both files."""
    return records_texts(scores)[1]


def _number_texts(values: list[float]) -> tuple[list[str], list[str]]:
    """The CSV text (``repr``) and JSON text of each float of a column. Each
    distinct value is rendered once, 0.0 apart from -0.0 (one dict key), and
    a column of finite floats shares its texts between the two formats; a
    float's ``repr`` needs no CSV quoting."""
    distinct = set(values)
    memo = dict(zip(distinct, map(float.__repr__, distinct)))
    reprs = [memo[v] if v else float.__repr__(v) for v in values]
    if all(map(math.isfinite, distinct)):
        return reprs, reprs
    return reprs, jsontext.texts(values, "\n    ")


def _csv_fields(texts) -> list[str]:
    """Each of ``texts`` as ``csv.writer`` writes it in a row; only a field
    that holds a comma, quote or line break goes through the writer."""
    return [_csv_field(t) if _CSV_SPECIAL.search(t) else t for t in texts]


def _csv_field(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]

