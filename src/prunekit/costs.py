"""Parameter and FLOP accounting.

Two deliberately separate views:

* ``unit_rows`` is the one footprint of a unit: per weighted layer it
  touches, the filters and input slots it removes there. ``unit_costs``
  prices those rows with the per-channel formula used for importance
  scoring: kernel terms only, the spatial factor taken from the *input* side
  of each layer, fully-connected layers treated as 1x1 kernels at spatial
  size 1. ``unit_param_cost`` / ``unit_flop_cost`` price one unit.

* ``effective_model_costs`` and its two halves ``model_param_count`` /
  ``model_flop_count`` account for the whole model exactly, using output-side
  spatial sizes. These drive budgets and reduction reports, and removing
  channels in adjacent layers interacts multiplicatively there, so budgets are
  never settled by summing unit costs. ``RunningCosts`` keeps the exact count
  during planning in per-layer int64 arrays, which give the totals after
  every prefix of a ranked run of footprint rows at once; a final full
  recount must agree with them.

Both views read the sizes ``infer_shapes`` annotated, and carry widths through
non-weighted nodes by ``graph.passed_width``; neither derives a shape by kind.

FLOP conventions: ``macs`` counts one fused multiply-add per kernel tap;
``2macs`` counts multiplies and adds separately (exactly double). Model totals
also charge inference-mode batch norm at two ops per element and ReLU at one
op per element; pooling, Add and Concat are free. This mix is what reproduces
the usual published totals for the bundled CIFAR architectures.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import PruneKitError, ShapeError
from .graph import WEIGHTED_KINDS, ModelGraph, passed_width
from .units import PruneUnit, UnitTable, _sorted_unique, graph_row, graph_table

CONVENTIONS = ("macs", "2macs")


def _factor(convention: str) -> int:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown FLOPs convention {convention!r}")
    return 2 if convention == "2macs" else 1


def unit_rows(graph: ModelGraph, units: UnitTable) -> tuple[np.ndarray, np.ndarray]:
    """The footprint of every unit: one (layer code, filters, slots) row per
    weighted layer the unit touches, counting its members and its in-slices
    there, and the bounds of each unit's run of rows (unit ``i`` owns rows
    ``bounds[i]:bounds[i + 1]``, sorted by layer code). A layer code is the
    layer's position in ``graph.weighted_layers()``. ``units`` is a table made
    from ``graph``."""
    table = graph_table(graph, units)
    k = len(table.filters.names)
    out_layer, _ = table.filters.locate(table.members.ids)
    in_layer, _ = table.slots.locate(table.in_slices.ids)
    unit = np.arange(len(table))
    key = np.concatenate(
        [np.repeat(unit, table.members.sizes()) * k + out_layer, np.repeat(unit, table.in_slices.sizes()) * k + in_layer]
    )
    keys = _sorted_unique(key)
    row = np.searchsorted(keys, key)
    filters = np.bincount(row[: len(out_layer)], minlength=len(keys))
    slots = np.bincount(row[len(out_layer) :], minlength=len(keys))
    bounds = np.searchsorted(keys // k, np.arange(len(table) + 1))
    return np.stack([keys % k, filters, slots], axis=1), bounds


def unit_costs(graph: ModelGraph, footprint: tuple[np.ndarray, np.ndarray], convention: str = "macs") -> np.ndarray:
    """The params and the flops of every unit, as two int64 rows, priced
    from its rows of ``footprint`` (the rows and bounds of :func:`unit_rows`).
    A row of ``filters`` filters and ``slots`` slots in a layer of kernel K,
    input width M and output width N owns K*K*(filters*M + slots*N) weights,
    and those times the layer's input size squared in MACs. A unit's rows
    are summed in int64, so its price is exact; PruneKitError if the FLOPs of
    all rows together could overflow it."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before unit costs")
    weighted = graph.weighted_layers()
    rows, bounds = footprint
    layer, filters, slots = rows.T
    per_filter = np.array([n.kernel() ** 2 * n.declared_in_width() for n in weighted], np.int64)
    per_slot = np.array([n.kernel() ** 2 * n.declared_out_width() for n in weighted], np.int64)
    params = filters * per_filter[layer] + slots * per_slot[layer]
    factor = _factor(convention)
    spatial = [n.in_size * n.in_size for n in weighted]
    if int(params.sum()) * max(spatial, default=0) * factor >= 2**63:
        raise PruneKitError(f"input size {graph.input_size}: unit FLOPs overflow int64")
    spatial = np.array(spatial, np.int64)
    totals = np.zeros((2, len(rows) + 1), np.int64)
    np.cumsum([params, params * spatial[layer] * factor], axis=1, out=totals[:, 1:])
    return totals[:, bounds[1:]] - totals[:, bounds[:-1]]


def unit_param_cost(graph: ModelGraph, unit: PruneUnit) -> int:
    """Weights owned by the unit: K*K*M per member filter, K*K*N per consumer
    slice. ``unit`` is a row of a table made from ``graph``; needs inferred
    shapes, like every :func:`unit_costs` price."""
    return unit_costs(graph, unit_rows(graph, graph_row(graph, unit)))[0].item()


def unit_flop_cost(graph: ModelGraph, unit: PruneUnit, convention: str = "macs") -> int:
    """Scoring-side FLOPs of the unit; each layer's spatial factor is its input size."""
    return unit_costs(graph, unit_rows(graph, graph_row(graph, unit)), convention)[1].item()


def _weighted_terms(node, m: int, n: int, count_aux_params: bool) -> tuple[int, int]:
    """(params, flops in MACs) of a conv/linear layer with ``m`` input slots and
    ``n`` filters; the spatial factor is the output size."""
    k = node.kernel()
    params = k * k * m * n
    if count_aux_params and "bias" in node.tensors:
        params += n
    return params, node.out_size * node.out_size * k * k * m * n


def _elementwise_terms(node, width: int, count_aux_params: bool) -> tuple[int, int]:
    """(params, flops in MACs) of a node on ``width`` channels: batch-norm scale
    and shift at two ops per element, ReLU at one, everything else free."""
    if node.kind == "BatchNorm2d":
        params = 2 * width if count_aux_params else 0  # running stats are buffers
        return params, 2 * width * node.out_size * node.out_size
    if node.kind == "ReLU":
        return 0, width * node.out_size * node.out_size
    return 0, 0


def effective_model_costs(
    graph: ModelGraph,
    removed_out: dict[str, int] | None = None,
    removed_slots: dict[str, int] | None = None,
    *,
    convention: str = "macs",
    count_aux_params: bool = True,
) -> tuple[int, int]:
    """Exact (params, flops) of the model after hypothetically removing
    ``removed_out[layer]`` output channels and ``removed_slots[layer]`` input
    slots per weighted layer. Pure shape arithmetic; no surgery performed.
    """
    if not graph.inferred:
        raise ShapeError("run infer_shapes before cost accounting")
    removed_out = removed_out or {}
    removed_slots = removed_slots or {}
    factor = _factor(convention)

    widths: dict[str, int] = {}
    params = 0
    flops = 0
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            widths[nid] = graph.input_channels
            continue
        if node.kind in WEIGHTED_KINDS:
            m_eff = node.declared_in_width() - removed_slots.get(nid, 0)
            n_eff = node.declared_out_width() - removed_out.get(nid, 0)
            if m_eff < 0 or n_eff < 0:
                raise ValueError(f"{nid}: removal counts exceed layer width")
            p, f = _weighted_terms(node, m_eff, n_eff, count_aux_params)
            widths[nid] = n_eff
        else:
            operand_widths = [widths[i] for i in node.inputs]
            if node.kind == "Add" and len(set(operand_widths)) != 1:
                raise ValueError(f"{nid}: removal pattern breaks Add alignment ({sorted(set(operand_widths))})")
            widths[nid] = passed_width(node, operand_widths, node.in_size)
            p, f = _elementwise_terms(node, widths[nid], count_aux_params)
        params += p
        flops += f
    return params, flops * factor


def _downstream_charges(graph: ModelGraph, count_aux_params: bool) -> dict[str, tuple[int, int]]:
    """(params, flops in MACs) that one output channel of each node adds to the
    non-weighted nodes downstream of it, up to the next weighted layers.

    Every node's width is a linear function of its producers' widths (each
    operand's scale is ``graph.passed_width`` of a one-hot list) and every
    non-weighted term is linear in its width, so this per-channel charge is
    fixed: the same whatever else is removed.
    """
    charges = {nid: (0, 0) for nid in graph.order}
    for nid in reversed(graph.order):
        node = graph.nodes[nid]
        if node.kind == "Input" or node.kind in WEIGHTED_KINDS:
            continue  # a weighted layer's term depends on its declared widths only
        own_p, own_f = _elementwise_terms(node, 1, count_aux_params)
        down_p, down_f = charges[nid]
        for pos, src in enumerate(node.inputs):
            scale = passed_width(node, [int(i == pos) for i in range(len(node.inputs))], node.in_size)
            p, f = charges[src]
            charges[src] = (p + scale * (own_p + down_p), f + scale * (own_f + down_f))
    return charges


class RunningCosts:
    """Exact model (params, flops) as units are removed.

    Starts from a full :func:`effective_model_costs` count. Weighted layers
    are numbered by their position in ``graph.weighted_layers()`` (a layer
    code). With ``m`` input slots and ``n`` filters left in layer ``l``, the
    model totals are a fixed part plus, over every weighted layer,

        params: area_params[l] * m * n + filter_params[l] * n
        flops:  area_flops[l] * m * n + filter_flops[l] * n

    ``filter_params``/``filter_flops`` hold a filter's bias and its fixed
    share of the batch-norm/ReLU terms downstream (``_downstream_charges``),
    so removing filters and slots from a layer moves the totals by that
    layer's two terms alone (``after``). Each term lies between 0 and the
    full count, so int64 holds them exactly. ``recount`` makes the second
    full count, for the widths so far, and checks it against the totals.
    """

    def __init__(self, graph: ModelGraph, *, convention: str = "macs", count_aux_params: bool = True):
        self.count = partial(effective_model_costs, graph, convention=convention, count_aux_params=count_aux_params)
        self.params, self.flops = self.count()
        if max(self.params, self.flops) >= 2**63:
            raise PruneKitError(f"model counts overflow int64: {self.params} params, {self.flops} FLOPs")
        factor = _factor(convention)
        charges = _downstream_charges(graph, count_aux_params)
        weighted = graph.weighted_layers()
        self.layers = [n.id for n in weighted]
        self.declared = np.array([[n.declared_out_width() for n in weighted], [n.declared_in_width() for n in weighted]])
        self.out_width, self.in_width = self.declared.copy()
        self.area_params = np.array([n.kernel() ** 2 for n in weighted], np.int64)
        self.area_flops = np.array([factor * n.out_size * n.out_size for n in weighted], np.int64) * self.area_params
        bias = [int(count_aux_params and "bias" in n.tensors) for n in weighted]
        self.filter_params = np.array([b + charges[n.id][0] for n, b in zip(weighted, bias)], np.int64)
        self.filter_flops = np.array([factor * charges[n.id][1] for n in weighted], np.int64)

    def after(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For footprint rows (layer code, filters, slots) removed in the
        given order: the filters and the slots each row's layer has just
        before it, and the exact model params and flops just after it."""
        layer, o, s = rows.T
        order = np.argsort(layer, kind="stable")
        start = np.searchsorted(layer[order], layer[order])  # the first sorted row of each row's layer
        n, m = self.out_width[layer], self.in_width[layer]
        for left, removed in (n, o), (m, s):
            done = np.cumsum(removed[order]) - removed[order]  # removed by the rows sorted before
            left[order] -= done - done[start]
        area = (m - s) * (n - o) - m * n
        params = self.params + np.cumsum(self.area_params[layer] * area - self.filter_params[layer] * o)
        flops = self.flops + np.cumsum(self.area_flops[layer] * area - self.filter_flops[layer] * o)
        return n, m, params, flops

    def remove(self, rows: np.ndarray, params: int, flops: int) -> None:
        """Remove the footprint rows' filters and slots; the model then has
        ``params`` and ``flops`` (the last totals of their ``after``)."""
        np.subtract.at(self.out_width, rows[:, 0], rows[:, 1])
        np.subtract.at(self.in_width, rows[:, 0], rows[:, 2])
        self.params, self.flops = params, flops

    def recount(self) -> None:
        """Full recount of the removals so far; PruneKitError if it differs."""
        removed = (self.declared - [self.out_width, self.in_width]).tolist()
        exact = self.count(*(dict(zip(self.layers, counts)) for counts in removed))
        if exact != (self.params, self.flops):
            raise PruneKitError(f"running cost count {(self.params, self.flops)} differs from recount {exact}")


def model_param_count(graph: ModelGraph, count_aux_params: bool = True) -> int:
    """Total parameters: all conv/linear weights, plus biases and batch-norm
    scale/shift unless ``count_aux_params`` is off. Needs inferred shapes: it
    is the params half of :func:`effective_model_costs`."""
    return effective_model_costs(graph, count_aux_params=count_aux_params)[0]


def model_flop_count(graph: ModelGraph, convention: str = "macs") -> int:
    """Total FLOPs under the given convention (default ``macs``)."""
    _, flops = effective_model_costs(graph, convention=convention)
    return flops
