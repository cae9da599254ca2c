"""Parameter and FLOP accounting.

Two deliberately separate views:

* ``unit_param_cost`` / ``unit_flop_cost`` price a single prunable unit with
  the per-channel formula used for importance scoring: kernel terms only, the
  spatial factor taken from the *input* side of each layer, fully-connected
  layers treated as 1x1 kernels at spatial size 1. ``unit_costs`` gives both
  for a list of units, pricing each (member layers, slice layers) signature once.

* ``effective_model_costs`` and its two halves ``model_param_count`` /
  ``model_flop_count`` account for the whole model exactly, using output-side
  spatial sizes. These drive budgets and reduction reports, and removing
  channels in adjacent layers interacts multiplicatively there, so budgets are
  never settled by summing unit costs. ``RunningCosts`` keeps the exact count
  during planning: each removal recomputes the terms of the layers it
  touches, with the same per-node rules as the full count, and a final full
  recount must agree with it.

FLOP conventions: ``macs`` counts one fused multiply-add per kernel tap;
``2macs`` counts multiplies and adds separately (exactly double). Model totals
also charge inference-mode batch norm at two ops per element and ReLU at one
op per element; pooling, Add and Concat are free. This mix is what reproduces
the usual published totals for the bundled CIFAR architectures.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from .errors import PruneKitError, ShapeError
from .graph import WEIGHTED_KINDS, ModelGraph
from .units import PruneUnit

CONVENTIONS = ("macs", "2macs")
_PASSING_KINDS = ("BatchNorm2d", "ReLU", "Pool", "Output", "Flatten", "Add", "Concat")
_LAYER = attrgetter("layer")


def _factor(convention: str) -> int:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown FLOPs convention {convention!r}")
    return 2 if convention == "2macs" else 1


def _unit_blocks(graph: ModelGraph, unit: PruneUnit):
    """(layer, width) of each kernel block the unit owns: M per filter, N per slice."""
    for m in unit.members:
        node = graph.nodes[m.layer]
        yield node, node.declared_in_width()
    for s in unit.in_slices:
        node = graph.nodes[s.layer]
        yield node, node.declared_out_width()


def _price(graph: ModelGraph, unit: PruneUnit) -> tuple[int, int]:
    """(params, flops in MACs) of the unit's kernel blocks, in one walk; each
    block's spatial factor is its layer's input size."""
    params = flops = 0
    for node, width in _unit_blocks(graph, unit):
        block = node.kernel() ** 2 * width
        params += block
        flops += node.in_size * node.in_size * block
    return params, flops


def unit_costs(graph: ModelGraph, units: list[PruneUnit], convention: str = "macs") -> list[tuple[int, int]]:
    """(``unit_param_cost``, ``unit_flop_cost``) of every unit. A unit's price
    depends only on the layers of its members and slices, so each such
    signature is walked once and its price reused."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before unit_costs")
    factor = _factor(convention)
    prices: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[int, int]] = {}
    costs = []
    for unit in units:
        signature = (tuple(map(_LAYER, unit.members)), tuple(map(_LAYER, unit.in_slices)))
        if (price := prices.get(signature)) is None:
            params, flops = _price(graph, unit)
            price = prices[signature] = (params, flops * factor)
        costs.append(price)
    return costs


def unit_param_cost(graph: ModelGraph, unit: PruneUnit) -> int:
    """Weights owned by the unit: K*K*M per member filter, K*K*N per consumer slice."""
    return _price(graph, unit)[0]


def unit_flop_cost(graph: ModelGraph, unit: PruneUnit, convention: str = "macs") -> int:
    """Scoring-side cost of the unit; spatial factor is each layer's input size."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before unit_flop_cost")
    return _price(graph, unit)[1] * _factor(convention)


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


def _passed_width(node, pos: int) -> int:
    """Output width of a non-weighted node per channel of its operand ``pos``:
    widths pass through, Flatten spreads a channel over in_size² features,
    Concat adds its operands and Add follows operand 0 (the others must match)."""
    if node.kind == "Flatten":
        return node.in_size * node.in_size
    if node.kind == "Add":
        return int(pos == 0)
    return 1


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
        elif node.kind in _PASSING_KINDS:
            if node.kind == "Add" and len(ws := {widths[i] for i in node.inputs}) != 1:
                raise ValueError(f"{nid}: removal pattern breaks Add alignment ({sorted(ws)})")
            widths[nid] = sum(_passed_width(node, pos) * widths[i] for pos, i in enumerate(node.inputs))
            p, f = _elementwise_terms(node, widths[nid], count_aux_params)
        else:
            raise ValueError(f"{nid}: unsupported kind {node.kind!r}")
        params += p
        flops += f
    return params, flops * factor


def _downstream_charges(graph: ModelGraph, count_aux_params: bool) -> dict[str, tuple[int, int]]:
    """(params, flops in MACs) that one output channel of each node adds to the
    non-weighted nodes downstream of it, up to the next weighted layers.

    Every node's width is a linear function of its producers' widths (see
    ``_passed_width``) and every non-weighted term is linear in its width, so
    this per-channel charge is fixed: the same whatever else is removed.
    """
    charges = {nid: (0, 0) for nid in graph.order}
    for nid in reversed(graph.order):
        node = graph.nodes[nid]
        if node.kind == "Input" or node.kind in WEIGHTED_KINDS:
            continue  # a weighted layer's term depends on its declared widths only
        own_p, own_f = _elementwise_terms(node, 1, count_aux_params)
        down_p, down_f = charges[nid]
        for pos, src in enumerate(node.inputs):
            scale = _passed_width(node, pos)
            p, f = charges[src]
            charges[src] = (p + scale * (own_p + down_p), f + scale * (own_f + down_f))
    return charges


class RunningCosts:
    """Exact model (params, flops) as units are removed one at a time.

    Starts from a full :func:`effective_model_costs` count. ``remove`` updates
    both totals in O(|members| + |in_slices|): it recomputes the conv/linear
    term of each layer the unit touches at the layer's new widths, and takes
    each removed filter's fixed share of the batch-norm/ReLU terms downstream
    (``_downstream_charges``). ``recount`` makes the second full count, for the
    removals so far, and checks that it equals the running totals.
    """

    def __init__(self, graph: ModelGraph, *, convention: str = "macs", count_aux_params: bool = True):
        self.graph = graph
        self.convention = convention
        self.count_aux_params = count_aux_params
        self.params, self.flops = effective_model_costs(
            graph, convention=convention, count_aux_params=count_aux_params
        )
        self.removed_out: Counter[str] = Counter()
        self.removed_slots: Counter[str] = Counter()
        self._factor = _factor(convention)
        self._charges = _downstream_charges(graph, count_aux_params)

    def _terms(self, layer: str) -> tuple[int, int]:
        node = self.graph.nodes[layer]
        m = node.declared_in_width() - self.removed_slots[layer]
        n = node.declared_out_width() - self.removed_out[layer]
        return _weighted_terms(node, m, n, self.count_aux_params)

    def remove(self, unit: PruneUnit) -> None:
        out_hits = Counter(m.layer for m in unit.members)
        slot_hits = Counter(s.layer for s in unit.in_slices)
        for layer in out_hits.keys() | slot_hits.keys():
            p0, f0 = self._terms(layer)
            self.removed_out[layer] += out_hits[layer]
            self.removed_slots[layer] += slot_hits[layer]
            p1, f1 = self._terms(layer)
            self.params += p1 - p0
            self.flops += (f1 - f0) * self._factor
        for layer, hits in out_hits.items():
            p, f = self._charges[layer]
            self.params -= hits * p
            self.flops -= hits * f * self._factor

    def recount(self) -> None:
        """Full recount of the removals so far; PruneKitError if it differs."""
        exact = effective_model_costs(
            self.graph,
            dict(self.removed_out),
            dict(self.removed_slots),
            convention=self.convention,
            count_aux_params=self.count_aux_params,
        )
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
