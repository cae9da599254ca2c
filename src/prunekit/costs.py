"""Parameter and FLOP accounting.

Two deliberately separate views:

* ``unit_param_cost`` / ``unit_flop_cost`` price a single prunable unit with
  the per-channel formula used for importance scoring: kernel terms only, the
  spatial factor taken from the *input* side of each layer, fully-connected
  layers treated as 1x1 kernels at spatial size 1.

* ``effective_model_costs`` and its two halves ``model_param_count`` /
  ``model_flop_count`` account for the whole model exactly, using output-side
  spatial sizes. These drive budgets and reduction reports, and removing
  channels in adjacent layers interacts multiplicatively there, so budgets are
  always settled by recounting rather than by summing unit costs.

FLOP conventions: ``macs`` counts one fused multiply-add per kernel tap;
``2macs`` counts multiplies and adds separately (exactly double). Model totals
also charge inference-mode batch norm at two ops per element and ReLU at one
op per element; pooling, Add and Concat are free. This mix is what reproduces
the usual published totals for the bundled CIFAR architectures.
"""

from __future__ import annotations

from .errors import ShapeError
from .graph import ModelGraph
from .units import PruneUnit

CONVENTIONS = ("macs", "2macs")


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


def unit_param_cost(graph: ModelGraph, unit: PruneUnit) -> int:
    """Weights owned by the unit: K*K*M per member filter, K*K*N per consumer slice."""
    return sum(node.kernel() ** 2 * width for node, width in _unit_blocks(graph, unit))


def unit_flop_cost(graph: ModelGraph, unit: PruneUnit, convention: str = "macs") -> int:
    """Scoring-side cost of the unit; spatial factor is each layer's input size."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before unit_flop_cost")
    total = 0
    for node, width in _unit_blocks(graph, unit):
        i = node.in_size if node.kind == "Conv2d" else 1
        total += i * i * node.kernel() ** 2 * width
    return total * _factor(convention)


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
        w_in = widths[node.inputs[0]]
        if node.kind in ("Conv2d", "Linear"):
            m_eff = node.declared_in_width() - removed_slots.get(nid, 0)
            n_eff = node.declared_out_width() - removed_out.get(nid, 0)
            if m_eff < 0 or n_eff < 0:
                raise ValueError(f"{nid}: removal counts exceed layer width")
            k = node.kernel()
            params += k * k * m_eff * n_eff
            if count_aux_params and "bias" in node.tensors:
                params += n_eff
            spatial = node.out_size * node.out_size if node.kind == "Conv2d" else 1
            flops += spatial * k * k * m_eff * n_eff
            widths[nid] = n_eff
        elif node.kind == "BatchNorm2d":
            if count_aux_params:
                params += 2 * w_in  # scale and shift; running stats are buffers
            flops += 2 * w_in * node.out_size * node.out_size
            widths[nid] = w_in
        elif node.kind == "ReLU":
            flops += w_in * node.out_size * node.out_size
            widths[nid] = w_in
        elif node.kind in ("Pool", "Output"):
            widths[nid] = w_in
        elif node.kind == "Flatten":
            widths[nid] = w_in * node.in_size * node.in_size
        elif node.kind == "Add":
            ws = {widths[i] for i in node.inputs}
            if len(ws) != 1:
                raise ValueError(f"{nid}: removal pattern breaks Add alignment ({sorted(ws)})")
            widths[nid] = ws.pop()
        elif node.kind == "Concat":
            widths[nid] = sum(widths[i] for i in node.inputs)
        else:
            raise ValueError(f"{nid}: unsupported kind {node.kind!r}")
    return params, flops * factor


def model_param_count(graph: ModelGraph, count_aux_params: bool = True) -> int:
    """Total parameters: all conv/linear weights, plus biases and batch-norm
    scale/shift unless ``count_aux_params`` is off. Needs inferred shapes: it
    is the params half of :func:`effective_model_costs`."""
    return effective_model_costs(graph, count_aux_params=count_aux_params)[0]


def model_flop_count(graph: ModelGraph, convention: str = "macs") -> int:
    """Total FLOPs under the given convention (default ``macs``)."""
    _, flops = effective_model_costs(graph, convention=convention)
    return flops
