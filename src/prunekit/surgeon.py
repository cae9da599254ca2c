"""Graph surgery: turn a pruning plan into a genuinely smaller model.

Filter rows are sliced on the output axis, consumer kernel slices on the input
axis, and per-channel vectors (bias, batch-norm) shrink with their channels.
Where a pruned read leaves the producing feature map alive (dense blocks), the
consumer keeps an explicit ``in_select`` index list instead of a full-width
kernel. Surgery returns a new graph and leaves its input untouched, unless
the caller gives the input up (``multi_pass``): sliced tensors are fresh
arrays, tensors of layers that lose nothing are shared with the input, and
surviving weights are bit-identical to their pre-surgery values.
Surgery takes its kept indices from the same origin arrays that the units come
from (``units.origin_arrays``), over the table's filters, whose ids are channels.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, replace
from operator import index
from typing import TYPE_CHECKING

import numpy as np

from .errors import PruneKitError
from .eval import _run
from .graph import (
    _BN_ROLES,
    _WIDTH_ATTRS,
    WEIGHTED_KINDS,
    ModelGraph,
    container_checksum,
    infer_shapes,
    validate,
)
from .units import PruneUnit, UnitTable, _Numbering, graph_row, graph_table, origin_arrays

if TYPE_CHECKING:  # the planner applies its plans with this module's apply_units
    from .planner import PruningPlan


_TAKE_ROWS = 8192  # rows per block in _kept_weight: a 64 KB index


@dataclass
class SurgeryReport:
    removed_outputs: dict[str, list[int]]  # layer -> removed output channel indices
    removed_inputs: dict[str, list[int]]  # layer -> removed input slot indices
    bytes_removed: int
    post_params: int
    post_flops: int
    container_checksum: str

    def to_dict(self) -> dict:
        return {
            "removed_outputs": {k: {"count": len(v), "indices": v} for k, v in sorted(self.removed_outputs.items())},
            "removed_inputs": {k: {"count": len(v), "indices": v} for k, v in sorted(self.removed_inputs.items())},
            "bytes_removed": self.bytes_removed,
            "post_params": self.post_params,
            "post_flops": self.post_flops,
            "container_checksum": self.container_checksum,
        }


def clone_graph(graph: ModelGraph) -> ModelGraph:
    """Deep copy of the graph that shares no mutable state with it, for
    callers that write into the copy's tensors or attrs."""
    return copy.deepcopy(graph)


def apply_plan(graph: ModelGraph, plan: PruningPlan) -> tuple[ModelGraph, SurgeryReport]:
    """Apply a plan produced from this exact graph: ``plan.removed_table``
    matches its entries to the graph's units, ``apply_units`` removes them and
    ``plan.check`` recounts the result under the plan's config."""
    units = plan.removed_table(graph)
    pruned = apply_units(graph, units)
    plan.check(pruned)
    return pruned, SurgeryReport(
        removed_outputs=_by_layer(units.filters, units.members.ids),
        removed_inputs=_by_layer(units.slots, units.in_slices.ids),
        bytes_removed=_container_bytes(graph) - _container_bytes(pruned),
        post_params=plan.predicted_params,
        post_flops=plan.predicted_flops,
        container_checksum=container_checksum(pruned),
    )


def apply_units(graph: ModelGraph, units: UnitTable, *, release: bool = False) -> ModelGraph:
    """Remove the units of ``units``, a table made from ``graph``, returning a
    new validated graph.

    A node keeps the output columns whose origins (``units.origin_arrays``) all
    survive, with -1 padding counted alive; a kept slot's new ``in_select``
    entry is its column's position among the producer's kept columns. With
    ``release`` the caller gives ``graph`` up: each replaced tensor is deleted
    from its node as soon as its kept copy exists, so surgery holds one model
    plus one layer, and ``graph`` is left without those tensors."""
    if not graph.inferred:
        raise PruneKitError("run infer_shapes before surgery")
    table = graph_table(graph, units)
    slots, entries = table.slots, table.entries
    arrays = origin_arrays(graph, table.filters)
    removed = _marks(table.members.ids, table.filters)
    slot_gone = _marks(table.in_slices.ids, slots)
    entry_gone = _marks(table.aux.ids, entries)

    # sliced tensors and changed attrs are replaced below; everything else is shared
    nodes = {nid: replace(n, attrs=dict(n.attrs), tensors=dict(n.tensors)) for nid, n in graph.nodes.items()}
    new = replace(graph, nodes=nodes, order=list(graph.order), inferred=False)
    kept: dict[int, np.ndarray] = {}  # id of an origin array -> mask of its surviving columns
    for nid in graph.order:
        arr = arrays[nid]
        if id(arr) not in kept:
            dead = removed[arr]  # -1 padding reads the last entry of removed, which is never set
            kept[id(arr)] = ~dead[0] if len(arr) == 1 else ~dead.any(axis=0)
            if len(arr) > 1 and (~kept[id(arr)] & (~dead & (arr >= 0)).any(axis=0)).any():
                raise PruneKitError(f"{nid}: removal pattern breaks Add operand alignment")
        old, node, keep = graph.nodes[nid], new.nodes[nid], kept[id(arr)]
        if old.kind in WEIGHTED_KINDS:
            edge, slot_keep, sel = kept[id(arrays[old.inputs[0]])], ~slot_gone[slots.span(nid)], old.in_select()
            outs, ins = np.flatnonzero(keep), np.flatnonzero(slot_keep)
            if not len(outs) or not len(ins):
                raise PruneKitError(f"{nid}: surgery would remove every channel")
            cols = ins if sel is None else np.take(sel, ins)
            if not edge[cols].all():
                raise PruneKitError(f"{nid}: surviving slot reads removed channel {cols[~edge[cols]][0]}")
            if "bias" in old.tensors:
                _check_entries(nid, entry_gone[entries.span(nid)], keep, "bias entry set", "removed channels")
            if len(outs) < len(keep) or len(ins) < len(slot_keep):
                node.tensors["weight"] = _kept_weight(old.weight(), outs, ins)
                if "bias" in old.tensors:
                    node.tensors["bias"] = old.tensors["bias"].take(outs)
                if release:
                    old.tensors.clear()
            in_name, out_name = _WIDTH_ATTRS[old.kind]
            node.attrs[in_name], node.attrs[out_name] = len(ins), len(outs)
            new_sel = np.cumsum(edge)[cols] - 1
            node.attrs.pop("in_select", None)
            if not np.array_equal(new_sel, np.arange(np.count_nonzero(edge))):
                node.attrs["in_select"] = new_sel.tolist()
        elif old.kind == "BatchNorm2d":
            _check_entries(nid, entry_gone[entries.span(nid)], keep, "batch-norm slice set", "upstream removals")
            if not keep.all():
                survivors = np.flatnonzero(keep)
                for role in _BN_ROLES:
                    node.tensors[role] = old.tensors[role].take(survivors)
                if release:
                    old.tensors.clear()
            node.attrs["channels"] = int(np.count_nonzero(keep))

    violations = validate(new)
    if violations:
        raise PruneKitError("surgery produced an invalid graph: " + "; ".join(violations))
    return infer_shapes(new)


def _kept_weight(w: np.ndarray, outs: np.ndarray, ins: np.ndarray) -> np.ndarray:
    """``w[np.ix_(outs, ins)]``, taken as (filter, slot) rows of the flattened
    weight, which copies the kept entries once. The row index is built a block
    of filters at a time: one index for a whole 512x512 layer is 2 MB, and it
    raised vgg16's multi-pass peak RSS by 7 MB."""
    f, m = w.shape[:2]
    flat = w.reshape(f * m, -1)
    kept = np.empty((len(outs), len(ins), flat.shape[1]), w.dtype)
    step = max(1, _TAKE_ROWS // len(ins))
    for lo in range(0, len(outs), step):
        rows = (outs[lo : lo + step, None] * m + ins).ravel()
        # every row is in range; "clip" writes straight into out, where "raise" buffers
        flat.take(rows, axis=0, out=kept[lo : lo + step].reshape(len(rows), -1), mode="clip")
    return kept.reshape(len(outs), len(ins), *w.shape[2:])


def _marks(ids: np.ndarray, numbering: _Numbering) -> np.ndarray:
    """Mask over ``numbering`` of ``ids``, plus one last entry that is never set."""
    marks = np.zeros(numbering.size + 1, bool)
    marks[ids] = True
    return marks


def _check_entries(nid: str, stated: np.ndarray, keep: np.ndarray, what: str, removals: str) -> None:
    """The vector entries the units state for ``nid`` must be exactly the
    channels it loses."""
    stated, expected = np.flatnonzero(stated).tolist(), np.flatnonzero(~keep).tolist()
    if stated != expected:
        raise PruneKitError(f"{nid}: {what} {stated} does not match {removals} {expected}")


def _container_bytes(graph: ModelGraph) -> int:
    """Bytes of the graph's tensors stored as float32, as its container holds them."""
    return 4 * sum(t.size for node in graph.nodes.values() for t in node.tensors.values())


def _by_layer(numbering: _Numbering, ids: np.ndarray) -> dict[str, list[int]]:
    """The indices of ``ids`` in each layer they name, ascending."""
    layer, index = numbering.locate(np.sort(ids))
    bounds = [*np.flatnonzero(np.diff(layer, prepend=-1)).tolist(), len(ids)]
    return {numbering.names[layer[lo]]: index[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])}


def zero_equivalence_check(
    graph: ModelGraph,
    unit: PruneUnit,
    trials: int = 16,
    rtol: float = 1e-5,
    seed: int = 0,
) -> bool:
    """Functional oracle for surgery: zeroing a unit's weights must produce the
    same outputs as actually removing it.

    Zeroes the unit's filter rows, their bias entries, the unit's batch-norm
    scale/shift entries, and every consumer kernel slice; then compares
    forward evaluation of the zeroed graph against the surgically pruned graph
    on ``trials`` random inputs, drawn and evaluated as one batch. Returns True
    iff all trials agree within ``rtol``. ``unit`` is a row of a table made
    from ``graph``. A ``trials`` that is not an integer of at least 1, or an
    ``rtol`` that is not a finite real number of at least 0, is a
    PruneKitError (numpy scalars count, bools do not): a check that compares
    nothing passes nothing.

    The zeroed graph shares every node with the input except the layers the
    unit touches, which get their own copies of their tensors. The nodes before
    the first of those layers (the cut) compute the same in both graphs, so the
    input graph is evaluated up to the cut once, and the zeroed graph only from
    there; it is then dropped before surgery builds the pruned graph. The pruned
    graph resumes from the same activations only if each of its nodes before
    the cut has the input node's id, kind, inputs and attrs and the very same
    tensor arrays; otherwise it is evaluated from its input, so a surgery fault
    before the cut is still seen. Either way each output is bit-identical to a
    full ``forward_eval`` of its graph. The input graph is left unchanged.
    """
    try:
        count = None if isinstance(trials, bool) else index(trials)
    except TypeError:
        count = None
    if count is None or count < 1:
        raise PruneKitError(f"trials must be an int of at least 1, got {trials!r}")
    if isinstance(rtol, bool) or not isinstance(rtol, numbers.Real) or not math.isfinite(rtol) or rtol < 0:
        raise PruneKitError(f"rtol must be a finite number of at least 0, got {rtol!r}")
    table = graph_row(graph, unit)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, graph.input_channels, graph.input_size, graph.input_size))
    zeroed = _zeroed(graph, table)
    cut = next((i for i, nid in enumerate(graph.order) if zeroed.nodes[nid] is not graph.nodes[nid]), len(graph.order))
    prefix = (cut, _run(graph, x, stop=cut))
    y_zero = _run(zeroed, x, resume=prefix)
    del zeroed
    pruned = apply_units(graph, table)
    y_cut = _run(pruned, x, resume=prefix if _same_prefix(graph, pruned, cut) else None)
    return y_zero.shape == y_cut.shape and bool(np.allclose(y_cut, y_zero, rtol=rtol, atol=1e-8))


def _same_prefix(graph: ModelGraph, pruned: ModelGraph, cut: int) -> bool:
    """Whether ``pruned`` computes what ``graph`` does over ``graph.order[:cut]``:
    the same node ids in order, each with the same kind, inputs and attrs and
    the very same tensor arrays."""
    if pruned.order[:cut] != graph.order[:cut]:
        return False
    for nid in graph.order[:cut]:
        old, new = graph.nodes[nid], pruned.nodes[nid]
        if (old.kind, old.inputs, old.attrs, old.tensors.keys()) != (new.kind, new.inputs, new.attrs, new.tensors.keys()):
            return False
        if any(t is not new.tensors[role] for role, t in old.tensors.items()):
            return False
    return True


def _zeroed(graph: ModelGraph, table: UnitTable) -> ModelGraph:
    """``graph`` with the weights of ``table``'s units zeroed, in copies of the
    tensors of the layers they touch."""
    members = _by_layer(table.filters, table.members.ids)
    aux = _by_layer(table.entries, table.aux.ids)
    slices = _by_layer(table.slots, table.in_slices.ids)
    nodes = dict(graph.nodes)
    for nid in members.keys() | aux.keys() | slices.keys():
        nodes[nid] = replace(nodes[nid], tensors={role: t.copy() for role, t in nodes[nid].tensors.items()})
    zeroed = replace(graph, nodes=nodes)
    for layer, c in members.items():
        node = zeroed.nodes[layer]
        node.weight()[c] = 0.0
        if "bias" in node.tensors:
            node.tensors["bias"][c] = 0.0
    for layer, i in aux.items():
        node = zeroed.nodes[layer]
        if node.kind == "BatchNorm2d":
            node.tensors["gamma"][i] = 0.0
            node.tensors["beta"][i] = 0.0
    for layer, s in slices.items():
        zeroed.nodes[layer].weight()[:, s] = 0.0
    return zeroed
