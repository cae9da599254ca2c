"""Graph surgery: turn a pruning plan into a genuinely smaller model.

Filter rows are sliced on the output axis, consumer kernel slices on the input
axis, and per-channel vectors (bias, batch-norm) shrink with their channels.
Where a pruned read leaves the producing feature map alive (dense blocks), the
consumer keeps an explicit ``in_select`` index list instead of a full-width
kernel. Surgery returns a new graph and leaves its input untouched: sliced
tensors are fresh arrays, tensors of layers that lose nothing are shared with
the input, and surviving weights are bit-identical to their pre-surgery values.
Surgery takes its kept indices from the same origin arrays that the units come
from (``units.channel_flow``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .costs import effective_model_costs
from .errors import PlanMismatchError, PruneKitError
from .eval import forward_eval
from .graph import _BN_ROLES, _WIDTH_ATTRS, WEIGHTED_KINDS, ModelGraph, _layout, graph_checksum, infer_shapes, validate
from .planner import PruningPlan
from .units import AuxRef, InSliceRef, PruneUnit, _Numbering, build_prune_units, channel_flow


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
    nodes = {
        nid: replace(
            n,
            inputs=list(n.inputs),
            attrs={k: (list(v) if isinstance(v, list) else v) for k, v in n.attrs.items()},
            tensors={role: t.copy() for role, t in n.tensors.items()},
        )
        for nid, n in graph.nodes.items()
    }
    return replace(graph, nodes=nodes, order=list(graph.order))


def apply_plan(graph: ModelGraph, plan: PruningPlan) -> tuple[ModelGraph, SurgeryReport]:
    """Apply a plan produced from this exact graph; re-validates the result and
    checks that the recounted params/FLOPs equal the plan's predictions."""
    if plan.model_checksum != graph_checksum(graph):
        raise PlanMismatchError("plan was produced from a different model (checksum mismatch)")
    by_uid = {u.uid: u for u in build_prune_units(graph)}
    selected: list[PruneUnit] = []
    for entry in plan.removed_entries:
        uid = entry["unit_id"]
        unit = by_uid.get(uid)
        if unit is None:
            raise PlanMismatchError(f"corrupt plan: unknown unit {uid!r}")
        if entry["members"] != [[m.layer, m.channel] for m in unit.members] or entry[
            "in_slices"
        ] != [[s.layer, s.in_channel] for s in unit.in_slices]:
            raise PlanMismatchError(f"corrupt plan: unit {uid!r} does not match the graph")
        selected.append(unit)

    pruned = _checked_surgery(graph, selected, plan)
    return pruned, _make_report(graph, pruned, selected, plan)


def _checked_surgery(graph: ModelGraph, units: list[PruneUnit], plan: PruningPlan) -> ModelGraph:
    """apply_units, then check the recounted params/FLOPs against the plan."""
    pruned = apply_units(graph, units)
    post_params, post_flops = effective_model_costs(
        pruned,
        convention=plan.config.get("flops_convention", "macs"),
        count_aux_params=plan.config.get("count_aux_params", True),
    )
    if (post_params, post_flops) != (plan.predicted_params, plan.predicted_flops):
        raise PruneKitError(
            f"surgery does not match plan: params {post_params} vs {plan.predicted_params}, "
            f"flops {post_flops} vs {plan.predicted_flops}"
        )
    return pruned


def apply_units(graph: ModelGraph, units: list[PruneUnit]) -> ModelGraph:
    """Remove the given units from the graph, returning a new validated graph.

    A node keeps the output columns whose origins (``units.channel_flow``) all
    survive, with -1 padding counted alive; a kept slot's new ``in_select``
    entry is its column's position among the producer's kept columns."""
    if not graph.inferred:
        raise PruneKitError("run infer_shapes before surgery")
    channels, arrays = channel_flow(graph)
    weighted = graph.weighted_layers()
    slots = _Numbering(InSliceRef, [(n.id, n.declared_in_width()) for n in weighted])
    vectors = [n for n in graph.nodes.values() if n.kind in (*WEIGHTED_KINDS, "BatchNorm2d")]
    entries = _Numbering(AuxRef, [(n.id, n.out_channels) for n in vectors])
    layer_widths = {n.id: n.out_channels for n in weighted}  # Input channels are not removable
    removed = _marks(chain.from_iterable(u.members for u in units), channels, layer_widths, "output channel")
    slot_gone = _marks(chain.from_iterable(u.in_slices for u in units), slots, slots.width, "input slot")
    entry_gone = _marks(chain.from_iterable(u.aux for u in units), entries, entries.width, "vector entry")

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
            if len(outs) < len(keep) or len(ins) < len(slot_keep):
                node.tensors["weight"] = old.weight()[np.ix_(outs, ins)]
                if "bias" in old.tensors:
                    node.tensors["bias"] = old.tensors["bias"].take(outs)
            in_name, out_name = _WIDTH_ATTRS[old.kind]
            node.attrs[in_name], node.attrs[out_name] = len(ins), len(outs)
            new_sel = np.cumsum(edge)[cols] - 1
            node.attrs.pop("in_select", None)
            if not np.array_equal(new_sel, np.arange(np.count_nonzero(edge))):
                node.attrs["in_select"] = new_sel.tolist()
        elif old.kind == "BatchNorm2d":
            stated, expected = np.flatnonzero(entry_gone[entries.span(nid)]).tolist(), np.flatnonzero(~keep).tolist()
            if stated != expected:
                raise PruneKitError(f"{nid}: batch-norm slice set {stated} does not match upstream removals {expected}")
            if expected:
                survivors = np.flatnonzero(keep)
                for role in _BN_ROLES:
                    node.tensors[role] = old.tensors[role].take(survivors)
            node.attrs["channels"] = len(keep) - len(expected)

    violations = validate(new)
    if violations:
        raise PruneKitError("surgery produced an invalid graph: " + "; ".join(violations))
    return infer_shapes(new)


def _marks(refs, numbering: _Numbering, widths: dict[str, int], what: str) -> np.ndarray:
    """Mask over ``numbering`` of the (layer, index) refs, plus one last entry
    that is never set. Each ref must name a layer of ``widths`` and an index
    inside its width."""
    refs = list(refs)
    code = {layer: i for i, layer in enumerate(widths)}
    layer = np.fromiter(map(code.get, map(itemgetter(0), refs), repeat(-1)), np.int64, len(refs))
    index = np.fromiter(map(itemgetter(1), refs), np.int64, len(refs))
    bad = (index < 0) | (index >= np.array([*widths.values(), 0])[layer])  # an unknown layer (-1) has width 0
    if bad.any():
        ref = refs[int(np.argmax(bad))]
        raise PruneKitError(f"{ref[0]}: unit names {what} {ref[1]}, which the layer does not have")
    marks = np.zeros(numbering.size + 1, bool)
    marks[np.array([numbering.offset[name] for name in widths], np.int64)[layer] + index] = True
    return marks


def _make_report(before: ModelGraph, after: ModelGraph, units: list[PruneUnit], plan: PruningPlan) -> SurgeryReport:
    removed_outputs: dict[str, list[int]] = {}
    removed_inputs: dict[str, list[int]] = {}
    for u in units:
        for m in u.members:
            removed_outputs.setdefault(m.layer, []).append(m.channel)
        for s in u.in_slices:
            removed_inputs.setdefault(s.layer, []).append(s.in_channel)
    for d in (removed_outputs, removed_inputs):
        for key in d:
            d[key] = sorted(d[key])
    manifest_before, _ = _layout(before)
    manifest_after, arrays_after = _layout(after)
    container_digest = hashlib.sha256()
    for arr in arrays_after:
        container_digest.update(arr)
    return SurgeryReport(
        removed_outputs=removed_outputs,
        removed_inputs=removed_inputs,
        bytes_removed=manifest_before["total_bytes"] - manifest_after["total_bytes"],
        post_params=plan.predicted_params,
        post_flops=plan.predicted_flops,
        container_checksum=container_digest.hexdigest(),
    )


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
    on ``trials`` random inputs, drawn as one batch and evaluated in one
    batched pass per graph. Returns True iff all trials agree within ``rtol``.

    The zeroed graph shares every node with the input except the layers the
    unit touches, which get their own copies of their tensors; the input
    graph is left unchanged.
    """
    nodes = dict(graph.nodes)
    for nid in {ref.layer for ref in (*unit.members, *unit.aux, *unit.in_slices)}:
        nodes[nid] = replace(nodes[nid], tensors={role: t.copy() for role, t in nodes[nid].tensors.items()})
    zeroed = replace(graph, nodes=nodes)
    for m in unit.members:
        node = zeroed.nodes[m.layer]
        node.weight()[m.channel] = 0.0
        if "bias" in node.tensors:
            node.tensors["bias"][m.channel] = 0.0
    for a in unit.aux:
        node = zeroed.nodes[a.layer]
        if node.kind == "BatchNorm2d":
            node.tensors["gamma"][a.index] = 0.0
            node.tensors["beta"][a.index] = 0.0
    for s in unit.in_slices:
        zeroed.nodes[s.layer].weight()[:, s.in_channel] = 0.0

    pruned = apply_units(graph, [unit])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, graph.input_channels, graph.input_size, graph.input_size))
    y_zero = forward_eval(zeroed, x)
    y_cut = forward_eval(pruned, x)
    return y_zero.shape == y_cut.shape and bool(np.allclose(y_cut, y_zero, rtol=rtol, atol=1e-8))
