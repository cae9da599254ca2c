"""Graph surgery: turn a pruning plan into a genuinely smaller model.

Filter rows are sliced on the output axis, consumer kernel slices on the input
axis, and per-channel vectors (bias, batch-norm) shrink with their channels.
Where a pruned read leaves the producing feature map alive (dense blocks), the
consumer keeps an explicit ``in_select`` index list instead of a full-width
kernel. Surgery returns a new graph and leaves its input untouched: sliced
tensors are fresh arrays, tensors of layers that lose nothing are shared with
the input, and surviving weights are bit-identical to their pre-surgery values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .costs import effective_model_costs
from .errors import PlanMismatchError, PruneKitError
from .eval import forward_eval
from .graph import _WIDTH_ATTRS, WEIGHTED_KINDS, ModelGraph, _layout, graph_checksum, infer_shapes, validate
from .planner import PruningPlan
from .units import PruneUnit, build_prune_units


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
    """Remove the given units from the graph, returning a new validated graph."""
    if not graph.inferred:
        raise PruneKitError("run infer_shapes before surgery")
    removed_out: dict[str, set[int]] = {}
    removed_slots: dict[str, set[int]] = {}
    removed_bn: dict[str, set[int]] = {}
    for u in units:
        for m in u.members:
            removed_out.setdefault(m.layer, set()).add(m.channel)
        for s in u.in_slices:
            removed_slots.setdefault(s.layer, set()).add(s.in_channel)
        for a in u.aux:
            if graph.nodes[a.layer].kind == "BatchNorm2d":
                removed_bn.setdefault(a.layer, set()).add(a.index)

    # sliced tensors and changed attrs are replaced below; everything else is shared
    nodes = {nid: replace(n, attrs=dict(n.attrs), tensors=dict(n.tensors)) for nid, n in graph.nodes.items()}
    new = replace(graph, nodes=nodes, order=list(graph.order), inferred=False)
    survivors: dict[str, list[int]] = {}  # node -> surviving old output indices, in order
    for nid in graph.order:
        old = graph.nodes[nid]
        node = new.nodes[nid]
        if old.kind == "Input":
            survivors[nid] = list(range(graph.input_channels))
            continue
        esl = survivors[old.inputs[0]]
        if old.kind in WEIGHTED_KINDS:
            out_gone = removed_out.get(nid, set())
            slot_gone = removed_slots.get(nid, set())
            n_old = old.declared_out_width()
            m_old = old.declared_in_width()
            out_keep = [c for c in range(n_old) if c not in out_gone]
            slot_keep = [m for m in range(m_old) if m not in slot_gone]
            if not out_keep or not slot_keep:
                raise PruneKitError(f"{nid}: surgery would remove every channel")
            sel = old.in_select() or list(range(graph.nodes[old.inputs[0]].out_channels))
            pos = {old_idx: i for i, old_idx in enumerate(esl)}
            try:
                new_sel = [pos[sel[m]] for m in slot_keep]
            except KeyError as e:
                raise PruneKitError(f"{nid}: surviving slot reads removed channel {e}") from e
            if out_gone or slot_gone:
                node.tensors["weight"] = old.weight()[np.ix_(out_keep, slot_keep)]
                if "bias" in old.tensors:
                    node.tensors["bias"] = old.tensors["bias"][out_keep]
            in_name, out_name = _WIDTH_ATTRS[old.kind]
            node.attrs[in_name], node.attrs[out_name] = len(slot_keep), len(out_keep)
            if new_sel == list(range(len(esl))):
                node.attrs.pop("in_select", None)
            else:
                node.attrs["in_select"] = new_sel
            survivors[nid] = out_keep
        elif old.kind == "BatchNorm2d":
            width_old = old.declared_out_width()
            expected = set(range(width_old)) - set(esl)
            stated = removed_bn.get(nid, set())
            if stated != expected:
                raise PruneKitError(
                    f"{nid}: batch-norm slice set {sorted(stated)} does not match "
                    f"upstream removals {sorted(expected)}"
                )
            for role in ("gamma", "beta", "running_mean", "running_var"):
                node.tensors[role] = old.tensors[role][esl]
            node.attrs["channels"] = len(esl)
            survivors[nid] = esl
        elif old.kind in ("ReLU", "Pool", "Output"):
            survivors[nid] = esl
        elif old.kind == "Flatten":
            block = old.in_size * old.in_size
            survivors[nid] = [c * block + k for c in esl for k in range(block)]
        elif old.kind == "Add":
            lists = [survivors[i] for i in old.inputs]
            if any(lst != lists[0] for lst in lists[1:]):
                raise PruneKitError(f"{nid}: removal pattern breaks Add operand alignment")
            survivors[nid] = lists[0]
        elif old.kind == "Concat":
            merged: list[int] = []
            offset = 0
            for src in old.inputs:
                merged.extend(offset + idx for idx in survivors[src])
                offset += graph.nodes[src].out_channels
            survivors[nid] = merged
        else:
            raise PruneKitError(f"{nid}: unsupported kind {old.kind!r}")

    violations = validate(new)
    if violations:
        raise PruneKitError("surgery produced an invalid graph: " + "; ".join(violations))
    return infer_shapes(new)


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
