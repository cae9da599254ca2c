"""Prunable-unit extraction.

Walks the graph once and partitions its removable surface into units:

* plain-chain output channels, each bundled with every downstream kernel slice
  that reads it (through ReLU/BatchNorm/Pool/Flatten pass-throughs);
* residual-coupled channel groups: channels forced to share an index because
  they meet at Add nodes are removed together;
* in-channel-only slices inside densely concatenated blocks, where the
  producing feature map must survive because later layers still read it;
* conv -> Flatten -> Linear column blocks under channel-major flattening.

The final weighted layer feeding Output keeps all its channels (class count is
fixed), and channels of the graph Input are never removable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import PruneKitError, ShapeError
from .graph import WEIGHTED_KINDS, ModelGraph

PASS_THROUGH_KINDS = ("BatchNorm2d", "ReLU", "Pool", "Flatten")

FULL_CHANNEL = "full_channel"
IN_CHANNEL_ONLY = "in_channel_only"


class ChannelRef(NamedTuple):
    """One output channel of a weighted layer.

    The three ref types are named tuples, so hashing, equality and ordering
    run on plain tuples: refs of different types with equal fields compare
    equal. Nothing mixes them; ``_check_partition`` keeps one set per type.
    """

    layer: str
    channel: int


class InSliceRef(NamedTuple):
    """One input slot of a weighted consumer (a kernel slice across its filters)."""

    layer: str
    in_channel: int


class AuxRef(NamedTuple):
    """A per-channel vector entry to drop with the unit (bias or BN index)."""

    layer: str
    index: int


@dataclass
class PruneUnit:
    uid: str
    kind: str
    members: tuple[ChannelRef, ...]
    in_slices: tuple[InSliceRef, ...]
    aux: tuple[AuxRef, ...]
    family: str  # normalization scope for the weight score
    member_slices: tuple[tuple[InSliceRef, ...], ...] = ()  # per-member consumer slices
    origin: ChannelRef | None = None  # producing channel of an in-channel-only unit

    def to_json(self) -> dict:
        payload = {
            "uid": self.uid,
            "kind": self.kind,
            "members": [[m.layer, m.channel] for m in self.members],
            "in_slices": [[s.layer, s.in_channel] for s in self.in_slices],
            "aux": [[a.layer, a.index] for a in self.aux],
            "family": self.family,
        }
        if self.origin is not None:
            payload["origin"] = [self.origin.layer, self.origin.channel]
        return payload


def group_importance(member_scores: list[float]) -> float:
    """Aggregate raw scores of a coupled group: arithmetic mean."""
    if not member_scores:
        raise ValueError("group has no members")
    return sum(member_scores) / len(member_scores)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _origin_maps(graph: ModelGraph) -> dict[str, list[frozenset[ChannelRef]]]:
    """For every node, map each output index to the weighted channels feeding it.

    Channels of the graph Input appear as refs on the Input node's id.
    """
    maps: dict[str, list[frozenset[ChannelRef]]] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            maps[nid] = [frozenset({ChannelRef(nid, c)}) for c in range(graph.input_channels)]
        elif node.kind in WEIGHTED_KINDS:
            maps[nid] = [frozenset({ChannelRef(nid, c)}) for c in range(node.declared_out_width())]
        elif node.kind in ("BatchNorm2d", "ReLU", "Pool", "Output"):
            maps[nid] = maps[node.inputs[0]]
        elif node.kind == "Flatten":
            src = maps[node.inputs[0]]
            block = node.in_size * node.in_size
            maps[nid] = [origins for origins in src for _ in range(block)]
        elif node.kind == "Add":
            ops = [maps[i] for i in node.inputs]
            maps[nid] = [frozenset().union(*(op[i] for op in ops)) for i in range(len(ops[0]))]
        elif node.kind == "Concat":
            merged: list[frozenset[ChannelRef]] = []
            for i in node.inputs:
                merged.extend(maps[i])
            maps[nid] = merged
        else:
            raise PruneKitError(f"{nid}: unsupported node kind {node.kind!r}")
    return maps


def _dense_interior(graph: ModelGraph, consumers: dict[str, list[str]]) -> set[str]:
    """Weighted producers whose every path to a weighted consumer crosses a Concat."""
    interior: set[str] = set()
    for node in graph.weighted_layers():
        frontier = list(consumers[node.id])
        seen: set[str] = set()
        direct = False
        via_concat = False
        while frontier:
            nid = frontier.pop()
            if nid in seen:
                continue
            seen.add(nid)
            kind = graph.nodes[nid].kind
            if kind in WEIGHTED_KINDS:
                direct = True
                break
            if kind == "Concat":
                via_concat = True
                continue  # do not traverse: reads beyond here are slice-level
            if kind in PASS_THROUGH_KINDS or kind == "Add":
                frontier.extend(consumers[nid])
        if not direct and via_concat:
            interior.add(node.id)
    return interior


def build_prune_units(graph: ModelGraph) -> list[PruneUnit]:
    """Enumerate the model's prunable units. Requires inferred shapes."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before build_prune_units")
    consumers = graph.consumers()
    _check_reachability(graph, consumers)
    maps = _origin_maps(graph)
    input_id = graph.input_node().id
    topo = {nid: i for i, nid in enumerate(graph.order)}

    # every weighted read, attributed to the channels that feed it
    slice_of: dict[ChannelRef, list[InSliceRef]] = {}
    slot_origins: dict[InSliceRef, frozenset[ChannelRef]] = {}
    for node in graph.weighted_layers():
        edge_map = maps[node.inputs[0]]
        sel = node.in_select()
        if sel is None:
            sel = list(range(len(edge_map)))
        if len(sel) != node.declared_in_width():
            raise ShapeError(f"{node.id}: input width {node.declared_in_width()} vs edge width {len(sel)}")
        for slot, edge_idx in enumerate(sel):
            ref = InSliceRef(node.id, slot)
            slot_origins[ref] = edge_map[edge_idx]
            for origin in edge_map[edge_idx]:
                slice_of.setdefault(origin, []).append(ref)

    # channels meeting at an Add must come and go together
    uf = _UnionFind()
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind != "Add":
            continue
        # an operand's origins at one index are already tied (by an earlier
        # Add, or it is a single channel), so one origin per operand stands in
        ops = [maps[i] for i in node.inputs]
        for idx in range(len(ops[0])):
            first, *rest = (next(iter(op[idx])) for op in ops)
            for other in rest:
                uf.union(first, other)

    interior = _dense_interior(graph, consumers)

    # groups tied to raw input channels are not removable
    tainted = {uf.find(ChannelRef(input_id, c)) for c in range(graph.input_channels)}

    groups: dict[ChannelRef, list[ChannelRef]] = {}
    for node in graph.weighted_layers():
        if node.id in interior:
            continue
        for c in range(node.declared_out_width()):
            ref = ChannelRef(node.id, c)
            root = uf.find(ref)
            if root in tainted:
                continue
            groups.setdefault(root, []).append(ref)

    bn_slots: dict[ChannelRef, list[AuxRef]] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind != "BatchNorm2d":
            continue
        for j, origins in enumerate(maps[node.inputs[0]]):
            for origin in origins:
                bn_slots.setdefault(origin, []).append(AuxRef(nid, j))

    units: list[PruneUnit] = []
    slice_key = lambda s: (topo[s.layer], s.in_channel)

    # groups and slice_of were filled walking weighted layers in graph order and
    # indices upwards, so members and each member's slices are already in
    # (topo, index) order
    for root, members in groups.items():
        if any(m.layer in interior for m in members):
            raise PruneKitError(f"overlapping dense/residual structures at {members[0].layer}")
        per_member = tuple(tuple(slice_of.get(m, ())) for m in members)
        all_slices = sorted({s for group in per_member for s in group}, key=slice_key)
        if not all_slices:
            continue  # terminal layer: its outputs are the model's outputs
        aux: set[AuxRef] = set()
        for m in members:
            aux.update(bn_slots.get(m, []))
            if "bias" in graph.nodes[m.layer].tensors:
                aux.add(AuxRef(m.layer, m.channel))
        primary = members[0]
        family = (
            f"layer:{primary.layer}"
            if len(members) == 1
            else "group:" + "|".join(sorted({m.layer for m in members}))
        )
        units.append(
            PruneUnit(
                uid=f"{primary.layer}.c{primary.channel}",
                kind=FULL_CHANNEL,
                members=tuple(members),
                in_slices=tuple(all_slices),
                aux=tuple(sorted(aux, key=lambda a: (topo[a.layer], a.index))),
                family=family,
                member_slices=per_member,
            )
        )

    for producer in sorted(interior, key=lambda p: topo[p]):
        node = graph.nodes[producer]
        for c in range(node.declared_out_width()):
            ref = ChannelRef(producer, c)
            for sl in slice_of.get(ref, []):
                origins = slot_origins[sl]
                if len(origins) > 1:
                    raise PruneKitError(
                        f"overlapping dense/residual structures: slot {sl.layer}.in{sl.in_channel}"
                    )
                units.append(
                    PruneUnit(
                        uid=f"{sl.layer}.in{sl.in_channel}",
                        kind=IN_CHANNEL_ONLY,
                        members=(),
                        in_slices=(sl,),
                        aux=(),
                        family=f"inslice:{sl.layer}",
                        origin=ref,
                    )
                )

    units.sort(key=lambda u: (topo[_anchor(u)], 0 if u.kind == FULL_CHANNEL else 1, _index(u)))
    _check_partition(units)
    return units


def _anchor(unit: PruneUnit) -> str:
    return unit.members[0].layer if unit.members else unit.in_slices[0].layer


def _index(unit: PruneUnit) -> int:
    return unit.members[0].channel if unit.members else unit.in_slices[0].in_channel


def _check_reachability(graph: ModelGraph, consumers: dict[str, list[str]]) -> None:
    reaches_output: set[str] = set()
    stack = [graph.output_node().id]
    while stack:
        nid = stack.pop()
        if nid in reaches_output:
            continue
        reaches_output.add(nid)
        stack.extend(graph.nodes[nid].inputs)
    for node in graph.weighted_layers():
        if node.id not in reaches_output:
            raise PruneKitError(f"unsupported topology: {node.id} has no path to Output")


def _check_partition(units: list[PruneUnit]) -> None:
    seen_members: set[ChannelRef] = set()
    seen_slices: set[InSliceRef] = set()
    for u in units:
        for m in u.members:
            if m in seen_members:
                raise PruneKitError(f"channel {m.layer}.c{m.channel} appears in two units")
            seen_members.add(m)
        for s in u.in_slices:
            if s in seen_slices:
                raise PruneKitError(f"slice {s.layer}.in{s.in_channel} appears in two units")
            seen_slices.add(s)
