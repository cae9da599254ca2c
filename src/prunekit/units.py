"""Prunable-unit extraction.

Partitions the model's removable surface into units:

* plain-chain output channels, each bundled with every downstream kernel slice
  that reads it (through ReLU/BatchNorm/Pool/Flatten pass-throughs);
* residual-coupled channel groups: channels forced to share an index because
  they meet at Add nodes are removed together;
* in-channel-only slices inside densely concatenated blocks, where the
  producing feature map must survive because later layers still read it;
* conv -> Flatten -> Linear column blocks under channel-major flattening.

The final weighted layer feeding Output keeps all its channels (class count is
fixed). Channels of the graph Input are never removable, and neither is a group
that an Add ties to them or to a dense-interior producer.

Units are derived per layer, not per channel. Input and weighted-layer
channels share one global id numbering laid out layer by layer in graph order,
so sorting ids sorts channels by (topo, index); consumer slots and per-channel
vector entries (biases, batch-norm indices) are numbered the same way. One walk
gives every node an integer array of the channel ids feeding each of its
output indices, with one row per origin (an Add stacks its operands' rows).
Each weighted layer's reads then become (channel, slot) id pairs, and each
batch-norm layer's entries (channel, entry) pairs, a whole layer at a time.
Each Add ties whole operand arrays in an array union-find, whose classes are
the residual groups. A group's members, reads and entries are runs of sorted
ids, and a unit's fields are slices of tuples of ref objects, one ref per
(layer, index), made once the inventory is final. Surgery reads the same
channel numbering and origin arrays (``channel_flow``) to find the indices
each node keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

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


class _Numbering:
    """One global numbering of (layer, index) pairs, laid out layer by layer in
    graph order, so sorting ids sorts by (topo, index)."""

    def __init__(self, ref_type, widths: list[tuple[str, int]]):
        self.ref_type = ref_type
        self.width = dict(widths)
        self.offset = dict(zip(self.width, accumulate(self.width.values(), initial=0)))
        self.size = sum(self.width.values())

    def span(self, layer: str) -> slice:
        return slice(self.offset[layer], self.offset[layer] + self.width[layer])

    def ids(self, layer: str) -> np.ndarray:
        return np.arange(self.offset[layer], self.offset[layer] + self.width[layer])

    @cached_property
    def refs(self) -> list:
        """The one ref of each pair, shared by every unit that names it."""
        pairs = chain.from_iterable(zip(repeat(layer), range(width)) for layer, width in self.width.items())
        return list(map(self.ref_type._make, pairs))


def channel_flow(graph: ModelGraph) -> tuple[_Numbering, dict[str, np.ndarray]]:
    """The global numbering of Input and weighted-layer channels, and every
    node's origin array over it (see ``_origin_arrays``). Makes no refs."""
    nodes = map(graph.nodes.__getitem__, graph.order)
    channels = _Numbering(ChannelRef, [(n.id, n.out_channels) for n in nodes if n.kind in ("Input", *WEIGHTED_KINDS)])
    return channels, _origin_arrays(graph, channels)


def _origin_arrays(graph: ModelGraph, channels: _Numbering) -> dict[str, np.ndarray]:
    """For every node, a (k, width) array of the channel ids feeding each output
    index: one row per origin, -1 where an index has fewer than k origins.
    Input and weighted layers are their own origins; Add stacks its operands'
    rows, Concat pads them to one height and joins them side by side.
    Pass-through nodes share their input's array object."""
    arrays: dict[str, np.ndarray] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if nid in channels.offset:
            arrays[nid] = channels.ids(nid)[None, :]
        elif node.kind in ("BatchNorm2d", "ReLU", "Pool", "Output"):
            arrays[nid] = arrays[node.inputs[0]]
        elif node.kind == "Flatten":
            arrays[nid] = np.repeat(arrays[node.inputs[0]], node.in_size * node.in_size, axis=1)
        elif node.kind == "Add":
            arrays[nid] = np.vstack([arrays[i] for i in node.inputs])
        elif node.kind == "Concat":
            ops = [arrays[i] for i in node.inputs]
            height = max(len(op) for op in ops)
            arrays[nid] = np.hstack([np.pad(op, ((0, height - len(op)), (0, 0)), constant_values=-1) for op in ops])
        else:
            raise PruneKitError(f"{nid}: unsupported node kind {node.kind!r}")
    return arrays


def _pairs(origins: list[np.ndarray], targets: list[np.ndarray], n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (origin, target) id pairs sorted by origin, then target; -1
    origins (padding) are dropped."""
    none = np.empty(0, np.int64)
    origin, target = np.concatenate([none, *origins]), np.concatenate([none, *targets])
    key = _sorted_unique(origin * n_targets + target)
    key = key[key >= 0]
    return key // n_targets, key % n_targets


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique for integer ids; a plain sort is many times faster here."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _roots(parent: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The class root of each id in the union-find forest ``parent``."""
    while not np.array_equal(up := parent[ids], ids):
        ids = up
    return ids


def _tie(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union the classes of a[i] and b[i] for every i, linking the larger root
    under the smaller; repeats until every pair shares a root, because two
    pairs may relink the same root in one step."""
    while True:
        ra, rb = _roots(parent, a), _roots(parent, b)
        split = ra != rb
        if not split.any():
            return
        parent[np.maximum(ra, rb)[split]] = np.minimum(ra, rb)[split]


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


def _ranges(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of the run of each wanted key in the sorted ``keys``."""
    return np.searchsorted(keys, wanted), np.searchsorted(keys, wanted, side="right")


def build_prune_units(graph: ModelGraph) -> list[PruneUnit]:
    """Enumerate the model's prunable units. Requires inferred shapes."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before build_prune_units")
    consumers = graph.consumers()
    _check_reachability(graph, consumers)
    weighted = graph.weighted_layers()
    channels, arrays = channel_flow(graph)
    slots = _Numbering(InSliceRef, [(n.id, n.declared_in_width()) for n in weighted])
    nodes = map(graph.nodes.__getitem__, graph.order)
    has_aux = [n for n in nodes if n.kind == "BatchNorm2d" or (n.kind in WEIGHTED_KINDS and "bias" in n.tensors)]
    auxes = _Numbering(AuxRef, [(n.id, n.out_channels) for n in has_aux])

    # every weighted read, as (origin channel, consumer slot) pairs
    origins, targets = [], []
    for node in weighted:
        edge = arrays[node.inputs[0]]
        sel = node.in_select()
        width = edge.shape[1] if sel is None else len(sel)
        if width != node.declared_in_width():
            raise ShapeError(f"{node.id}: input width {node.declared_in_width()} vs edge width {width}")
        cols = edge if sel is None else edge[:, sel]
        origins.append(cols.ravel())
        targets.append(np.tile(slots.ids(node.id), len(cols)))
    reads = _pairs(origins, targets, slots.size)

    # per-channel vector entries: the batch-norm indices a channel feeds, and its own bias
    origins, targets = [], []
    for layer in auxes.offset:
        node = graph.nodes[layer]
        if node.kind == "BatchNorm2d":
            edge = arrays[node.inputs[0]]
            origins.append(edge.ravel())
            targets.append(np.tile(auxes.ids(layer), len(edge)))
        else:
            origins.append(channels.ids(layer))
            targets.append(auxes.ids(layer))
    aux = _pairs(origins, targets, auxes.size)

    # channels meeting at an Add must come and go together; an operand's
    # origins at one index are already tied (by an earlier Add, or it is a
    # single channel), so its first row stands in for all of them
    parent = np.arange(channels.size)
    for nid in graph.order:
        if graph.nodes[nid].kind == "Add":
            first, *rest = (arrays[i][0] for i in graph.nodes[nid].inputs)
            for other in rest:
                _tie(parent, first, other)
    label = _roots(parent, np.arange(len(parent)))

    interior = _dense_interior(graph, consumers)
    dense = np.zeros(channels.size, bool)
    removable = np.zeros(channels.size, bool)
    for node in weighted:
        mask = dense if node.id in interior else removable
        mask[channels.ids(node.id)] = True
    # groups tied to raw input channels, or to a channel that dense-block reads
    # keep alive, are not removable
    removable &= ~np.isin(label, label[channels.ids(graph.input_node().id)])
    removable &= ~np.isin(label, label[dense])

    full = _full_channel_units(channels, slots, auxes, label, removable, reads, aux)
    in_only = _in_channel_only_units(channels, slots, dense, reads)
    # each list is in (topo, index) order; full-channel units of a layer come
    # before the in-channel-only units of its slots
    topo = {nid: i for i, nid in enumerate(graph.order)}
    keys = [2 * topo[u.members[0].layer] for u in full] + [2 * topo[u.in_slices[0].layer] + 1 for u in in_only]
    units = full + in_only
    units = [units[i] for i in sorted(range(len(units)), key=keys.__getitem__)]
    _check_partition(units)
    return units


def _full_channel_units(
    channels: _Numbering,
    slots: _Numbering,
    auxes: _Numbering,
    label: np.ndarray,
    removable: np.ndarray,
    reads: tuple[np.ndarray, np.ndarray],
    aux: tuple[np.ndarray, np.ndarray],
) -> list[PruneUnit]:
    """One unit per residual class (``label``) of removable channels that some
    weighted layer reads, in order of its first member. ``reads`` and ``aux``
    are the sorted (channel, slot) and (channel, entry) id pairs."""
    # a group is named by its first member, and groups are listed in that order
    members = np.flatnonzero(removable)  # ascending id: (topo, index) order
    lead = np.full(channels.size, channels.size)
    np.minimum.at(lead, label[members], members)
    group_of = lead[label]
    members = members[np.argsort(group_of[members], kind="stable")]
    starts = np.flatnonzero(np.diff(group_of[members], prepend=-1))
    ends = np.append(starts[1:], len(members))

    # each group's distinct reads and aux entries, keyed by (group, slot or entry)
    mine = removable[reads[0]]
    read_origin, read_slot = reads[0][mine], reads[1][mine]
    n_slots, n_aux = slots.size, auxes.size
    group_reads = _sorted_unique(group_of[read_origin] * n_slots + read_slot)
    mine = removable[aux[0]]
    group_aux = _sorted_unique(group_of[aux[0][mine]] * n_aux + aux[1][mine])
    read_lo, read_hi = _ranges(group_reads // n_slots, members[starts])
    aux_lo, aux_hi = _ranges(group_aux // n_aux, members[starts])

    # a member's own reads are rows member_lo:member_hi of the read pairs,
    # already in slot order
    member_lo, member_hi = _ranges(read_origin, members)

    # a group that nothing reads is the terminal layer's: its outputs are the model's outputs
    kept = read_hi > read_lo
    starts, ends, read_lo, read_hi, aux_lo, aux_hi = (
        a[kept].tolist() for a in (starts, ends, read_lo, read_hi, aux_lo, aux_hi)
    )

    # every field is a slice of one tuple of shared refs
    member_refs = tuple(map(channels.refs.__getitem__, members.tolist()))
    group_read_refs = tuple(map(slots.refs.__getitem__, (group_reads % n_slots).tolist()))
    group_aux_refs = tuple(map(auxes.refs.__getitem__, (group_aux % n_aux).tolist()))
    member_read_refs = tuple(map(slots.refs.__getitem__, read_slot.tolist()))
    members_of = list(map(member_refs.__getitem__, map(slice, starts, ends)))
    in_slices_of = list(map(group_read_refs.__getitem__, map(slice, read_lo, read_hi)))
    primaries = [refs[0] for refs in members_of]
    families = [f"layer:{m.layer}" for m in primaries]
    per_member = list(zip(in_slices_of))  # a lone member's reads are its group's
    member_lo, member_hi = member_lo.tolist(), member_hi.tolist()
    for g in np.flatnonzero(np.subtract(ends, starts) > 1).tolist():
        families[g] = "group:" + "|".join(sorted({m.layer for m in members_of[g]}))
        per_member[g] = tuple(member_read_refs[member_lo[i] : member_hi[i]] for i in range(starts[g], ends[g]))
    return list(
        map(
            PruneUnit,
            [f"{m.layer}.c{m.channel}" for m in primaries],
            repeat(FULL_CHANNEL),
            members_of,
            in_slices_of,
            map(group_aux_refs.__getitem__, map(slice, aux_lo, aux_hi)),
            families,
            per_member,
        )
    )


def _in_channel_only_units(
    channels: _Numbering, slots: _Numbering, dense: np.ndarray, reads: tuple[np.ndarray, np.ndarray]
) -> list[PruneUnit]:
    """One unit per read of a dense-interior channel, in slot order; that
    channel must be the slot's only origin."""
    shared = np.bincount(reads[1], minlength=slots.size) > 1
    mine = dense[reads[0]]
    origin, slot = reads[0][mine], reads[1][mine]
    if shared[slot].any():
        sl = slots.refs[slot[shared[slot]][0]]
        raise PruneKitError(f"overlapping dense/residual structures: slot {sl.layer}.in{sl.in_channel}")
    order = np.argsort(slot)
    units = []
    for o, s in zip(origin[order].tolist(), slot[order].tolist()):
        sl = slots.refs[s]
        units.append(
            PruneUnit(
                f"{sl.layer}.in{sl.in_channel}",
                IN_CHANNEL_ONLY,
                (),
                (sl,),
                (),
                f"inslice:{sl.layer}",
                origin=channels.refs[o],
            )
        )
    return units


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
    """No channel and no slot belongs to two units."""
    for refs, name in (
        ([m for u in units for m in u.members], "channel {0}.c{1}"),
        ([s for u in units for s in u.in_slices], "slice {0}.in{1}"),
    ):
        if len(set(refs)) < len(refs):
            seen: set = set()
            for ref in refs:
                if ref in seen:
                    raise PruneKitError(name.format(*ref) + " appears in two units")
                seen.add(ref)
