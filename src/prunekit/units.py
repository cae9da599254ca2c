"""Prunable-unit extraction.

Partitions the model's removable surface into units:

* plain-chain output channels, each bundled with every downstream kernel slice
  that reads it (through any one-operand nodes: ReLU, BatchNorm, Pool, Flatten);
* residual-coupled channel groups: channels forced to share an index because
  they meet at Add nodes are removed together;
* in-channel-only slices inside densely concatenated blocks, where the
  producing feature map must survive because later layers still read it;
* conv -> Flatten -> Linear column blocks under channel-major flattening.

The final weighted layer feeding Output keeps all its channels (class count is
fixed). Channels of the graph Input are never removable, and neither is a group
that an Add ties to them or to a dense-interior producer.

Units are derived per layer, not per channel. Channels are numbered as
filters: the weighted layers' output channels laid out layer by layer in graph
order, then the Input's, so sorting weighted-layer ids sorts channels by
(topo, index); consumer slots and per-channel vector entries (biases,
batch-norm indices) are numbered the same way. One walk gives every node an
integer array of the channel ids feeding each of its output indices, with one
row per origin (an Add stacks its operands' rows). One rule turns those arrays
into (channel, slot) read pairs and (channel, entry) vector-entry pairs, a
whole layer at a time. Each Add ties whole operand arrays in an array
union-find, whose classes are the residual groups. One reverse pass over the
graph order finds the layers with no path to Output and the dense-interior
ones, whose reads reach a weighted consumer only through a Concat. Every walk
follows the stored order, which ``graph.validate`` proves topological.

The inventory is one :class:`UnitTable`: every unit's members, reads, entries
and per-member reads are runs of ids in shared arrays, and ``uid`` and
``family`` are lists; a unit is a row of it (:class:`PruneUnit`). Scoring,
pricing, planning and surgery read those arrays, and take only a table made
from the graph they are given; surgery also reads the origin arrays over the
table's filter numbering (``origin_arrays``) to find the indices each node
keeps. Units made by hand enter a table as ``units.json`` entries through
``unit_table``, which reads each member's reads from the graph.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import jsontext
from .errors import PruneKitError, ShapeError
from .graph import WEIGHTED_KINDS, ModelGraph

FULL_CHANNEL = "full_channel"
IN_CHANNEL_ONLY = "in_channel_only"


class PruneUnit(NamedTuple):
    """Row ``row`` of ``table``: one prunable unit. ``uid``, ``kind`` and
    ``family`` (the normalization scope of its weight score) are the table's.
    Rows of one table compare equal when their row numbers do."""

    table: "UnitTable"
    row: int

    uid = property(lambda self: self.table.uid[self.row])
    kind = property(lambda self: IN_CHANNEL_ONLY if self.table.origin[self.row] >= 0 else FULL_CHANNEL)
    family = property(lambda self: self.table.family[self.row])

    def to_json(self) -> dict:
        """The unit's ``units.json`` entry (see :meth:`UnitTable.to_json`)."""
        return json.loads(self.table.take([self.row]).to_json())[0]


class _Numbering:
    """One global numbering of (layer, index) pairs, laid out layer by layer
    in the given order."""

    def __init__(self, widths: list[tuple[str, int]]):
        self.width = dict(widths)
        self.names = list(self.width)
        self.starts = np.fromiter(accumulate(self.width.values(), initial=0), np.int64, len(widths) + 1)
        self.offset = dict(zip(self.names, self.starts.tolist()))
        self.size = int(self.starts[-1])

    def span(self, layer: str) -> slice:
        return slice(self.offset[layer], self.offset[layer] + self.width[layer])

    def ids(self, layer: str) -> np.ndarray:
        return np.arange(self.offset[layer], self.offset[layer] + self.width[layer])

    def locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The layer position (in ``names``) and index of each id."""
        layer = np.searchsorted(self.starts, ids, side="right") - 1
        return layer, ids - self.starts[layer]

    def pair(self, i: int) -> tuple[str, int]:
        """The layer and index of id ``i``."""
        layer, index = self.locate(i)
        return self.names[layer], int(index)

    def ids_of(self, pairs: list) -> np.ndarray:
        """The id of each (layer, index) pair, or -1 where the layer is not
        numbered here or the index is outside its width."""
        code = {name: i for i, name in enumerate(self.names)}
        layer = np.fromiter(map(code.get, map(itemgetter(0), pairs), repeat(-1)), np.int64, len(pairs))
        # an index beyond int64 is outside every width
        index = np.fromiter((i if -(2**63) <= i < 2**63 else -1 for _, i in pairs), np.int64, len(pairs))
        ok = (index >= 0) & (index < np.append(np.diff(self.starts), 0)[layer])  # an unknown layer (-1) has width 0
        return np.where(ok, self.starts[layer] + index, -1)


def _spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices lo[0]:hi[0], lo[1]:hi[1], ... as one array."""
    sizes = hi - lo
    return np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


class Ragged(NamedTuple):
    """Runs of ids: run ``i`` is ``ids[bounds[i]:bounds[i + 1]]``."""

    ids: np.ndarray
    bounds: np.ndarray

    @staticmethod
    def of(ids: np.ndarray, sizes: np.ndarray) -> "Ragged":
        return Ragged(ids, np.concatenate([[0], np.cumsum(sizes)]))

    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def take(self, runs: np.ndarray) -> "Ragged":
        lo, hi = self.bounds[runs], self.bounds[runs + 1]
        return Ragged.of(self.ids[_spans(lo, hi)], hi - lo)


def _numberings(graph: ModelGraph) -> tuple[_Numbering, _Numbering, _Numbering]:
    """The numberings of filters (weighted-layer channels, then the Input's),
    weighted-layer input slots and per-channel vector entries (batch-norm
    indices and biases), each laid out in graph order."""
    weighted = graph.weighted_layers()
    nodes = map(graph.nodes.__getitem__, graph.order)
    has_aux = [n for n in nodes if n.kind == "BatchNorm2d" or (n.kind in WEIGHTED_KINDS and "bias" in n.tensors)]
    return (
        _Numbering([(n.id, n.out_channels) for n in [*weighted, graph.input_node()]]),
        _Numbering([(n.id, n.declared_in_width()) for n in weighted]),
        _Numbering([(n.id, n.out_channels) for n in has_aux]),
    )


class UnitTable:
    """The units of one graph as a table: ``uid`` and ``family`` lists, id
    arrays shared by all rows, and ``kind``, derived from ``origin``.

    ``members`` (filter ids), ``in_slices`` (slot ids) and ``aux`` (entry ids)
    hold one run per unit, numbered by ``filters``, ``slots`` and ``entries``;
    ``member_reads`` holds one run of slot ids per member; ``origin`` is the
    filter id producing an in-channel-only unit's slot, -1 for other units.
    Filter and slot numberings list the weighted layers in graph order (then
    filters the Input), so a layer's position in them is its layer code.
    Iterating or indexing gives :class:`PruneUnit` rows; ``take`` selects rows.
    """

    def __init__(self, graph: weakref.ref, numberings, uid, family, members, in_slices, aux, member_reads, origin):
        self._graph = graph  # a weak reference: a table does not keep its graph alive
        self.filters, self.slots, self.entries = numberings
        self.uid, self.family = uid, family
        self.members, self.in_slices, self.aux = members, in_slices, aux
        self.member_reads, self.origin = member_reads, origin

    kind = property(lambda self: [IN_CHANNEL_ONLY if o >= 0 else FULL_CHANNEL for o in self.origin.tolist()])

    def __len__(self) -> int:
        return len(self.uid)

    def __iter__(self):
        return map(PruneUnit, repeat(self), range(len(self)))

    def __getitem__(self, i: int) -> PruneUnit:
        return PruneUnit(self, range(len(self))[i])

    def take(self, rows) -> "UnitTable":
        """Rows ``rows`` (row numbers, in any order) as a new table."""
        rows = np.asarray(rows, np.int64)
        pick = rows.tolist()
        return UnitTable(
            self._graph,
            (self.filters, self.slots, self.entries),
            list(map(self.uid.__getitem__, pick)),
            list(map(self.family.__getitem__, pick)),
            self.members.take(rows),
            self.in_slices.take(rows),
            self.aux.take(rows),
            self.member_reads.take(_spans(self.members.bounds[rows], self.members.bounds[rows + 1])),
            self.origin[rows],
        )

    def anchors(self) -> tuple[list[str], list[int]]:
        """Layer and index of each unit's first member, or of its first slot
        when it has no member."""
        has = self.members.sizes() > 0
        layer, index = np.empty((2, len(self)), np.int64)
        layer[has], index[has] = self.filters.locate(self.members.ids[self.members.bounds[:-1][has]])
        layer[~has], index[~has] = self.slots.locate(self.in_slices.ids[self.in_slices.bounds[:-1][~has]])
        return list(map(self.filters.names.__getitem__, layer.tolist())), index.tolist()

    def checksum(self) -> str:
        """sha256 of the rows in order: their uids as JSON, then the run
        bounds and ids of ``members``, ``in_slices`` and ``aux`` as
        little-endian int64, the fields that surgery and its report read."""
        digest = hashlib.sha256(json.dumps(self.uid).encode("utf-8"))
        for ragged in (self.members, self.in_slices, self.aux):
            for ids in ragged.bounds, ragged.ids:
                digest.update(np.asarray(ids, "<i8").tobytes())
        return digest.hexdigest()

    def to_json(self) -> str:
        """The unit inventory as ``json.dumps`` with ``indent=2`` of one object
        per unit: uid, kind, members, in_slices and aux as [layer, index]
        pairs, family, and the origin pair of an in-channel-only unit."""
        ind = "\n    "
        columns = {"uid": jsontext.texts(self.uid, ind), "kind": jsontext.texts(self.kind, ind)}
        for field, numbering in (("members", self.filters), ("in_slices", self.slots), ("aux", self.entries)):
            ragged = getattr(self, field)
            layer, index = numbering.locate(ragged.ids)
            bounds = ragged.bounds.tolist()
            columns[field] = jsontext.pair_arrays(numbering.names, layer.tolist(), index.tolist(), bounds, ind)
        columns["family"] = jsontext.texts(self.family, ind)
        origin = [None] * len(self)
        rows = np.flatnonzero(self.origin >= 0)
        layer, index = self.filters.locate(self.origin[rows])
        texts = jsontext.pair_texts(self.filters.names, layer.tolist(), index.tolist(), ind)
        for row, text in zip(rows.tolist(), texts):
            origin[row] = text
        columns["origin"] = origin
        return jsontext.array(jsontext.objects(columns, "\n  "), "\n") + "\n"


def graph_table(graph: ModelGraph, units) -> UnitTable:
    """``units`` itself, when it is a :class:`UnitTable` made from this
    ``graph`` object; PruneKitError otherwise."""
    if isinstance(units, UnitTable) and units._graph() is graph:
        return units
    raise PruneKitError("units must be a unit table built from this graph object (build_prune_units or unit_table)")


def graph_row(graph: ModelGraph, unit) -> UnitTable:
    """``unit``, a row of a table made from this ``graph`` object, as a
    one-row table; PruneKitError otherwise."""
    return graph_table(graph, getattr(unit, "table", None)).take([unit.row])


def unit_table(graph: ModelGraph, entries: list[dict]) -> UnitTable:
    """Units made by hand, given as ``units.json`` entries, as a table over
    ``graph``. Each member reads the slots that the graph feeds from its
    channel, among its unit's in_slices. PruneKitError for an entry of another
    shape, an unknown kind, a missing or misplaced origin (only an
    in-channel-only unit has one), a full-channel unit without members, an
    in-channel-only unit with members or without a slot or with an origin that
    does not feed each of its slots, a pair naming an index its layer does not
    have, and a pair named twice in one entry's members, in_slices or aux."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before unit_table")
    entries = list(entries)
    for e in entries:
        if not (
            isinstance(e, dict)
            and all(type(e.get(key)) is str for key in ("uid", "kind", "family"))
            and all(jsontext.is_pairs(e.get(key)) for key in ("members", "in_slices", "aux"))
        ):
            raise PruneKitError(
                "a unit entry needs a string uid, kind and family, and members, in_slices and aux "
                f"of [layer, index] pairs: {e!r}"
            )
        uid, kind, origin = e["uid"], e["kind"], e.get("origin")
        if kind not in (FULL_CHANNEL, IN_CHANNEL_ONLY):
            raise PruneKitError(f"{uid}: unknown unit kind {kind!r}")
        if (origin is None) != (kind == FULL_CHANNEL) or not (origin is None or jsontext.is_pairs([origin])):
            raise PruneKitError(f"{uid}: an in-channel-only unit, and no other, needs its [layer, index] origin")
    filters, slots, auxes = numberings = _numberings(graph)
    stop = filters.starts[-2]  # the Input's channels come last, and no unit names them
    members = _ids([e["members"] for e in entries], filters, "output channel", stop)
    in_slices = _ids([e["in_slices"] for e in entries], slots, "input slot")
    aux = _ids([e["aux"] for e in entries], auxes, "vector entry")
    full = np.array([e["kind"] == FULL_CHANNEL for e in entries], bool)
    origin = np.full(len(entries), -1)
    origin[~full] = _ids([[e["origin"]] for e in entries if e["kind"] != FULL_CHANNEL], filters, "output channel", stop).ids
    bad = np.flatnonzero(np.where(full, members.sizes() == 0, (members.sizes() > 0) | (in_slices.sizes() == 0)))
    if len(bad):
        raise PruneKitError(
            f"{entries[bad[0]]['uid']}: a full-channel unit needs members, an in-channel-only unit a slot and no members"
        )

    read_origin, read_slot = _reads(graph, origin_arrays(graph, filters), slots)
    run = np.repeat(np.arange(len(entries)), in_slices.sizes())  # each in-slice's unit
    fed = np.isin(origin[run] * slots.size + in_slices.ids, read_origin * slots.size + read_slot)
    if len(stray := np.flatnonzero(~full[run] & ~fed)):  # an in-channel-only unit's slot its origin does not feed
        u, s = run[stray[0]], in_slices.ids[stray[0]]
        where = (*filters.pair(origin[u]), *slots.pair(s))
        raise PruneKitError("{}: origin {}.c{} does not feed slot {}.in{}".format(entries[u]["uid"], *where))

    # a member's reads: the graph's (channel, slot) pairs of its channel whose slot is in its unit's in_slices
    lo, hi = _ranges(read_origin, members.ids)
    member = np.repeat(np.arange(len(members.ids)), hi - lo)
    unit, slot = np.repeat(np.arange(len(entries)), members.sizes())[member], read_slot[_spans(lo, hi)]
    mine = np.isin(unit * slots.size + slot, run * slots.size + in_slices.ids)
    return UnitTable(
        weakref.ref(graph),
        numberings,
        [e["uid"] for e in entries],
        [e["family"] for e in entries],
        members,
        in_slices,
        aux,
        Ragged.of(slot[mine], np.bincount(member[mine], minlength=len(members.ids))),
        origin,
    )


def _ids(groups: list[list], numbering: _Numbering, what: str, stop: int | None = None) -> Ragged:
    """The [layer, index] pairs of each group as one run of ids over
    ``numbering``. Each pair must name a layer of the numbering and an index
    inside its width (an id below ``stop``, if given), and no group may name a
    pair twice; PruneKitError otherwise, naming the index as ``what``."""
    pairs = list(chain.from_iterable(groups))
    ids = numbering.ids_of(pairs)
    if stop is not None:
        ids[ids >= stop] = -1
    if (ids < 0).any():
        layer, index = pairs[int(np.argmax(ids < 0))]
        raise PruneKitError(f"{layer}: unit names {what} {index}, which the layer does not have")
    sizes = np.fromiter(map(len, groups), np.int64, len(groups))
    key = np.repeat(np.arange(len(groups)), sizes) * numbering.size + ids
    order = np.argsort(key, kind="stable")
    again = order[1:][np.diff(key[order]) == 0]  # every naming of a pair after its group's first
    if len(again):
        layer, index = pairs[again.min()]
        raise PruneKitError(f"{layer}: unit names {what} {index} twice")
    return Ragged.of(ids, sizes)


def run_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of ``values`` (run lengths ``sizes``), added
    left to right from zero as Python's ``sum`` adds, so float sums equal a
    per-run loop's to the bit. Adds one column of runs at a time, the longest
    runs first, so the work is one numpy step per position of the longest run."""
    order = np.argsort(-sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[order]
    longest = sizes[order]
    sums = np.zeros(len(sizes), values.dtype)
    # column j adds the j-th value of every run longer than j: a prefix in this order
    for j, active in enumerate(np.searchsorted(-longest, -np.arange(sizes.max(initial=0)), side="left").tolist()):
        sums[:active] += values[starts[:active] + j]
    out = np.empty_like(sums)
    out[order] = sums
    return out


def origin_arrays(graph: ModelGraph, channels: _Numbering) -> dict[str, np.ndarray]:
    """For every node, a (k, width) array of the channel ids (over a table's
    ``filters``) feeding each output index: one row per origin, -1 where an
    index has fewer than k origins.
    Input and weighted layers are their own origins; Add stacks its operands'
    rows, Concat pads them to one height and joins them side by side. Any
    other node repeats its one operand's columns up to its inferred width (a
    Flatten's feature blocks), or shares the operand's array at equal width."""
    arrays: dict[str, np.ndarray] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if nid in channels.offset:
            arrays[nid] = channels.ids(nid)[None, :]
        elif node.kind == "Add":
            arrays[nid] = np.vstack([arrays[i] for i in node.inputs])
        elif node.kind == "Concat":
            ops = [arrays[i] for i in node.inputs]
            height = max(len(op) for op in ops)
            arrays[nid] = np.hstack([np.pad(op, ((0, height - len(op)), (0, 0)), constant_values=-1) for op in ops])
        else:
            edge = arrays[node.inputs[0]]
            spread = node.out_channels // edge.shape[1]
            arrays[nid] = edge if spread == 1 else np.repeat(edge, spread, axis=1)
    return arrays


def _reads(graph: ModelGraph, arrays: dict[str, np.ndarray], slots: _Numbering) -> tuple[np.ndarray, np.ndarray]:
    """Every weighted read, as distinct (origin channel, consumer slot) id
    pairs sorted by channel, then slot (``arrays`` from ``origin_arrays``)."""
    feeds = []
    for node in graph.weighted_layers():
        edge = arrays[node.inputs[0]]
        sel = node.in_select()
        width = edge.shape[1] if sel is None else len(sel)
        if width != node.declared_in_width():
            raise ShapeError(f"{node.id}: input width {node.declared_in_width()} vs edge width {width}")
        feeds.append(edge if sel is None else edge[:, sel])
    return _pairs(feeds, slots)


def _pairs(feeds: list[np.ndarray], numbering: _Numbering) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (origin, target) id pairs sorted by origin, then target, where
    ``feeds[i]`` is the origin array whose columns feed the target ids of
    layer i of ``numbering``; -1 origins (padding) are dropped."""
    none = np.empty(0, np.int64)
    origin = np.concatenate([none, *(feed.ravel() for feed in feeds)])
    target = np.concatenate([none, *(np.tile(numbering.ids(n), len(f)) for n, f in zip(numbering.names, feeds))])
    key = _sorted_unique(origin * numbering.size + target)
    key = key[key >= 0]
    return key // numbering.size, key % numbering.size


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


def _concat_interior(graph: ModelGraph) -> set[str]:
    """Weighted layers whose every path to a weighted consumer crosses a
    Concat, found in one reverse pass over the graph order. PruneKitError for
    the first weighted layer with no path to Output."""
    consumers = graph.consumers()

    def after(flags: dict[str, bool], nid: str) -> bool:
        return any(map(flags.__getitem__, consumers[nid]))

    # per node: it reaches Output; a weighted layer before any Concat; a Concat before any weighted layer
    to_output, to_weighted, to_concat = {}, {}, {}
    for nid in reversed(graph.order):
        kind = graph.nodes[nid].kind
        to_output[nid] = kind == "Output" or after(to_output, nid)
        to_weighted[nid] = kind in WEIGHTED_KINDS or (kind != "Concat" and after(to_weighted, nid))
        to_concat[nid] = kind == "Concat" or (kind not in WEIGHTED_KINDS and after(to_concat, nid))
    weighted = [node.id for node in graph.weighted_layers()]
    if stranded := [nid for nid in weighted if not to_output[nid]]:
        raise PruneKitError(f"unsupported topology: {stranded[0]} has no path to Output")
    return {nid for nid in weighted if not after(to_weighted, nid) and after(to_concat, nid)}


def _ranges(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of the run of each wanted key in the sorted ``keys``."""
    return np.searchsorted(keys, wanted), np.searchsorted(keys, wanted, side="right")


def build_prune_units(graph: ModelGraph) -> UnitTable:
    """Enumerate the model's prunable units, as one table whose rows are in
    (topo, index) order. Requires inferred shapes."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before build_prune_units")
    interior = _concat_interior(graph)
    weighted = graph.weighted_layers()
    filters, slots, auxes = numberings = _numberings(graph)
    arrays = origin_arrays(graph, filters)
    reads = _reads(graph, arrays, slots)

    # per-channel vector entries: the batch-norm indices a channel feeds, and its own bias
    nodes = map(graph.nodes.__getitem__, auxes.names)
    aux = _pairs([arrays[n.inputs[0] if n.kind == "BatchNorm2d" else n.id] for n in nodes], auxes)

    # channels meeting at an Add must come and go together; an operand's
    # origins at one index are already tied (by an earlier Add, or it is a
    # single channel), so its first row stands in for all of them
    parent = np.arange(filters.size)
    for nid in graph.order:
        if graph.nodes[nid].kind == "Add":
            first, *rest = (arrays[i][0] for i in graph.nodes[nid].inputs)
            for other in rest:
                _tie(parent, first, other)
    label = _roots(parent, np.arange(len(parent)))

    dense = np.zeros(filters.size, bool)
    removable = np.zeros(filters.size, bool)
    for node in weighted:
        mask = dense if node.id in interior else removable
        mask[filters.ids(node.id)] = True
    # groups tied to raw input channels, or to a channel that dense-block reads
    # keep alive, are not removable
    removable &= ~np.isin(label, label[filters.ids(graph.input_node().id)])
    removable &= ~np.isin(label, label[dense])

    members, in_slices, unit_aux, member_reads = _full_channel_units(
        filters.size, slots.size, auxes.size, label, removable, reads, aux
    )
    slot, origin = _in_channel_only_units(slots, dense, reads)
    n_full, n_in = len(members.bounds) - 1, len(slot)

    # names: a group by its first member, an in-channel-only unit by its slot
    names = filters.names
    lead, index = filters.locate(members.ids[members.bounds[:-1]])
    uid = list(map("{}.c{}".format, map(names.__getitem__, lead.tolist()), index.tolist()))
    family = ["layer:" + names[i] for i in lead.tolist()]
    member_layer = filters.locate(members.ids)[0].tolist()
    bounds = members.bounds.tolist()
    for g in np.flatnonzero(members.sizes() > 1).tolist():
        family[g] = "group:" + "|".join(sorted({names[i] for i in member_layer[bounds[g] : bounds[g + 1]]}))
    slot_layer, slot_index = slots.locate(slot)
    uid += map("{}.in{}".format, map(names.__getitem__, slot_layer.tolist()), slot_index.tolist())
    family += ["inslice:" + names[i] for i in slot_layer.tolist()]

    # full-channel units of a layer come before the in-channel-only units of its slots
    order = np.argsort(np.concatenate([2 * lead, 2 * slot_layer + 1]), kind="stable")
    nothing = Ragged.of(np.zeros(0, np.int64), np.zeros(n_in, np.int64))
    units = UnitTable(
        weakref.ref(graph),
        numberings,
        uid,
        family,
        _joined(members, nothing),
        _joined(in_slices, Ragged.of(slot, np.ones(n_in, np.int64))),
        _joined(unit_aux, nothing),
        member_reads,
        np.concatenate([np.full(n_full, -1), origin]),
    ).take(order)
    _check_partition(units)
    return units


def _joined(a: Ragged, b: Ragged) -> Ragged:
    """The runs of ``a``, then those of ``b``."""
    return Ragged(np.concatenate([a.ids, b.ids]), np.concatenate([a.bounds, a.bounds[-1] + b.bounds[1:]]))


def _full_channel_units(
    n_channels: int,
    n_slots: int,
    n_aux: int,
    label: np.ndarray,
    removable: np.ndarray,
    reads: tuple[np.ndarray, np.ndarray],
    aux: tuple[np.ndarray, np.ndarray],
) -> tuple[Ragged, Ragged, Ragged, Ragged]:
    """One unit per residual class (``label``) of removable channels that some
    weighted layer reads, in order of its first member: the members, reads
    and aux entries of each unit, and the reads of each member. ``reads`` and
    ``aux`` are the sorted (channel, slot) and (channel, entry) id pairs."""
    # a group is named by its first member, and groups are listed in that order
    members = np.flatnonzero(removable)  # ascending id: (topo, index) order
    lead = np.full(n_channels, n_channels)
    np.minimum.at(lead, label[members], members)
    group_of = lead[label]
    members = members[np.argsort(group_of[members], kind="stable")]
    starts = np.flatnonzero(np.diff(group_of[members], prepend=-1))
    ends = np.append(starts[1:], len(members))

    # each group's distinct reads and aux entries, keyed by (group, slot or entry)
    mine = removable[reads[0]]
    read_origin, read_slot = reads[0][mine], reads[1][mine]
    group_reads = _sorted_unique(group_of[read_origin] * n_slots + read_slot)
    mine = removable[aux[0]]
    group_aux = _sorted_unique(group_of[aux[0][mine]] * n_aux + aux[1][mine])
    read_lo, read_hi = _ranges(group_reads // n_slots, members[starts])
    aux_lo, aux_hi = _ranges(group_aux // n_aux, members[starts])

    # a group that nothing reads is the terminal layer's: its outputs are the model's outputs
    kept = read_hi > read_lo
    starts, ends, read_lo, read_hi, aux_lo, aux_hi = (a[kept] for a in (starts, ends, read_lo, read_hi, aux_lo, aux_hi))
    members = members[_spans(starts, ends)]

    # a member's own reads are rows member_lo:member_hi of the read pairs, already in slot order
    member_lo, member_hi = _ranges(read_origin, members)
    return (
        Ragged.of(members, ends - starts),
        Ragged.of(group_reads[_spans(read_lo, read_hi)] % n_slots, read_hi - read_lo),
        Ragged.of(group_aux[_spans(aux_lo, aux_hi)] % n_aux, aux_hi - aux_lo),
        Ragged.of(read_slot[_spans(member_lo, member_hi)], member_hi - member_lo),
    )


def _in_channel_only_units(
    slots: _Numbering, dense: np.ndarray, reads: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The slot and origin channel of every read of a dense-interior channel,
    in slot order; that channel must be the slot's only origin."""
    shared = np.bincount(reads[1], minlength=slots.size) > 1
    mine = dense[reads[0]]
    origin, slot = reads[0][mine], reads[1][mine]
    if shared[slot].any():
        raise PruneKitError("overlapping dense/residual structures: slot {}.in{}".format(*slots.pair(slot[shared[slot]][0])))
    order = np.argsort(slot)
    return slot[order], origin[order]


def _check_partition(units: UnitTable) -> None:
    """No channel and no slot belongs to two units."""
    for ragged, numbering, name in (
        (units.members, units.filters, "channel {0}.c{1}"),
        (units.in_slices, units.slots, "slice {0}.in{1}"),
    ):
        twice = np.flatnonzero(np.bincount(ragged.ids, minlength=numbering.size) > 1)
        if len(twice):
            raise PruneKitError(name.format(*numbering.pair(twice[0])) + " appears in two units")
