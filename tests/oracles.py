"""Independent oracles for the test suite.

Everything here reimplements a result the library computes, by a deliberately
different route: per-element Python loops instead of vectorized numpy, raw
struct reads of the weight container instead of bound arrays, and brute-force
enumeration instead of greedy selection. Keep this module free of imports from
the code paths it checks (only graph/manifest data structures are shared).
Units are this module's own records (``Unit`` of ``Channel``, ``Slot`` and
``Entry`` refs); ``ref_units`` reads a library unit table into them.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations
from typing import NamedTuple

import numpy as np

FULL_CHANNEL = "full_channel"
IN_CHANNEL_ONLY = "in_channel_only"


class Channel(NamedTuple):
    """One output channel of a weighted layer."""

    layer: str
    channel: int


class Slot(NamedTuple):
    """One input slot of a weighted consumer."""

    layer: str
    in_channel: int


class Entry(NamedTuple):
    """A per-channel vector entry (bias or batch-norm index)."""

    layer: str
    index: int


class Unit(NamedTuple):
    """One unit: its members, in-slices and entries as refs, each member's
    own reads, and the origin channel of an in-channel-only unit."""

    uid: str
    kind: str
    members: tuple
    in_slices: tuple
    aux: tuple
    family: str
    member_slices: tuple = ()
    origin: Channel | None = None


def _refs(numbering, ids, record) -> list:
    """The ``record`` of each id of a library numbering (its public
    ``locate`` and ``names``)."""
    layer, index = numbering.locate(np.asarray(ids, np.int64))
    return [record(numbering.names[l], i) for l, i in zip(layer.tolist(), index.tolist())]


def ref_units(table) -> list[Unit]:
    """The rows of a library unit table as ``Unit`` records, read from its
    public id arrays (``members``, ``in_slices``, ``aux``, ``member_reads``,
    ``origin``) and numberings."""

    def runs(refs, bounds):
        b = bounds.tolist()
        return [tuple(refs[lo:hi]) for lo, hi in zip(b, b[1:])]

    members = runs(_refs(table.filters, table.members.ids, Channel), table.members.bounds)
    reads = runs(_refs(table.slots, table.member_reads.ids, Slot), table.member_reads.bounds)
    origins = iter(_refs(table.filters, table.origin[table.origin >= 0], Channel))
    return [
        Unit(uid, kind, m, s, a, family, tuple(reads[lo:hi]), next(origins) if o >= 0 else None)
        for uid, kind, m, s, a, family, lo, hi, o in zip(
            table.uid,
            table.kind,
            members,
            runs(_refs(table.slots, table.in_slices.ids, Slot), table.in_slices.bounds),
            runs(_refs(table.entries, table.aux.ids, Entry), table.aux.bounds),
            table.family,
            table.members.bounds.tolist(),
            table.members.bounds[1:].tolist(),
            table.origin.tolist(),
        )
    ]


def unit_entry(unit: Unit) -> dict:
    """The ``units.json`` entry of a ``Unit`` record."""
    entry = {
        "uid": unit.uid,
        "kind": unit.kind,
        "members": [list(m) for m in unit.members],
        "in_slices": [list(s) for s in unit.in_slices],
        "aux": [list(a) for a in unit.aux],
        "family": unit.family,
    }
    if unit.origin is not None:
        entry["origin"] = list(unit.origin)
    return entry


# ---------------------------------------------------------------------------
# forward evaluation by explicit per-element loops, with an operation counter


def loop_forward(graph, x, count_ops: bool = False):
    """Evaluate with nested scalar loops. Returns output, or (output, flops)
    when count_ops: one op per kernel tap, two per batch-norm element, one per
    ReLU element; pooling, Add and Concat are free."""
    values = {}
    ops = 0
    x = np.asarray(x, dtype=np.float64)
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            values[nid] = x
            continue
        a = values[node.inputs[0]]
        if node.kind == "Conv2d":
            w = node.weight()
            sel = node.in_select()
            src = a if sel is None else a[list(sel)]
            n, m, k, _ = w.shape
            stride = int(node.attrs.get("stride", 1))
            pad = int(node.attrs.get("padding", 0))
            size = src.shape[1] + 2 * pad
            padded = np.zeros((m, size, size))
            padded[:, pad : pad + src.shape[1], pad : pad + src.shape[2]] = src
            o = (size - k) // stride + 1
            out = np.zeros((n, o, o))
            bias = node.tensors.get("bias")
            for f in range(n):
                for oy in range(o):
                    for ox in range(o):
                        acc = 0.0
                        for c in range(m):
                            for ky in range(k):
                                for kx in range(k):
                                    acc += float(w[f, c, ky, kx]) * float(
                                        padded[c, oy * stride + ky, ox * stride + kx]
                                    )
                                    ops += 1
                        if bias is not None:
                            acc += float(bias[f])
                        out[f, oy, ox] = acc
            values[nid] = out
        elif node.kind == "Linear":
            w = node.weight()
            sel = node.in_select()
            src = a if sel is None else a[list(sel)]
            n, m = w.shape
            bias = node.tensors.get("bias")
            out = np.zeros(n)
            for f in range(n):
                acc = 0.0
                for c in range(m):
                    acc += float(w[f, c]) * float(src[c])
                    ops += 1
                if bias is not None:
                    acc += float(bias[f])
                out[f] = acc
            values[nid] = out
        elif node.kind == "BatchNorm2d":
            g = node.tensors["gamma"]
            b = node.tensors["beta"]
            mu = node.tensors["running_mean"]
            var = node.tensors["running_var"]
            eps = float(node.attrs.get("epsilon", 1e-5))
            out = np.zeros_like(a)
            c, h, wd = a.shape
            for ch in range(c):
                scale = float(g[ch]) / math.sqrt(float(var[ch]) + eps)
                shift = float(b[ch]) - float(mu[ch]) * scale
                for i in range(h):
                    for j in range(wd):
                        out[ch, i, j] = a[ch, i, j] * scale + shift
                        ops += 2
            values[nid] = out
        elif node.kind == "ReLU":
            out = np.zeros_like(a)
            flat_in = a.reshape(-1)
            flat_out = out.reshape(-1)
            for i in range(flat_in.shape[0]):
                flat_out[i] = flat_in[i] if flat_in[i] > 0 else 0.0
                ops += 1
            values[nid] = out
        elif node.kind == "Pool":
            mode = node.attrs["pool"]
            if mode == "global-avg":
                c = a.shape[0]
                out = np.zeros((c, 1, 1))
                for ch in range(c):
                    out[ch, 0, 0] = float(a[ch].sum()) / (a.shape[1] * a.shape[2])
            else:
                k = int(node.attrs["kernel"])
                stride = int(node.attrs["stride"])
                c, size, _ = a.shape
                o = (size - k) // stride + 1
                out = np.zeros((c, o, o))
                for ch in range(c):
                    for oy in range(o):
                        for ox in range(o):
                            window = a[ch, oy * stride : oy * stride + k, ox * stride : ox * stride + k]
                            out[ch, oy, ox] = float(window.max()) if mode == "max" else float(window.mean())
            values[nid] = out
        elif node.kind == "Flatten":
            values[nid] = a.reshape(-1)
        elif node.kind == "Add":
            out = values[node.inputs[0]].copy()
            for other in node.inputs[1:]:
                out = out + values[other]
            values[nid] = out
        elif node.kind == "Concat":
            values[nid] = np.concatenate([values[i] for i in node.inputs], axis=0)
        elif node.kind == "Output":
            values[nid] = a
    result = values[next(n.id for n in graph.nodes.values() if n.kind == "Output")]
    return (result, ops) if count_ops else result


# ---------------------------------------------------------------------------
# raw-container score oracle: walks bytes by manifest offsets


def _read_f32(container: bytes, offset: int) -> float:
    return struct.unpack_from("<f", container, offset)[0]


def container_row_l1(manifest: dict, container: bytes, layer: str, channel: int) -> float:
    """Sum |w| over one output channel's filter, reading raw bytes."""
    entry = next(n for n in manifest["nodes"] if n["id"] == layer)
    meta = entry["tensors"]["weight"]
    shape = meta["shape"]
    row = 1
    for d in shape[1:]:
        row *= d
    base = meta["offset"] + channel * row * 4
    return math.fsum(abs(_read_f32(container, base + 4 * i)) for i in range(row))


def container_slice_l1(manifest: dict, container: bytes, layer: str, slot: int) -> float:
    """Sum |w| over one input slot across all of a consumer's filters."""
    entry = next(n for n in manifest["nodes"] if n["id"] == layer)
    meta = entry["tensors"]["weight"]
    shape = meta["shape"]
    off = meta["offset"]
    n = shape[0]
    m = shape[1]
    tap = 1
    for d in shape[2:]:
        tap *= d
    total = 0.0
    for f in range(n):
        base = off + ((f * m + slot) * tap) * 4
        total += math.fsum(abs(_read_f32(container, base + 4 * t)) for t in range(tap))
    return total


def container_unit_l1(manifest: dict, container: bytes, unit, use_in_channel: bool) -> float:
    """Raw dependency score recomputed from container bytes."""
    if unit.members:
        member_scores = []
        for member, slices in zip(unit.members, unit.member_slices):
            s = container_row_l1(manifest, container, member.layer, member.channel)
            if use_in_channel:
                s += math.fsum(container_slice_l1(manifest, container, sl.layer, sl.in_channel) for sl in slices)
            member_scores.append(s)
        return math.fsum(member_scores) / len(member_scores)
    s = container_row_l1(manifest, container, unit.origin.layer, unit.origin.channel)
    if use_in_channel:
        s += math.fsum(container_slice_l1(manifest, container, sl.layer, sl.in_channel) for sl in unit.in_slices)
    return s


def loop_raw_score(graph, unit, use_in_channel: bool) -> float:
    """Raw dependency score by a per-reference loop: every filter and slice
    summed on its own with np.abs(...).sum(dtype=np.float64), added in the
    unit's member/slice order with Python's sum, and a group's members
    averaged. This is the route scoring took before it worked on id arrays;
    score_all must reproduce its floats exactly."""

    def l1(layer, axis, i):
        return float(np.abs(np.swapaxes(graph.nodes[layer].weight(), 0, axis)[i]).sum(dtype=np.float64))

    anchors = zip(unit.members, unit.member_slices) if unit.members else [(unit.origin, unit.in_slices)]
    scores = []
    for m, slices in anchors:
        score = l1(m.layer, 0, m.channel)
        if use_in_channel:
            score += sum(l1(s.layer, 1, s.in_channel) for s in slices)
        scores.append(score)
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# cost oracles from the manifest alone


def manifest_spatial_sizes(manifest: dict) -> dict[str, int]:
    """Input spatial size per node, walked directly off manifest attrs."""
    sizes: dict[str, int] = {}
    out: dict[str, int] = {}
    for entry in manifest["nodes"]:
        nid, kind, attrs = entry["id"], entry["kind"], entry["attrs"]
        if kind == "Input":
            sizes[nid] = out[nid] = manifest["input"]["size"]
            continue
        s = out[entry["inputs"][0]]
        sizes[nid] = s
        if kind == "Conv2d":
            o = (s + 2 * attrs.get("padding", 0) - attrs["kernel"]) // attrs.get("stride", 1) + 1
        elif kind == "Pool":
            o = 1 if attrs["pool"] == "global-avg" else (s - attrs["kernel"]) // attrs["stride"] + 1
        elif kind in ("Linear", "Flatten"):
            o = 1
        else:
            o = s
        out[nid] = o
    return sizes


def manifest_costs_of_units(manifest: dict, units, convention: str) -> list[tuple[int, int]]:
    """(P, F) for each unit, recomputed from manifest attributes one ref at a
    time; the manifest's spatial sizes are worked out once for the list."""
    sizes = manifest_spatial_sizes(manifest)
    attrs = {n["id"]: (n["kind"], n["attrs"]) for n in manifest["nodes"]}

    def layer_terms(layer: str, width_key: str) -> tuple[int, int]:
        kind, a = attrs[layer]
        if kind == "Conv2d":
            k = a["kernel"]
            width = a["in_channels"] if width_key == "in" else a["out_channels"]
            i = sizes[layer]
        else:
            k = 1
            width = a["in_features"] if width_key == "in" else a["out_features"]
            i = 1
        return k * k * width, i * i * k * k * width

    costs = []
    for unit in units:
        p_total, f_total = 0, 0
        for m in unit.members:
            p, f = layer_terms(m.layer, "in")
            p_total += p
            f_total += f
        for s in unit.in_slices:
            p, f = layer_terms(s.layer, "out")
            p_total += p
            f_total += f
        costs.append((p_total, f_total * (2 if convention == "2macs" else 1)))
    return costs


def manifest_param_count(manifest: dict, count_aux: bool = True) -> int:
    total = 0
    for entry in manifest["nodes"]:
        kind = entry["kind"]
        if kind in ("Conv2d", "Linear"):
            shape = entry["tensors"]["weight"]["shape"]
            n = 1
            for d in shape:
                n *= d
            total += n
            if count_aux and "bias" in entry["tensors"]:
                total += entry["tensors"]["bias"]["shape"][0]
        elif kind == "BatchNorm2d" and count_aux:
            total += entry["tensors"]["gamma"]["shape"][0] + entry["tensors"]["beta"]["shape"][0]
    return total


# ---------------------------------------------------------------------------
# normalization oracles


def oracle_weight_norm(scores: list[float], mode: str) -> list[float]:
    lmax, lmin = max(scores), min(scores)
    if mode == "max-min":
        if lmax == lmin:
            return [0.5 for _ in scores]
        return [(s - lmin) / (lmax - lmin) for s in scores]
    if mode == "max":
        return [s / lmax for s in scores]
    return [math.log(1.0 + s) / math.log(1.0 + lmax) for s in scores]


def oracle_cost_norm(p: int, f: int, pmax: int, fmax: int, alpha: float, beta: float) -> tuple[float, float]:
    return (
        alpha * (1.0 - math.log(p) / math.log(pmax)),
        beta * (1.0 - math.log(f) / math.log(fmax)),
    )


# ---------------------------------------------------------------------------
# ranking and selection oracles


def naive_rank(entries: list[tuple[float, int, int, str]]) -> list[str]:
    """Selection sort by (importance asc, flops desc, params desc, uid asc)."""
    remaining = list(entries)
    ordered = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if _rank_less(cand, best):
                best = cand
        ordered.append(best[3])
        remaining.remove(best)
    return ordered


def _rank_less(a, b) -> bool:
    if a[0] != b[0]:
        return a[0] < b[0]
    if a[1] != b[1]:
        return a[1] > b[1]
    if a[2] != b[2]:
        return a[2] > b[2]
    return a[3] < b[3]


def chain_flops(layers: list[dict], widths: dict[str, int]) -> int:
    """Conv/linear term sum for a plain chain, given surviving widths."""
    total = 0
    prev_width = layers[0]["in_width"]
    for layer in layers:
        w = widths[layer["id"]]
        total += layer["out_size"] ** 2 * layer["kernel"] ** 2 * prev_width * w
        prev_width = w
    return total


def exhaustive_prefix_plan(
    units: list[dict],
    layers: list[dict],
    budget: float,
    floor: int,
) -> list[str] | None:
    """Reference selection for plain chains.

    units: ranked dicts {uid, layer, imp}; layers: chain descriptors with
    baseline widths. Builds the family of removal sets closed under the
    ascending-prefix rule (walking ranked units, skipping floor violations),
    filters the budget-meeting ones by exhaustive subset enumeration, and
    returns the one with minimal removed-importance sum. None if infeasible.
    """
    base_widths = {l["id"]: l["width"] for l in layers}

    # the closed family is the chain of greedy acceptance prefixes
    chain: list[list[str]] = [[]]
    widths = dict(base_widths)
    acc: list[str] = []
    for u in units:
        if widths[u["layer"]] - 1 < floor:
            continue
        widths[u["layer"]] -= 1
        acc = acc + [u["uid"]]
        chain.append(acc)

    imp = {u["uid"]: u["imp"] for u in units}
    layer_of = {u["uid"]: u["layer"] for u in units}
    feasible = []
    n = len(chain) - 1
    for k in range(len(chain)):
        s = chain[k]
        widths = dict(base_widths)
        for uid in s:
            widths[layer_of[uid]] -= 1
        if chain_flops(layers, widths) <= budget:
            feasible.append((math.fsum(imp[u] for u in s), k, s))
    if not feasible:
        return None
    feasible.sort(key=lambda t: (t[0], t[1]))
    return feasible[0][2]


def enumerate_all_subsets_check(
    units: list[dict], layers: list[dict], budget: float, floor: int, best: list[str]
) -> bool:
    """Verify by full enumeration that no floor-respecting, budget-meeting,
    prefix-closed subset beats the chosen one on removed-importance sum."""
    base_widths = {l["id"]: l["width"] for l in layers}
    layer_of = {u["uid"]: u["layer"] for u in units}
    imp = {u["uid"]: u["imp"] for u in units}
    best_sum = math.fsum(imp[u] for u in best)

    # rebuild the closed family for membership testing
    closed: set[frozenset[str]] = set()
    widths = dict(base_widths)
    acc: list[str] = []
    closed.add(frozenset())
    for u in units:
        if widths[u["layer"]] - 1 < floor:
            continue
        widths[u["layer"]] -= 1
        acc = acc + [u["uid"]]
        closed.add(frozenset(acc))

    all_ids = [u["uid"] for u in units]
    for r in range(len(all_ids) + 1):
        for combo in combinations(all_ids, r):
            s = frozenset(combo)
            if s not in closed:
                continue
            widths = dict(base_widths)
            ok = True
            for uid in s:
                widths[layer_of[uid]] -= 1
                if widths[layer_of[uid]] < floor:
                    ok = False
                    break
            if not ok:
                continue
            if chain_flops(layers, widths) <= budget:
                if math.fsum(imp[u] for u in s) < best_sum - 1e-12:
                    return False
    return True


def greedy_plan(records, graph, config):
    """Reference planner: walk the ranking of the score table ``records``
    row by row with Python's sort, skip a unit when one of its members
    would take its layer below the floor or its slices would take a layer's
    last input slot (per-reference Counter checks), and count the whole model
    with effective_model_costs after every mark. Returns (removed unit ids,
    params, flops, plan JSON), the JSON None when the budget is unreachable.
    It shares the full count (which tests check against loop_forward's op
    count and manifest_param_count), the plan format and
    ``UnitTable.checksum`` with the library, not its running arithmetic or
    its rows."""
    from collections import Counter

    from prunekit.costs import effective_model_costs
    from prunekit.graph import graph_checksum
    from prunekit.planner import PruningPlan

    units = ref_units(records.units)

    def count(out, slots):
        return effective_model_costs(
            graph, out, slots, convention=config.flops_convention, count_aux_params=config.count_aux_params
        )

    base_params, base_flops = count({}, {})
    out_width = {n.id: n.declared_out_width() for n in graph.weighted_layers()}
    in_width = {n.id: n.declared_in_width() for n in graph.weighted_layers()}
    removed_out, removed_slots = Counter(), Counter()
    taken, params, flops, met = [], base_params, base_flops, False
    for rec in sorted(records, key=lambda r: (r.importance, -r.flops, -r.params, r.unit_id)):
        unit = units[rec.unit_row]
        members = [m.layer for m in unit.members]
        slots = Counter(s.layer for s in unit.in_slices)
        if any(out_width[m] - removed_out[m] - 1 < config.min_channels_per_layer for m in members):
            continue
        if any(in_width[layer] - removed_slots[layer] - hits < 1 for layer, hits in slots.items()):
            continue
        removed_out.update(members)
        removed_slots.update(slots)
        taken.append(rec)
        params, flops = count(dict(removed_out), dict(removed_slots))
        if flops <= (1 - config.flop_target_ratio) * base_flops and (
            config.param_target_ratio is None or params <= (1 - config.param_target_ratio) * base_params
        ):
            met = True
            break
    ids = [r.unit_id for r in taken]
    if not met:
        return ids, params, flops, None
    plan = PruningPlan(
        threshold=taken[-1].importance,
        baseline_params=base_params,
        baseline_flops=base_flops,
        predicted_params=params,
        predicted_flops=flops,
        prr=1.0 - params / base_params,
        frr=1.0 - flops / base_flops,
        layer_widths_before=out_width,
        layer_widths_after={layer: width - removed_out[layer] for layer, width in out_width.items()},
        model_checksum=graph_checksum(graph),
        # the library's digest of the taken rows; TestChecksum pins what it covers
        units_checksum=records.units.take([r.unit_row for r in taken]).checksum(),
        config=config,
        removed_unit_ids=tuple(ids),
        removed_imps=tuple(r.importance for r in taken),
    )
    return ids, params, flops, plan.to_json()


# ---------------------------------------------------------------------------
# per-channel unit builder: one origin set per output index, one union-find
# step per tied channel, one Python object per read. This is the builder the
# library used before it worked per layer; it is kept as the reference that
# build_prune_units must reproduce field for field.

_WEIGHTED = ("Conv2d", "Linear")
_PASS_THROUGH = ("BatchNorm2d", "ReLU", "Pool", "Flatten")


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


def origin_maps(graph) -> dict:
    """For every node, map each output index to the frozenset of weighted (or
    Input) channels feeding it, as ``Channel`` records."""
    maps: dict = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            maps[nid] = [frozenset({Channel(nid, c)}) for c in range(graph.input_channels)]
        elif node.kind in _WEIGHTED:
            maps[nid] = [frozenset({Channel(nid, c)}) for c in range(node.declared_out_width())]
        elif node.kind in ("BatchNorm2d", "ReLU", "Pool", "Output"):
            maps[nid] = maps[node.inputs[0]]
        elif node.kind == "Flatten":
            block = node.in_size * node.in_size
            maps[nid] = [origins for origins in maps[node.inputs[0]] for _ in range(block)]
        elif node.kind == "Add":
            ops = [maps[i] for i in node.inputs]
            maps[nid] = [frozenset().union(*(op[i] for op in ops)) for i in range(len(ops[0]))]
        elif node.kind == "Concat":
            maps[nid] = [origins for i in node.inputs for origins in maps[i]]
        else:
            raise ValueError(f"{nid}: unsupported node kind {node.kind!r}")
    return maps


def _dense_interior(graph, consumers: dict) -> set:
    interior = set()
    for node in graph.weighted_layers():
        frontier = list(consumers[node.id])
        seen: set = set()
        direct = via_concat = False
        while frontier:
            nid = frontier.pop()
            if nid in seen:
                continue
            seen.add(nid)
            kind = graph.nodes[nid].kind
            if kind in _WEIGHTED:
                direct = True
                break
            if kind == "Concat":
                via_concat = True
                continue
            if kind in _PASS_THROUGH or kind == "Add":
                frontier.extend(consumers[nid])
        if not direct and via_concat:
            interior.add(node.id)
    return interior


def per_channel_units(graph) -> list[Unit]:
    """Prune units of an inferred graph, built channel by channel."""
    consumers = graph.consumers()
    maps = origin_maps(graph)
    input_id = graph.input_node().id
    topo = {nid: i for i, nid in enumerate(graph.order)}

    slice_of: dict = {}
    slot_origins: dict = {}
    for node in graph.weighted_layers():
        edge_map = maps[node.inputs[0]]
        sel = node.in_select()
        if sel is None:
            sel = list(range(len(edge_map)))
        assert len(sel) == node.declared_in_width()
        for slot, edge_idx in enumerate(sel):
            ref = Slot(node.id, slot)
            slot_origins[ref] = edge_map[edge_idx]
            for origin in edge_map[edge_idx]:
                slice_of.setdefault(origin, []).append(ref)

    uf = _UnionFind()
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Add":
            ops = [maps[i] for i in node.inputs]
            for idx in range(len(ops[0])):
                every = [origin for op in ops for origin in op[idx]]
                for other in every[1:]:
                    uf.union(every[0], other)

    interior = _dense_interior(graph, consumers)
    tainted = {uf.find(Channel(input_id, c)) for c in range(graph.input_channels)}
    tainted |= {uf.find(Channel(p, c)) for p in interior for c in range(graph.nodes[p].declared_out_width())}
    groups: dict = {}
    for node in graph.weighted_layers():
        if node.id in interior:
            continue
        for c in range(node.declared_out_width()):
            ref = Channel(node.id, c)
            root = uf.find(ref)
            if root not in tainted:
                groups.setdefault(root, []).append(ref)

    bn_slots: dict = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "BatchNorm2d":
            for j, origins in enumerate(maps[node.inputs[0]]):
                for origin in origins:
                    bn_slots.setdefault(origin, []).append(Entry(nid, j))

    slice_key = lambda s: (topo[s.layer], s.in_channel)
    units = []
    for members in groups.values():
        members = sorted(members, key=lambda m: (topo[m.layer], m.channel))
        per_member = tuple(tuple(sorted(slice_of.get(m, ()), key=slice_key)) for m in members)
        all_slices = sorted({s for group in per_member for s in group}, key=slice_key)
        if not all_slices:
            continue
        aux = set()
        for m in members:
            aux.update(bn_slots.get(m, []))
            if "bias" in graph.nodes[m.layer].tensors:
                aux.add(Entry(m.layer, m.channel))
        primary = members[0]
        family = (
            f"layer:{primary.layer}"
            if len(members) == 1
            else "group:" + "|".join(sorted({m.layer for m in members}))
        )
        units.append(
            Unit(
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
        for c in range(graph.nodes[producer].declared_out_width()):
            ref = Channel(producer, c)
            for sl in slice_of.get(ref, []):
                assert len(slot_origins[sl]) == 1
                units.append(
                    Unit(
                        uid=f"{sl.layer}.in{sl.in_channel}",
                        kind=IN_CHANNEL_ONLY,
                        members=(),
                        in_slices=(sl,),
                        aux=(),
                        family=f"inslice:{sl.layer}",
                        origin=ref,
                    )
                )

    def sort_key(u):
        if u.members:
            return (topo[u.members[0].layer], 0, u.members[0].channel)
        return (topo[u.in_slices[0].layer], 1, u.in_slices[0].in_channel)

    units.sort(key=sort_key)
    return units
