"""Serialized CNN model representation.

A model is a topologically ordered DAG of layer nodes plus a flat weight
container (raw little-endian float32, no header). The manifest is UTF-8 JSON
carrying node attributes and per-tensor (offset, shape) entries into the
container. Only square kernels and square feature maps are supported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphValidationError, ManifestError, ShapeError

MANIFEST_VERSION = 1

NODE_KINDS = (
    "Input",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "Pool",
    "Flatten",
    "Add",
    "Concat",
    "Output",
)
# Width attribute names (input, output) of each weighted kind. A Linear layer
# is a 1x1 convolution at spatial size 1, so the kinds differ only in these
# names, in Conv2d's kernel/stride/padding (a Linear weight has no kernel axes)
# and in Linear's input, which must have spatial size 1.
_WIDTH_ATTRS = {"Conv2d": ("in_channels", "out_channels"), "Linear": ("in_features", "out_features")}
WEIGHTED_KINDS = tuple(_WIDTH_ATTRS)
POOL_MODES = ("max", "avg", "global-avg")

# Fixed serialization order of tensor roles within a node.
TENSOR_ROLES = ("weight", "bias", "gamma", "beta", "running_mean", "running_var")

_BN_ROLES = ("gamma", "beta", "running_mean", "running_var")
_NAN = np.float32(np.nan)  # every structure-only tensor is this one value, broadcast


@dataclass
class LayerNode:
    """One node of the model graph.

    Kind-specific attributes live in ``attrs``; ``tensors`` maps each tensor
    role to a float32 ``np.ndarray`` (on a loaded model, a writable array of
    its own, read from the container).
    ``in_size`` / ``out_size`` / ``out_channels`` are annotations filled in by
    :func:`infer_shapes` (-1 until then). For Flatten nodes ``in_size`` records
    the spatial side length being flattened, which downstream consumers need to
    map channels onto flattened feature blocks.
    """

    id: str
    kind: str
    inputs: list[str]
    attrs: dict = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    in_size: int = -1
    out_size: int = -1
    out_channels: int = -1

    def weight(self) -> np.ndarray:
        return self.tensors["weight"]

    def declared_in_width(self) -> int:
        """Input width of a weighted node (length of in_select when present)."""
        if self.kind not in _WIDTH_ATTRS:
            raise ValueError(f"node {self.id} has no input width")
        return int(self.attrs[_WIDTH_ATTRS[self.kind][0]])

    def declared_out_width(self) -> int:
        if self.kind == "BatchNorm2d":
            return int(self.attrs["channels"])
        if self.kind not in _WIDTH_ATTRS:
            raise ValueError(f"node {self.id} has no declared width")
        return int(self.attrs[_WIDTH_ATTRS[self.kind][1]])

    def kernel(self) -> int:
        if self.kind not in _WIDTH_ATTRS:
            raise ValueError(f"node {self.id} has no kernel")
        return int(self.attrs["kernel"]) if self.kind == "Conv2d" else 1

    def in_select(self) -> list[int] | None:
        sel = self.attrs.get("in_select")
        return list(sel) if sel is not None else None


@dataclass
class ModelGraph:
    """Immutable-by-convention snapshot of a model.

    Mutation happens by constructing a new graph (see surgeon); readers may
    share a graph freely.
    """

    nodes: dict[str, LayerNode]
    order: list[str]
    input_channels: int
    input_size: int
    inferred: bool = False

    def input_node(self) -> LayerNode:
        return next(n for n in self.nodes.values() if n.kind == "Input")

    def output_node(self) -> LayerNode:
        return next(n for n in self.nodes.values() if n.kind == "Output")

    def weighted_layers(self) -> list[LayerNode]:
        return [self.nodes[i] for i in self.order if self.nodes[i].kind in WEIGHTED_KINDS]

    def consumers(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {nid: [] for nid in self.order}
        for nid in self.order:
            for src in self.nodes[nid].inputs:
                out[src].append(nid)
        return out

    def total_channels(self) -> int:
        """Total output channels across all weighted layers."""
        return sum(n.declared_out_width() for n in self.weighted_layers())


class GraphBuilder:
    """Convenience constructor used by fixtures and tests."""

    def __init__(self, input_channels: int, input_size: int):
        self._nodes: dict[str, LayerNode] = {"input": LayerNode(id="input", kind="Input", inputs=[])}
        self._order: list[str] = ["input"]
        self._input_channels = input_channels
        self._input_size = input_size

    def add(
        self,
        nid: str,
        kind: str,
        inputs: list[str] | str,
        attrs: dict | None = None,
        **tensors: np.ndarray,
    ) -> str:
        if nid in self._nodes:
            raise ValueError(f"duplicate node id {nid!r}")
        if isinstance(inputs, str):
            inputs = [inputs]
        node = LayerNode(id=nid, kind=kind, inputs=list(inputs), attrs=dict(attrs or {}))
        for role, arr in tensors.items():
            if arr is not None:
                node.tensors[role] = np.ascontiguousarray(arr, dtype=np.float32)
        self._nodes[nid] = node
        self._order.append(nid)
        return nid

    def conv(
        self,
        nid: str,
        src: str,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        stride: int = 1,
        padding: int = 0,
        in_select: list[int] | None = None,
    ) -> str:
        n, m, k, k2 = weight.shape
        if k != k2:
            raise ValueError("only square kernels are supported")
        attrs = {"in_channels": m, "out_channels": n, "kernel": k, "stride": stride, "padding": padding}
        if in_select is not None:
            attrs["in_select"] = list(in_select)
        return self.add(nid, "Conv2d", src, attrs, weight=weight, bias=bias)

    def linear(
        self,
        nid: str,
        src: str,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        in_select: list[int] | None = None,
    ) -> str:
        n, m = weight.shape
        attrs = {"in_features": m, "out_features": n}
        if in_select is not None:
            attrs["in_select"] = list(in_select)
        return self.add(nid, "Linear", src, attrs, weight=weight, bias=bias)

    def batchnorm(
        self,
        nid: str,
        src: str,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        epsilon: float = 1e-5,
    ) -> str:
        attrs = {"channels": int(gamma.shape[0]), "epsilon": epsilon}
        return self.add(
            nid,
            "BatchNorm2d",
            src,
            attrs,
            gamma=gamma,
            beta=beta,
            running_mean=running_mean,
            running_var=running_var,
        )

    def relu(self, nid: str, src: str) -> str:
        return self.add(nid, "ReLU", src)

    def pool(self, nid: str, src: str, mode: str, kernel: int = 0, stride: int = 0) -> str:
        attrs: dict = {"pool": mode}
        if mode != "global-avg":
            attrs["kernel"] = kernel
            attrs["stride"] = stride if stride else kernel
        return self.add(nid, "Pool", src, attrs)

    def flatten(self, nid: str, src: str) -> str:
        return self.add(nid, "Flatten", src)

    def addnode(self, nid: str, srcs: list[str]) -> str:
        return self.add(nid, "Add", srcs)

    def concat(self, nid: str, srcs: list[str]) -> str:
        return self.add(nid, "Concat", srcs)

    def output(self, src: str, nid: str = "output") -> "ModelGraph":
        self.add(nid, "Output", src)
        return self.build()

    def build(self) -> "ModelGraph":
        return ModelGraph(
            nodes=self._nodes,
            order=self._order,
            input_channels=self._input_channels,
            input_size=self._input_size,
        )


# ---------------------------------------------------------------------------
# validation


def _is_int(x) -> bool:
    """An int but not a bool: JSON ``true``/``false`` would index as masks."""
    return isinstance(x, int) and not isinstance(x, bool)


def validate(graph: ModelGraph) -> list[str]:
    """Check structural invariants; returns a list of violations (empty = ok).
    The stored order must list every node once and put each after its inputs,
    which proves the graph acyclic, so every later walk may follow it. Widths
    and sizes, which follow from the producers, are infer_shapes' to check."""
    v: list[str] = []
    nodes = graph.nodes

    kinds = [n.kind for n in nodes.values()]
    if kinds.count("Input") != 1:
        v.append(f"graph must have exactly one Input node, found {kinds.count('Input')}")
    if kinds.count("Output") != 1:
        v.append(f"graph must have exactly one Output node, found {kinds.count('Output')}")

    position = {nid: i for i, nid in enumerate(graph.order)}
    if len(position) != len(graph.order) or position.keys() != nodes.keys():
        v.append("node order must list every node exactly once")
        return v

    # with every node listed once, an input at a later position is the one sign of a cycle
    for i, nid in enumerate(graph.order):
        node = nodes[nid]
        if node.kind not in NODE_KINDS:
            v.append(f"{nid}: unknown node kind {node.kind!r}")
        for src in node.inputs:
            if src not in nodes:
                v.append(f"{nid}: input {src!r} does not exist")
            elif position[src] >= i:
                v.append(f"{nid}: node order is not topological (input {src!r} appears later, or the graph is cyclic)")
        arity = len(node.inputs)
        if node.kind == "Input":
            if arity != 0:
                v.append(f"{nid}: Input node cannot have inputs")
            continue
        if node.kind in ("Add", "Concat"):
            if arity < 2:
                v.append(f"{nid}: {node.kind} needs at least two inputs")
        elif arity != 1:
            v.append(f"{nid}: expected exactly one input, found {arity}")

        if node.kind in WEIGHTED_KINDS:
            required = _WIDTH_ATTRS[node.kind] + (("kernel",) if node.kind == "Conv2d" else ())
            if not all(_is_int(x) and x > 0 for x in map(node.attrs.get, required)):
                v.append(f"{nid}: {node.kind} needs positive {'/'.join(required)}")
                continue
            m, n, k = node.declared_in_width(), node.declared_out_width(), node.kernel()
            shape = (n, m)
            if node.kind == "Conv2d":
                shape += (k, k)
                stride, pad = node.attrs.get("stride", 1), node.attrs.get("padding", 0)
                if not _is_int(stride) or not _is_int(pad) or stride < 1 or pad < 0:
                    v.append(f"{nid}: bad stride/padding")
            w = node.tensors.get("weight")
            if w is None:
                v.append(f"{nid}: missing weight tensor")
            elif w.shape != shape:
                v.append(f"{nid}: weight shape {w.shape} does not match {shape}")
            b = node.tensors.get("bias")
            if b is not None and b.shape != (n,):
                v.append(f"{nid}: bias shape {b.shape} does not match ({n},)")
            v.extend(_check_in_select(node, m))
        elif node.kind == "BatchNorm2d":
            c = node.attrs.get("channels")
            if not _is_int(c) or c <= 0:
                v.append(f"{nid}: BatchNorm2d needs positive channels")
                continue
            for role in _BN_ROLES:
                t = node.tensors.get(role)
                if t is None:
                    v.append(f"{nid}: missing {role} tensor")
                elif t.shape != (c,):
                    v.append(f"{nid}: {role} shape {t.shape} does not match ({c},)")
            eps = node.attrs.get("epsilon", 1e-5)
            # a finite float; an int beyond float range or a bool (an int to Python) is not
            if not isinstance(eps, (int, float)) or isinstance(eps, bool) or not 0 <= eps <= sys.float_info.max:
                v.append(f"{nid}: BatchNorm2d epsilon must be a finite number of at least 0, got {eps!r}")
        elif node.kind == "Pool":
            mode = node.attrs.get("pool")
            if mode not in POOL_MODES:
                v.append(f"{nid}: unknown pool mode {mode!r}")
            elif mode != "global-avg":
                k, stride = node.attrs.get("kernel", 0), node.attrs.get("stride", 0)
                if not _is_int(k) or not _is_int(stride) or k < 1 or stride < 1:
                    v.append(f"{nid}: pool needs positive kernel and stride")
    return v


def _check_in_select(node: LayerNode, declared_in: int) -> list[str]:
    sel = node.attrs.get("in_select")
    if sel is None:
        return []
    if not isinstance(sel, list) or not all(_is_int(i) and i >= 0 for i in sel):
        return [f"{node.id}: in_select must be a list of nonnegative integers"]
    v = []
    if len(sel) != declared_in:
        v.append(f"{node.id}: in_select length {len(sel)} does not match input width {declared_in}")
    if sorted(set(sel)) != list(sel):
        v.append(f"{node.id}: in_select must be strictly increasing")
    return v


# ---------------------------------------------------------------------------
# shape rules and inference


def passed_width(node: LayerNode, operand_widths: list[int], in_size: int) -> int:
    """Output width of a non-weighted node from its operands' widths: Concat
    sums them, Flatten spreads each channel over in_size² features, and every
    other kind passes its first operand's width on. On a one-hot list of
    operand widths it gives that operand's width per channel."""
    if node.kind == "Concat":
        return sum(operand_widths)
    width = operand_widths[0]
    return width * in_size * in_size if node.kind == "Flatten" else width


def sliding_window(node: LayerNode) -> tuple[int, int, int] | None:
    """(kernel, stride, padding) of a Conv2d or windowed Pool node, else None."""
    if node.kind == "Conv2d":
        return node.kernel(), int(node.attrs.get("stride", 1)), int(node.attrs.get("padding", 0))
    if node.kind == "Pool" and node.attrs["pool"] != "global-avg":
        return int(node.attrs["kernel"]), int(node.attrs["stride"]), 0
    return None


def passed_size(node: LayerNode, in_size: int) -> int:
    """Output side of a node on an input of side ``in_size``: (in_size + 2*pad -
    kernel) // stride + 1 for a sliding window (ShapeError if it does not fit),
    1 for Linear, Flatten and global pooling, and ``in_size`` for the rest."""
    window = sliding_window(node)
    if window is None:
        return 1 if node.kind in ("Linear", "Flatten", "Pool") else in_size
    k, stride, pad = window
    if in_size + 2 * pad < k:
        what = "kernel {} larger than padded input {}" if node.kind == "Conv2d" else "pool kernel {} larger than input {}"
        raise ShapeError(f"{node.id}: " + what.format(k, in_size + 2 * pad))
    return (in_size + 2 * pad - k) // stride + 1


def infer_shapes(graph: ModelGraph) -> ModelGraph:
    """Annotate every node with input/output spatial size and output width.

    A weighted layer outputs its declared width, and every other node the
    width ``passed_width`` gives; every spatial size is ``passed_size`` of the
    node's input size. Raises ShapeError where operands or declared widths
    disagree, and on a kind it does not know. Deterministic and total on
    valid graphs.
    """
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            node.in_size = node.out_size = graph.input_size
            node.out_channels = graph.input_channels
            continue
        if node.kind not in NODE_KINDS:
            raise ShapeError(f"{nid}: cannot infer shape for kind {node.kind!r}")
        operands = [graph.nodes[i] for i in node.inputs]
        widths = [op.out_channels for op in operands]
        sizes = sorted({op.out_size for op in operands})
        s_in = node.in_size = operands[0].out_size
        if node.kind == "Add" and (len(set(widths)) != 1 or len(sizes) != 1):
            raise ShapeError(f"{nid}: Add operands disagree (widths {sorted(set(widths))}, sizes {sizes})")
        if node.kind == "Concat" and len(sizes) != 1:
            raise ShapeError(f"{nid}: Concat operands disagree on spatial size {sizes}")
        if node.kind in WEIGHTED_KINDS:
            if node.kind == "Linear" and s_in != 1:
                raise ShapeError(f"{nid}: Linear requires spatial size 1 input, got {s_in}")
            m, sel, w_in = node.declared_in_width(), node.in_select(), widths[0]
            if sel is None and m != w_in:
                raise ShapeError(f"{nid}: {_WIDTH_ATTRS[node.kind][0]} {m} does not match producer width {w_in}")
            if sel and sel[-1] >= w_in:
                raise ShapeError(f"{nid}: in_select exceeds producer width {w_in}")
            node.out_channels = node.declared_out_width()
        else:
            w_out = node.out_channels = passed_width(node, widths, s_in)
            if node.kind == "BatchNorm2d" and node.declared_out_width() != w_out:
                raise ShapeError(f"{nid}: channel count {node.declared_out_width()} vs producer width {w_out}")
        node.out_size = passed_size(node, s_in)
    graph.inferred = True
    return graph


# ---------------------------------------------------------------------------
# serialization


def _layout(graph: ModelGraph, weights_file: str = "") -> tuple[dict, list[np.ndarray]]:
    """The manifest dict and the little-endian float32 tensors in container
    order. Tensors already stored that way are returned without a copy."""
    arrays: list[np.ndarray] = []
    offset = 0
    manifest_nodes = []
    for nid in graph.order:
        node = graph.nodes[nid]
        tensors = {}
        for role in TENSOR_ROLES:
            if role not in node.tensors:
                continue
            arr = np.ascontiguousarray(node.tensors[role], dtype="<f4")
            arrays.append(arr)
            tensors[role] = {"offset": offset, "shape": list(arr.shape)}
            offset += arr.nbytes
        manifest_nodes.append(
            {"id": nid, "kind": node.kind, "inputs": list(node.inputs), "attrs": dict(node.attrs), "tensors": tensors}
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "input": {"channels": graph.input_channels, "size": graph.input_size},
        "nodes": manifest_nodes,
        "weights_file": weights_file,
        "total_bytes": offset,
    }
    return manifest, arrays


def serialize_graph(graph: ModelGraph, weights_file: str = "") -> tuple[dict, bytes]:
    """(manifest dict, container bytes); the graph is not modified."""
    manifest, arrays = _layout(graph, weights_file)
    return manifest, b"".join(arrays)


def save_model(graph: ModelGraph, manifest_path: str, weights_path: str) -> None:
    """Write manifest JSON and raw weight container, tensor by tensor.

    load_model(save_model(g)) is structurally identical to g and bit-identical
    in weights.
    """
    manifest, arrays = _layout(graph, weights_file=os.path.basename(weights_path))
    with open(weights_path, "wb") as f:
        for arr in arrays:
            f.write(arr)
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")


def container_checksum(graph: ModelGraph) -> str:
    """sha256 of the container that save_model writes, hashed tensor by tensor."""
    digest = hashlib.sha256()
    for arr in _layout(graph)[1]:
        digest.update(arr)
    return digest.hexdigest()


def graph_checksum(graph: ModelGraph) -> str:
    """Stable, path-independent digest: sha256 of the compact key-sorted
    manifest JSON, a NUL byte and the container, hashed tensor by tensor."""
    manifest, arrays = _layout(graph)
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\0")
    for arr in arrays:
        digest.update(arr)
    return digest.hexdigest()


_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``, else ManifestError."""
    if not isinstance(value, kind):
        raise ManifestError(f"{what} must be {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _check_utf8(value: str, what: str) -> None:
    """ManifestError unless ``value`` encodes as UTF-8: JSON's ``\\ud800`` escape
    spells a lone surrogate, which no file name or UTF-8 artifact can hold."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ManifestError(f"{what} {value!r} is not encodable as UTF-8: {e.reason}") from None


def load_model(manifest_path: str, weights_path: str | None = None, *, structure_only: bool = False) -> ModelGraph:
    """Load a model and :func:`validate` its structure; fails rather than
    returning a partial graph. Widths and sizes are checked by infer_shapes.

    Each tensor gets its own array, filled straight from the container in
    offset order, so every byte is read once with no intermediate buffer and
    no tensor keeps any other alive. With ``structure_only`` the container is
    checked (size and last byte) but no tensor is read: each is a read-only,
    zero-stride float32 NaN of its declared shape, enough for shapes and costs;
    otherwise each BatchNorm2d's running_var + epsilon must be > 0."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ManifestError(f"malformed manifest: {e}") from e

    _expect(manifest, dict, "manifest")
    for key in ("version", "input", "nodes", "weights_file", "total_bytes"):
        if key not in manifest:
            raise ManifestError(f"manifest missing key {key!r}")
    if manifest["version"] != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {manifest['version']}")
    inp = _expect(manifest["input"], dict, "manifest input")
    entries = _expect(manifest["nodes"], list, "manifest nodes")
    total = manifest["total_bytes"]
    if not _is_int(total) or total < 0:
        raise ManifestError(f"manifest total_bytes must be a non-negative int, got {type(total).__name__} {total!r}")

    if weights_path is None:
        weights_file = _expect(manifest["weights_file"], str, "manifest weights_file")
        _check_utf8(weights_file, "manifest weights_file")
        weights_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), weights_file)
    with open(weights_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size:  # the file must yield every byte fstat reports: probe the last one
            f.seek(size - 1)
            if not f.read(1):
                raise ManifestError(f"short read of weight container: no byte at offset {size - 1} of {size}")
        if size != total:
            raise ManifestError(f"weight container is {size} bytes, manifest declares {total}")
        nodes, order, regions = _parse_nodes(inp, entries, total, structure_only)
        if not structure_only:  # each tensor owns its array, read straight from the container in offset order
            for off, end, name, arr in regions:
                f.seek(off)
                got = f.readinto(arr)
                if got != end - off:
                    raise ManifestError(f"short read of weight container: {name} got {got} of {end - off} bytes")

    graph = ModelGraph(nodes=nodes, order=order, input_channels=inp["channels"], input_size=inp["size"])
    violations = validate(graph)
    if violations:
        raise GraphValidationError(violations)
    if not structure_only:
        _check_variances(graph)
    return graph


def _check_variances(graph: ModelGraph) -> None:
    """ManifestError naming the first BatchNorm2d, and its first index, whose
    running_var + epsilon in float64 is not > 0 (a NaN is not): its scale in
    eval would be infinite or NaN."""
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "BatchNorm2d":
            var = node.tensors["running_var"].astype(np.float64) + float(node.attrs.get("epsilon", 1e-5))
            if len(bad := np.flatnonzero(~(var > 0))):
                raise ManifestError(f"{nid}: running_var + epsilon must be > 0, got {var.item(bad[0])} at index {bad[0]}")


def _parse_nodes(inp: dict, entries: list, total: int, structure_only: bool) -> tuple[dict[str, LayerNode], list[str], list]:
    """The manifest's nodes and node order, and the (start, end, name, array)
    region of each tensor sorted by offset; each array is allocated, not read,
    or with ``structure_only`` a read-only NaN broadcast to its shape."""
    if not _is_int(inp.get("channels")) or not _is_int(inp.get("size")):
        raise ManifestError("manifest input must declare integer channels and size")
    if inp["channels"] < 1 or inp["size"] < 1:
        raise ManifestError("manifest input channels/size must be positive")

    nodes: dict[str, LayerNode] = {}
    order: list[str] = []
    regions: list[tuple[int, int, str, np.ndarray]] = []
    for i, entry in enumerate(entries):
        _expect(entry, dict, f"manifest node {i}")
        nid = entry.get("id")
        if not isinstance(nid, str) or nid in nodes:
            raise ManifestError(f"bad or duplicate node id {nid!r}")
        _check_utf8(nid, "node id")
        inputs = _expect(entry.get("inputs", []), list, f"{nid}: inputs")
        if not all(isinstance(src, str) for src in inputs):
            raise ManifestError(f"{nid}: inputs must be node ids (strings)")
        node = LayerNode(
            id=nid,
            kind=entry.get("kind", ""),
            inputs=list(inputs),
            attrs=dict(_expect(entry.get("attrs", {}), dict, f"{nid}: attrs")),
        )
        for role, meta in _expect(entry.get("tensors", {}), dict, f"{nid}: tensors").items():
            if role not in TENSOR_ROLES:
                raise ManifestError(f"{nid}: unknown tensor role {role!r}")
            _expect(meta, dict, f"{nid}.{role}")
            off, shape = meta.get("offset"), tuple(_expect(meta.get("shape", []), list, f"{nid}.{role}: shape"))
            if not _is_int(off) or off < 0:
                raise ManifestError(f"{nid}.{role}: bad offset {off!r}")
            if not shape or any((not _is_int(d)) or d < 1 for d in shape):
                raise ManifestError(f"{nid}.{role}: bad shape {shape}")
            nbytes = math.prod(shape) * 4
            if off + nbytes > total:
                raise ManifestError(f"{nid}.{role}: tensor out of bounds (offset {off} + {nbytes} > {total})")
            node.tensors[role] = np.broadcast_to(_NAN, shape) if structure_only else np.empty(shape, "<f4")
            regions.append((off, off + nbytes, f"{nid}.{role}", node.tensors[role]))
        nodes[nid] = node
        order.append(nid)

    regions.sort()
    for (_, e0, n0, _), (s1, _, n1, _) in zip(regions, regions[1:]):
        if s1 < e0:
            raise ManifestError(f"overlapping tensor regions: {n0} and {n1}")
    return nodes, order, regions

