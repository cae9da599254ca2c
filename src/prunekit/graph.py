"""Serialized CNN model representation.

A model is a topologically ordered DAG of layer nodes plus a flat weight
container (raw little-endian float32, no header). The manifest is UTF-8 JSON
carrying node attributes and per-tensor (offset, shape) entries into the
container. Only square kernels and square feature maps are supported.
"""

from __future__ import annotations

import hashlib
import json
import os
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


@dataclass
class LayerNode:
    """One node of the model graph.

    Kind-specific attributes live in ``attrs``; ``tensors`` maps each tensor
    role to a float32 ``np.ndarray`` (on a loaded model, a writable view of the
    one container buffer).
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


def _static_widths(graph: ModelGraph) -> dict[str, int | None]:
    """Output widths derivable without spatial inference (None = unknown)."""
    widths: dict[str, int | None] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            widths[nid] = graph.input_channels
        elif node.kind in WEIGHTED_KINDS:
            n = node.attrs.get(_WIDTH_ATTRS[node.kind][1])
            widths[nid] = n if isinstance(n, int) and n > 0 else None  # validate reports a bad width
        elif node.kind in ("BatchNorm2d", "ReLU", "Pool", "Output"):
            widths[nid] = widths.get(node.inputs[0]) if node.inputs else None
        elif node.kind == "Concat":
            ws = [widths.get(i) for i in node.inputs]
            widths[nid] = sum(ws) if all(w is not None for w in ws) else None  # type: ignore[arg-type]
        elif node.kind == "Add":
            ws = [widths.get(i) for i in node.inputs]
            known = [w for w in ws if w is not None]
            widths[nid] = known[0] if known else None
        else:  # Flatten: width depends on spatial size
            widths[nid] = None
    return widths


def validate(graph: ModelGraph) -> list[str]:
    """Check structural invariants; returns a list of violations (empty = ok)."""
    v: list[str] = []
    nodes = graph.nodes

    kinds = [n.kind for n in nodes.values()]
    if kinds.count("Input") != 1:
        v.append(f"graph must have exactly one Input node, found {kinds.count('Input')}")
    if kinds.count("Output") != 1:
        v.append(f"graph must have exactly one Output node, found {kinds.count('Output')}")

    for nid, node in nodes.items():
        if node.kind not in NODE_KINDS:
            v.append(f"{nid}: unknown node kind {node.kind!r}")
        for src in node.inputs:
            if src not in nodes:
                v.append(f"{nid}: input {src!r} does not exist")

    # cycle check via Kahn's algorithm (the stored order may be stale)
    indeg = {nid: 0 for nid in nodes}
    succ: dict[str, list[str]] = {nid: [] for nid in nodes}
    for nid, node in nodes.items():
        for src in node.inputs:
            if src in nodes:
                indeg[nid] += 1
                succ[src].append(nid)
    queue = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        cur = queue.pop()
        seen += 1
        for nxt in succ[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if seen != len(nodes):
        v.append("graph is cyclic")
        return v

    position = {nid: i for i, nid in enumerate(graph.order)}
    for nid in graph.order:
        for src in graph.nodes[nid].inputs:
            if src in position and position[src] >= position[nid]:
                v.append(f"{nid}: node order is not topological (input {src!r} appears later)")

    widths = _static_widths(graph)
    for nid in graph.order:
        node = nodes[nid]
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
            if not all(isinstance(x, int) and x > 0 for x in map(node.attrs.get, required)):
                v.append(f"{nid}: {node.kind} needs positive {'/'.join(required)}")
                continue
            m, n, k = node.declared_in_width(), node.declared_out_width(), node.kernel()
            shape = (n, m)
            if node.kind == "Conv2d":
                shape += (k, k)
                stride, pad = node.attrs.get("stride", 1), node.attrs.get("padding", 0)
                if not isinstance(stride, int) or not isinstance(pad, int) or stride < 1 or pad < 0:
                    v.append(f"{nid}: bad stride/padding")
            w = node.tensors.get("weight")
            if w is None:
                v.append(f"{nid}: missing weight tensor")
            elif w.shape != shape:
                v.append(f"{nid}: weight shape {w.shape} does not match {shape}")
            b = node.tensors.get("bias")
            if b is not None and b.shape != (n,):
                v.append(f"{nid}: bias shape {b.shape} does not match ({n},)")
            v.extend(_check_in_select(node, m, widths))
        elif node.kind == "BatchNorm2d":
            c = node.attrs.get("channels")
            if not isinstance(c, int) or c <= 0:
                v.append(f"{nid}: BatchNorm2d needs positive channels")
                continue
            for role in _BN_ROLES:
                t = node.tensors.get(role)
                if t is None:
                    v.append(f"{nid}: missing {role} tensor")
                elif t.shape != (c,):
                    v.append(f"{nid}: {role} shape {t.shape} does not match ({c},)")
            pw = widths.get(node.inputs[0]) if node.inputs else None
            if pw is not None and pw != c:
                v.append(f"{nid}: channel count {c} does not match producer width {pw}")
        elif node.kind == "Pool":
            mode = node.attrs.get("pool")
            if mode not in POOL_MODES:
                v.append(f"{nid}: unknown pool mode {mode!r}")
            elif mode != "global-avg":
                k, stride = node.attrs.get("kernel", 0), node.attrs.get("stride", 0)
                if not isinstance(k, int) or not isinstance(stride, int) or k < 1 or stride < 1:
                    v.append(f"{nid}: pool needs positive kernel and stride")
        elif node.kind == "Add":
            ws = [widths.get(i) for i in node.inputs]
            known = {w for w in ws if w is not None}
            if len(known) > 1:
                v.append(f"{nid}: Add operands disagree on channel count {sorted(known)}")
    return v


def _check_in_select(node: LayerNode, declared_in: int, widths: dict[str, int | None]) -> list[str]:
    sel = node.attrs.get("in_select")
    if sel is None:
        return []
    if not isinstance(sel, list) or not all(isinstance(i, int) and i >= 0 for i in sel):
        return [f"{node.id}: in_select must be a list of nonnegative integers"]
    v = []
    if len(sel) != declared_in:
        v.append(f"{node.id}: in_select length {len(sel)} does not match input width {declared_in}")
    if sorted(set(sel)) != list(sel):
        v.append(f"{node.id}: in_select must be strictly increasing")
    pw = widths.get(node.inputs[0]) if node.inputs else None
    if pw is not None and sel and sel[-1] >= pw:
        v.append(f"{node.id}: in_select index {sel[-1]} exceeds producer width {pw}")
    return v


# ---------------------------------------------------------------------------
# shape inference


def infer_shapes(graph: ModelGraph) -> ModelGraph:
    """Annotate every node with input/output spatial size and output width.

    Convolutions follow O = floor((I + 2*pad - K)/stride) + 1; pools the same
    without padding; Linear layers live at spatial size 1. Raises ShapeError on
    inconsistency. Deterministic and total on valid graphs.
    """
    widths: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for nid in graph.order:
        node = graph.nodes[nid]
        if node.kind == "Input":
            widths[nid] = graph.input_channels
            sizes[nid] = graph.input_size
            node.in_size = node.out_size = graph.input_size
            node.out_channels = graph.input_channels
            continue
        src = node.inputs[0]
        w_in, s_in = widths[src], sizes[src]
        node.in_size = s_in
        if node.kind in WEIGHTED_KINDS:
            if node.kind == "Linear" and s_in != 1:
                raise ShapeError(f"{nid}: Linear requires spatial size 1 input, got {s_in}")
            m, sel = node.declared_in_width(), node.in_select()
            if sel is None and m != w_in:
                raise ShapeError(f"{nid}: {_WIDTH_ATTRS[node.kind][0]} {m} does not match producer width {w_in}")
            if sel and sel[-1] >= w_in:
                raise ShapeError(f"{nid}: in_select exceeds producer width {w_in}")
            o = 1
            if node.kind == "Conv2d":
                k = node.kernel()
                stride = int(node.attrs.get("stride", 1))
                pad = int(node.attrs.get("padding", 0))
                span = s_in + 2 * pad - k
                if span < 0:
                    raise ShapeError(f"{nid}: kernel {k} larger than padded input {s_in + 2 * pad}")
                o = span // stride + 1
            widths[nid] = node.declared_out_width()
            sizes[nid] = o
        elif node.kind in ("BatchNorm2d", "ReLU", "Output"):
            if node.kind == "BatchNorm2d" and node.declared_out_width() != w_in:
                raise ShapeError(f"{nid}: channel count {node.declared_out_width()} vs producer width {w_in}")
            widths[nid] = w_in
            sizes[nid] = s_in
        elif node.kind == "Pool":
            mode = node.attrs["pool"]
            if mode == "global-avg":
                o = 1
            else:
                k = int(node.attrs["kernel"])
                stride = int(node.attrs["stride"])
                if s_in < k:
                    raise ShapeError(f"{nid}: pool kernel {k} larger than input {s_in}")
                o = (s_in - k) // stride + 1
            widths[nid] = w_in
            sizes[nid] = o
        elif node.kind == "Flatten":
            widths[nid] = w_in * s_in * s_in
            sizes[nid] = 1
        elif node.kind == "Add":
            ws = {widths[i] for i in node.inputs}
            ss = {sizes[i] for i in node.inputs}
            if len(ws) != 1 or len(ss) != 1:
                raise ShapeError(f"{nid}: Add operands disagree (widths {sorted(ws)}, sizes {sorted(ss)})")
            widths[nid] = ws.pop()
            sizes[nid] = ss.pop()
        elif node.kind == "Concat":
            ss = {sizes[i] for i in node.inputs}
            if len(ss) != 1:
                raise ShapeError(f"{nid}: Concat operands disagree on spatial size {sorted(ss)}")
            widths[nid] = sum(widths[i] for i in node.inputs)
            sizes[nid] = ss.pop()
        else:
            raise ShapeError(f"{nid}: cannot infer shape for kind {node.kind!r}")
        node.out_size = sizes[nid]
        node.out_channels = widths[nid]
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


def save_model(
    graph: ModelGraph, manifest_path: str, weights_path: str, *, digests: bool = False
) -> tuple[str, str] | None:
    """Write manifest JSON and raw weight container, tensor by tensor. With
    ``digests``, also hash the bytes as they are written and return the sha256
    hex digests of the two files; otherwise return None.

    load_model(save_model(g)) is structurally identical to g and bit-identical
    in weights.
    """
    manifest, arrays = _layout(graph, weights_file=os.path.basename(weights_path))
    weights_digest = hashlib.sha256()
    with open(weights_path, "wb") as f:
        for arr in arrays:
            f.write(arr)
            if digests:
                weights_digest.update(arr)
    text = json.dumps(manifest, indent=2) + "\n"
    with open(manifest_path, "w", encoding="utf-8") as f:
        f.write(text)
    if not digests:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), weights_digest.hexdigest()


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


def load_model(manifest_path: str, weights_path: str | None = None) -> ModelGraph:
    """Load and validate a model; fails rather than returning a partial graph."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise ManifestError(f"malformed manifest: {e}") from e

    _expect(manifest, dict, "manifest")
    for key in ("version", "input", "nodes", "weights_file", "total_bytes"):
        if key not in manifest:
            raise ManifestError(f"manifest missing key {key!r}")
    if manifest["version"] != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {manifest['version']}")
    inp = _expect(manifest["input"], dict, "manifest input")
    entries = _expect(manifest["nodes"], list, "manifest nodes")

    if weights_path is None:
        weights_file = _expect(manifest["weights_file"], str, "manifest weights_file")
        weights_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), weights_file)
    with open(weights_path, "rb") as f:
        # one writable buffer; every tensor is a view of it
        container = bytearray(os.fstat(f.fileno()).st_size)
        got = f.readinto(container)
    if got != len(container):
        raise ManifestError(f"short read of weight container: {got} of {len(container)} bytes")
    total = manifest["total_bytes"]
    if len(container) != total:
        raise ManifestError(f"weight container is {len(container)} bytes, manifest declares {total}")

    if not isinstance(inp.get("channels"), int) or not isinstance(inp.get("size"), int):
        raise ManifestError("manifest input must declare integer channels and size")
    if inp["channels"] < 1 or inp["size"] < 1:
        raise ManifestError("manifest input channels/size must be positive")

    nodes: dict[str, LayerNode] = {}
    order: list[str] = []
    regions: list[tuple[int, int, str]] = []
    for i, entry in enumerate(entries):
        _expect(entry, dict, f"manifest node {i}")
        nid = entry.get("id")
        if not isinstance(nid, str) or nid in nodes:
            raise ManifestError(f"bad or duplicate node id {nid!r}")
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
            if not isinstance(off, int) or off < 0:
                raise ManifestError(f"{nid}.{role}: bad offset {off!r}")
            if not shape or any((not isinstance(d, int)) or d < 1 for d in shape):
                raise ManifestError(f"{nid}.{role}: bad shape {shape}")
            nbytes = int(np.prod(shape)) * 4
            if off + nbytes > total:
                raise ManifestError(f"{nid}.{role}: tensor out of bounds (offset {off} + {nbytes} > {total})")
            node.tensors[role] = np.frombuffer(container, dtype="<f4", count=nbytes // 4, offset=off).reshape(shape)
            regions.append((off, off + nbytes, f"{nid}.{role}"))
        nodes[nid] = node
        order.append(nid)

    regions.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(regions, regions[1:]):
        if s1 < e0:
            raise ManifestError(f"overlapping tensor regions: {n0} and {n1}")

    graph = ModelGraph(nodes=nodes, order=order, input_channels=inp["channels"], input_size=inp["size"])
    violations = validate(graph)
    if violations:
        raise GraphValidationError(violations)
    return graph
