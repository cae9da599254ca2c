"""Vectorised forward evaluator.

Exists as a correctness oracle for surgery and serialization tests, not as an
inference engine: inference-mode batch norm, plain pooling, and convolution as
one matrix product per layer in one of two contraction orders. A layer of f
filters reading m channels of side h into side o goes channels first when
f * h * h < m * o * o: every kernel tap's map comes from one product over the
unpadded input, and the maps are added into the output at their offsets. Any
other layer (ties included) multiplies the im2col columns of its zero-padded
windows, and so does every 1x1, stride-1, unpadded layer, whose columns are a
view of its input. So the intermediate is never the larger of the two. Neither
order is the faster one on every model: forcing channels first everywhere slows
vgg16 and resnet164, and forcing im2col everywhere slows densenet40. Every
tensor carries a leading batch axis, and each activation is dropped once its
last consumer has run; elementwise layers write in place where that gives the
same bits and touches nothing the evaluation did not allocate (``_run``).
Computation runs in float64 for stable comparisons; weights are converted one
block of about ``_BLOCK_VALUES`` filter weights at a time (``_product``), so an
evaluation holds no float64 copy of a whole layer. The per-element loop
evaluator in the tests stays the independent check on this one.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .graph import ModelGraph, sliding_window

_BLOCK_VALUES = 1 << 17  # float64 weights per block of filters in _product: 1 MB


def forward_eval(graph: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Evaluate the graph on one input of shape (channels, size, size), or on a
    batch of shape (N, channels, size, size). Returns one output for one input
    and a batch of outputs for a batch."""
    if not graph.inferred:
        raise ShapeError("run infer_shapes before forward_eval")
    x = np.asarray(x, dtype=np.float64)
    sample = (graph.input_channels, graph.input_size, graph.input_size)
    if x.shape == sample:
        return _run(graph, x[None])[0]
    if x.ndim == 4 and x.shape[1:] == sample:
        return _run(graph, x)
    raise ShapeError(f"input shape {x.shape} does not match declared {sample}, with or without a batch axis")


def _run(
    graph: ModelGraph,
    x: np.ndarray,
    stop: int | None = None,
    resume: tuple[int, dict[str, np.ndarray]] | None = None,
):
    """Evaluate ``graph`` on the batch ``x`` and return its output batch.

    With ``stop``, evaluate only ``graph.order[:stop]`` and return the
    activations that later nodes still read, by node id. With ``resume`` =
    (start, activations), such a prefix's result, skip ``graph.order[:start]``
    and evaluate the rest from them; this is exact only where the graph's first
    ``start`` nodes compute what the prefix's did, which the caller checks.
    Neither ``x`` nor a resumed activation is ever written: BatchNorm2d, ReLU
    and Add write their result into an operand only when this call allocated
    it, the operand dies at that node, and the node reads it once."""
    last_use = {src: i for i, nid in enumerate(graph.order) for src in graph.nodes[nid].inputs}
    start, values = (0, {}) if resume is None else (resume[0], dict(resume[1]))
    owned: set[str] = set()  # ids of live activations this call allocated and nothing else views
    for i in range(start, len(graph.order) if stop is None else stop):
        nid = graph.order[i]
        node = graph.nodes[nid]
        if node.kind == "Input":
            values[nid] = x
            continue
        args = [values[s] for s in node.inputs]
        free = [s in owned and last_use[s] == i and node.inputs.count(s) == 1 for s in node.inputs]
        a = args[0]
        if node.kind == "Conv2d":
            y = _conv2d(node, a)
        elif node.kind == "Linear":
            sel = node.in_select()
            v = a if sel is None else a[:, sel]
            y = _product(node.weight(), v[:, :, None])[:, :, 0]  # each sample as a column
            if "bias" in node.tensors:
                y += node.tensors["bias"].astype(np.float64)
        elif node.kind == "BatchNorm2d":
            g = node.tensors["gamma"].astype(np.float64)
            b = node.tensors["beta"].astype(np.float64)
            mu = node.tensors["running_mean"].astype(np.float64)
            var = node.tensors["running_var"].astype(np.float64)
            eps = float(node.attrs.get("epsilon", 1e-5))
            scale = g / np.sqrt(var + eps)
            y = np.multiply(a, scale[:, None, None], out=a if free[0] else None)
            y += (b - mu * scale)[:, None, None]
        elif node.kind == "ReLU":
            y = np.maximum(a, 0.0, out=a if free[0] else None)
        elif node.kind == "Pool":
            y = _pool(node, a)
        elif node.kind == "Flatten":
            y = a.reshape(a.shape[0], node.out_channels)  # channel-major per sample, often a view of a
            owned.discard(node.inputs[0])
        elif node.kind == "Add":
            # left to right as a0 + a1 + ..., into a0 or a1 where allowed (a0 + a1 == a1 + a0 bit for bit)
            if free[0] or free[1]:
                y = args[0] if free[0] else args[1]
                y += args[1] if free[0] else args[0]
            else:
                y = args[0] + args[1]
            for other in args[2:]:
                y += other
        elif node.kind == "Concat":
            y = np.concatenate(args, axis=1)
        else:  # Output
            y = a
        values[nid] = y
        if node.kind not in ("Flatten", "Output"):  # every other kind returns a new array
            owned.add(nid)
        for src in set(node.inputs):
            if last_use[src] == i:
                del values[src]
                owned.discard(src)
    return values if stop is not None else values[graph.output_node().id]


def _windows(node, a: np.ndarray) -> np.ndarray:
    """(N, C, O, O, k, k) view of the node's sliding windows over ``a``
    (``graph.sliding_window``), zero-padded."""
    k, stride, pad = sliding_window(node)
    if pad:
        a = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(a, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _conv2d(node, a: np.ndarray) -> np.ndarray:
    """Convolution in the order with the smaller intermediate: per tap, f * h * h
    channels-first map entries against m * o * o im2col column entries, or none
    where the columns are a view of the input."""
    sel = node.in_select()
    if sel is not None:
        a = a[:, sel]
    f, m, _, _ = node.weight().shape
    h, o = a.shape[2], node.out_size
    cols = 0 if sliding_window(node) == (1, 1, 0) else m * o * o
    out = _conv_channels_first(node, a, o) if f * h * h < cols else _conv_im2col(node, a)
    if "bias" in node.tensors:
        out += node.tensors["bias"].astype(np.float64)[:, None, None]
    return out


def _product(w: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``w @ right`` in float64 for float32 rows ``w`` of shape (f, K) and
    ``right`` of shape (n, K, P): (n, f, P). Each block of rows is converted
    and multiplied on its own and written into its rows of the result; a ``w``
    that fits in one block returns its one product."""
    f = len(w)
    step = max(1, _BLOCK_VALUES // w.shape[1])
    if step >= f:
        return w.astype(np.float64) @ right
    out = np.empty((len(right), f, right.shape[2]))
    for lo in range(0, f, step):
        np.matmul(w[lo : lo + step].astype(np.float64), right, out=out[:, lo : lo + step])
    return out


def _conv_im2col(node, a: np.ndarray) -> np.ndarray:
    """One (f, m*k*k) @ (n, m*k*k, o*o) product over the zero-padded windows."""
    win = _windows(node, a)
    n, m, o, _, k, _ = win.shape
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, m * k * k, o * o)
    w = node.weight()
    return _product(w.reshape(len(w), -1), cols).reshape(n, len(w), o, o)


def _conv_channels_first(node, a: np.ndarray, o: int) -> np.ndarray:
    """Per block of filters, one (k*k*b, m) @ (n, m, h*h) product gives every
    tap's (b, h, h) map from one read of the input; each map is then added
    into the output where its tap reads inside the input, which leaves the
    padding out."""
    k, stride, pad = sliding_window(node)
    n, m, h, _ = a.shape
    w = node.weight()
    f = len(w)
    spans = _tap_spans(k, stride, pad, h, o)
    step = max(1, _BLOCK_VALUES // (m * k * k))
    for lo in range(0, f, step):
        block = w[lo : lo + step]
        taps = block.transpose(2, 3, 0, 1).reshape(-1, m)  # (k*k*b, m)
        maps = _product(taps, a.reshape(n, m, h * h)).reshape(n, k, k, len(block), h, h)
        if lo == 0:  # after the first maps: allocated before them, it raised densenet40 verify's peak RSS by 2 MB
            out = np.zeros((n, f, o, o))
        for ty, ys, y_in in spans:
            for tx, xs, x_in in spans:
                out[:, lo : lo + step, ys, xs] += maps[:, ty, tx, :, y_in, x_in]
    return out


def _tap_spans(k: int, stride: int, pad: int, h: int, o: int) -> list[tuple[int, slice, slice]]:
    """Along one axis, each kernel tap that reads inside an input of side
    ``h``, with the output positions where it does and the input positions
    they read."""
    spans = []
    for t in range(k):
        lo = max(0, -((t - pad) // stride))  # ceil((pad - t) / stride)
        hi = min(o, (h - 1 + pad - t) // stride + 1)
        if lo < hi:
            start = lo * stride + t - pad
            spans.append((t, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return spans


def _pool(node, a: np.ndarray) -> np.ndarray:
    mode = node.attrs["pool"]
    if mode == "global-avg":
        return a.mean(axis=(2, 3), keepdims=True)
    win = _windows(node, a)
    return win.max(axis=(4, 5)) if mode == "max" else win.mean(axis=(4, 5))
