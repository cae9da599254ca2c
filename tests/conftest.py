"""Shared builders and fixtures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from prunekit import (
    Config,
    GraphBuilder,
    build_prune_units,
    graph_checksum,
    infer_shapes,
    save_model,
    score_all,
    select_threshold,
    unit_table,
)
from prunekit.zoo import densenet40, resnet56, vgg16


def bn_params(rng: np.random.Generator, c: int) -> dict:
    return {
        "gamma": rng.uniform(0.5, 1.5, c).astype(np.float32),
        "beta": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_mean": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_var": rng.uniform(0.5, 1.5, c).astype(np.float32),
    }


def conv_w(rng: np.random.Generator, n: int, m: int, k: int) -> np.ndarray:
    return rng.standard_normal((n, m, k, k)).astype(np.float32)


def make_minimal(rng: np.random.Generator | None = None):
    """Input -> Conv2d(3->4, K=3) -> Output; 432 weights, no bias."""
    rng = rng or np.random.default_rng(0)
    b = GraphBuilder(3, 8)
    c = b.conv("conv", "input", conv_w(rng, 4, 3, 3), padding=1)
    return infer_shapes(b.output(c))


def make_chain(
    rng: np.random.Generator,
    widths: tuple[int, ...] = (4, 6),
    kernel: int = 3,
    input_size: int = 8,
    with_bn: bool = False,
    with_relu: bool = True,
    head_classes: int = 5,
    conv_bias: bool = False,
):
    """Conv chain ending in global-avg-pool -> flatten -> linear head."""
    b = GraphBuilder(3, input_size)
    prev, width = "input", 3
    for i, w in enumerate(widths, 1):
        bias = (rng.standard_normal(w) * 0.1).astype(np.float32) if conv_bias else None
        prev = b.conv(f"conv{i}", prev, conv_w(rng, w, width, kernel), bias=bias, padding=kernel // 2)
        if with_bn:
            prev = b.batchnorm(f"bn{i}", prev, **bn_params(rng, w))
        if with_relu:
            prev = b.relu(f"relu{i}", prev)
        width = w
    prev = b.pool("gap", prev, "global-avg")
    prev = b.flatten("flat", prev)
    head = b.linear("head", prev, rng.standard_normal((head_classes, width)).astype(np.float32))
    return infer_shapes(b.output(head))


def make_residual_toy(
    rng: np.random.Generator,
    width: int = 8,
    planes: int = 4,
    blocks: int = 2,
    projection: bool = False,
    with_bn: bool = True,
):
    """Bottleneck-style residual stage; identity shortcuts unless projection."""
    b = GraphBuilder(3, 8)
    prev = b.conv("stem", "input", conv_w(rng, width, 3, 3), padding=1)
    if with_bn:
        prev = b.batchnorm("stem_bn", prev, **bn_params(rng, width))
    prev = b.relu("stem_relu", prev)
    for i in range(1, blocks + 1):
        tag = f"b{i}"
        x = b.conv(f"{tag}_conv1", prev, conv_w(rng, planes, width, 1))
        x = b.relu(f"{tag}_relu1", x)
        x = b.conv(f"{tag}_conv2", x, conv_w(rng, planes, planes, 3), padding=1)
        x = b.relu(f"{tag}_relu2", x)
        x = b.conv(f"{tag}_conv3", x, conv_w(rng, width, planes, 1))
        if with_bn:
            x = b.batchnorm(f"{tag}_bn3", x, **bn_params(rng, width))
        if projection and i == 1:
            sc = b.conv(f"{tag}_proj", prev, conv_w(rng, width, width, 1))
        else:
            sc = prev
        prev = b.relu(f"{tag}_out", b.addnode(f"{tag}_add", [x, sc]))
    prev = b.pool("gap", prev, "global-avg")
    prev = b.flatten("flat", prev)
    head = b.linear("head", prev, rng.standard_normal((5, width)).astype(np.float32))
    return infer_shapes(b.output(head))


def make_dense_toy(
    rng: np.random.Generator,
    entry_width: int = 6,
    growth: int = 4,
    layers: int = 3,
    with_bn: bool = False,
):
    """Entry conv feeding a concatenation chain of growth layers, then a head."""
    b = GraphBuilder(3, 8)
    prev = b.conv("entry", "input", conv_w(rng, entry_width, 3, 3), padding=1)
    width = entry_width
    for i in range(1, layers + 1):
        tag = f"d{i}"
        x = prev
        if with_bn:
            x = b.batchnorm(f"{tag}_bn", x, **bn_params(rng, width))
            x = b.relu(f"{tag}_relu", x)
        conv = b.conv(f"{tag}_conv" if with_bn else tag, x, conv_w(rng, growth, width, 3), padding=1)
        prev = b.concat(f"cat{i}", [prev, conv])
        width += growth
    prev = b.pool("gap", prev, "global-avg")
    prev = b.flatten("flat", prev)
    head = b.linear("head", prev, rng.standard_normal((5, width)).astype(np.float32))
    return infer_shapes(b.output(head))


def make_flatten_toy(rng: np.random.Generator, channels: int = 3, size: int = 4):
    """Conv -> Flatten at spatial size > 1 -> Linear (column-block mapping)."""
    b = GraphBuilder(2, size)
    c1 = b.conv("conv1", "input", conv_w(rng, channels, 2, 3), padding=1)
    r1 = b.relu("relu1", c1)
    flat = b.flatten("flat", r1)
    head = b.linear("head", flat, rng.standard_normal((5, channels * size * size)).astype(np.float32))
    return infer_shapes(b.output(head))


def member_reads_out_of_run():
    """stem and b tied by an Add; stem is also read after the Add (late) and
    b before it (side), so stem's reads are not one run of the group's."""
    rng = np.random.default_rng(0)
    b = GraphBuilder(3, 4)
    stem = b.conv("stem", "input", conv_w(rng, 4, 3, 1))
    br = b.conv("b", stem, conv_w(rng, 4, 4, 1))
    side = b.conv("side", br, conv_w(rng, 4, 4, 1))
    post = b.conv("post", b.addnode("a", [br, stem]), conv_w(rng, 4, 4, 1))
    late = b.conv("late", stem, conv_w(rng, 4, 4, 1))
    flat = b.flatten("flat", b.pool("gap", b.addnode("a2", [post, late, side]), "global-avg"))
    return infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 4)).astype(np.float32))))


def dense_channel_tied_by_add():
    """p reaches a weighted layer only through a Concat (dense interior), and
    an Add ties it to q, which e reads directly."""
    rng = np.random.default_rng(0)
    b = GraphBuilder(3, 4)
    p = b.conv("p", "input", conv_w(rng, 4, 3, 1))
    q = b.conv("q", "input", conv_w(rng, 4, 3, 1))
    d = b.conv("d", b.concat("cat", [p, q]), conv_w(rng, 4, 8, 1))
    e = b.conv("e", q, conv_w(rng, 4, 4, 1))
    return infer_shapes(b.output(b.addnode("a2", [b.addnode("a1", [p, q]), d, e])))


def concat_over_add():
    """q reads p and an Add ties them; cat joins that Add's two-row origins with
    r's one row, padded with -1. d reads cat, e reads the Add, and an Add of d
    and e feeds Output."""
    rng = np.random.default_rng(0)
    b = GraphBuilder(3, 4)
    p = b.conv("p", "input", conv_w(rng, 4, 3, 1))
    a = b.addnode("a", [p, b.conv("q", p, conv_w(rng, 4, 4, 1))])
    r = b.conv("r", "input", conv_w(rng, 3, 3, 1))
    d = b.conv("d", b.concat("cat", [a, r]), conv_w(rng, 4, 7, 1))
    e = b.conv("e", a, conv_w(rng, 4, 4, 1))
    return infer_shapes(b.output(b.addnode("a2", [d, e])))


def random_tiny_net(rng: np.random.Generator):
    """Random small model: at most 4 weighted layers, 8 channels, 8x8 input."""
    kind = rng.choice(["chain", "chain_bn", "residual", "dense", "flatten"])
    if kind == "chain":
        n_layers = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(2, 9)) for _ in range(n_layers))
        return make_chain(rng, widths, kernel=int(rng.choice([1, 3])), conv_bias=bool(rng.integers(0, 2)))
    if kind == "chain_bn":
        widths = tuple(int(rng.integers(2, 9)) for _ in range(2))
        return make_chain(rng, widths, with_bn=True)
    if kind == "residual":
        return make_residual_toy(rng, width=int(rng.integers(4, 9)), planes=int(rng.integers(2, 5)), blocks=1)
    if kind == "dense":
        return make_dense_toy(rng, entry_width=int(rng.integers(3, 7)), growth=int(rng.integers(2, 5)), layers=2)
    return make_flatten_toy(rng, channels=int(rng.integers(2, 5)))


def plan_from_other_units(graph, target: float = 0.3):
    """A plan selected from a hand-made copy of ``graph``'s unit table in
    which one unit, the first that a plan of the builder's table removes, has
    lost its last in-slice. The plan names that unit by the builder's uid,
    but its row differs from the builder's in one in-slice."""
    config = Config(flop_target_ratio=target)
    units = build_prune_units(graph)
    first = select_threshold(score_all(graph, units, config), graph, config).removed_unit_ids[0]
    entries = json.loads(units.to_json())
    next(e for e in entries if e["uid"] == first)["in_slices"].pop()
    hand = unit_table(graph, entries)
    plan = select_threshold(score_all(graph, hand, config), graph, config)
    assert first in plan.removed_unit_ids
    return plan


def save_tmp(graph, tmp_path, name: str = "model"):
    manifest = tmp_path / f"{name}.json"
    weights = tmp_path / f"{name}.bin"
    save_model(graph, str(manifest), str(weights))
    return str(manifest), str(weights)


def _unchanged(name: str, graph):
    """Yield ``graph`` to every test of the session, then fail the fixture's
    teardown, naming it, if a test changed the graph."""
    checksum = graph_checksum(graph)
    yield graph
    assert graph_checksum(graph) == checksum, f"a test changed the shared {name} fixture"


@pytest.fixture(scope="session")
def vgg_graph():
    yield from _unchanged("vgg_graph", vgg16(seed=0))


@pytest.fixture(scope="session")
def densenet_graph():
    yield from _unchanged("densenet_graph", densenet40(seed=0))


@pytest.fixture(scope="session")
def resnet_graph():
    yield from _unchanged("resnet_graph", resnet56(seed=0))
