"""Model IR: manifest round-trips, validation, shape inference, evaluation."""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import os
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import prunekit.eval as eval_module
import prunekit.graph as graph_module
from prunekit import (
    GraphBuilder,
    GraphValidationError,
    ManifestError,
    PruneKitError,
    ShapeError,
    apply_units,
    build_prune_units,
    forward_eval,
    graph_checksum,
    infer_shapes,
    load_model,
    model_param_count,
    validate,
)
from prunekit.costs import effective_model_costs
from prunekit.graph import LayerNode, container_checksum, serialize_graph
from prunekit.planner import multi_pass
from prunekit.scoring import Config
from prunekit.units import IN_CHANNEL_ONLY
from prunekit.zoo import densenet40, vgg16

from conftest import (
    bn_params,
    conv_w,
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_minimal,
    make_residual_toy,
    random_tiny_net,
    save_tmp,
)
from oracles import loop_forward


def assert_batch_matches_oracle(g, xs, rtol=1e-5, atol=1e-9):
    """forward_eval on the batch ``xs`` equals loop_forward row by row."""
    got = forward_eval(g, xs)
    assert len(got) == len(xs)
    for row, x in zip(got, xs):
        assert np.allclose(row, loop_forward(g, x), rtol=rtol, atol=atol)
    return got


def _truncate(manifest, weights, monkeypatch):
    os.truncate(weights, 200)  # inside conv.weight, bytes 0-432


def _shrink_while_read(manifest, weights, monkeypatch):
    # the container passes the size checks, then loses bytes inside conv.weight before it is read
    parse = graph_module._parse_nodes

    def parse_then_truncate(*args):
        parsed = parse(*args)
        _truncate(manifest, weights, monkeypatch)
        return parsed

    monkeypatch.setattr(graph_module, "_parse_nodes", parse_then_truncate)


def _bad_shape(manifest, weights, monkeypatch):
    with open(manifest, encoding="utf-8") as f:
        data = json.load(f)
    data["nodes"][1]["tensors"]["weight"]["shape"] = [0]
    with open(manifest, "w", encoding="utf-8") as f:
        json.dump(data, f)


class TestLoadSave:
    def test_minimal_model(self, tmp_path):
        g = make_minimal()
        manifest, weights = save_tmp(g, tmp_path)
        loaded = load_model(manifest, weights)
        assert len(loaded.nodes) == 3
        assert loaded.total_channels() == 4
        assert loaded.nodes["conv"].weight().size == 108  # 432-byte container
        assert loaded.nodes["conv"].tensors["weight"].nbytes == 432

    def test_weights_path_defaults_to_manifest_entry(self, tmp_path):
        g = make_minimal()
        manifest, _ = save_tmp(g, tmp_path)
        loaded = load_model(manifest)
        assert loaded.nodes["conv"].weight().size == 108

    def test_round_trip_bit_identical(self, tmp_path):
        g = make_minimal()
        _, container_a = serialize_graph(g)
        manifest, weights = save_tmp(g, tmp_path)
        loaded = load_model(manifest, weights)
        _, container_b = serialize_graph(loaded)
        assert container_a == container_b
        assert graph_checksum(g) == graph_checksum(loaded)

    def test_round_trip_random_nets(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(10):
            g = random_tiny_net(rng)
            manifest, weights = save_tmp(g, tmp_path, f"m{i}")
            loaded = load_model(manifest, weights)
            assert validate(loaded) == []
            assert graph_checksum(loaded) == graph_checksum(g)

    def test_checksum_is_digest_of_serialized_graph(self, vgg_graph):
        rng = np.random.default_rng(12)
        for g in [random_tiny_net(rng) for _ in range(8)] + [vgg_graph]:
            manifest, container = serialize_graph(g)
            blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\0" + container
            assert graph_checksum(g) == hashlib.sha256(blob).hexdigest()

    def test_saved_files_are_serialized_graph(self, tmp_path):
        rng = np.random.default_rng(13)
        for i in range(6):
            g = random_tiny_net(rng)
            manifest_path, weights_path = save_tmp(g, tmp_path, f"m{i}")
            manifest, container = serialize_graph(g, weights_file=f"m{i}.bin")
            with open(weights_path, "rb") as f:
                assert f.read() == container
            with open(manifest_path, encoding="utf-8") as f:
                assert f.read() == json.dumps(manifest, indent=2) + "\n"

    def test_container_checksum_is_digest_of_saved_container(self, tmp_path):
        rng = np.random.default_rng(14)
        _, pruned = next(multi_pass(densenet40(seed=0), Config(per_pass_ratio=0.2)))  # multi_pass consumes its graph
        for i, g in enumerate([random_tiny_net(rng) for _ in range(4)] + [pruned]):
            _, weights_path = save_tmp(g, tmp_path, f"m{i}")
            with open(weights_path, "rb") as f:
                assert container_checksum(g) == hashlib.sha256(f.read()).hexdigest()

    def test_tensor_out_of_bounds(self, tmp_path):
        g = make_minimal()
        manifest_path, weights_path = save_tmp(g, tmp_path)
        doc = json.loads(Path(manifest_path).read_text())
        doc["nodes"][1]["tensors"]["weight"]["offset"] = doc["total_bytes"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="out of bounds"):
            load_model(str(bad), weights_path)

    def test_overlapping_regions(self, tmp_path):
        rng = np.random.default_rng(0)
        g = make_chain(rng, (4, 4), kernel=1)
        manifest_path, weights_path = save_tmp(g, tmp_path)
        doc = json.loads(Path(manifest_path).read_text())
        doc["nodes"][3]["tensors"]["weight"]["offset"] = doc["nodes"][1]["tensors"]["weight"]["offset"] + 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="overlap"):
            load_model(str(bad), weights_path)

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="malformed"):
            load_model(str(bad))

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1}))
        with pytest.raises(ManifestError, match="missing key"):
            load_model(str(bad))

    def test_container_size_mismatch(self, tmp_path):
        g = make_minimal()
        manifest_path, weights_path = save_tmp(g, tmp_path)
        with open(weights_path, "ab") as f:
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(ManifestError, match="bytes"):
            load_model(manifest_path, weights_path)

    def test_load_rejects_invalid_graph(self, tmp_path):
        g = make_minimal()
        manifest_path, weights_path = save_tmp(g, tmp_path)
        doc = json.loads(Path(manifest_path).read_text())
        doc["nodes"][1]["attrs"]["out_channels"] = 5  # weight tensor stays (4,3,3,3)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(GraphValidationError, match="weight shape"):
            load_model(str(bad), weights_path)

    def test_vgg_fixture_scored_layers(self, vgg_graph):
        convs = [n for n in vgg_graph.weighted_layers() if n.kind == "Conv2d"]
        linears = [n for n in vgg_graph.weighted_layers() if n.kind == "Linear"]
        assert len(convs) == 13
        assert len(linears) == 1

    def test_vgg_round_trip(self, vgg_graph, tmp_path):
        manifest, weights = save_tmp(vgg_graph, tmp_path, "vgg")
        loaded = load_model(manifest, weights)
        assert validate(loaded) == []
        for nid, node in loaded.nodes.items():
            for role, blob in node.tensors.items():
                assert np.array_equal(blob, vgg_graph.nodes[nid].tensors[role]), (nid, role)

    def test_in_select_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        b = GraphBuilder(3, 4)
        c1 = b.conv("c1", "input", conv_w(rng, 5, 3, 1))
        c2 = b.conv("c2", c1, conv_w(rng, 2, 3, 1), in_select=[0, 2, 4])
        gp = b.pool("gap", c2, "global-avg")
        fl = b.flatten("fl", gp)
        g = infer_shapes(b.output(b.linear("head", fl, rng.standard_normal((2, 2)).astype(np.float32))))
        manifest, weights = save_tmp(g, tmp_path)
        loaded = load_model(manifest, weights)
        assert loaded.nodes["c2"].in_select() == [0, 2, 4]
        infer_shapes(loaded)
        x = rng.standard_normal((3, 4, 4))
        assert np.allclose(forward_eval(loaded, x), forward_eval(g, x))

    def test_loaded_tensors_are_writable_views(self, tmp_path):
        rng = np.random.default_rng(21)
        g = make_chain(rng, (4, 6), with_bn=True, conv_bias=True)
        manifest, weights = save_tmp(g, tmp_path)
        loaded = load_model(manifest, weights)
        blobs = {(nid, role): b for nid, n in loaded.nodes.items() for role, b in n.tensors.items()}
        before = {key: data.copy() for key, data in blobs.items()}
        assert all(data.flags.writeable for data in blobs.values())
        loaded.nodes["conv2"].weight()[...] = 7.0
        for key, data in blobs.items():
            if key != ("conv2", "weight"):
                assert np.array_equal(data, before[key]), key
        assert np.all(loaded.nodes["conv2"].weight() == 7.0)

    def test_tensors_are_float32_arrays(self, tmp_path):
        # built, loaded and pruned graphs hold plain C-contiguous float32 arrays
        g = make_chain(np.random.default_rng(22), (4, 6), with_bn=True, conv_bias=True)
        loaded = load_model(*save_tmp(g, tmp_path))
        pruned = apply_units(g, build_prune_units(g).take([0]))
        for graph in (g, loaded, pruned):
            for node in graph.nodes.values():
                for t in node.tensors.values():
                    assert type(t) is np.ndarray and t.dtype == np.float32 and t.flags.c_contiguous

    def test_load_save_reproduces_container(self, tmp_path):
        rng = np.random.default_rng(22)
        manifest, weights = save_tmp(make_dense_toy(rng, with_bn=True), tmp_path)
        again = tmp_path / "again"
        again.mkdir()
        manifest2, weights2 = save_tmp(load_model(manifest, weights), again)
        assert Path(weights2).read_bytes() == Path(weights).read_bytes()
        assert Path(manifest2).read_bytes() == Path(manifest).read_bytes()

    def test_loaded_tensors_share_no_memory(self, tmp_path):
        g = make_dense_toy(np.random.default_rng(23), with_bn=True)
        loaded = load_model(*save_tmp(g, tmp_path))
        tensors = [t for node in loaded.nodes.values() for t in node.tensors.values()]
        assert all(t.flags.owndata for t in tensors)
        assert not any(np.shares_memory(a, b) for a, b in combinations(tensors, 2))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (_truncate, "weight container is 200 bytes, manifest declares 432"),
            (_shrink_while_read, "short read of weight container: conv.weight got 200 of 432 bytes"),
            (_bad_shape, r"conv.weight: bad shape \(0,\)"),
        ],
        ids=["truncated_in_tensor", "shrinks_while_read", "bad_shape"],
    )
    def test_failed_load_leaves_no_open_file(self, tmp_path, monkeypatch, spoil, message):
        manifest, weights = save_tmp(make_minimal(), tmp_path)
        spoil(manifest, weights, monkeypatch)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(builtins.open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(graph_module, "open", recording_open, raising=False)
        with pytest.raises(ManifestError, match=message):
            load_model(manifest, weights)
        assert len(opened) == 2 and all(f.closed for f in opened)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        import os
        from types import SimpleNamespace

        manifest, weights = save_tmp(make_minimal(), tmp_path)
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(ManifestError, match="short read"):
            load_model(manifest, weights)

    def test_structure_only_tensors_are_read_only_nan_placeholders(self, tmp_path):
        g = make_dense_toy(np.random.default_rng(24), with_bn=True)
        manifest, weights = save_tmp(g, tmp_path)
        full = load_model(manifest, weights)
        shell = infer_shapes(load_model(manifest, weights, structure_only=True))
        assert validate(shell) == []
        assert effective_model_costs(shell) == effective_model_costs(infer_shapes(full))
        assert [(n.id, n.kind, n.inputs, n.attrs) for n in shell.nodes.values()] == [
            (n.id, n.kind, n.inputs, n.attrs) for n in full.nodes.values()
        ]
        for nid, node in shell.nodes.items():
            assert node.tensors.keys() == full.nodes[nid].tensors.keys()
            for role, t in node.tensors.items():
                real = full.nodes[nid].tensors[role]
                assert (t.shape, t.dtype) == (real.shape, real.dtype)
                assert t.strides == (0,) * t.ndim and not t.flags.writeable
                assert np.isnan(t).all() and not np.isnan(real).any()  # nothing was read
                with pytest.raises(ValueError, match="read-only"):
                    t[(0,) * t.ndim] = 0.0

    @pytest.mark.parametrize(
        "spoil", ["truncate", "grow", "fstat", "bad_shape", "out_of_bounds", "overlap", "total_bytes", "epsilon"]
    )
    def test_structure_only_checks_what_a_full_load_checks(self, tmp_path, monkeypatch, spoil):
        g = make_chain(np.random.default_rng(25), (4, 4), kernel=1, with_bn=True)
        manifest, weights = save_tmp(g, tmp_path)
        doc = json.loads(Path(manifest).read_text())
        total = doc["total_bytes"]
        conv1, conv2 = doc["nodes"][1]["tensors"]["weight"], doc["nodes"][4]["tensors"]["weight"]
        error, message = ManifestError, None
        if spoil == "truncate":
            os.truncate(weights, 200)
            message = f"weight container is 200 bytes, manifest declares {total}"
        elif spoil == "grow":
            os.truncate(weights, total + 4)
            message = f"weight container is {total + 4} bytes, manifest declares {total}"
        elif spoil == "fstat":
            real_fstat = os.fstat
            monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
            message = f"short read of weight container: no byte at offset {total + 7} of {total + 8}"
        elif spoil == "bad_shape":
            conv1["shape"] = [0]
            message = r"conv1.weight: bad shape \(0,\)"
        elif spoil == "out_of_bounds":
            conv1["offset"] = total
            message = "conv1.weight: tensor out of bounds"
        elif spoil == "overlap":
            conv2["offset"] = conv1["offset"] + 4
            message = "overlapping tensor regions"
        elif spoil == "total_bytes":
            doc["total_bytes"] = float(total)
            message = f"manifest total_bytes must be a non-negative int, got float {float(total)!r}"
        else:
            doc["nodes"][2]["attrs"]["epsilon"] = "1e-5"
            error, message = GraphValidationError, "bn1: BatchNorm2d epsilon must be a finite number"
        Path(manifest).write_text(json.dumps(doc))
        with pytest.raises(error, match=message):
            load_model(manifest, weights, structure_only=True)


class TestBuilderAndNodes:
    def test_width_accessors_refuse_a_node_without_weights(self):
        node = LayerNode(id="relu1", kind="ReLU", inputs=["conv1"])
        for accessor, what in ((node.declared_in_width, "input width"), (node.declared_out_width, "declared width"), (node.kernel, "kernel")):
            with pytest.raises(ValueError, match=f"^node relu1 has no {what}$"):
                accessor()

    def test_duplicate_node_id_rejected(self):
        b = GraphBuilder(3, 8)
        b.relu("r", "input")
        with pytest.raises(ValueError, match="^duplicate node id 'r'$"):
            b.relu("r", "input")

    def test_linear_in_select(self):
        rng = np.random.default_rng(14)
        b = GraphBuilder(3, 4)
        prev = b.flatten("flat", b.pool("gap", b.conv("conv1", "input", conv_w(rng, 4, 3, 3), padding=1), "global-avg"))
        g = infer_shapes(b.output(b.linear("head", prev, rng.standard_normal((5, 2)).astype(np.float32), in_select=[0, 2])))
        head = g.nodes["head"]
        assert validate(g) == []
        assert (head.in_select(), head.declared_in_width(), head.kernel()) == ([0, 2], 2, 1)
        x = rng.standard_normal((3, 4, 4))
        assert np.allclose(forward_eval(g, x), loop_forward(g, x))

    def test_shape_dependent_stages_need_inferred_shapes(self):
        g = make_chain(np.random.default_rng(15), (4, 6))
        units = build_prune_units(g)
        g.inferred = False
        with pytest.raises(ShapeError, match="^run infer_shapes before forward_eval$"):
            forward_eval(g, np.zeros((3, 8, 8)))
        with pytest.raises(ShapeError, match="^run infer_shapes before cost accounting$"):
            effective_model_costs(g)
        with pytest.raises(PruneKitError, match="^run infer_shapes before surgery$"):
            apply_units(g, units)


class TestValidate:
    def test_well_formed(self):
        rng = np.random.default_rng(1)
        assert validate(make_chain(rng, (4, 6), with_bn=True)) == []

    @pytest.mark.parametrize("value", [0, 0.0, 1e-5, 1, 0.5, 1e-300, sys.float_info.max])
    def test_batchnorm_epsilon_accepts_finite_numbers_of_at_least_0(self, value):
        g = make_chain(np.random.default_rng(2), (4,), with_bn=True)
        g.nodes["bn1"].attrs["epsilon"] = value
        assert validate(g) == []

    @pytest.mark.parametrize("value", ["x", None, "1e-5", -1.0, -1e-300, True, False, math.inf, -math.inf, math.nan, 10**400, [1e-5]])
    def test_batchnorm_epsilon_rejects_other_values(self, value):
        g = make_chain(np.random.default_rng(2), (4,), with_bn=True)
        g.nodes["bn1"].attrs["epsilon"] = value
        assert validate(g) == [f"bn1: BatchNorm2d epsilon must be a finite number of at least 0, got {value!r}"]

    def test_batchnorm_epsilon_defaults_to_1e_5(self):
        g = make_chain(np.random.default_rng(2), (4,), with_bn=True)
        x = np.random.default_rng(3).standard_normal((2, 3, 8, 8))
        g.nodes["bn1"].attrs["epsilon"] = 1e-5
        explicit = forward_eval(g, x)
        del g.nodes["bn1"].attrs["epsilon"]
        assert validate(g) == []
        assert np.array_equal(forward_eval(g, x), explicit)

    def test_bn_channel_mismatch(self):
        rng = np.random.default_rng(2)
        g = make_chain(rng, (4,), with_bn=True)
        g.nodes["bn1"].attrs["channels"] = 3
        # the producer's width is infer_shapes' to check; the tensors are validate's
        assert "bn1: gamma shape (4,) does not match (3,)" in validate(g)

    def test_cycle_detected(self):
        rng = np.random.default_rng(3)
        g = make_chain(rng, (4, 6))
        g.nodes["conv1"].inputs = ["relu2"]
        assert any("cyclic" in v for v in validate(g))

    def test_dangling_input(self):
        rng = np.random.default_rng(4)
        g = make_chain(rng, (4,))
        g.nodes["conv1"].inputs = ["ghost"]
        assert any("does not exist" in v for v in validate(g))

    def test_out_of_order_manifest_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        g = make_chain(rng, (4,))
        manifest_path, weights_path = save_tmp(g, tmp_path)
        doc = json.loads(Path(manifest_path).read_text())
        doc["nodes"] = doc["nodes"][::-1]  # acyclic but reversed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(GraphValidationError, match="not topological"):
            load_model(str(bad), weights_path)

    def test_nonsquare_kernel_rejected(self):
        b = GraphBuilder(3, 8)
        with pytest.raises(ValueError, match="square"):
            b.conv("c", "input", np.zeros((4, 3, 3, 2), np.float32))


def _conv_linear_net():
    """Input(3, 8) -> conv(3->4, K=3, pad 1, bias) -> gap -> flat -> fc(4->5, bias) -> Output."""
    rng = np.random.default_rng(0)
    b = GraphBuilder(3, 8)
    c = b.conv("conv", "input", conv_w(rng, 4, 3, 3), bias=np.zeros(4, np.float32), padding=1)
    f = b.flatten("flat", b.pool("gap", c, "global-avg"))
    fc = b.linear("fc", f, rng.standard_normal((5, 4)).astype(np.float32), bias=np.zeros(5, np.float32))
    return b.output(fc)


def _set_attrs(nid, **attrs):
    return lambda g: g.nodes[nid].attrs.update(attrs)


def _drop_attr(nid, key):
    return lambda g: g.nodes[nid].attrs.pop(key)


def _set_tensors(nid, **shapes):
    return lambda g: g.nodes[nid].tensors.update({r: np.zeros(s, np.float32) for r, s in shapes.items()})


def _drop_tensor(nid, role):
    return lambda g: g.nodes[nid].tensors.pop(role)


def _set_kind(nid, kind):
    return lambda g: setattr(g.nodes[nid], "kind", kind)


def _as_bn(nid, channels, roles=("gamma", "beta", "running_mean", "running_var")):
    """Node ``nid`` made a BatchNorm2d of ``channels`` with tensors of ``roles``."""

    def mutate(g):
        node = g.nodes[nid]
        node.kind, node.attrs = "BatchNorm2d", {"channels": channels}
        node.tensors = {role: np.ones(4, np.float32) for role in roles}

    return mutate


# Conv2d and Linear share one code path; these pin its messages for both kinds.
_CONV_NEEDS = ["conv: Conv2d needs positive in_channels/out_channels/kernel"]
_FC_NEEDS = ["fc: Linear needs positive in_features/out_features"]
VALIDATE_CASES = {
    "conv-in-zero": (_set_attrs("conv", in_channels=0), _CONV_NEEDS),
    "conv-in-missing": (_drop_attr("conv", "in_channels"), _CONV_NEEDS),
    "conv-kernel-missing": (_drop_attr("conv", "kernel"), _CONV_NEEDS),
    "conv-kernel-str": (_set_attrs("conv", kernel="3"), _CONV_NEEDS),
    "conv-stride-zero": (_set_attrs("conv", stride=0), ["conv: bad stride/padding"]),
    "conv-padding-negative": (_set_attrs("conv", padding=-1), ["conv: bad stride/padding"]),
    "conv-weight-missing": (_drop_tensor("conv", "weight"), ["conv: missing weight tensor"]),
    "conv-weight-shape": (
        _set_tensors("conv", weight=(3, 4, 3, 3)),
        ["conv: weight shape (3, 4, 3, 3) does not match (4, 3, 3, 3)"],
    ),
    "conv-bias-shape": (_set_tensors("conv", bias=(3,)), ["conv: bias shape (3,) does not match (4,)"]),
    "conv-weight-and-bias": (
        _set_tensors("conv", weight=(4, 3, 1, 1), bias=(5,)),
        [
            "conv: weight shape (4, 3, 1, 1) does not match (4, 3, 3, 3)",
            "conv: bias shape (5,) does not match (4,)",
        ],
    ),
    "conv-in-select-type": (
        _set_attrs("conv", in_select="012"),
        ["conv: in_select must be a list of nonnegative integers"],
    ),
    "conv-in-select-length": (
        _set_attrs("conv", in_select=[0, 1]),
        ["conv: in_select length 2 does not match input width 3"],
    ),
    "conv-in-select-order": (_set_attrs("conv", in_select=[2, 1, 0]), ["conv: in_select must be strictly increasing"]),
    "fc-in-zero": (_set_attrs("fc", in_features=0), _FC_NEEDS),
    "fc-in-missing": (_drop_attr("fc", "in_features"), _FC_NEEDS),
    "fc-in-float": (_set_attrs("fc", in_features=4.0), _FC_NEEDS),
    "fc-weight-missing": (_drop_tensor("fc", "weight"), ["fc: missing weight tensor"]),
    "fc-weight-4d": (_set_tensors("fc", weight=(5, 4, 1, 1)), ["fc: weight shape (5, 4, 1, 1) does not match (5, 4)"]),
    "fc-bias-shape": (_set_tensors("fc", bias=(4,)), ["fc: bias shape (4,) does not match (5,)"]),
    "fc-in-select-negative": (
        _set_attrs("fc", in_select=[-1, 0, 1, 2]),
        ["fc: in_select must be a list of nonnegative integers"],
    ),
    "fc-in-select-length": (
        _set_attrs("fc", in_select=[0, 1]),
        ["fc: in_select length 2 does not match input width 4"],
    ),
    "fc-in-select-order": (_set_attrs("fc", in_select=[3, 2, 1, 0]), ["fc: in_select must be strictly increasing"]),
    # kernel, stride and padding are Conv2d attributes: a Linear node ignores them
    "fc-stray-conv-attrs": (_set_attrs("fc", kernel=3, stride=0, padding=2), []),
    "two-inputs": (
        lambda g: (g.nodes.update(input2=LayerNode("input2", "Input", [])), g.order.insert(1, "input2")),
        ["graph must have exactly one Input node, found 2"],
    ),
    "no-output": (_set_kind("output", "ReLU"), ["graph must have exactly one Output node, found 0"]),
    "input-with-inputs": (
        lambda g: setattr(g.nodes["input"], "inputs", ["ghost"]),
        ["input: input 'ghost' does not exist", "input: Input node cannot have inputs"],
    ),
    "add-one-input": (_set_kind("gap", "Add"), ["gap: Add needs at least two inputs"]),
    "concat-one-input": (_set_kind("gap", "Concat"), ["gap: Concat needs at least two inputs"]),
    "bn-channels-zero": (_as_bn("gap", 0), ["gap: BatchNorm2d needs positive channels"]),
    "bn-running-var-missing": (
        _as_bn("gap", 4, ("gamma", "beta", "running_mean")),
        ["gap: missing running_var tensor"],
    ),
    "pool-mode-unknown": (_set_attrs("gap", pool="median"), ["gap: unknown pool mode 'median'"]),
    "pool-kernel-zero": (
        _set_attrs("gap", pool="max", kernel=0, stride=2),
        ["gap: pool needs positive kernel and stride"],
    ),
    "order-omits-node": (lambda g: g.order.remove("gap"), ["node order must list every node exactly once"]),
    "order-lists-node-twice": (lambda g: g.order.insert(3, "conv"), ["node order must list every node exactly once"]),
}

INFER_CASES = {
    "conv-width-mismatch": (lambda g: setattr(g, "input_channels", 2), "conv: in_channels 3 does not match producer width 2"),
    "conv-kernel-too-large": (
        lambda g: (setattr(g, "input_size", 2), g.nodes["conv"].attrs.update(padding=0)),
        "conv: kernel 3 larger than padded input 2",
    ),
    "fc-width-mismatch": (
        _set_attrs("gap", pool="max", kernel=2, stride=2),
        "fc: in_features 4 does not match producer width 64",
    ),
    "conv-in-select-range": (_set_attrs("conv", in_select=[0, 1, 3]), "conv: in_select exceeds producer width 3"),
    "fc-in-select-range": (_set_attrs("fc", in_select=[0, 1, 2, 4]), "fc: in_select exceeds producer width 4"),
    "fc-spatial-size": (lambda g: setattr(g.nodes["fc"], "inputs", ["conv"]), "fc: Linear requires spatial size 1 input, got 8"),
}


def _graph(size, body, input_channels=3):
    """Input(input_channels, size) -> the nodes ``body(builder, rng)`` adds -> Output."""
    b = GraphBuilder(input_channels, size)
    return b.output(body(b, np.random.default_rng(0)))


def _join(join, widths=(4, 4), kernels=(1, 1), size=8):
    """Two unpadded convs a and c on the input, joined by ``join`` ("addnode"
    or "concat") as node ``add`` / ``cat``."""

    def body(b, rng):
        a, c = (b.conv(nid, "input", conv_w(rng, n, 3, k)) for nid, n, k in zip("ac", widths, kernels))
        return getattr(b, join)({"addnode": "add", "concat": "cat"}[join], [a, c])

    return lambda: _graph(size, body)


def _bn(b, src, channels):
    roles = ("gamma", "beta", "running_mean", "running_var")
    return b.batchnorm("bn", src, **{role: np.ones(channels, np.float32) for role in roles})


def _flat_plus_conv(b, rng):
    """Add(Flatten(input), a 1x1 conv of the input) on a 4-channel 1x1 input."""
    return b.addnode("add", [b.flatten("flat", "input"), b.conv("conv", "input", conv_w(rng, 4, 4, 1))])


def _flat_plus_pooled_conv(b, rng):
    """Add(Flatten(input), a 1x1 conv of the globally pooled input)."""
    pooled = b.pool("gap", "input", "global-avg")
    return b.addnode("add", [b.flatten("flat", "input"), b.conv("c", pooled, conv_w(rng, 4, 3, 1))])


# Messages whose checks read the per-kind shape rules: (graph, validate's
# violations, infer_shapes' ShapeError).
SHAPE_RULE_CASES = {
    "add-size-disagreement": (_join("addnode", kernels=(1, 3)), [], "add: Add operands disagree (widths [4], sizes [6, 8])"),
    "add-width-disagreement": (
        lambda: _graph(2, _flat_plus_pooled_conv),
        [],
        "add: Add operands disagree (widths [4, 12], sizes [1])",
    ),
    "concat-size-disagreement": (_join("concat", kernels=(1, 3)), [], "cat: Concat operands disagree on spatial size [6, 8]"),
    "pool-kernel-too-large": (
        lambda: _graph(8, lambda b, rng: b.pool("pool", "input", "max", kernel=9, stride=1)),
        [],
        "pool: pool kernel 9 larger than input 8",
    ),
    "bn-after-flatten": (
        lambda: _graph(2, lambda b, rng: _bn(b, b.flatten("flat", "input"), 3)),
        [],
        "bn: channel count 3 vs producer width 12",
    ),
    "unknown-kind": (
        lambda: _graph(8, lambda b, rng: b.add("odd", "Bogus", "input")),
        ["odd: unknown node kind 'Bogus'"],
        "odd: cannot infer shape for kind 'Bogus'",
    ),
    # validate checks no width against a producer's: infer_shapes alone does
    "validate-add-widths": (
        _join("addnode", widths=(4, 5)),
        [],
        "add: Add operands disagree (widths [4, 5], sizes [8])",
    ),
    "validate-bn-width": (
        lambda: _graph(8, lambda b, rng: _bn(b, b.conv("conv", "input", conv_w(rng, 4, 3, 1)), 3)),
        [],
        "bn: channel count 3 vs producer width 4",
    ),
    # the Add passes its first operand's width, a Flatten's, on to the BatchNorm
    "validate-add-first-known-operand": (
        lambda: _graph(1, lambda b, rng: _bn(b, _flat_plus_conv(b, rng), 5), input_channels=4),
        [],
        "bn: channel count 5 vs producer width 4",
    ),
}


class TestWeightedLayerMessages:
    @pytest.mark.parametrize("case", sorted(SHAPE_RULE_CASES))
    def test_shape_rule_messages(self, case):
        build, violations, error = SHAPE_RULE_CASES[case]
        g = build()
        assert validate(g) == violations
        with pytest.raises(ShapeError) as info:
            infer_shapes(g)
        assert str(info.value) == error

    @pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
    def test_validate_violations(self, case):
        mutate, expected = VALIDATE_CASES[case]
        g = _conv_linear_net()
        mutate(g)
        assert validate(g) == expected

    @pytest.mark.parametrize("case", sorted(INFER_CASES))
    def test_infer_shapes_error(self, case):
        mutate, expected = INFER_CASES[case]
        g = _conv_linear_net()
        mutate(g)
        assert validate(g) == []
        with pytest.raises(ShapeError) as info:
            infer_shapes(g)
        assert str(info.value) == expected

    def test_conv_in_select_beyond_flattened_producer(self):
        b = GraphBuilder(3, 2)
        f = b.flatten("flat", "input")  # width 12: infer_shapes checks in_select against it
        g = b.output(b.conv("conv", f, conv_w(np.random.default_rng(0), 4, 3, 1), in_select=[0, 5, 12]))
        assert validate(g) == []
        with pytest.raises(ShapeError) as info:
            infer_shapes(g)
        assert str(info.value) == "conv: in_select exceeds producer width 12"

    @pytest.mark.parametrize("nid, key, value", [("conv", "out_channels", None), ("conv", "out_channels", "abc"), ("fc", "out_features", [5])])
    def test_bad_out_width_is_a_violation(self, nid, key, value):
        g = _conv_linear_net()
        g.nodes[nid].attrs[key] = value
        if value is None:
            del g.nodes[nid].attrs[key]
        assert validate(g) == {"conv": _CONV_NEEDS, "fc": _FC_NEEDS}[nid]

    def test_linear_ignores_conv_attrs(self):
        g = _conv_linear_net()
        clean = infer_shapes(_conv_linear_net())
        g.nodes["fc"].attrs.update(kernel=3, stride=2, padding=2)
        infer_shapes(g)
        assert (g.nodes["fc"].in_size, g.nodes["fc"].out_size, g.nodes["fc"].kernel()) == (1, 1, 1)
        assert effective_model_costs(g) == effective_model_costs(clean)


class TestInferShapes:
    def test_same_padding_identity(self):
        rng = np.random.default_rng(7)
        g = make_chain(rng, (4,), kernel=3, input_size=32)
        assert g.nodes["conv1"].in_size == 32
        assert g.nodes["conv1"].out_size == 32

    def test_pool_halves(self):
        b = GraphBuilder(3, 32)
        p = b.pool("p", "input", "max", kernel=2, stride=2)
        g = infer_shapes(b.output(p))
        assert g.nodes["p"].out_size == 16

    def test_vgg_block_spatial_sizes(self, vgg_graph):
        expected = {"conv1_1": 32, "conv2_1": 16, "conv3_1": 8, "conv4_1": 4, "conv5_1": 2}
        for nid, size in expected.items():
            assert vgg_graph.nodes[nid].in_size == size, nid

    def test_negative_size_rejected(self):
        rng = np.random.default_rng(8)
        b = GraphBuilder(3, 2)
        b.conv("c", "input", conv_w(rng, 4, 3, 5))
        g = b.output("c")
        with pytest.raises(ShapeError, match="larger than"):
            infer_shapes(g)

    def test_add_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        b = GraphBuilder(3, 8)
        a = b.conv("a", "input", conv_w(rng, 4, 3, 1))
        c = b.conv("c", "input", conv_w(rng, 4, 3, 3))  # no padding: 6x6 vs 8x8
        b.addnode("add", [a, c])
        g = b.output("add")
        with pytest.raises(ShapeError, match="disagree"):
            infer_shapes(g)

    def test_flatten_records_spatial(self):
        rng = np.random.default_rng(10)
        g = make_dense_toy(rng)
        assert g.nodes["flat"].in_size == 1  # after global pool
        from conftest import make_flatten_toy

        g2 = make_flatten_toy(rng, size=4)
        assert g2.nodes["flat"].in_size == 4
        assert g2.nodes["flat"].out_channels == g2.nodes["conv1"].out_channels * 16

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        g = make_chain(rng, (4, 6))
        first = {nid: (n.in_size, n.out_size, n.out_channels) for nid, n in g.nodes.items()}
        infer_shapes(g)
        second = {nid: (n.in_size, n.out_size, n.out_channels) for nid, n in g.nodes.items()}
        assert first == second


# One-conv graphs on a 6x6 input for both of forward_eval's contraction orders:
# (filters, channels) narrowing 16 -> 1 or widening 2 -> 4, by kernel, stride
# and padding.
CONV_GRID = [
    (f, m, k, stride, pad)
    for f, m in ((1, 16), (4, 2))
    for k in (1, 3)
    for stride in (1, 2, 3)
    for pad in (0, 1, 2)
]


def _one_conv(rng, f, m, k, stride, pad, bias=False, select=False):
    """A graph of one conv on a 6x6 input, and the number of input channels."""
    channels = m + 3 if select else m
    b = GraphBuilder(channels, 6)
    c = b.conv(
        "c",
        "input",
        conv_w(rng, f, m, k),
        bias=rng.standard_normal(f).astype(np.float32) if bias else None,
        stride=stride,
        padding=pad,
        in_select=sorted(rng.choice(channels, m, replace=False).tolist()) if select else None,
    )
    return infer_shapes(b.output(c)), channels


class TestForwardEval:
    def test_identity_kernel(self):
        b = GraphBuilder(1, 4)
        b.conv("c", "input", np.ones((1, 1, 1, 1), np.float32))
        g = infer_shapes(b.output("c"))
        x = np.random.default_rng(0).standard_normal((1, 4, 4))
        assert np.allclose(forward_eval(g, x), x)

    def test_all_zero_weights(self):
        rng = np.random.default_rng(13)
        g = make_chain(rng, (4, 6))
        for node in g.weighted_layers():
            node.weight()[:] = 0.0
        x = rng.standard_normal((3, 8, 8))
        assert np.all(forward_eval(g, x) == 0.0)

    def test_shape_mismatch(self):
        g = make_minimal()
        with pytest.raises(ShapeError, match="input shape"):
            forward_eval(g, np.zeros((3, 4, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(12):
            g = random_tiny_net(rng)
            x = rng.standard_normal((g.input_channels, g.input_size, g.input_size))
            got = forward_eval(g, x)
            ref = loop_forward(g, x)
            assert np.allclose(got, ref, rtol=1e-5, atol=1e-9)

    def test_single_input_keeps_its_shape(self):
        rng = np.random.default_rng(23)
        g = make_chain(rng, (4,))
        x = rng.standard_normal((3, 8, 8))
        assert forward_eval(g, x).shape == (5,)
        b = GraphBuilder(3, 8)
        g2 = infer_shapes(b.output(b.conv("c", "input", conv_w(rng, 4, 3, 3), padding=1)))
        assert forward_eval(g2, x).shape == (4, 8, 8)

    def test_batch_matches_single_calls_and_oracle(self):
        rng = np.random.default_rng(24)
        g = make_dense_toy(rng, with_bn=True)
        xs = rng.standard_normal((3, 3, 8, 8))
        got = assert_batch_matches_oracle(g, xs)
        assert got.shape == (3, 5)
        for row, x in zip(got, xs):
            assert np.allclose(row, forward_eval(g, x), rtol=1e-12, atol=0)
        assert forward_eval(g, xs[:0]).shape == (0, 5)

    def test_batch_with_wrong_channels_rejected(self):
        g = make_minimal()
        with pytest.raises(ShapeError, match="input shape"):
            forward_eval(g, np.zeros((2, 4, 8, 8)))
        with pytest.raises(ShapeError, match="input shape"):
            forward_eval(g, np.zeros((1, 2, 3, 8, 8)))

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (1, 2, 0), (3, 1, 0)])
    def test_strided_conv_matches_loop_oracle(self, kernel, stride, padding):
        rng = np.random.default_rng(25)
        b = GraphBuilder(3, 9)
        bias = rng.standard_normal(4).astype(np.float32)
        c = b.conv("c", "input", conv_w(rng, 4, 3, kernel), bias=bias, stride=stride, padding=padding)
        g = infer_shapes(b.output(c))
        assert_batch_matches_oracle(g, rng.standard_normal((2, 3, 9, 9)))

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_pool_matches_loop_oracle(self, mode, kernel, stride):
        rng = np.random.default_rng(26)
        b = GraphBuilder(3, 9)
        c = b.conv("c", "input", conv_w(rng, 4, 3, 3), padding=1)
        p = b.pool("p", c, mode, kernel=kernel, stride=stride)
        g = infer_shapes(b.output(p))
        got = assert_batch_matches_oracle(g, rng.standard_normal((2, 3, 9, 9)))
        assert got.shape == (2, 4, g.nodes["p"].out_size, g.nodes["p"].out_size)

    def test_in_select_matches_loop_oracle(self):
        rng = np.random.default_rng(27)
        g = make_dense_toy(rng, with_bn=True)
        units = build_prune_units(g)
        pruned = apply_units(g, units.take([units.kind.index(IN_CHANNEL_ONLY)]))
        assert any(n.in_select() is not None for n in pruned.nodes.values() if n.kind == "Conv2d")
        assert_batch_matches_oracle(pruned, rng.standard_normal((2, 3, 8, 8)))

    def test_spatial_flatten_matches_loop_oracle(self):
        rng = np.random.default_rng(28)
        g = make_flatten_toy(rng, channels=3, size=4)
        assert g.nodes["flat"].in_size == 4
        assert_batch_matches_oracle(g, rng.standard_normal((2, 2, 4, 4)))

    @pytest.mark.parametrize("make", ["fan_out_and_twice_read_add", "residual", "flatten", "in_select"])
    def test_leaves_input_and_tensors_unchanged(self, make):
        # BatchNorm2d, ReLU and Add may write into an operand this call made,
        # never into the caller's input, a tensor, or an operand read twice
        rng = np.random.default_rng(31)
        if make == "fan_out_and_twice_read_add":
            b = GraphBuilder(3, 8)
            a0 = b.addnode("a0", ["input", b.conv("c0", "input", conv_w(rng, 3, 3, 1))])  # the last read of x
            c1 = b.conv("c1", b.relu("r0", a0), conv_w(rng, 4, 3, 3), padding=1)
            r1 = b.relu("r1", b.batchnorm("bn1", c1, **bn_params(rng, 4)))
            twice = b.relu("r2", b.addnode("twice", [r1, r1]))
            c2 = b.relu("r4", b.conv("c2", r1, conv_w(rng, 4, 4, 1)))
            dbl = b.addnode("dbl", [c2, c2])  # the last read of r4
            s = b.relu("r3", b.batchnorm("bn2", b.addnode("sum", [twice, dbl, r1]), **bn_params(rng, 4)))
            flat = b.flatten("flat", b.pool("gap", s, "global-avg"))
            g = infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 4)).astype(np.float32))))
        elif make == "residual":
            g = make_residual_toy(rng, width=6, planes=3, blocks=2)
        elif make == "flatten":
            g = make_flatten_toy(rng, channels=3, size=4)
        else:
            dense = make_dense_toy(rng, with_bn=True)
            units = build_prune_units(dense)
            g = apply_units(dense, units.take([units.kind.index(IN_CHANNEL_ONLY)]))
            assert any(n.in_select() is not None for n in g.nodes.values())
        before = graph_checksum(g)
        xs = rng.standard_normal((3, g.input_channels, g.input_size, g.input_size))
        kept = xs.copy()
        got = assert_batch_matches_oracle(g, xs)
        assert np.array_equal(xs, kept)
        assert np.array_equal(forward_eval(g, xs), got)
        assert np.array_equal(forward_eval(g, xs[0]), forward_eval(g, xs[:1])[0])
        assert np.array_equal(xs, kept)
        assert graph_checksum(g) == before

    def test_conv_grid_takes_both_contraction_orders(self, monkeypatch):
        taken = {"_conv_channels_first": [], "_conv_im2col": []}
        for name, cases in taken.items():
            def counted(node, *args, real=getattr(eval_module, name), cases=cases):
                cases.append(node.weight().shape[:3] + graph_module.sliding_window(node)[1:])  # (f, m, k, stride, pad)
                return real(node, *args)
            monkeypatch.setattr(eval_module, name, counted)
        rng = np.random.default_rng(30)
        for case in CONV_GRID:
            g, channels = _one_conv(rng, *case)
            forward_eval(g, rng.standard_normal((1, channels, 6, 6)))
        first, im2col = taken["_conv_channels_first"], taken["_conv_im2col"]
        assert len(first) + len(im2col) == len(CONV_GRID)
        assert {stride for _, _, _, stride, _ in first} == {1, 2, 3}
        assert {pad for _, _, _, _, pad in first} == {0, 1, 2}
        assert im2col
        # A narrowing 1x1, stride-1, unpadded layer reads its columns as a view of its input.
        assert (1, 16, 1, 1, 0) in im2col

    @pytest.mark.parametrize("select", [False, True], ids=["full", "in_select"])
    @pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
    @pytest.mark.parametrize("f,m,k,stride,pad", CONV_GRID)
    def test_conv_matches_loop_oracle_in_both_orders(self, f, m, k, stride, pad, bias, select):
        rng = np.random.default_rng(29)
        g, channels = _one_conv(rng, f, m, k, stride, pad, bias, select)
        xs = rng.standard_normal((3, channels, 6, 6))
        for batch in (0, 1, 3):
            got = assert_batch_matches_oracle(g, xs[:batch], rtol=1e-12, atol=1e-12)
            assert got.shape == (batch, f, g.nodes["c"].out_size, g.nodes["c"].out_size)

    @pytest.mark.parametrize("f,m,k,stride,pad", CONV_GRID)
    def test_one_filter_blocks_match_loop_oracle_and_default_block(self, monkeypatch, f, m, k, stride, pad):
        rng = np.random.default_rng(32)
        g, channels = _one_conv(rng, f, m, k, stride, pad, bias=True)
        xs = rng.standard_normal((3, channels, 6, 6))
        default = forward_eval(g, xs)
        monkeypatch.setattr(eval_module, "_BLOCK_VALUES", 1)  # every filter converted and multiplied alone
        got = assert_batch_matches_oracle(g, xs, rtol=1e-12, atol=1e-12)
        assert np.allclose(got, default, rtol=1e-12, atol=1e-12)
        assert forward_eval(g, xs[:0]).shape == (0, *default.shape[1:])

    def test_one_row_blocks_in_linear_layer(self, monkeypatch):
        rng = np.random.default_rng(33)
        g = make_flatten_toy(rng, channels=3, size=4)
        xs = rng.standard_normal((2, 2, 4, 4))
        default = forward_eval(g, xs)
        monkeypatch.setattr(eval_module, "_BLOCK_VALUES", 1)
        assert np.allclose(assert_batch_matches_oracle(g, xs), default, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layer", ["conv5_1", "conv5_2", "conv5_3"])
    def test_vgg16_conv5_evaluation_holds_no_float64_layer(self, vgg_graph, layer):
        # 512x512x3x3 weights are 9.4 MB as float32 and 18.9 MB as float64
        node = vgg_graph.nodes[layer]
        a = np.random.default_rng(34).standard_normal((2, 512, node.in_size, node.in_size))
        tracemalloc.start()
        try:
            eval_module._conv2d(node, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < node.weight().nbytes

    def test_layer_in_one_block_returns_its_product(self, monkeypatch):
        # no output buffer beside the product unless the layer takes two blocks or more
        class EmptySpy:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                EmptySpy.calls += 1
                return np.empty(*args, **kwargs)

        rng = np.random.default_rng(35)
        w = rng.standard_normal((4, 8)).astype(np.float32)
        right = rng.standard_normal((2, 8, 5))
        monkeypatch.setattr(eval_module, "np", EmptySpy())
        assert np.array_equal(eval_module._product(w, right), w.astype(np.float64) @ right)
        assert EmptySpy.calls == 0
        monkeypatch.setattr(eval_module, "_BLOCK_VALUES", 8 * 3)  # blocks of 3 and 1 rows
        assert np.allclose(eval_module._product(w, right), w.astype(np.float64) @ right, rtol=1e-12, atol=1e-12)
        assert EmptySpy.calls == 1


VGG16_CONV_WIDTHS = (64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512)


def vgg16_param_count(input_size: int, num_classes: int = 10) -> int:
    """Biased 3x3 convs, BN gamma/beta, and a biased classifier over the
    512 x (input_size/32)^2 flattened features."""
    total, m = 0, 3
    for n in VGG16_CONV_WIDTHS:
        total += 9 * m * n + n + 2 * n
        m = n
    return total + 512 * (input_size // 32) ** 2 * num_classes + num_classes


class TestZooSizes:
    def test_vgg16_at_64_evaluates_a_batch(self):
        g = vgg16(seed=1, input_size=64)
        assert g.nodes["classifier"].declared_in_width() == 512 * 4
        y = forward_eval(g, np.random.default_rng(0).standard_normal((2, 3, 64, 64)))
        assert y.shape == (2, 10)
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("size", [32, 224])
    def test_vgg16_param_count(self, size):
        g = vgg16(seed=0, input_size=size)
        assert validate(g) == []
        infer_shapes(g)
        assert g.nodes["flatten"].out_channels == 512 * (size // 32) ** 2
        assert model_param_count(g) == vgg16_param_count(size)

    @pytest.mark.parametrize("size", [0, 16, 48, 100])
    def test_vgg16_rejects_size_not_multiple_of_32(self, size):
        with pytest.raises(ShapeError, match="multiple of 32"):
            vgg16(input_size=size)
