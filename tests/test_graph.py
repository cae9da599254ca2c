"""Model IR: manifest round-trips, validation, shape inference, evaluation."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from prunekit import (
    GraphBuilder,
    GraphValidationError,
    ManifestError,
    ShapeError,
    apply_units,
    build_prune_units,
    forward_eval,
    graph_checksum,
    infer_shapes,
    load_model,
    model_param_count,
    save_model,
    validate,
)
from prunekit.costs import effective_model_costs
from prunekit.graph import serialize_graph
from prunekit.units import IN_CHANNEL_ONLY
from prunekit.zoo import vgg16

from conftest import (
    conv_w,
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_minimal,
    random_tiny_net,
    save_tmp,
)
from oracles import loop_forward


def assert_batch_matches_oracle(g, xs):
    """forward_eval on the batch ``xs`` equals loop_forward row by row."""
    got = forward_eval(g, xs)
    assert len(got) == len(xs)
    for row, x in zip(got, xs):
        assert np.allclose(row, loop_forward(g, x), rtol=1e-5, atol=1e-9)
    return got


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

    def test_save_model_returns_file_digests(self, tmp_path):
        rng = np.random.default_rng(14)
        for i in range(4):
            manifest_path, weights_path = str(tmp_path / f"m{i}.json"), str(tmp_path / f"m{i}.bin")
            digests = save_model(random_tiny_net(rng), manifest_path, weights_path, digests=True)
            on_disk = []
            for path in (manifest_path, weights_path):
                with open(path, "rb") as f:
                    on_disk.append(hashlib.sha256(f.read()).hexdigest())
            assert digests == tuple(on_disk)

    def test_save_model_hashes_only_when_asked(self, tmp_path):
        g = random_tiny_net(np.random.default_rng(15))
        plain = (str(tmp_path / "a.json"), str(tmp_path / "a.bin"))
        hashed = (str(tmp_path / "b.json"), str(tmp_path / "b.bin"))
        assert save_model(g, *plain) is None
        save_model(g, *hashed, digests=True)
        for a, b in zip(plain, hashed):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read().replace(b"a.bin", b"b.bin") == fb.read()

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
        pruned = apply_units(g, [build_prune_units(g)[0]])
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

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        import os
        from types import SimpleNamespace

        manifest, weights = save_tmp(make_minimal(), tmp_path)
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(ManifestError, match="short read"):
            load_model(manifest, weights)


class TestValidate:
    def test_well_formed(self):
        rng = np.random.default_rng(1)
        assert validate(make_chain(rng, (4, 6), with_bn=True)) == []

    def test_bn_channel_mismatch(self):
        rng = np.random.default_rng(2)
        g = make_chain(rng, (4,), with_bn=True)
        g.nodes["bn1"].attrs["channels"] = 3
        violations = validate(g)
        assert any("bn1" in v and "producer width" in v for v in violations)

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

    def test_add_width_disagreement(self):
        rng = np.random.default_rng(6)
        b = GraphBuilder(3, 8)
        a = b.conv("a", "input", conv_w(rng, 4, 3, 1))
        c = b.conv("c", "input", conv_w(rng, 5, 3, 1))
        b.addnode("add", [a, c])
        g = b.output("add")
        assert any("disagree" in v for v in validate(g))


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
    "conv-in-select-range": (
        _set_attrs("conv", in_select=[0, 1, 3]),
        ["conv: in_select index 3 exceeds producer width 3"],
    ),
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
    "fc-in-select-range": (_set_attrs("fc", in_select=[0, 1, 2, 4]), "fc: in_select exceeds producer width 4"),
    "fc-spatial-size": (lambda g: setattr(g.nodes["fc"], "inputs", ["conv"]), "fc: Linear requires spatial size 1 input, got 8"),
}


class TestWeightedLayerMessages:
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
        f = b.flatten("flat", "input")  # width 12, unknown until shapes are inferred
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
        unit = next(u for u in build_prune_units(g) if u.kind == IN_CHANNEL_ONLY)
        pruned = apply_units(g, [unit])
        assert any(n.in_select() is not None for n in pruned.nodes.values() if n.kind == "Conv2d")
        assert_batch_matches_oracle(pruned, rng.standard_normal((2, 3, 8, 8)))

    def test_spatial_flatten_matches_loop_oracle(self):
        rng = np.random.default_rng(28)
        g = make_flatten_toy(rng, channels=3, size=4)
        assert g.nodes["flat"].in_size == 4
        assert_batch_matches_oracle(g, rng.standard_normal((2, 2, 4, 4)))


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
