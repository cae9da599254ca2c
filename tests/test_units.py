"""Unit extraction: chains, residual groups, dense blocks, flatten mapping."""

from __future__ import annotations

import numpy as np
import pytest

from prunekit import (
    GraphBuilder,
    PruneKitError,
    ShapeError,
    build_prune_units,
    group_importance,
    infer_shapes,
)
from prunekit.planner import multi_pass
from prunekit.scoring import Config
from prunekit.surgeon import apply_units
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, ChannelRef

from conftest import (
    concat_over_add,
    conv_w,
    dense_channel_tied_by_add,
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_residual_toy,
    member_reads_out_of_run,
    random_tiny_net,
)
from oracles import origin_maps, per_channel_units


class TestPlainChain:
    def test_three_layer_chain_counts(self):
        rng = np.random.default_rng(0)
        g = make_chain(rng, (4, 6))
        units = build_prune_units(g)
        by_layer = {}
        for u in units:
            by_layer.setdefault(u.members[0].layer, []).append(u)
        assert len(by_layer["conv1"]) == 4
        assert len(by_layer["conv2"]) == 6
        assert "head" not in by_layer  # classifier outputs stay
        for u in by_layer["conv1"]:
            assert [s.layer for s in u.in_slices] == ["conv2"]
        for u in by_layer["conv2"]:
            assert [s.layer for s in u.in_slices] == ["head"]
            assert len(u.in_slices) == 1  # one column after global pooling

    def test_aux_covers_bias_and_bn(self):
        rng = np.random.default_rng(1)
        g = make_chain(rng, (4,), with_bn=True, conv_bias=True)
        u = build_prune_units(g)[0]
        aux_layers = {a.layer for a in u.aux}
        assert aux_layers == {"conv1", "bn1"}
        assert all(a.index == u.members[0].channel for a in u.aux)

    def test_requires_inference(self):
        rng = np.random.default_rng(2)
        g = make_chain(rng, (4,))
        g.inferred = False
        with pytest.raises(Exception, match="infer_shapes"):
            build_prune_units(g)

    def test_no_path_to_output(self):
        rng = np.random.default_rng(3)
        b = GraphBuilder(3, 8)
        c1 = b.conv("c1", "input", conv_w(rng, 4, 3, 1))
        b.conv("dead", "input", conv_w(rng, 4, 3, 1))  # dangling weighted layer
        g = infer_shapes(b.output(c1))
        with pytest.raises(PruneKitError, match="no path to Output"):
            build_prune_units(g)


class TestResidualGroups:
    def test_identity_blocks_tie_boundary(self):
        rng = np.random.default_rng(4)
        g = make_residual_toy(rng, width=8, planes=4, blocks=2)
        units = build_prune_units(g)
        groups = [u for u in units if len(u.members) > 1]
        assert len(groups) == 8
        for u in groups:
            layers = [m.layer for m in u.members]
            assert layers == ["stem", "b1_conv3", "b2_conv3"]
            channels = {m.channel for m in u.members}
            assert len(channels) == 1  # same index at every tied point
        # interior bottleneck widths stay independent
        singles = [u for u in units if len(u.members) == 1]
        assert {u.members[0].layer for u in singles} == {"b1_conv1", "b1_conv2", "b2_conv1", "b2_conv2"}

    def test_projection_breaks_input_tie(self):
        rng = np.random.default_rng(5)
        g = make_residual_toy(rng, width=8, planes=4, blocks=2, projection=True)
        units = build_prune_units(g)
        groups = [u for u in units if len(u.members) > 1]
        assert len(groups) == 8
        for u in groups:
            layers = [m.layer for m in u.members]
            # the stem is behind the projection, so it is not a member
            assert layers == ["b1_conv3", "b1_proj", "b2_conv3"]
        stem_units = [u for u in units if u.members and u.members[0].layer == "stem"]
        assert len(stem_units) == 8
        for u in stem_units:
            consumers = {s.layer for s in u.in_slices}
            assert consumers == {"b1_conv1", "b1_proj"}

    def test_group_slices_cover_all_boundary_readers(self):
        rng = np.random.default_rng(6)
        g = make_residual_toy(rng, width=8, planes=4, blocks=2)
        groups = [u for u in build_prune_units(g) if len(u.members) > 1]
        for u in groups:
            consumers = {s.layer for s in u.in_slices}
            assert consumers == {"b1_conv1", "b2_conv1", "head"}

    def test_add_with_raw_input_yields_no_unit(self):
        # conv's channels are tied to the model's input channels, which are not removable
        rng = np.random.default_rng(8)
        b = GraphBuilder(3, 8)
        conv = b.conv("conv", "input", conv_w(rng, 3, 3, 3), padding=1)
        d = b.conv("d", b.addnode("add", ["input", conv]), conv_w(rng, 4, 3, 1))
        flat = b.flatten("flat", b.pool("gap", d, "global-avg"))
        g = infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 4)).astype(np.float32))))
        units = build_prune_units(g)
        assert not any(m.layer == "conv" for u in units for m in u.members)
        assert [u.uid for u in units] == [f"d.c{i}" for i in range(4)]

    def test_resnet56_group_shape(self, resnet_graph):
        units = build_prune_units(resnet_graph)
        groups = [u for u in units if len(u.members) > 1]
        by_family = {}
        for u in groups:
            by_family.setdefault(u.family, []).append(u)
        assert len(by_family) == 3  # one tied family per stage
        sizes = sorted(len(v) for v in by_family.values())
        assert sizes == [64, 128, 256]
        for u in groups:
            layers = {m.layer for m in u.members}
            assert len(layers) == 7  # six block outputs plus the projection


    def test_resnet56_unit_inventory(self, resnet_graph):
        # closed form per stage: 4*planes residual groups of (blocks + 1)
        # members (every block's conv3 plus the projection), and planes
        # singletons for each block's conv1 and conv2; plus the 16 stem channels
        blocks = 6
        units = build_prune_units(resnet_graph)
        expected: dict[str, int] = {"conv1": 16}
        for stage, planes in enumerate((16, 32, 64), start=1):
            tied = [f"s{stage}b{b}_conv3" for b in range(1, blocks + 1)] + [f"s{stage}b1_proj"]
            expected["group:" + "|".join(sorted(tied))] = 4 * planes
            for b in range(1, blocks + 1):
                expected[f"s{stage}b{b}_conv1"] = expected[f"s{stage}b{b}_conv2"] = planes
        got: dict[str, int] = {}
        for u in units:
            assert u.kind == FULL_CHANNEL
            key = u.family if len(u.members) > 1 else u.members[0].layer
            got[key] = got.get(key, 0) + 1
            assert len(u.members) == (blocks + 1 if u.family.startswith("group:") else 1)
        assert got == expected
        assert len(units) == 16 + sum(4 * p + 2 * blocks * p for p in (16, 32, 64)) == 1808


class TestDenseBlocks:
    def test_growth_example(self):
        rng = np.random.default_rng(7)
        g = make_dense_toy(rng, entry_width=6, growth=4, layers=3)
        units = build_prune_units(g)
        assert g.nodes["d3"].declared_in_width() == 6 + 2 * 4
        d3_inslices = [u for u in units if u.kind == IN_CHANNEL_ONLY and u.in_slices[0].layer == "d3"]
        assert len(d3_inslices) == 8  # every d3 input fed by d1/d2
        entry_units = [u for u in units if u.members and u.members[0].layer == "entry"]
        assert len(entry_units) == 6
        for u in entry_units:
            assert {s.layer for s in u.in_slices} == {"d1", "d2", "d3", "head"}

    def test_interior_units_are_slice_singletons(self):
        rng = np.random.default_rng(8)
        g = make_dense_toy(rng)
        for u in build_prune_units(g):
            if u.kind == IN_CHANNEL_ONLY:
                assert u.members == ()
                assert len(u.in_slices) == 1
                assert u.aux == ()
                assert u.origin is not None

    def test_densenet40_unit_census(self, densenet_graph):
        units = build_prune_units(densenet_graph)
        full = [u for u in units if u.kind == FULL_CHANNEL]
        ico = [u for u in units if u.kind == IN_CHANNEL_ONLY]
        # entry conv 24 + transitions 168 + 312; interior reads 3 * 936
        assert len(full) == 24 + 168 + 312
        assert len(ico) == 2808

    def test_dense_channel_tied_to_a_removable_group(self):
        # p reaches a weighted layer only through a Concat, and an Add ties it
        # to q, d and e: removing their channels would leave p's behind, so
        # only p's dense reads are units, and each of them can be cut
        g = dense_channel_tied_by_add()
        units = build_prune_units(g)
        assert [u.uid for u in units] == [f"d.in{i}" for i in range(4)]
        assert [u.origin for u in units] == [ChannelRef("p", i) for i in range(4)]
        assert units == per_channel_units(g)
        for u in units:
            apply_units(g, [u])


class TestFlattenMapping:
    def test_column_blocks(self):
        rng = np.random.default_rng(9)
        g = make_flatten_toy(rng, channels=3, size=4)
        units = build_prune_units(g)
        assert len(units) == 3
        for u in units:
            c = u.members[0].channel
            cols = [s.in_channel for s in u.in_slices]
            assert cols == list(range(c * 16, (c + 1) * 16))
            assert {s.layer for s in u.in_slices} == {"head"}


class TestPartition:
    def test_every_channel_and_slot_once(self):
        from prunekit.units import InSliceRef

        rng = np.random.default_rng(10)
        for _ in range(12):
            g = random_tiny_net(rng)
            units = build_prune_units(g)
            seen_members = set()
            seen_slices = set()
            for u in units:
                for m in u.members:
                    assert m not in seen_members
                    seen_members.add(m)
                for s in u.in_slices:
                    assert s not in seen_slices
                    seen_slices.add(s)
            # every producer channel is either a unit member or a dense interior
            interior = {u.origin.layer for u in units if u.kind == IN_CHANNEL_ONLY}
            terminal = {g.weighted_layers()[-1].id}
            for node in g.weighted_layers():
                if node.id in interior or node.id in terminal:
                    continue
                for c in range(node.declared_out_width()):
                    from prunekit.units import ChannelRef

                    assert ChannelRef(node.id, c) in seen_members
            # every consumer slot fed by a weighted producer is covered
            maps = origin_maps(g)
            input_id = g.input_node().id
            for node in g.weighted_layers():
                edge_map = maps[node.inputs[0]]
                sel = node.in_select() or list(range(len(edge_map)))
                for slot, edge_idx in enumerate(sel):
                    origins = edge_map[edge_idx]
                    fed_by_weighted = any(o.layer != input_id for o in origins)
                    assert (InSliceRef(node.id, slot) in seen_slices) == fed_by_weighted

    @pytest.mark.parametrize("model", ["random", "vgg_graph", "resnet_graph", "densenet_graph"])
    def test_members_and_member_slices_in_graph_order(self, request, model):
        # build_prune_units relies on append order here instead of sorting
        if model == "random":
            rng = np.random.default_rng(23)
            graphs = [random_tiny_net(rng) for _ in range(12)]
        else:
            graphs = [request.getfixturevalue(model)]
        for g in graphs:
            topo = {nid: i for i, nid in enumerate(g.order)}
            for u in build_prune_units(g):
                keys = [(topo[m.layer], m.channel) for m in u.members]
                assert keys == sorted(set(keys)), u.uid
                assert len(u.member_slices) == len(u.members), u.uid
                for slices in u.member_slices:
                    keys = [(topo[s.layer], s.in_channel) for s in slices]
                    assert keys == sorted(set(keys)), u.uid

    def test_deterministic_order(self):
        rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
        g1, g2 = make_dense_toy(rng1), make_dense_toy(rng2)
        u1 = [u.uid for u in build_prune_units(g1)]
        u2 = [u.uid for u in build_prune_units(g2)]
        assert u1 == u2


class TestAgainstPerChannelBuilder:
    """build_prune_units equals the per-channel reference builder: the same
    units in the same order, every field equal."""

    @staticmethod
    def assert_same_units(graph):
        got, want = build_prune_units(graph), per_channel_units(graph)
        assert [u.uid for u in got] == [u.uid for u in want]
        for a, b in zip(got, want):
            assert a == b, a.uid

    @pytest.mark.parametrize("seed", range(16))
    def test_random_tiny_nets(self, seed):
        self.assert_same_units(random_tiny_net(np.random.default_rng(seed)))

    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zoo(self, request, model):
        self.assert_same_units(request.getfixturevalue(model))

    def test_member_reads_outside_one_run(self):
        # stem is read before and after the Add that ties it to b, and b's own
        # reader sits in between: stem's reads are not one run of the group's
        g = member_reads_out_of_run()
        unit = next(u for u in build_prune_units(g) if u.uid == "stem.c0")
        assert [[s.layer for s in reads] for reads in unit.member_slices] == [["b", "post", "late"], ["side", "post"]]
        assert [s.layer for s in unit.in_slices] == ["b", "side", "post", "late"]
        self.assert_same_units(g)

    def test_concat_over_add(self):
        # cat pads the Add's two-row origin array beside r's one row
        g = concat_over_add()
        units = build_prune_units(g)
        assert [u.uid for u in units] == [f"p.c{i}" for i in range(4)] + [f"d.in{i}" for i in range(4, 7)]
        assert all(u.kind == FULL_CHANNEL and {m.layer for m in u.members} == {"p", "q"} for u in units[:4])
        assert [u.origin for u in units[4:]] == [ChannelRef("r", i) for i in range(3)]
        self.assert_same_units(g)

    def test_densenet40_after_one_pass(self, densenet_graph):
        _, pruned = next(multi_pass(densenet_graph, Config(per_pass_ratio=0.2)))
        assert any(n.in_select() for n in pruned.weighted_layers())
        units = build_prune_units(pruned)
        assert any(u.kind == IN_CHANNEL_ONLY for u in units)
        self.assert_same_units(pruned)


class TestStructureErrors:
    def test_slot_with_two_dense_origins(self):
        rng = np.random.default_rng(0)
        b = GraphBuilder(3, 4)
        p = b.conv("p", "input", conv_w(rng, 4, 3, 1))
        q = b.conv("q", "input", conv_w(rng, 4, 3, 1))
        cat = b.concat("cat", [b.addnode("add", [p, q]), q])
        g = infer_shapes(b.output(b.conv("d", cat, conv_w(rng, 4, 8, 1))))
        with pytest.raises(PruneKitError, match=r"overlapping dense/residual structures: slot d\.in0$"):
            build_prune_units(g)

    def test_declared_width_differs_from_edge(self):
        g = make_chain(np.random.default_rng(1), (4, 6))
        g.nodes["conv2"].attrs["in_channels"] = 5
        with pytest.raises(ShapeError, match="conv2: input width 5 vs edge width 4"):
            build_prune_units(g)


class TestGroupImportance:
    def test_singleton(self):
        assert group_importance([2.0]) == 2.0

    def test_mean(self):
        assert group_importance([1.0, 3.0]) == 2.0

    def test_zero(self):
        assert group_importance([0.0, 0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_importance([])


class TestExport:
    def test_to_json_shape(self):
        rng = np.random.default_rng(11)
        g = make_chain(rng, (4,), with_bn=True, conv_bias=True)
        payload = build_prune_units(g)[0].to_json()
        assert set(payload) == {"uid", "kind", "members", "in_slices", "aux", "family"}
        assert payload["kind"] == FULL_CHANNEL

    def test_to_json_carries_origin_for_dense_units(self):
        rng = np.random.default_rng(12)
        g = make_dense_toy(rng)
        unit = next(u for u in build_prune_units(g) if u.kind == IN_CHANNEL_ONLY)
        payload = unit.to_json()
        assert payload["origin"] == [unit.origin.layer, unit.origin.channel]
