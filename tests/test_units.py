"""Unit extraction: chains, residual groups, dense blocks, flatten mapping."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from prunekit import (
    DegenerateModelError,
    GraphBuilder,
    PruneKitError,
    ShapeError,
    build_prune_units,
    dependency_l1,
    infer_shapes,
    score_all,
    select_threshold,
    unit_flop_cost,
    unit_param_cost,
    zero_equivalence_check,
)
from prunekit.costs import unit_costs, unit_rows
from prunekit.planner import multi_pass
from prunekit.scoring import Config
from prunekit.surgeon import apply_units
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, run_sums, unit_table
from prunekit.zoo import densenet40

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
from oracles import Channel, Slot, origin_maps, per_channel_units, ref_units, unit_entry


class TestPlainChain:
    def test_three_layer_chain_counts(self):
        rng = np.random.default_rng(0)
        g = make_chain(rng, (4, 6))
        units = ref_units(build_prune_units(g))
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
        u = ref_units(build_prune_units(g))[0]
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
        units = ref_units(build_prune_units(g))
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
        units = ref_units(build_prune_units(g))
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
        groups = [u for u in ref_units(build_prune_units(g)) if len(u.members) > 1]
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
        units = ref_units(build_prune_units(g))
        assert not any(m.layer == "conv" for u in units for m in u.members)
        assert [u.uid for u in units] == [f"d.c{i}" for i in range(4)]

    def test_resnet56_group_shape(self, resnet_graph):
        units = ref_units(build_prune_units(resnet_graph))
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
        units = ref_units(build_prune_units(resnet_graph))
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
        units = ref_units(build_prune_units(g))
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
        for u in ref_units(build_prune_units(g)):
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
        assert [u.origin for u in ref_units(units)] == [Channel("p", i) for i in range(4)]
        assert ref_units(units) == per_channel_units(g)
        for row in range(len(units)):
            apply_units(g, units.take([row]))


class TestFlattenMapping:
    def test_column_blocks(self):
        rng = np.random.default_rng(9)
        g = make_flatten_toy(rng, channels=3, size=4)
        units = ref_units(build_prune_units(g))
        assert len(units) == 3
        for u in units:
            c = u.members[0].channel
            cols = [s.in_channel for s in u.in_slices]
            assert cols == list(range(c * 16, (c + 1) * 16))
            assert {s.layer for s in u.in_slices} == {"head"}


class TestPartition:
    def test_every_channel_and_slot_once(self):
        rng = np.random.default_rng(10)
        for _ in range(12):
            g = random_tiny_net(rng)
            units = ref_units(build_prune_units(g))
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
                    assert Channel(node.id, c) in seen_members
            # every consumer slot fed by a weighted producer is covered
            maps = origin_maps(g)
            input_id = g.input_node().id
            for node in g.weighted_layers():
                edge_map = maps[node.inputs[0]]
                sel = node.in_select() or list(range(len(edge_map)))
                for slot, edge_idx in enumerate(sel):
                    origins = edge_map[edge_idx]
                    fed_by_weighted = any(o.layer != input_id for o in origins)
                    assert (Slot(node.id, slot) in seen_slices) == fed_by_weighted

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
            for u in ref_units(build_prune_units(g)):
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
        # the table read into the oracle's records against the reference
        # units, field by field; then the reference units' units.json entries
        # through unit_table give the table's id arrays
        got, want = build_prune_units(graph), per_channel_units(graph)
        assert got.uid == [u.uid for u in want]
        assert got.kind == [u.kind for u in want]
        assert got.family == [u.family for u in want]
        for mine, u in zip(ref_units(got), want):
            assert mine == u, u.uid
        again = unit_table(graph, [unit_entry(u) for u in want])
        assert (again.uid, again.kind, again.family) == (got.uid, got.kind, got.family)
        for field in ("members", "in_slices", "aux", "member_reads"):
            for a, b in zip(getattr(again, field), getattr(got, field)):
                assert np.array_equal(a, b), field
        assert np.array_equal(again.origin, got.origin)

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
        unit = next(u for u in ref_units(build_prune_units(g)) if u.uid == "stem.c0")
        assert [[s.layer for s in reads] for reads in unit.member_slices] == [["b", "post", "late"], ["side", "post"]]
        assert [s.layer for s in unit.in_slices] == ["b", "side", "post", "late"]
        self.assert_same_units(g)

    def test_concat_over_add(self):
        # cat pads the Add's two-row origin array beside r's one row
        g = concat_over_add()
        units = ref_units(build_prune_units(g))
        assert [u.uid for u in units] == [f"p.c{i}" for i in range(4)] + [f"d.in{i}" for i in range(4, 7)]
        assert all(u.kind == FULL_CHANNEL and {m.layer for m in u.members} == {"p", "q"} for u in units[:4])
        assert [u.origin for u in units[4:]] == [Channel("r", i) for i in range(3)]
        self.assert_same_units(g)

    def test_densenet40_after_one_pass(self):
        _, pruned = next(multi_pass(densenet40(seed=0), Config(per_pass_ratio=0.2)))  # multi_pass consumes its graph
        assert any(n.in_select() for n in pruned.weighted_layers())
        units = build_prune_units(pruned)
        assert any(u.kind == IN_CHANNEL_ONLY for u in units)
        self.assert_same_units(pruned)


class TestTable:
    def test_partition_check_names_a_shared_channel(self):
        from prunekit.units import _check_partition

        g = make_chain(np.random.default_rng(2), (4, 6))
        unit = build_prune_units(g)[0].to_json()
        with pytest.raises(PruneKitError, match=r"^channel conv1\.c0 appears in two units$"):
            _check_partition(unit_table(g, [unit, unit]))

    def test_a_row_is_scored_and_checked_without_refs(self):
        # dependency_l1 and zero_equivalence_check take a table row, a
        # (table, row) pair, and read its runs of ids
        g = make_chain(np.random.default_rng(4), (4, 6))
        units = build_prune_units(g)
        assert units[2] == (units, 2) and units[-1].row == len(units) - 1
        assert dependency_l1(g, units[2]) == score_all(g, units, Config())[2].raw > 0
        assert zero_equivalence_check(g, units[2], trials=2)

    def test_listed_rows_enter_a_new_table_through_their_entries(self):
        g = make_chain(np.random.default_rng(3), (4, 6))
        units = build_prune_units(g)
        picked = unit_table(g, [units[3].to_json(), units[1].to_json()])
        assert picked.uid == [units[3].uid, units[1].uid]
        assert [u.to_json() for u in picked] == [units[3].to_json(), units[1].to_json()]
        assert picked.take([1, 0]).uid == units.take([1, 3]).uid
        with pytest.raises(PruneKitError, match="a unit entry needs"):
            unit_table(g, units)

    def test_a_table_does_not_keep_its_graph_alive(self):
        import gc
        import weakref

        g = make_chain(np.random.default_rng(4), (4, 6))
        units = build_prune_units(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert units[0].to_json()["members"] == [["conv1", 0]]


def hand_made(kind):
    """A valid units.json entry of each kind, and the dense toy it names."""
    g = make_dense_toy(np.random.default_rng(8))
    units = build_prune_units(g)
    return g, units[units.kind.index(kind)].to_json()


class TestHandMadeUnits:
    """unit_table fails closed on entries that are not well-formed units."""

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            (FULL_CHANNEL, lambda e: {**e, "kind": "half_channel"}, r"entry\.c0: unknown unit kind 'half_channel'$"),
            (IN_CHANNEL_ONLY, lambda e: {k: v for k, v in e.items() if k != "origin"}, "needs its \\[layer, index\\] origin"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "origin": None}, "needs its \\[layer, index\\] origin"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "origin": ["entry"]}, "needs its \\[layer, index\\] origin"),
            (FULL_CHANNEL, lambda e: {**e, "origin": ["entry", 0]}, "needs its \\[layer, index\\] origin"),
            (FULL_CHANNEL, lambda e: {**e, "members": []}, "a full-channel unit needs members"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "in_slices": []}, "an in-channel-only unit a slot and no members"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "members": [e["origin"]]}, "an in-channel-only unit a slot and no members"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "origin": ["d1", 99]}, "d1: unit names output channel 99, which the layer"),
            (FULL_CHANNEL, lambda e: {**e, "members": [["entry", True]]}, "a unit entry needs a string uid"),
            (FULL_CHANNEL, lambda e: {k: v for k, v in e.items() if k != "aux"}, "a unit entry needs a string uid"),
            (FULL_CHANNEL, lambda e: {**e, "uid": 7}, "a unit entry needs a string uid"),
            (FULL_CHANNEL, lambda e: [e], "a unit entry needs a string uid"),
            (IN_CHANNEL_ONLY, lambda e: {**e, "origin": ["entry", 0]}, r"d2\.in6: origin entry\.c0 does not feed slot d2\.in6$"),
            (FULL_CHANNEL, lambda e: {**e, "members": e["members"] * 2}, r"entry: unit names output channel 0 twice$"),
            (FULL_CHANNEL, lambda e: {**e, "in_slices": e["in_slices"] + e["in_slices"][:1]}, r"d1: unit names input slot 0 twice$"),
            (FULL_CHANNEL, lambda e: {**e, "members": [["entry", 2**63]]}, r"entry: unit names output channel 9223372036854775808, which the layer does not have$"),
            (FULL_CHANNEL, lambda e: {**e, "in_slices": [["d1", -(2**64)]]}, r"d1: unit names input slot -18446744073709551616, which the layer does not have$"),
            (FULL_CHANNEL, lambda e: {**e, "aux": [["entry", 2**70]]}, r"entry: unit names vector entry 1180591620717411303424, which the layer does not have$"),
        ],
        ids=[
            "unknown-kind",
            "in-channel-only-without-origin",
            "in-channel-only-with-null-origin",
            "origin-not-a-pair",
            "full-channel-with-origin",
            "full-channel-without-members",
            "in-channel-only-without-slot",
            "in-channel-only-with-members",
            "origin-outside-width",
            "member-index-not-an-int",
            "no-aux",
            "uid-not-a-string",
            "not-an-object",
            "origin-not-feeding-its-slot",
            "member-named-twice",
            "in-slice-named-twice",
            "member-index-beyond-int64",
            "slot-index-beyond-int64",
            "aux-index-beyond-int64",
        ],
    )
    def test_malformed_entry_rejected(self, kind, change, message):
        g, entry = hand_made(kind)
        unit_table(g, [entry])  # the entry as built is accepted
        with pytest.raises(PruneKitError, match=message):
            unit_table(g, [entry, change(entry)])

    def test_aux_entry_named_twice_rejected(self):
        # the dense toy has no bias or batch norm, so its units name no vector entry
        g = make_chain(np.random.default_rng(2), (4, 6), with_bn=True)
        entry = build_prune_units(g)[0].to_json()
        assert entry["aux"] == [["bn1", 0]]
        with pytest.raises(PruneKitError, match=r"bn1: unit names vector entry 0 twice$"):
            unit_table(g, [{**entry, "aux": entry["aux"] * 2}])

    def test_needs_inferred_shapes(self):
        g, entry = hand_made(FULL_CHANNEL)
        g.inferred = False
        with pytest.raises(ShapeError, match="infer_shapes"):
            unit_table(g, [entry])

    def test_member_reads_come_from_the_graph(self):
        # a member reads only the slots the graph feeds from it, among its unit's in_slices
        g = make_chain(np.random.default_rng(5), (4, 6))
        entry = {"uid": "u", "kind": FULL_CHANNEL, "members": [["conv1", 0], ["conv1", 1]], "aux": [], "family": "u"}
        table = unit_table(g, [{**entry, "in_slices": [["conv2", 1], ["conv2", 2]]}])
        assert ref_units(table)[0].member_slices == ((), (Slot("conv2", 1),))


class TestUnitsJsonRoundTrip:
    """unit_table(g, json.loads(units.to_json())) rebuilds the table exactly."""

    @staticmethod
    def assert_round_trip(graph):
        units = build_prune_units(graph)
        again = unit_table(graph, json.loads(units.to_json()))
        assert (again.uid, again.kind, again.family) == (units.uid, units.kind, units.family)
        for field in ("members", "in_slices", "aux", "member_reads"):
            for a, b in zip(getattr(again, field), getattr(units, field)):
                assert np.array_equal(a, b), field
        assert np.array_equal(again.origin, units.origin)
        assert again.to_json() == units.to_json()
        assert again.checksum() == units.checksum()

        def raws(table):
            try:
                return [r.raw for r in score_all(graph, table, Config())]
            except DegenerateModelError as e:  # too small to score: both fail alike
                return str(e)

        assert raws(again) == raws(units)

    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zoo(self, request, model):
        self.assert_round_trip(request.getfixturevalue(model))

    @pytest.mark.parametrize("seed", range(16))
    def test_random_tiny_nets(self, seed):
        self.assert_round_trip(random_tiny_net(np.random.default_rng(seed)))


class TestChecksum:
    """``UnitTable.checksum`` covers each row's uid, members, in_slices and aux,
    in row order, and nothing else."""

    @staticmethod
    def entries():
        g = make_chain(np.random.default_rng(3), (4, 6), with_bn=True, conv_bias=True)
        entries = json.loads(build_prune_units(g).to_json())
        assert entries[0]["members"] == [["conv1", 0]] and entries[0]["in_slices"] == [["conv2", 0]]
        assert entries[0]["aux"] == [["conv1", 0], ["bn1", 0]]
        return g, entries

    def test_equal_for_the_same_rows(self):
        g, entries = self.entries()
        units = build_prune_units(g)
        assert unit_table(g, entries).checksum() == units.checksum()
        assert units.take([2, 0]).checksum() == unit_table(g, [entries[2], entries[0]]).checksum()
        assert units.take([]).checksum() == unit_table(g, []).checksum()

    @pytest.mark.parametrize(
        "change",
        [
            lambda e: e[0].update(uid="conv1.c9"),
            lambda e: e[0].update(members=[["conv1", 1]]),
            lambda e: e[0].update(in_slices=[["conv2", 1]]),
            lambda e: e[0].update(aux=[["conv1", 0], ["bn1", 1]]),
            lambda e: e[0].update(aux=[["conv1", 0]]),
            lambda e: e.insert(0, e.pop(1)),
        ],
        ids=["uid", "member", "in-slice", "aux", "aux-dropped", "row-order"],
    )
    def test_changes_with_each_covered_field(self, change):
        g, entries = self.entries()
        before = unit_table(g, entries).checksum()
        change(entries)
        assert unit_table(g, entries).checksum() != before

    def test_ignores_family(self):
        # scoring reads a unit's family; surgery and its report do not
        g, entries = self.entries()
        before = unit_table(g, entries).checksum()
        entries[0]["family"] = "elsewhere"
        assert unit_table(g, entries).checksum() == before


class TestOneGraph:
    """Scoring, pricing and surgery take only a table built from the graph
    object they are given; a table of an equal twin graph is refused."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, t: score_all(g, t, Config()),
            lambda g, t: unit_rows(g, t),
            lambda g, t: unit_costs(g, unit_rows(g, t)),
            lambda g, t: apply_units(g, t.take([0])),
            lambda g, t: dependency_l1(g, t[0]),
            lambda g, t: zero_equivalence_check(g, t[0], trials=2),
            lambda g, t: unit_param_cost(g, t[0]),
            lambda g, t: unit_flop_cost(g, t[0]),
        ],
        ids=[
            "score_all",
            "unit_rows",
            "unit_costs",
            "apply_units",
            "dependency_l1",
            "zero_equivalence_check",
            "unit_param_cost",
            "unit_flop_cost",
        ],
    )
    def test_another_graphs_table_is_rejected(self, call):
        g, twin = (make_chain(np.random.default_rng(6), (4, 6), with_bn=True) for _ in range(2))
        units = build_prune_units(twin)
        call(twin, units)  # its own graph is accepted
        with pytest.raises(PruneKitError, match="^units must be a unit table built from this graph object"):
            call(g, units)

    def test_records_of_another_graph_are_not_planned(self):
        g, twin = (make_chain(np.random.default_rng(6), (4, 6), with_bn=True) for _ in range(2))
        records = score_all(twin, build_prune_units(twin), Config())
        select_threshold(records, twin, Config())
        with pytest.raises(PruneKitError, match="^units must be a unit table built from this graph object"):
            select_threshold(records, g, Config())

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, t: score_all(g, list(t), Config()),
            lambda g, t: unit_rows(g, [t[0]]),
            lambda g, t: apply_units(g, [t[0]]),
            lambda g, t: dependency_l1(g, t),
        ],
        ids=["score_all", "unit_rows", "apply_units", "dependency_l1-of-a-table"],
    )
    def test_rows_where_a_table_is_taken_and_a_table_for_a_row_are_refused(self, call):
        g = make_chain(np.random.default_rng(6), (4, 6))
        with pytest.raises(PruneKitError, match="^units must be a unit table built from this graph object"):
            call(g, build_prune_units(g))


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


class TestRunSums:
    def test_adds_each_run_left_to_right_like_python_sum(self):
        # values spread over 2^-60..2^60 make a float sum depend on its order,
        # and runs longer than 8 would show numpy's pairwise summation
        rng = np.random.default_rng(0)
        for longest in (40, 1):  # runs of up to 40 values; runs of at most one
            sizes = rng.integers(0, longest + 1, 300)
            starts = np.cumsum(sizes) - sizes
            floats = rng.standard_normal(sizes.sum()) * np.exp2(rng.integers(-60, 60, sizes.sum()))
            floats[::7] = -0.0  # Python's sum starts from 0.0, so a lone -0.0 sums to 0.0
            ints = rng.integers(0, 2**40, sizes.sum())
            for values in (floats, ints):
                want = [sum(values[a : a + n].tolist()) for a, n in zip(starts, sizes)]
                got = run_sums(values, sizes).tolist()
                assert got == want
                assert [math.copysign(1, x) for x in got] == [math.copysign(1, x) for x in want]

    def test_no_runs(self):
        assert run_sums(np.zeros(0), np.zeros(0, np.int64)).tolist() == []


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
        unit = next(u for u in ref_units(build_prune_units(g)) if u.kind == IN_CHANNEL_ONLY)
        payload = next(u for u in build_prune_units(g) if u.uid == unit.uid).to_json()
        assert payload["origin"] == [unit.origin.layer, unit.origin.channel]
