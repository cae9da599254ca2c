"""Cost model: unit pricing, model totals, conventions."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from prunekit import (
    GraphBuilder,
    ShapeError,
    apply_units,
    build_prune_units,
    effective_model_costs,
    infer_shapes,
    model_flop_count,
    model_param_count,
    unit_flop_cost,
    unit_param_cost,
)
from prunekit.costs import unit_costs, unit_rows
from prunekit.graph import serialize_graph
from prunekit.units import IN_CHANNEL_ONLY, unit_table

from conftest import conv_w, make_chain, make_minimal, make_residual_toy, random_tiny_net
from oracles import loop_forward, manifest_costs_of_units, manifest_param_count, ref_units


def synthetic_unit(graph, members=(), in_slices=()):
    """A bare unit of ``graph`` for pricing individual portions."""
    entry = {
        "uid": "synthetic",
        "kind": "full_channel",
        "members": [list(m) for m in members],
        "in_slices": [list(s) for s in in_slices],
        "aux": [],
        "family": "synthetic",
    }
    return unit_table(graph, [entry])[0]


class TestUnitCosts:
    def test_vgg_out_portions(self, vgg_graph):
        # one conv2_1 channel owns 9*64 = 576 weights; one conv3_1 channel 9*128 = 1152
        early = synthetic_unit(vgg_graph, members=[("conv2_1", 0)])
        late = synthetic_unit(vgg_graph, members=[("conv3_1", 0)])
        assert unit_param_cost(vgg_graph, early) == 576
        assert unit_param_cost(vgg_graph, late) == 1152
        assert 2 * unit_param_cost(vgg_graph, early) == unit_param_cost(vgg_graph, late)

    def test_vgg_flop_quarter_ratio(self, vgg_graph):
        early = synthetic_unit(vgg_graph, members=[("conv2_1", 0)])
        late = synthetic_unit(vgg_graph, members=[("conv3_1", 0)])
        f_early = unit_flop_cost(vgg_graph, early, "2macs")
        f_late = unit_flop_cost(vgg_graph, late, "2macs")
        assert f_early == 2 * 16 * 16 * 576 == 294912
        assert f_late == 2 * 8 * 8 * 1152 == 147456
        assert 2 * f_early == 4 * f_late
        # same ratio without the leading factor
        assert unit_flop_cost(vgg_graph, early, "macs") == 147456
        assert unit_flop_cost(vgg_graph, late, "macs") == 73728

    def test_vgg_full_unit_param(self, vgg_graph):
        units = {u.uid: u for u in build_prune_units(vgg_graph)}
        u = units["conv2_1.c0"]
        # 576 own weights + a 9-tap slice in each of conv2_2's 128 filters
        assert unit_param_cost(vgg_graph, u) == 576 + 9 * 128 == 1728

    def test_linear_chain_unit(self):
        # producer reads 10 features, consumer emits 5: unit price 10 + 5
        rng = np.random.default_rng(0)
        b = GraphBuilder(10, 1)
        fl = b.flatten("flat", "input")
        l1 = b.linear("l1", fl, rng.standard_normal((4, 10)).astype(np.float32))
        l2 = b.linear("l2", l1, rng.standard_normal((5, 4)).astype(np.float32))
        g = infer_shapes(b.output(l2))
        units = {u.uid: u for u in build_prune_units(g)}
        u = units["l1.c0"]
        assert unit_param_cost(g, u) == 10 + 5  # K=1 on both sides
        assert unit_flop_cost(g, u, "2macs") == 2 * (10 + 5)

    def test_in_channel_only_prices_consumer_side(self):
        rng = np.random.default_rng(1)
        from conftest import make_dense_toy

        g = make_dense_toy(rng, entry_width=6, growth=4, layers=3)
        units = build_prune_units(g)
        u = next(
            u for u, refs in zip(units, ref_units(units)) if u.kind == IN_CHANNEL_ONLY and refs.in_slices[0].layer == "d3"
        )
        node = g.nodes["d3"]
        assert unit_param_cost(g, u) == 9 * node.declared_out_width()
        assert unit_flop_cost(g, u, "macs") == node.in_size**2 * 9 * node.declared_out_width()

    def test_monotone_in_dimensions(self):
        rng = np.random.default_rng(2)
        base = make_chain(rng, (4, 6), kernel=3, input_size=8)
        wider_consumer = make_chain(rng, (4, 8), kernel=3, input_size=8)  # larger N downstream
        bigger = make_chain(rng, (4, 6), kernel=3, input_size=16)  # larger I
        big_kernel = make_chain(rng, (4, 6), kernel=5, input_size=8)  # larger K
        wider_in = make_chain(rng, (6, 6), kernel=3, input_size=8)  # larger M for conv2's units
        u_of = lambda g, uid="conv1.c0": {u.uid: u for u in build_prune_units(g)}[uid]
        assert unit_param_cost(wider_consumer, u_of(wider_consumer)) > unit_param_cost(base, u_of(base))
        assert unit_flop_cost(bigger, u_of(bigger), "macs") > unit_flop_cost(base, u_of(base), "macs")
        assert unit_param_cost(big_kernel, u_of(big_kernel)) > unit_param_cost(base, u_of(base))
        assert unit_param_cost(wider_in, u_of(wider_in, "conv2.c0")) > unit_param_cost(base, u_of(base, "conv2.c0"))

    def test_positive_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            g = random_tiny_net(rng)
            for u in build_prune_units(g):
                assert unit_param_cost(g, u) >= 1
                assert unit_flop_cost(g, u, "macs") >= 1

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            g = random_tiny_net(rng)
            manifest, _ = serialize_graph(g)
            units = build_prune_units(g)
            for convention in ("macs", "2macs"):
                for u, (p_ref, f_ref) in zip(units, manifest_costs_of_units(manifest, ref_units(units), convention)):
                    assert unit_param_cost(g, u) == p_ref
                    assert unit_flop_cost(g, u, convention) == f_ref

    @pytest.mark.parametrize("model", ["random", "vgg_graph", "resnet_graph", "densenet_graph"])
    def test_unit_costs_price_each_unit_like_the_single_walks(self, request, model):
        # the single walk is the manifest oracle's, one unit at a time
        if model == "random":
            rng = np.random.default_rng(5)
            graphs = [random_tiny_net(rng) for _ in range(8)]
        else:
            graphs = [request.getfixturevalue(model)]
        for g in graphs:
            units = build_prune_units(g)
            manifest, _ = serialize_graph(g)
            for convention in ("macs", "2macs"):
                got = list(zip(*unit_costs(g, unit_rows(g, units), convention).tolist()))
                assert got == manifest_costs_of_units(manifest, ref_units(units), convention)

    def test_unit_param_cost_needs_inferred_shapes(self):
        g = make_chain(np.random.default_rng(11), (4, 6))
        u = build_prune_units(g)[0]
        g.inferred = False
        with pytest.raises(ShapeError, match="infer_shapes"):
            unit_param_cost(g, u)
        with pytest.raises(ShapeError, match="infer_shapes"):
            unit_flop_cost(g, u)


class TestUnitRows:
    """unit_rows against per-layer counts of each unit's members and in-slices."""

    @staticmethod
    def assert_rows_count_refs(g, units):
        code = {n.id: i for i, n in enumerate(g.weighted_layers())}
        rows, bounds = unit_rows(g, units)
        assert bounds[0] == 0 and bounds[-1] == len(rows)
        for u, lo, hi in zip(ref_units(units), bounds, bounds[1:]):
            filters = Counter(code[m.layer] for m in u.members)
            slots = Counter(code[s.layer] for s in u.in_slices)
            want = [[l, filters[l], slots[l]] for l in sorted(filters.keys() | slots.keys())]
            assert rows[lo:hi].tolist() == want

    def test_random_tiny_nets(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            g = random_tiny_net(rng)
            self.assert_rows_count_refs(g, build_prune_units(g))

    def test_densenet_in_channel_only_units(self, densenet_graph):
        units = build_prune_units(densenet_graph)
        units = units.take([u.row for u in units if u.kind == IN_CHANNEL_ONLY])
        assert len(units) and not any(u.members for u in ref_units(units))
        self.assert_rows_count_refs(densenet_graph, units)

    def test_no_units(self, vgg_graph):
        rows, bounds = unit_rows(vgg_graph, unit_table(vgg_graph, []))
        assert rows.shape == (0, 3) and bounds.tolist() == [0]


class TestModelTotals:
    def test_minimal_params(self):
        assert model_param_count(make_minimal()) == 108

    def test_minimal_flops(self):
        g = make_minimal()  # conv 3->4, K=3, pad=1 on 8x8
        assert model_flop_count(g, "macs") == 3 * 4 * 9 * 64 == 6912

    def test_convention_doubles(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_tiny_net(rng)
            assert model_flop_count(g, "2macs") == 2 * model_flop_count(g, "macs")

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            model_flop_count(make_minimal(), "flops")

    def test_param_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            g = random_tiny_net(rng)
            manifest, _ = serialize_graph(g)
            assert model_param_count(g) == manifest_param_count(manifest)
            assert model_param_count(g, count_aux_params=False) == manifest_param_count(manifest, False)

    def test_flop_count_equals_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            g = random_tiny_net(rng)
            x = rng.standard_normal((g.input_channels, g.input_size, g.input_size))
            _, ops = loop_forward(g, x, count_ops=True)
            assert model_flop_count(g, "macs") == ops

    def test_aux_param_flag(self):
        rng = np.random.default_rng(8)
        g = make_chain(rng, (4, 6), with_bn=True, conv_bias=True)
        with_aux = model_param_count(g, True)
        without = model_param_count(g, False)
        # 2 BNs of widths 4 and 6 (gamma+beta), conv biases 4+6
        assert with_aux - without == 2 * (4 + 6) + (4 + 6)


class TestRemovalArithmetic:
    def test_interior_removal_matches_unit_cost(self):
        # bias-free plain chain: removing an interior unit drops exactly its price
        rng = np.random.default_rng(9)
        g = make_chain(rng, (4, 6), kernel=3, conv_bias=False, with_relu=True)
        units = {u.uid: u for u in build_prune_units(g)}
        u = units["conv1.c2"]
        before = model_param_count(g)
        pruned = apply_units(g, u.table.take([u.row]))
        assert before - model_param_count(pruned) == unit_param_cost(g, u)

    def test_removal_counts_beyond_layer_width_rejected(self):
        g = make_chain(np.random.default_rng(12), (4, 6))
        with pytest.raises(ValueError, match="^conv1: removal counts exceed layer width$"):
            effective_model_costs(g, {"conv1": 5})
        with pytest.raises(ValueError, match="^conv2: removal counts exceed layer width$"):
            effective_model_costs(g, removed_slots={"conv2": 5})

    def test_removal_breaking_add_alignment_rejected(self):
        g = make_residual_toy(np.random.default_rng(13), with_bn=False)
        with pytest.raises(ValueError, match=r"^b1_add: removal pattern breaks Add alignment \(\[7, 8\]\)$"):
            effective_model_costs(g, {"b1_conv3": 1})

    def test_conv_conv_example(self):
        # conv(3->4,K3) -> conv(4->6,K3): one channel costs 27 + 54 = 81
        rng = np.random.default_rng(10)
        b = GraphBuilder(3, 8)
        c1 = b.conv("c1", "input", conv_w(rng, 4, 3, 3), padding=1)
        c2 = b.conv("c2", c1, conv_w(rng, 6, 4, 3), padding=1)
        gp = b.pool("gap", c2, "global-avg")
        fl = b.flatten("fl", gp)
        g = infer_shapes(b.output(b.linear("head", fl, np.ones((5, 6), np.float32))))
        u = {x.uid: x for x in build_prune_units(g)}["c1.c0"]
        # the unit's own slice sits in c2 only
        assert unit_param_cost(g, u) == 27 + 54 == 81
        pruned = apply_units(g, u.table.take([u.row]))
        assert pruned.nodes["c1"].weight().shape == (3, 3, 3, 3)
        assert pruned.nodes["c2"].weight().shape == (6, 3, 3, 3)
        assert model_param_count(g) - model_param_count(pruned) == 81
