"""Surgery: slicing correctness, functional equivalence, exactness."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from prunekit import (
    Config,
    PlanMismatchError,
    PruneKitError,
    apply_plan,
    apply_units,
    build_prune_units,
    forward_eval,
    graph_checksum,
    infer_shapes,
    load_model,
    model_flop_count,
    model_param_count,
    score_all,
    select_threshold,
    validate,
    zero_equivalence_check,
)
from prunekit.graph import serialize_graph
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, AuxRef, ChannelRef, InSliceRef, PruneUnit

from conftest import (
    concat_over_add,
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_residual_toy,
    random_tiny_net,
    save_tmp,
)
from oracles import manifest_param_count


def plan_for(graph, target=0.3, **config_kwargs):
    config = Config(flop_target_ratio=target, **config_kwargs)
    units = build_prune_units(graph)
    records = score_all(graph, units, config)
    return select_threshold(records, graph, config)


def hand_unit(members=(), in_slices=(), aux=()):
    """A unit made by hand, not by build_prune_units."""
    return PruneUnit(
        uid="hand",
        kind=FULL_CHANNEL,
        members=tuple(ChannelRef(*m) for m in members),
        in_slices=tuple(InSliceRef(*s) for s in in_slices),
        aux=tuple(AuxRef(*a) for a in aux),
        family="hand",
    )


class TestApplyPlan:
    def test_checksum_mismatch(self):
        rng = np.random.default_rng(0)
        g = make_chain(rng, (4, 6))
        plan = plan_for(g)
        other = make_chain(np.random.default_rng(99), (4, 6))
        with pytest.raises(PlanMismatchError, match="checksum"):
            apply_plan(other, plan)

    def test_corrupt_plan_unknown_unit(self):
        rng = np.random.default_rng(1)
        g = make_chain(rng, (4, 6))
        plan = plan_for(g)
        plan.removed_entries[0]["unit_id"] = "conv9.c99"
        with pytest.raises(PlanMismatchError, match="unknown unit"):
            apply_plan(g, plan)

    def test_corrupt_plan_mismatched_slices(self):
        rng = np.random.default_rng(2)
        g = make_chain(rng, (4, 6))
        plan = plan_for(g)
        plan.removed_entries[0]["in_slices"] = [["conv2", 999]]
        with pytest.raises(PlanMismatchError, match="does not match"):
            apply_plan(g, plan)

    def test_tampered_prediction_fails_closed(self):
        g = make_chain(np.random.default_rng(4), (4, 6))
        plan = plan_for(g)
        plan.predicted_params += 1
        with pytest.raises(PruneKitError, match="surgery does not match plan: params"):
            apply_plan(g, plan)

    def test_exactness(self):
        rng = np.random.default_rng(3)
        for widths in [(4, 6), (8, 10, 6)]:
            g = make_chain(rng, widths, with_bn=True, conv_bias=True)
            plan = plan_for(g, target=0.35)
            pruned, report = apply_plan(g, plan)
            assert model_param_count(pruned) == plan.predicted_params
            assert manifest_param_count(serialize_graph(pruned)[0]) == plan.predicted_params
            assert model_flop_count(pruned) == plan.predicted_flops
            assert report.post_params == plan.predicted_params
            assert report.post_flops == plan.predicted_flops

    def test_report_contents(self):
        rng = np.random.default_rng(4)
        g = make_chain(rng, (4, 6))
        plan = plan_for(g)
        _, container_before = serialize_graph(g)
        pruned, report = apply_plan(g, plan)
        assert serialize_graph(g)[1] == container_before  # the input graph is left as it was
        assert report.bytes_removed > 0
        _, container_after = serialize_graph(pruned)
        assert report.bytes_removed == len(container_before) - len(container_after)
        assert report.container_checksum == hashlib.sha256(container_after).hexdigest()
        removed_total = sum(len(v) for v in report.removed_outputs.values())
        assert removed_total == sum(len(e["members"]) for e in plan.removed_entries)
        payload = report.to_dict()
        assert set(payload) == {
            "removed_outputs",
            "removed_inputs",
            "bytes_removed",
            "post_params",
            "post_flops",
            "container_checksum",
        }

    def test_pruned_graph_reloads(self, tmp_path):
        rng = np.random.default_rng(5)
        g = make_chain(rng, (6, 8), with_bn=True)
        pruned, _ = apply_plan(g, plan_for(g))
        manifest, weights = save_tmp(pruned, tmp_path, "pruned")
        loaded = load_model(manifest, weights)
        assert validate(loaded) == []
        infer_shapes(loaded)
        assert graph_checksum(loaded) == graph_checksum(pruned)


class TestSlicing:
    def test_untouched_weights_preserved(self):
        rng = np.random.default_rng(6)
        g = make_chain(rng, (4, 6))
        units = {u.uid: u for u in build_prune_units(g)}
        u = units["conv1.c1"]
        pruned = apply_units(g, [u])
        survivors = [0, 2, 3]
        assert np.array_equal(pruned.nodes["conv1"].weight(), g.nodes["conv1"].weight()[survivors])
        assert np.array_equal(pruned.nodes["conv2"].weight(), g.nodes["conv2"].weight()[:, survivors])
        assert np.array_equal(pruned.nodes["head"].weight(), g.nodes["head"].weight())

    def test_untouched_layers_share_tensors(self, vgg_graph):
        chain = make_chain(np.random.default_rng(29), (4, 6, 5), conv_bias=True)
        for g, uid in ((chain, "conv1.c1"), (vgg_graph, "conv3_2.c7")):
            before = graph_checksum(g)
            unit = next(u for u in build_prune_units(g) if u.uid == uid)
            pruned = apply_units(g, [unit])
            touched = {m.layer for m in unit.members} | {s.layer for s in unit.in_slices}
            for node in g.weighted_layers():
                kept = pruned.nodes[node.id].tensors
                shared = {role: kept[role] is blob for role, blob in node.tensors.items()}
                assert set(shared.values()) == {node.id not in touched}, (uid, node.id, shared)
            assert graph_checksum(g) == before

    def test_bn_and_bias_shrink_with_channel(self):
        rng = np.random.default_rng(7)
        g = make_chain(rng, (5,), with_bn=True, conv_bias=True)
        units = {u.uid: u for u in build_prune_units(g)}
        pruned = apply_units(g, [units["conv1.c2"]])
        keep = [0, 1, 3, 4]
        assert np.array_equal(pruned.nodes["conv1"].tensors["bias"], g.nodes["conv1"].tensors["bias"][keep])
        for role in ("gamma", "beta", "running_mean", "running_var"):
            assert np.array_equal(pruned.nodes["bn1"].tensors[role], g.nodes["bn1"].tensors[role][keep])
        assert pruned.nodes["bn1"].attrs["channels"] == 4

    def test_residual_group_keeps_alignment(self):
        rng = np.random.default_rng(8)
        g = make_residual_toy(rng, width=8, planes=4, blocks=2)
        groups = [u for u in build_prune_units(g) if len(u.members) > 1]
        pruned = apply_units(g, groups[:3])
        assert validate(pruned) == []
        assert pruned.nodes["stem"].declared_out_width() == 5
        assert pruned.nodes["b1_conv3"].declared_out_width() == 5
        assert pruned.nodes["b2_conv3"].declared_out_width() == 5

    def test_dense_in_slice_keeps_producer(self):
        rng = np.random.default_rng(9)
        g = make_dense_toy(rng)
        target = next(u for u in build_prune_units(g) if u.kind == IN_CHANNEL_ONLY)
        pruned = apply_units(g, [target])
        producer = target.origin.layer
        assert np.array_equal(pruned.nodes[producer].weight(), g.nodes[producer].weight())
        consumer = target.in_slices[0].layer
        assert pruned.nodes[consumer].declared_in_width() == g.nodes[consumer].declared_in_width() - 1
        assert pruned.nodes[consumer].in_select() is not None

    def test_multi_pass_composability(self):
        rng = np.random.default_rng(10)
        g = make_dense_toy(rng, entry_width=8, growth=4, layers=3)
        for _ in range(3):
            plan = plan_for(g, target=0.15)
            g, _ = apply_plan(g, plan)
            assert validate(g) == []
        assert model_flop_count(g) < model_flop_count(make_dense_toy(np.random.default_rng(10), entry_width=8, growth=4, layers=3))

    def test_multi_pass_residual(self):
        rng = np.random.default_rng(11)
        g = make_residual_toy(rng, width=10, planes=5, blocks=2)
        baseline = model_flop_count(g)
        for _ in range(2):
            plan = plan_for(g, target=0.2)
            g, _ = apply_plan(g, plan)
            assert validate(g) == []
        assert model_flop_count(g) <= 0.64 * baseline
        # tied boundary stays aligned through repeated surgery
        assert g.nodes["stem"].declared_out_width() == g.nodes["b1_conv3"].declared_out_width()
        assert g.nodes["stem"].declared_out_width() == g.nodes["b2_conv3"].declared_out_width()

    def test_in_select_after_concat_over_add(self):
        # removing p.c1 drops cat column 1; d.in5 drops only d's read of r.c1,
        # so d keeps cat columns 0, 2, 3, 4, 6, at positions 0, 1, 2, 3, 5
        g = concat_over_add()
        units = {u.uid: u for u in build_prune_units(g)}
        pruned = apply_units(g, [units["p.c1"], units["d.in5"]])
        assert pruned.nodes["cat"].out_channels == 6
        assert pruned.nodes["d"].in_select() == [0, 1, 2, 3, 5]
        assert np.array_equal(pruned.nodes["d"].weight(), g.nodes["d"].weight()[:, [0, 2, 3, 4, 6]])


class TestApplyUnitsFailsClosed:
    @pytest.mark.parametrize(
        "make, unit, message",
        [
            (
                lambda: make_chain(np.random.default_rng(40), (4, 6)),
                hand_unit(members=[("conv1", c) for c in range(4)], in_slices=[("conv2", c) for c in range(4)]),
                "conv1: surgery would remove every channel",
            ),
            (
                lambda: make_chain(np.random.default_rng(41), (4, 6)),
                hand_unit(members=[("conv1", 0)]),
                "conv2: surviving slot reads removed channel 0",
            ),
            (
                lambda: make_chain(np.random.default_rng(42), (4, 6), with_bn=True),
                hand_unit(members=[("conv1", 0)], in_slices=[("conv2", 0)]),
                r"bn1: batch-norm slice set \[\] does not match upstream removals \[0\]",
            ),
            (
                lambda: make_residual_toy(np.random.default_rng(43), with_bn=False),
                hand_unit(members=[("b1_conv3", 0)]),
                "b1_add: removal pattern breaks Add operand alignment",
            ),
            (
                lambda: make_chain(np.random.default_rng(44), (4, 6), with_bn=True),
                hand_unit(members=[("conv1", 99)]),
                "conv1: unit names output channel 99, which the layer does not have",
            ),
            (
                lambda: make_chain(np.random.default_rng(45), (4, 6), with_bn=True),
                hand_unit(members=[("bn1", 0)]),
                "bn1: unit names output channel 0, which the layer does not have",
            ),
            (
                lambda: make_chain(np.random.default_rng(46), (4, 6), with_bn=True),
                hand_unit(in_slices=[("conv2", 99)]),
                "conv2: unit names input slot 99, which the layer does not have",
            ),
        ],
        ids=[
            "every-channel",
            "slot-reads-removed-channel",
            "bn-slice-mismatch",
            "add-misaligned",
            "member-outside-width",
            "member-on-batchnorm",
            "slice-outside-width",
        ],
    )
    def test_inconsistent_units_rejected(self, make, unit, message):
        with pytest.raises(PruneKitError, match=message):
            apply_units(make(), [unit])


class TestZeroEquivalence:
    def test_plain_chain_units(self):
        rng = np.random.default_rng(11)
        g = make_chain(rng, (4, 6), with_bn=True, conv_bias=True)
        for u in build_prune_units(g):
            assert zero_equivalence_check(g, u, trials=6), u.uid

    def test_residual_groups(self):
        rng = np.random.default_rng(12)
        g = make_residual_toy(rng, width=6, planes=3, blocks=2)
        for u in build_prune_units(g):
            assert zero_equivalence_check(g, u, trials=6), u.uid

    def test_dense_in_slices(self):
        rng = np.random.default_rng(13)
        g = make_dense_toy(rng, with_bn=True)
        for u in build_prune_units(g):
            assert zero_equivalence_check(g, u, trials=6), u.uid

    def test_flatten_column_blocks(self):
        rng = np.random.default_rng(14)
        g = make_flatten_toy(rng)
        for u in build_prune_units(g):
            assert zero_equivalence_check(g, u, trials=6), u.uid

    def test_concat_over_add(self):
        g = concat_over_add()
        for u in build_prune_units(g):
            assert zero_equivalence_check(g, u, trials=6), u.uid

    def test_all_zero_model_trivially_equivalent(self):
        rng = np.random.default_rng(15)
        g = make_chain(rng, (4, 6))
        for node in g.weighted_layers():
            node.weight()[:] = 0.0
        u = build_prune_units(g)[0]
        assert zero_equivalence_check(g, u, trials=3)

    def test_zeroed_and_pruned_agree_on_random_nets(self):
        rng = np.random.default_rng(16)
        for _ in range(6):
            g = random_tiny_net(rng)
            units = build_prune_units(g)
            pick = units[int(rng.integers(0, len(units)))]
            assert zero_equivalence_check(g, pick, trials=4), pick.uid


    def test_batched_check_fails_closed(self, monkeypatch):
        from prunekit import surgeon

        rng = np.random.default_rng(30)
        g = make_chain(rng, (4, 6), with_bn=True)
        unit = build_prune_units(g)[0]
        assert zero_equivalence_check(g, unit, trials=4)
        real_apply_units = surgeon.apply_units

        def perturbed(graph, units):
            out = real_apply_units(graph, units)
            node = out.nodes["head"]
            w = node.weight().copy()
            w.flat[0] += 0.5
            node.tensors["weight"] = w
            return out

        monkeypatch.setattr(surgeon, "apply_units", perturbed)
        assert zero_equivalence_check(g, unit, trials=4) is False

    def test_copies_only_the_layers_it_zeroes(self, monkeypatch):
        from prunekit import surgeon

        g = make_chain(np.random.default_rng(32), (4, 6, 5), with_bn=True, conv_bias=True)
        unit = next(u for u in build_prune_units(g) if u.uid == "conv2.c1")
        before = graph_checksum(g)
        evaluated = []

        def spy(graph, x):
            evaluated.append(graph)
            return forward_eval(graph, x)

        monkeypatch.setattr(surgeon, "forward_eval", spy)
        assert zero_equivalence_check(g, unit, trials=3)
        assert graph_checksum(g) == before
        zeroed = evaluated[0]
        for nid, node in g.nodes.items():
            for role, t in node.tensors.items():
                shared = zeroed.nodes[nid].tensors[role] is t
                assert shared == (nid not in {"conv2", "bn2", "conv3"}), (nid, role)

    def test_one_batched_pass_per_graph(self, monkeypatch):
        from prunekit import surgeon

        rng = np.random.default_rng(31)
        g = make_dense_toy(rng, with_bn=True)
        unit = build_prune_units(g)[0]
        seen = []

        def spy(graph, x):
            seen.append(x)
            return forward_eval(graph, x)

        monkeypatch.setattr(surgeon, "forward_eval", spy)
        assert zero_equivalence_check(g, unit, trials=5, seed=3)
        expected = np.random.default_rng(3).standard_normal((5, 3, 8, 8))
        assert len(seen) == 2
        assert all(np.array_equal(x, expected) for x in seen)

    def test_batched_draw_equals_sequential_draws(self):
        # the check draws all trials at once; these are the per-trial inputs
        shape = (3, 8, 8)
        batch = np.random.default_rng(7).standard_normal((5, *shape))
        rng = np.random.default_rng(7)
        assert np.array_equal(batch, np.stack([rng.standard_normal(shape) for _ in range(5)]))


class TestForwardConsistency:
    def test_whole_plan_equivalence_on_random_nets(self):
        # the whole removal set behaves like zeroing it, across topologies
        from prunekit import InfeasibleBudgetError
        from prunekit.surgeon import clone_graph

        rng = np.random.default_rng(18)
        done = 0
        while done < 30:
            g = random_tiny_net(rng)
            try:
                plan = plan_for(g, target=float(rng.uniform(0.15, 0.45)))
            except InfeasibleBudgetError:
                continue
            pruned, _ = apply_plan(g, plan)
            zeroed = clone_graph(g)
            by_uid = {u.uid: u for u in build_prune_units(g)}
            for uid in plan.removed_unit_ids:
                u = by_uid[uid]
                for m in u.members:
                    node = zeroed.nodes[m.layer]
                    node.weight()[m.channel] = 0.0
                    if "bias" in node.tensors:
                        node.tensors["bias"][m.channel] = 0.0
                for a in u.aux:
                    node = zeroed.nodes[a.layer]
                    if node.kind == "BatchNorm2d":
                        node.tensors["gamma"][a.index] = 0.0
                        node.tensors["beta"][a.index] = 0.0
                for s in u.in_slices:
                    zeroed.nodes[s.layer].weight()[:, s.in_channel] = 0.0
            x = rng.standard_normal((g.input_channels, g.input_size, g.input_size))
            assert np.allclose(forward_eval(pruned, x), forward_eval(zeroed, x), rtol=1e-5, atol=1e-8)
            done += 1

    def test_pruned_output_matches_zeroed_full_precision(self):
        # removing a whole plan's units is equivalent to zeroing them all
        rng = np.random.default_rng(17)
        g = make_chain(rng, (6, 8), with_bn=True, conv_bias=True)
        plan = plan_for(g, target=0.3)
        pruned, _ = apply_plan(g, plan)
        from prunekit.surgeon import clone_graph

        zeroed = clone_graph(g)
        by_uid = {u.uid: u for u in build_prune_units(g)}
        for uid in plan.removed_unit_ids:
            u = by_uid[uid]
            for m in u.members:
                node = zeroed.nodes[m.layer]
                node.weight()[m.channel] = 0.0
                if "bias" in node.tensors:
                    node.tensors["bias"][m.channel] = 0.0
            for a in u.aux:
                node = zeroed.nodes[a.layer]
                if node.kind == "BatchNorm2d":
                    node.tensors["gamma"][a.index] = 0.0
                    node.tensors["beta"][a.index] = 0.0
            for s in u.in_slices:
                zeroed.nodes[s.layer].weight()[:, s.in_channel] = 0.0
        for _ in range(4):
            x = rng.standard_normal((3, 8, 8))
            assert np.allclose(forward_eval(pruned, x), forward_eval(zeroed, x), rtol=1e-5, atol=1e-8)
