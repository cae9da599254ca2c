"""Surgery: slicing correctness, functional equivalence, exactness."""

from __future__ import annotations

import hashlib
import re
import weakref

import numpy as np
import pytest

from prunekit import (
    Config,
    GraphBuilder,
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
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, unit_table

from conftest import (
    bn_params,
    concat_over_add,
    conv_w,
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_minimal,
    make_residual_toy,
    plan_from_other_units,
    random_tiny_net,
    save_tmp,
)
from oracles import manifest_param_count, ref_units


def plan_for(graph, target=0.3, **config_kwargs):
    config = Config(flop_target_ratio=target, **config_kwargs)
    units = build_prune_units(graph)
    records = score_all(graph, units, config)
    return select_threshold(records, graph, config)


def hand_unit(members=(), in_slices=(), aux=()):
    """The units.json entry of a unit made by hand, not by build_prune_units."""
    return {
        "uid": "hand",
        "kind": FULL_CHANNEL,
        "members": [list(m) for m in members],
        "in_slices": [list(s) for s in in_slices],
        "aux": [list(a) for a in aux],
        "family": "hand",
    }


def only(units, *uids):
    """The rows of ``units`` named ``uids``, as a table."""
    return units.take([units.uid.index(uid) for uid in uids])


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

    def test_corrupt_plan_units_checksum_tampered(self):
        g = make_chain(np.random.default_rng(2), (4, 6))
        plan = plan_for(g)
        plan.units_checksum = plan.units_checksum[::-1]
        with pytest.raises(PlanMismatchError, match=r"^plan was produced from other units \(units checksum mismatch\)$"):
            apply_plan(g, plan)

    @pytest.mark.parametrize(
        "change",
        [
            lambda entries: entries.pop(),
            lambda entries: entries.insert(0, entries.pop(1)),
            lambda entries: entries.__setitem__(0, {**entries[0], "unit_id": "conv1.c3"}),
        ],
        ids=["entry-dropped", "entries-reordered", "entry-names-another-unit"],
    )
    def test_corrupt_plan_other_removed_units(self, change):
        # each entry names a unit of the graph, once, but not the units the plan's checksum covers
        g = make_chain(np.random.default_rng(6), (4, 6))
        plan = plan_for(g)
        assert "conv1.c3" not in plan.removed_unit_ids
        change(plan.removed_entries)
        with pytest.raises(PlanMismatchError, match="units checksum mismatch"):
            apply_plan(g, plan)

    @pytest.mark.parametrize(
        "model",
        [lambda: make_chain(np.random.default_rng(6), (4, 6)), lambda: make_dense_toy(np.random.default_rng(8))],
        ids=["chain", "dense"],
    )
    def test_plan_from_other_units(self, model):
        # the removed rows carry the builder's uids, but one lost an in-slice
        g = model()
        plan = plan_from_other_units(g)
        with pytest.raises(PlanMismatchError, match="units checksum mismatch"):
            apply_plan(g, plan)

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda e: "x",
            lambda e: {"members": []},
            lambda e: {**e, "unit_id": [e["unit_id"]]},
            lambda e: None,
            lambda e: {**e, "imp": True},
            lambda e: {"unit_id": e["unit_id"]},
        ],
        ids=["string", "no-unit-id", "list-unit-id", "none", "bool-imp", "no-imp"],
    )
    def test_corrupt_plan_malformed_entry(self, malformed):
        # an in-memory plan skips from_json's checks, so apply_plan checks each entry's shape
        g = make_chain(np.random.default_rng(1), (4, 6))
        plan = plan_for(g)
        plan.removed_entries[0] = malformed(plan.removed_entries[0])
        with pytest.raises(PlanMismatchError, match="^corrupt plan: removed unit .* needs a string unit_id and a number imp$"):
            apply_plan(g, plan)

    def test_corrupt_plan_removed_units_not_a_list(self):
        g = make_chain(np.random.default_rng(1), (4, 6))
        plan = plan_for(g)
        plan.removed_entries = tuple(plan.removed_entries)
        with pytest.raises(PlanMismatchError, match="corrupt plan: removed units must be a list"):
            apply_plan(g, plan)

    def test_corrupt_plan_duplicate_unit(self):
        # the surgery and recount would pass, but the report would count the unit twice
        g = make_chain(np.random.default_rng(5), (4, 6))
        plan = plan_for(g)
        plan.removed_entries.append(dict(plan.removed_entries[0]))
        with pytest.raises(PlanMismatchError, match="unit 'conv.*' listed twice"):
            apply_plan(g, plan)

    def test_corrupt_plan_first_failing_entry_wins(self):
        # each entry is matched before the next one, and every entry before the checksum
        g = make_chain(np.random.default_rng(6), (4, 6))
        plan = plan_for(g)
        plan.units_checksum = "0" * 64
        plan.removed_entries.insert(1, dict(plan.removed_entries[0]))
        plan.removed_entries[2]["unit_id"] = "conv9.c99"
        with pytest.raises(PlanMismatchError, match=r"^corrupt plan: unit 'conv1\.c2' listed twice$"):
            apply_plan(g, plan)
        del plan.removed_entries[1]
        with pytest.raises(PlanMismatchError, match=r"^corrupt plan: unknown unit 'conv9\.c99'$"):
            apply_plan(g, plan)

    def test_corrupt_plan_on_a_model_without_units(self):
        g = make_minimal()
        assert not len(build_prune_units(g))
        plan = plan_for(make_chain(np.random.default_rng(6), (4, 6)))
        plan.model_checksum = graph_checksum(g)
        with pytest.raises(PlanMismatchError, match="^corrupt plan: unknown unit 'conv1.c2'$"):
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
        assert removed_total == len(only(build_prune_units(g), *plan.removed_unit_ids).members.ids)
        payload = report.to_dict()
        assert set(payload) == {
            "removed_outputs",
            "removed_inputs",
            "bytes_removed",
            "post_params",
            "post_flops",
            "container_checksum",
        }

    @pytest.mark.parametrize("seed", range(12))
    def test_pruned_graph_reloads(self, tmp_path, seed):
        # chains, residual and flatten nets, and dense nets (seeds 4, 5, 8 and
        # 10) whose pruned consumers keep in_select
        g = random_tiny_net(np.random.default_rng(seed))
        pruned, _ = apply_plan(g, plan_for(g, target=0.5))
        if any(node.kind == "Concat" for node in g.nodes.values()):
            assert any("in_select" in node.attrs for node in pruned.nodes.values())
        loaded = load_model(*save_tmp(pruned, tmp_path, "pruned"))
        assert validate(loaded) == []
        infer_shapes(loaded)
        assert graph_checksum(loaded) == graph_checksum(pruned)


class TestSlicing:
    def test_untouched_weights_preserved(self):
        rng = np.random.default_rng(6)
        g = make_chain(rng, (4, 6))
        pruned = apply_units(g, only(build_prune_units(g), "conv1.c1"))
        survivors = [0, 2, 3]
        assert np.array_equal(pruned.nodes["conv1"].weight(), g.nodes["conv1"].weight()[survivors])
        assert np.array_equal(pruned.nodes["conv2"].weight(), g.nodes["conv2"].weight()[:, survivors])
        assert np.array_equal(pruned.nodes["head"].weight(), g.nodes["head"].weight())

    def test_untouched_layers_share_tensors(self, vgg_graph):
        chain = make_chain(np.random.default_rng(29), (4, 6, 5), conv_bias=True)
        for g, uid in ((chain, "conv1.c1"), (vgg_graph, "conv3_2.c7")):
            before = graph_checksum(g)
            unit = only(build_prune_units(g), uid)
            pruned = apply_units(g, unit)
            refs = ref_units(unit)[0]
            touched = {m.layer for m in refs.members} | {s.layer for s in refs.in_slices}
            for node in g.weighted_layers():
                kept = pruned.nodes[node.id].tensors
                shared = {role: kept[role] is blob for role, blob in node.tensors.items()}
                assert set(shared.values()) == {node.id not in touched}, (uid, node.id, shared)
            assert graph_checksum(g) == before

    def test_bn_and_bias_shrink_with_channel(self):
        rng = np.random.default_rng(7)
        g = make_chain(rng, (5,), with_bn=True, conv_bias=True)
        pruned = apply_units(g, only(build_prune_units(g), "conv1.c2"))
        keep = [0, 1, 3, 4]
        assert np.array_equal(pruned.nodes["conv1"].tensors["bias"], g.nodes["conv1"].tensors["bias"][keep])
        for role in ("gamma", "beta", "running_mean", "running_var"):
            assert np.array_equal(pruned.nodes["bn1"].tensors[role], g.nodes["bn1"].tensors[role][keep])
        assert pruned.nodes["bn1"].attrs["channels"] == 4

    def test_residual_group_keeps_alignment(self):
        rng = np.random.default_rng(8)
        g = make_residual_toy(rng, width=8, planes=4, blocks=2)
        units = build_prune_units(g)
        groups = [row for row, u in enumerate(ref_units(units)) if len(u.members) > 1]
        pruned = apply_units(g, units.take(groups[:3]))
        assert validate(pruned) == []
        assert pruned.nodes["stem"].declared_out_width() == 5
        assert pruned.nodes["b1_conv3"].declared_out_width() == 5
        assert pruned.nodes["b2_conv3"].declared_out_width() == 5

    def test_dense_in_slice_keeps_producer(self):
        rng = np.random.default_rng(9)
        g = make_dense_toy(rng)
        units = build_prune_units(g)
        target = next(u for u in ref_units(units) if u.kind == IN_CHANNEL_ONLY)
        pruned = apply_units(g, only(units, target.uid))
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
        pruned = apply_units(g, only(build_prune_units(g), "p.c1", "d.in5"))
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
            (
                lambda: make_chain(np.random.default_rng(47), (4, 6), conv_bias=True),
                hand_unit(members=[("conv1", 0)], in_slices=[("conv2", 0)], aux=[("conv1", 3)]),
                r"conv1: bias entry set \[3\] does not match removed channels \[0\]",
            ),
            (
                lambda: make_chain(np.random.default_rng(48), (4, 6), conv_bias=True),
                hand_unit(members=[("conv1", 0)], in_slices=[("conv2", 0)]),
                r"conv1: bias entry set \[\] does not match removed channels \[0\]",
            ),
            (
                lambda: make_chain(np.random.default_rng(49), (4, 6)),
                hand_unit(members=[("conv1", 0)], in_slices=[("conv2", 0)], aux=[("conv1", 0)]),
                "conv1: unit names vector entry 0, which the layer does not have",
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
            "bias-entry-wrong",
            "bias-entry-missing",
            "bias-entry-without-bias",
        ],
    )
    def test_inconsistent_units_rejected(self, make, unit, message):
        g = make()
        with pytest.raises(PruneKitError, match=message):
            apply_units(g, unit_table(g, [unit]))


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

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"trials": 0}, "trials must be an int of at least 1, got 0"),
            ({"trials": -1}, "trials must be an int of at least 1, got -1"),
            ({"trials": 2.5}, "trials must be an int of at least 1, got 2.5"),
            ({"trials": True}, "trials must be an int of at least 1, got True"),
            ({"rtol": float("nan")}, "rtol must be a finite number of at least 0, got nan"),
            ({"rtol": float("inf")}, "rtol must be a finite number of at least 0, got inf"),
            ({"rtol": -1e-5}, "rtol must be a finite number of at least 0, got -1e-05"),
            ({"rtol": "1e-5"}, "rtol must be a finite number of at least 0, got '1e-5'"),
            ({"rtol": True}, "rtol must be a finite number of at least 0, got True"),
            ({"trials": np.float64(2.0)}, f"trials must be an int of at least 1, got {np.float64(2.0)!r}"),
            ({"trials": np.True_}, f"trials must be an int of at least 1, got {np.True_!r}"),
            ({"trials": np.int64(0)}, f"trials must be an int of at least 1, got {np.int64(0)!r}"),
            ({"rtol": np.float32("nan")}, f"rtol must be a finite number of at least 0, got {np.float32('nan')!r}"),
        ],
        ids=["trials-zero", "trials-negative", "trials-float", "trials-bool", "rtol-nan", "rtol-inf", "rtol-negative",
             "rtol-str", "rtol-bool", "trials-np-float", "trials-np-bool", "trials-np-zero", "rtol-np-nan"],
    )
    def test_bad_arguments_rejected(self, kwargs, message):
        g = make_chain(np.random.default_rng(34), (4, 6), with_bn=True)
        with pytest.raises(PruneKitError, match=re.escape(message)):
            zero_equivalence_check(g, build_prune_units(g)[0], **kwargs)

    def test_numpy_scalar_arguments_accepted(self):
        g = make_chain(np.random.default_rng(34), (4, 6), with_bn=True)
        assert zero_equivalence_check(g, build_prune_units(g)[0], trials=np.int64(2), rtol=np.float32(1e-5))

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

    def test_surgery_bug_before_the_cut_fails_closed(self, monkeypatch):
        # conv2.c1 first touches conv2, so the check shares the prefix up to it;
        # a pruned graph whose conv1 differs from the input's must run in full
        from prunekit import surgeon

        rng = np.random.default_rng(35)
        g = make_chain(rng, (4, 6, 5), with_bn=True, conv_bias=True)
        unit = next(u for u in build_prune_units(g) if u.uid == "conv2.c1")
        assert zero_equivalence_check(g, unit, trials=4)
        real_apply_units = surgeon.apply_units

        def perturbed(graph, units):
            out = real_apply_units(graph, units)
            node = out.nodes["conv1"]
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
        real_run = surgeon._run

        def spy(graph, x, stop=None, resume=None):
            evaluated.append(graph)
            return real_run(graph, x, stop, resume)

        monkeypatch.setattr(surgeon, "_run", spy)
        assert zero_equivalence_check(g, unit, trials=3)
        assert graph_checksum(g) == before
        assert evaluated[0] is g  # the shared prefix
        zeroed = evaluated[1]
        for nid, node in g.nodes.items():
            for role, t in node.tensors.items():
                shared = zeroed.nodes[nid].tensors[role] is t
                assert shared == (nid not in {"conv2", "bn2", "conv3"}), (nid, role)

    def test_drops_the_zeroed_graph_before_surgery(self, monkeypatch):
        from prunekit import surgeon

        g = make_chain(np.random.default_rng(33), (4, 6, 5), with_bn=True, conv_bias=True)
        unit = next(u for u in build_prune_units(g) if u.uid == "conv2.c1")
        zeroed = []  # weak references to the zeroed graph and to its own tensor copies
        alive_at_surgery = []
        real_run = surgeon._run

        def eval_spy(graph, x, stop=None, resume=None):
            if not zeroed and graph is not g:
                copies = [
                    t
                    for nid, node in graph.nodes.items()
                    for role, t in node.tensors.items()
                    if t is not g.nodes[nid].tensors[role]
                ]
                zeroed.extend(map(weakref.ref, [graph, *copies]))
            return real_run(graph, x, stop, resume)

        def apply_spy(graph, units):
            alive_at_surgery.extend(ref() is not None for ref in zeroed)
            return apply_units(graph, units)

        monkeypatch.setattr(surgeon, "_run", eval_spy)
        monkeypatch.setattr(surgeon, "apply_units", apply_spy)
        assert zero_equivalence_check(g, unit, trials=3)
        assert len(alive_at_surgery) > 1 and not any(alive_at_surgery)

    def test_one_batched_pass_per_graph(self, monkeypatch):
        # the input graph runs up to the cut, then the zeroed and the pruned
        # graphs each run once from there, all on the one batched draw
        from prunekit import surgeon

        rng = np.random.default_rng(31)
        g = make_dense_toy(rng, with_bn=True)
        unit = build_prune_units(g)[0]
        seen = []
        real_run = surgeon._run

        def spy(graph, x, stop=None, resume=None):
            seen.append((graph, x, stop, resume))
            return real_run(graph, x, stop, resume)

        monkeypatch.setattr(surgeon, "_run", spy)
        assert zero_equivalence_check(g, unit, trials=5, seed=3)
        expected = np.random.default_rng(3).standard_normal((5, 3, 8, 8))
        assert len(seen) == 3
        assert all(np.array_equal(x, expected) for _, x, _, _ in seen)
        (first, _, cut, none), (zeroed, _, stop_z, prefix), (pruned, _, stop_p, prefix_p) = seen
        assert first is g and none is None and 0 < cut < len(g.order)
        assert len({id(first), id(zeroed), id(pruned)}) == 3
        assert stop_z is None and stop_p is None and prefix_p is prefix and prefix[0] == cut

    def test_batched_draw_equals_sequential_draws(self):
        # the check draws all trials at once; these are the per-trial inputs
        shape = (3, 8, 8)
        batch = np.random.default_rng(7).standard_normal((5, *shape))
        rng = np.random.default_rng(7)
        assert np.array_equal(batch, np.stack([rng.standard_normal(shape) for _ in range(5)]))


class TestSharedPrefix:
    """zero_equivalence_check evaluates the input graph up to the first node
    the zeroed graph changes, once, and resumes the zeroed and pruned graphs
    from there: each output must equal a full evaluation bit for bit."""

    @staticmethod
    def check(monkeypatch, g, unit, trials=2, seed=0):
        from prunekit import surgeon
        from prunekit.units import graph_row

        calls = []
        real_run = surgeon._run

        def spy(graph, x, stop=None, resume=None):
            out = real_run(graph, x, stop, resume)
            snapshot = None if stop is None else {nid: v.copy() for nid, v in out.items()}
            calls.append((x, stop, resume, out, snapshot))
            return out

        monkeypatch.setattr(surgeon, "_run", spy)
        assert zero_equivalence_check(g, unit, trials=trials, seed=seed), unit.uid
        monkeypatch.undo()
        (x, cut, _, live, snapshot), (_, _, prefix, y_zero, _), (_, _, resumed, y_cut, _) = calls
        assert prefix == (cut, live) and resumed is prefix, unit.uid
        row = graph_row(g, unit)
        assert np.array_equal(y_zero, forward_eval(surgeon._zeroed(g, row), x)), unit.uid
        assert np.array_equal(y_cut, forward_eval(apply_units(g, row), x)), unit.uid
        # neither suffix wrote into an activation of the shared prefix
        assert snapshot.keys() == live.keys()
        assert all(np.array_equal(live[nid], v) for nid, v in snapshot.items()), unit.uid

    def test_random_tiny_nets(self, monkeypatch):
        rng = np.random.default_rng(36)
        for _ in range(10):
            g = random_tiny_net(rng)
            units = build_prune_units(g)
            self.check(monkeypatch, g, units[int(rng.integers(0, len(units)))], trials=3)

    def test_prefix_activations_last_read_by_elementwise_layers(self, monkeypatch):
        # s and t are computed before the cut at c1 and last read after it, by
        # a ReLU and as an Add's first operand, which could write into them
        rng = np.random.default_rng(37)
        b = GraphBuilder(3, 8)
        s = b.relu("s", b.conv("stem", "input", conv_w(rng, 4, 3, 3), padding=1))
        t = b.batchnorm("t", b.conv("stem2", "input", conv_w(rng, 4, 3, 1)), **bn_params(rng, 4))
        c2 = b.conv("c2", b.relu("r1", b.conv("c1", s, conv_w(rng, 3, 4, 3), padding=1)), conv_w(rng, 4, 3, 1))
        add = b.addnode("add", [t, c2, b.relu("side", s)])
        flat = b.flatten("flat", b.pool("gap", add, "global-avg"))
        g = infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 4)).astype(np.float32))))
        self.check(monkeypatch, g, next(u for u in build_prune_units(g) if u.uid == "c1.c1"), trials=3)

    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zoo_units_of_each_kind(self, monkeypatch, request, model):
        g = request.getfixturevalue(model)
        units = build_prune_units(g)
        kinds = set(units.kind)
        assert FULL_CHANNEL in kinds and (IN_CHANNEL_ONLY in kinds) == (model == "densenet_graph")
        for kind in sorted(kinds):
            pool = [u for u in units if u.kind == kind]
            self.check(monkeypatch, g, pool[len(pool) // 2])


class TestForwardConsistency:
    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zeroed_table_matches_pruned_table(self, request, model):
        # every row of a table is zeroed, not only its first
        from prunekit.surgeon import _zeroed

        g = request.getfixturevalue(model)
        units = build_prune_units(g)
        table = units.take([0, len(units) // 2, len(units) - 1])
        x = np.random.default_rng(19).standard_normal((2, g.input_channels, g.input_size, g.input_size))
        zeroed, pruned = forward_eval(_zeroed(g, table), x), forward_eval(apply_units(g, table), x)
        assert np.allclose(pruned, zeroed, rtol=1e-5, atol=1e-8)

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
            by_uid = {u.uid: u for u in ref_units(build_prune_units(g))}
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
        by_uid = {u.uid: u for u in ref_units(build_prune_units(g))}
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
