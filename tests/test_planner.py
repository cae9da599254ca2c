"""Planning: global ranking, threshold selection, multi-pass."""

from __future__ import annotations

import os
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunekit.costs as costs_module
import prunekit.scoring as scoring_module
import prunekit.surgeon as surgeon_module
from prunekit import (
    Config,
    DegenerateModelError,
    GraphBuilder,
    InfeasibleBudgetError,
    PruneKitError,
    apply_plan,
    build_prune_units,
    graph_checksum,
    infer_shapes,
    load_model,
    model_flop_count,
    model_param_count,
    multi_pass,
    rank_global,
    score_all,
    select_threshold,
    validate,
)
from prunekit.zoo import resnet56
from prunekit.graph import serialize_graph
from prunekit.planner import PruningPlan
from prunekit.units import IN_CHANNEL_ONLY

from conftest import conv_w, hand_scores, make_chain, random_tiny_net, save_tmp
from oracles import (
    enumerate_all_subsets_check,
    exhaustive_prefix_plan,
    greedy_plan,
    loop_raw_score,
    manifest_param_count,
    naive_rank,
    ref_units,
)


def fake_scores(*rows):
    """A hand-made score table of (uid, importance, flops, params) rows."""
    uid, imp, flops, params = map(list, zip(*rows)) if rows else [[]] * 4
    zeros = [0.0] * len(uid)
    return hand_scores(
        unit_id=uid,
        layer=["x"] * len(uid),
        channel=[0] * len(uid),
        raw=imp,
        weight_score=imp,
        param_score=zeros,
        flop_score=zeros,
        importance=imp,
        params=params,
        flops=flops,
    )


class TestRankGlobal:
    def test_ascending(self):
        records = fake_scores(("u1", 0.3, 1, 1), ("u2", 0.1, 1, 1), ("u3", 0.2, 1, 1))
        assert [r.unit_id for r in rank_global(records)] == ["u2", "u3", "u1"]

    def test_tie_prefers_costlier(self):
        records = fake_scores(("a", 0.5, 50, 1), ("b", 0.5, 100, 1))
        assert [r.unit_id for r in rank_global(records)] == ["b", "a"]

    def test_tie_cascade_params_then_uid(self):
        records = fake_scores(("b", 0.5, 10, 3), ("a", 0.5, 10, 3), ("c", 0.5, 10, 7))
        assert [r.unit_id for r in rank_global(records)] == ["c", "a", "b"]

    def test_against_naive_sort_oracle(self):
        rng = np.random.default_rng(0)
        records = fake_scores(
            *[
                (f"u{i}", float(rng.choice([0.1, 0.2, 0.3, 0.4])), int(rng.integers(1, 50)), int(rng.integers(1, 50)))
                for i in range(1000)
            ]
        )
        got = [r.unit_id for r in rank_global(records)]
        ref = naive_rank([(r.importance, r.flops, r.params, r.unit_id) for r in records])
        assert got == ref

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_global(fake_scores())


def chain_descriptor(graph):
    """Layer table for the chain oracle."""
    layers = []
    prev_width = graph.input_channels
    for node in graph.weighted_layers():
        layers.append(
            {
                "id": node.id,
                "kernel": node.kernel(),
                "out_size": node.out_size if node.kind == "Conv2d" else 1,
                "width": node.declared_out_width(),
                "in_width": prev_width,
            }
        )
        prev_width = node.declared_out_width()
    return layers


def plan_toy(rng, widths, target, floor=1):
    g = make_chain(rng, widths, kernel=3, with_relu=False)
    config = Config(flop_target_ratio=target, min_channels_per_layer=floor)
    units = build_prune_units(g)
    records = score_all(g, units, config)
    return g, config, records


class TestSelectThreshold:
    def test_score_table_from_another_graph_object_is_refused(self):
        g, config, _ = plan_toy(np.random.default_rng(1), (4, 5), target=0.3)
        twin, _, records = plan_toy(np.random.default_rng(1), (4, 5), target=0.3)
        select_threshold(records, twin, config)
        for scores in (records, records.take([2, 0]), fake_scores(("u1", 0.1, 1, 1))):
            with pytest.raises(PruneKitError, match="^units must be a unit table built from this graph object"):
                select_threshold(scores, g, config)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        g, config, records = plan_toy(rng, (4, 5), target=0.3)
        plan = select_threshold(records, g, config)

        ranked = rank_global(records)
        refs = ref_units(records.units)
        entries = [{"uid": r.unit_id, "layer": refs[r.unit_row].members[0].layer, "imp": r.importance} for r in ranked]
        layers = chain_descriptor(g)
        budget = (1 - config.flop_target_ratio) * model_flop_count(g, "macs")
        ref = exhaustive_prefix_plan(entries, layers, budget, config.min_channels_per_layer)
        assert plan.removed_unit_ids == tuple(ref)
        assert enumerate_all_subsets_check(entries, layers, budget, config.min_channels_per_layer, ref)

    def test_budget_satisfaction_and_minimality(self):
        rng = np.random.default_rng(2)
        g, config, records = plan_toy(rng, (5, 6), target=0.4)
        plan = select_threshold(records, g, config)
        budget = (1 - config.flop_target_ratio) * plan.baseline_flops
        assert plan.predicted_flops <= budget
        # dropping the last removal misses the budget
        g2, report = apply_plan(g, plan)
        assert model_flop_count(g2, "macs") == plan.predicted_flops
        # recount by hand: remove all but the last unit
        from prunekit.surgeon import apply_units

        units = build_prune_units(g)
        partial = apply_units(g, units.take([units.uid.index(uid) for uid in plan.removed_unit_ids[:-1]]))
        assert model_flop_count(partial, "macs") > budget

    def test_threshold_is_last_removed_importance(self):
        rng = np.random.default_rng(3)
        g, config, records = plan_toy(rng, (4, 5), target=0.25)
        plan = select_threshold(records, g, config)
        by_uid = {r.unit_id: r.importance for r in records}
        assert plan.threshold == by_uid[plan.removed_unit_ids[-1]]
        assert all(by_uid[u] <= plan.threshold for u in plan.removed_unit_ids)

    def test_infeasible_budget(self):
        rng = np.random.default_rng(4)
        g, config, records = plan_toy(rng, (4, 5), target=0.999)
        with pytest.raises(InfeasibleBudgetError) as err:
            select_threshold(records, g, config)
        assert 0.0 < err.value.best_frr < 0.999

    @pytest.mark.parametrize(
        "flop_target, param_target, unmet",
        [
            (0.1, 0.995, "parameter target 0.995"),
            (0.99, None, "FLOP target 0.990"),
            (0.99, 0.995, "FLOP target 0.990 and parameter target 0.995"),
        ],
    )
    def test_infeasible_budget_names_the_unmet_targets(self, vgg_graph, flop_target, param_target, unmet):
        config = Config(flop_target_ratio=flop_target, param_target_ratio=param_target, min_channels_per_layer=32)
        records = score_all(vgg_graph, build_prune_units(vgg_graph), config)
        with pytest.raises(InfeasibleBudgetError) as err:
            select_threshold(records, vgg_graph, config)
        # the floors stop the planner at the same units whichever target is unmet
        assert str(err.value) == (
            f"{unmet} unreachable under layer floors; best achievable reduction is 0.9438 in FLOPs and 0.9923 in parameters"
        )
        assert round(err.value.best_frr, 4) == 0.9438

    def test_floor_safety(self):
        rng = np.random.default_rng(5)
        g, config, records = plan_toy(rng, (4, 5), target=0.5, floor=2)
        plan = select_threshold(records, g, config)
        for layer, width in plan.layer_widths_after.items():
            assert width >= 2

    def test_slot_floor_keeps_one_input_slot(self):
        # d1 and d2 reach t only through the Concat, so every input slot of t
        # is an in-channel-only unit; the planner must leave t one of them
        rng = np.random.default_rng(0)
        b = GraphBuilder(3, 8)
        e = b.conv("e", "input", conv_w(rng, 4, 3, 1))
        cat = b.concat("cat", [b.conv("d1", e, conv_w(rng, 2, 4, 1)), b.conv("d2", e, conv_w(rng, 2, 4, 1))])
        t = b.conv("t", cat, conv_w(rng, 16, 4, 3), padding=1)
        flat = b.flatten("flat", b.pool("gap", t, "global-avg"))
        g = infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 16)).astype(np.float32))))
        config = Config(flop_target_ratio=0.95)
        records = score_all(g, build_prune_units(g), config)
        plan = select_threshold(records, g, config)
        slots = [r for r in records if r.unit.kind == IN_CHANNEL_ONLY]
        refs = ref_units(records.units)
        assert sorted(s.layer for r in slots for s in refs[r.unit_row].in_slices) == ["t"] * 4
        kept = [r for r in slots if r.unit_id not in plan.removed_unit_ids]
        # the kept slot ranks below the threshold, so only the slot floor skipped it
        assert len(kept) == 1 and kept[0].importance < plan.threshold
        pruned, _ = apply_plan(g, plan)
        assert pruned.nodes["t"].attrs["in_channels"] == 1

    def test_monotone_in_target(self):
        rng = np.random.default_rng(6)
        g, _, records = plan_toy(rng, (6, 8), target=0.2)
        loose = select_threshold(records, g, Config(flop_target_ratio=0.2))
        strict = select_threshold(records, g, Config(flop_target_ratio=0.45))
        assert set(loose.removed_unit_ids) <= set(strict.removed_unit_ids)
        assert strict.removed_unit_ids[: len(loose.removed_unit_ids)] == loose.removed_unit_ids

    def test_deterministic_plans(self):
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        g1, config1, records1 = plan_toy(rng1, (5, 6), target=0.35)
        g2, config2, records2 = plan_toy(rng2, (5, 6), target=0.35)
        assert select_threshold(records1, g1, config1).to_json() == select_threshold(records2, g2, config2).to_json()

    def test_prr_frr_bounds(self):
        rng = np.random.default_rng(8)
        g, config, records = plan_toy(rng, (5, 6), target=0.3)
        plan = select_threshold(records, g, config)
        assert 0.0 <= plan.prr < 1.0
        assert 0.0 <= plan.frr < 1.0
        assert plan.frr >= config.flop_target_ratio

    def test_param_budget_as_secondary_criterion(self):
        rng = np.random.default_rng(13)
        g, _, records = plan_toy(rng, (6, 8), target=0.2)
        flops_only = select_threshold(records, g, Config(flop_target_ratio=0.2))
        both = select_threshold(records, g, Config(flop_target_ratio=0.2, param_target_ratio=0.4))
        assert both.prr >= 0.4
        assert both.frr >= 0.2
        assert len(both.removed_unit_ids) >= len(flops_only.removed_unit_ids)
        assert set(flops_only.removed_unit_ids) <= set(both.removed_unit_ids)

    def test_plan_json_round_trip(self):
        rng = np.random.default_rng(9)
        g, config, records = plan_toy(rng, (4, 5), target=0.3)
        plan = select_threshold(records, g, config)
        again = PruningPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()


def assert_plan_matches_recount(graph, config):
    records = score_all(graph, build_prune_units(graph), config)
    taken, params, flops, want = greedy_plan(records, graph, config)
    if want is None:
        with pytest.raises(InfeasibleBudgetError) as err:
            select_threshold(records, graph, config)
        base_flops = model_flop_count(graph, config.flops_convention)
        assert err.value.best_frr == 1.0 - flops / base_flops
        return None
    plan = select_threshold(records, graph, config)
    assert plan.removed_unit_ids == tuple(taken)
    assert (plan.predicted_params, plan.predicted_flops) == (params, flops)
    assert plan.to_json() == want
    return plan


PLANNER_CONFIGS = [
    dict(),
    dict(flops_convention="2macs", count_aux_params=False),
    dict(param_target_ratio=0.4),
    dict(flops_convention="2macs", param_target_ratio=0.3, min_channels_per_layer=2),
    dict(count_aux_params=False, min_channels_per_layer=3, use_in_channel=False),
]


class TestRunningCosts:
    """select_threshold's running totals against a recount after every mark
    (``oracles.greedy_plan``)."""

    @pytest.mark.parametrize("kwargs", PLANNER_CONFIGS, ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()) or "default")
    def test_tiny_nets_match_recount(self, kwargs):
        rng = np.random.default_rng(41)
        planned = 0
        for _ in range(12):
            g = random_tiny_net(rng)
            for target in (0.2, 0.45):
                planned += assert_plan_matches_recount(g, Config(flop_target_ratio=target, **kwargs)) is not None
        assert planned >= 6

    @pytest.mark.parametrize("kwargs", [PLANNER_CONFIGS[0], PLANNER_CONFIGS[3], PLANNER_CONFIGS[4]])
    @pytest.mark.parametrize("model", ["resnet_graph", "densenet_graph"])
    def test_zoo_models_match_recount(self, request, model, kwargs):
        g = request.getfixturevalue(model)
        plan = assert_plan_matches_recount(g, Config(flop_target_ratio=0.4, **kwargs))
        assert plan is not None and len(plan.removed_unit_ids) > 100

    @pytest.mark.parametrize("model", ["resnet_graph", "densenet_graph"])
    def test_two_full_counts_per_plan(self, request, monkeypatch, model):
        g = request.getfixturevalue(model)
        config = Config(flop_target_ratio=0.5, param_target_ratio=0.3)
        calls, footprints = [], []
        unit_rows = scoring_module.unit_rows
        monkeypatch.setattr(scoring_module, "unit_rows", lambda *a: footprints.append(1) or unit_rows(*a))
        records = score_all(g, build_prune_units(g), config)
        original = costs_module.effective_model_costs
        monkeypatch.setattr(costs_module, "effective_model_costs", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        plan = select_threshold(records, g, config)
        assert len(plan.removed_unit_ids) > 300
        assert len(calls) == 2
        assert len(footprints) == 1  # one footprint of the whole table: scoring prices it, selection removes it

    def test_counts_beyond_int64_are_refused(self):
        # c2's padding makes its output 2^32 + 1 wide; unit prices use its input size, 1
        rng = np.random.default_rng(0)
        b = GraphBuilder(3, 1)
        g = infer_shapes(b.output(b.conv("c2", b.conv("c1", "input", conv_w(rng, 4, 3, 1)), conv_w(rng, 4, 4, 1), padding=2**31)))
        records = score_all(g, build_prune_units(g), Config())
        with pytest.raises(PruneKitError, match=r"^model counts overflow int64: 28 params, 295147905316791779356 FLOPs$"):
            select_threshold(records, g, Config())

    def test_disagreeing_running_count_fails(self, monkeypatch):
        # without the batch-norm/ReLU share of each removed filter the running
        # totals drift from the truth, and the final recount must say so
        g = make_chain(np.random.default_rng(42), (6, 8), with_bn=True)
        config = Config(flop_target_ratio=0.3)
        records = score_all(g, build_prune_units(g), config)
        monkeypatch.setattr(costs_module, "_downstream_charges", lambda graph, aux: defaultdict(lambda: (0, 0)))
        with pytest.raises(PruneKitError, match="differs from recount"):
            select_threshold(records, g, config)


def slot_floor_net(rng, widths=(2, 2)):
    """e feeds producers that reach t only through a Concat, so every input
    slot of t is an in-channel-only unit, and only the slot floor stops the
    planner taking t's last one."""
    b = GraphBuilder(3, 8)
    e = b.conv("e", "input", conv_w(rng, 4, 3, 1))
    cat = b.concat("cat", [b.conv(f"d{i}", e, conv_w(rng, w, 4, 1)) for i, w in enumerate(widths)])
    t = b.conv("t", cat, conv_w(rng, 16, sum(widths), 3), padding=1)
    flat = b.flatten("flat", b.pool("gap", t, "global-avg"))
    return infer_shapes(b.output(b.linear("head", flat, rng.standard_normal((5, 16)).astype(np.float32))))


def floor_skips(records, graph, config):
    """The units that the reference walk skips before its last removal, in
    rank order, each with the layers of its members and of its in-slices."""
    taken, *_ = greedy_plan(records, graph, config)
    refs = ref_units(records.units)
    ranked = list(rank_global(records))
    kept = [r for r in ranked[: [r.unit_id for r in ranked].index(taken[-1])] if r.unit_id not in taken]
    return [(r, {m.layer for m in refs[r.unit_row].members}, {s.layer for s in refs[r.unit_row].in_slices}) for r in kept]


class TestFloorSkipsMidRanking:
    """Floors that bind part-way through the ranking: the selection's
    further passes give the reference walk's plan byte for byte."""

    @pytest.mark.parametrize(
        "model, preset, floor, target",
        [
            ("resnet_graph", "resnet", 12, 0.5),
            ("resnet_graph", "densenet", 16, 0.3),
            ("densenet_graph", "resnet", 12, 0.5),
        ],
    )
    def test_zoo_filter_floors(self, request, model, preset, floor, target):
        g = request.getfixturevalue(model)
        alpha, beta = Config.PRESETS[preset]
        config = Config(alpha=alpha, beta=beta, flop_target_ratio=target, min_channels_per_layer=floor)
        plan = assert_plan_matches_recount(g, config)
        records = score_all(g, build_prune_units(g), config)
        skips = floor_skips(records, g, config)
        # each skipped unit has a filter in a layer the floor holds
        assert skips and all(any(plan.layer_widths_after[layer] == floor for layer in members) for _, members, _ in skips)

    def test_layer_at_its_floor_early_skips_every_later_unit_of_it(self, resnet_graph):
        config = Config(alpha=0.1, beta=0.1, flop_target_ratio=0.3, min_channels_per_layer=16)  # the densenet preset
        plan = assert_plan_matches_recount(resnet_graph, config)
        records = score_all(resnet_graph, build_prune_units(resnet_graph), config)
        first, members, _ = floor_skips(records, resnet_graph, config)[0]
        ranked = [r.unit_id for r in rank_global(records)]
        assert ranked.index(first.unit_id) < ranked.index(plan.removed_unit_ids[-1]) // 8  # early in the walk
        refs = ref_units(records.units)
        later = [r for r in records if ranked.index(r.unit_id) > ranked.index(first.unit_id)]
        of_layer = [r for r in later if members & {m.layer for m in refs[r.unit_row].members}]
        assert of_layer and not {r.unit_id for r in of_layer} & set(plan.removed_unit_ids)

    @pytest.mark.parametrize("floor", [2, 3])
    def test_tiny_nets(self, floor):
        skipped = 0
        for seed in range(40, 60):
            g = random_tiny_net(np.random.default_rng(seed))
            for target in (0.3, 0.5, 0.7):
                config = Config(flop_target_ratio=target, min_channels_per_layer=floor)
                try:
                    plan = assert_plan_matches_recount(g, config)
                except DegenerateModelError:
                    break
                skipped += plan is not None and bool(floor_skips(score_all(g, build_prune_units(g), config), g, config))
        assert skipped >= 5

    @pytest.mark.parametrize("seed", range(6))
    def test_last_slot_skips(self, seed):
        rng = np.random.default_rng(seed)
        g = slot_floor_net(rng, widths=tuple(int(w) for w in rng.integers(1, 4, 2)))
        config = Config(flop_target_ratio=0.95)
        assert assert_plan_matches_recount(g, config) is not None
        skips = floor_skips(score_all(g, build_prune_units(g), config), g, config)
        assert [(members, slots) for _, members, slots in skips] == [(set(), {"t"})]  # t's last input slot

    @pytest.mark.parametrize(
        "make, floor, target, param_target, best",
        [
            (lambda: resnet56(seed=0), 16, 0.75, 0.5, (0.7239255513720089, "0.7239 in FLOPs and 0.9088 in parameters")),
            (lambda: random_tiny_net(np.random.default_rng(57)), 3, 0.9, None, (0.7148685883849089, "0.7149 in FLOPs and 0.7110 in parameters")),
            (lambda: random_tiny_net(np.random.default_rng(59)), 3, 0.7, None, (0.5355826273772613, "0.5356 in FLOPs and 0.5568 in parameters")),
        ],
        ids=["resnet56", "tiny-57", "tiny-59"],
    )
    def test_infeasible_floors(self, make, floor, target, param_target, best):
        # the message and best_frr of the per-unit walk that selection replaced; resnet56 meets its parameter target
        g = make()
        config = Config(flop_target_ratio=target, param_target_ratio=param_target, min_channels_per_layer=floor)
        records = score_all(g, build_prune_units(g), config)
        with pytest.raises(InfeasibleBudgetError) as err:
            select_threshold(records, g, config)
        best_frr, reductions = best
        assert str(err.value) == f"FLOP target {target:.3f} unreachable under layer floors; best achievable reduction is {reductions}"
        assert err.value.best_frr == best_frr


class TestAgainstPerReferenceLoop:
    """score_all and select_threshold work on id arrays; the per-reference
    loops they replaced must give the same floats and the same plan bytes."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kwargs=st.sampled_from(PLANNER_CONFIGS),
        target=st.sampled_from((0.1, 0.45)),
        subset_seed=st.integers(0, 2**32 - 1),
    )
    def test_tiny_nets(self, seed, kwargs, target, subset_seed):
        g = random_tiny_net(np.random.default_rng(seed))
        config = Config(flop_target_ratio=target, **kwargs)
        units = build_prune_units(g)
        records = score_all(g, units, config)
        assert [r.raw for r in records] == [loop_raw_score(g, u, config.use_in_channel) for u in ref_units(units)]
        # a shuffled subset's table rows index into the whole scored table's footprint
        rng = np.random.default_rng(subset_seed)
        subset = records.take(rng.permutation(len(records))[: rng.integers(1, len(records) + 1)])
        for planned in (records, subset):
            _, _, flops, want = greedy_plan(planned, g, config)
            if want is None:
                with pytest.raises(InfeasibleBudgetError) as err:
                    select_threshold(planned, g, config)
                assert err.value.best_frr == 1.0 - flops / model_flop_count(g, config.flops_convention)
            else:
                assert select_threshold(planned, g, config).to_json() == want


class TestMultiPass:
    def test_single_pass_equals_direct(self):
        rng = np.random.default_rng(10)
        g = make_chain(rng, (6, 8))
        config = Config(flop_target_ratio=0.3, passes=1)
        units = build_prune_units(g)
        records = score_all(g, units, config)
        direct_plan = select_threshold(records, g, config)
        direct, _ = apply_plan(g, direct_plan)
        trajectory = list(multi_pass(g, Config(passes=1, per_pass_ratio=0.3)))
        assert len(trajectory) == 1
        assert model_flop_count(trajectory[0][1]) == model_flop_count(direct)
        assert model_param_count(trajectory[0][1]) == model_param_count(direct)
        assert manifest_param_count(serialize_graph(direct)[0]) == direct_plan.predicted_params
        assert graph_checksum(trajectory[0][1]) == graph_checksum(direct)

    def test_two_passes_compound(self):
        rng = np.random.default_rng(11)
        g = make_chain(rng, (8, 10))
        baseline = model_flop_count(g)
        trajectory = list(multi_pass(g, Config(passes=2, per_pass_ratio=0.2)))
        assert len(trajectory) == 2
        assert model_flop_count(trajectory[-1][1]) <= 0.64 * baseline

    def test_intermediate_graphs_stay_valid(self):
        rng = np.random.default_rng(12)
        g = make_chain(rng, (8, 10, 6), with_bn=True, conv_bias=True)
        trajectory = multi_pass(g, Config(passes=3, per_pass_ratio=0.15))
        for plan, stage in trajectory:
            assert validate(stage) == []
            assert stage.inferred
            assert model_flop_count(stage) == plan.predicted_flops

    def test_loaded_graph_is_freed_after_pass_one(self, tmp_path):
        g = make_chain(np.random.default_rng(14), (8, 10), with_bn=True, conv_bias=True)
        loaded = infer_shapes(load_model(*save_tmp(g, tmp_path)))
        tensors = {(nid, role): t for nid, node in loaded.nodes.items() for role, t in node.tensors.items()}
        shapes = {key: t.shape for key, t in tensors.items()}
        refs = {key: weakref.ref(t) for key, t in tensors.items()}
        passes = multi_pass(loaded, Config(passes=2, per_pass_ratio=0.2))
        del loaded, tensors  # the caller holds no graph
        _, pruned = next(passes)
        kept = {key: pruned.nodes[key[0]].tensors[key[1]] for key in refs}
        sliced = [key for key, t in kept.items() if t.shape != shapes[key]]
        assert sliced and all(refs[key]() is None for key in sliced)
        assert all(kept[key] is refs[key]() for key in refs.keys() - set(sliced))

    def test_pass_one_surgery_frees_each_replaced_tensor(self, tmp_path, monkeypatch, vgg_graph):
        # multi_pass owns its input: every replaced weight of the loaded graph
        # is freed before the next weighted layer is copied, so pass 1 holds
        # at most the container plus one layer
        manifest, weights = save_tmp(vgg_graph, tmp_path)
        replaced = []  # weakrefs to the weights surgery has copied from

        def kept_weight(w, outs, ins, real=surgeon_module._kept_weight):
            assert all(ref() is None for ref in replaced), "a replaced weight outlived its copy"
            replaced.append(weakref.ref(w))
            return real(w, outs, ins)

        monkeypatch.setattr(surgeon_module, "_kept_weight", kept_weight)
        tracemalloc.start()
        try:
            loaded = infer_shapes(load_model(manifest, weights))
            largest = max(node.weight().nbytes for node in loaded.weighted_layers())
            passes = multi_pass(loaded, Config(passes=2, per_pass_ratio=0.2))
            del loaded
            tracemalloc.reset_peak()
            _, pruned = next(passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(replaced) > 1 and all(ref() is None for ref in replaced)
        assert peak < os.path.getsize(weights) + largest
        assert validate(pruned) == []

    def test_needs_per_pass_ratio(self):
        g = make_chain(np.random.default_rng(13), (4, 6))
        with pytest.raises(PruneKitError, match="per_pass_ratio"):
            list(multi_pass(g, Config(passes=2)))
