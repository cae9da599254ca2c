"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from prunekit import (
    Config,
    InfeasibleBudgetError,
    apply_plan,
    build_prune_units,
    model_flop_count,
    model_param_count,
    score_all,
    select_threshold,
    unit_flop_cost,
    unit_param_cost,
    validate,
    zero_equivalence_check,
)
from prunekit.graph import serialize_graph
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, unit_table

from conftest import (
    make_chain,
    make_dense_toy,
    make_flatten_toy,
    make_residual_toy,
    random_tiny_net,
)
from oracles import (
    container_unit_l1,
    enumerate_all_subsets_check,
    exhaustive_prefix_plan,
    manifest_costs_of_units,
    manifest_param_count,
    naive_rank,
    oracle_cost_norm,
    oracle_weight_norm,
    ref_units,
)


def verdict(name: str, ok: bool, detail: str = ""):
    print(f"{name} {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")
    assert ok, f"{name} failed: {detail}"


REFERENCE_TOTALS = {
    # model -> (params, params_tol, flops, flops_tol)
    "vgg16": (14.72e6, 0.005, 314.15e6, 0.01),
    "densenet40": (1.06e6, 0.01, 290.13e6, 0.01),
    "resnet56": (593.13e3, 0.02, 89.59e6, 0.02),
}


def test_ac1_cost_counter_fidelity(vgg_graph, densenet_graph, resnet_graph):
    graphs = {"vgg16": vgg_graph, "densenet40": densenet_graph, "resnet56": resnet_graph}
    details = []
    t0 = time.monotonic()
    for name, (p_ref, p_tol, f_ref, f_tol) in REFERENCE_TOTALS.items():
        g = graphs[name]
        params = model_param_count(g)
        flops = model_flop_count(g, "macs")
        assert abs(params - p_ref) <= p_tol * p_ref, f"{name}: params {params} vs {p_ref} +-{p_tol:.1%}"
        assert abs(flops - f_ref) <= f_tol * f_ref, f"{name}: flops {flops} vs {f_ref} +-{f_tol:.1%}"
        details.append(f"{name} {params / 1e6:.3f}M/{flops / 1e6:.2f}M")
    elapsed = time.monotonic() - t0
    verdict("AC-1", elapsed < 1.0, f"counts within tolerance ({'; '.join(details)}; {elapsed:.3f}s)")


def test_ac2_cost_awareness_ratio(vgg_graph):
    def out_portion(layer):
        entry = {
            "uid": f"{layer}-portion",
            "kind": FULL_CHANNEL,
            "members": [[layer, 0]],
            "in_slices": [],
            "aux": [],
            "family": "probe",
        }
        return unit_table(vgg_graph, [entry])[0]

    early, late = out_portion("conv2_1"), out_portion("conv3_1")
    p_early = unit_param_cost(vgg_graph, early)
    p_late = unit_param_cost(vgg_graph, late)
    f_early = unit_flop_cost(vgg_graph, early, "2macs")
    f_late = unit_flop_cost(vgg_graph, late, "2macs")
    assert 2 * p_early == p_late == 1152
    assert f_early == 294912 and f_late == 147456
    assert 4 * f_late == 2 * f_early
    ratio_keeps = unit_flop_cost(vgg_graph, late, "macs") * 4 == unit_flop_cost(vgg_graph, early, "macs") * 2
    verdict("AC-2", ratio_keeps, "two early channels = one late channel in params; 4x FLOP ratio exact")


def test_ac3_scoring_oracle_equivalence():
    rng = np.random.default_rng(2024)
    modes = ("max-min", "max", "log")
    weights = ((0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (0.1, 0.1))
    conventions = ("macs", "2macs")
    t0 = time.monotonic()
    nets = 0
    checked = 0
    while nets < 100:
        g = random_tiny_net(rng)
        config = Config(
            alpha=weights[nets % 4][0],
            beta=weights[nets % 4][1],
            weight_norm_mode=modes[nets % 3],
            use_in_channel=bool(nets % 2),
            flops_convention=conventions[nets % 2],
        )
        units = build_prune_units(g)
        records = score_all(g, units, config)
        manifest, container = serialize_graph(g)

        refs = ref_units(units)
        raw_ref = [container_unit_l1(manifest, container, u, config.use_in_channel) for u in refs]
        families: dict[str, list[int]] = {}
        for i, u in enumerate(units):
            families.setdefault(u.family, []).append(i)
        gl_ref = [0.0] * len(units)
        for idxs in families.values():
            for i, v in zip(idxs, oracle_weight_norm([raw_ref[j] for j in idxs], config.weight_norm_mode)):
                gl_ref[i] = v
        costs = manifest_costs_of_units(manifest, refs, config.flops_convention)
        pmax = max(c[0] for c in costs)
        fmax = max(c[1] for c in costs)
        for r, raw_i, gl_i, (p, f) in zip(records, raw_ref, gl_ref, costs):
            gp, gf = oracle_cost_norm(p, f, pmax, fmax, config.alpha, config.beta)
            assert r.raw == pytest.approx(raw_i, rel=1e-6, abs=1e-12)
            assert r.weight_score == pytest.approx(gl_i, rel=1e-6, abs=1e-12)
            assert r.param_score == pytest.approx(gp, rel=1e-6, abs=1e-12)
            assert r.flop_score == pytest.approx(gf, rel=1e-6, abs=1e-12)
            assert r.importance == pytest.approx(gl_i + gp + gf, rel=1e-6, abs=1e-12)
            checked += 1
        nets += 1
    elapsed = time.monotonic() - t0
    verdict("AC-3", elapsed < 30.0, f"{checked} records across {nets} nets match oracles ({elapsed:.1f}s)")


def test_ac4_planner_prefix_equivalence():
    rng = np.random.default_rng(4040)
    t0 = time.monotonic()
    planned = 0
    infeasible = 0
    nets = 0
    while nets < 50:
        n_layers = int(rng.integers(2, 4))
        widths = []
        remaining = 12
        for i in range(n_layers):
            hi = min(6, remaining - (n_layers - i - 1) * 2)
            w = int(rng.integers(2, max(3, hi + 1)))
            widths.append(w)
            remaining -= w
        if sum(widths) > 12:
            continue
        nets += 1
        g = make_chain(rng, tuple(widths), kernel=3, with_relu=False)
        target = float(rng.uniform(0.15, 0.5))
        floor = int(rng.integers(1, 3))
        config = Config(flop_target_ratio=target, min_channels_per_layer=floor)
        units = build_prune_units(g)
        records = score_all(g, units, config)

        ranked_ref = naive_rank([(r.importance, r.flops, r.params, r.unit_id) for r in records])
        by_uid = {r.unit_id: r for r in records}
        refs = ref_units(units)
        entries = [
            {"uid": uid, "layer": refs[by_uid[uid].unit_row].members[0].layer, "imp": by_uid[uid].importance}
            for uid in ranked_ref
        ]
        layers = []
        prev_width = g.input_channels
        for node in g.weighted_layers():
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
        baseline = model_flop_count(g, "macs")
        budget = (1 - target) * baseline
        ref = exhaustive_prefix_plan(entries, layers, budget, floor)

        if ref is None:
            with pytest.raises(InfeasibleBudgetError):
                select_threshold(records, g, config)
            infeasible += 1
            continue
        plan = select_threshold(records, g, config)
        assert plan.removed_unit_ids == tuple(ref), f"net {nets}: {plan.removed_unit_ids} vs {ref}"
        assert enumerate_all_subsets_check(entries, layers, budget, floor, ref)
        assert plan.predicted_flops <= budget
        if len(ref) > 1:
            # prefix minimality via the oracle's own arithmetic
            widths_partial = {l["id"]: l["width"] for l in layers}
            layer_of = {e["uid"]: e["layer"] for e in entries}
            for uid in ref[:-1]:
                widths_partial[layer_of[uid]] -= 1
            from oracles import chain_flops

            assert chain_flops(layers, widths_partial) > budget
        planned += 1
    elapsed = time.monotonic() - t0
    verdict("AC-4", elapsed < 60.0, f"{planned} plans equal the exhaustive oracle, {infeasible} infeasible agree ({elapsed:.1f}s)")


def test_ac5_surgery_functional_equivalence():
    rng = np.random.default_rng(55)
    kinds_seen = set()
    cases = [
        ("plain chain", make_chain(rng, (4, 6), with_bn=True, conv_bias=True)),
        ("residual group", make_residual_toy(rng, width=6, planes=3, blocks=2)),
        ("dense in-channel-only", make_dense_toy(rng, with_bn=True)),
        ("conv->flatten->fc", make_flatten_toy(rng)),
    ]
    for label, g in cases:
        units = build_prune_units(g)
        for row, u in zip(units, ref_units(units)):
            assert zero_equivalence_check(g, row, trials=16, rtol=1e-5), f"{label}: {u.uid}"
            if len(u.members) > 1:
                kinds_seen.add("residual group")
            elif u.kind == IN_CHANNEL_ONLY:
                kinds_seen.add("dense in-channel-only")
            elif u.in_slices and u.in_slices[0].layer == "head" and g.nodes["head"].kind == "Linear" and g.nodes[u.in_slices[0].layer].in_size == 1 and len(u.in_slices) > 1:
                kinds_seen.add("conv->flatten->fc")
            else:
                kinds_seen.add("plain chain")
    verdict("AC-5", len(kinds_seen) == 4, f"all unit kinds equivalent on 16 random inputs ({sorted(kinds_seen)})")


def test_ac6_exactness(vgg_graph):
    rng = np.random.default_rng(66)
    checked = 0
    cases = [
        (make_chain(rng, (6, 8), with_bn=True, conv_bias=True), Config(flop_target_ratio=0.35)),
        (make_residual_toy(rng, width=8, planes=4, blocks=2), Config(flop_target_ratio=0.25)),
        (make_dense_toy(rng, entry_width=8, growth=4, layers=3), Config(flop_target_ratio=0.25)),
        (vgg_graph, Config(alpha=3.0, beta=1.0, flop_target_ratio=0.5)),
    ]
    for g, config in cases:
        units = build_prune_units(g)
        records = score_all(g, units, config)
        plan = select_threshold(records, g, config)
        pruned, report = apply_plan(g, plan)
        post_params = model_param_count(pruned, config.count_aux_params)
        post_flops = model_flop_count(pruned, config.flops_convention)
        assert post_params == plan.predicted_params
        assert manifest_param_count(serialize_graph(pruned)[0], config.count_aux_params) == plan.predicted_params
        assert post_flops == plan.predicted_flops
        assert report.post_params == plan.predicted_params
        assert report.post_flops == plan.predicted_flops
        # reported ratios recompute from the same exact counts
        assert plan.prr == 1.0 - post_params / plan.baseline_params
        assert plan.frr == 1.0 - post_flops / plan.baseline_flops
        checked += 1
    verdict("AC-6", checked == 4, "post-surgery counts equal plan predictions (integer exact)")


def test_ac7_normalization_bounds_and_invariances():
    rng = np.random.default_rng(77)
    for _ in range(10):
        g = random_tiny_net(rng)
        alpha, beta = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
        config = Config(alpha=alpha, beta=beta)
        units = build_prune_units(g)
        records = score_all(g, units, config)
        by_family: dict[str, list[float]] = {}
        for r in records:
            by_family.setdefault(r.unit.family, []).append(r.weight_score)
            assert 0.0 <= r.weight_score <= 1.0
            assert 0.0 <= r.param_score <= alpha
            assert 0.0 <= r.flop_score <= beta
        for scores in by_family.values():
            raws = None  # degenerate families would norm to 0.5 everywhere
            if len(set(scores)) > 1 or scores[0] != 0.5:
                assert min(scores) == 0.0
                assert max(scores) == 1.0
        pmax = max(r.params for r in records)
        fmax = max(r.flops for r in records)
        assert all(r.param_score == 0.0 for r in records if r.params == pmax)
        assert all(r.flop_score == 0.0 for r in records if r.flops == fmax)
        assert model_flop_count(g, "2macs") == 2 * model_flop_count(g, "macs")

    # positive per-layer rescaling leaves that layer's weight scores unchanged
    g = make_chain(np.random.default_rng(7), (4, 6))
    base = {r.unit_id: r.weight_score for r in score_all(g, build_prune_units(g), Config())}
    g.nodes["conv1"].weight()[:] *= 8.0  # exact in float32
    g.nodes["conv2"].weight()[:] *= 8.0
    rescaled = {r.unit_id: r.weight_score for r in score_all(g, build_prune_units(g), Config())}
    for uid, score in base.items():
        if uid.startswith("conv1."):
            assert rescaled[uid] == pytest.approx(score, rel=1e-12)
    verdict("AC-7", True, "score bounds, endpoint attainment, rescale invariance, 2macs doubling")


def test_ac8_pruned_structure_shape(vgg_graph):
    config = Config(alpha=3.0, beta=1.0, flop_target_ratio=0.66)
    units = build_prune_units(vgg_graph)
    records = score_all(vgg_graph, units, config)
    plan = select_threshold(records, vgg_graph, config)
    pruned, _ = apply_plan(vgg_graph, plan)
    assert validate(pruned) == []
    assert plan.frr >= 0.66

    convs = [n.id for n in vgg_graph.weighted_layers() if n.kind == "Conv2d"]
    third = len(convs) // 3
    first, middle = convs[:third], convs[third : 2 * third + 1]

    def removal_fraction(layer_ids):
        before = sum(plan.layer_widths_before[l] for l in layer_ids)
        after = sum(plan.layer_widths_after[l] for l in layer_ids)
        return (before - after) / before

    f_first = removal_fraction(first)
    f_middle = removal_fraction(middle)
    verdict(
        "AC-8",
        f_middle > f_first,
        f"Frr {plan.frr:.4f}; removal concentrates mid-model ({f_middle:.2%} vs {f_first:.2%})",
    )


def test_structural_counterparts_for_untrained_paths():
    """Scoring-mode structure checks standing in for accuracy experiments."""
    rng = np.random.default_rng(88)
    g = make_chain(rng, (5, 7), with_bn=True)
    units = build_prune_units(g)
    refs = ref_units(units)
    full = score_all(g, units, Config(use_in_channel=True))
    ablated = score_all(g, units, Config(use_in_channel=False))
    for a, b in zip(full, ablated):
        slice_mass = sum(
            float(np.abs(g.nodes[s.layer].weight()[:, s.in_channel]).sum(dtype=np.float64))
            for s in refs[a.unit_row].in_slices
        )
        assert a.raw - b.raw == pytest.approx(slice_mass, rel=1e-9, abs=1e-12)
        assert (a.param_score, a.flop_score) == (b.param_score, b.flop_score)

    raws = [r.raw for r in full if r.layer == "conv1"]
    lmax, lmin = max(raws), min(raws)
    got = {
        "max-min": [(x - lmin) / (lmax - lmin) for x in raws],
        "max": [x / lmax for x in raws],
        "log": [np.log1p(x) / np.log1p(lmax) for x in raws],
    }
    for mode, expected in got.items():
        scored = score_all(g, units, Config(weight_norm_mode=mode))
        values = [r.weight_score for r in scored if r.layer == "conv1"]
        assert values == pytest.approx(expected, rel=1e-9)
    verdict("AC-structural", True, "ablation differs exactly by the in-channel term; all three norms match their formulas")
