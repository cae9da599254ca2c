"""Importance scoring: raw dependency scores, normalizations, combination."""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

import prunekit.scoring as scoring_module
from prunekit import cli
from prunekit import (
    Config,
    DegenerateModelError,
    GraphBuilder,
    PruneKitError,
    build_prune_units,
    combined_importance,
    dependency_l1,
    infer_shapes,
    normalize_cost_scores,
    normalize_weight_scores,
    score_all,
)
from prunekit.graph import serialize_graph
from prunekit.scoring import RECORD_COLUMNS, WEIGHT_NORM_MODES, records_to_csv
from prunekit.surgeon import apply_units
from prunekit.units import FULL_CHANNEL, IN_CHANNEL_ONLY, unit_table
from prunekit.zoo import densenet40

from conftest import conv_w, make_chain, random_tiny_net
from oracles import (
    container_unit_l1,
    loop_raw_score,
    manifest_costs_of_units,
    oracle_cost_norm,
    oracle_weight_norm,
    ref_units,
)


def fanout_toy():
    """conv1(2->1, K1) read by two 1x1 consumers whose outputs are added."""
    b = GraphBuilder(2, 4)
    w1 = np.array([[[[0.5]], [[-0.5]]]], dtype=np.float32)  # shape (1,2,1,1)
    c1 = b.conv("c1", "input", w1)
    wa = np.full((1, 1, 1, 1), -0.25, dtype=np.float32)
    a = b.conv("ca", c1, wa.copy())
    c = b.conv("cb", c1, wa.copy())
    add = b.addnode("add", [a, c])
    gp = b.pool("gap", add, "global-avg")
    fl = b.flatten("fl", gp)
    head = b.linear("head", fl, np.ones((2, 1), np.float32))
    return infer_shapes(b.output(head))


class TestDependencyL1:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        g = make_chain(rng, (4, 6))
        for node in g.weighted_layers():
            node.weight()[:] = 0.0
        u = build_prune_units(g)[0]
        assert dependency_l1(g, u, True) == 0.0

    def test_fanout_example(self):
        g = fanout_toy()
        units = {u.uid: u for u in build_prune_units(g)}
        u = units["c1.c0"]
        assert dependency_l1(g, u, use_in_channel=True) == pytest.approx(1.5)
        assert dependency_l1(g, u, use_in_channel=False) == pytest.approx(1.0)

    def test_bias_and_bn_excluded(self):
        rng = np.random.default_rng(1)
        g = make_chain(rng, (4, 6), with_bn=True, conv_bias=True)
        u = build_prune_units(g)[0]
        before = dependency_l1(g, u, True)
        g.nodes["conv1"].tensors["bias"][:] = 99.0
        for role in ("gamma", "beta", "running_mean", "running_var"):
            g.nodes["bn1"].tensors[role][:] = 99.0
        assert dependency_l1(g, u, True) == before

    def test_member_without_consumer_slices_scores_its_filter(self):
        # a hand-made unit whose only member reads none of its in-slices: its
        # dependency L1 is the filter's mass, with or without the in-channel term
        g = make_chain(np.random.default_rng(3), (4, 6))
        entry = {"uid": "probe", "kind": FULL_CHANNEL, "members": [["conv1", 2]], "aux": [], "family": "probe"}
        for in_slices in ([], [["conv2", 3]]):
            u = unit_table(g, [{**entry, "in_slices": in_slices}])[0]
            mass = float(np.abs(g.nodes["conv1"].weight()[2]).sum(dtype=np.float64))
            assert dependency_l1(g, u, True) == dependency_l1(g, u, False) == pytest.approx(mass, rel=1e-12)

    def test_container_walk_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            g = random_tiny_net(rng)
            manifest, container = serialize_graph(g)
            units = build_prune_units(g)
            for u, refs in zip(units, ref_units(units)):
                for use_in in (True, False):
                    got = dependency_l1(g, u, use_in)
                    ref = container_unit_l1(manifest, container, refs, use_in)
                    assert got == pytest.approx(ref, rel=1e-6)


class TestWeightNormalization:
    def test_max_min_endpoints(self):
        assert normalize_weight_scores([2.0, 4.0, 6.0], "max-min") == [0.0, 0.5, 1.0]

    def test_max_mode(self):
        assert normalize_weight_scores([2.0, 4.0], "max") == [0.5, 1.0]

    def test_degenerate_layer_gets_midpoint(self):
        assert normalize_weight_scores([3.0, 3.0, 3.0], "max-min") == [0.5, 0.5, 0.5]

    def test_log_mode(self):
        got = normalize_weight_scores([0.0, 1.0, 3.0], "log")
        assert got[0] == 0.0
        assert got[1] == pytest.approx(math.log(2) / math.log(4))
        assert got[2] == 1.0

    def test_all_zero_rejected_under_max_and_log(self):
        for mode in ("max", "log"):
            with pytest.raises(DegenerateModelError):
                normalize_weight_scores([0.0, 0.0], mode)

    def test_empty_list_and_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="empty score list"):
            normalize_weight_scores([])
        with pytest.raises(ValueError, match="unknown weight_norm_mode 'minmax'"):
            normalize_weight_scores([1.0, 2.0], "minmax")

    def test_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for mode in ("max-min", "max", "log"):
            scores = list(rng.uniform(0.1, 50.0, 16))
            assert normalize_weight_scores(scores, mode) == pytest.approx(oracle_weight_norm(scores, mode), rel=1e-12)


class TestCostNormalization:
    def test_max_cost_gets_zero(self):
        gp, gf = normalize_cost_scores(100, 200, 100, 200, alpha=3.0, beta=1.0)
        assert gp == 0.0
        assert gf == 0.0

    def test_sqrt_halves_log(self):
        gp, _ = normalize_cost_scores(4, 2, 16, 2, alpha=3.0, beta=1.0)
        assert gp == pytest.approx(1.5)

    def test_unit_cost_gets_full_bonus(self):
        _, gf = normalize_cost_scores(2, 1, 4, 64, alpha=3.0, beta=1.0)
        assert gf == 1.0

    def test_degenerate_model_rejected(self):
        with pytest.raises(DegenerateModelError):
            normalize_cost_scores(1, 1, 1, 10, 1.0, 1.0)
        with pytest.raises(DegenerateModelError):
            normalize_cost_scores(1, 1, 10, 1, 1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            normalize_cost_scores(20, 5, 10, 10, 1.0, 1.0)


class TestCombined:
    def test_zero(self):
        assert combined_importance(0.0, 0.0, 0.0) == 0.0

    def test_bound(self):
        assert combined_importance(1.0, 3.0, 1.0) == 5.0

    def test_direct_sum(self):
        assert combined_importance(0.5, 1.5, 0.25) == 2.25


class TestScoreAll:
    def test_nan_weight_rejected(self):
        g = make_chain(np.random.default_rng(3), (4, 6))
        g.nodes["conv1"].weight()[2, 0, 1, 1] = np.nan
        with pytest.raises(DegenerateModelError, match=r"conv1\.c2"):
            score_all(g, build_prune_units(g), Config())

    def test_record_has_no_other_attribute(self):
        g = make_chain(np.random.default_rng(2), (4,))
        record = score_all(g, build_prune_units(g), Config())[0]
        assert record.unit_id == "conv1.c0"
        with pytest.raises(AttributeError, match="^importanse$"):
            record.importanse
        assert not hasattr(record, "rows")  # a table column, but not a score column

    def test_cost_free_ranking_follows_weight_score(self):
        rng = np.random.default_rng(4)
        g = make_chain(rng, (4, 6))
        units = build_prune_units(g)
        records = score_all(g, units, Config(alpha=0.0, beta=0.0))
        for r in records:
            assert r.importance == r.weight_score

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(5)
        g = make_chain(rng, (4, 6))
        units = build_prune_units(g)
        config = Config(alpha=1.0, beta=1.0)
        records = score_all(g, units, config)
        manifest, container = serialize_graph(g)

        raw = [container_unit_l1(manifest, container, u, True) for u in ref_units(units)]
        families = {}
        for i, u in enumerate(units):
            families.setdefault(u.family, []).append(i)
        gl = [0.0] * len(units)
        for idxs in families.values():
            for i, v in zip(idxs, oracle_weight_norm([raw[j] for j in idxs], "max-min")):
                gl[i] = v
        costs = manifest_costs_of_units(manifest, ref_units(units), "macs")
        pmax = max(c[0] for c in costs)
        fmax = max(c[1] for c in costs)
        for r, u, raw_i, gl_i, (p, f) in zip(records, units, raw, gl, costs):
            gp, gf = oracle_cost_norm(p, f, pmax, fmax, 1.0, 1.0)
            assert r.raw == pytest.approx(raw_i, rel=1e-9)
            assert r.weight_score == pytest.approx(gl_i, rel=1e-9)
            assert r.param_score == pytest.approx(gp, rel=1e-9)
            assert r.flop_score == pytest.approx(gf, rel=1e-9)
            assert r.importance == pytest.approx(gl_i + gp + gf, rel=1e-9)

    def test_vgg_importance_bounds(self, vgg_graph):
        units = build_prune_units(vgg_graph)
        records = score_all(vgg_graph, units, Config(alpha=3.0, beta=1.0))
        for r in records:
            assert 0.0 <= r.importance <= 5.0

    def test_ablation_changes_raw_only(self):
        rng = np.random.default_rng(6)
        g = make_chain(rng, (4, 6))
        units = build_prune_units(g)
        refs = ref_units(units)
        full = score_all(g, units, Config(use_in_channel=True))
        out_only = score_all(g, units, Config(use_in_channel=False))
        assert [r.unit_id for r in full] == [r.unit_id for r in out_only]
        for a, b in zip(full, out_only):
            assert a.params == b.params
            assert a.flops == b.flops
            assert a.param_score == b.param_score
            assert a.flop_score == b.flop_score
            # the in-channel term is exactly the difference in raw mass
            slices_mass = sum(float(np.abs(g.nodes[s.layer].weight()[:, s.in_channel]).sum()) for s in refs[a.unit_row].in_slices)
            assert a.raw - b.raw == pytest.approx(slices_mass, rel=1e-6)


def wide_net():
    """Rows and columns longer than 8,192 elements: conv2's input slots span
    1,000 filters x 3x3, and fc1 reads 9 x 32 x 32 = 9,216 inputs. Their
    weights spread over 2^-60..2^60, so a float64 sum of them depends on the
    order of its additions (a cast to float64 before summing changes it)."""
    rng = np.random.default_rng(31)

    def wide(shape):
        return (rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))).astype(np.float32)

    b = GraphBuilder(3, 32)
    x = b.relu("r1", b.conv("conv1", "input", conv_w(rng, 9, 3, 3), padding=1))
    x = b.relu("r2", b.conv("conv2", x, wide((1000, 9, 3, 3)), padding=1))
    x = b.relu("r3", b.conv("conv3", x, conv_w(rng, 9, 1000, 1)))
    x = b.relu("r4", b.linear("fc1", b.flatten("flat", x), wide((16, 9216))))
    return infer_shapes(b.output(b.linear("fc2", x, rng.standard_normal((5, 16)).astype(np.float32))))


def in_select_net():
    """densenet40 after removing every third in-channel-only unit: its
    consumers read their inputs through in_select."""
    g = densenet40(seed=3)
    units = build_prune_units(g)
    slots = [u.row for u in units if u.kind == IN_CHANNEL_ONLY]
    return apply_units(g, units.take(slots[::3]))


class TestVectorisedRawScores:
    """score_all's whole-layer sums give exactly the per-slice floats.
    Every unit is checked against the per-slice loop; dependency_l1, one
    call per unit, only on a seeded sample: the first and last unit, one of
    each kind and a few more."""

    @pytest.mark.parametrize("use_in_channel", [True, False], ids=["cpmc", "cpmc-a"])
    @pytest.mark.parametrize("model", ["vgg_graph", "densenet_graph", "resnet_graph", "in_select", "wide"])
    def test_raw_equals_dependency_l1_and_per_slice_sums(self, request, model, use_in_channel):
        if model == "in_select":
            g = in_select_net()
            assert any(n.in_select() is not None for n in g.weighted_layers())
        elif model == "wide":
            g = wide_net()
        else:
            g = request.getfixturevalue(model)
        units = build_prune_units(g)
        records = score_all(g, units, Config(use_in_channel=use_in_channel))
        for r, u, refs in zip(records, units, ref_units(units)):
            assert r.unit == u
            assert r.raw == loop_raw_score(g, refs, use_in_channel)
        rng = np.random.default_rng(len(units))
        sample = {0, len(units) - 1, *(units.kind.index(kind) for kind in set(units.kind))}
        sample |= set(rng.choice(len(units), size=min(8, len(units)), replace=False).tolist())
        for row in sorted(sample):
            assert records[row].raw == dependency_l1(g, units[row], use_in_channel)

    @pytest.mark.parametrize("block", [1, 5_000], ids=["one-value", "5000-values"])
    @pytest.mark.parametrize("model", ["vgg_graph", "densenet_graph", "resnet_graph", "wide"])
    def test_blocked_abs_sums_equal_whole_layer_sums(self, request, monkeypatch, model, block):
        # one slice per block, or a few slices with a short last block: the
        # same floats as one abs and one sum over the whole layer
        g = wide_net() if model == "wide" else request.getfixturevalue(model)
        monkeypatch.setattr(scoring_module, "_ABS_VALUES", block)
        rng = np.random.default_rng(block)
        for node in g.weighted_layers():
            for axis in (0, 1):
                view = np.swapaxes(node.weight(), 0, axis)
                whole = np.abs(view, order="C").reshape(len(view), -1).sum(axis=1, dtype=np.float64)
                assert np.array_equal(scoring_module._abs_sums(view), whole)
                rows = np.sort(rng.choice(len(view), size=(len(view) + 1) // 2, replace=False))
                assert np.array_equal(scoring_module._abs_sums(view, rows), whole[rows])


def math_weight_norm(scores: list[float], mode: str) -> list[float]:
    """One family's GL, one Python float operation at a time."""
    lmax, lmin = max(scores), min(scores)
    if mode == "max-min":
        return [0.5 if lmax == lmin else (s - lmin) / (lmax - lmin) for s in scores]
    if mode == "max":
        return [s / lmax for s in scores]
    return [math.log1p(s) / math.log1p(lmax) for s in scores]


class TestNormalizationsPinned:
    """score_all normalizes whole columns at once, yet each unit's GP and GF
    are normalize_cost_scores' floats, and its GL is normalize_weight_scores'
    over its family and that of one Python float operation at a time, under
    ==. All of them take math.log or math.log1p of each value; numpy's log
    and log1p differ from those in the last bit for some inputs on some
    CPUs, so a vectorised log could move plans there."""

    @pytest.mark.parametrize("mode", WEIGHT_NORM_MODES)
    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zoo(self, request, model, mode):
        g = request.getfixturevalue(model)
        config = Config(alpha=3.0, beta=0.1, weight_norm_mode=mode)
        records = list(score_all(g, build_prune_units(g), config))
        pmax, fmax = max(r.params for r in records), max(r.flops for r in records)
        for r in records:
            assert (r.param_score, r.flop_score) == normalize_cost_scores(r.params, r.flops, pmax, fmax, 3.0, 0.1)
        families = defaultdict(list)
        for r in records:
            families[r.unit.family].append(r)
        for members in families.values():
            raws = [r.raw for r in members]
            assert [r.weight_score for r in members] == normalize_weight_scores(raws, mode) == math_weight_norm(raws, mode)


class TestInvariances:
    @pytest.mark.parametrize("factor,rel", [(8.0, 1e-12), (7.5, 1e-6)])
    def test_scale_invariance_within_layer(self, factor, rel):
        # power-of-two scaling is exact in float32; other factors round per element
        rng = np.random.default_rng(7)
        g = make_chain(rng, (4, 6))
        units = build_prune_units(g)
        base = {r.unit_id: r.weight_score for r in score_all(g, units, Config())}
        # scale conv1's rows and every slice that reads conv1 (all of conv2's input axis)
        g.nodes["conv1"].weight()[:] *= factor
        g.nodes["conv2"].weight()[:] *= factor
        units2 = build_prune_units(g)
        scaled = {r.unit_id: r.weight_score for r in score_all(g, units2, Config())}
        for uid, score in base.items():
            if uid.startswith("conv1."):
                assert scaled[uid] == pytest.approx(score, rel=rel)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        g = make_chain(rng, (5, 6))
        units = build_prune_units(g)
        base = {r.unit_id: r.importance for r in score_all(g, units, Config())}

        perm = [3, 0, 4, 1, 2]
        g2 = make_chain(np.random.default_rng(8), (5, 6))
        g2.nodes["conv1"].weight()[:] = g.nodes["conv1"].weight()[perm]
        g2.nodes["conv2"].weight()[:] = g.nodes["conv2"].weight()[:, perm]
        permuted = {r.unit_id: r.importance for r in score_all(g2, build_prune_units(g2), Config())}

        for new_idx, old_idx in enumerate(perm):
            assert permuted[f"conv1.c{new_idx}"] == pytest.approx(base[f"conv1.c{old_idx}"], rel=1e-9)
        assert sorted(permuted.values()) == pytest.approx(sorted(base.values()), rel=1e-9)

    def test_max_min_attains_endpoints(self):
        rng = np.random.default_rng(9)
        g = make_chain(rng, (4, 6))
        records = score_all(g, build_prune_units(g), Config())
        by_family = {}
        for r in records:
            by_family.setdefault(r.unit.family, []).append(r.weight_score)
        for scores in by_family.values():
            assert min(scores) == 0.0
            assert max(scores) == 1.0
            assert all(0.0 <= s <= 1.0 for s in scores)


class TestConfig:
    def test_validation(self):
        with pytest.raises(PruneKitError):
            Config(flop_target_ratio=0.0)
        with pytest.raises(PruneKitError):
            Config(flop_target_ratio=1.0)
        for alpha, beta in [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(PruneKitError):
                Config(alpha=alpha, beta=beta)
        with pytest.raises(PruneKitError):
            Config(weight_norm_mode="minmax")
        with pytest.raises(PruneKitError):
            Config(passes=0)
        for ratio in (0.0, 1.0, -0.5):
            with pytest.raises(PruneKitError, match="param_target_ratio must be in"):
                Config(param_target_ratio=ratio)
            with pytest.raises(PruneKitError, match="per_pass_ratio must be in"):
                Config(per_pass_ratio=ratio)
        with pytest.raises(PruneKitError, match="min_channels_per_layer must be >= 1"):
            Config(min_channels_per_layer=0)

    def test_replace_validates(self):
        with pytest.raises(PruneKitError, match="alpha and beta must be finite and nonnegative"):
            dataclasses.replace(Config(), alpha=-1.0)
        assert dataclasses.replace(Config(), alpha=2.0) == Config(alpha=2.0)

    def test_frozen(self):
        c = Config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.alpha = 2.0
        assert c == Config()

    def test_presets(self, tmp_path):
        assert Config.PRESETS == {"vggnet": (3.0, 1.0), "resnet": (1.0, 1.0), "densenet": (0.1, 0.1)}
        cfg = tmp_path / "layer.cfg"
        cfg.write_text("alpha = 2.0\nbeta = 2.0\npasses = 2\nuse_in_channel = true\n")

        def config(*flags):
            return cli._make_config(cli._build_parser().parse_args(["plan", "--model", "m.json", *flags]))

        for name, (alpha, beta) in Config.PRESETS.items():
            assert config("--preset", name) == Config(alpha=alpha, beta=beta)
        # config file < preset < flags < --mode
        assert config("--config", str(cfg)) == Config(alpha=2.0, beta=2.0, passes=2)
        assert config("--config", str(cfg), "--preset", "vggnet") == Config(alpha=3.0, beta=1.0, passes=2)
        assert config("--config", str(cfg), "--preset", "vggnet", "--beta", "0.5") == Config(alpha=3.0, beta=0.5, passes=2)
        assert config("--config", str(cfg), "--mode", "cpmc-a") == Config(alpha=2.0, beta=2.0, passes=2, use_in_channel=False)
        assert cli.main(["plan", "--model", "m.json", "--preset", "transformer"]) == cli.EXIT_VALIDATION


class TestExport:
    def test_csv_columns(self):
        rng = np.random.default_rng(10)
        g = make_chain(rng, (4,))
        records = score_all(g, build_prune_units(g), Config())
        text = records_to_csv(records)
        header = text.splitlines()[0].split(",")
        assert tuple(header) == RECORD_COLUMNS
        assert len(text.splitlines()) == len(records) + 1
