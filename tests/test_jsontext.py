"""The column-wise JSON and CSV writers and the artifacts written through them."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import (
    Config,
    DegenerateModelError,
    InfeasibleBudgetError,
    PruneKitError,
    PruningPlan,
    build_prune_units,
    score_all,
    select_threshold,
)
from prunekit.planner import multi_pass
from prunekit.scoring import RECORD_COLUMNS, SCORE_COLUMNS, ScoreTable, records_texts, records_to_csv, records_to_json
from prunekit.units import unit_table
from prunekit.zoo import densenet40

from conftest import hand_scores, random_tiny_net
from oracles import ref_units, unit_entry

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, 0.1, 1e16, 2.0**-1074, float("inf"), float("-inf"), float("nan")]
EDGE_STRINGS = ["", '"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é", "\u2028", "😀", "[1, 2]", "{}"]
TEMPLATE_STRINGS = ["a,b", "%s", "%", "{0}"]  # text that csv quotes, or that a format template would expand

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
named = st.sampled_from(EDGE_STRINGS + TEMPLATE_STRINGS)
strings = st.text() | named
# valid configs, ints among the float values
CONFIGS = [
    Config(),
    Config(alpha=3, beta=1, flop_target_ratio=0.66),
    Config(alpha=5e-324, beta=1e300, flop_target_ratio=1e-300, param_target_ratio=0.999, weight_norm_mode="log"),
    Config(
        use_in_channel=False, flops_convention="2macs", min_channels_per_layer=2**70, passes=3, per_pass_ratio=0.2,
        count_aux_params=False,
    ),
]
BIG_INTS = [0, -1, 2**63, -(2**70), 10**40]


def plan_payload(plan: PruningPlan) -> dict:
    """The document ``PruningPlan.to_json`` writes."""
    return {
        "baseline": {"params": plan.baseline_params, "flops": plan.baseline_flops},
        "predicted": {"params": plan.predicted_params, "flops": plan.predicted_flops, "prr": plan.prr, "frr": plan.frr},
        "threshold": plan.threshold,
        "removed_units": [{"unit_id": uid, "imp": imp} for uid, imp in zip(plan.removed_unit_ids, plan.removed_imps)],
        "layer_widths": {"before": plan.layer_widths_before, "after": plan.layer_widths_after},
        "config": plan.config.to_dict(),
        "model_checksum": plan.model_checksum,
        "units_checksum": plan.units_checksum,
    }


def make_plan(ids=(), imps=(), **fields) -> PruningPlan:
    defaults = dict(
        threshold=0.5, baseline_params=100, baseline_flops=1000, predicted_params=60, predicted_flops=500,
        prr=0.4, frr=0.5, layer_widths_before={"c1": 4}, layer_widths_after={"c1": 2},
        model_checksum="0" * 64, units_checksum="1" * 64, config=Config(),
    )
    return PruningPlan(**{**defaults, **fields}, removed_unit_ids=tuple(ids), removed_imps=tuple(imps))


def assert_plan_matches_json(plan: PruningPlan) -> None:
    assert plan.to_json() == json.dumps(plan_payload(plan), indent=2) + "\n"


class TestPlanToJson:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        entries=st.lists(st.tuples(strings, floats | st.integers()), max_size=6),
        threshold=floats,
        counts=st.lists(st.integers() | st.sampled_from(BIG_INTS), min_size=4, max_size=4),
        widths=st.dictionaries(strings, st.integers(), max_size=4),
        config=st.sampled_from(CONFIGS),
        checksums=st.tuples(strings, strings),
    )
    def test_equals_json_dumps_indent_2(self, entries, threshold, counts, widths, config, checksums):
        params, flops, post_params, post_flops = counts
        plan = make_plan(
            [uid for uid, _ in entries], [imp for _, imp in entries], threshold=threshold, baseline_params=params,
            baseline_flops=flops, predicted_params=post_params, predicted_flops=post_flops, prr=threshold,
            frr=-threshold, layer_widths_before=widths, layer_widths_after=dict(reversed(widths.items())),
            config=config, model_checksum=checksums[0], units_checksum=checksums[1],
        )
        assert_plan_matches_json(plan)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats(self, value):
        # as one imp among others, as every imp, and as the threshold, Prr and Frr
        assert_plan_matches_json(make_plan(["c1.c0", "c1.c1", "c1.c2"], [0.25, value, 1]))
        assert_plan_matches_json(make_plan(["c1.c0", "c1.c1"], [value, value]))
        assert_plan_matches_json(make_plan(["c1.c0"], [0.25], threshold=value, prr=value, frr=value))

    @pytest.mark.parametrize("value", EDGE_STRINGS + TEMPLATE_STRINGS)
    def test_edge_strings(self, value):
        # as one unit id among others, as the layer names and as both checksums
        assert_plan_matches_json(make_plan(["c1.c0", value, "c1.c1"], [0.25, 0.5, 0.75]))
        widths = {value: 4, "c1": 2}
        names = dict(layer_widths_before=widths, layer_widths_after=widths, model_checksum=value, units_checksum=value)
        assert_plan_matches_json(make_plan([value], [0.25], **names))

    @pytest.mark.parametrize("value", BIG_INTS)
    def test_big_ints(self, value):
        counts = dict(baseline_params=value, baseline_flops=value, predicted_params=value, predicted_flops=value)
        assert_plan_matches_json(make_plan(["c1.c0"], [value], layer_widths_before={"c1": value}, **counts))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_configs(self, config):
        assert_plan_matches_json(make_plan(["c1.c0"], [0.25], config=config))

    def test_no_entries(self):
        assert_plan_matches_json(make_plan())

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(ids=[("c1", 0)]), r"^removed_unit_ids must be tuple\[str, \.\.\.\], got tuple$"),
            (dict(imps=[True]), r"^removed_imps must be tuple\[float, \.\.\.\], got bool$"),
            (dict(config=Config().to_dict()), r"^config must be Config, got dict$"),
            (dict(ids=["c1.c0", "c1.c1"]), r"^2 removed unit ids but 1 imps$"),
            (dict(imps=[0.25, 0.5]), r"^1 removed unit ids but 2 imps$"),
        ],
        ids=["non-str-id", "bool-imp", "dict-config", "more-ids", "more-imps"],
    )
    def test_refuses_what_it_cannot_write(self, change, message):
        with pytest.raises(PruneKitError, match=message):
            make_plan(**{"ids": ["c1.c0"], "imps": [0.25], **change})


def expected_csv(records) -> str:
    """``csv.writer`` rows of each record's fields, its numbers as ``repr``s."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for r in records:
        writer.writerow([r.unit_id, r.layer, r.channel, *map(repr, (r.raw, r.weight_score, r.param_score, r.flop_score, r.importance))])
    return buf.getvalue()


def expected_json(records) -> str:
    rows = [
        dict(zip(RECORD_COLUMNS, [r.unit_id, r.layer, r.channel, r.raw, r.weight_score, r.param_score, r.flop_score, r.importance]))
        for r in records
    ]
    return json.dumps(rows, indent=2) + "\n"


def assert_records_match(records) -> None:
    texts = records_texts(records)
    assert texts == (records_to_csv(records), records_to_json(records))
    assert texts == (expected_csv(records), expected_json(records))


def record(uid="c1.c0", layer="c1", channel=0, numbers=(0.5, 0.25, 0.125, 0.0625, 0.9375)) -> tuple:
    return (uid, layer, channel, *numbers)


def scores(rows: list[tuple]) -> ScoreTable:
    """A hand-made score table of ``record`` rows, each priced at one param and FLOP."""
    columns = map(list, zip(*rows)) if rows else [[]] * 8
    return hand_scores(**dict(zip(SCORE_COLUMNS, columns)), params=[1] * len(rows), flops=[1] * len(rows))


NAN, INF = float("nan"), float("inf")


class TestRecordTexts:
    @pytest.mark.parametrize(
        "numbers",
        [
            [(0.0, -0.0, 0.0, -0.0, 0.0), (-0.0, 0.0, -0.0, 0.0, -0.0), (0.0, 0.0, -0.0, -0.0, 0.0)],
            [(0.1, 0.1, 0.5, 0.5, 1.2), (0.1, 0.2, 0.5, 0.5, 1.3), (0.1, 0.1, 0.5, 0.25, 1.2)],
            [(5e-324, 1e300, -1e300, 2.0**-1074, 1e16), (5e-324, 1e300, 1e300, 5e-324, 1e16)],
            [(NAN, INF, -INF, NAN, 0.0), (INF, -INF, NAN, -0.0, INF), (1.5, NAN, INF, -INF, -0.0)],
            [(1, True, 0.5, np.float64(0.5), -0.0), (2, False, 0.5, 0.5, 0.0)],  # numbers that are not floats
        ],
        ids=["signed-zeros", "repeats", "extremes", "non-finite", "not-floats"],
    )
    def test_hand_made_numbers(self, numbers):
        assert_records_match(scores([record(uid=f"c1.c{i}", channel=i, numbers=n) for i, n in enumerate(numbers)]))

    @pytest.mark.parametrize("name", ['say "hi"', "new\nline", "cr\rlf", "層", " lead", *EDGE_STRINGS, *TEMPLATE_STRINGS])
    def test_hand_made_names(self, name):
        assert_records_match(scores([record(), record(uid=name, layer=name), record(layer=name, channel=True), record(uid=name, channel=2.0)]))

    def test_no_records(self):
        assert_records_match(scores([]))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(strings, strings, st.integers(-(2**63), 2**63 - 1), floats, floats, floats, floats, floats),
            max_size=6,
        ).map(scores)
    )
    def test_equals_csv_writer_and_json_dumps(self, records):
        assert_records_match(records)


def assert_artifacts_match_json(graph):
    """units.json, records.csv/.json and plan.json equal csv.writer and
    json.dumps(indent=2) of the same values, the units read into the
    oracle's records; each plan also survives a from_json round trip, and
    its units_checksum is that of the oracle's entries of its removed units."""
    units = build_prune_units(graph)
    refs = ref_units(units)
    assert units.to_json() == json.dumps([unit_entry(u) for u in refs], indent=2) + "\n"
    try:
        records = score_all(graph, units, Config())
    except DegenerateModelError:  # too small to score; its inventory is still checked
        return
    assert_records_match(records)
    by_uid = {r.unit_id: r for r in records}
    for target in (0.1, 0.4):
        try:
            plan = select_threshold(records, graph, Config(flop_target_ratio=target))
        except InfeasibleBudgetError:
            continue
        assert_plan_matches_json(plan)
        text = plan.to_json()
        again = PruningPlan.from_json(text)
        assert vars(again) == vars(plan) and again.to_json() == text  # field for field, and byte for byte
        assert plan.removed_imps == tuple(by_uid[uid].importance for uid in plan.removed_unit_ids)
        removed = [unit_entry(refs[by_uid[uid].unit_row]) for uid in plan.removed_unit_ids]
        assert plan.units_checksum == unit_table(graph, removed).checksum()


class TestArtifacts:
    @pytest.mark.parametrize("model", ["vgg_graph", "resnet_graph", "densenet_graph"])
    def test_zoo(self, request, model):
        assert_artifacts_match_json(request.getfixturevalue(model))

    def test_densenet40_after_one_pass(self):
        _, pruned = next(multi_pass(densenet40(seed=0), Config(per_pass_ratio=0.2)))  # multi_pass consumes its graph
        assert any(n.in_select() for n in pruned.weighted_layers())
        assert_artifacts_match_json(pruned)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tiny_nets(self, seed):
        assert_artifacts_match_json(random_tiny_net(np.random.default_rng(seed)))

