"""The column-wise JSON and CSV writers and the artifacts written through them."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import Config, DegenerateModelError, InfeasibleBudgetError, PruningPlan, build_prune_units, score_all, select_threshold
from prunekit.planner import multi_pass
from prunekit.scoring import RECORD_COLUMNS, ImportanceRecord, records_texts, records_to_csv, records_to_json
from prunekit.units import unit_table
from prunekit.zoo import densenet40

from conftest import random_tiny_net
from oracles import ref_units, unit_entry

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, 0.1, 1e16, 2.0**-1074, float("inf"), float("-inf"), float("nan")]
EDGE_STRINGS = ["", '"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é", "\u2028", "😀", "[1, 2]", "{}"]
TEMPLATE_STRINGS = ["a,b", "%s", "%", "{0}"]  # text that csv quotes, or that a format template would expand

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
named = st.sampled_from(EDGE_STRINGS + TEMPLATE_STRINGS)
strings = st.text() | named
scalars = st.none() | st.booleans() | st.integers() | floats | strings
pair_lists = st.lists(st.tuples(st.text(max_size=3) | named, st.integers()).map(list), max_size=4)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4) | named, inner, max_size=5)
    | pair_lists,
    max_leaves=30,
)
# an entry the planner writes: these keys in this order
planner_entries = st.fixed_dictionaries({"unit_id": strings, "imp": floats | st.integers()})


def plan_payload(plan: PruningPlan) -> dict:
    """The document ``PruningPlan.to_json`` writes."""
    return {
        "baseline": {"params": plan.baseline_params, "flops": plan.baseline_flops},
        "predicted": {"params": plan.predicted_params, "flops": plan.predicted_flops, "prr": plan.prr, "frr": plan.frr},
        "threshold": plan.threshold,
        "removed_units": plan.removed_entries,
        "layer_widths": {"before": plan.layer_widths_before, "after": plan.layer_widths_after},
        "config": plan.config,
        "model_checksum": plan.model_checksum,
        "units_checksum": plan.units_checksum,
    }


def make_plan(removed_entries, **fields) -> PruningPlan:
    defaults = dict(
        threshold=0.5, baseline_params=100, baseline_flops=1000, predicted_params=60, predicted_flops=500,
        prr=0.4, frr=0.5, layer_widths_before={"c1": 4}, layer_widths_after={"c1": 2},
        model_checksum="0" * 64, units_checksum="1" * 64, config=Config().to_dict(),
    )
    return PruningPlan(**{**defaults, **fields}, removed_entries=removed_entries)


def assert_plan_matches_json(plan: PruningPlan) -> None:
    assert plan.to_json() == json.dumps(plan_payload(plan), indent=2) + "\n"


ENTRY = {"unit_id": "c1.c0", "imp": 0.25}


class TestPlanToJson:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        entries=st.lists(planner_entries, max_size=6) | st.lists(planner_entries | values, max_size=4) | values,
        threshold=floats,
        counts=st.lists(st.integers(), min_size=4, max_size=4),
        widths=st.dictionaries(strings, st.integers(), max_size=4),
        config=st.dictionaries(st.text(max_size=4), scalars, max_size=4),
        checksums=st.tuples(strings, strings),
    )
    def test_equals_json_dumps_indent_2(self, entries, threshold, counts, widths, config, checksums):
        params, flops, post_params, post_flops = counts
        plan = make_plan(
            entries, threshold=threshold, baseline_params=params, baseline_flops=flops, predicted_params=post_params,
            predicted_flops=post_flops, prr=threshold, frr=-threshold, layer_widths_before=widths,
            layer_widths_after=dict(reversed(widths.items())), config=config, model_checksum=checksums[0],
            units_checksum=checksums[1],
        )
        assert_plan_matches_json(plan)

    @pytest.mark.parametrize(
        "value",
        [
            *EDGE_FLOATS,
            *EDGE_STRINGS,
            [],
            {},
            [[]],
            [{}],
            {"a": []},
            (1, (2, "x")),
            [["a", 1], ["b", 2]],
            [["a", True]],
            [["a", 1.0]],
            [("a", 1)],
            [["a", 1, 2]],
            {1: "int", 2.5: "float", True: "bool", None: "none"},
            # the boundary between the values written column by column and those handed to json
            {"a": [], "b": {}, "c": None, "d": True},
            [[], {}, [["a", 1]], [("a", 1)]],
            {"x": float("nan"), "y": [float("inf")]},
            {"k": (1, [2])},
            {"a": {1: 2}},
            {"members": [], "in_slices": [["c", 0]]},
            True,
            None,
            -(2**70),
        ],
    )
    def test_edge_values(self, value):
        # the value as the removed units, as one of them, and as each field of a planner entry
        assert_plan_matches_json(make_plan(value))
        assert_plan_matches_json(make_plan([ENTRY, value, ENTRY]))
        for key in ENTRY:
            assert_plan_matches_json(make_plan([ENTRY, {**ENTRY, key: value}]))
        assert_plan_matches_json(
            make_plan([ENTRY], threshold=value, config={"alpha": value}, model_checksum=value, units_checksum=value)
        )

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [ENTRY, {**ENTRY, "extra": [["c1", 1]]}],
            [{"imp": 0.25, "unit_id": "c1.c0"}, ENTRY],
            [{"unit_id": "c1.c0"}],
            [{**ENTRY, "members": [["c1", 0]], "in_slices": [["c2", 0], ("c2", 1)]}, ENTRY],  # the earlier format
            [{**ENTRY, "imp": True}, {**ENTRY, "unit_id": ("c1", 0)}, {"unit_id": None, "imp": [0.25]}],
            [ENTRY, "c1.c0", None, [ENTRY]],
            [ENTRY] * 300 + [{**ENTRY, "extra": 1}] + [{**ENTRY, "unit_id": "c1.c1"}] * 300,
        ],
        ids=[
            "no-entries", "extra-key", "other-key-order", "missing-key", "pair-entries", "values-of-other-types",
            "non-object-entries", "one-odd-entry-among-601",
        ],
    )
    def test_in_memory_entries(self, entries):
        assert_plan_matches_json(make_plan(entries))

    def test_rejects_what_json_rejects(self):
        for entries in ([{"a": object()}], [{(1, 2): 3}], [{**ENTRY, "imp": object()}], [{**ENTRY, "unit_id": object()}]):
            with pytest.raises(TypeError):
                make_plan(entries).to_json()


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


def record(uid="c1.c0", layer="c1", channel=0, numbers=(0.5, 0.25, 0.125, 0.0625, 0.9375)) -> ImportanceRecord:
    return ImportanceRecord(uid, layer, channel, *numbers, params=1, flops=1)


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
        assert_records_match([record(uid=f"c1.c{i}", channel=i, numbers=n) for i, n in enumerate(numbers)])

    @pytest.mark.parametrize("name", ['say "hi"', "new\nline", "cr\rlf", "層", " lead", *EDGE_STRINGS, *TEMPLATE_STRINGS])
    def test_hand_made_names(self, name):
        assert_records_match([record(), record(uid=name, layer=name), record(layer=name, channel=True), record(uid=name, channel=2.0)])

    def test_no_records(self):
        assert_records_match([])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.builds(
                ImportanceRecord, strings, strings, st.integers(), floats, floats, floats, floats, floats,
                params=st.just(1), flops=st.just(1),
            ),
            max_size=6,
        )
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
        assert PruningPlan.from_json(text).to_json() == text
        assert plan.removed_entries == [{"unit_id": uid, "imp": by_uid[uid].importance} for uid in plan.removed_unit_ids]
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

