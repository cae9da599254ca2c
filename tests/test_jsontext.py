"""The indent-2 JSON writer and the artifacts written through it."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import Config, DegenerateModelError, InfeasibleBudgetError, build_prune_units, score_all, select_threshold
from prunekit.jsontext import dumps
from prunekit.planner import multi_pass
from prunekit.scoring import RECORD_COLUMNS, records_to_json
from prunekit.zoo import densenet40

from conftest import random_tiny_net
from oracles import ref_units, unit_entry

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, 0.1, 1e16, 2.0**-1074, float("inf"), float("-inf"), float("nan")]
EDGE_STRINGS = ["", '"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é", " ", "😀", "[1, 2]", "{}"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | st.text()
    | st.sampled_from(EDGE_STRINGS)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(EDGE_STRINGS), inner, max_size=5)
    | st.lists(st.tuples(st.text(max_size=3), st.integers()).map(list), max_size=4),  # [layer, index] pairs
    max_leaves=30,
)


class TestDumps:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(value=values)
    def test_equals_json_dumps_indent_2(self, value):
        assert dumps(value) == json.dumps(value, indent=2)

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
            # the boundary between the values written here and those handed to json
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
        assert dumps(value) == json.dumps(value, indent=2)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            dumps({"a": object()})
        with pytest.raises(TypeError):
            dumps({(1, 2): 3})


def assert_artifacts_match_json(graph):
    """units.json, records.json and plan.json equal json.dumps(indent=2) of
    the same values, the units read into the oracle's records."""
    units = build_prune_units(graph)
    refs = ref_units(units)
    assert units.to_json() == json.dumps([unit_entry(u) for u in refs], indent=2) + "\n"
    try:
        records = score_all(graph, units, Config())
    except DegenerateModelError:  # too small to score; its inventory is still checked
        return
    rows = [dict(zip(RECORD_COLUMNS, [r.unit_id, r.layer, r.channel, r.raw, r.weight_score, r.param_score, r.flop_score, r.importance])) for r in records]
    assert records_to_json(records) == json.dumps(rows, indent=2) + "\n"
    by_uid = {r.unit_id: r for r in records}
    for target in (0.1, 0.4):
        try:
            plan = select_threshold(records, graph, Config(flop_target_ratio=target))
        except InfeasibleBudgetError:
            continue
        text = plan.to_json()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert plan.removed_entries == [
            {
                "unit_id": uid,
                "imp": by_uid[uid].importance,
                "members": unit_entry(refs[by_uid[uid].unit_row])["members"],
                "in_slices": unit_entry(refs[by_uid[uid].unit_row])["in_slices"],
            }
            for uid in plan.removed_unit_ids
        ]


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
