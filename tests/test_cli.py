"""Command-line behaviour: artifacts, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from prunekit import GraphBuilder
from prunekit.cli import main

from conftest import bn_params, make_chain, make_dense_toy, make_minimal, save_tmp


@pytest.fixture()
def toy_model(tmp_path):
    rng = np.random.default_rng(21)
    g = make_chain(rng, (6, 8), with_bn=True, conv_bias=True)
    return save_tmp(g, tmp_path)


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


class TestAnalyze:
    def test_writes_records(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "scored units: 14" in stdout
        rows = list(csv.DictReader(read(out / "records.csv").splitlines()))
        assert len(rows) == 14
        assert set(rows[0]) == {"unit_id", "layer", "channel", "L", "GL", "GP", "GF", "Imp"}
        assert json.loads(read(out / "records.json"))
        assert not os.path.exists(out / "units.json")
        run = json.loads(read(out / "run_manifest.json"))
        assert run["command"] == "analyze"
        assert {a["path"] for a in run["artifacts"]} >= {str(out / "records.csv"), str(out / "records.json")}

    def test_dump_units(self, toy_model, tmp_path):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--dump-units"]) == 0
        inventory = json.loads(read(out / "units.json"))
        assert len(inventory) == 14
        assert {"uid", "kind", "members", "in_slices", "aux", "family"} == set(inventory[0])

    def test_weight_norm_variants_differ_only_in_gl(self, toy_model, tmp_path):
        manifest, weights = toy_model
        outputs = {}
        for mode in ("max-min", "max", "log"):
            out = tmp_path / f"out_{mode}"
            assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--weight-norm", mode]) == 0
            outputs[mode] = json.loads(read(out / "records.json"))
        for a, b in [("max-min", "max"), ("max-min", "log")]:
            for ra, rb in zip(outputs[a], outputs[b]):
                assert ra["unit_id"] == rb["unit_id"]
                assert ra["L"] == rb["L"]
                assert ra["GP"] == rb["GP"]
                assert ra["GF"] == rb["GF"]
        assert any(ra["GL"] != rb["GL"] for ra, rb in zip(outputs["max-min"], outputs["max"]))

    def test_ablation_mode_zeroes_in_channel_term(self, toy_model, tmp_path):
        manifest, weights = toy_model
        out_full = tmp_path / "full"
        out_ab = tmp_path / "ablated"
        assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out_full)]) == 0
        assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out_ab), "--mode", "cpmc-a"]) == 0
        full = json.loads(read(out_full / "records.json"))
        ablated = json.loads(read(out_ab / "records.json"))
        assert all(a["L"] >= b["L"] for a, b in zip(full, ablated))
        assert any(a["L"] > b["L"] for a, b in zip(full, ablated))
        assert all(a["GP"] == b["GP"] and a["GF"] == b["GF"] for a, b in zip(full, ablated))


class TestPlanPrune:
    def test_full_pipeline(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        plan = json.loads(read(out / "plan.json"))
        assert plan["predicted"]["frr"] >= 0.3
        assert set(plan) == {"baseline", "predicted", "threshold", "removed_units", "layer_widths", "config", "model_checksum"}
        for entry in plan["removed_units"]:
            assert set(entry) == {"unit_id", "imp", "members", "in_slices"}

        pruned_dir = tmp_path / "pruned"
        assert main([
            "prune", "--model", manifest, "--weights", weights,
            "--plan", str(out / "plan.json"), "--out-dir", str(pruned_dir),
        ]) == 0
        report = json.loads(read(pruned_dir / "surgery_report.json"))
        assert report["post_flops"] == plan["predicted"]["flops"]
        assert report["post_params"] == plan["predicted"]["params"]

        rep_dir = tmp_path / "rep"
        assert main([
            "report", "--baseline", manifest, "--pruned", str(pruned_dir / "pruned_manifest.json"),
            "--out-dir", str(rep_dir),
        ]) == 0
        payload = json.loads(read(rep_dir / "report.json"))
        assert payload["prr"] == pytest.approx(plan["predicted"]["prr"])
        assert payload["frr"] == pytest.approx(plan["predicted"]["frr"])
        text = read(rep_dir / "report.txt")
        assert "fine-tuning required to recover accuracy (out of scope)" in text

    @pytest.mark.parametrize("multi_pass", [False, True])
    def test_run_manifest_digests_match_files(self, toy_model, tmp_path, multi_pass):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        mode = ["--passes", "2", "--per-pass", "0.2"] if multi_pass else ["--plan", str(out / "plan.json")]
        pruned = tmp_path / "pruned"
        assert main(["prune", "--model", manifest, "--weights", weights, *mode, "--out-dir", str(pruned)]) == 0
        written = {"pruned_manifest.json", "pruned_weights.bin", "surgery_report.json"}
        written |= {"plan_pass1.json", "plan_pass2.json"} if multi_pass else set()
        for run_dir, names in ((out, {"plan.json"}), (pruned, written)):
            artifacts = json.loads(read(run_dir / "run_manifest.json"))["artifacts"]
            assert {os.path.basename(a["path"]) for a in artifacts} == names
            for artifact in artifacts:
                with open(artifact["path"], "rb") as f:
                    assert artifact["sha256"] == hashlib.sha256(f.read()).hexdigest()

    def test_report_identical_models(self, toy_model, tmp_path):
        manifest, weights = toy_model
        rep = tmp_path / "rep"
        assert main(["report", "--baseline", manifest, "--pruned", manifest, "--out-dir", str(rep)]) == 0
        payload = json.loads(read(rep / "report.json"))
        assert payload["prr"] == 0.0
        assert payload["frr"] == 0.0

    def test_multi_pass_driver(self, tmp_path):
        rng = np.random.default_rng(22)
        g = make_dense_toy(rng, entry_width=8, growth=4, layers=3)
        manifest, weights = save_tmp(g, tmp_path)
        out = tmp_path / "mp"
        assert main([
            "prune", "--model", manifest, "--weights", weights,
            "--passes", "3", "--per-pass", "0.2", "--out-dir", str(out),
        ]) == 0
        for i in (1, 2, 3):
            assert os.path.exists(out / f"plan_pass{i}.json")
        report = json.loads(read(out / "surgery_report.json"))
        assert report["final_frr"] >= 1 - 0.8**3

    def test_single_pass_driver_without_plan_file(self, toy_model, tmp_path):
        manifest, weights = toy_model
        out = tmp_path / "sp"
        assert main([
            "prune", "--model", manifest, "--weights", weights,
            "--per-pass", "0.3", "--out-dir", str(out),
        ]) == 0
        assert os.path.exists(out / "plan_pass1.json")
        assert json.loads(read(out / "surgery_report.json"))["final_frr"] >= 0.3

    def test_end_to_end_determinism(self, toy_model, tmp_path):
        manifest, weights = toy_model
        blobs = {}
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out)]) == 0
            assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
            assert main([
                "prune", "--model", manifest, "--weights", weights,
                "--plan", str(out / "plan.json"), "--out-dir", str(out),
            ]) == 0
            blobs[run] = {
                name: (out / name).read_bytes()
                for name in ("records.csv", "records.json", "plan.json", "pruned_manifest.json", "pruned_weights.bin", "surgery_report.json")
            }
        assert blobs["a"] == blobs["b"]


class TestConfigHandling:
    def test_preset_sets_alpha_beta(self, toy_model, tmp_path):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--preset", "vggnet", "--flop-target", "0.2"]) == 0
        config = json.loads(read(out / "plan.json"))["config"]
        assert (config["alpha"], config["beta"]) == (3.0, 1.0)

    def test_config_file_and_flag_precedence(self, toy_model, tmp_path):
        manifest, weights = toy_model
        cfg = tmp_path / "prune.cfg"
        cfg.write_text("alpha = 2.5\nbeta = 0.5\nflop_target_ratio = 0.2\nweight_norm_mode = max\n# comment\n")
        out = tmp_path / "out"
        assert main([
            "plan", "--model", manifest, "--weights", weights, "--out-dir", str(out),
            "--config", str(cfg), "--alpha", "4.0",
        ]) == 0
        config = json.loads(read(out / "plan.json"))["config"]
        assert config["alpha"] == 4.0  # flag wins
        assert config["beta"] == 0.5  # file wins over default
        assert config["weight_norm_mode"] == "max"
        assert config["flop_target_ratio"] == 0.2

    def test_bad_config_key(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = 1\n")
        rc = main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()
        for line in ("alpha = abc", "passes = 2.5", "use_in_channel = yes", "min_channels_per_layer = one"):
            cfg.write_text(f"beta = 1\n{line}\n")
            rc = main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
            assert rc == 2, line
            err = capsys.readouterr().err
            assert "Traceback" not in err
            message = json.loads(err)["error"]["message"]
            assert f"{cfg}:2:" in message and repr(line.split(" = ")[0]) in message, message

    def test_config_file_value_equals_flag(self, toy_model, tmp_path):
        manifest, weights = toy_model
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text("alpha = 3\n")
        base = ["plan", "--model", manifest, "--weights", weights, "--flop-target", "0.3"]
        assert main([*base, "--config", str(cfg), "--out-dir", str(tmp_path / "file")]) == 0
        assert main([*base, "--alpha", "3", "--out-dir", str(tmp_path / "flag")]) == 0
        assert read(tmp_path / "file" / "plan.json") == read(tmp_path / "flag" / "plan.json")
        assert json.loads(read(tmp_path / "file" / "plan.json"))["config"]["alpha"] == 3.0


class TestExitCodes:
    def test_validation_failure_exits_2(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        doc = json.loads(read(manifest))
        doc["nodes"][1]["attrs"]["out_channels"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--model", str(bad), "--weights", weights, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "validation"
        assert err["error"]["violations"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [doc],
            lambda doc: doc.update(nodes=5),
            lambda doc: doc.update(input=[1]),
            lambda doc: doc.update(weights_file=3),
            lambda doc: doc["nodes"].__setitem__(1, "conv1"),
            lambda doc: doc["nodes"][1].update(inputs=5),
            lambda doc: doc["nodes"][1].update(inputs=[["input"]]),
            lambda doc: doc["nodes"][1].update(attrs=[1]),
            lambda doc: doc["nodes"][1]["attrs"].update(stride="2"),
            lambda doc: doc["nodes"][1].update(tensors=[]),
            lambda doc: doc["nodes"][1]["tensors"].update(weight=7),
            lambda doc: doc["nodes"][1]["tensors"]["weight"].update(shape=5),
        ],
        ids=[
            "document-array", "nodes-number", "input-array", "weights_file-number", "node-string",
            "inputs-number", "inputs-nested", "attrs-array", "stride-string", "tensors-array",
            "tensor-number", "shape-number",
        ],
    )
    def test_malformed_manifest_exits_2(self, toy_model, tmp_path, capsys, mutate):
        manifest, _ = toy_model
        doc = json.loads(read(manifest))
        doc = mutate(doc) or doc
        bad = tmp_path / "bad.json"  # next to model.bin, which weights_file names
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--model", str(bad), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["removed_units"].__setitem__(0, "conv1.c0"),
            lambda doc: doc["removed_units"][0].pop("members"),
            lambda doc: doc["removed_units"][0].pop("unit_id"),
            lambda doc: doc.update(removed_units={"conv1.c0": {}}),
            lambda doc: doc["removed_units"][0].update(unit_id=["conv1.c0"]),
            lambda doc: doc.update(config=[1]),
            lambda doc: doc["config"].update(flops_convention="flops"),
        ],
        ids=[
            "entry-string", "entry-without-members", "entry-without-unit_id", "removed_units-object",
            "unit_id-list", "config-list", "flops_convention-unknown",
        ],
    )
    def test_malformed_plan_exits_2(self, toy_model, tmp_path, capsys, mutate):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        doc = json.loads(read(out / "plan.json"))
        mutate(doc)
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["prune", "--model", manifest, "--weights", weights, "--plan", str(bad), "--out-dir", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["message"].startswith("malformed plan file")

    def test_config_line_without_equals_exits_2(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 3\n")
        rc = main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == f"{cfg}:1: expected key=value"

    def test_prune_without_plan_or_per_pass_exits_2(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        rc = main(["prune", "--model", manifest, "--weights", weights, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "needs --plan" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize(
        "flags, cfg_text",
        [
            (["--passes", "2", "--per-pass", "0.1"], None),
            (["--per-pass", "0.1"], None),
            (["--passes", "2"], None),
            ([], "passes = 2\nper_pass_ratio = 0.1\n"),
            ([], "per_pass_ratio = 0.1\n"),
        ],
        ids=["passes-and-per-pass", "per-pass", "passes", "config-passes-and-per-pass", "config-per-pass"],
    )
    def test_plan_with_multi_pass_settings_exits_2(self, toy_model, tmp_path, capsys, flags, cfg_text):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        if cfg_text is not None:
            cfg = tmp_path / "multi.cfg"
            cfg.write_text(cfg_text)
            flags = ["--config", str(cfg)]
        capsys.readouterr()
        pruned = tmp_path / "pruned"
        rc = main(["prune", "--model", manifest, "--weights", weights, "--plan", str(out / "plan.json"), *flags, "--out-dir", str(pruned)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert "--plan" in json.loads(err)["error"]["message"]
        assert not os.path.exists(pruned)

    def test_report_on_baseline_without_params_exits_2(self, tmp_path, capsys):
        b = GraphBuilder(3, 4)
        manifest, weights = save_tmp(b.output(b.relu("relu", "input")), tmp_path)
        rc = main(["report", "--baseline", manifest, "--pruned", manifest, "--out-dir", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["code"] == "DegenerateModelError"

    def test_report_on_baseline_without_weighted_layer_exits_2(self, tmp_path, capsys):
        # batch norm has params and FLOPs, so the baseline passes the zero check
        b = GraphBuilder(3, 4)
        bn = b.batchnorm("bn", "input", **bn_params(np.random.default_rng(0), 3))
        manifest, weights = save_tmp(b.output(bn), tmp_path)
        rc = main(["report", "--baseline", manifest, "--pruned", manifest, "--out-dir", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {
            "code": "DegenerateModelError",
            "message": "baseline model has no weighted layer to report",
        }
        assert not os.path.exists(tmp_path / "rep" / "report.json")

    @pytest.mark.parametrize("value", [None, "abc", [6]])
    def test_bad_out_width_in_manifest_exits_2(self, toy_model, tmp_path, capsys, value):
        manifest, weights = toy_model
        doc = json.loads(read(manifest))
        doc["nodes"][1]["attrs"].pop("out_channels")
        if value is not None:
            doc["nodes"][1]["attrs"]["out_channels"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["analyze", "--model", str(bad), "--weights", weights, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["violations"] == ["conv1: Conv2d needs positive in_channels/out_channels/kernel"]

    def test_infeasible_budget_exits_3(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        rc = main(["plan", "--model", manifest, "--weights", weights, "--flop-target", "0.999", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "infeasible-budget"
        assert 0 < err["error"]["best_frr"] < 1

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    def test_model_without_units_exits_2(self, tmp_path, capsys, command):
        # one conv feeding Output: its channels are the model's outputs, so nothing is prunable
        manifest, weights = save_tmp(make_minimal(), tmp_path)
        rc = main([command, "--model", manifest, "--weights", weights, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {"code": "DegenerateModelError", "message": "model has no prunable units"}

    def test_missing_file_exits_4(self, tmp_path, capsys):
        rc = main(["analyze", "--model", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "o")])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "io"

    def test_checksum_mismatch_exits_2(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        rng = np.random.default_rng(77)
        other = make_chain(rng, (6, 8), with_bn=True, conv_bias=True)
        other_manifest, other_weights = save_tmp(other, tmp_path, "other")
        rc = main([
            "prune", "--model", other_manifest, "--weights", other_weights,
            "--plan", str(out / "plan.json"), "--out-dir", str(tmp_path / "p"),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "PlanMismatchError"
