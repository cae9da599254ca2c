"""Command-line behaviour: artifacts, exit codes, determinism."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import random
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from prunekit import GraphBuilder, infer_shapes, load_model
from prunekit.cli import main

from conftest import bn_params, make_chain, make_dense_toy, make_minimal, plan_from_other_units, save_tmp

UNITS_MISMATCH = re.escape("plan was produced from other units (units checksum mismatch)")


def to_pair_format(doc):
    """``doc`` in the earlier plan format: no units_checksum, and each entry
    listing its unit's members and in_slices as [layer, index] pairs."""
    del doc["units_checksum"]
    for entry in doc["removed_units"]:
        layer, index = entry["unit_id"].rsplit(".c", 1)
        entry.update(members=[[layer, int(index)]], in_slices=[])


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
        assert list(plan) == [
            "baseline", "predicted", "threshold", "removed_units", "layer_widths", "config", "model_checksum", "units_checksum",
        ]
        for entry in plan["removed_units"]:
            assert list(entry) == ["unit_id", "imp"]

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

    def test_prune_prints_the_plan_counts(self, toy_model, tmp_path, capsys):
        # the plan is made under another config than the prune command line's
        manifest, weights = toy_model
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("count_aux_params = false\nflops_convention = 2macs\n")
        out, pruned_dir = tmp_path / "out", tmp_path / "pruned"
        assert main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main([
            "prune", "--model", manifest, "--weights", weights,
            "--plan", str(out / "plan.json"), "--out-dir", str(pruned_dir),
        ]) == 0
        printed = capsys.readouterr().out.splitlines()
        report = json.loads(read(pruned_dir / "surgery_report.json"))
        assert printed[1:] == [f"post params: {report['post_params']}", f"post flops (2macs): {report['post_flops']}"]

    def test_prune_records_the_plan_config(self, toy_model, tmp_path):
        # a bare prune --plan applies the plan's settings, so its run manifest records them
        manifest, weights = toy_model
        out, pruned_dir = tmp_path / "out", tmp_path / "pruned"
        assert main([
            "plan", "--model", manifest, "--weights", weights, "--preset", "vggnet", "--flop-target", "0.66",
            "--out-dir", str(out),
        ]) == 0
        plan_config = json.loads(read(out / "plan.json"))["config"]
        assert (plan_config["alpha"], plan_config["flop_target_ratio"]) == (3.0, 0.66)
        assert main([
            "prune", "--model", manifest, "--weights", weights,
            "--plan", str(out / "plan.json"), "--out-dir", str(pruned_dir),
        ]) == 0
        assert json.loads(read(pruned_dir / "run_manifest.json"))["config"] == plan_config

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

    def test_run_manifest_input_digests_match_files(self, toy_model, tmp_path):
        from prunekit.cli import _file_checksum

        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["analyze", "--model", manifest, "--weights", weights, "--out-dir", str(out)]) == 0
        inputs = json.loads(read(out / "run_manifest.json"))["inputs"]
        for attr, path in (("model", manifest), ("weights", weights)):
            with open(path, "rb") as f:
                assert inputs[attr] == {"path": path, "sha256": hashlib.sha256(f.read()).hexdigest()}
        big = tmp_path / "big.bin"  # several read chunks and a partial last one
        big.write_bytes(np.random.default_rng(0).bytes(5 * 2**19 + 3))
        assert _file_checksum(str(big)) == hashlib.sha256(big.read_bytes()).hexdigest()

    def test_report_records_containers_by_size(self, toy_model, tmp_path, monkeypatch):
        import prunekit.cli as cli_module

        manifest, weights = toy_model
        out, pruned = tmp_path / "out", tmp_path / "pruned"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        assert main(["prune", "--model", manifest, "--weights", weights, "--plan", str(out / "plan.json"), "--out-dir", str(pruned)]) == 0
        pruned_manifest, pruned_weights = str(pruned / "pruned_manifest.json"), str(pruned / "pruned_weights.bin")
        hashed = []
        monkeypatch.setattr(cli_module, "_file_checksum", lambda path, real=cli_module._file_checksum: hashed.append(path) or real(path))
        rep = tmp_path / "rep"
        assert main([
            "report", "--baseline", manifest, "--baseline-weights", weights,
            "--pruned", pruned_manifest, "--pruned-weights", pruned_weights, "--out-dir", str(rep),
        ]) == 0
        inputs = json.loads(read(rep / "run_manifest.json"))["inputs"]
        assert inputs["baseline_weights"] == {"path": weights, "bytes": os.path.getsize(weights)}
        assert inputs["pruned_weights"] == {"path": pruned_weights, "bytes": os.path.getsize(pruned_weights)}
        assert os.path.getsize(pruned_weights) < os.path.getsize(weights)
        assert hashed == [manifest, pruned_manifest]  # the manifests, and no container

    def test_report_identical_models(self, toy_model, tmp_path):
        manifest, weights = toy_model
        rep = tmp_path / "rep"
        assert main(["report", "--baseline", manifest, "--pruned", manifest, "--out-dir", str(rep)]) == 0
        payload = json.loads(read(rep / "report.json"))
        assert payload["prr"] == 0.0
        assert payload["frr"] == 0.0

    def test_report_holds_one_model_at_a_time(self, toy_model, tmp_path, monkeypatch):
        import prunekit.cli as cli_module

        manifest, weights = toy_model
        loaded = []  # weakrefs to the graphs report has loaded

        def load_model(*args, real=cli_module.load_model, **kwargs):
            assert all(ref() is None for ref in loaded), "the baseline is still alive"
            assert kwargs == {"structure_only": True}
            graph = real(*args, **kwargs)
            loaded.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(cli_module, "load_model", load_model)
        rep = tmp_path / "rep"
        assert main(["report", "--baseline", manifest, "--pruned", manifest, "--out-dir", str(rep)]) == 0
        assert len(loaded) == 2
        assert json.loads(read(rep / "report.json"))["prr"] == 0.0

    def test_report_reads_no_tensor_bytes(self, toy_model, tmp_path, capsys):
        # containers of the right size holding only 0xFF bytes give the same report as the real ones
        manifest, weights = toy_model
        out, pruned = tmp_path / "out", tmp_path / "pruned"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        assert main(["prune", "--model", manifest, "--weights", weights, "--plan", str(out / "plan.json"), "--out-dir", str(pruned)]) == 0
        pruned_manifest, pruned_weights = str(pruned / "pruned_manifest.json"), pruned / "pruned_weights.bin"
        filled = {}
        for name, path in (("baseline", Path(weights)), ("pruned", pruned_weights)):
            filled[name] = tmp_path / f"{name}_ff.bin"
            filled[name].write_bytes(b"\xff" * path.stat().st_size)
        capsys.readouterr()
        real, ff = tmp_path / "rep", tmp_path / "rep_ff"
        assert main(["report", "--baseline", manifest, "--pruned", pruned_manifest, "--out-dir", str(real)]) == 0
        real_stdout = capsys.readouterr().out
        assert main([
            "report", "--baseline", manifest, "--baseline-weights", str(filled["baseline"]),
            "--pruned", pruned_manifest, "--pruned-weights", str(filled["pruned"]), "--out-dir", str(ff),
        ]) == 0
        assert capsys.readouterr().out == real_stdout
        assert json.loads(read(real / "report.json"))["prr"] > 0
        for name in ("report.json", "report.txt"):
            assert (ff / name).read_bytes() == (real / name).read_bytes()

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

    def test_pruned_container_is_hashed_once(self, toy_model, tmp_path, monkeypatch):
        # the surgery report's container_checksum and the run manifest's digest come from one pass
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        sha256, hashed = hashlib.sha256, []

        class Spy:
            """A sha256 that keeps every byte it is given, listed in ``hashed``."""

            def __init__(self, data=b""):
                self.data, self.digest = bytearray(), sha256()
                self.update(data)
                hashed.append(self)

            def update(self, data):
                self.data += memoryview(data).tobytes()
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Spy)
        for i, mode in enumerate((["--plan", str(out / "plan.json")], ["--passes", "2", "--per-pass", "0.2"])):
            pruned = tmp_path / f"pruned{i}"
            hashed.clear()
            assert main(["prune", "--model", manifest, "--weights", weights, *mode, "--out-dir", str(pruned)]) == 0
            container = (pruned / "pruned_weights.bin").read_bytes()
            assert sum(spy.data.count(container) for spy in hashed) == 1, mode

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


    def test_config_file_bool_equals_flag(self, toy_model, tmp_path):
        manifest, weights = toy_model
        cfg = tmp_path / "ablation.cfg"
        cfg.write_text("use_in_channel = false\n")
        base = ["analyze", "--model", manifest, "--weights", weights]
        assert main([*base, "--config", str(cfg), "--out-dir", str(tmp_path / "file")]) == 0
        assert main([*base, "--mode", "cpmc-a", "--out-dir", str(tmp_path / "flag")]) == 0
        assert main([*base, "--out-dir", str(tmp_path / "default")]) == 0
        assert read(tmp_path / "file" / "records.csv") == read(tmp_path / "flag" / "records.csv")
        assert read(tmp_path / "file" / "records.csv") != read(tmp_path / "default" / "records.csv")


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
            lambda doc: doc.update(version=2),
            lambda doc: doc["nodes"][1].update(id=None),
            lambda doc: doc["nodes"][2].update(id=doc["nodes"][1]["id"]),
            lambda doc: doc["nodes"][1]["tensors"].update(kernel=doc["nodes"][1]["tensors"].pop("weight")),
            # element counts past 2**64, which wrap to 0 or a negative size in int64
            lambda doc: doc["nodes"][1]["tensors"]["weight"].update(shape=[2**32, 2**32, 1, 1]),
            lambda doc: doc["nodes"][1]["tensors"]["weight"].update(shape=[3, 2**62]),
        ],
        ids=[
            "document-array", "nodes-number", "input-array", "weights_file-number", "node-string",
            "inputs-number", "inputs-nested", "attrs-array", "stride-string", "tensors-array",
            "tensor-number", "shape-number", "version-unsupported", "id-null", "id-duplicate",
            "tensor-role-unknown", "shape-count-wraps-to-0", "shape-count-wraps-negative",
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
            lambda doc: doc["removed_units"][0].pop("unit_id"),
            lambda doc: doc.update(removed_units={"conv1.c0": {}}),
            lambda doc: doc["removed_units"][0].update(unit_id=["conv1.c0"]),
            lambda doc: doc.update(config=[1]),
            lambda doc: doc["config"].update(flops_convention="flops"),
            lambda doc: doc["config"].update(count_aux_params="no"),
            lambda doc: doc["config"].update(min_channels_per_layer=1.5),
            lambda doc: doc["config"].update(passes=True),
            lambda doc: doc["config"].update(use_in_channel=0),
            lambda doc: doc["config"].update(alpha="1"),
            lambda doc: doc["config"].update(gamma=1.0),
            lambda doc: doc.update(threshold="x"),
            lambda doc: doc["baseline"].update(flops=[1]),
            lambda doc: doc["baseline"].update(params=True),
            lambda doc: doc["predicted"].update(params="5"),
            lambda doc: doc["predicted"].update(flops=float(doc["predicted"]["flops"])),
            lambda doc: doc["predicted"].update(prr="0.1"),
            lambda doc: doc["predicted"].update(frr=None),
            lambda doc: doc["layer_widths"].update(after="x"),
            lambda doc: doc["layer_widths"]["before"].update(conv1="6"),
            lambda doc: doc.update(model_checksum=5),
            lambda doc: doc.update(units_checksum=5),
            lambda doc: doc.update(units_checksum=None),
            lambda doc: doc.pop("units_checksum"),
            lambda doc: doc["removed_units"][0].update(imp="x"),
            lambda doc: doc["removed_units"][0].pop("imp"),
            lambda doc: doc["removed_units"][0].update(members=[["conv1", 0]]),
            to_pair_format,
        ],
        ids=[
            "entry-string", "entry-without-unit_id", "removed_units-object",
            "unit_id-list", "config-list", "flops_convention-unknown", "count_aux_params-string",
            "min_channels_per_layer-float", "passes-bool", "use_in_channel-int", "alpha-string", "config-unknown-key",
            "threshold-string", "baseline-flops-list", "baseline-params-bool", "predicted-params-string",
            "predicted-flops-float", "prr-string", "frr-null", "layer_widths-after-string",
            "layer_width-string", "model_checksum-number", "units_checksum-number", "units_checksum-null",
            "units_checksum-missing", "imp-string", "entry-without-imp", "entry-with-third-key", "pair-format",
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

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["removed_units"][0].update(unit_id="conv9.c99"), "corrupt plan: unknown unit 'conv9.c99'"),
            (lambda doc: doc["removed_units"].append(dict(doc["removed_units"][0])), "corrupt plan: unit 'conv.*' listed twice"),
            (lambda doc: doc.update(units_checksum=doc["units_checksum"][::-1]), UNITS_MISMATCH),
            (lambda doc: doc.update(units_checksum=doc["model_checksum"]), UNITS_MISMATCH),
            (lambda doc: doc["removed_units"].pop(), UNITS_MISMATCH),
            (lambda doc: doc["removed_units"].reverse(), UNITS_MISMATCH),
        ],
        ids=["unknown-id", "duplicate-id", "units_checksum-tampered", "units_checksum-other", "entry-dropped", "entries-reordered"],
    )
    def test_plan_that_names_other_units_exits_2(self, toy_model, tmp_path, capsys, mutate, message):
        # well-formed plan files whose entries are not the units the planner removed
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        doc = json.loads(read(out / "plan.json"))
        assert len(doc["removed_units"]) >= 2
        mutate(doc)
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["prune", "--model", manifest, "--weights", weights, "--plan", str(bad), "--out-dir", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["code"] == "PlanMismatchError" and re.fullmatch(message, error["message"])
        assert not os.path.exists(tmp_path / "p")

    def test_plan_from_other_units_exits_2(self, toy_model, tmp_path, capsys):
        # a plan from a unit table whose removed rows keep the builder's uids but differ in one in-slice
        manifest, weights = toy_model
        bad = tmp_path / "bad_plan.json"
        bad.write_text(plan_from_other_units(infer_shapes(load_model(manifest, weights))).to_json())
        rc = main(["prune", "--model", manifest, "--weights", weights, "--plan", str(bad), "--out-dir", str(tmp_path / "p")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2
        assert error["code"] == "PlanMismatchError" and re.fullmatch(UNITS_MISMATCH, error["message"])
        assert not os.path.exists(tmp_path / "p")

    def test_fuzzed_plan_exits_2(self, toy_model, tmp_path, capsys):
        # seeded mutations of a real plan file, each of which no surgery may accept
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        text = read(out / "plan.json")
        plan = json.loads(text)
        assert len(plan["removed_units"]) >= 2
        rng = random.Random(0)
        for i in range(40):
            doc = copy.deepcopy(plan)
            entries = doc["removed_units"]
            entry = rng.choice(entries)
            keyed = [
                *((doc, key) for key in doc),
                *((doc[part], key) for part in ("baseline", "predicted", "layer_widths") for key in doc[part]),
                *((entry, key) for key in entry),
            ]
            mutation = i % 8
            if mutation == 0:  # drop a key
                parent, key = rng.choice(keyed)
                del parent[key]
            elif mutation == 1:  # retype a value
                parent, key = rng.choice(keyed)
                parent[key] = [parent[key]] if isinstance(parent[key], str) else str(parent[key])
            elif mutation == 2:  # a units checksum that is not the removed units'
                digest = doc["units_checksum"]
                doc["units_checksum"] = rng.choice([digest[1:] + digest[0], digest.upper(), "", None, 0, doc["model_checksum"]])
            elif mutation == 3:  # swap two entries' unit ids
                a, b = rng.sample(entries, 2)
                a["unit_id"], b["unit_id"] = b["unit_id"], a["unit_id"]
            elif mutation == 4:  # list an entry twice
                entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(entry))
            elif mutation == 5:  # drop an entry
                entries.remove(entry)
            elif mutation == 6:  # truncate the text
                doc = text[: rng.randrange(len(text) - 1)]
            else:  # a top level that is not an object
                doc = rng.choice([[doc], entries, "plan", 3, None, True])
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(doc if mutation == 6 else json.dumps(doc))
            capsys.readouterr()
            p = tmp_path / f"p{i}"
            rc = main(["prune", "--model", manifest, "--weights", weights, "--plan", str(bad), "--out-dir", str(p)])
            err = capsys.readouterr().err
            assert rc == 2, (i, err)
            assert "Traceback" not in err
            assert err.count("\n") == 1 and isinstance(json.loads(err)["error"]["message"], str)
            assert not os.path.exists(p)

    def test_config_line_without_equals_exits_2(self, toy_model, tmp_path, capsys):
        manifest, weights = toy_model
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 3\n")
        rc = main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == f"{cfg}:1: expected key=value"

    @pytest.mark.parametrize("kind", ["analyze-model", "analyze-config", "prune-plan", "report-baseline"])
    def test_input_that_is_not_utf8_exits_2(self, toy_model, tmp_path, capsys, kind):
        manifest, weights = toy_model
        out = tmp_path / "out"
        assert main(["plan", "--model", manifest, "--weights", weights, "--out-dir", str(out), "--flop-target", "0.3"]) == 0
        source = {"analyze-config": b"alpha = 2\n", "prune-plan": (out / "plan.json").read_bytes()}.get(kind)
        bad = tmp_path / "bad"
        bad.write_bytes((source or Path(manifest).read_bytes()).replace(b"\n", b"\xff\n", 1))
        argv, prefix = {
            "analyze-model": (["analyze", "--model", str(bad), "--weights", weights], "malformed manifest: "),
            "analyze-config": (["analyze", "--model", manifest, "--weights", weights, "--config", str(bad)], f"{bad}: "),
            "prune-plan": (["prune", "--model", manifest, "--weights", weights, "--plan", str(bad)], "malformed plan file: "),
            "report-baseline": (["report", "--baseline", str(bad), "--baseline-weights", weights, "--pruned", manifest], "malformed manifest: "),
        }[kind]
        capsys.readouterr()
        rc = main([*argv, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and err.count("\n") == 1
        message = json.loads(err)["error"]["message"]
        assert message.startswith(prefix) and "can't decode byte 0xff" in message, message
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("kind", ["analyze-model", "prune-plan", "report-baseline"])
    def test_input_nested_past_the_recursion_limit_exits_2(self, toy_model, tmp_path, capsys, kind):
        manifest, weights = toy_model
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        argv, prefix = {
            "analyze-model": (["analyze", "--model", str(bad), "--weights", weights], "malformed manifest: "),
            "prune-plan": (["prune", "--model", manifest, "--weights", weights, "--plan", str(bad)], "malformed plan file: "),
            "report-baseline": (["report", "--baseline", str(bad), "--baseline-weights", weights, "--pruned", manifest], "malformed manifest: "),
        }[kind]
        rc = main([*argv, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and err.count("\n") == 1
        message = json.loads(err)["error"]["message"]
        assert message.startswith(prefix) and "recursion" in message, message
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "command, field", [("analyze", "node id"), ("plan", "node id"), ("report", "node id"), ("analyze", "weights_file")]
    )
    def test_manifest_string_that_is_not_utf8_exits_2(self, toy_model, tmp_path, capsys, command, field):
        # JSON's \ud800 escape spells a lone surrogate, which records.csv, report.txt and file names cannot hold
        manifest, weights = toy_model
        doc = json.loads(read(manifest))
        old = doc["nodes"][1]["id"]
        if field == "node id":
            for node in doc["nodes"]:
                node["id"] = old + "\ud800" if node["id"] == old else node["id"]
                node["inputs"] = [old + "\ud800" if i == old else i for i in node.get("inputs", [])]
            value, weights_flag = old + "\ud800", ["--weights", weights]
        else:
            doc["weights_file"] = value = "\ud800.bin"
            field, weights_flag = "manifest weights_file", []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        model = ["--model", str(bad), *weights_flag]
        if command == "report":
            model = ["--baseline", str(bad), "--baseline-weights", weights, "--pruned", manifest]
        rc = main([command, *model, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and err.count("\n") == 1
        message = f"{field} {value!r} is not encodable as UTF-8: surrogates not allowed"
        assert json.loads(err)["error"] == {"code": "ManifestError", "message": message}
        assert not os.path.exists(tmp_path / "o")

    def test_fuzzed_config_exits_0_2_3_or_4(self, toy_model, tmp_path, capsys):
        # seeded mutations of a small config file, values and raw bytes: each is
        # rejected with one JSON object and no output directory, or planned
        manifest, weights = toy_model
        lines = [b"alpha = 1.5", b"beta = 0.5", b"flop_target_ratio = 0.3", b"min_channels_per_layer = 1", b"use_in_channel = true"]
        values = [b"nan", b"inf", b"-inf", b"1e309", b"9" * 400, b"9" * 5000, b"-1", b"0", b"2", b"0.25", b"true", b"", b"'0.2'", b"0x10"]
        rng = random.Random(0)
        codes = set()
        for i in range(36):
            doc = list(lines)
            j = rng.randrange(len(doc))
            key, _, value = doc[j].partition(b" = ")
            mutation = i % 6
            if mutation == 0:  # a value that is out of range or does not parse
                doc[j] = key + b" = " + rng.choice(values)
            elif mutation == 1:  # a byte that is not UTF-8, or a NUL
                pos = rng.randrange(len(doc[j]) + 1)
                doc[j] = doc[j][:pos] + rng.choice([b"\xff", b"\xc3", b"\x80", b"\x00", b"\xef\xbb\xbf"]) + doc[j][pos:]
            elif mutation == 2:  # "=" missing or repeated
                doc[j] = rng.choice([key + b" " + value, key + b" = = " + value, key + b" = " + value + b" = " + value, b"= " + value])
            elif mutation == 3:  # CRLF or CR line ends, comments and blank lines
                doc = [line + rng.choice([b"", b"  # x = 1", b"\t", b"\n"]) for line in doc]
            elif mutation == 4:  # a key repeated with a bad last value
                doc.append(key + b" = " + rng.choice(values))
            else:  # an unknown or mangled key
                doc[j] = rng.choice([key.upper(), key + b"x", b"x" + key, key[:-1]]) + b" = " + value
            newline = rng.choice([b"\n", b"\r\n", b"\r"]) if mutation == 3 else b"\n"
            cfg = tmp_path / f"c{i}.cfg"
            cfg.write_bytes(newline.join(doc) + newline)
            out = tmp_path / f"o{i}"
            rc = main(["plan", "--model", manifest, "--weights", weights, "--config", str(cfg), "--out-dir", str(out)])
            captured = capsys.readouterr()
            codes.add(rc)
            assert rc in (0, 2, 3, 4), (i, captured.err)
            assert "Traceback" not in captured.err
            if rc:
                assert captured.err.count("\n") == 1 and isinstance(json.loads(captured.err)["error"]["message"], str)
                assert not os.path.exists(out)
        assert {0, 2} <= codes

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

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    def test_boolean_in_select_exits_2(self, tmp_path, capsys, command):
        # JSON true/false load as bools, which are ints to isinstance and index as a mask
        manifest, weights = save_tmp(make_chain(np.random.default_rng(23), (2, 4, 4)), tmp_path)
        doc = json.loads(read(manifest))
        next(n for n in doc["nodes"] if n["id"] == "conv2")["attrs"]["in_select"] = [False, True]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main([command, "--model", str(bad), "--weights", weights, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["violations"] == ["conv2: in_select must be a list of nonnegative integers"]

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

    @pytest.mark.parametrize("side", ["baseline", "pruned"])
    def test_report_checks_each_container(self, toy_model, tmp_path, capsys, side):
        # report reads no tensor, but a container of the wrong size exits 2 and a missing one 4
        manifest, weights = toy_model
        longer = tmp_path / "longer.bin"
        longer.write_bytes(Path(weights).read_bytes() + b"\0\0\0\0")
        size = os.path.getsize(weights)
        for container, code, message in (
            (longer, 2, f"weight container is {size + 4} bytes, manifest declares {size}"),
            (tmp_path / "missing.bin", 4, None),
        ):
            argv = ["report", "--baseline", manifest, "--pruned", manifest, f"--{side}-weights", str(container)]
            rc = main([*argv, "--out-dir", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == code
            assert "Traceback" not in err
            error = json.loads(err)["error"]
            assert error["code"] == ("ManifestError" if code == 2 else "io")
            assert message is None or error["message"] == message
            assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("value", ["x", None, "1e-5", -1.0, math.nan], ids=["text", "null", "numeric-text", "negative", "nan"])
    def test_bad_batchnorm_epsilon_exits_2(self, toy_model, tmp_path, capsys, command, value):
        manifest, _ = toy_model
        doc = json.loads(read(manifest))
        next(n for n in doc["nodes"] if n["id"] == "bn1")["attrs"]["epsilon"] = value
        bad = tmp_path / "bad.json"  # next to model.bin, which weights_file names
        bad.write_text(json.dumps(doc))
        models = ["--baseline", str(bad), "--pruned", str(bad)] if command == "report" else ["--model", str(bad)]
        rc = main([command, *models, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert error["violations"] == [f"bn1: BatchNorm2d epsilon must be a finite number of at least 0, got {value!r}"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("variance, epsilon", [(0.0, 0.0), (-1.0, 1e-5), (math.nan, 1e-5)], ids=["zero", "negative", "nan"])
    def test_bad_batchnorm_variance_exits_2_on_a_full_load_only(self, toy_model, tmp_path, capsys, variance, epsilon):
        # analyze reads the variances and refuses the first bad one; report reads no tensor
        manifest, weights = toy_model
        doc = json.loads(read(manifest))
        bn1 = next(n for n in doc["nodes"] if n["id"] == "bn1")
        bn1["attrs"]["epsilon"] = epsilon
        container = bytearray(Path(weights).read_bytes())
        for index in (2, 4):
            at = bn1["tensors"]["running_var"]["offset"] + 4 * index
            container[at : at + 4] = np.float32(variance).tobytes()
        bad, bad_bin = tmp_path / "bad.json", tmp_path / "bad.bin"
        bad.write_text(json.dumps(doc))
        bad_bin.write_bytes(container)
        rc = main(["analyze", "--model", str(bad), "--weights", str(bad_bin), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {
            "code": "ManifestError",
            "message": f"bn1: running_var + epsilon must be > 0, got {variance + epsilon} at index 2",
        }
        assert not os.path.exists(tmp_path / "o")
        models = ["--baseline", str(bad), "--baseline-weights", str(bad_bin), "--pruned", str(bad), "--pruned-weights", str(bad_bin)]
        assert main(["report", *models, "--out-dir", str(tmp_path / "rep")]) == 0
        assert json.loads(read(tmp_path / "rep" / "report.json"))["prr"] == 0.0

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("spoil", [float, str, lambda n: -1, lambda n: True, lambda n: None, lambda n: [n]],
                             ids=["float", "text", "negative", "bool", "null", "list"])
    def test_bad_total_bytes_exits_2(self, toy_model, tmp_path, capsys, command, spoil):
        manifest, _ = toy_model
        doc = json.loads(read(manifest))
        value = doc["total_bytes"] = spoil(doc["total_bytes"])
        bad = tmp_path / "bad.json"  # next to model.bin, which weights_file names
        bad.write_text(json.dumps(doc))
        models = ["--baseline", str(bad), "--pruned", str(bad)] if command == "report" else ["--model", str(bad)]
        rc = main([command, *models, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {
            "code": "ManifestError",
            "message": f"manifest total_bytes must be a non-negative int, got {type(value).__name__} {value!r}",
        }
        assert not os.path.exists(tmp_path / "o")

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

    @pytest.mark.parametrize("command", ["analyze", "plan", "report"])
    def test_width_mismatch_exits_2_as_shape_error(self, toy_model, tmp_path, capsys, command):
        # a BatchNorm whose tensors match its channel count but not its producer's width:
        # validate passes it and infer_shapes, the one owner of widths, rejects it
        manifest, _ = toy_model
        doc = json.loads(read(manifest))
        bn = next(n for n in doc["nodes"] if n["kind"] == "BatchNorm2d")
        bn["attrs"]["channels"] = 5
        for meta in bn["tensors"].values():
            meta["shape"] = [5]
        bad = tmp_path / "bad.json"  # next to model.bin, which weights_file names
        bad.write_text(json.dumps(doc))
        models = ["--baseline", str(bad), "--pruned", str(bad)] if command == "report" else ["--model", str(bad)]
        rc = main([command, *models, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {"code": "ShapeError", "message": f"{bn['id']}: channel count 5 vs producer width 6"}
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    @pytest.mark.parametrize("size, expected", [(2**20, 0), (2**29, 2), (2**63, 2)])
    def test_input_size_that_overflows_unit_flops_exits_2(self, tmp_path, capsys, command, size, expected):
        # unit FLOPs grow with the input size squared, which the container does not bound
        manifest, weights = save_tmp(make_dense_toy(np.random.default_rng(0)), tmp_path)
        doc = json.loads(read(manifest))
        doc["input"]["size"] = size
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main([command, "--model", str(big), "--weights", weights, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == expected, err
        assert "Traceback" not in err
        if expected:
            assert err.count("\n") == 1 and f"input size {size}" in json.loads(err)["error"]["message"]
            assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv",
        [[], ["plan", "--model", "m.json", "--flop-target", "abc"], ["bogus"], ["analyze"]],
        ids=["no-command", "float-flag-text", "unknown-command", "missing-model"],
    )
    def test_usage_error_exits_2_as_json(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        error = json.loads(captured.err)["error"]
        assert error["code"] == "usage" and error["message"]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 0
        assert "prunekit" in capsys.readouterr().out

    def test_fuzzed_manifest_exits_0_2_or_4(self, tmp_path, capsys):
        # seeded mutations of a real manifest: each is rejected with one JSON object
        # and no output directory, or, where it still describes a model, analyzed
        manifest, weights = save_tmp(make_dense_toy(np.random.default_rng(0), with_bn=True), tmp_path)
        saved = json.loads(read(manifest))
        rng = random.Random(0)
        values = [None, True, False, 1.5, -1, 0, 2**63]
        for i in range(70):
            doc = copy.deepcopy(saved)
            nodes = doc["nodes"]
            node = rng.choice(nodes[1:])
            mutation = i % 7
            if mutation == 0:  # a bad attribute value
                node["attrs"][rng.choice(sorted(node["attrs"]) or ["stride"])] = rng.choice(values)
            elif mutation == 1:  # a bad tensor offset, shape or dimension
                meta = rng.choice([m for n in nodes for m in n["tensors"].values()])
                field = rng.choice(["offset", "shape", "dim"])
                if field == "dim":
                    meta["shape"][rng.randrange(len(meta["shape"]))] = rng.choice(values)
                else:
                    meta[field] = rng.choice(values)
            elif mutation == 2:  # inputs retyped
                node["inputs"] = rng.choice([node["inputs"][0], 3, None, {}, [node["inputs"]], [], node["inputs"] * 2])
            elif mutation == 3:  # an unknown kind
                node["kind"] = rng.choice(["Bogus", "conv2d", "", None, 3, ["Conv2d"]])
            elif mutation == 4:  # two nodes swapped
                a, b = rng.sample(range(len(nodes)), 2)
                nodes[a], nodes[b] = nodes[b], nodes[a]
            elif mutation == 5:  # bad input channels or size
                doc["input"][rng.choice(["channels", "size"])] = rng.choice([*values, 2**29, 2**20])
            else:  # large dimensions, whose product may wrap around in 64 bits
                meta = rng.choice([m for n in nodes for m in n["tensors"].values()])
                meta["shape"] = [rng.choice([2**21, 2**31, 2**32, 2**62]) for _ in meta["shape"]] + [3]
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(json.dumps(doc))
            out = tmp_path / f"o{i}"
            rc = main(["analyze", "--model", str(bad), "--weights", weights, "--out-dir", str(out)])
            captured = capsys.readouterr()
            assert rc in (0, 2, 4), (i, captured.err)
            assert "Traceback" not in captured.err
            if rc:
                assert captured.err.count("\n") == 1 and isinstance(json.loads(captured.err)["error"]["message"], str)
                assert not os.path.exists(out)
