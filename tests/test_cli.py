"""End-to-end tests of the command-line pipeline.

The whole chain (train-toy -> extract -> build -> query -> sweep -> stats)
runs on the built-in blobs dataset inside a temp directory, so a clean
checkout needs no external data.
"""

import csv
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from actmon import cli
from actmon.cli import main
from actmon.errors import ActmonError
from actmon.monitor import build, load_monitor, query, save_monitor
from actmon.patterns import identity_selection
from actmon.traces import TraceHeader, TraceRecord, read_traces, write_traces


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once and share its artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "model": root / "model.json",
        "train": root / "train.jsonl",
        "eval": root / "eval.jsonl",
        "monitor": root / "monitor.json",
        "verdicts": root / "verdicts.jsonl",
        "report": root / "report.csv",
    }
    assert main(["train-toy", "--seed", "7", "--per-class", "200",
                 "--out", str(paths["model"])]) == 0
    assert main(["extract", "--model", str(paths["model"]), "--layer", "1",
                 "--seed", "7", "--per-class", "200",
                 "--out", str(paths["train"])]) == 0
    assert main(["extract", "--model", str(paths["model"]), "--layer", "1",
                 "--seed", "77", "--per-class", "100",
                 "--out", str(paths["eval"])]) == 0
    assert main(["build", "--traces", str(paths["train"]), "--gamma", "1",
                 "--out", str(paths["monitor"])]) == 0
    assert main(["query", "--monitor", str(paths["monitor"]),
                 "--traces", str(paths["train"]),
                 "--out", str(paths["verdicts"])]) == 0
    assert main(["sweep", "--traces", str(paths["train"]),
                 "--eval", str(paths["eval"]), "--gamma", "2",
                 "--out", str(paths["report"])]) == 0
    return paths


def as_layer_zero(traces, tmp_path):
    """A copy of a layer-1 trace file whose header names layer 0: same
    width and records, another layer."""
    lines = traces.read_text().splitlines()
    header = json.loads(lines[0])
    header["layer"] = 0
    other = tmp_path / "relabeled.jsonl"
    other.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return other


# the CLI with its address space capped at 1 GiB, for a command that must
# fail before it allocates by a size that a file states
CAPPED_MAIN = """import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, hard))
from actmon.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv):
    """``actmon argv`` in a child process under :data:`CAPPED_MAIN`'s
    limit, which acts on that process alone."""
    package = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(package), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for path in pipeline.values():
            assert path.exists() and path.stat().st_size > 0

    def test_training_traces_all_in_zone(self, pipeline):
        # every correctly classified training trace is a zone member
        train_lines = pipeline["train"].read_text().splitlines()[1:]
        verd_lines = pipeline["verdicts"].read_text().splitlines()
        assert len(train_lines) == len(verd_lines)
        for trace_line, verdict_line in zip(train_lines, verd_lines):
            trace = json.loads(trace_line)
            verdict = json.loads(verdict_line)
            assert verdict.keys() == {"id", "verdict"}
            assert verdict["id"] == trace["id"]
            if trace["true_label"] == trace["pred_label"]:
                assert verdict["verdict"] == "InZone"

    def test_report_rows_and_monotonicity(self, pipeline):
        with pipeline["report"].open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["gamma"]) for r in rows] == [0, 1, 2]
        outs = [int(r["n_out"]) for r in rows]
        assert outs == sorted(outs, reverse=True)

    def test_stats_output(self, pipeline, capsys):
        assert main(["stats", "--monitor", str(pipeline["monitor"])]) == 0
        out = capsys.readouterr().out
        assert "gamma: 1" in out
        for c in (0, 1, 2):
            assert f"class {c}: sat_count" in out

    def test_query_summary_printed(self, pipeline, capsys):
        main(["query", "--monitor", str(pipeline["monitor"]),
              "--traces", str(pipeline["eval"]),
              "--out", str(pipeline["verdicts"].with_suffix(".eval.jsonl"))])
        out = capsys.readouterr().out
        assert "InZone" in out and "OutOfZone" in out and "NoZone" in out


class TestQueryVerdicts:
    """``actmon query`` judges a trace file in one batch pass; its lines
    must be the scalar ``query`` verdicts, record by record."""

    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_verdict_lines_equal_scalar_query(self, pipeline, tmp_path,
                                              gamma):
        shifted, built = tmp_path / "shifted.jsonl", tmp_path / "m.json"
        out = tmp_path / "v.jsonl"
        assert main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--seed", "5", "--per-class", "80",
                     "--shift", "2.0", "--out", str(shifted)]) == 0
        assert main(["build", "--traces", str(pipeline["train"]),
                     "--gamma", str(gamma), "--classes", "0,1",
                     "--out", str(built)]) == 0
        assert main(["query", "--monitor", str(built), "--traces",
                     str(shifted), "--out", str(out)]) == 0
        mon = load_monitor(built)
        _, records = read_traces(shifted)
        expected = [{"id": r.id,
                     "verdict": query(mon, r.activations, r.pred_label).value}
                    for r in records]
        assert [json.loads(line) for line in out.read_text().splitlines()] \
            == expected
        assert {v["verdict"] for v in expected} \
            == {"InZone", "OutOfZone", "NoZone"}

    def test_header_only_trace_file(self, pipeline, tmp_path, capsys):
        traces, out = tmp_path / "empty.jsonl", tmp_path / "v.jsonl"
        traces.write_text(pipeline["train"].read_text().splitlines()[0]
                          + "\n")
        assert main(["query", "--monitor", str(pipeline["monitor"]),
                     "--traces", str(traces), "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert capsys.readouterr().out.splitlines() == [
            f"wrote 0 verdicts to {out}", "InZone: 0", "OutOfZone: 0",
            "NoZone: 0"]


class TestTrainToyCommand:
    def test_zero_epochs_still_succeeds(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["train-toy", "--epochs", "0", "--per-class", "50",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "training accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, message", [
        ("--epochs", "epochs must be >= 0, got -3"),
        ("--per-class", "per_class must be >= 0, got -3"),
        ("--seed", "seed must be >= 0, got -3"),
    ])
    def test_negative_count_writes_no_model(self, tmp_path, capsys, flag,
                                            message):
        out = tmp_path / "model.json"
        assert main(["train-toy", flag, "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        outs = []
        for tag in ("one", "two"):
            model = tmp_path / f"model-{tag}.json"
            traces = tmp_path / f"traces-{tag}.jsonl"
            mon = tmp_path / f"monitor-{tag}.json"
            assert main(["train-toy", "--seed", "3", "--per-class", "60",
                         "--epochs", "10", "--out", str(model)]) == 0
            assert main(["extract", "--model", str(model), "--layer", "1",
                         "--seed", "3", "--per-class", "60",
                         "--out", str(traces)]) == 0
            assert main(["build", "--traces", str(traces), "--gamma", "1",
                         "--out", str(mon)]) == 0
            outs.append((model.read_bytes(), traces.read_bytes(),
                         mon.read_bytes()))
        assert outs[0] == outs[1]


class TestSelection:
    def test_gradient_selection_shrinks_monitor(self, pipeline, tmp_path,
                                                capsys):
        mon = tmp_path / "monitor-frac.json"
        assert main(["build", "--traces", str(pipeline["train"]),
                     "--gamma", "0", "--model", str(pipeline["model"]),
                     "--select-frac", "0.5", "--out", str(mon)]) == 0
        capsys.readouterr()
        assert main(["stats", "--monitor", str(mon)]) == 0
        out = capsys.readouterr().out
        assert f"monitored neurons ({math.floor(14 * 0.5)} of 14)" in out

    def test_select_frac_without_model_fails(self, pipeline, tmp_path,
                                             capsys):
        code = main(["build", "--traces", str(pipeline["train"]),
                     "--gamma", "0", "--select-frac", "0.5",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "sweep"])
    @pytest.mark.parametrize("fraction", ["5", "nan", "0", "-1"])
    def test_select_frac_out_of_range_without_model(
            self, pipeline, tmp_path, capsys, command, fraction):
        out = tmp_path / "out"
        args = [command, "--traces", str(pipeline["train"]), "--gamma", "0",
                "--select-frac", fraction, "--out", str(out)]
        if command == "sweep":
            args += ["--eval", str(pipeline["eval"])]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: fraction must be in (0, 1], got {float(fraction)}\n")
        assert not out.exists()

    def test_single_class_monitor(self, pipeline, tmp_path, capsys):
        mon = tmp_path / "monitor-c1.json"
        assert main(["build", "--traces", str(pipeline["train"]),
                     "--gamma", "1", "--classes", "1",
                     "--model", str(pipeline["model"]),
                     "--select-frac", "0.5", "--out", str(mon)]) == 0
        capsys.readouterr()
        assert main(["stats", "--monitor", str(mon)]) == 0
        out = capsys.readouterr().out
        assert "class 1: sat_count" in out
        assert "class 0" not in out


class TestSinglePatternMonitor:
    def test_gamma_one_zone_size_is_width_plus_one(self, tmp_path, capsys):
        # one 5-bit pattern at radius 1: itself plus its 5 neighbours
        header = ('{"format":"actmon-trace","version":1,"layer":0,"width":5,'
                  '"classes":2}\n')
        pattern = [1, 0, 1, 0, 1]
        traces = tmp_path / "one.jsonl"
        traces.write_text(
            header + '{"id":"s0","true_label":1,"pred_label":1,'
            '"activations":[1.0,0.0,2.0,0.0,0.5]}\n')
        mon = tmp_path / "m.json"
        assert main(["build", "--traces", str(traces), "--gamma", "1",
                     "--classes", "1", "--out", str(mon)]) == 0
        capsys.readouterr()
        assert main(["stats", "--monitor", str(mon)]) == 0
        out = capsys.readouterr().out
        assert "gamma: 1" in out and "class 1: sat_count 1," in out
        # the pattern, each of its neighbours, then one at distance 2
        probes = [pattern] + [[b ^ (i == j) for j, b in enumerate(pattern)]
                              for i in range(5)] + [[0, 1, 1, 0, 1]]
        probe_file = tmp_path / "probes.jsonl"
        probe_file.write_text(header + "".join(json.dumps(
            {"id": f"p{i}", "true_label": 1, "pred_label": 1,
             "activations": [float(b) for b in bits]}) + "\n"
            for i, bits in enumerate(probes)))
        verdicts = tmp_path / "v.jsonl"
        assert main(["query", "--monitor", str(mon), "--traces",
                     str(probe_file), "--out", str(verdicts)]) == 0
        assert [json.loads(line)["verdict"]
                for line in verdicts.read_text().splitlines()] \
            == ["InZone"] * 6 + ["OutOfZone"]


class TestErrors:
    @pytest.mark.parametrize("command, version", [
        ("stats", 1), ("query", 1), ("stats", 2), ("query", 2),
        ("stats", 3), ("query", 3)],
        ids=["stats", "query", "stats-v2", "query-v2", "stats-v3",
             "query-v3"])
    def test_version_one_monitor(self, pipeline, tmp_path, capsys, command,
                                 version):
        """A version-1 monitor, and the golden monitor as the version-2
        and version-3 writers saved it, are refused with one line."""
        if version == 1:
            data = json.loads(pipeline["monitor"].read_text())
            data["version"] = 1
            old = tmp_path / "monitor.json"
            old.write_text(json.dumps(data))
        else:
            old = Path(__file__).parent / "legacy" / f"monitor-v{version}.json"
        out = tmp_path / "v.jsonl"
        argv = [command, "--monitor", str(old)]
        if command == "query":
            argv += ["--traces", str(pipeline["eval"]), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: unsupported monitor version "
                                f"{version}; rebuild the monitor with "
                                f"'actmon build'\n")
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
    def test_shift_is_one_finite_number(self, pipeline, tmp_path, capsys,
                                        shift):
        out = tmp_path / "t.jsonl"
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--per-class", "2", f"--shift={shift}",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: offset must be one finite number, "
                                f"got {shift}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_identity_selection_beyond_the_variable_cap(self, tmp_path,
                                                        command):
        """Without ``--model`` every neuron of the layer is a BDD variable,
        so a header-only trace file of width 10**12 is refused by the cap
        before any neuron index is made."""
        traces = tmp_path / "wide.jsonl"
        traces.write_text('{"format":"actmon-trace","version":1,"layer":0,'
                          f'"width":{10 ** 12},"classes":3}}\n')
        args = {"build": ["--gamma", "0"],
                "sweep": ["--eval", str(traces), "--gamma", "1"]}
        done = run_capped([command, "--traces", str(traces), *args[command],
                           "--out", str(tmp_path / "out")])
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr \
            == f"error: layer width must be <= 256, got {10 ** 12}\n"
        assert list(tmp_path.iterdir()) == [traces]

    def test_non_relu_layer(self, pipeline, tmp_path, capsys):
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "2", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "not a ReLU layer" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["stats", "--monitor", str(tmp_path / "nope.json")])
        assert code == 2

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace file\n")
        code = main(["build", "--traces", str(bad), "--gamma", "0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_malformed_monitor_file(self, pipeline, tmp_path, capsys):
        data = json.loads(pipeline["monitor"].read_text())
        data["bdd"]["roots"] = dict(enumerate(data["bdd"]["roots"]))
        bad = tmp_path / "bad_monitor.json"
        bad.write_text(json.dumps(data))
        code = main(["stats", "--monitor", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "query"])
    def test_monitor_file_with_no_classes(self, pipeline, tmp_path, capsys,
                                          command):
        data = json.loads(pipeline["monitor"].read_text())
        data["classes"] = []
        data["bdd"] = {"var": [], "low": [], "high": [], "roots": []}
        bad = tmp_path / "bad_monitor.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "v.jsonl"
        argv = [command, "--monitor", str(bad)]
        if command == "query":
            argv += ["--traces", str(pipeline["eval"]), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: no classes to monitor\n"
        assert not out.exists()

    def test_inexact_integer_in_monitor_file(self, pipeline, tmp_path,
                                             capsys):
        # one table for the monitor file's bounded field, looped so the
        # test keeps its id
        for gamma, message in [(1.9, "gamma 1.9 is not an integer"),
                               (True, "gamma True is not an integer"),
                               (-1, "gamma must be >= 0, got -1")]:
            data = json.loads(pipeline["monitor"].read_text())
            data["gamma"] = gamma
            bad = tmp_path / "bad_monitor.json"
            bad.write_text(json.dumps(data))
            code = main(["stats", "--monitor", str(bad)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err \
                == f"error: malformed monitor file: {message}\n"

    def test_inexact_table_cell_in_monitor_file(self, pipeline, tmp_path,
                                                capsys):
        data = json.loads(pipeline["monitor"].read_text())
        data["bdd"]["high"][0] = True  # equal to 1, but no integer
        low, var = data["bdd"]["low"][0], data["bdd"]["var"][0]
        bad = tmp_path / "bad_monitor.json"
        bad.write_text(json.dumps(data))
        code = main(["stats", "--monitor", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: node 2: malformed entry "
                                f"[{var}, {low}, True]\n")

    def test_width_mismatch_between_build_inputs(self, pipeline, tmp_path,
                                                 capsys):
        # eval traces from a different layer have a different width
        other = tmp_path / "layer0.jsonl"
        assert main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "0", "--seed", "7", "--per-class", "50",
                     "--out", str(other)]) == 0
        code = main(["sweep", "--traces", str(pipeline["train"]),
                     "--eval", str(other), "--gamma", "1",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "width" in capsys.readouterr().err

    def test_query_traces_from_another_layer(self, pipeline, tmp_path,
                                             capsys):
        other = as_layer_zero(pipeline["eval"], tmp_path)
        out = tmp_path / "v.jsonl"
        code = main(["query", "--monitor", str(pipeline["monitor"]),
                     "--traces", str(other), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: trace layer 0 does not match "
                              "monitor layer 1")
        assert not out.exists()

    def test_query_traces_of_another_width(self, pipeline, tmp_path,
                                           capsys):
        # a header-only file: no record's width can give the mismatch away
        header = json.loads(pipeline["eval"].read_text().splitlines()[0])
        header["width"] = 5
        other = tmp_path / "narrow.jsonl"
        other.write_text(json.dumps(header) + "\n")
        out = tmp_path / "v.jsonl"
        code = main(["query", "--monitor", str(pipeline["monitor"]),
                     "--traces", str(other), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: trace width 5 does not match monitor layer "
                       "width 14\n")
        assert not out.exists()

    def test_sweep_eval_traces_from_another_layer(self, pipeline, tmp_path,
                                                  capsys):
        other = as_layer_zero(pipeline["eval"], tmp_path)
        out = tmp_path / "r.csv"
        code = main(["sweep", "--traces", str(pipeline["train"]),
                     "--eval", str(other), "--gamma", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: eval trace layer 0 does not match "
                              "training trace layer 1")
        assert not out.exists()

    def test_sweep_with_empty_class_list(self, pipeline, tmp_path, capsys):
        code = main(["sweep", "--traces", str(pipeline["train"]),
                     "--eval", str(pipeline["eval"]), "--gamma", "1",
                     "--classes", ",", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "no classes to monitor" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    HUGE = "99999999999999999999"  # no list of 0..huge, no huge array

    @pytest.mark.parametrize("command, option, value, message", [
        ("sweep", "--gamma", HUGE, f"gamma must be <= 256, got {HUGE}"),
        ("train-toy", "--per-class", HUGE,
         f"per_class must be <= {2 ** 63 - 1}, got {HUGE}"),
        ("sweep", "--gamma", f"0,{HUGE}", f"gamma must be <= 256, got {HUGE}"),
        ("sweep", "--classes", HUGE,
         f"class index must be <= 2, got {HUGE}"),
        ("extract", "--per-class", HUGE,
         f"per_class must be <= {2 ** 63 - 1}, got {HUGE}"),
        ("extract", "--layer", HUGE, f"layer {HUGE} is not a ReLU layer"),
        ("build", "--gamma", HUGE, f"gamma must be <= 256, got {HUGE}"),
        ("build", "--classes", HUGE,
         f"class index must be <= 2, got {HUGE}"),
    ], ids=["sweep", "train-toy", "sweep-gamma-list", "sweep-classes",
            "extract-per-class", "extract-layer", "build-gamma",
            "build-classes"])
    def test_integer_beyond_a_c_size_is_one_error_line(
            self, pipeline, tmp_path, capsys, command, option, value,
            message):
        """Each integer option names itself and its bound; the option is
        given last, so it replaces a valid value given before it."""
        valid = {"train-toy": [],
                 "extract": ["--model", str(pipeline["model"]),
                             "--layer", "1"],
                 "build": ["--traces", str(pipeline["train"]),
                           "--gamma", "0"],
                 "sweep": ["--traces", str(pipeline["train"]), "--eval",
                           str(pipeline["eval"]), "--gamma", "1"]}
        out = tmp_path / "out"
        code = main([command, *valid[command], option, value,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "sweep"])
    @pytest.mark.parametrize("index", ["7", "-1"])
    def test_class_index_outside_the_traces(self, pipeline, tmp_path, capsys,
                                            command, index):
        out = tmp_path / "out"
        out.write_text("old contents\n")
        args = {"build": ["--gamma", "0"],
                "sweep": ["--eval", str(pipeline["eval"]), "--gamma", "1"]}
        code = main([command, "--traces", str(pipeline["train"]),
                     *args[command], "--classes", index,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        bound = "<= 2" if index == "7" else ">= 0"
        assert err.startswith(f"error: class index must be {bound}, "
                              f"got {index}\n")
        assert out.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_class_list_of_no_integers(self, pipeline, tmp_path, capsys,
                                       command):
        args = {"build": ["--gamma", "0"],
                "sweep": ["--eval", str(pipeline["eval"]), "--gamma", "1"]}
        out = tmp_path / "out"
        code = main([command, "--traces", str(pipeline["train"]),
                     *args[command], "--classes", "1,x", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: expected comma-separated integers, "
                                "got '1,x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_model_layer_of_another_width(self, pipeline, tmp_path, capsys,
                                          command):
        # layer 0 of the toy model is a ReLU layer 16 wide, the traces 14
        train = as_layer_zero(pipeline["train"], tmp_path)
        args = {"build": ["--gamma", "0"],
                "sweep": ["--eval", str(train), "--gamma", "1"]}
        out = tmp_path / "out"
        code = main([command, "--traces", str(train), *args[command],
                     "--model", str(pipeline["model"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: model layer 0 does not match the "
                                "trace header\n")
        assert not out.exists()

    def test_overflow_in_the_forward_pass_is_one_error_line(
            self, pipeline, tmp_path, capsys):
        data = json.loads(pipeline["model"].read_text())
        data["layers"][0]["weights"][0][0] = 1e308
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        out = tmp_path / "t.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's would raise here
            code = main(["extract", "--model", str(model), "--layer", "1",
                         "--per-class", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: non-finite value in layer 0 output\n"
        assert list(tmp_path.iterdir()) == [model]

    def test_non_finite_activation_writes_no_verdicts(self, pipeline,
                                                      tmp_path, capsys):
        lines = pipeline["train"].read_text().splitlines()
        record = json.loads(lines[50])
        record["activations"][0] = math.nan
        lines[50] = json.dumps(record)  # json writes the bare token NaN
        traces = tmp_path / "nan.jsonl"
        traces.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v.jsonl"
        code = main(["query", "--monitor", str(pipeline["monitor"]),
                     "--traces", str(traces), "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "query"])
    def test_out_of_memory_is_one_error_line(self, pipeline, tmp_path,
                                             capsys, monkeypatch, command):
        def exhausted(*args, **kwargs):
            raise MemoryError

        out = tmp_path / "out.json"
        if command == "build":
            monkeypatch.setattr(cli.monitor_mod, "build", exhausted)
            argv = ["build", "--traces", str(pipeline["train"]),
                    "--gamma", "0", "--out", str(out)]
        else:  # raised while the verdicts are written to <out>.tmp
            monkeypatch.setattr(cli, "JSON_LINE", exhausted)
            argv = ["query", "--monitor", str(pipeline["monitor"]),
                    "--traces", str(pipeline["eval"]), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []


class TestDatasetFile:
    def test_extract_from_json_dataset(self, pipeline, tmp_path):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "inputs": [[0.0, 1.0], [5.0, 5.0], [-3.0, 0.5]],
            "labels": [0, 1, 2],
        }))
        out = tmp_path / "traces.jsonl"
        assert main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 records

    def test_inputs_of_another_width(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"inputs": [[0.0, 1.0, 2.0]] * 2,
                                    "labels": [0, 1]}))
        out = tmp_path / "traces.jsonl"
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input shape (2, 3) does not match layer 0 input "
            "width 2\n")
        assert not out.exists()

    def test_inputs_and_labels_of_other_lengths(self, pipeline, tmp_path,
                                                capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"inputs": [[0.0, 1.0], [5.0, 5.0]],
                                    "labels": [0, 1, 2]}))
        out = tmp_path / "traces.jsonl"
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dataset inputs/labels shapes disagree\n")
        assert not out.exists()

    def test_malformed_dataset(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text('{"inputs": [[1, 2]]}')
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data),
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_label_outside_model_classes(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "inputs": [[0.0, 1.0], [5.0, 5.0]],
            "labels": [0, 7],
        }))
        out = tmp_path / "traces.jsonl"
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: record 's1': true_label must be <= 2, "
                              "got 7\n")
        assert not out.exists()

    @pytest.mark.parametrize("labels, message", [
        ([1.9, True, 0], "label 1.9 is not an integer"),
        ([0, 2 ** 70, 1], f"label must be <= {2 ** 63 - 1}, got {2 ** 70}"),
        ([0, -1, 1], "label must be >= 0, got -1"),
        ([[0], [1], [2]], "labels must be one per row, got shape (3, 1)"),
    ], ids=["inexact", "beyond-int64", "negative", "column"])
    def test_labels_must_be_exact_integers(self, pipeline, tmp_path, capsys,
                                           labels, message):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "inputs": [[0.0, 1.0], [5.0, 5.0], [-3.0, 0.5]],
            "labels": labels,
        }))
        out = tmp_path / "traces.jsonl"
        code = main(["extract", "--model", str(pipeline["model"]),
                     "--layer", "1", "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: malformed dataset file: {message}\n"
        assert not out.exists()


class TestOverflowingLiteral:
    """A number literal beyond float64 is a schema error (exit 1), not a
    traceback, in every file a command reads."""

    HUGE = "1" * 400

    def _fails_cleanly(self, argv, capsys, message):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_trace_activation(self, pipeline, tmp_path, capsys):
        lines = pipeline["train"].read_text().splitlines()
        record = json.loads(lines[2])
        record["activations"][0] = 12345.678
        lines[2] = json.dumps(record).replace("12345.678", self.HUGE)
        bad = tmp_path / "train.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        self._fails_cleanly(["build", "--traces", str(bad), "--gamma", "0",
                             "--out", str(tmp_path / "m.json")], capsys,
                            "line 3: ")

    def test_model_weight(self, pipeline, tmp_path, capsys):
        data = json.loads(pipeline["model"].read_text())
        data["layers"][0]["weights"][0][0] = 12345.678
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(data).replace("12345.678", self.HUGE))
        self._fails_cleanly(["extract", "--model", str(bad), "--layer", "1",
                             "--per-class", "2",
                             "--out", str(tmp_path / "t.jsonl")], capsys,
                            "weights beyond the float64 range")

    @pytest.mark.parametrize("command", ["stats", "query"])
    def test_monitor_score(self, pipeline, tmp_path, capsys, command):
        # a monitor file holds no float since its selection scores went:
        # gamma takes the literal, and the integer rule refuses it by name
        data = json.loads(pipeline["monitor"].read_text())
        data["gamma"] = 12345
        bad = tmp_path / "monitor.json"
        bad.write_text(json.dumps(data).replace("12345", self.HUGE))
        argv = [command, "--monitor", str(bad)]
        if command == "query":
            argv += ["--traces", str(pipeline["eval"]),
                     "--out", str(tmp_path / "v.jsonl")]
        self._fails_cleanly(argv, capsys, "malformed monitor file: gamma "
                            f"must be <= 256, got {self.HUGE}")

    @pytest.mark.parametrize("literal, message", [
        ('"1"', "inputs must hold numbers"),
        ("true", "inputs must hold numbers"),
        ("1e999", "inputs must hold finite numbers"),
        (HUGE, "inputs beyond the float64 range"),
    ], ids=["string", "bool", "infinite", "huge"])
    def test_dataset_input(self, pipeline, tmp_path, capsys, literal,
                           message):
        data = tmp_path / "data.json"
        data.write_text(f'{{"inputs": [[0.0, {literal}]], "labels": [0]}}')
        out = tmp_path / "traces.jsonl"
        self._fails_cleanly(["extract", "--model", str(pipeline["model"]),
                             "--layer", "1", "--data", str(data),
                             "--out", str(out)], capsys,
                            f"malformed dataset file: {message}")
        assert not out.exists()


@pytest.mark.parametrize("kind", ["trace-line", "trace-header", "monitor",
                                  "model", "dataset"])
def test_too_deep_nesting_is_one_error_line(pipeline, tmp_path, capsys,
                                            kind):
    # the JSON decoder raises RecursionError on 100,000 nested arrays
    deep, bad, out = "[" * 100_000, tmp_path / "bad.json", tmp_path / "out"
    if kind.startswith("trace"):
        lines = pipeline["train"].read_text().splitlines()
        lines[2 if kind == "trace-line" else 0] = deep
        bad.write_text("\n".join(lines) + "\n")
        argv = ["build", "--traces", str(bad), "--gamma", "0"]
        message = ("line 3: malformed trace record: " if kind == "trace-line"
                   else "trace header is not valid JSON: ")
    else:
        bad.write_text(deep)
        argv = {"monitor": ["stats", "--monitor", str(bad)],
                "model": ["extract", "--model", str(bad), "--layer", "1"],
                "dataset": ["extract", "--model", str(pipeline["model"]),
                            "--data", str(bad), "--layer", "1"]}[kind]
        message = f"{kind} file is not valid JSON: "
    if kind != "monitor":
        argv += ["--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}maximum recursion depth exceeded " \
        f"while decoding a JSON array from a unicode string\n"
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_selection_flags_shared(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag, help_text in [
            ("--model", "enables gradient-based neuron selection"),
            ("--select-frac", "fraction of neurons to monitor, in (0, 1]"),
            ("--classes", "comma-separated class indices")]:
        assert f"{flag} " in text and help_text in text


# values a probe mutation puts in place of a field: every JSON type, edge
# numbers, and the NaN and infinity that json.dumps writes as bare tokens
ODD_VALUES = (None, True, False, 0, -1, 1, 2, 7, 2 ** 70, -(2 ** 70), 0.5,
              -0.0, 1e308, math.nan, math.inf, "", "x", "0", [], {}, [0],
              [[]], {"id": 0})


def value_paths(value, prefix=()):
    """The key path of every value nested in ``value``, its own first."""
    yield prefix
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from value_paths(child, prefix + (key,))


def mutated(value, rng):
    """A copy of the JSON value ``value`` with one structural change at a
    random place: a value replaced, a key or element deleted or repeated,
    or an integer moved by one."""
    value = json.loads(json.dumps(value))
    path = rng.choice(list(value_paths(value)))
    if not path:
        return rng.choice(ODD_VALUES)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.choice(("replace", "delete", "repeat", "nudge"))
    target = parent[key]
    if op == "delete":
        del parent[key]
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(target)))
    elif op == "nudge" and type(target) is int:
        parent[key] = target + rng.choice((-1, 1))
    else:
        parent[key] = rng.choice(ODD_VALUES)
    return value


class TestReaderProbe:
    """A bounded, seeded probe of the readers' failure side: 300 random
    structural mutations each of a saved monitor and of a trace file
    either load or raise ``ActmonError``, and ``actmon query`` on each
    ends with a known exit code, no traceback and no temporary file."""

    ROUNDS = 300

    @pytest.fixture(autouse=True)
    def one_parser(self, monkeypatch):
        # main builds its argparse parser per call, most of a round's time
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("probe")
        rng = np.random.default_rng(5)
        header = TraceHeader(layer=1, width=6, classes=3)
        records = [TraceRecord(f"s{i}", i % 3, (i + i // 7) % 3,
                               rng.normal(size=6).round(3))
                   for i in range(16)]
        traces, monitor = root / "traces.jsonl", root / "monitor.json"
        write_traces(traces, header, records)
        save_monitor(build(records, identity_selection(6, layer=1), 1,
                           classes=[0, 1]), monitor)
        return traces, monitor

    def _query(self, monitor, traces, out, capsys):
        code = main(["query", "--monitor", str(monitor), "--traces",
                     str(traces), "--out", str(out)])
        printed = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in printed.out + printed.err
        assert not out.with_name(out.name + ".tmp").exists()
        return code

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_mutated_monitor_files(self, originals, tmp_path, capsys):
        traces, monitor = originals
        rng, data = random.Random(11), json.loads(monitor.read_text())
        path, out, codes = tmp_path / "m.json", tmp_path / "v.jsonl", set()
        for _ in range(self.ROUNDS):
            path.write_text(json.dumps(mutated(data, rng)))
            try:
                load_monitor(path)
            except ActmonError:
                pass
            codes.add(self._query(path, traces, out, capsys))
        assert codes == {0, 1}

    def test_mutated_trace_files(self, originals, tmp_path, capsys):
        traces, monitor = originals
        rng = random.Random(13)
        lines = [json.loads(line) for line in traces.read_text().splitlines()]
        path, out, codes = tmp_path / "t.jsonl", tmp_path / "v.jsonl", set()
        for _ in range(self.ROUNDS):
            changed = mutated(lines, rng)
            path.write_text("".join(
                json.dumps(line) + "\n"
                for line in (changed if isinstance(changed, list)
                             else [changed])))
            try:
                read_traces(path)
            except ActmonError:
                pass
            codes.add(self._query(monitor, path, out, capsys))
        assert codes == {0, 1}
