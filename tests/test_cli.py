import json
import math
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gatemem.channels import GateLabel, QuantumChannel, compose
from gatemem.cli import main
from gatemem.errprop import reconstruction_uncertainty
from gatemem.exceptions import GatememError, IncompleteDataError, ValidationError
from gatemem.nonmarkov import analyze_grid, repetitions
from gatemem.pipeline import process_tensor_pair, simulate_records
from gatemem.serialize import (
    SCHEMA_VERSION,
    channel_from_payload,
    channel_payload,
    decode_matrix,
    encode_matrix,
    load_channel_dir,
    load_grid,
    load_json,
    load_model,
    load_records,
    matrix_csv,
    records_from_payload,
    records_payload,
)
from gatemem.simulator import build_default_model
from gatemem.tomography import LABEL_GRAMMAR_VERSION

from conftest import fresh_python, ideal_channel, random_channel


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path):
    spec = {
        "sys_qubits": 1,
        "gates": ["H", "S", "T", "X", "Y", "Z"],
        "coupling": 0.55,
        "env_omega": 0.7,
        "reset_policy": "persistent",
        "spam": {"prep": 0.0, "meas": 0.0, "seed": 0},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSerializeHelpers:
    def test_matrix_codec_round_trip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(decode_matrix(encode_matrix(mat)), mat)


class TestSimulateAndTomo:
    def test_single_qubit_record_count(self, runner, model_file, tmp_path):
        out = tmp_path / "records"
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", "X",
            "--shots", "256", "--seed", "1", "--out", str(out),
        ])
        payload = load_json(str(out / "records_X0.json"))
        assert len(payload["records"]) == 12
        records = records_from_payload(payload)
        assert {r.n_qubits for r in records} == {1}
        assert all(r.shots == 256 for r in records)

    def test_two_qubit_record_count(self, runner, tmp_path):
        spec = {
            "sys_qubits": 2,
            "gates": ["H@1", "CX@1,0"],
            "coupling": 0.3,
            "reset_policy": "persistent",
        }
        model = tmp_path / "model2.json"
        model.write_text(json.dumps(spec))
        out = tmp_path / "records"
        _invoke(runner, [
            "simulate", "--model", str(model), "--gates", "CX@1.0",
            "--shots", "64", "--seed", "1", "--out", str(out),
        ])
        payload = load_json(str(out / "records_CX10.json"))
        assert len(payload["records"]) == 144

    def test_exact_mode_and_tomo_round_trip(self, runner, model_file, tmp_path):
        out = tmp_path / "records"
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", "X",
            "--exact", "--seed", "1", "--out", str(out),
        ])
        chan_path = tmp_path / "channel_X0.json"
        _invoke(runner, ["tomo", "--records", str(out / "records_X0.json"),
                         "--out", str(chan_path)])
        payload = load_json(str(chan_path))
        chan = channel_from_payload(payload)
        from gatemem.simulator import build_default_model, extract_channel
        from gatemem.channels import GateLabel

        model = build_default_model(
            [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")],
            coupling=0.55, reset_policy="persistent",
        )
        truth = extract_channel(model, [GateLabel("X", (0,))])
        assert np.linalg.norm(chan.superop - truth.superop) <= 1e-8

    def test_missing_setting_reports_and_exits_2(self, runner, model_file, tmp_path):
        out = tmp_path / "records"
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", "X",
            "--shots", "64", "--seed", "1", "--out", str(out),
        ])
        path = out / "records_X0.json"
        payload = load_json(str(path))
        removed = [r for r in payload["records"] if r["meas"] != "Y"]
        payload["records"] = removed
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, [
            "tomo", "--records", str(path), "--out", str(tmp_path / "nope.json")
        ])
        assert result.exit_code == 2
        assert "Y" in result.output

    def test_same_seed_byte_identical(self, runner, model_file, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            _invoke(runner, [
                "simulate", "--model", model_file, "--gates", "X;X,Z",
                "--shots", "128", "--seed", "9", "--out", str(out),
            ])
            blobs.append(
                (out / "records_X0.json").read_bytes()
                + (out / "records_X0-Z0.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("gates", ["X;Z;X", "X@0;X"])
    def test_repeated_sequence_exits_2(self, runner, model_file, tmp_path, gates):
        # each sequence names one records file, which a repeat would overwrite
        out = tmp_path / "records"
        result = runner.invoke(main, [
            "simulate", "--model", model_file, "--gates", gates,
            "--shots", "64", "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "X@0" in result.output
        assert not out.exists()

    def test_sequences_sharing_a_records_file_exit_2(self, runner, model_file, tmp_path):
        # both sequences would write records_CX110.json; the check runs
        # before anything is simulated
        out = tmp_path / "records"
        result = runner.invoke(main, [
            "simulate", "--model", model_file, "--gates", "CX@11.0;CX@1.10",
            "--shots", "64", "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "CX@11.0" in result.output and "CX@1.10" in result.output
        assert "records_CX110.json" in result.output
        assert not out.exists()


@pytest.fixture
def channel_dir(runner, model_file, tmp_path):
    """Exact-mode channel files of X, Z, (X, Z) and (Z, Z)."""
    rec = tmp_path / "rec"
    _invoke(runner, [
        "simulate", "--model", model_file, "--gates", "X;Z;X,Z;Z,Z",
        "--exact", "--seed", "2", "--out", str(rec),
    ])
    chans = tmp_path / "chan"
    os.makedirs(chans)
    for slug in ("X0", "Z0", "X0-Z0", "Z0-Z0"):
        _invoke(runner, [
            "tomo", "--records", str(rec / f"records_{slug}.json"),
            "--out", str(chans / f"channel_{slug}.json"),
        ])
    return chans


class TestAnalyzeScanErrors:
    def test_analyze_outputs(self, runner, channel_dir, tmp_path):
        out = tmp_path / "analysis"
        _invoke(runner, [
            "analyze", "--channels", str(channel_dir), "--metric", "both",
            "--samples", "2000", "--seed", "4", "--out", str(out),
        ])
        assert (out / "cp_violation.csv").exists()
        assert (out / "cond_vs_marginal_avg.csv").exists()
        assert (out / "cond_vs_marginal_diamond.csv").exists()
        gd = [p for p in os.listdir(out) if p.startswith("gate_dependence_")]
        assert gd  # Z@0 has two conditioning gates
        hist = load_json(str(out / "histogram_X0_Z0.json"))
        assert len(hist["samples"]) == 2000

    def test_analyze_scaling_flag_halves_diamond(self, runner, channel_dir, tmp_path):
        plain = tmp_path / "plain"
        scaled = tmp_path / "scaled"
        for out, flag in ((plain, []), (scaled, ["--scale-figure"])):
            _invoke(runner, [
                "analyze", "--channels", str(channel_dir), "--metric", "diamond",
                "--samples", "500", "--seed", "4", "--out", str(out), *flag,
            ])
        a = load_json(str(plain / "cond_vs_marginal_diamond.json"))
        b = load_json(str(scaled / "cond_vs_marginal_diamond.json"))
        np.testing.assert_allclose(
            np.array(b["values"]), np.array(a["values"]) / 2, rtol=1e-9
        )

    def test_memoryless_comparison_is_a_second_analyze_run(self, runner, model_file, tmp_path):
        # the memoryless comparison is a second analyze run, on a
        # memoryless-simulator twin whose directory holds only the
        # pair's three files: statistical error alone
        spec = json.loads(open(model_file).read())
        spec["reset_policy"] = "reset_each_gate"
        twin_model = tmp_path / "twin.json"
        twin_model.write_text(json.dumps(spec))

        hists = {}
        for name, model in (("main", model_file), ("base", str(twin_model))):
            rec = tmp_path / f"rec_{name}"
            _invoke(runner, [
                "simulate", "--model", model, "--gates", "X;Z;X,Z",
                "--shots", "4096", "--seed", "2", "--out", str(rec),
            ])
            chans = tmp_path / f"chan_{name}"
            os.makedirs(chans)
            for slug in ("X0", "Z0", "X0-Z0"):
                _invoke(runner, [
                    "tomo", "--records", str(rec / f"records_{slug}.json"),
                    "--out", str(chans / f"channel_{slug}.json"),
                ])
            out = tmp_path / f"hist_{name}"
            _invoke(runner, [
                "analyze", "--channels", str(chans), "--metric", "avg", "--samples", "3000",
                "--pair", "X,Z", "--seed", "4", "--out", str(out),
            ])
            hists[name] = load_json(str(out / "histogram_X0_Z0.json"))
        assert len(hists["main"]["samples"]) == len(hists["base"]["samples"]) == 3000
        # memory signal sits above the statistics-only baseline
        assert hists["main"]["mean"] > hists["base"]["mean"]

    @pytest.mark.parametrize("reader", ["analyze", "scan"])
    def test_non_finite_channel_entry_exits_2(self, runner, channel_dir, tmp_path, reader):
        # every channel reader rejects the file before any numerics see it
        bad = channel_dir / "channel_Z0-Z0.json"
        payload = json.loads(bad.read_text())
        payload["superop"][1][2][0] = math.nan
        bad.write_text(json.dumps(payload))
        args = {
            "analyze": ["analyze", "--channels", str(channel_dir)],
            "scan": ["scan", "--channels", str(channel_dir), "--nmax", "2"],
        }[reader]
        result = runner.invoke(main, args + ["--samples", "100", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert str(bad) in result.output

    @pytest.mark.parametrize("pair, reason", [
        ("X", "--pair takes exactly two gates U,V, got 'X'"),
        ("X,Z,Z", "--pair takes exactly two gates U,V, got 'X,Z,Z'"),
        ("Z,X", "pair Z@0,X@0 is not in the channel grid"),
    ])
    def test_pair_not_a_grid_cell_exits_2(self, runner, channel_dir, tmp_path, pair, reason):
        # the grid's first gates are X and Z, its only second gate is Z;
        # the command names the flag it parses, the library the cell it misses
        result = runner.invoke(main, [
            "analyze", "--channels", str(channel_dir), "--pair", pair,
            "--samples", "100", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert reason in result.output

    def test_ptensor_gates_read_as_the_pair_does(self, runner, model_file, tmp_path):
        # one parser, and one message form, for --pair and ptensor's --gates
        result = runner.invoke(main, ["ptensor", "--model", model_file, "--gates", "S,T,X",
                                      "--exact", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "--gates takes exactly two gates U,V, got 'S,T,X'" in result.output

    def test_scan_lower_triangle(self, runner, model_file, tmp_path):
        rec = tmp_path / "rec"
        gates = ";".join(",".join(["X"] * n) for n in range(1, 5))
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", gates,
            "--exact", "--seed", "2", "--out", str(rec),
        ])
        chans = tmp_path / "chan"
        os.makedirs(chans)
        for n in range(1, 5):
            slug = "-".join(["X0"] * n)
            _invoke(runner, [
                "tomo", "--records", str(rec / f"records_{slug}.json"),
                "--out", str(chans / f"channel_{slug}.json"),
            ])
        out = tmp_path / "scan"
        _invoke(runner, [
            "scan", "--channels", str(chans), "--nmax", "4", "--metric", "avg",
            "--samples", "1000", "--seed", "0", "--out", str(out),
        ])
        payload = load_json(str(out / "scan.json"))
        assert {(e["n"], e["m"]) for e in payload["entries"]} == {
            (n, m) for n in range(2, 5) for m in range(1, n)
        }

    def test_scan_missing_length_exits_2(self, runner, channel_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "scan", "--channels", str(channel_dir), "--nmax", "3",
            "--out", str(tmp_path / "scanout"),
        ])
        assert result.exit_code == 2

    def test_duplicate_sequence_files_exit_2(self, runner, channel_dir, tmp_path):
        # two files for one gate sequence are ambiguous: neither may win
        (channel_dir / "channel_X0-again.json").write_bytes(
            (channel_dir / "channel_X0.json").read_bytes()
        )
        result = runner.invoke(main, [
            "analyze", "--channels", str(channel_dir), "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "channel_X0.json" in result.output
        assert "channel_X0-again.json" in result.output

    def test_channel_file_without_gates_exits_2(self, runner, channel_dir, tmp_path):
        # a file that names no gate sequence cannot be placed in the grid;
        # dropping it would leave a smaller grid that passes the check
        path = channel_dir / "channel_Z0-Z0.json"
        payload = json.loads(path.read_text())
        del payload["gates"]
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, [
            "analyze", "--channels", str(channel_dir), "--samples", "100",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2, result.output
        assert "channel_Z0-Z0.json" in result.output
        assert not (tmp_path / "out" / "cp_violation.csv").exists()

    def test_scan_mixed_gate_files_exit_2(self, runner, channel_dir, tmp_path):
        # the 2-gate files are X,Z and Z,Z: no single repeated gate
        result = runner.invoke(main, [
            "scan", "--channels", str(channel_dir), "--nmax", "2",
            "--out", str(tmp_path / "scanout"),
        ])
        assert result.exit_code == 2
        assert "repeat one gate" in result.output

    def test_ptensor_exact(self, runner, model_file, tmp_path):
        out = tmp_path / "pt.json"
        _invoke(runner, [
            "ptensor", "--model", model_file, "--gates", "X,Z", "--exact",
            "--out", str(out),
        ])
        payload = load_json(str(out))
        assert payload["relative_entropy"] > 0.1  # persistent model has memory

    def test_errors_statistical(self, runner, model_file, tmp_path):
        rec = tmp_path / "rec"
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", "X",
            "--shots", "1024", "--seed", "3", "--out", str(rec),
        ])
        out = tmp_path / "unc.json"
        _invoke(runner, [
            "errors", "--records", str(rec / "records_X0.json"),
            "--trials", "20", "--seed", "5", "--out", str(out),
        ])
        payload = load_json(str(out))
        assert payload["std"] > 0.0
        assert payload["trials"] == 20

    def test_errors_spam(self, runner, model_file, tmp_path):
        out = tmp_path / "spam.json"
        _invoke(runner, [
            "errors", "--model", model_file, "--gate", "X",
            "--eps-grid", "0,1e-4,1e-3,1e-2", "--out", str(out),
        ])
        payload = load_json(str(out))
        assert payload["slope"] == pytest.approx(1.0, abs=0.15)
        assert payload["r_squared"] >= 0.99

    @pytest.mark.parametrize("command", ["errors-spam", "ptensor", "simulate", "scan",
                                         "errors-records-exact"])
    def test_run_that_draws_nothing_ignores_the_seed(self, runner, model_file, tmp_path,
                                                     command):
        # exact-mode tomography, exact reference maps, exact probabilities,
        # diamond distances and exact records, which no trial redraws, draw
        # nothing: the seed is not provenance
        rng = np.random.default_rng(0)
        scan_chan = tmp_path / "scan_chan"
        _write_channels(scan_chan, {("X@0",): random_channel(2, rng),
                                    ("X@0", "X@0"): random_channel(2, rng)})
        _invoke(runner, ["simulate", "--model", model_file, "--gates", "X", "--exact",
                         "--out", str(tmp_path / "rec")])
        trees = []
        for seed in (1, 2):
            out = tmp_path / f"out_{seed}"
            args = {
                "errors-spam": ["errors", "--model", model_file, "--gate", "X",
                                "--eps-grid", "0,1e-4,1e-3"],
                "ptensor": ["ptensor", "--model", model_file, "--gates", "X,Z"],
                "simulate": ["simulate", "--model", model_file, "--gates", "X", "--exact"],
                "scan": ["scan", "--channels", str(scan_chan), "--nmax", "2",
                         "--metric", "diamond"],
                "errors-records-exact": ["errors", "--records",
                                         str(tmp_path / "rec" / "records_X0.json"),
                                         "--trials", "3"],
            }[command]
            _invoke(runner, args + ["--seed", str(seed), "--out", str(out / "o")])
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1]
        for name, blob in trees[0].items():
            if name.suffix == ".csv":
                assert blob.decode().splitlines()[0].endswith(" seed=none")
            else:
                assert json.loads(blob)["seed"] is None

    def test_errors_without_inputs_exits_2(self, runner, tmp_path):
        result = CliRunner().invoke(main, ["errors", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2


class TestTwoQubitPipeline:
    def test_analyze_over_mixed_gate_set(self, runner, tmp_path):
        # single-qubit gates on wire 1 alongside the two-qubit gate: the
        # whole analysis runs on the shared two-qubit space
        spec = {
            "sys_qubits": 2,
            "gates": ["H@1", "X@1", "CX@1.0"],
            "coupling": 0.4,
            "reset_policy": "persistent",
        }
        model = tmp_path / "model2.json"
        model.write_text(json.dumps(spec))
        sequences = ["H@1", "X@1", "CX@1.0",
                     "H@1,CX@1.0", "X@1,CX@1.0", "CX@1.0,CX@1.0"]
        rec = tmp_path / "rec"
        _invoke(runner, [
            "simulate", "--model", str(model), "--gates", ";".join(sequences),
            "--exact", "--seed", "3", "--out", str(rec),
        ])
        chans = tmp_path / "chan"
        os.makedirs(chans)
        for name in os.listdir(rec):
            slug = name[len("records_"):]
            _invoke(runner, [
                "tomo", "--records", str(rec / name),
                "--out", str(chans / f"channel_{slug}"),
            ])
        out = tmp_path / "analysis"
        _invoke(runner, [
            "analyze", "--channels", str(chans), "--metric", "avg",
            "--samples", "1000", "--seed", "1", "--out", str(out),
        ])
        cpv = load_json(str(out / "cp_violation.json"))
        assert np.max(np.array(cpv["values"])) > 1e-4  # memory visible at d=4


def _remove(payload, path):
    """Delete ``path`` ('records/0/counts') from a payload; a last
    part '*' empties the list instead."""
    *parents, last = path.split("/")
    for part in parents:
        payload = payload[int(part) if isinstance(payload, list) else part]
    if last == "*":
        payload.clear()
    else:
        del payload[int(last) if isinstance(payload, list) else last]


def _valid_payload(kind, model_file):
    x = GateLabel("X", (0,))
    if kind == "model":
        return load_json(model_file)
    if kind == "records":
        model = build_default_model([x])
        payload = records_payload(simulate_records(model, [x], None), "0", 0)
        payload["gates"] = ["X@0"]  # as simulate writes it
        return payload
    return channel_payload(ideal_channel(x), ["X@0"], None, "0", 0)


#: (input kind, path removed from a valid file, command reading it)
MALFORMED_INPUTS = [
    ("model", "gates", "simulate"),
    ("records", "n_qubits", "tomo"),
    ("records", "n_qubits", "errors"),
    ("records", "records", "tomo"),
    ("records", "records/*", "tomo"),
    ("records", "records/*", "errors"),
    ("records", "records/0/prep", "tomo"),
    ("records", "records/0/meas", "tomo"),
    ("records", "records/0/counts", "tomo"),
    ("records", "records/3/shots", "errors"),
    ("records", "gates", "tomo"),
    ("channel", "superop", "analyze"),
    ("channel", "dim", "analyze"),
    ("channel", "superop", "scan"),
    ("channel", "gates", "analyze"),
    ("channel", "gates", "scan"),
]


@pytest.mark.parametrize("kind, key, command", MALFORMED_INPUTS,
                         ids=[f"{k}-without-{key}-{c}" for k, key, c in MALFORMED_INPUTS])
def test_malformed_input_exits_2(runner, model_file, tmp_path, kind, key, command):
    payload = _valid_payload(kind, model_file)
    _remove(payload, key)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    path = inputs / "channel_X0.json"  # a name the channel loaders' glob also matches
    path.write_text(json.dumps(payload))
    out = str(tmp_path / "out")
    args = {
        "simulate": ["simulate", "--model", str(path), "--gates", "X", "--out", out],
        "tomo": ["tomo", "--records", str(path), "--out", out],
        "errors": ["errors", "--records", str(path), "--trials", "2", "--out", out],
        "analyze": ["analyze", "--channels", str(inputs), "--out", out],
        "scan": ["scan", "--channels", str(inputs), "--nmax", "2", "--out", out],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "validation error" in result.output


def _set(payload, path, value):
    """Set ``path`` ('records/0/shots') in a payload to ``value``; the
    empty path replaces the whole payload."""
    if not path:
        return value
    *parents, last = path.split("/")
    node = payload
    for part in parents:
        node = node[int(part) if isinstance(node, list) else part]
    node[int(last) if isinstance(node, list) else last] = value
    return payload


#: (input kind, path in a valid file or option name, bad value, command)
MALFORMED_VALUES = [
    ("option", "--gates", "X@a", "simulate"),
    ("option", "--gates", ";", "simulate"),  # no sequence at all
    ("option", "--gates", "S", "ptensor"),  # one gate, not a pair
    ("option", "--pair", "X@a,X", "analyze"),
    ("option", "--gate", "X@a", "errors-spam"),
    ("option", "--eps-grid", "a,b", "errors-spam"),
    ("option", "--eps-grid", "0", "errors-spam"),
    ("option", "--eps-grid", "0,0", "errors-spam"),
    ("option", "--eps-grid", "0,1e-3,1e-3", "errors-spam"),
    ("option", "--eps-grid", "0,nan,1e-3", "errors-spam"),
    ("option", "--eps-grid", "0,1e-3,inf", "errors-spam"),
    ("option", "--eps-grid", "0,1e-3,-inf", "errors-spam"),
    ("option", "--eps-grid", "0,nan,1e-3,1e-2", "errors-spam"),
    ("option", "--eps-grid", "0,-1e-3,1e-3,1e-2", "errors-spam"),
    ("option", "--eps-grid", "0,1e-20,1e-19", "errors-spam"),  # errors at the roundoff floor
    ("option", "--eps-grid", "0,0.01,0.1", "errors-spam"),  # beyond the small-kick regime
    ("model", "coupling", "abc", "simulate"),
    ("model", "sys_qubits", 0, "simulate"),
    ("model", "sys_qubits", -1, "simulate"),
    ("model", "sys_qubits", 0, "errors-spam"),
    ("model", "env_omega", float("nan"), "simulate"),
    ("model", "env_omega", float("inf"), "errors-spam"),
    ("model", "spam/prep", float("nan"), "simulate"),
    ("model", "spam/meas", float("nan"), "errors-spam"),
    ("model", "durations", {"X": float("nan")}, "simulate"),
    ("model", "env_initial", [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]], "simulate"),
    ("model", "spam", "x", "simulate"),
    ("model", "durations", [1], "simulate"),
    ("model", "env_initial", [[1]], "simulate"),
    ("model", "env_initial", [[[1, 0]]], "simulate"),  # a 1 x 1 state on the 2-level environment
    ("model", "env_initial", [[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3],
     "errors-spam"),
    ("model", "spam/seed", -5, "simulate"),
    ("model", "spam/seed", 1.7, "simulate"),
    ("model", "spam/seed", True, "errors-spam"),
    ("model", "durations", {"Q": 1.0}, "simulate"),  # a gate the model does not have
    ("model", "gates", "XZ", "simulate"),
    ("model", "couplng", 0.0, "simulate"),  # a misspelt key is not the default coupling
    ("model", "spam/sead", 3, "errors-spam"),
    ("records", "", [1, 2], "tomo"),  # a list, not an object
    ("records", "records/0/counts", [1, 2], "tomo"),
    ("records", "records", {"0": {}}, "tomo"),
    ("records", "records/0/shots", "many", "tomo"),
    ("records", "records/0/counts/0", float("inf"), "tomo"),
    ("records", "records/0/counts/0", float("nan"), "tomo"),  # exact mode: a NaN sum
    ("records", "records/0/counts", {"0": 1.5, "1": -0.5}, "tomo"),  # sums to 1, negative
    ("records", "gates", [], "tomo"),
    ("records", "gates", "X@0", "tomo"),
    ("records", "gates", ["Q@0"], "tomo"),
    ("records", "gates", ["CX@0.1"], "tomo"),
    ("records", "gates", ["X@-1"], "tomo"),
    ("records", "schema", "gatemem.channel/1", "tomo"),
    ("records", "schema", "gatemem.records/2", "tomo"),
    ("records", "grammar_version", 2, "tomo"),
    # one sampled record in a file of exact ones
    ("records", "records/0", {"prep": "Z+", "meas": "X", "counts": {"0": 3, "1": 2}, "shots": 5},
     "tomo"),
    ("records", "records/0/prep", "Q+", "tomo"),  # labels outside the n_qubits frame
    ("records", "records/0/meas", "W", "tomo"),
    ("records", "n_qubits", 3, "tomo"),
    ("records", "n_qubits", True, "tomo"),
    ("channel", "dim", "2", "analyze"),
    ("channel", "superop", 3, "analyze"),
    ("channel", "superop", [[[1, 0]], [[1, 0], [0, 0]]], "analyze"),
    ("channel", "superop/0/0/0", float("nan"), "analyze"),
    ("channel", "superop/3/3/1", float("inf"), "analyze"),
    ("channel", "gates", "XZ", "analyze"),
    ("channel", "gates", ["CX@0.1"], "analyze"),
    ("channel", "schema", "gatemem.records/1", "analyze"),
    ("channel", "schema", "gatemem.channel/2", "analyze"),
    ("channel", "", [1], "analyze"),
]


@pytest.mark.parametrize("kind, path, value, command", MALFORMED_VALUES,
                         ids=[f"{k}-{p or 'top'}={json.dumps(v)}-{c}"
                              for k, p, v, c in MALFORMED_VALUES])
def test_malformed_value_exits_2(runner, model_file, tmp_path, kind, path, value, command):
    source_kind = {"simulate": "model", "errors-spam": "model", "ptensor": "model",
                   "tomo": "records", "analyze": "channel"}[command]
    payload = _valid_payload(source_kind, model_file)
    if kind != "option":
        payload = _set(payload, path, value)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    source = inputs / "channel_X0.json"
    source.write_text(json.dumps(payload))
    # with the X@0 file, a complete one-cell grid for analyze
    x = ideal_channel(GateLabel("X", (0,)))
    (inputs / "channel_X0-X0.json").write_text(
        json.dumps(channel_payload(compose(x, x), ["X@0", "X@0"], None, "0", 0))
    )
    out = str(tmp_path / "out")
    args = {
        "simulate": ["simulate", "--model", str(source), "--gates", "X", "--out", out],
        "tomo": ["tomo", "--records", str(source), "--out", out],
        "analyze": ["analyze", "--channels", str(inputs), "--samples", "100", "--out", out],
        "errors-spam": ["errors", "--model", str(source), "--gate", "X", "--out", out],
        "ptensor": ["ptensor", "--model", str(source), "--out", out],
    }[command]
    if kind == "option":
        args += [path, value]  # the last occurrence of an option wins
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "validation error" in result.output
    assert not os.path.exists(out)
    if kind != "option":
        assert str(source) in result.output
    if not path:  # the message says what the file must hold
        assert "must hold a JSON object" in result.output
    if path == "schema":  # the message names the found and the expected tag
        assert value in result.output
        assert f"gatemem.{source_kind}/{SCHEMA_VERSION}" in result.output
    if path == "grammar_version":  # and the found and the expected grammar
        assert f"version {value}, expected {LABEL_GRAMMAR_VERSION}" in result.output
    if path == "--eps-grid" and value in BAD_STRENGTHS:  # it names the grid, not a model field
        assert ("strength grid: every strength must be finite and non-negative,"
                f" got {BAD_STRENGTHS[value]}") in result.output
        assert "spam" not in result.output


#: the first strength of each malformed --eps-grid above outside [0, inf)
BAD_STRENGTHS = {"0,nan,1e-3": "nan", "0,1e-3,inf": "inf", "0,1e-3,-inf": "-inf",
                 "0,nan,1e-3,1e-2": "nan", "0,-1e-3,1e-3,1e-2": "-0.001"}


@pytest.mark.parametrize("entry", ["counts-as-pairs", "record-as-key-list"])
def test_records_entry_that_is_not_an_object_exits_2_and_names_it(runner, model_file, tmp_path,
                                                                   entry):
    # dict() takes a list of [key, value] pairs, and a list of the key names
    # passes a test for missing keys by membership: both are refused by type
    payload = _valid_payload("records", model_file)
    if entry == "counts-as-pairs":
        counts = payload["records"][0]["counts"]
        payload["records"][0]["counts"] = [[key, value] for key, value in counts.items()]
        message = "record 0: 'counts' must be a JSON object"
    else:
        payload["records"][2] = ["prep", "meas", "counts", "shots"]
        message = "record 2: must be a JSON object"
    source = tmp_path / "records.json"
    source.write_text(json.dumps(payload))
    out = tmp_path / "out"
    result = runner.invoke(main, ["tomo", "--records", str(source), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"records file {source}: {message}" in result.output
    assert not out.exists()


#: A valid model that sets every key a model file may hold
MUTATION_MODEL = {
    "gates": ["X"], "sys_qubits": 1, "coupling": 0.55, "env_omega": 0.7,
    "reset_policy": "persistent", "durations": {"X": 1.0},
    "env_initial": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
    "spam": {"prep": 0.01, "meas": 0.01, "seed": 0},
}

#: Each JSON path of a valid input is set to each of these in turn, or deleted
MUTANT_VALUES = [None, True, -1, 0, 3, 10**15, 1.5, 1e308, math.nan, "x", "", [], [1], {},
                 {"x": 1}]

#: Fields whose entries are matrix entries.  The loaders take an entry at
#: any finite magnitude, so a huge one is left out of their mutations: it
#: overflows later, in the analysis, not in the loader.
MATRIX_FIELDS = ("superop/", "env_initial/")


def _json_paths(node, prefix=""):
    """Every path of a JSON document, the root ``""`` first; of a list,
    only the paths through its first element."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:1])
    else:
        return
    for key, child in children:
        yield from _json_paths(child, f"{prefix}/{key}" if prefix else str(key))


def _mutants(payload):
    """(label, mutated copy) of ``payload`` for each path and value."""
    for path in _json_paths(payload):
        if path:
            deleted = json.loads(json.dumps(payload))
            _remove(deleted, path)
            yield f"{path} deleted", deleted
        for value in MUTANT_VALUES:
            if value == 1e308 and path.startswith(MATRIX_FIELDS):
                continue
            yield f"{path}={value!r}", _set(json.loads(json.dumps(payload)), path, value)


def test_every_mutated_input_is_refused_by_name_or_runs(runner, model_file, tmp_path):
    # each field of a valid model, records and channel file set to a value of
    # the wrong type, shape or range: the loader returns or raises a package
    # error naming the file, and a command on it exits 0, 2, 3 or 4, writing
    # nothing unless it succeeds
    x = ideal_channel(GateLabel("X", (0,)))
    valid = {"model": MUTATION_MODEL, "records": _valid_payload("records", model_file),
             "channel": _valid_payload("channel", model_file)}
    short_rows = json.loads(json.dumps(valid["channel"]))
    short_rows["superop"] = [row[:-1] for row in short_rows["superop"]]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "channel_X0-X0.json").write_text(
        json.dumps(channel_payload(compose(x, x), ["X@0", "X@0"], None, "0", 0)))
    source = inputs / "channel_X0.json"
    out = tmp_path / "out"
    loaders = {"model": load_model, "records": load_records,
               "channel": lambda path: load_channel_dir(os.path.dirname(path))}
    commands = {
        "model": ["simulate", "--model", str(source), "--gates", "X", "--shots", "10"],
        "records": ["tomo", "--records", str(source)],
        "channel": ["scan", "--channels", str(inputs), "--nmax", "2", "--samples", "10"],
    }
    cases = [(kind, label, mutant) for kind in valid for label, mutant in _mutants(valid[kind])]
    cases.append(("channel", "rows one entry short", short_rows))
    failures = []
    for kind, label, mutant in cases:
        source.write_text(json.dumps(mutant))
        try:
            loaders[kind](str(source))
        except GatememError as err:
            if str(source) not in str(err):
                failures.append((kind, label, f"unnamed: {err}"))
        except Exception as err:  # any other type escaping the loader is the failure
            failures.append((kind, label, f"{type(err).__name__}: {err}"))
        result = runner.invoke(main, [*commands[kind], "--out", str(out / "o.json")])
        if result.exit_code not in (0, 2, 3, 4):
            failures.append((kind, label, f"exit {result.exit_code}: {result.exception!r}"))
        elif result.exit_code and out.exists():
            failures.append((kind, label, f"exit {result.exit_code} wrote {os.listdir(out)}"))
        if out.exists():
            shutil.rmtree(out)
    assert len(cases) > 500
    assert failures == []


@pytest.mark.parametrize("run", ["ptensor-two-qubit-model", "scan-mixed-dimensions"])
def test_valid_input_the_run_cannot_use_exits_2(runner, tmp_path, run):
    # the process-encoding circuit drives one qubit, and a scan compares
    # maps of one dimension
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"sys_qubits": 2, "gates": ["S", "T"]}))
    x1, x2 = (ideal_channel(GateLabel("X", (0,)), n) for n in (1, 2))
    _write_channels(tmp_path / "chan", {("X@0",): x1, ("X@0", "X@0"): compose(x2, x2)})
    out = tmp_path / "out"
    args, reason = {
        "ptensor-two-qubit-model": (["ptensor", "--model", str(model), "--gates", "S,T"],
                                    "single-qubit model"),
        "scan-mixed-dimensions": (["scan", "--channels", str(tmp_path / "chan"), "--nmax", "2",
                                   "--samples", "10"], "dimension mismatch: 4 vs 2"),
    }[run]
    result = runner.invoke(main, [*args, "--out", str(out / "o.json")])
    assert result.exit_code == 2, result.output
    assert reason in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_channel_entry_beyond_the_bound_exits_2_and_names_the_file(runner, model_file, tmp_path,
                                                                  command):
    # a 1e308 entry is finite, but the product of two maps holding it is not
    rec, chan = tmp_path / "rec", tmp_path / "chan"
    _invoke(runner, ["simulate", "--model", model_file, "--gates", "X;X,X", "--exact",
                     "--out", str(rec)])
    for slug in ("X0", "X0-X0"):
        _invoke(runner, ["tomo", "--records", str(rec / f"records_{slug}.json"),
                         "--out", str(chan / f"channel_{slug}.json")])
    bad = chan / "channel_X0.json"
    payload = load_json(str(bad))
    payload["superop"][0][0][0] = 1e308
    bad.write_text(json.dumps(payload))
    args = {"scan": ["scan", "--nmax", "2"], "analyze": ["analyze"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [*args, "--channels", str(chan), "--samples", "10",
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"channel file {bad}: superop entries must be at most 1e+06" in result.output
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metric", ["avg", "diamond"])
def test_a_failing_analysis_cell_exits_2_and_is_named(runner, model_file, tmp_path, metric):
    # a one-gate map scaled by 1e-300 passes the load checks and invert's
    # relative threshold, but its conditioned map fails the Choi check
    rec, chan = tmp_path / "rec", tmp_path / "chan"
    _invoke(runner, ["simulate", "--model", model_file, "--gates", "X;X,X", "--shots", "10000",
                     "--seed", "7", "--out", str(rec)])
    for slug in ("X0", "X0-X0"):
        _invoke(runner, ["tomo", "--records", str(rec / f"records_{slug}.json"),
                         "--out", str(chan / f"channel_{slug}.json")])
    scaled = chan / "channel_X0.json"
    payload = load_json(str(scaled))
    payload["superop"] = (np.array(payload["superop"]) * 1e-300).tolist()
    scaled.write_text(json.dumps(payload))
    result = runner.invoke(main, ["analyze", "--channels", str(chan), "--metric", metric,
                                  "--samples", "10", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "validation error: cp cell X@0,X@0: Choi matrix is not Hermitian" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [float("inf"), float("nan")])
def test_non_finite_count_of_sampled_records_exits_2(runner, model_file, tmp_path, count):
    # the rows above read exact-mode records; sampled counts must be integers
    payload = _valid_payload("records", model_file)
    for entry in payload["records"]:
        entry["shots"], entry["counts"] = 10, {"0": 10, "1": 0}
    payload["records"][0]["counts"]["0"] = count
    source = tmp_path / "records_X0.json"
    source.write_text(json.dumps(payload))
    result = runner.invoke(main, ["tomo", "--records", str(source), "--out",
                                  str(tmp_path / "channel_X0.json")])
    assert result.exit_code == 2, result.output
    assert str(source) in result.output


@pytest.mark.parametrize("shots, counts", [(10, {"0": True, "1": 9}), (10.0, {"0": 10, "1": 0}),
                                          (True, {"0": 1, "1": 0})])
def test_sampled_counts_and_shots_are_integers_not_booleans(runner, model_file, tmp_path,
                                                            shots, counts):
    payload = _valid_payload("records", model_file)
    for entry in payload["records"]:
        entry["shots"], entry["counts"] = shots, dict(counts)
    source = tmp_path / "records_X0.json"
    source.write_text(json.dumps(payload))
    out = tmp_path / "channel_X0.json"
    result = runner.invoke(main, ["tomo", "--records", str(source), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert str(source) in result.output
    assert not out.exists()


@pytest.mark.parametrize("dim, message", [
    (3, "'dim' must be a power of two, got 3"),
    (8, "the width of 'dim' 8 must be 1 or 2, got 3"),
])
def test_channel_grid_of_an_unsupported_dimension_exits_2(runner, tmp_path, dim, message):
    # channel files are one- or two-qubit maps, dim 2 or 4, as the frames are
    unit = QuantumChannel(np.eye(dim * dim))
    _write_channels(tmp_path / "chan", {("X@0",): unit, ("Z@0",): unit, ("X@0", "Z@0"): unit})
    out = tmp_path / "out"
    result = runner.invoke(main, ["analyze", "--channels", str(tmp_path / "chan"),
                                  "--samples", "10", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"channel file {tmp_path / 'chan'}" in result.output
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["tomo", "errors"])
@pytest.mark.parametrize("edit", ["appended-prep", "one-exact-record", "repeated-record",
                                  "missing-record", "mixed-shot-counts"])
def test_sampled_records_outside_the_frame_or_mode_exit_2(runner, model_file, tmp_path,
                                                          command, edit):
    # records of an unknown preparation appended to a sampled file, one
    # exact record among sampled ones, a configuration given twice or not
    # at all, or one record at twice the others' shot count: none may be
    # dropped, take the mode or shot count of the first record or go unnamed
    payload = _valid_payload("records", model_file)
    for entry in payload["records"]:
        entry["shots"], entry["counts"] = 10, {"0": 5, "1": 5}
    config = "{prep}/{meas}".format(**payload["records"][4])
    if edit == "appended-prep":
        payload["records"] += [dict(entry, prep="Q+") for entry in payload["records"]
                               if entry["prep"] == "Z+"]
    elif edit == "one-exact-record":
        payload["records"][0].update(shots=None, counts={"0": 0.5, "1": 0.5})
    elif edit == "repeated-record":
        payload["records"].append(dict(payload["records"][4]))
    elif edit == "mixed-shot-counts":
        payload["records"][0].update(shots=20, counts={"0": 10, "1": 10})
    else:
        del payload["records"][4]
    source = tmp_path / "records_X0.json"
    source.write_text(json.dumps(payload))
    out = str(tmp_path / "out.json")
    args = {"tomo": ["tomo", "--records", str(source), "--out", out],
            "errors": ["errors", "--records", str(source), "--trials", "2", "--out", out]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "validation error" in result.output
    assert str(source) in result.output
    assert not os.path.exists(out)
    if edit == "repeated-record":
        assert f"repeats configurations ['{config}']" in result.output
    if edit == "one-exact-record":
        assert "mixes exact-mode records (shots null) with sampled ones" in result.output
    if edit == "mixed-shot-counts":
        assert "mixes shot counts [10, 20]" in result.output
    if edit == "missing-record":
        assert f"missing: ['{config}']" in result.output


@pytest.mark.parametrize("field", ["coupling", "env_omega", "durations/X", "spam/prep",
                                   "spam/meas", "sys_qubits"])
def test_unusable_model_scalar_is_named(runner, model_file, tmp_path, field):
    # ptensor, which the rows above do not run, reads the model with the same loader
    payload = load_json(model_file)
    payload["durations"] = {"X": 1.0}
    source = tmp_path / "model_bad.json"
    source.write_text(json.dumps(_set(payload, field, 0 if field == "sys_qubits" else math.nan)))
    result = runner.invoke(main, ["ptensor", "--model", str(source), "--gates", "X,Z",
                                  "--exact", "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, result.output
    assert str(source) in result.output
    assert f"'{field.replace('/', '.')}'" in result.output


@pytest.mark.parametrize("field, value, named", [
    ("spam/seed", -5, "'spam.seed'"),
    ("durations", {"Q": 1.0}, "'durations.Q'"),
    ("env_initial", [[[1, 0]]], "'env_initial'"),
    ("couplng", 0.0, "'couplng'"),
    ("spam/sead", 3, "'spam.sead'"),
    # model numbers are JSON numbers, not strings or booleans
    ("coupling", "0.55", "'coupling'"),
    ("coupling", True, "'coupling'"),
    ("env_omega", "0.7", "'env_omega'"),
    ("durations", {"X": True}, "'durations.X'"),
    ("spam/prep", "0.01", "'spam.prep'"),
    ("gates", ["X@-1"], "X@-1"),
    ("spam", "meas", "'spam' must be an object"),
])
def test_unusable_model_field_is_named(runner, tmp_path, field, value, named):
    source = tmp_path / "model_bad.json"
    source.write_text(json.dumps(_set({"gates": ["X"], "spam": {"prep": 0.01}}, field, value)))
    result = runner.invoke(main, ["simulate", "--model", str(source), "--gates", "X",
                                  "--exact", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert str(source) in result.output
    assert named in result.output


@pytest.mark.parametrize("kind, command", [("records", "tomo"), ("channel", "analyze")])
def test_file_without_schema_tag_is_accepted(runner, model_file, tmp_path, kind, command):
    payload = _valid_payload(kind, model_file)
    del payload["schema"]  # as a hand-written file
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    source = inputs / "channel_X0.json"
    source.write_text(json.dumps(payload))
    x = ideal_channel(GateLabel("X", (0,)))
    (inputs / "channel_X0-X0.json").write_text(
        json.dumps(channel_payload(compose(x, x), ["X@0", "X@0"], None, "0", 0))
    )
    out = str(tmp_path / "out")
    args = {
        "tomo": ["tomo", "--records", str(source), "--out", out],
        "analyze": ["analyze", "--channels", str(inputs), "--samples", "100", "--out", out],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_records_without_grammar_version_are_accepted(runner, model_file, tmp_path):
    payload = _valid_payload("records", model_file)
    del payload["grammar_version"]  # as a hand-written file
    source = tmp_path / "records.json"
    source.write_text(json.dumps(payload))
    result = runner.invoke(main, ["tomo", "--records", str(source),
                                  "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 0, result.output


#: (command, option, value): a negative seed or shot count is refused
#: before any input is read; an option that the chosen mode does not read
#: (one of the other ``errors`` mode, a shot count of an exact run, a
#: diamond scan's sample count) is refused after the inputs are read, and
#: before any work or write
NEGATIVE_OPTIONS = [
    ("simulate", "--seed", "-1"),
    ("simulate", "--shots", "-5"),
    ("simulate", "--shots", "0"),
    ("analyze", "--seed", "-1"),
    ("analyze", "--samples", "-7"),
    ("scan", "--seed", "-1"),
    ("scan", "--samples", "-7"),
    ("ptensor", "--seed", "-1"),
    ("ptensor", "--shots", "-3"),
    ("ptensor", "--shots", "0"),
    ("errors-records", "--seed", "-1"),
    ("errors-spam", "--seed", "-1"),
    ("scan", "--nmax", "1"),
    ("scan", "--nmax", "0"),
    ("errors-records", "--trials", "1"),
    ("errors-records", "--gate", "X"),
    ("errors-records", "--eps-grid", "nonsense"),
    ("errors-spam", "--trials", "7"),
    ("errors-spam", "--trials", "200"),  # given, though it is the default
    ("ptensor-exact", "--shots", "5"),
    ("simulate-exact", "--shots", "5"),
    ("scan-diamond", "--samples", "7"),
]


@pytest.mark.parametrize("command, option, value", NEGATIVE_OPTIONS,
                         ids=[f"{c}{o}={v}" for c, o, v in NEGATIVE_OPTIONS])
def test_negative_option_exits_2(runner, model_file, tmp_path, command, option, value):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    x = ideal_channel(GateLabel("X", (0,)))
    # a one-cell grid for analyze that is also the X, X.X scan for --nmax 2
    (inputs / "channel_X0.json").write_text(
        json.dumps(channel_payload(x, ["X@0"], None, "0", 0)))
    (inputs / "channel_X0-X0.json").write_text(
        json.dumps(channel_payload(compose(x, x), ["X@0", "X@0"], None, "0", 0)))
    records = tmp_path / "records.json"
    records.write_text(json.dumps(_valid_payload("records", model_file)))
    out = str(tmp_path / "out")
    args = {
        "simulate": ["simulate", "--model", model_file, "--gates", "X", "--out", out],
        "analyze": ["analyze", "--channels", str(inputs), "--samples", "100", "--out", out],
        "scan": ["scan", "--channels", str(inputs), "--nmax", "2", "--samples", "100",
                 "--out", out],
        "scan-diamond": ["scan", "--channels", str(inputs), "--nmax", "2", "--metric", "diamond",
                         "--out", out],
        "ptensor": ["ptensor", "--model", model_file, "--shots", "100", "--out", out],
        "simulate-exact": ["simulate", "--model", model_file, "--gates", "X", "--exact",
                           "--out", out],
        "ptensor-exact": ["ptensor", "--model", model_file, "--exact", "--out", out],
        "errors-records": ["errors", "--records", str(records), "--trials", "2", "--out", out],
        "errors-spam": ["errors", "--model", model_file, "--gate", "X", "--out", out],
    }[command]
    result = runner.invoke(main, args + [option, value])  # the last occurrence wins
    assert result.exit_code == 2, result.output
    assert f"'{option}'" in result.output
    assert not os.path.exists(out)


#: Each command mode with every option it takes given on the command line,
#: ``--out`` aside; ``{model}``, ``{records}`` and ``{channels}`` name inputs
READ_MODES = {
    "simulate": ["simulate", "--model", "{model}", "--gates", "X", "--shots", "100",
                 "--seed", "1"],
    "simulate-exact": ["simulate", "--model", "{model}", "--gates", "X", "--exact",
                       "--seed", "1"],
    "tomo": ["tomo", "--records", "{records}"],
    "analyze": ["analyze", "--channels", "{channels}", "--samples", "100", "--seed", "1"],
    "scan": ["scan", "--channels", "{channels}", "--nmax", "2", "--samples", "100",
             "--seed", "1"],
    "scan-diamond": ["scan", "--channels", "{channels}", "--nmax", "2", "--metric", "diamond",
                     "--seed", "1"],
    "ptensor": ["ptensor", "--model", "{model}", "--gates", "X,Z", "--shots", "100",
                "--seed", "1"],
    "ptensor-exact": ["ptensor", "--model", "{model}", "--gates", "X,Z", "--exact",
                      "--seed", "1"],
    "errors-records": ["errors", "--records", "{records}", "--trials", "2", "--seed", "1"],
    "errors-model": ["errors", "--model", "{model}", "--gate", "X", "--eps-grid", "0,1e-3,1e-2",
                     "--seed", "1"],
}

#: A second valid value of every option; a flag is toggled instead
SECOND_VALUES = {
    "--model": "{model2}", "--gates": "Z,X", "--shots": "200", "--seed": "2",
    "--records": "{records2}", "--channels": "{channels2}", "--metric": "both",
    "--samples": "200", "--pair": "X,X", "--nmax": "3", "--trials": "3", "--gate": "Z",
    "--eps-grid": "0,1e-3,3e-2",
}

#: Runs that draw nothing, whose --seed must leave every byte unchanged
DRAW_NOTHING = {"simulate-exact", "scan-diamond", "ptensor-exact", "errors-model"}


def _changed(args, param):
    """``args`` with the option ``param`` moved to its second value."""
    flag = param.opts[0]
    if param.is_flag:
        return [a for a in args if a != flag] if flag in args else args + [flag]
    if flag in args:
        at = args.index(flag) + 1
        return args[:at] + [SECOND_VALUES[flag]] + args[at + 1:]
    return args + [flag, SECOND_VALUES[flag]]


@pytest.mark.parametrize("mode", sorted(READ_MODES))
def test_no_option_is_silently_ignored(runner, model_file, tmp_path, mode):
    # every option but --out, moved to a second value, is refused by name
    # or moves the config hash; an option added without a declaration in
    # its command fails here
    spec = json.loads(open(model_file).read())
    (tmp_path / "model2.json").write_text(json.dumps({**spec, "coupling": 0.3}))
    _invoke(runner, ["simulate", "--model", model_file, "--gates", "X;Z", "--shots", "100",
                     "--out", str(tmp_path / "rec")])
    x = ideal_channel(GateLabel("X", (0,)))
    rng = np.random.default_rng(0)
    _write_channels(tmp_path / "chan", {("X@0",) * n: x for n in (1, 2, 3)})
    _write_channels(tmp_path / "chan2", {("X@0",) * n: random_channel(2, rng)
                                         for n in (1, 2, 3)})
    paths = {"model": model_file, "model2": str(tmp_path / "model2.json"),
             "records": str(tmp_path / "rec" / "records_X0.json"),
             "records2": str(tmp_path / "rec" / "records_Z0.json"),
             "channels": str(tmp_path / "chan"), "channels2": str(tmp_path / "chan2")}

    def run(args, name):
        out = tmp_path / name
        args = [a.format(**paths) for a in args] + ["--out", str(out / "o.json")]
        result = runner.invoke(main, args)
        tree = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return result, tree

    base_args = READ_MODES[mode]
    result, base = run(base_args, "base")
    assert result.exit_code == 0, result.output
    base_hash = {json.loads(b)["config_hash"] for p, b in base.items() if p.suffix == ".json"}
    for param in main.commands[base_args[0]].params:
        flag = param.opts[0]
        if flag == "--out":
            continue
        result, tree = run(_changed(base_args, param), flag.strip("-"))
        if flag == "--seed" and mode in DRAW_NOTHING:
            assert result.exit_code == 0, result.output
            assert tree == base, flag
        elif flag == "--exact" and mode == "ptensor-exact":
            # without --shots, ptensor takes exact reference maps anyway
            assert tree == base, flag
        elif result.exit_code == 2:
            named = re.findall(r"'(--[a-z-]+)'", result.output.split("does not read")[-1])
            assert named and set(named) <= set(_changed(base_args, param)), result.output
            assert not tree, flag
        else:
            assert result.exit_code == 0, (flag, result.output)
            hashes = {json.loads(b)["config_hash"] for p, b in tree.items() if p.suffix == ".json"}
            assert hashes and hashes.isdisjoint(base_hash), flag


class TestLibraryEntryPoints:
    """Each command's analysis is one library call that returns the
    numbers the command writes."""

    def test_analyze_grid_matches_analyze_files(self, runner, channel_dir, tmp_path):
        out = tmp_path / "analysis"
        _invoke(runner, [
            "analyze", "--channels", str(channel_dir), "--samples", "2000",
            "--pair", "X,Z", "--seed", "4", "--out", str(out),
        ])
        marginals, joints = load_grid(str(channel_dir))
        analysis = analyze_grid(marginals, joints, metrics=("avg",), m_samples=2000, seed=4,
                                pair=("X@0", "Z@0"))
        cvm = load_json(str(out / "cond_vs_marginal_avg.json"))
        assert cvm["values"] == analysis.cond_vs_marginal["avg"].values.tolist()
        cpv = load_json(str(out / "cp_violation.json"))
        assert cpv["values"] == analysis.cp_violation.values.tolist()
        hist = load_json(str(out / "histogram_X0_Z0.json"))
        assert hist["pair"] == list(analysis.pair) == ["X@0", "Z@0"]
        assert hist["samples"] == analysis.histogram.samples.tolist()
        assert hist["mean"] == analysis.histogram.mean
        gdm = analysis.gate_dependence[("Z@0", "avg")]
        csv = matrix_csv(gdm, cvm["config_hash"], 4)
        assert (out / "gate_dependence_Z0_avg.csv").read_text() == csv

    def test_reconstruction_uncertainty_matches_unc_json(self, runner, model_file, tmp_path):
        _invoke(runner, [
            "simulate", "--model", model_file, "--gates", "X",
            "--shots", "1024", "--seed", "3", "--out", str(tmp_path),
        ])
        path = str(tmp_path / "records_X0.json")
        out = tmp_path / "unc.json"
        _invoke(runner, ["errors", "--records", path, "--trials", "4", "--seed", "5",
                         "--out", str(out)])
        _, records = load_records(path)
        report = reconstruction_uncertainty(records, 4, np.random.default_rng(5))
        written = load_json(str(out))
        assert written["values"] == list(report.values)
        assert written["std"] == report.std
        assert written["metric"] == report.metric == "frobenius-to-point-estimate"

    def test_process_tensor_pair_matches_ptensor_json(self, runner, model_file, tmp_path):
        out = tmp_path / "pt.json"
        _invoke(runner, ["ptensor", "--model", model_file, "--gates", "X,Z",
                         "--shots", "500", "--seed", "3", "--out", str(out)])
        model, _ = load_model(model_file)
        pair = process_tensor_pair(model, GateLabel("X", (0,)), GateLabel("Z", (0,)), 500, 3)
        written = load_json(str(out))
        assert written["relative_entropy"] == pair.relative_entropy
        assert written["reference"] == encode_matrix(pair.reference)
        assert written["measured"] == encode_matrix(pair.measured)

    def test_repetitions_orders_the_runs(self):
        x = ideal_channel(GateLabel("X", (0,)))
        z = ideal_channel(GateLabel("Z", (0,)))
        xx = compose(x, x)
        channels = {("X@0",) * 2: xx, ("X@0",): x, ("Z@0",): z}
        runs = repetitions(channels, 2)
        assert len(runs) == 2 and runs[0] is x and runs[1] is xx

    def test_repetitions_rejects_mixed_longest_sequences(self):
        x = ideal_channel(GateLabel("X", (0,)))
        channels = {("X@0",): x, ("X@0", "X@0"): x, ("X@0", "Z@0"): x}
        with pytest.raises(ValidationError, match="repeat one gate"):
            repetitions(channels, 2)

    def test_repetitions_lists_missing_lengths(self):
        x = ideal_channel(GateLabel("X", (0,)))
        channels = {("X@0",): x, ("X@0",) * 3: x}
        with pytest.raises(IncompleteDataError) as excinfo:
            repetitions(channels, 3)
        assert excinfo.value.missing == ["2"]


def _write_channels(directory, channels):
    """Channel files for ``{sequence tokens: channel}``."""
    os.makedirs(directory)
    for tokens, chan in channels.items():
        slug = "-".join(t.replace("@", "") for t in tokens)
        (directory / f"channel_{slug}.json").write_text(
            json.dumps(channel_payload(chan, list(tokens), None, "0", 0)))


class TestProvenance:
    """``config_hash`` identifies the channel data an analysis read, not
    only its labels and flags."""

    @staticmethod
    def _hash(out, name):
        return load_json(str(out / name))["config_hash"]

    def test_analyze_hash_covers_channel_contents(self, runner, tmp_path, rng):
        x, z = (ideal_channel(GateLabel(n, (0,))) for n in ("X", "Z"))
        grid = {("X@0",): x, ("Z@0",): z, ("X@0", "Z@0"): compose(x, z),
                ("Z@0", "Z@0"): compose(z, z)}
        _write_channels(tmp_path / "a", grid)
        _write_channels(tmp_path / "b", {**grid, ("X@0", "Z@0"): random_channel(2, rng)})
        hashes = []
        for name in ("a", "a", "b"):
            out = tmp_path / f"out_{len(hashes)}"
            _invoke(runner, ["analyze", "--channels", str(tmp_path / name), "--samples", "100",
                             "--out", str(out)])
            hashes.append(self._hash(out, "cp_violation.json"))
            assert self._hash(out, "cond_vs_marginal_avg.json") == hashes[-1]
        assert hashes[0] == hashes[1] != hashes[2]

    def test_scan_hash_covers_channel_contents(self, runner, tmp_path, rng):
        x = ideal_channel(GateLabel("X", (0,)))
        _write_channels(tmp_path / "a", {("X@0",): x, ("X@0", "X@0"): compose(x, x)})
        _write_channels(tmp_path / "b", {("X@0",): x, ("X@0", "X@0"): random_channel(2, rng)})
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / f"scan_{name}"
            _invoke(runner, ["scan", "--channels", str(tmp_path / name), "--nmax", "2",
                             "--samples", "100", "--out", str(out)])
            hashes.append(self._hash(out, "scan.json"))
        assert hashes[0] != hashes[1]


class TestLoaders:
    def test_load_model(self, model_file):
        model, spec = load_model(model_file)
        assert spec["coupling"] == 0.55
        assert model.sys_qubits == 1

    def test_load_records(self, runner, model_file, tmp_path):
        _invoke(runner, ["simulate", "--model", model_file, "--gates", "X,Z", "--shots", "64",
                         "--out", str(tmp_path)])
        payload, records = load_records(str(tmp_path / "records_X0-Z0.json"))
        assert payload["gates"] == ["X@0", "Z@0"]
        assert payload["grammar_version"] == LABEL_GRAMMAR_VERSION
        assert len(records) == 12 and all(r.shots == 64 for r in records)
        assert {r.n_qubits for r in records} == {1}

    def test_load_channel_dir_keys_files_by_sequence(self, channel_dir):
        (channel_dir / "notes.json").write_text("{}")  # not a channel_*.json file
        channels = load_channel_dir(str(channel_dir))
        assert sorted(channels) == [("X@0",), ("X@0", "Z@0"), ("Z@0",), ("Z@0", "Z@0")]

    def test_load_grid_splits_marginals_and_joints(self, channel_dir):
        x = ideal_channel(GateLabel("X", (0,)))
        (channel_dir / "channel_X0-X0-X0.json").write_text(json.dumps(
            channel_payload(compose(x, compose(x, x)), ["X@0"] * 3, None, "0", 0)))
        marginals, joints = load_grid(str(channel_dir))
        assert sorted(marginals) == ["X@0", "Z@0"]
        assert sorted(joints) == [("X@0", "Z@0"), ("Z@0", "Z@0")]

    def test_empty_channel_dir_is_incomplete(self, tmp_path):
        with pytest.raises(IncompleteDataError) as excinfo:
            load_channel_dir(str(tmp_path))
        assert excinfo.value.missing == [str(tmp_path)]


class TestExitCodes:
    """The command group maps numerical failures to exit code 3 and I/O
    failures to 4; a file that is not JSON is named."""

    def test_singular_first_gate_map_exits_3(self, runner, tmp_path):
        x = ideal_channel(GateLabel("X", (0,)))
        _write_channels(tmp_path / "chan", {("X@0",): QuantumChannel(np.zeros((4, 4))),
                                            ("X@0", "X@0"): compose(x, x)})
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--channels", str(tmp_path / "chan"),
                                      "--samples", "50", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("numerical error")
        assert not out.exists()

    def test_a_rank_one_first_gate_map_is_named(self, runner, tmp_path):
        # rho -> tr(rho)|0><0| is vec(|0><0|) vec(I)+ in column-stacking order
        rank_one = np.zeros((4, 4))
        rank_one[0, [0, 3]] = 1.0
        x = ideal_channel(GateLabel("X", (0,)))
        _write_channels(tmp_path / "chan", {("X@0",): QuantumChannel(rank_one),
                                            ("X@0", "X@0"): compose(x, x)})
        result = runner.invoke(main, ["analyze", "--channels", str(tmp_path / "chan"),
                                      "--samples", "50", "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("numerical error: first gate X@0: superoperator is"
                                        " singular (sigma_min=0.000e+00, sigma_max=1.414e+00)")

    @pytest.mark.parametrize("content", [b'{"gates": ["X@0"], "sup', b'\xff\xfe{"gates": []}'],
                             ids=["truncated", "not-utf-8"])
    @pytest.mark.parametrize("kind", ["records", "channel", "model"])
    def test_file_that_is_not_json_exits_4_and_is_named(self, runner, tmp_path, kind, content):
        bad = tmp_path / "in" / f"{kind}_X0.json"
        bad.parent.mkdir()
        bad.write_bytes(content)
        out = tmp_path / "out"
        args = {
            "records": ["tomo", "--records", str(bad), "--out", str(out / "channel.json")],
            "channel": ["analyze", "--channels", str(bad.parent), "--out", str(out)],
            "model": ["simulate", "--model", str(bad), "--gates", "X", "--out", str(out)],
        }[kind]
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.output.startswith("i/o error")
        assert str(bad) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "tomo"])
    def test_out_beneath_a_regular_file_exits_4(self, runner, model_file, tmp_path, command):
        _invoke(runner, ["simulate", "--model", model_file, "--gates", "X", "--exact",
                         "--out", str(tmp_path / "rec")])
        regular = tmp_path / "regular"
        regular.write_text("")
        args = {
            "simulate": ["simulate", "--model", model_file, "--gates", "X", "--exact"],
            "tomo": ["tomo", "--records", str(tmp_path / "rec" / "records_X0.json")],
        }[command]
        result = runner.invoke(main, [*args, "--out", str(regular / "out")])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("i/o error")
        assert str(regular) in result.output


@pytest.mark.parametrize("command", [[], *([name] for name in sorted(main.commands))],
                         ids=lambda command: command[0] if command else "group")
def test_help_exits_0(runner, command):
    # option defaults bind at import, and analyze/scan take theirs from qcore
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("Usage: ")


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory):
    """The rerun rows' inputs, built once in process: a reset_each_gate
    X/Z model, a SPAM-kicked X/H model, and the 1,000-shot records and
    channels of the X@1/CX@1.0 grid."""
    root = tmp_path_factory.mktemp("rerun_inputs")
    models = {
        "reset_xz": {"gates": ["X", "Z"], "reset_policy": "reset_each_gate"},
        "spam": {"sys_qubits": 1, "gates": ["X", "H"], "spam": {"prep": 0.01, "meas": 0.02}},
        "cx": {"sys_qubits": 2, "gates": ["X@1", "CX@1.0"]},
    }
    paths = {}
    for name, spec in models.items():
        paths[name] = str(root / f"model_{name}.json")
        Path(paths[name]).write_text(json.dumps(spec))
    runner = CliRunner()
    _invoke(runner, ["simulate", "--model", paths["cx"], "--gates",
                     "X@1;CX@1.0;X@1,X@1;X@1,CX@1.0;CX@1.0,X@1;CX@1.0,CX@1.0",
                     "--shots", "1000", "--seed", "7", "--out", str(root / "rec")])
    for records in sorted((root / "rec").iterdir()):
        _invoke(runner, ["tomo", "--records", str(records), "--out",
                         str(root / "chan" / records.name.replace("records_", "channel_"))])
    return {**paths, "records_cx": str(root / "rec" / "records_CX10.json"),
            "channels_cx": str(root / "chan")}


#: Runs that write the same bytes under every hash seed; ``{name}`` names
#: an input of ``rerun_inputs``, and every output lands under ``out``
RERUNS = {
    "ptensor-reset-each-gate": ["ptensor", "--model", "{reset_xz}", "--gates", "X,Z",
                                "--exact", "--out", "out/ptensor.json"],
    "tomo-cx": ["tomo", "--records", "{records_cx}", "--out", "out/channel_CX10.json"],
    "errors-records-cx": ["errors", "--records", "{records_cx}", "--trials", "5",
                          "--seed", "7", "--out", "out/unc.json"],
    "simulate-spam": ["simulate", "--model", "{spam}", "--gates", "X;H;X,H",
                      "--shots", "1000", "--seed", "7", "--out", "out"],
    "simulate-spam-exact": ["simulate", "--model", "{spam}", "--gates", "X;H;X,H",
                            "--exact", "--seed", "7", "--out", "out"],
    "analyze-cx-scaled": ["analyze", "--channels", "{channels_cx}", "--metric", "both",
                          "--scale-figure", "--samples", "500", "--seed", "7", "--out", "out"],
}


@pytest.mark.parametrize("row", sorted(RERUNS))
def test_rerun_under_another_hash_seed_is_byte_identical(rerun_inputs, tmp_path, row):
    # criterion 10's processes each draw a random hash seed, so a result
    # that follows the order of a set of strings fails there only by
    # chance; hash seeds 1 and 2 order such sets differently
    args = [a.format(**rerun_inputs) for a in RERUNS[row]]
    runs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash_seed_{hash_seed}"
        cwd.mkdir()
        proc = fresh_python(["-m", "gatemem.cli", *args], cwd, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        tree = {p.relative_to(cwd): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((proc.stdout, proc.stderr, tree))
    assert runs[0][2], "the run wrote nothing"
    assert runs[0] == runs[1]
    if row == "analyze-cx-scaled":  # a CX target's matrix names both of its scalings
        header = runs[0][2][Path("out/gate_dependence_CX10_diamond.csv")].split(b"\n")[0]
        assert b" scaling=diamond/4|x2-two-qubit-target " in header
