"""Import cost of the command line: ``import gatemem`` loads no
submodule, and each command loads only the modules it runs.

Both checks run in fresh interpreters, because this test session has
long since imported every module.  The command runs go through
``python -c`` + ``runpy``, as the benchmark's ``CLI_MAIN`` launches
them, and report ``sys.modules`` at exit.
"""

import json

import pytest

import gatemem
from gatemem.channels import GateLabel, compose
from gatemem.pipeline import simulate_records
from gatemem.serialize import channel_payload, dump_json, write_records
from gatemem.simulator import build_default_model, sample_counts

from conftest import fresh_python, ideal_channel

#: What every command loads: the shell, its file formats, and the
#: reconstruction chain.
COMMON = {"channels", "exceptions", "pipeline", "qcore", "serialize", "tomography"}

#: Modules beyond ``COMMON`` that each command loads.
BEYOND_COMMON = {
    "tomo": set(),
    "simulate": {"simulator"},
    "analyze": {"avgdist", "nonmarkov", "sdp"},
    "scan": {"avgdist", "nonmarkov", "sdp"},
    "ptensor": {"simulator", "process"},
    "errors-records": {"errprop"},
    "errors-model": {"errprop", "simulator"},
}

CLI_PROGRAM = """\
import atexit, runpy, sys
def _loaded():
    with open({out!r}, "w") as handle:
        handle.write("\\n".join(m for m in sys.modules if m.startswith("gatemem.")))
atexit.register(_loaded)
runpy.run_module("gatemem.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A model, a finite-shot records file, and a one-cell channel grid
    that also serves as a scan to n = 2."""
    root = tmp_path_factory.mktemp("inputs")
    x = GateLabel("X", (0,))
    (root / "model.json").write_text(json.dumps({"gates": ["X"]}))
    model = build_default_model([x])
    write_records(str(root), [x], simulate_records(model, [x], 200, seed=7), "0", 7)
    ideal = ideal_channel(x)
    dump_json(str(root / "channels" / "channel_X0.json"),
              channel_payload(ideal, ["X@0"], None, "0", 0))
    dump_json(str(root / "channels" / "channel_X0-X0.json"),
              channel_payload(compose(ideal, ideal), ["X@0", "X@0"], None, "0", 0))
    return root


def _command_args(case, inputs, out):
    model, records, channels = (str(inputs / "model.json"), str(inputs / "records_X0.json"),
                                str(inputs / "channels"))
    return {
        "tomo": ["tomo", "--records", records, "--out", str(out / "channel.json")],
        "simulate": ["simulate", "--model", model, "--gates", "X", "--shots", "10",
                     "--out", str(out)],
        "analyze": ["analyze", "--channels", channels, "--samples", "50", "--out", str(out)],
        "scan": ["scan", "--channels", channels, "--nmax", "2", "--samples", "50",
                 "--out", str(out)],
        "ptensor": ["ptensor", "--model", model, "--gates", "X,X", "--exact",
                    "--out", str(out / "ptensor.json")],
        "errors-records": ["errors", "--records", records, "--trials", "2",
                           "--out", str(out / "unc.json")],
        "errors-model": ["errors", "--model", model, "--gate", "X",
                         "--out", str(out / "spam.json")],
    }[case]


@pytest.mark.parametrize("case", list(BEYOND_COMMON))
def test_command_loads_only_the_modules_it_runs(case, inputs, tmp_path):
    loaded_file = tmp_path / "loaded.txt"
    program = CLI_PROGRAM.format(out=str(loaded_file))
    proc = fresh_python(["-c", program, *_command_args(case, inputs, tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("gatemem.") for name in loaded_file.read_text().split()}
    loaded.discard("cli")  # runpy runs it as __main__
    assert loaded == COMMON | BEYOND_COMMON[case]


def test_import_gatemem_loads_no_submodule(tmp_path):
    program = """\
import sys
import gatemem
print(sorted(m for m in sys.modules if m.startswith("gatemem.")))
"""
    proc = fresh_python(["-c", program], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_attribute_still_raises():
    # a public name has one import path: its submodule
    for name in ("no_such_name", "GateLabel", "memory_scan"):
        with pytest.raises(AttributeError, match=name):
            getattr(gatemem, name)
    import gatemem.pipeline as pipeline

    assert pipeline.sample_counts is sample_counts
    with pytest.raises(AttributeError, match="no_such_name"):
        pipeline.no_such_name
