"""The README's "Library" block runs as written, in a directory that holds
the files it names, so a renamed import or call there fails this test."""

import json
import re
from pathlib import Path

from gatemem.channels import GateLabel
from gatemem.pipeline import simulate_records
from gatemem.serialize import channel_payload, dump_json, load_model, write_records
from gatemem.simulator import extract_channel

README = Path(__file__).resolve().parents[1] / "README.md"

#: The README's model file.
MODEL = {
    "sys_qubits": 1,
    "gates": ["H", "S", "T", "X", "Y", "Z"],
    "coupling": 0.55,
    "env_omega": 0.7,
    "reset_policy": "persistent",
    "spam": {"prep": 0.0, "meas": 0.0, "seed": 0},
}


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _write_exact_channels(directory: Path, model, sequences) -> None:
    for sequence in sequences:
        labels = [GateLabel.parse(token) for token in sequence]
        tokens = [str(label) for label in labels]
        slug = "-".join(token.replace("@", "") for token in tokens)
        dump_json(str(directory / f"channel_{slug}.json"),
                  channel_payload(extract_channel(model, labels), tokens, None, "0", None))


def test_library_block_runs_as_written(tmp_path, monkeypatch):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    model, _ = load_model(str(tmp_path / "model.json"))
    x = GateLabel.parse("X")
    write_records(str(tmp_path / "records"), [x], simulate_records(model, [x], 1000, seed=7),
                  "0", 7)
    _write_exact_channels(tmp_path / "channels", model, [["X"], ["Z"], ["X", "Z"]])
    _write_exact_channels(tmp_path / "scan_channels", model, [["X"] * n for n in range(1, 16)])

    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["scan"].n_max == 15
    assert namespace["scaled"].cond_vs_marginal["diamond"].scaling == ("diamond/2",)
    assert namespace["pair"].relative_entropy > 0
