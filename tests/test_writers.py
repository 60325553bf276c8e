"""The exact text of each writer of :mod:`gatemem.serialize` on fixed
inputs.  Every float is one whose ``repr`` is the same on every platform,
so the expected text is written out here in full."""

import os

import numpy as np
import pytest

from gatemem.channels import GateLabel, QuantumChannel
from gatemem.nonmarkov import AvgDistanceResult, DistanceMatrix, GridAnalysis, MemoryScan
from gatemem.serialize import (
    atomic_write_text,
    canonical_json,
    matrix_csv,
    records_payload,
    report_payload,
    tomography_payload,
    write_analysis,
    write_records,
    write_scan,
)
from gatemem.tomography import CountRecord, TomographyResult

HASH = "0123456789abcdef"
SAMPLED = [CountRecord("Z+", "Z", {"1": 3, "0": 5}, 8, 11)]
EXACT = [CountRecord("Z+", "X", {"0": 0.5, "1": 0.5}, None)]
X, Z = GateLabel.parse("X"), GateLabel.parse("Z")

MATRIX_CSV = """\
# schema=gatemem.matrix/1 metric=diamond scaling=diamond/2 config_hash=0123456789abcdef seed=7
,Z@0
X@0,0.5
Z@0,0.3333333333333333
"""

#: Payloads of the JSON writers, as canonical JSON.
PAYLOADS = {
    "records_payload, exact, with gates": (
        '{"config_hash":"0123456789abcdef","gates":["X@0","Z@0"],"grammar_version":1,'
        '"n_qubits":1,"records":[{"counts":{"0":0.5,"1":0.5},"meas":"X","prep":"Z+",'
        '"seed":null,"shots":null}],"schema":"gatemem.records/1","seed":null}'),
    "records_payload, sampled, no gates": (
        '{"config_hash":"0123456789abcdef","grammar_version":1,"n_qubits":1,'
        '"records":[{"counts":{"0":5,"1":3},"meas":"Z","prep":"Z+","seed":11,"shots":8}],'
        '"schema":"gatemem.records/1","seed":7}'),
    "tomography_payload": (
        '{"config_hash":"0123456789abcdef","dim":2,"gates":["X@0"],"iterations":{"Z+":12},'
        '"loglik":{"Z+":-1.5},"normalization":"column-stacking","provenance":"X@0",'
        '"schema":"gatemem.channel/1","seed":7,"shots":8,"superop":[[[1.0,0.0],[0.0,0.0],'
        '[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0],[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0],'
        '[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0],[0.0,0.0],[1.0,0.0]]]}'),
    "report_payload, array field": (
        '{"config_hash":"0123456789abcdef","gates":["S@0"],"rho":[[[0.5,0.0],[0.0,0.5]],'
        '[[-0.0,-0.5],[0.5,0.0]]],"schema":"gatemem.ptensor/1","seed":null}'),
}

#: The files of ``write_analysis``, ``write_records`` and ``write_scan``
#: (the scan at seed None), by path.
FILES = {
    "analysis/cond_vs_marginal_avg.csv": """\
# schema=gatemem.matrix/1 metric=avg scaling=none config_hash=0123456789abcdef seed=7
,Z@0
X@0,0.1
""",
    "analysis/cond_vs_marginal_avg.json": """\
{
 "col_labels": [
  "Z@0"
 ],
 "config_hash": "0123456789abcdef",
 "metric": "avg",
 "row_labels": [
  "X@0"
 ],
 "scaling": [],
 "schema": "gatemem.matrix/1",
 "seed": 7,
 "values": [
  [
   0.1
  ]
 ]
}
""",
    "analysis/cp_violation.csv": """\
# schema=gatemem.matrix/1 metric=cp_violation scaling=none config_hash=0123456789abcdef seed=7
,Z@0
X@0,0.0
""",
    "analysis/cp_violation.json": """\
{
 "col_labels": [
  "Z@0"
 ],
 "config_hash": "0123456789abcdef",
 "metric": "cp_violation",
 "row_labels": [
  "X@0"
 ],
 "scaling": [],
 "schema": "gatemem.matrix/1",
 "seed": 7,
 "values": [
  [
   0.0
  ]
 ]
}
""",
    "analysis/gate_dependence_Z0_avg.csv": """\
# schema=gatemem.matrix/1 metric=avg scaling=none config_hash=0123456789abcdef seed=7
,X@0
X@0,0.0
""",
    "analysis/histogram_X0_Z0.json": """\
{
 "config_hash": "0123456789abcdef",
 "mean": 0.25,
 "pair": [
  "X@0",
  "Z@0"
 ],
 "samples": [
  0.5,
  0.0
 ],
 "schema": "gatemem.histogram/1",
 "seed": 7,
 "stderr": 0.125
}
""",
    "rec/records_X0.json": """\
{
 "config_hash": "0123456789abcdef",
 "gates": [
  "X@0"
 ],
 "grammar_version": 1,
 "n_qubits": 1,
 "records": [
  {
   "counts": {
    "0": 5,
    "1": 3
   },
   "meas": "Z",
   "prep": "Z+",
   "seed": 11,
   "shots": 8
  }
 ],
 "schema": "gatemem.records/1",
 "seed": 7
}
""",
    "scan_none/scan.json": """\
{
 "config_hash": "0123456789abcdef",
 "entries": [
  {
   "avg": 0.25,
   "diamond": 0.5,
   "m": 1,
   "n": 2
  },
  {
   "avg": 0.1,
   "diamond": 1e-17,
   "m": 1,
   "n": 3
  },
  {
   "avg": 0.125,
   "diamond": 0.6666666666666666,
   "m": 2,
   "n": 3
  }
 ],
 "n_max": 3,
 "schema": "gatemem.scan/1",
 "seed": null
}
""",
    "scan_none/scan_avg.csv": """\
# schema=gatemem.scan/1 metric=avg config_hash=0123456789abcdef seed=none
n\\m,1,2
2,0.25
3,0.1,0.125
""",
    "scan_none/scan_diamond.csv": """\
# schema=gatemem.scan/1 metric=diamond config_hash=0123456789abcdef seed=none
n\\m,1,2
2,0.5
3,1e-17,0.6666666666666666
""",
}


def _grid() -> GridAnalysis:
    def matrix(rows, cols, value, metric):
        return DistanceMatrix(rows, cols, np.array([[value]]), metric)

    return GridAnalysis(
        cp_violation=matrix(("X@0",), ("Z@0",), 0.0, "cp_violation"),
        cond_vs_marginal={"avg": matrix(("X@0",), ("Z@0",), 0.1, "avg")},
        gate_dependence={("Z@0", "avg"): matrix(("X@0",), ("X@0",), 0.0, "avg")},
        pair=("X@0", "Z@0"),
        histogram=AvgDistanceResult(0.25, 0.125, np.array([0.5, 0.0])),
    )


def test_each_writer_writes_this_text(tmp_path):
    scaled = DistanceMatrix(("X@0", "Z@0"), ("Z@0",), np.array([[0.5], [1 / 3]]), "diamond",
                            ("diamond/2",))
    assert matrix_csv(scaled, HASH, 7) == MATRIX_CSV

    payloads = {
        "records_payload, exact, with gates": records_payload(EXACT, HASH, None, [X, Z]),
        "records_payload, sampled, no gates": records_payload(SAMPLED, HASH, 7),
        "tomography_payload": tomography_payload(
            TomographyResult(QuantumChannel(np.eye(4)), {"Z+": -1.5}, {"Z+": 12}),
            ["X@0"], 8, HASH, 7),
        "report_payload, array field": report_payload(
            "ptensor", HASH, None, gates=["S@0"], rho=np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
    }
    assert {key: canonical_json(payload) for key, payload in payloads.items()} == PAYLOADS

    scan = MemoryScan(3, {(2, 1): {"avg": 0.25, "diamond": 0.5},
                          (3, 1): {"avg": 0.1, "diamond": 1e-17},
                          (3, 2): {"avg": 0.125, "diamond": 2 / 3}})
    write_analysis(str(tmp_path / "analysis"), _grid(), HASH, 7)
    write_records(str(tmp_path / "rec"), [X], SAMPLED, HASH, 7)
    write_scan(str(tmp_path / "scan_none"), scan, HASH, None)
    write_scan(str(tmp_path / "scan_7"), scan, HASH, 7)
    expected = dict(FILES)
    for path, text in FILES.items():  # the seeded scan differs only in its seed
        if path.startswith("scan_none/"):
            expected[path.replace("scan_none", "scan_7")] = text.replace(
                "seed=none", "seed=7").replace('"seed": null', '"seed": 7')
    written = {path.relative_to(tmp_path).as_posix(): path.read_text()
               for path in tmp_path.rglob("*") if path.is_file()}
    assert written == expected


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_file_takes_the_umask(tmp_path, umask, mode):
    # the file replaces an older one, as a rerun's files do
    path = tmp_path / "out.json"
    path.write_text("old\n")
    saved = os.umask(umask)
    try:
        atomic_write_text(str(path), "new\n")
    finally:
        os.umask(saved)
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(str(path), "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
