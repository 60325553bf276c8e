"""JSON/CSV formats for every artifact the command line emits.

Complex matrices serialize as nested arrays of [re, im] pairs.  Every
file embeds a schema tag, the configuration hash, and the seed, and all
writes are atomic (temp file + rename) with deterministic content, so a
rerun with the same configuration is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .channels import GateLabel, QuantumChannel
from .exceptions import LabelError, ValidationError
from .nonmarkov import DistanceMatrix, MemoryScan
from .tomography import CountRecord

SCHEMA_VERSION = 1


def encode_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def decode_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _schema_tag(kind: str) -> str:
    return f"gatemem.{kind}/{SCHEMA_VERSION}"


def _meta(kind: str, cfg_hash: str, seed) -> dict:
    return {
        "schema": _schema_tag(kind),
        "config_hash": cfg_hash,
        "seed": seed,
    }


def records_payload(records, n_qubits: int, cfg_hash: str, seed) -> dict:
    payload = _meta("records", cfg_hash, seed)
    payload["n_qubits"] = n_qubits
    payload["grammar_version"] = 1
    payload["records"] = [
        {
            "prep": r.prep_label,
            "meas": r.meas_label,
            "counts": dict(sorted(r.counts.items())),
            "shots": r.shots,
            "seed": r.seed,
        }
        for r in records
    ]
    return payload


def _check_schema(payload: dict, kind: str, path: str) -> None:
    """A schema tag, when present, must name this kind at this version;
    hand-written files carry none."""
    expected = _schema_tag(kind)
    tag = payload.get("schema", expected)
    if tag != expected:
        raise ValidationError(f"{kind} file {path} has schema {tag!r}, expected {expected!r}")


def _check_gates(payload: dict, kind: str, path: str, n_qubits: int) -> None:
    """``gates``, when present, lists gate tokens on wires below ``n_qubits``."""
    gates = payload.get("gates", [])
    if not isinstance(gates, list) or not all(isinstance(tok, str) for tok in gates):
        raise ValidationError(f"{kind} file {path}: 'gates' must be a list of gate tokens")
    for tok in gates:
        try:
            gate = GateLabel.parse(tok)
        except (LabelError, ValidationError) as err:
            raise ValidationError(f"{kind} file {path}: {err}") from None
        if min(gate.qubits) < 0 or max(gate.qubits) >= n_qubits:
            raise ValidationError(
                f"{kind} file {path}: gate {tok!r} does not fit on {n_qubits} qubit(s)")


def records_from_payload(payload: dict, path: str = "<payload>") -> list[CountRecord]:
    """Count records of a records file; error messages name ``path``."""
    try:
        _check_schema(payload, "records", path)
        missing = [key for key in ("n_qubits", "records") if key not in payload]
        missing += [f"records[{i}].{key}" for i, entry in enumerate(payload.get("records", []))
                    for key in ("prep", "meas", "counts", "shots") if key not in entry]
        if missing or not payload["records"]:
            raise ValidationError(f"records file {path} is missing {missing or 'every record'}")
        _check_gates(payload, "records", path, payload["n_qubits"])
        return [
            CountRecord(
                prep_label=entry["prep"],
                meas_label=entry["meas"],
                counts=dict(entry["counts"]),
                shots=entry["shots"],
                seed=entry.get("seed"),
            )
            for entry in payload["records"]
        ]
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"records file {path} is malformed: {err}") from err


def channel_payload(
    channel: QuantumChannel, gates, shots, cfg_hash: str, seed
) -> dict:
    payload = _meta("channel", cfg_hash, seed)
    payload.update(
        {
            "dim": channel.dim,
            "normalization": "column-stacking",
            "superop": encode_matrix(channel.superop),
            "provenance": channel.provenance,
            "gates": list(gates),
            "shots": shots,
        }
    )
    return payload


def channel_from_payload(payload: dict, path: str = "<payload>") -> QuantumChannel:
    """The channel of a channel file; error messages name ``path``."""
    try:
        _check_schema(payload, "channel", path)
        normalization = payload.get("normalization")
        if normalization != "column-stacking":
            raise ValidationError(f"channel file {path}: unknown vectorization {normalization!r}")
        missing = [key for key in ("superop", "dim") if key not in payload]
        if missing:
            raise ValidationError(f"channel file {path} is missing {missing}")
        superop = decode_matrix(payload["superop"])
        if superop.shape[0] != payload["dim"] ** 2:
            raise ValidationError(f"channel file {path}: superop size disagrees with dim")
        _check_gates(payload, "channel", path, int(payload["dim"]).bit_length() - 1)
        return QuantumChannel(superop, provenance=payload.get("provenance", ""))
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"channel file {path} is malformed: {err}") from err


def _float_cell(value: float) -> str:
    return repr(float(value))


def matrix_csv(matrix: DistanceMatrix, cfg_hash: str, seed) -> str:
    lines = [
        f"# schema=gatemem.matrix/{SCHEMA_VERSION} metric={matrix.metric}"
        f" scaling={'|'.join(matrix.scaling) or 'none'}"
        f" config_hash={cfg_hash} seed={seed}"
    ]
    lines.append("," + ",".join(matrix.col_labels))
    for label, row in zip(matrix.row_labels, matrix.values):
        lines.append(label + "," + ",".join(_float_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_payload(matrix: DistanceMatrix, cfg_hash: str, seed) -> dict:
    payload = _meta("matrix", cfg_hash, seed)
    payload.update(
        {
            "metric": matrix.metric,
            "scaling": list(matrix.scaling),
            "row_labels": list(matrix.row_labels),
            "col_labels": list(matrix.col_labels),
            "values": [[float(v) for v in row] for row in matrix.values],
        }
    )
    return payload


def scan_csv(scan: MemoryScan, metric: str, cfg_hash: str, seed) -> str:
    lines = [
        f"# schema=gatemem.scan/{SCHEMA_VERSION} metric={metric}"
        f" config_hash={cfg_hash} seed={seed}"
    ]
    lines.append("n\\m," + ",".join(str(m) for m in range(1, scan.n_max)))
    for n in range(2, scan.n_max + 1):
        cells = [_float_cell(scan.entries[(n, m)][metric]) for m in range(1, n)]
        lines.append(str(n) + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def scan_payload(scan: MemoryScan, cfg_hash: str, seed) -> dict:
    payload = _meta("scan", cfg_hash, seed)
    payload["n_max"] = scan.n_max
    payload["entries"] = [
        {"n": n, "m": m, **{k: float(v) for k, v in metrics.items()}}
        for (n, m), metrics in sorted(scan.entries.items())
    ]
    return payload
