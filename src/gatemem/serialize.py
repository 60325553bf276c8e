"""Every file format of the package: the loaders of model, records and
channel files, and the writers of every artifact the command line emits.

Complex matrices serialize as nested arrays of [re, im] pairs.  Every
written file embeds a schema tag, the configuration hash, and the seed,
and all writes are atomic (temp file + rename) with deterministic
content, so a rerun with the same configuration is byte-identical.
:func:`report_payload` builds every JSON payload and ``_table_csv``
every CSV table.  Loaders reject a malformed file with
:class:`ValidationError` naming it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import tempfile
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .channels import GateLabel, QuantumChannel
from .exceptions import DimensionError, IncompleteDataError, LabelError, ValidationError
from .tomography import (
    LABEL_GRAMMAR_VERSION,
    CountRecord,
    TomographyFrame,
    TomographyResult,
    build_frame,
)

if TYPE_CHECKING:
    from .nonmarkov import DistanceMatrix, GridAnalysis, MemoryScan
    from .simulator import SEModel

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


def channel_digests(channels: dict) -> dict:
    """Content digest of each channel of ``channels``: a SHA-256 prefix
    of its superoperator's bytes, keyed as in ``channels`` with a gate
    sequence written as its tokens joined by commas (``"X@0,Z@0"``).  A
    configuration that includes them hashes the data an analysis read,
    not only its labels."""
    return {
        ",".join(map(str, key)) if isinstance(key, tuple) else str(key): hashlib.sha256(
            np.ascontiguousarray(chan.superop, dtype="<c16").tobytes()
        ).hexdigest()[:16]
        for key, chan in channels.items()
    }


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so a reader sees the old file or the new one.
    The file gets the mode ``open`` would give it, ``0o666`` less the
    umask, not the owner-only mode of the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.umask only reads the mask by setting it; the command line is single-threaded
    umask = os.umask(0o077)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_json(path: str) -> dict:
    """The JSON document in ``path``; a file that is not JSON, or not
    text, raises :class:`json.JSONDecodeError` naming the file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise json.JSONDecodeError(f"{path} is not JSON: {err.msg}", err.doc, err.pos) from None
        except UnicodeDecodeError as err:  # positioned at the first undecodable byte
            text = err.object[:err.start].decode(err.encoding, "replace")
            raise json.JSONDecodeError(f"{path} is not JSON: not {err.encoding} text", text,
                                       len(text)) from None


def _schema_tag(kind: str) -> str:
    return f"gatemem.{kind}/{SCHEMA_VERSION}"


def report_payload(kind: str, cfg_hash: str, seed, **fields) -> dict:
    """A JSON file of schema ``kind``: the configuration hash, the seed,
    and ``fields``, with array fields written as complex matrices.  Every
    JSON writer builds its payload here."""
    return {"schema": _schema_tag(kind), "config_hash": cfg_hash, "seed": seed, **{
        k: encode_matrix(v) if isinstance(v, np.ndarray) else v for k, v in fields.items()
    }}


def _slug(text: str) -> str:
    """File-name form of a label: 'CX@1.0' -> 'CX10', 'X@0,Z@0' -> 'X0_Z0'."""
    return text.replace("@", "").replace(".", "").replace(",", "_")


def records_payload(records, cfg_hash: str, seed, gates=None) -> dict:
    """A records file, on the qubits of its records' labels; ``gates``,
    when given, is the simulated sequence."""
    return report_payload(
        "records", cfg_hash, seed,
        n_qubits=records[0].n_qubits,
        grammar_version=LABEL_GRAMMAR_VERSION,
        **({} if gates is None else {"gates": [str(g) for g in gates]}),
        records=[
            {
                "prep": r.prep_label,
                "meas": r.meas_label,
                "counts": dict(sorted(r.counts.items())),
                "shots": r.shots,
                "seed": r.seed,
            }
            for r in records
        ],
    )


def records_filename(gates) -> str:
    """File name of one gate sequence's records, ``records_<sequence>.json``
    (e.g. ``records_X0-Z0.json``); distinct sequences may share one
    (``CX@11.0`` and ``CX@1.10``)."""
    return f"records_{'-'.join(_slug(str(g)) for g in gates)}.json"


def write_records(out_dir: str, gates, records, cfg_hash: str, seed) -> str:
    """Write the records of one gate sequence as :func:`records_filename`
    in ``out_dir``; returns the path."""
    path = os.path.join(out_dir, records_filename(gates))
    dump_json(path, records_payload(records, cfg_hash, seed, gates))
    return path


def _check_schema(payload: dict, kind: str, path: str) -> None:
    """The file holds a JSON object, and its schema tag, when present,
    names this kind at this version; hand-written files carry none."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{kind} file {path} must hold a JSON object")
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


def records_from_payload(payload: dict, path: str = "<payload>") -> tuple[list, TomographyFrame]:
    """The count records of a records file and the tomography frame of its
    ``n_qubits``; error messages name ``path``.  Every record takes its
    labels from that frame, all have one mode (every ``shots`` null, for
    exact, or none), and each configuration of the frame has exactly one
    record; a configuration is named ``prep/meas``."""
    try:
        _check_schema(payload, "records", path)
        version = payload.get("grammar_version", LABEL_GRAMMAR_VERSION)
        if version != LABEL_GRAMMAR_VERSION:
            raise ValidationError(
                f"records file {path} uses label grammar version {version!r}, "
                f"expected {LABEL_GRAMMAR_VERSION}")
        missing = [key for key in ("n_qubits", "records") if key not in payload]
        missing += [f"records[{i}].{key}" for i, entry in enumerate(payload.get("records", []))
                    for key in ("prep", "meas", "counts", "shots") if key not in entry]
        if missing or not payload["records"]:
            raise ValidationError(f"records file {path} is missing {missing or 'every record'}")
        try:
            frame = build_frame(payload["n_qubits"])
        except DimensionError as err:
            raise DimensionError(f"records file {path}: {err}") from None
        _check_gates(payload, "records", path, frame.n_qubits)
        records = []
        for i, entry in enumerate(payload["records"]):
            try:
                record = CountRecord(
                    prep_label=entry["prep"],
                    meas_label=entry["meas"],
                    counts=dict(entry["counts"]),
                    shots=entry["shots"],
                    seed=entry.get("seed"),
                )
            except ValidationError as err:
                raise ValidationError(f"records file {path}, record {i}: {err}") from err
            if record.prep_label not in frame.prep_labels \
                    or record.meas_label not in frame.meas_labels:
                raise ValidationError(
                    f"records file {path}, record {i}: prep {record.prep_label!r} or meas"
                    f" {record.meas_label!r} is not in the {frame.n_qubits}-qubit frame")
            records.append(record)
        if len({r.shots is None for r in records}) > 1:
            raise ValidationError(
                f"records file {path} mixes exact-mode records (shots null) with sampled ones")
        configs = Counter(f"{r.prep_label}/{r.meas_label}" for r in records)
        repeated = sorted(config for config, n in configs.items() if n > 1)
        if repeated:
            raise ValidationError(f"records file {path} repeats configurations {repeated}")
        missing = [f"{p}/{m}" for p in frame.prep_labels for m in frame.meas_labels
                   if f"{p}/{m}" not in configs]
        if missing:
            raise IncompleteDataError(
                f"records file {path} is missing configurations {missing}", missing)
        return records, frame
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"records file {path} is malformed: {err}") from err


def load_records(path: str) -> tuple[dict, list[CountRecord], TomographyFrame]:
    """A records file as (payload, records, tomography frame)."""
    payload = load_json(path)
    return (payload, *records_from_payload(payload, path))


def _finite(value, field: str) -> float:
    """``value`` as a finite float; ``nan`` and ``inf`` name ``field``."""
    number = float(value)
    if not math.isfinite(number):
        raise ValidationError(f"'{field}' must be finite, got {number}")
    return number


def load_model(path: str) -> tuple[SEModel, dict]:
    """A model file as (simulator model, the file's specification).  A key
    the model does not read, at the top level or in ``spam``, is an error."""
    from .simulator import DEFAULT_COUPLING, SpamSpec, build_default_model

    spec = load_json(path)
    if not isinstance(spec, dict) or not isinstance(spec.get("gates"), list):
        raise ValidationError(f"model file {path} has no 'gates' list")
    spam_cfg = spec.get("spam", {})
    unknown = sorted(set(spec) - {"gates", "coupling", "reset_policy", "sys_qubits",
                                  "env_omega", "durations", "env_initial", "spam"})
    if isinstance(spam_cfg, dict):
        unknown += [f"spam.{key}" for key in sorted(set(spam_cfg) - {"prep", "meas", "seed"})]
    if unknown:
        raise ValidationError(f"model file {path} has unknown keys {unknown}")
    try:
        spam = SpamSpec(
            prep_strength=_finite(spam_cfg.get("prep", 0.0), "spam.prep"),
            meas_strength=_finite(spam_cfg.get("meas", 0.0), "spam.meas"),
            seed=spam_cfg.get("seed", 0),
        )
        durations = spec.get("durations")
        for name, value in dict(durations or {}).items():
            _finite(value, f"durations.{name}")
        env_initial = None
        if "env_initial" in spec:
            env_initial = decode_matrix(spec["env_initial"])
            if not np.isfinite(env_initial).all():
                raise ValidationError("'env_initial' must be finite")
        model = build_default_model(
            labels=spec["gates"],
            coupling=_finite(spec.get("coupling", DEFAULT_COUPLING), "coupling"),
            reset_policy=spec.get("reset_policy", "persistent"),
            sys_qubits=spec.get("sys_qubits"),
            env_omega=_finite(spec.get("env_omega", 0.7), "env_omega"),
            durations=durations,
            env_initial=env_initial,
            spam=spam,
        )
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"model file {path} is malformed: {err}") from err
    except (ValidationError, DimensionError) as err:
        raise type(err)(f"model file {path}: {err}") from err
    return model, spec


def channel_payload(
    channel: QuantumChannel, gates, shots, cfg_hash: str, seed
) -> dict:
    """A channel file of ``channel``, the map of the gate tokens ``gates``;
    its ``provenance`` label is the tokens joined by ``+``."""
    return report_payload(
        "channel", cfg_hash, seed,
        dim=channel.dim,
        normalization="column-stacking",
        superop=channel.superop,
        provenance="+".join(gates),
        gates=list(gates),
        shots=shots,
    )


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
        if not np.isfinite(superop).all():
            raise ValidationError(f"channel file {path}: superop has non-finite entries")
        if superop.shape[0] != payload["dim"] ** 2:
            raise ValidationError(f"channel file {path}: superop size disagrees with dim")
        _check_gates(payload, "channel", path, int(payload["dim"]).bit_length() - 1)
        return QuantumChannel(superop)
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"channel file {path} is malformed: {err}") from err


def tomography_payload(result: TomographyResult, gates, shots, cfg_hash: str, seed) -> dict:
    """A channel file of a reconstruction, with its per-preparation
    log-likelihoods and likelihood iterations."""
    payload = channel_payload(result.channel, gates, shots, cfg_hash, seed)
    payload["loglik"] = {k: float(v) for k, v in result.loglik.items()}
    payload["iterations"] = {k: int(v) for k, v in result.iterations.items()}
    return payload


def load_channel_dir(channels_dir: str) -> dict:
    """The directory's ``channel_*.json`` files keyed by gate sequence (a
    tuple of canonical gate tokens).  A file without a gate sequence
    cannot be placed, and two files for one sequence are ambiguous; both
    are rejected."""
    paths = sorted(glob.glob(os.path.join(channels_dir, "channel_*.json")))
    if not paths:
        raise IncompleteDataError(f"no channel files in {channels_dir}", [channels_dir])
    channels, sources = {}, {}
    for path in paths:
        payload = load_json(path)
        channel = channel_from_payload(payload, path)
        if not payload.get("gates"):
            raise ValidationError(f"channel file {path} has no 'gates' sequence")
        key = tuple(str(GateLabel.parse(tok)) for tok in payload["gates"])
        if key in sources:
            raise ValidationError(
                f"{sources[key]} and {path} both hold the sequence {','.join(key)}"
            )
        sources[key] = path
        channels[key] = channel
    return channels


def load_grid(channels_dir: str) -> tuple[dict, dict]:
    """Single-gate marginals and (first, second) two-gate joints of a
    channel directory; longer sequences are ignored."""
    channels = load_channel_dir(channels_dir)
    marginals = {key[0]: chan for key, chan in channels.items() if len(key) == 1}
    joints = {key: chan for key, chan in channels.items() if len(key) == 2}
    return marginals, joints


def _table_csv(kind: str, cfg_hash: str, seed, fields: dict, corner: str, col_labels,
               rows) -> str:
    """A CSV table of schema ``kind``: a ``#`` line of the schema tag,
    ``fields``, the config hash and the seed (``none`` if the run draws
    nothing), ``corner`` and the column labels, then each labelled row of
    ``rows`` with its values written as ``repr`` floats."""
    meta = [f"schema={_schema_tag(kind)}", *(f"{k}={v}" for k, v in fields.items()),
            f"config_hash={cfg_hash}", f"seed={'none' if seed is None else seed}"]
    lines = ["# " + " ".join(meta), ",".join([corner, *col_labels])]
    lines += [",".join([label, *(repr(float(v)) for v in values)]) for label, values in rows]
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: DistanceMatrix, cfg_hash: str, seed) -> str:
    return _table_csv(
        "matrix", cfg_hash, seed,
        {"metric": matrix.metric, "scaling": "|".join(matrix.scaling) or "none"},
        "", matrix.col_labels, zip(matrix.row_labels, matrix.values),
    )


def write_matrix(stem: str, matrix: DistanceMatrix, cfg_hash: str, seed) -> None:
    """A distance matrix as ``stem.csv`` plus its ``stem.json`` twin."""
    atomic_write_text(stem + ".csv", matrix_csv(matrix, cfg_hash, seed))
    dump_json(stem + ".json", report_payload(
        "matrix", cfg_hash, seed,
        metric=matrix.metric,
        scaling=list(matrix.scaling),
        row_labels=list(matrix.row_labels),
        col_labels=list(matrix.col_labels),
        values=[[float(v) for v in row] for row in matrix.values],
    ))


def write_analysis(out_dir: str, analysis: GridAnalysis, cfg_hash: str, seed) -> None:
    """The files of a grid analysis in ``out_dir``: the ``cp_violation``
    and ``cond_vs_marginal_<metric>`` matrices (CSV and JSON), one
    ``gate_dependence_<target>_<metric>.csv`` per target gate, and the
    pair's ``histogram_<U>_<V>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    write_matrix(os.path.join(out_dir, "cp_violation"), analysis.cp_violation, cfg_hash, seed)
    for metric, matrix in analysis.cond_vs_marginal.items():
        write_matrix(os.path.join(out_dir, f"cond_vs_marginal_{metric}"), matrix, cfg_hash, seed)
    for (target, metric), matrix in analysis.gate_dependence.items():
        atomic_write_text(
            os.path.join(out_dir, f"gate_dependence_{_slug(target)}_{metric}.csv"),
            matrix_csv(matrix, cfg_hash, seed),
        )
    u, v = analysis.pair
    dump_json(os.path.join(out_dir, f"histogram_{_slug(f'{u}_{v}')}.json"), report_payload(
        "histogram", cfg_hash, seed,
        pair=[u, v],
        mean=analysis.histogram.mean,
        stderr=analysis.histogram.stderr,
        samples=[float(x) for x in analysis.histogram.samples],
    ))


def scan_csv(scan: MemoryScan, metric: str, cfg_hash: str, seed) -> str:
    return _table_csv(
        "scan", cfg_hash, seed, {"metric": metric}, "n\\m",
        [str(m) for m in range(1, scan.n_max)],
        [(str(n), [scan.entries[(n, m)][metric] for m in range(1, n)])
         for n in range(2, scan.n_max + 1)],
    )


def write_scan(out_dir: str, scan: MemoryScan, cfg_hash: str, seed) -> None:
    """A memory scan in ``out_dir``: one ``scan_<metric>.csv`` per metric
    it holds, and ``scan.json`` with every entry."""
    os.makedirs(out_dir, exist_ok=True)
    for metric in scan.entries[(2, 1)]:
        atomic_write_text(
            os.path.join(out_dir, f"scan_{metric}.csv"), scan_csv(scan, metric, cfg_hash, seed)
        )
    dump_json(os.path.join(out_dir, "scan.json"), report_payload(
        "scan", cfg_hash, seed,
        n_max=scan.n_max,
        entries=[
            {"n": n, "m": m, **{k: float(v) for k, v in metrics.items()}}
            for (n, m), metrics in sorted(scan.entries.items())
        ],
    ))
