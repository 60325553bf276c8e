"""The four workloads: inputs made from a seed, and the passes a run
cycles through.

A pass is one call, or a short chain of calls, into gatemem's public
API.  It produces *ops*: the outputs the run must deliver, each with a
check -- a reconstructed channel, a matrix or scan cell, an
error-propagation trial, a SPAM point, or a CLI command.  A *probe*
pass runs a call that fails at the seed today; what it raises is
counted by the traced run's failure metrics, not as failed ops.  A run repeats
its workload's cycle of passes until the measuring window closes.
README.md says why each workload exists and what it stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import click
import numpy as np

from gatemem import errprop, nonmarkov, pipeline
from gatemem.channels import GateLabel
from gatemem.exceptions import GatememError
from gatemem.simulator import build_default_model, run_sequence
from gatemem.tomography import build_frame

import checks

SHOTS = 100_000
AVG_SAMPLES = 100_000
#: the README model: six single-qubit gates, persistent memory at g = 0.55
GRID_GATES = ("H@0", "S@0", "T@0", "X@0", "Y@0", "Z@0")
MODEL_KW = {"coupling": 0.55, "env_omega": 0.7, "reset_policy": "persistent"}
SCAN_NMAX = 15
CX_GATES = ("H@1", "S@1", "T@1", "X@1", "Y@1", "Z@1", "CX@1.0")
CX = "CX@1.0"
#: error propagation: trials per call (the CLI's default)
ERRPROP_TRIALS = 6
#: the CLI's default ``errors --eps-grid``
SPAM_GRID = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
#: grid-diamond cells traced per run, after the reconstructions
TRACED_CELLS = 10
CLI_SAMPLES = 2000


@dataclass
class Op:
    key: str
    value: tuple = ()
    error: str | None = None
    check: Callable[[], list[str]] | None = field(default=None, repr=False)


@dataclass
class Pass:
    name: str
    keys: tuple[str, ...]
    fn: Callable[[], list[Op]] = field(repr=False)
    #: a probe owes no op: a GatememError it raises, and the outputs it
    #: does not produce, are counted by the tracer (``errprop.failed_*``)
    probe: bool = False

    def run(self) -> list[Op]:
        """Run the pass; when it raises, every op it owes has failed."""
        try:
            ops = self.fn()
        except Exception as err:  # a failing call is counted, the run goes on
            if self.probe and isinstance(err, GatememError):
                return []
            if not isinstance(err, GatememError):
                traceback.print_exc(file=sys.stderr)
            return [Op(k, error=_error(err)) for k in self.keys]
        if self.probe:
            return ops
        got = {op.key for op in ops}
        return ops + [Op(k, error="not produced") for k in self.keys if k not in got]


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


@dataclass
class RecordSet:
    gates: tuple
    records: list


class Inputs:
    """A model, its tomography frame, and count records for a list of
    gate sequences; sequence i is sampled with seed ``seed + i``, as the
    CLI's ``simulate`` does.  A repeated sequence keeps its first records."""

    def __init__(self, gate_tokens, sequences, seed, **model_kw):
        self.model = build_default_model(list(gate_tokens), **model_kw)
        self.frame = build_frame(self.model.sys_qubits)
        self.sets = {}
        for index, seq in enumerate(sequences):
            if seq in self.sets:
                continue
            gates = tuple(GateLabel.parse(t) for t in seq)
            records = pipeline.simulate_records(
                self.model, gates, SHOTS, seed=seed + index, frame=self.frame
            )
            self.sets[seq] = RecordSet(gates, records)

    def truths(self, seq) -> dict:
        gates = self.sets[seq].gates
        return {p: run_sequence(self.model, gates, s).data
                for p, s in zip(self.frame.prep_labels, self.frame.prep_states)}


def _grid_sequences(gates):
    return [(g,) for g in gates] + [(u, v) for u in gates for v in gates]


def _key(seq) -> str:
    return ",".join(seq)


class Workload:
    name = ""

    def __init__(self, seed: int, reference: dict, root: str):
        self.seed = seed
        self.reference = reference
        self.root = root
        self.chans: dict = {}
        self.conds: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Pass]:
        raise NotImplementedError

    def traced_list(self) -> list[Pass]:
        raise NotImplementedError

    def traced_extra(self) -> list[Pass]:
        """Passes run once, untraced, before the traced list (their
        timings feed ``extra_metrics``)."""
        return []

    def extra_metrics(self, extra, untraced) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- shared pieces -------------------------------------------------

    def _channel_op(self, seq) -> Op:
        key = f"chan:{_key(seq)}"
        rs = self.inputs.sets[seq]
        try:
            result = pipeline.reconstruct_channel(rs.records, self.inputs.frame)
        except GatememError as err:
            self.chans.pop(seq, None)
            return Op(key, error=_error(err))
        self.chans[seq] = result.channel
        lls = {p: float(result.loglik[p]) for p in self.inputs.frame.prep_labels}
        ref = self.reference.get(key)
        return Op(key, tuple(lls.values()), check=lambda: checks.mle_problems(
            lls, self.inputs.truths(seq), rs.records, ref))

    def _rec_pass(self, seqs) -> Pass:
        keys = tuple(f"chan:{_key(s)}" for s in seqs)
        return Pass("reconstruct", keys, lambda: [self._channel_op(s) for s in seqs])

    def _diamond_op(self, key, a, b, qubit: bool) -> Op:
        res = nonmarkov.diamond_distance(a, b)
        sa, sb = a.superop, b.superop
        ref = self.reference.get(key)

        def check():
            problems = checks.diamond_problems(res, sa, sb)
            if qubit:
                avg, _ = checks.avg_distance_qubit(sa, sb)
                if not res.value >= avg - 1e-9:
                    problems.append(f"diamond {res.value!r} below averaged {avg!r}")
            if ref is not None and not abs(res.value - ref[0]) <= 2 * checks.GAP_TOL:
                problems.append(f"value {res.value!r} vs reference {ref[0]!r}")
            return problems

        return Op(key, (res.value, res.gap, res.primal_bound, float(res.iterations)), check=check)

    def _avg_op(self, key, mean, stderr, sa, sb) -> Op:
        """An averaged-distance cell; ``stderr`` is None when the call
        does not report one (matrices and scans)."""
        ref = self.reference.get(key)

        def check():
            if sa.shape[0] == 4:
                exact, sd = checks.avg_distance_qubit(sa, sb)
                err = sd / math.sqrt(AVG_SAMPLES)
                problems = checks.avg_problems(mean, err, exact)
            else:
                err = stderr
                problems = [] if mean >= 0 and math.isfinite(mean) else [f"mean {mean!r}"]
            if ref is not None:
                problems += checks.avg_problems(mean, err, ref[0], err)
            return problems

        value = (mean,) if stderr is None else (mean, stderr)
        return Op(key, value, check=check)


class _Grid(Workload):
    """Shared by the two grid workloads: 6 single-gate and 36 two-gate
    record sets of the README model."""

    sequences = _grid_sequences(GRID_GATES)
    extra_sequences: list = []

    def setup(self) -> None:
        self.inputs = Inputs(GRID_GATES, self.sequences + self.extra_sequences, self.seed,
                             **MODEL_KW)

    def _prelude(self) -> Pass:
        """Reconstruct every channel, then the CP-violation matrix."""
        seqs = list(self.inputs.sets)
        keys = tuple(f"chan:{_key(s)}" for s in seqs) + tuple(
            f"cp:{u},{v}" for u in GRID_GATES for v in GRID_GATES)

        def fn():
            ops = [self._channel_op(s) for s in seqs]
            return ops + [self._cp_op(u, v) for u in GRID_GATES for v in GRID_GATES]

        return Pass("reconstruct+cp", keys, fn)

    def _cp_op(self, u, v) -> Op:
        key = f"cp:{u},{v}"
        joint, first = self.chans[(u, v)], self.chans[(u,)]
        cm = nonmarkov.conditional_map(joint, first)
        self.conds[(u, v)] = cm.channel
        value = nonmarkov.cp_violation(cm)
        ref = self.reference.get(key)

        def check():
            problems = checks.close(value, checks.cp_violation(
                checks.conditional(joint.superop, first.superop)), 1e-8)
            return problems + (checks.close(value, ref[0]) if ref else [])

        return Op(key, (value,), check=check)


class GridDiamond(_Grid):
    """Certified diamond distances over the 36-pair grid: 36
    conditioned-vs-marginal cells and 90 gate-dependence cells, the
    solves ``analyze --metric diamond`` makes.  Each cell is a pass, in
    a seeded order that keeps the two kinds interleaved 2:5.  Not in
    BENCHMARK.json: its cost is too unsteady across seeds (README.md)."""

    name = "grid-diamond"

    def _cells(self) -> list[Pass]:
        cvm = [(u, v) for u in GRID_GATES for v in GRID_GATES]
        gd = [(v, GRID_GATES[i], GRID_GATES[j]) for v in GRID_GATES
              for i in range(6) for j in range(i + 1, 6)]
        rng = np.random.default_rng([self.seed, 99])
        order = [((k + 0.5) / len(cvm), self._cvm_pass(*cvm[i]))
                 for k, i in enumerate(rng.permutation(len(cvm)))]
        order += [((k + 0.5) / len(gd), self._gd_pass(*gd[i]))
                  for k, i in enumerate(rng.permutation(len(gd)))]
        return [p for _, p in sorted(order, key=lambda item: item[0])]

    def _cvm_pass(self, u, v) -> Pass:
        key = f"dia:cvm:{u},{v}"

        def fn():
            cm = nonmarkov.conditional_map(self.chans[(u, v)], self.chans[(u,)])
            return [self._diamond_op(key, cm.channel, self.chans[(v,)], qubit=True)]

        return Pass("diamond", (key,), fn)

    def _gd_pass(self, v, u1, u2) -> Pass:
        key = f"dia:gd:{v}:{u1},{u2}"
        return Pass("diamond", (key,), lambda: [
            self._diamond_op(key, self.conds[(u1, v)], self.conds[(u2, v)], qubit=True)])

    def cycle(self) -> list[Pass]:
        return [self._prelude()] + self._cells()

    def traced_list(self) -> list[Pass]:
        return self.cycle()[: 1 + TRACED_CELLS]


class GridAvg(_Grid):
    """Averaged distances at 100,000 Haar samples: the conditioned-vs-
    marginal and gate-dependence matrices one target gate per pass, the
    per-sample histogram cell, and the memory scan to n = 15 over
    reconstructions of X^1 ... X^15."""

    name = "grid-avg"
    extra_sequences = [("X@0",) * n for n in range(1, SCAN_NMAX + 1)]

    def _scan_pass(self, nmax: int) -> Pass:
        cells = [(n, m) for n in range(2, nmax + 1) for m in range(1, n)]
        keys = tuple(f"scan:{n},{m}" for n, m in cells)

        def fn():
            chans = [self.chans[s] for s in self.extra_sequences[:nmax]]
            scan = nonmarkov.memory_scan(chans, metrics=("avg",), m_samples=AVG_SAMPLES,
                                         rng=np.random.default_rng([self.seed, 1]))
            return [self._avg_op(k, scan.entries[c]["avg"], None, chans[c[0] - 1].superop,
                                 chans[c[1] - 1].superop @ chans[c[0] - c[1] - 1].superop)
                    for k, c in zip(keys, cells)]

        return Pass("scan", keys, fn)

    def _cvm_pass(self, j, v) -> Pass:
        keys = tuple(f"avg:cvm:{u},{v}" for u in GRID_GATES)

        def fn():
            marginals = {g: self.chans[(g,)] for g in GRID_GATES}
            joints = {(u, v): self.chans[(u, v)] for u in GRID_GATES}
            mat = nonmarkov.conditional_vs_marginal_matrix(
                marginals, joints, metric="avg", m_samples=AVG_SAMPLES,
                rng=np.random.default_rng([self.seed, 2, j]))
            return [self._avg_op(k, float(mat.values[mat.row_labels.index(u), 0]), None,
                                 checks.conditional(joints[(u, v)].superop, marginals[u].superop),
                                 marginals[v].superop)
                    for k, u in zip(keys, GRID_GATES)]

        return Pass("cond-vs-marginal", keys, fn)

    def _gd_pass(self, j, v) -> Pass:
        pairs = [(a, b) for i, a in enumerate(GRID_GATES) for b in GRID_GATES[i + 1:]]
        keys = tuple(f"avg:gd:{v}:{a},{b}" for a, b in pairs)

        def fn():
            conds = {u: self.conds[(u, v)] for u in GRID_GATES}
            mat = nonmarkov.gate_dependence_matrix(
                conds, metric="avg", m_samples=AVG_SAMPLES,
                rng=np.random.default_rng([self.seed, 3, j]))
            idx = mat.row_labels.index
            return [self._avg_op(k, float(mat.values[idx(a), idx(b)]), None,
                                 conds[a].superop, conds[b].superop)
                    for k, (a, b) in zip(keys, pairs)]

        return Pass("gate-dependence", keys, fn)

    def _hist_pass(self) -> Pass:
        u = v = GRID_GATES[0]
        key = f"avg:hist:{u},{v}"

        def fn():
            cm = nonmarkov.conditional_map(self.chans[(u, v)], self.chans[(u,)])
            res = nonmarkov.avg_trace_distance(cm.channel, self.chans[(v,)], AVG_SAMPLES,
                                               np.random.default_rng([self.seed, 4]))
            return [self._avg_op(key, res.mean, res.stderr, cm.channel.superop,
                                 self.chans[(v,)].superop)]

        return Pass("histogram", (key,), fn)

    def cycle(self) -> list[Pass]:
        passes = [self._prelude(), self._hist_pass(), self._scan_pass(SCAN_NMAX)]
        for j, v in enumerate(GRID_GATES):
            passes += [self._cvm_pass(j, v), self._gd_pass(j, v)]
        return passes

    def traced_list(self) -> list[Pass]:
        return [self._prelude(), self._scan_pass(6), self._cvm_pass(0, GRID_GATES[0]),
                self._gd_pass(0, GRID_GATES[0])]


class CxTarget(Workload):
    """The two-qubit CX target: 14 reconstructions (7 single gates, 7
    pairs ending in CX), then the CX column of the conditioned-vs-
    marginal matrix, averaged, one cell per pass.  The traced list adds
    SPAM scaling and one error propagation, as probes, and one diamond
    cell."""

    name = "cx-target"
    sequences = [(g,) for g in CX_GATES] + [(u, CX) for u in CX_GATES]

    def setup(self) -> None:
        self.inputs = Inputs(CX_GATES, self.sequences, self.seed, coupling=0.55)

    def _spam_probe(self) -> Pass:
        """``spam_scaling`` at CX raises ConvergenceError at the seed."""
        keys = tuple(f"spam:{eps!r}" for eps in SPAM_GRID)

        def fn():
            dec = errprop.spam_scaling(self.inputs.model, GateLabel.parse(CX), SPAM_GRID)
            return [Op(k, (e,), check=lambda e=e: [] if math.isfinite(e) and e >= 0 else [f"error {e!r}"])
                    for k, e in zip(keys, dec.errors)]

        return Pass("spam-scaling", keys, fn, probe=True)

    def _errprop_probe(self) -> Pass:
        """One ``propagate_statistics`` call on the CX records; trials
        that hit the MLE cap are left out of its report and counted by
        the tracer, and the call raises when fewer than two survive."""
        keys = tuple(f"trial:{i}" for i in range(ERRPROP_TRIALS))
        records = self.inputs.sets[(CX,)].records
        frame = self.inputs.frame

        def fn():
            point = pipeline.reconstruct_channel(records, frame).channel.superop
            outcomes = []

            def metric(trial_records):  # the CLI's frobenius-to-point-estimate
                try:
                    result = pipeline.reconstruct_channel(trial_records, frame)
                except GatememError as err:
                    outcomes.append(err)
                    raise
                value = float(np.linalg.norm(result.channel.superop - point))
                outcomes.append(value)
                return value

            errprop.propagate_statistics(records, metric, ERRPROP_TRIALS,
                                         np.random.default_rng([self.seed, 0]),
                                         metric_name="frobenius-to-point-estimate")
            return [Op(k, (out,), check=lambda out=out: [] if math.isfinite(out) and out >= 0
                       else [f"trial value {out!r}"])
                    for k, out in zip(keys, outcomes[1:]) if not isinstance(out, Exception)]

        return Pass("errprop", keys, fn, probe=True)

    def _cell_passes(self, u) -> list[Pass]:
        dkey, akey = f"dia:cvm:{u},{CX}", f"avg:cvm:{u},{CX}"
        i = CX_GATES.index(u)

        def cond():
            return nonmarkov.conditional_map(self.chans[(u, CX)], self.chans[(u,)]).channel

        def diamond():
            return [self._diamond_op(dkey, cond(), self.chans[(CX,)], qubit=False)]

        def avg():
            a, b = cond(), self.chans[(CX,)]
            res = nonmarkov.avg_trace_distance(a, b, AVG_SAMPLES, np.random.default_rng([self.seed, 5, i]))
            return [self._avg_op(akey, res.mean, res.stderr, a.superop, b.superop)]

        return [Pass("diamond", (dkey,), diamond), Pass("avg", (akey,), avg)]

    def cycle(self) -> list[Pass]:
        # Diamond cells, SPAM scaling and error propagation run only in
        # the traced list: the SDP's seed-driven tail and the trials
        # that run into the MLE cap made pass_s too unsteady across
        # seeds (README.md).
        passes = [self._rec_pass([s]) for s in self.sequences]
        return passes + [self._cell_passes(u)[1] for u in CX_GATES]

    def traced_list(self) -> list[Pass]:
        u = CX_GATES[0]
        return ([self._spam_probe(), self._rec_pass([(u,), (CX,), (u, CX)]),
                 self._errprop_probe()] + self._cell_passes(u))


README_MODEL = {
    "sys_qubits": 1,
    "gates": ["H", "S", "T", "X", "Y", "Z"],
    "coupling": 0.55,
    "env_omega": 0.7,
    "reset_policy": "persistent",
    "spam": {"prep": 0.0, "meas": 0.0, "seed": 0},
}


def _digest(base: str, names) -> str:
    """Hash of the named files and directory trees, relative to ``base``."""
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(base, name)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, base).encode() + b"\0")
            with open(f, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def _read_superop(path: str) -> np.ndarray:
    with open(path) as handle:
        payload = json.load(handle)
    return np.array([[complex(re, im) for re, im in row] for row in payload["superop"]])


#: ``python -c`` program that runs ``gatemem.cli`` as ``python -m`` does,
#: then appends the process's peak resident set (VmHWM, kB) to the file
#: named by PERFBENCH_RSS_FILE.  A child's ``ru_maxrss`` would not do:
#: it starts from the parent's peak, which the child inherits at fork.
CLI_MAIN = """\
import atexit, os, runpy
def _peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM"))
    with open(os.environ["PERFBENCH_RSS_FILE"], "a") as out:
        out.write(kb + "\\n")
atexit.register(_peak)
runpy.run_module("gatemem.cli", run_name="__main__", alter_sys=True)
"""


class CliReadme(Workload):
    """The README command chain as fresh ``python -m gatemem.cli``
    processes, one command per pass: ``simulate`` (the 42 grid
    sequences), ``tomo`` per record file, ``analyze --metric avg``,
    ``ptensor --exact``, and both ``errors`` modes."""

    name = "cli-readme"

    def __init__(self, seed, reference, root):
        super().__init__(seed, reference, root)
        self.work = os.path.join(root, ".perfbench_work", "cli")
        self.round = 0
        self.mode = "proc"
        self.sequences = _grid_sequences(GRID_GATES)

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        self.model_path = os.path.join(self.work, "model.json")
        self.rss_file = os.path.join(self.work, "rss.txt")
        with open(self.model_path, "w") as handle:
            json.dump(README_MODEL, handle)
        self.inputs = Inputs(README_MODEL["gates"], self.sequences, self.seed, **MODEL_KW)

    @staticmethod
    def slug(seq) -> str:
        gates = [GateLabel.parse(t) for t in seq]
        return "-".join(g.name + "".join(str(q) for q in g.qubits) for g in gates)

    def _run(self, args) -> tuple[int, str]:
        if self.mode == "proc":
            env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                       PERFBENCH_RSS_FILE=self.rss_file)
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *args], cwd=self.root,
                                  env=env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stderr
        from gatemem.cli import main
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                main.main(args=list(args), standalone_mode=False)
            except SystemExit as err:
                return int(err.code or 0), sink.getvalue()
            except click.ClickException as err:
                return err.exit_code, err.format_message()
        return 0, sink.getvalue()

    def _command(self, key, args_fn, outputs, check_fn, starts_round=False) -> Pass:
        def fn():
            if starts_round:
                self.round += 1
            base = os.path.join(self.work, f"{self.mode}{self.round}")
            code, err = self._run(args_fn(base))
            if code != 0:
                return [Op(key, error=f"exit {code}: {err.strip()[-300:]}")]
            return [Op(key, (_digest(base, outputs),), check=lambda: check_fn(base))]

        return Pass(key.split(":")[1], (key,), fn)

    def _chain(self) -> list[Pass]:
        seed, model = str(self.seed), self.model_path
        gates = ";".join(",".join(GateLabel.parse(t).name for t in s) for s in self.sequences)
        chain = [self._command(
            "cli:simulate",
            lambda b: ["simulate", "--model", model, "--gates", gates, "--shots", str(SHOTS),
                       "--seed", seed, "--out", os.path.join(b, "rec")],
            ["rec"], self._check_records, starts_round=True)]
        for s in self.sequences:
            slug = self.slug(s)
            chain.append(self._command(
                f"cli:tomo:{slug}",
                lambda b, slug=slug: ["tomo", "--records", os.path.join(b, "rec", f"records_{slug}.json"),
                                      "--out", os.path.join(b, "chan", f"channel_{slug}.json")],
                [os.path.join("chan", f"channel_{slug}.json")],
                lambda b, s=s: self._check_channel(b, s)))
        chain.append(self._command(
            "cli:analyze",
            lambda b: ["analyze", "--channels", os.path.join(b, "chan"), "--metric", "avg",
                       "--samples", str(CLI_SAMPLES), "--seed", seed, "--out", os.path.join(b, "analysis")],
            ["analysis"], self._check_analysis))
        chain.append(self._command(
            "cli:ptensor",
            lambda b: ["ptensor", "--model", model, "--gates", "S,T", "--exact",
                       "--out", os.path.join(b, "ptensor.json")],
            ["ptensor.json"], lambda b: self._check_number(b, "ptensor.json", "relative_entropy")))
        chain.append(self._command(
            "cli:errors-records",
            lambda b: ["errors", "--records", os.path.join(b, "rec", "records_X0.json"),
                       "--seed", seed, "--out", os.path.join(b, "unc.json")],
            ["unc.json"], lambda b: self._check_number(b, "unc.json", "std")))
        chain.append(self._command(
            "cli:errors-model",
            lambda b: ["errors", "--model", model, "--gate", "X", "--out", os.path.join(b, "spam.json")],
            ["spam.json"], lambda b: self._check_number(b, "spam.json", "slope")))
        return chain

    def peak_rss_mb(self) -> float:
        """Peak resident set of the largest command run so far."""
        with open(self.rss_file) as handle:
            return max(int(line) for line in handle) / 1024.0

    # ---- checks on the files a command wrote ----------------------------

    def _check_records(self, base) -> list[str]:
        problems = []
        for seq in self.sequences:
            with open(os.path.join(base, "rec", f"records_{self.slug(seq)}.json")) as handle:
                written = [(r["prep"], r["meas"], r["counts"]) for r in json.load(handle)["records"]]
            expected = [(r.prep_label, r.meas_label, r.counts) for r in self.inputs.sets[seq].records]
            if written != expected:
                problems.append(f"records for {seq} differ from the library's")
        return problems

    def _check_channel(self, base, seq) -> list[str]:
        with open(os.path.join(base, "chan", f"channel_{self.slug(seq)}.json")) as handle:
            lls = json.load(handle)["loglik"]
        return checks.mle_problems(lls, self.inputs.truths(seq), self.inputs.sets[seq].records)

    def _check_analysis(self, base) -> list[str]:
        chan = {s: _read_superop(os.path.join(base, "chan", f"channel_{self.slug(s)}.json"))
                for s in self.sequences}
        with open(os.path.join(base, "analysis", "cp_violation.json")) as handle:
            cp = json.load(handle)
        with open(os.path.join(base, "analysis", "cond_vs_marginal_avg.json")) as handle:
            cvm = json.load(handle)
        problems = []
        for i, u in enumerate(cp["row_labels"]):
            for j, v in enumerate(cp["col_labels"]):
                cond = checks.conditional(chan[(u, v)], chan[(u,)])
                problems += checks.close(cp["values"][i][j], checks.cp_violation(cond), 1e-8)
                exact, sd = checks.avg_distance_qubit(cond, chan[(v,)])
                problems += checks.avg_problems(cvm["values"][i][j], sd / math.sqrt(CLI_SAMPLES), exact)
        return problems

    @staticmethod
    def _check_number(base, name, field_name) -> list[str]:
        with open(os.path.join(base, name)) as handle:
            value = json.load(handle)[field_name]
        return [] if math.isfinite(value) and value >= 0 else [f"{name}: {field_name}={value!r}"]

    # ---- the plan --------------------------------------------------------

    def cycle(self) -> list[Pass]:
        return self._chain()

    def _in_mode(self, mode, passes) -> list[Pass]:
        def switch(p):
            def fn():
                self.mode = mode
                return p.fn()
            return Pass(p.name, p.keys, fn)
        return [switch(p) for p in passes]

    def traced_extra(self) -> list[Pass]:
        return self._in_mode("proc", self._chain())

    def traced_list(self) -> list[Pass]:
        return self._in_mode("inproc", self._chain())

    def extra_metrics(self, extra, untraced) -> dict:
        """``extra`` and ``untraced`` are the outcomes of one chain each,
        as processes and in-process."""
        by: dict = {}
        for out in extra:
            by.setdefault(out.pass_.name, []).append(out.seconds)
        return {
            "cli.simulate_s": by["simulate"][0],
            "cli.tomo_s": float(np.median(by["tomo"])),
            "cli.analyze_s": by["analyze"][0],
            "cli.ptensor_s": by["ptensor"][0],
            "cli.errors_s": by["errors-records"][0] + by["errors-model"][0],
            "cli.process_overhead_s": (sum(o.seconds for o in extra)
                                       - sum(o.seconds for o in untraced)) / len(extra),
        }


WORKLOADS = {w.name: w for w in (GridDiamond, GridAvg, CxTarget, CliReadme)}
