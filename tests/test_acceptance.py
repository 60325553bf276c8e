"""Acceptance suite: one test per exit criterion, each printing a
PASS line with its measured figures (run with ``pytest -v -s``).

Hardware-specific published values are not targets here; every check is
property-based or oracle-backed on synthetic ground truth, with the
protocol-level constants asserted exactly.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gatemem.channels import GateLabel, QuantumChannel, compose
from gatemem.errprop import propagate_statistics, spam_scaling
from gatemem.nonmarkov import (
    avg_trace_distance,
    conditional_map,
    cp_violation,
    diamond_distance,
    gate_dependence_matrix,
    memory_scan,
    statistical_floor,
)
from gatemem.pipeline import reconstruct_channel, records_from_channel, simulate_records
from gatemem.process import markovian_choi_reference, process_tensor_proxy
from gatemem.qcore import DEFAULT_AVG_SAMPLES, DEFAULT_SCAN_NMAX, _half_trace_norm
from gatemem.simulator import (
    DEFAULT_COUPLING,
    build_default_model,
    cji_circuit,
    extract_channel,
)
from gatemem.tomography import build_frame, mle_estimate

from conftest import (
    DEFAULT_COUPLING_GRID,
    diamond_lower_bound,
    ideal_channel,
    random_channel,
)

LABELS = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]
PAIRS = list(itertools.product(LABELS, repeat=2))


def _report(name: str, detail: str) -> None:
    print(f"\n[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def qubit_channel_pairs():
    rng = np.random.default_rng(2024)
    return [(random_channel(2, rng), random_channel(2, rng)) for _ in range(20)]


@pytest.fixture(scope="module")
def sdp_results(qubit_channel_pairs):
    return [diamond_distance(a, b) for a, b in qubit_channel_pairs]


def test_criterion_01_markovian_null():
    start = time.time()
    model = build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="reset_each_gate")
    singles = {l: extract_channel(model, [l]) for l in LABELS}
    rng = np.random.default_rng(1)

    conditionals = {v: {} for v in LABELS}
    worst_cpv = worst_avg = 0.0
    for u, v in PAIRS:
        joint = extract_channel(model, [u, v])
        cm = conditional_map(joint, singles[u])
        conditionals[v][str(u)] = cm
        worst_cpv = max(worst_cpv, cp_violation(cm))
        worst_avg = max(
            worst_avg, avg_trace_distance(cm.channel, singles[v], 2_000, rng).mean
        )
    assert worst_cpv <= 1e-8
    assert worst_avg <= 1e-8

    worst_dependence = 0.0
    for v in LABELS:
        matrix = gate_dependence_matrix(conditionals[v], metric="avg", m_samples=2_000, rng=rng)
        worst_dependence = max(worst_dependence, float(matrix.values.max()))
    assert worst_dependence <= 1e-8

    elapsed = time.time() - start
    assert elapsed <= 120
    _report(
        "criterion 1 (memoryless null test)",
        f"36 pairs: max cp-violation {worst_cpv:.2e}, max conditional-vs-marginal "
        f"{worst_avg:.2e}, max gate-dependence {worst_dependence:.2e}, {elapsed:.0f}s",
    )


def test_criterion_02_memory_detection():
    start = time.time()
    shots = 100_000

    def mean_cpv_from_shots(model, seed):
        rng_seq = np.random.SeedSequence(seed)
        seeds = iter(rng_seq.generate_state(len(LABELS) + len(PAIRS), dtype=np.uint64))
        singles = {
            l: reconstruct_channel(simulate_records(model, [l], shots, int(next(seeds)))).channel
            for l in LABELS
        }
        values = []
        for u, v in PAIRS:
            records = simulate_records(model, [u, v], shots, int(next(seeds)))
            joint = reconstruct_channel(records).channel
            values.append(cp_violation(conditional_map(joint, singles[u])))
        return values

    persistent = build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="persistent")
    twin = build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="reset_each_gate")

    signal_values = mean_cpv_from_shots(persistent, seed=11)
    floor_values = mean_cpv_from_shots(twin, seed=12)
    signal = float(np.mean(signal_values))
    floor = statistical_floor(floor_values)
    assert signal > 10 * floor

    grid_means = []
    for g in DEFAULT_COUPLING_GRID:
        model = build_default_model(LABELS, coupling=g, reset_policy="persistent")
        singles = {l: extract_channel(model, [l]) for l in LABELS}
        values = [
            cp_violation(conditional_map(extract_channel(model, [u, v]), singles[u]))
            for u, v in PAIRS
        ]
        grid_means.append(float(np.mean(values)))
    assert all(b >= a - 1e-12 for a, b in zip(grid_means, grid_means[1:]))

    elapsed = time.time() - start
    assert elapsed <= 600
    _report(
        "criterion 2 (memory detection)",
        f"signal {signal:.4f} vs 10x floor {10 * floor:.4f} at {shots} shots; "
        f"grid means {['%.4f' % m for m in grid_means]}, {elapsed:.0f}s",
    )


def test_criterion_03_diamond_oracle(qubit_channel_pairs, sdp_results):
    start = time.time()
    ident_x = diamond_distance(QuantumChannel(np.eye(4)), ideal_channel(GateLabel("X", (0,))))
    assert ident_x.value == pytest.approx(1.0, abs=1e-6)

    rng = np.random.default_rng(5)
    worst_excess = 0.0
    for (a, b), result in zip(qubit_channel_pairs, sdp_results):
        assert result.gap <= 1e-6
        bound = diamond_lower_bound(a, b, n_samples=10_000, rng=rng)
        assert result.value >= bound - 1e-12
        worst_excess = max(worst_excess, result.value - bound)
    assert worst_excess <= 1e-3

    elapsed = time.time() - start
    assert elapsed <= 300
    _report(
        "criterion 3 (worst-case distance oracle)",
        f"identity-vs-X {ident_x.value:.9f}; 20 pairs: max gap "
        f"{max(r.gap for r in sdp_results):.2e}, max sdp-minus-brute-force "
        f"{worst_excess:.2e}, {elapsed:.0f}s",
    )


def test_criterion_04_metric_ordering(qubit_channel_pairs, sdp_results):
    rng = np.random.default_rng(6)
    worst_margin = np.inf
    for (a, b), result in zip(qubit_channel_pairs, sdp_results):
        avg = avg_trace_distance(a, b, 100_000, rng)
        margin = result.value - avg.mean + 1e-6 + 3 * avg.stderr
        worst_margin = min(worst_margin, margin)
        assert result.value >= avg.mean - 1e-6 - 3 * avg.stderr
    _report(
        "criterion 4 (metric ordering)",
        f"worst-case >= average on 20 pairs, tightest margin {worst_margin:.3e}",
    )


def test_criterion_05_tomography_round_trip():
    frame = build_frame(1)
    rng = np.random.default_rng(2025)
    channels = [random_channel(2, rng) for _ in range(20)]

    worst_exact = 0.0
    for truth in channels:
        records = records_from_channel(truth, None)
        result = reconstruct_channel(records, frame)
        worst_exact = max(
            worst_exact, float(np.linalg.norm(result.channel.superop - truth.superop))
        )
    assert worst_exact <= 1e-8

    worst_sampled = 0.0
    for index, truth in enumerate(channels):
        records = records_from_channel(truth, 100_000, seed=300 + index)
        result = reconstruct_channel(records, frame)
        worst_sampled = max(
            worst_sampled, float(np.linalg.norm(result.channel.superop - truth.superop))
        )
    assert worst_sampled <= 3e-2

    shot_grid = [100, 1_000, 10_000, 100_000]
    mean_errors = []
    for shots in shot_grid:
        errors = []
        for index, truth in enumerate(channels[:8]):
            records = records_from_channel(truth, shots, seed=500 + index)
            result = reconstruct_channel(records, frame)
            errors.append(np.linalg.norm(result.channel.superop - truth.superop))
        mean_errors.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log10(shot_grid), np.log10(mean_errors), 1)[0])
    assert slope == pytest.approx(-0.5, abs=0.15)

    _report(
        "criterion 5 (tomography round trip)",
        f"exact max error {worst_exact:.2e}; 1e5-shot max error {worst_sampled:.2e}; "
        f"shot-scaling slope {slope:.3f}",
    )


def test_criterion_06_protocol_constants():
    import inspect

    from gatemem.cli import scan as scan_command

    cx = GateLabel.parse("CX@1.0")
    assert len(simulate_records(build_default_model([str(LABELS[0])]), [LABELS[0]], None)) == 12
    assert len(simulate_records(build_default_model([str(cx)]), [cx], None)) == 144
    assert DEFAULT_AVG_SAMPLES == 100_000
    signature = inspect.signature(avg_trace_distance)
    assert signature.parameters["m_samples"].default == 100_000
    assert DEFAULT_SCAN_NMAX == 15
    nmax_param = next(p for p in scan_command.params if p.name == "nmax")
    assert nmax_param.default == 15
    _report(
        "criterion 6 (protocol constants)",
        "12 and 144 configurations, default 100000 samples, scan depth 15",
    )


def test_criterion_07_memory_scan_ground_truth():
    rng = np.random.default_rng(31)

    # exactly divisible family: all strict-lower-triangle entries vanish
    base = random_channel(2, rng)
    family = [base]
    for _ in range(DEFAULT_SCAN_NMAX - 1):
        family.append(compose(base, family[-1]))
    scan = memory_scan(family, metrics=("avg", "diamond"), m_samples=500, rng=rng)
    assert len(scan.entries) == 105
    worst = max(max(v.values()) for v in scan.entries.values())
    assert worst <= 1e-8

    # lag-injected family versus its memoryless twin at finite shots
    lag, n_max, shots = 3, 8, 100_000
    frame = build_frame(1)
    base = random_channel(2, rng, kraus_rank=1)
    from conftest import haar_random_unitary

    kick_u = haar_random_unitary(2, rng)
    kick = QuantumChannel(np.kron(kick_u.conj(), kick_u))

    def reconstruct_family(with_kick: bool, seed: int):
        chans = []
        power = QuantumChannel(np.eye(4))
        truths = []
        for n in range(1, n_max + 1):
            power = compose(base, power)
            truths.append(compose(power, kick) if (with_kick and n >= lag) else power)
        for index, truth in enumerate(truths):
            records = records_from_channel(truth, shots, seed=seed + index)
            chans.append(reconstruct_channel(records, frame).channel)
        return chans

    sample_rng = np.random.default_rng(8)
    lag_cut = [(n, lag) for n in range(2 * lag, n_max + 1)]

    def at_lag_entries(scan):
        return [scan.entries[key]["avg"] for key in lag_cut]

    lag_scan = memory_scan(
        reconstruct_family(True, 900), metrics=("avg",), m_samples=20_000, rng=sample_rng
    )
    twin_scan = memory_scan(
        reconstruct_family(False, 950), metrics=("avg",), m_samples=20_000, rng=sample_rng
    )
    floor_samples = []
    for repeat in range(5):
        noise_scan = memory_scan(
            reconstruct_family(False, 2000 + 100 * repeat),
            metrics=("avg",), m_samples=20_000, rng=sample_rng,
        )
        floor_samples.extend(at_lag_entries(noise_scan))
    floor = statistical_floor(floor_samples)

    at_lag = at_lag_entries(lag_scan)
    assert min(at_lag) > floor
    assert max(at_lag_entries(twin_scan)) <= floor

    _report(
        "criterion 7 (memory-scan ground truth)",
        f"divisible family max entry {worst:.2e} over 105 entries; lag-{lag} entries "
        f"{['%.3f' % v for v in at_lag]} vs floor {floor:.4f}",
    )


def test_criterion_08_process_tensor_proxy():
    markovian = build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="reset_each_gate")
    persistent = build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="persistent")
    u_gate, v_gate = LABELS[3], LABELS[5]

    markov_state = cji_circuit(markovian, u_gate, v_gate)
    markov_ref = markovian_choi_reference(
        extract_channel(markovian, [u_gate]), extract_channel(markovian, [v_gate])
    )
    floor = process_tensor_proxy(markov_state, markov_ref)
    assert floor <= 1e-6

    measured = cji_circuit(persistent, u_gate, v_gate)
    reference = markovian_choi_reference(
        extract_channel(persistent, [u_gate]), extract_channel(persistent, [v_gate])
    )
    value = process_tensor_proxy(measured, reference)
    assert value > 10 * max(floor, 1e-8)

    _report(
        "criterion 8 (process-tensor proxy)",
        f"memoryless value {floor:.2e}, persistent value {value:.4f}",
    )


def test_criterion_09_error_propagation():
    frame = build_frame(1)
    chan = random_channel(2, np.random.default_rng(41))
    from gatemem.channels import apply

    truth = apply(chan, frame.prep_states[frame.prep_labels.index("Z+")])

    def pipeline(records):
        subset = [r for r in records if r.prep_label == "Z+"]
        return float(_half_trace_norm(mle_estimate(subset, frame).state.data - truth))

    shots, trials = 1024, 200
    records = [
        r for r in records_from_channel(chan, shots, seed=77)
        if r.prep_label == "Z+"
    ]
    report = propagate_statistics(records, pipeline, trials, np.random.default_rng(13))

    oracle_values = []
    for k in range(trials):
        fresh = [
            r for r in records_from_channel(chan, shots, seed=5000 + k)
            if r.prep_label == "Z+"
        ]
        oracle_values.append(pipeline(fresh))
    oracle_std = float(np.std(oracle_values, ddof=1))
    assert report.std <= 2 * oracle_std
    assert report.std >= oracle_std / 2

    model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
    grid = [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    decomposition = spam_scaling(model, LABELS[3], grid)
    assert decomposition.errors[0] <= 1e-8
    assert decomposition.slope == pytest.approx(1.0, abs=0.15)
    assert decomposition.r_squared >= 0.99

    _report(
        "criterion 9 (error propagation)",
        f"std {report.std:.2e} vs oracle {oracle_std:.2e} (ratio "
        f"{report.std / oracle_std:.2f}); SPAM slope {decomposition.slope:.3f}, "
        f"r^2 {decomposition.r_squared:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    model_spec = {
        "sys_qubits": 1,
        "gates": ["H", "S", "T", "X", "Y", "Z"],
        "coupling": DEFAULT_COUPLING,
        "env_omega": 0.7,
        "reset_policy": "persistent",
        "spam": {"prep": 0.0, "meas": 0.0, "seed": 0},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_spec))

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "gatemem.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def tree_bytes(root):
        blob = b""
        for dirpath, _, files in sorted(os.walk(root)):
            for name in sorted(files):
                blob += open(os.path.join(dirpath, name), "rb").read()
        return blob

    blobs = []
    for run_dir in ("first", "second"):
        base = tmp_path / run_dir
        run(["simulate", "--model", str(model_path), "--gates", "X;Z;X,Z;X,X;X,X,X",
             "--shots", "512", "--seed", "21", "--out", str(base / "rec")])
        os.makedirs(base / "chan")
        for slug in ("X0", "Z0", "X0-Z0", "X0-X0", "X0-X0-X0"):
            run(["tomo", "--records", str(base / "rec" / f"records_{slug}.json"),
                 "--out", str(base / "chan" / f"channel_{slug}.json")])
        run(["analyze", "--channels", str(base / "chan"), "--metric", "avg",
             "--samples", "2000", "--seed", "4", "--out", str(base / "analysis")])
        run(["scan", "--channels", str(base / "chan"), "--nmax", "3",
             "--metric", "avg", "--samples", "2000", "--seed", "4",
             "--out", str(base / "scan")])
        run(["ptensor", "--model", str(model_path), "--gates", "S,T", "--exact",
             "--seed", "2", "--out", str(base / "ptensor.json")])
        run(["errors", "--records", str(base / "rec" / "records_X0.json"),
             "--trials", "10", "--seed", "6", "--out", str(base / "errors.json")])
        blobs.append(tree_bytes(base))
    assert blobs[0] == blobs[1]
    _report(
        "criterion 10 (determinism)",
        f"two full command pipelines produced byte-identical trees "
        f"({len(blobs[0])} bytes each)",
    )
