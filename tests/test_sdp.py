import json
import os

import numpy as np
import pytest

from gatemem import pipeline, sdp
from gatemem.channels import GateLabel, QuantumChannel, choi_from_superop
from gatemem.exceptions import SolverError
from gatemem.nonmarkov import avg_trace_distance, conditional_map, diamond_distance
from gatemem.sdp import diamond_sdp
from gatemem.simulator import build_default_model
from gatemem.tomography import build_frame

from conftest import diamond_lower_bound, ideal_channel, purification, random_channel

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")
GRID_GATES = ("H@0", "S@0", "T@0", "X@0", "Y@0", "Z@0")
CX = "CX@1.0"
CX_GATES = ("H@1", "S@1", "T@1", "X@1", "Y@1", "Z@1", CX)


class TestDiamondDistance:
    def test_equal_channels_is_zero(self, rng):
        chan = random_channel(2, rng)
        result = diamond_distance(chan, chan)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.gap <= 1e-6

    def test_identity_vs_bit_flip_is_one(self):
        result = diamond_distance(
            QuantumChannel(np.eye(4)), ideal_channel(GateLabel("X", (0,)))
        )
        assert result.value == pytest.approx(1.0, abs=1e-6)
        assert result.gap <= 1e-6

    def test_orthogonal_unitaries_without_entanglement(self):
        result = diamond_distance(
            QuantumChannel(np.eye(4)), ideal_channel(GateLabel("Z", (0,)))
        )
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_random_pairs_against_brute_force(self, rng):
        for _ in range(8):
            a, b = random_channel(2, rng), random_channel(2, rng)
            result = diamond_distance(a, b)
            bound = diamond_lower_bound(a, b, n_samples=4_000, rng=rng)
            assert result.gap <= 1e-6
            assert result.value >= bound - 1e-12
            assert result.value - bound <= 1e-3

    def test_purified_input_state_achieves_primal_bound(self, rng):
        a, b = random_channel(2, rng), random_channel(2, rng)
        result = diamond_distance(a, b)
        delta = choi_from_superop(a).data - choi_from_superop(b).data
        choi4 = delta.reshape(2, 2, 2, 2)
        out = np.einsum(
            "stuv,saub->tavb", choi4, purification(result.input_state).reshape(2, 2, 2, 2)
        ).reshape(4, 4)
        achieved = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (out + out.conj().T))))
        assert achieved == pytest.approx(result.primal_bound, abs=1e-9)

    def test_two_qubit_channels(self, rng):
        a, b = random_channel(4, rng), random_channel(4, rng)
        result = diamond_distance(a, b)
        assert 0.0 <= result.value <= 1.0 + 1e-6
        assert result.gap <= 1e-6

    def test_metric_symmetry(self, rng):
        a, b = random_channel(2, rng), random_channel(2, rng)
        ab = diamond_distance(a, b).value
        ba = diamond_distance(b, a).value
        assert ab == pytest.approx(ba, abs=3e-6)

    def test_triangle_inequality(self, rng):
        for _ in range(5):
            a, b, c = (random_channel(2, rng) for _ in range(3))
            dab = diamond_distance(a, b).value
            dac = diamond_distance(a, c).value
            dcb = diamond_distance(c, b).value
            assert dab <= dac + dcb + 3e-6

    def test_dominates_average_distance(self, rng):
        for _ in range(5):
            a, b = random_channel(2, rng), random_channel(2, rng)
            dd = diamond_distance(a, b).value
            avg = avg_trace_distance(a, b, 20_000, rng)
            assert dd >= avg.mean - 1e-6 - 3 * avg.stderr

    def test_reconstructed_non_tp_channels(self, rng):
        # finite-shot reconstructions are only approximately trace
        # preserving; the marginal correction must keep the certificate
        # valid
        from gatemem.pipeline import records_from_channel, reconstruct_channel
        from gatemem.tomography import build_frame

        frame = build_frame(1)
        truth_a, truth_b = random_channel(2, rng), random_channel(2, rng)
        rec_a = reconstruct_channel(
            records_from_channel(truth_a, 2_000, seed=1, frame=frame), frame
        ).channel
        rec_b = reconstruct_channel(
            records_from_channel(truth_b, 2_000, seed=2, frame=frame), frame
        ).channel
        result = diamond_distance(rec_a, rec_b)
        bound = diamond_lower_bound(rec_a, rec_b, n_samples=4_000, rng=rng)
        assert result.gap <= 1e-6
        assert result.value >= bound - 1e-9
        assert result.value - bound <= 1e-3

    def test_solver_error_reports_gap(self, rng, monkeypatch):
        a, b = random_channel(2, rng), random_channel(2, rng)
        delta = choi_from_superop(a).data - choi_from_superop(b).data
        monkeypatch.setattr(sdp, "GAP_TOL", 1e-15)
        monkeypatch.setattr(sdp, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as excinfo:
            diamond_sdp(delta)
        assert 0.0 < excinfo.value.gap < np.inf


def _reconstructions(gates, sequences, seed, wanted=None, **model_kw):
    """The benchmark's channels: sequence i of ``sequences`` is sampled at
    1e5 shots with seed ``seed + i`` and reconstructed; ``wanted``
    restricts which sequences are built, without moving the seeds."""
    model = build_default_model(list(gates), **model_kw)
    frame = build_frame(model.sys_qubits)
    chans = {}
    for index, seq in enumerate(sequences):
        if wanted is None or seq in wanted:
            gate_labels = tuple(GateLabel.parse(t) for t in seq)
            records = pipeline.simulate_records(model, gate_labels, 100_000, seed=seed + index,
                                                frame=frame)
            chans[seq] = pipeline.reconstruct_channel(records, frame).channel
    return chans


def _cx_column(seed, wanted=None):
    """Conditioned-vs-marginal cells of the CX target, keyed as in the
    benchmark's reference."""
    seqs = [(g,) for g in CX_GATES] + [(u, CX) for u in CX_GATES]
    chans = _reconstructions(CX_GATES, seqs, seed, wanted, coupling=0.55)
    return {f"dia:cvm:{u},{CX}": (conditional_map(chans[(u, CX)], chans[(u,)]).channel,
                                  chans[(CX,)])
            for u in CX_GATES if (u, CX) in chans}


class TestReferenceCells:
    """The hard cells of the paper protocol: near-pure optimal inputs on
    the README grid, and the CX target, whose (CX, CX) optimum has rank
    one and a difference Choi matrix of spectral norm ~360."""

    @pytest.fixture(scope="class")
    def reference(self):
        with open(REFERENCE) as handle:
            return {k: v for k, v in json.load(handle)["seeds"]["7"].items()
                    if k.startswith("dia:")}

    def _check(self, cells, reference):
        steps = []
        for key, (a, b) in cells.items():
            result = diamond_distance(a, b)
            assert result.gap <= 1e-6, key
            assert abs(result.value - reference[key][0]) <= 2e-6, key
            steps.append(result.iterations)
        return steps

    def test_readme_grid_at_seed_7(self, reference):
        seqs = [(g,) for g in GRID_GATES] + [(u, v) for u in GRID_GATES for v in GRID_GATES]
        chans = _reconstructions(GRID_GATES, seqs, 7, coupling=0.55, env_omega=0.7,
                                 reset_policy="persistent")
        conds = {(u, v): conditional_map(chans[(u, v)], chans[(u,)]).channel
                 for u in GRID_GATES for v in GRID_GATES}
        cells = {f"dia:cvm:{u},{v}": (conds[(u, v)], chans[(v,)])
                 for u in GRID_GATES for v in GRID_GATES}
        cells.update({f"dia:gd:{v}:{a},{b}": (conds[(a, v)], conds[(b, v)])
                      for v in GRID_GATES for i, a in enumerate(GRID_GATES)
                      for b in GRID_GATES[i + 1:]})
        assert len(cells) == 126
        steps = self._check(cells, reference)
        assert max(steps) <= 2 * np.median(steps)

    def test_cx_column_at_seed_7(self, reference):
        cells = _cx_column(7)
        cx_keys = sorted(k for k in reference if CX in k)
        assert len(cx_keys) == 6
        self._check({k: cells[k] for k in cx_keys}, reference)

    def test_cx_cx_at_seed_3(self):
        (a, b), = _cx_column(3, wanted={(CX,), (CX, CX)}).values()
        result = diamond_distance(a, b)
        assert result.gap <= 1e-6
        assert result.primal_bound <= result.value
        # the purified input state reproduces the primal bound
        choi = (choi_from_superop(a).data - choi_from_superop(b).data).reshape((4,) * 4)
        joint = purification(result.input_state).reshape((4,) * 4)
        out = np.einsum("stuv,saub->tavb", choi, joint)
        achieved = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out.reshape(16, 16))))
        assert achieved == pytest.approx(result.primal_bound, rel=1e-9)
