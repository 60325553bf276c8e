"""The batched likelihood kernel against a one-preparation-at-a-time
reference.

``reference_mle_estimate`` is the per-preparation R-rho-R fixed point
of ``tomography.mle_estimate``, one complex iterate at a time, with the
probabilities of each iterate computed by ``einsum`` over the outcomes
with nonzero counts only.  The kernel must reproduce it preparation by
preparation: the same iteration counts, states to 1e-13 and
log-likelihoods to 1e-14.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gatemem import tomography
from gatemem.channels import GateLabel, QuantumChannel, vec
from gatemem.exceptions import ConvergenceError, IncompleteDataError
from gatemem.pipeline import reconstruct_channel, records_from_channel, simulate_records
from gatemem.qcore import DensityMatrix
from gatemem.simulator import SpamSpec, build_default_model, extract_channel
from gatemem.tomography import (
    MleEstimate,
    _embedded,
    _likelihood_design,
    _measurement_effects,
    _unembedded,
    build_frame,
    mle_estimate,
    mle_estimates,
)

from conftest import ideal_channel, random_channel, random_density

CX = GateLabel.parse("CX@1.0")


def reference_mle_estimate(records, frame):
    """One preparation's fixed point, one iterate at a time."""
    grouped = {rec.meas_label: rec for rec in records}
    if len(grouped) < len(records):
        raise ValueError("the reference takes one record per setting")
    missing = [m for m in frame.meas_labels if m not in grouped]
    if missing:
        raise IncompleteDataError(f"missing measurement settings: {missing}", missing)

    d = frame.dim
    settings = list(frame.meas_labels)
    effects = np.concatenate([_measurement_effects(m) for m in settings])
    freqs = np.concatenate([grouped[m].frequencies() for m in settings])
    # a record's statistical weight: its shot count, or 1 in exact mode
    record_weights = [1.0 if grouped[m].shots is None else float(grouped[m].shots)
                      for m in settings]
    weights = np.repeat(record_weights, d)
    total_weight = float(sum(record_weights))
    wf = weights * freqs

    step_tol = 1e-12
    if any(grouped[m].shots is not None for m in settings):
        step_tol = max(step_tol, 1e-3 / math.sqrt(total_weight))

    active = wf > 0.0
    eff_active = effects[active]
    wf_active = wf[active]

    def probabilities(rho):
        return np.maximum(np.real(np.einsum("kij,ji->k", eff_active, rho)), 1e-300)

    def loglik(rho):
        return float(wf_active @ np.log(probabilities(rho))) / total_weight

    def r_operator(rho):
        coeff = wf_active / probabilities(rho) / total_weight
        return np.einsum("k,kij->ij", coeff, eff_active)

    if all(grouped[m].shots is None for m in settings):
        design = effects.transpose(0, 2, 1).reshape(effects.shape[0], d * d)
        solution, *_ = np.linalg.lstsq(design, freqs.astype(complex), rcond=None)
        rho_lin = solution.reshape(d, d)
        rho_lin = 0.5 * (rho_lin + rho_lin.conj().T)
        rho_lin = rho_lin / np.trace(rho_lin).real
        residual = float(np.max(np.abs(np.real(np.einsum("kij,ji->k", effects, rho_lin)) - freqs)))
        w, v = np.linalg.eigh(rho_lin)
        if residual < 1e-10 and w[0] >= -1e-11:
            w = np.clip(w, 0.0, None)
            rho_lin = (v * (w / w.sum())) @ v.conj().T
            return MleEstimate(state=DensityMatrix(rho_lin), loglik=loglik(rho_lin), iterations=0)
        step_tol = max(step_tol, 1e-9)

    rho = np.eye(d, dtype=complex) / d
    cap = tomography.MLE_MAX_ITERATIONS
    for iterations in range(1, cap + 1):
        r = r_operator(rho)
        cand = r @ rho @ r
        cand = cand / np.trace(cand).real
        step = float(np.linalg.norm(cand - rho))
        rho = cand
        if step < step_tol:
            break
    else:
        raise ConvergenceError(f"MLE did not converge in {cap} iterations", rho, cap)

    ll = loglik(rho)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return MleEstimate(state=DensityMatrix(rho), loglik=ll, iterations=iterations)


def reference_estimates(records, frame) -> dict:
    return {
        prep: reference_mle_estimate([r for r in records if r.prep_label == prep], frame)
        for prep in frame.prep_labels
    }


def assert_same_iterates(estimates, reference):
    assert list(estimates) == list(reference)
    for prep, ref in reference.items():
        est = estimates[prep]
        assert est.iterations == ref.iterations, prep
        np.testing.assert_allclose(est.state.data, ref.state.data, rtol=0, atol=1e-13,
                                   err_msg=prep)
        assert abs(est.loglik - ref.loglik) <= 1e-14, prep


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_embedded_maps(n_qubits, rng):
    # the kernel's real maps against the complex design and effects
    frame = build_frame(n_qubits)
    d = frame.dim
    design, effect_rows, probability_map = _likelihood_design(frame.meas_labels)
    effects = np.concatenate([_measurement_effects(m) for m in frame.meas_labels])
    states = np.array([random_density(d, rng) for _ in range(5)])
    np.testing.assert_allclose(
        _embedded(states).reshape(5, 4 * d * d) @ probability_map,
        (design @ states.reshape(5, d * d).T).T.real, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.trace(_embedded(states), axis1=1, axis2=2), np.ones(5), rtol=0, atol=1e-15)

    coeff = rng.random((5, len(effects)))
    np.testing.assert_allclose(
        _unembedded((coeff @ effect_rows).reshape(5, 2 * d, 2 * d)),
        np.einsum("pk,kij->pij", coeff, effects), rtol=0, atol=1e-14)

    a, b = (rng.standard_normal((2, 5, d, d)) + 1j * rng.standard_normal((2, 5, d, d)))
    np.testing.assert_allclose(_embedded(a) @ _embedded(b), 0.5 * _embedded(a @ b),
                               rtol=0, atol=1e-14)
    np.testing.assert_array_equal(_unembedded(_embedded(a)), a)


@pytest.fixture(scope="module")
def cx_data():
    """CX at 1e5 shots, seed 7, with its reference estimates."""
    model = build_default_model(["CX@1.0"])
    frame = build_frame(2)
    records = simulate_records(model, [CX], 100_000, seed=7, frame=frame)
    return frame, records, reference_estimates(records, frame)


def test_two_qubit_finite_shots(cx_data):
    frame, records, reference = cx_data
    # outcomes an ideal CX never produces: weight 0 in the kernel
    zeros = sum(1 for r in records for key in ("00", "01", "10", "11") if not r.counts.get(key))
    assert zeros == 6
    assert_same_iterates(mle_estimates(records, frame), reference)


def test_reconstruct_channel_runs_the_kernel(cx_data):
    frame, records, reference = cx_data
    result = reconstruct_channel(records, frame)
    assert result.iterations == {p: ref.iterations for p, ref in reference.items()}
    assert all(abs(result.loglik[p] - ref.loglik) <= 1e-14 for p, ref in reference.items())


def test_records_in_shuffled_order(cx_data):
    frame, records, _ = cx_data
    order = np.random.default_rng(5).permutation(len(records))
    shuffled = [records[i] for i in order]
    assert_same_iterates(mle_estimates(shuffled, frame), reference_estimates(shuffled, frame))


def test_one_qubit_finite_shots():
    model = build_default_model(["T"])
    frame = build_frame(1)
    for shots, seed in ((1024, 7), (100_000, 1902)):
        records = simulate_records(model, [GateLabel.parse("T")], shots, seed=seed, frame=frame)
        reference = reference_estimates(records, frame)
        assert_same_iterates(mle_estimates(records, frame), reference)
        for prep, ref in reference.items():  # the one-preparation form of the kernel
            est = mle_estimate([r for r in records if r.prep_label == prep], frame)
            assert est.iterations == ref.iterations
            np.testing.assert_allclose(est.state.data, ref.state.data, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_consistent_exact_data_takes_no_iterations(n_qubits):
    frame = build_frame(n_qubits)
    gate = CX if n_qubits == 2 else GateLabel.parse("H")
    model = build_default_model([str(gate)])
    for channel in (ideal_channel(gate), extract_channel(model, [gate])):
        records = records_from_channel(channel, None)
        estimates = mle_estimates(records, frame)
        assert {est.iterations for est in estimates.values()} == {0}
        assert_same_iterates(estimates, reference_estimates(records, frame))


def bloch_channel(m):
    """The one-qubit unital map acting on Bloch vectors by the 3x3 matrix ``m``."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    transfer = np.eye(4)
    transfer[1:, 1:] = m
    # Pauli matrices over sqrt(2) are orthonormal: S = sum_j vec(out_j) vec(P_j)+ / 2
    outputs = np.einsum("kj,kab->jab", transfer, np.array(paulis))
    return QuantumChannel(sum(np.outer(vec(o), vec(p).conj()) for o, p in zip(outputs, paulis)) / 2)


def test_exact_data_shortcut_and_iteration_share_one_batch():
    # X+ goes to the Bloch vector (0.8, 0.8, 0): every outcome probability
    # lies in [0, 1], but the vector is 1.13 long, so no state reproduces
    # it and X+ iterates to the 1e-9 tolerance; Z+, Z- and Y+ land on
    # states and take the least-squares shortcut
    m = np.array([[0.8, 0.0, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    frame = build_frame(1)
    records = records_from_channel(bloch_channel(m), None)
    assert all(min(r.counts.values()) >= 0.0 for r in records)
    estimates = mle_estimates(records, frame)
    assert {p: est.iterations for p, est in estimates.items() if est.iterations} == {"X+": 47}
    assert_same_iterates(estimates, reference_estimates(records, frame))


def test_spam_kicked_exact_data_iterates():
    # measurement kicks make the exact pseudo-data inconsistent with any
    # ideal-measurement state, so every preparation iterates to a boundary
    # optimum with step tolerance 1e-9
    model = build_default_model(["CX@1.0"], coupling=0.0)
    noisy = replace(model, spam=SpamSpec(prep_strength=0.05, meas_strength=0.05, seed=0))
    frame = build_frame(2)
    records = simulate_records(noisy, [CX], None, frame=frame)
    reference = reference_estimates(records, frame)
    assert all(ref.iterations > 0 for ref in reference.values())
    assert_same_iterates(mle_estimates(records, frame), reference)


def test_one_qubit_billion_shots():
    # a random channel's counts at 1e9 shots, where an iterate's
    # log-likelihood can round below its predecessor's
    channel = random_channel(2, np.random.default_rng(4))
    frame = build_frame(1)
    records = records_from_channel(channel, 10**9, seed=4)
    estimates = mle_estimates(records, frame)
    assert all(est.iterations > 0 for est in estimates.values())
    assert_same_iterates(estimates, reference_estimates(records, frame))


def test_iteration_cap_names_the_first_capped_preparation(cx_data, monkeypatch):
    frame, records, reference = cx_data
    # the first preparation converges on the cap's last iteration
    cap = reference[frame.prep_labels[0]].iterations
    monkeypatch.setattr(tomography, "MLE_MAX_ITERATIONS", cap)
    capped = [p for p in frame.prep_labels if reference[p].iterations > cap]
    assert capped

    with pytest.raises(ConvergenceError) as ref_err:
        for prep in frame.prep_labels:
            failing = prep
            reference_mle_estimate([r for r in records if r.prep_label == prep], frame)
    assert failing == capped[0]
    with pytest.raises(ConvergenceError) as err:
        mle_estimates(records, frame)
    assert repr(failing) in str(err.value)
    assert err.value.iterations == ref_err.value.iterations == cap
    np.testing.assert_allclose(err.value.last_iterate, ref_err.value.last_iterate,
                               rtol=0, atol=1e-13)
