"""The batched likelihood kernel against a one-preparation-at-a-time
reference.

``reference_mle_estimate`` is the per-preparation diluted fixed point
that ``tomography.mle_estimate`` ran before the kernel batched it: the
same iteration, with the probabilities of each iterate computed by
``einsum`` over the outcomes with nonzero counts only.  The kernel must
reproduce it preparation by preparation: the same iteration counts,
states to 1e-13 and log-likelihoods to 1e-14.  The one exception is a
likelihood gate that compares two values equal to roundoff, which only
exact-mode data with a 1e-9 step tolerance meets; see
``test_spam_kicked_exact_data_dilutes``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gatemem import tomography
from gatemem.channels import GateLabel
from gatemem.exceptions import ConvergenceError, IncompleteDataError
from gatemem.pipeline import reconstruct_channel, records_from_channel, simulate_records
from gatemem.qcore import DensityMatrix
from gatemem.simulator import SpamSpec, build_default_model, extract_channel
from gatemem.tomography import (
    MleEstimate,
    _embedded,
    _group_by_setting,
    _likelihood_design,
    _measurement_effects,
    _unembedded,
    build_frame,
    mle_estimate,
    mle_estimates,
)

from conftest import ideal_channel, random_density

CX = GateLabel.parse("CX@1.0")


def reference_mle_estimate(records, frame, diagnostics=None):
    """One preparation's diluted fixed point, one iterate at a time.

    A ``diagnostics`` dict receives the number of diluted steps and the
    smallest log-likelihood difference the gate compared.
    """
    grouped = _group_by_setting(records)
    missing = [m for m in frame.meas_labels if m not in grouped]
    if missing:
        raise IncompleteDataError(f"missing measurement settings: {missing}", missing)

    d = frame.dim
    settings = list(frame.meas_labels)
    effects = np.concatenate([_measurement_effects(m) for m in settings])
    freqs = np.concatenate([grouped[m].frequencies() for m in settings])
    weights = np.repeat([grouped[m].weight for m in settings], d)
    total_weight = float(sum(grouped[m].weight for m in settings))
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

    ident = np.eye(d, dtype=complex)
    rho = ident / d
    ll = loglik(rho)
    iterations = 0
    stalled = False
    polish_left = 1_000
    cap = tomography.MLE_MAX_ITERATIONS
    dilutions, closest = 0, math.inf
    for iterations in range(1, cap + 1):
        r = r_operator(rho)
        cand = r @ rho @ r
        cand = cand / np.trace(cand).real
        if not stalled:
            ll_cand = loglik(cand)
            closest = min(closest, abs(ll_cand - ll))
            if ll_cand < ll:
                dilutions += 1
                eps = 0.5
                while eps > 1e-8:
                    g = ident + eps * (r - ident)
                    diluted = g @ rho @ g
                    diluted = diluted / np.trace(diluted).real
                    ll_diluted = loglik(diluted)
                    closest = min(closest, abs(ll_diluted - ll))
                    if ll_diluted >= ll:
                        cand, ll_cand = diluted, ll_diluted
                        break
                    eps *= 0.5
                if ll_cand < ll:
                    stalled = True
                    cand = r @ rho @ r
                    cand = cand / np.trace(cand).real
                    ll_cand = ll
            ll = ll_cand
        else:
            polish_left -= 1
        step = float(np.linalg.norm(cand - rho))
        rho = cand
        if step < step_tol or (stalled and polish_left <= 0):
            break
    else:
        raise ConvergenceError(f"MLE did not converge in {cap} iterations", rho, cap)
    if diagnostics is not None:
        diagnostics.update(dilutions=dilutions, closest=closest)

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
        records = records_from_channel(channel, None, frame=frame)
        estimates = mle_estimates(records, frame)
        assert {est.iterations for est in estimates.values()} == {0}
        assert_same_iterates(estimates, reference_estimates(records, frame))


def test_spam_kicked_exact_data_dilutes():
    # measurement kicks make the exact pseudo-data inconsistent with any
    # ideal-measurement state, so the iteration runs to a boundary
    # optimum with step tolerance 1e-9 and dilutes on the way
    model = build_default_model(["CX@1.0"], coupling=0.0)
    noisy = replace(model, spam=SpamSpec(prep_strength=0.05, meas_strength=0.05, seed=0))
    frame = build_frame(2)
    records = simulate_records(noisy, [CX], None, frame=frame)
    estimates = mle_estimates(records, frame)
    dilutions, exact_matches = 0, 0
    for prep in frame.prep_labels:
        diagnostics = {}
        ref = reference_mle_estimate(
            [r for r in records if r.prep_label == prep], frame, diagnostics)
        est = estimates[prep]
        assert ref.iterations > 0
        assert abs(est.loglik - ref.loglik) <= 1e-14, prep
        dilutions += diagnostics["dilutions"]
        if diagnostics["closest"] >= 1e-13:
            assert_same_iterates({prep: est}, {prep: ref})
            exact_matches += 1
            continue
        # The gate compared two log-likelihoods that agree to the last
        # bits: the kernel's and the reference's summation orders may
        # round the pair either way, and past that step the iterates part
        # by what the 1e-9 step tolerance leaves unresolved.
        np.testing.assert_allclose(est.state.data, ref.state.data, rtol=0, atol=1e-7,
                                   err_msg=prep)
        assert abs(est.iterations - ref.iterations) <= 0.1 * ref.iterations, prep
    assert dilutions > 0
    assert exact_matches >= len(frame.prep_labels) // 2


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
