"""Certified diamond distance from a Newton ascent over the input state.

For a Hermiticity-preserving map with Choi matrix J (input factor first)
and R = tr_out J, half the diamond norm is the maximum over input states
rho of the concave function [Watrous, arXiv:1207.5726]

    F(rho) = ||X||_1 / 2 = tr X_+ - tr(R rho) / 2,  X = (sqrt(rho) (x) I) J (sqrt(rho) (x) I).

For full-rank rho, Z = (rho^-1/2 (x) I) X_+ (rho^-1/2 (x) I) is feasible
for the dual SDP ``minimize lambda_max(tr_out Z - R/2) s.t. Z >= 0, Z >= J``
(Z - J is the same congruence of X_-, the magnitude of X's negative
part), so one eigendecomposition of X brackets the optimum between
F(rho), achieved by the returned input state, and lambda_max of the
gradient rho^-1/2 tr_out(X_+) rho^-1/2 - R/2 of F.

Method: damped Newton ascent on F(rho) + mu log det rho in coordinates
rho(x) = A^+ (I + sum_k x_k E_k) A, rho = A^+ A, E_k an orthonormal
Hermitian basis; there the barrier's Hessian is -mu I and, over the
eigenpairs (l, u) of X = (A (x) I) J (A^+ (x) I), that of F is

    2 sum_{l_i > 0 >= l_j} l_i l_j / (l_i - l_j) Re(<u_i|E_k (x) I|u_j> <u_j|E_m (x) I|u_i>).

A KKT row keeps tr rho = 1, a backtracking line search keeps rho > 0,
and mu shrinks tenfold whenever an iterate is centred, until the
certified gap is at most ``GAP_TOL``.  Rigour: near-singular optima make
rho^-1/2 amplify rounding, so rho is kept as V diag(w) V^+ (A = diag(sqrt
w) V^+) and rho^(+-1/2) scale X diagonally.  The floating-point Z is only
nearly feasible; the upper bound is the smaller of two rigorous readings,
Z~ = pospart(J + pospart(Z - J)), feasible by construction, and Z + t I,
t = max(0, -lambda_min(Z - J), -lambda_min(Z)), whose objective is Z's + t d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SolverError
from .qcore import _from_spectrum, _hermitian_function, _hermitian_part, _trace_out_last

#: Certified primal-dual gap at which the ascent stops.
GAP_TOL = 1e-6
#: Newton steps after which :class:`SolverError` is raised.
MAX_NEWTON_STEPS = 200


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis: E_aa, (E_ab + E_ba) / sqrt 2 (a < b), i (E_ab - E_ba) / sqrt 2 (a > b)."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    flip = np.swapaxes(units, 1, 2)
    a, b = np.divmod(np.arange(d * d), d)
    sym, anti = (units + flip) / math.sqrt(2.0), 1j * (units - flip) / math.sqrt(2.0)
    return np.where((a < b)[:, None, None], sym, np.where((a > b)[:, None, None], anti, units))


@dataclass(frozen=True)
class DiamondResult:
    """Certified solution of the channel-distance SDP.

    ``value`` is the certified dual (upper) bound, which exceeds the
    true optimum by at most ``gap``; ``primal_bound`` is the distance
    achieved by the returned witness, so the truth is bracketed as
    ``primal_bound <= optimum <= value``.  ``input_state`` is the
    optimizing input-factor density matrix and ``optimal_input`` the
    corresponding joint system-ancilla input.  ``iterations`` counts
    Newton steps.
    """

    value: float
    gap: float
    iterations: int
    input_state: np.ndarray
    optimal_input: np.ndarray
    primal_bound: float = float("nan")


def _certificate_input(rho: np.ndarray) -> np.ndarray:
    """Joint system (x) ancilla input achieving the bound at ``rho``.

    The witness is the canonical purification |psi> = (A (x) I)|Omega>
    with A = sqrt(rho^T), whose reduced state on the system factor is
    rho^T; applying the difference map to the system factor reproduces
    (sqrt(rho) (x) I) J (sqrt(rho) (x) I) up to an ancilla transpose.
    """
    root = _hermitian_function(rho.T, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    psi = root.reshape(-1)  # sum_i (A e_i) (x) e_i
    return np.outer(psi, psi.conj())


class _Point:
    """rho = V diag(w) V^+ and the eigenpairs (lam, u) of X, formed in the
    eigenbasis of rho, where sqrt(rho) (x) I is the diagonal ``scale``."""

    def __init__(self, vecs: np.ndarray, w: np.ndarray, choi: np.ndarray):
        root = np.repeat(np.sqrt(w), len(w))
        self.vecs, self.w, self.rot = vecs, w, np.kron(vecs, np.eye(len(w)))
        self.scale = np.outer(root, root)
        x = _hermitian_part(self.rot.conj().T @ choi @ self.rot) * self.scale
        self.lam, self.u = np.linalg.eigh(x)
        self.value = 0.5 * float(np.sum(np.abs(self.lam)))
        self.x_plus = _from_spectrum(np.clip(self.lam, 0.0, None), self.u)

    def upper_bound(self, choi: np.ndarray, half_r: np.ndarray) -> float:
        """lambda_max(tr_out Z - R/2), read rigorously (module docstring)."""
        d = len(self.w)
        z = _hermitian_part(self.rot @ (self.x_plus / self.scale) @ self.rot.conj().T)
        w, v = np.linalg.eigh(z - choi)
        shift = max(0.0, -w[0], -np.linalg.eigvalsh(z)[0])
        repaired = _hermitian_function(choi + _from_spectrum(np.clip(w, 0.0, None), v),
                                       lambda e: np.clip(e, 0.0, None))
        return min(float(np.linalg.eigvalsh(_trace_out_last(z, d) - half_r)[-1]) + d * shift,
                   float(np.linalg.eigvalsh(_trace_out_last(repaired, d) - half_r)[-1]))

    def newton_step(self, mu: float, basis: np.ndarray, half_r: np.ndarray):
        """Newton direction H = sum x_k E_k, its slope and squared decrement."""
        d, root = len(self.w), np.sqrt(self.w)
        grad = _trace_out_last(self.x_plus, d) + mu * np.eye(d)
        grad -= root[:, None] * (self.vecs.conj().T @ half_r @ self.vecs) * root[None, :]
        grad = np.einsum("ab,kba->k", grad, basis).real
        pos = self.lam > 0
        lifted = basis @ self.u[:, ~pos].reshape(d, -1)  # (E_k (x) I) u_j, j with l_j <= 0
        proj = self.u[:, pos].conj().T @ lifted.reshape(len(basis), d * d, -1)
        lp, ln = self.lam[pos, None], self.lam[None, ~pos]
        rows = (proj * np.sqrt(lp * -ln / (lp - ln))).reshape(len(basis), -1)
        hess = -2.0 * (rows @ rows.conj().T).real - mu * np.eye(len(basis))
        trace_row = np.einsum("a,kaa->k", self.w, basis).real  # tr(rho(x)) - 1
        kkt = np.block([[hess, trace_row[:, None]], [trace_row[None, :], np.zeros((1, 1))]])
        x = np.linalg.solve(kkt, np.append(-grad, 0.0))[:-1]
        return np.einsum("k,kab->ab", x, basis), float(grad @ x), float(-x @ hess @ x)

    def line_search(self, direction, slope: float, mu: float, choi: np.ndarray):
        """The first step 2^-k (k < 40) keeping rho > 0 with Armijo ascent, or None."""
        root = np.sqrt(self.w)
        start = self.value + mu * float(np.sum(np.log(self.w)))
        for t in 0.5 ** np.arange(40):
            w, q = np.linalg.eigh(root[:, None] * (np.eye(len(root)) + t * direction) * root)
            if w[0] > 0.0:
                trial = _Point(self.vecs @ q, w / np.sum(w), choi)
                if trial.value + mu * float(np.sum(np.log(trial.w))) >= start + 0.25 * t * slope:
                    return trial
        return None


def diamond_sdp(choi: np.ndarray) -> DiamondResult:
    """Solve the distance SDP for a Hermitian difference Choi matrix.

    ``choi`` uses the package ordering (input factor first) and trace-d
    scaling for each of the two channels being compared.  Raises
    :class:`SolverError`, carrying the best certified gap, when the gap
    cannot be brought to ``GAP_TOL`` within ``MAX_NEWTON_STEPS``.
    """
    d = math.isqrt(choi.shape[0])
    choi = _hermitian_part(choi)
    if np.max(np.abs(choi)) < 1e-14:
        rho = np.eye(d, dtype=complex) / d
        return DiamondResult(0.0, 0.0, 0, rho, _certificate_input(rho), 0.0)

    half_r, basis = 0.5 * _trace_out_last(choi, d), _hermitian_basis(d)
    pt = best = _Point(np.eye(d, dtype=complex), np.full(d, 1.0 / d), choi)
    mu, upper, steps = pt.value / d, math.inf, 0
    while pt is not None:
        best = pt if pt.value > best.value else best
        # a bound read below an achieved value is rounding: the optimum is at least that value
        upper = max(min(upper, pt.upper_bound(choi, half_r)), best.value)
        if upper - best.value <= GAP_TOL or steps == MAX_NEWTON_STEPS:
            break
        direction, slope, decrement = pt.newton_step(mu, basis, half_r)
        pt, steps = pt.line_search(direction, slope, mu, choi), steps + 1
        if decrement <= 0.25 * mu:  # centred: shrink the barrier
            mu *= 0.1
    gap = upper - best.value
    if gap > GAP_TOL:
        raise SolverError(f"distance SDP stalled at gap {gap:.3e} after {steps} Newton steps", gap)
    rho = _from_spectrum(best.w, best.vecs)
    return DiamondResult(upper, gap, steps, rho, _certificate_input(rho), best.value)
