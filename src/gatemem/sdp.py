"""First-order semidefinite solver for the worst-case channel distance.

For a Hermiticity-preserving map with Choi matrix J (input factor
first), the completely bounded trace norm satisfies

    ||Xi||_cb = max_rho || (sqrt(rho) (x) I) J (sqrt(rho) (x) I) ||_1

with rho ranging over input states [Watrous, arXiv:1207.5726].  Half
that value -- the quantity returned here -- is the optimum of the SDP

    maximize    <J, W> - tr(R rho) / 2        (R = tr_out J)
    subject to  0 <= W <= rho (x) I_out,  rho >= 0,  tr rho = 1,

whose Lagrangian dual is

    minimize    lambda_max( tr_out(Z) - R / 2 )
    subject to  Z >= 0  and  Z >= J.

The two problems are attacked simultaneously with a primal-dual hybrid
gradient (Chambolle-Pock) splitting on the saddle form

    min_{Z >= J}  max_{rho in D, Y >= 0}  <tr_out Z, rho> - <R, rho>/2 - <Y, Z>.

Every iterate yields a certified bound pair in closed form:

* lower bound: 0.5 * ||(sqrt(rho) (x) I) J (sqrt(rho) (x) I)||_1 for the
  current (feasible) rho;
* upper bound: lambda_max(tr_out(Z~) - R/2) for the repaired dual point
  Z~ = pospart(J + pospart(Z - J)), which satisfies both dual cone
  constraints by construction and leaves feasible points unchanged.

The reported gap is therefore a rigorous primal-dual certificate, not a
residual heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SolverError
from .qcore import _half_trace_norm, _hermitian_function, _project_simplex


def _psd_part(mat: np.ndarray) -> np.ndarray:
    return _hermitian_function(mat, lambda w: np.clip(w, 0.0, None))


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    return _hermitian_function(mat, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def _project_density(mat: np.ndarray) -> np.ndarray:
    return _hermitian_function(0.5 * (mat + mat.conj().T), _project_simplex)


def _trace_out(mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum(mat.reshape(d_in, d_out, d_in, d_out), [0, 2, 1, 2], [0, 1])


@dataclass(frozen=True)
class DiamondResult:
    """Certified solution of the channel-distance SDP.

    ``value`` is the certified dual (upper) bound, which exceeds the
    true optimum by at most ``gap``; ``primal_bound`` is the distance
    achieved by the returned witness, so the truth is bracketed as
    ``primal_bound <= optimum <= value``.  ``input_state`` is the
    optimizing input-factor density matrix and ``optimal_input`` the
    corresponding joint system-ancilla input.
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
    d = rho.shape[0]
    a = _sqrt_psd(rho.T)
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        psi += np.kron(a @ e, e)
    return np.outer(psi, psi.conj())


def diamond_sdp(
    choi: np.ndarray,
    gap_tol: float = 1e-6,
    max_iterations: int = 2_000_000,
    check_every: int = 25,
) -> DiamondResult:
    """Solve the distance SDP for a Hermitian difference Choi matrix.

    ``choi`` uses the package ordering (input factor first) and trace-d
    scaling for each of the two channels being compared.  Raises
    :class:`SolverError` when the certified gap cannot be brought below
    ``gap_tol`` within ``max_iterations``.
    """
    n = choi.shape[0]
    d = math.isqrt(n)
    choi = 0.5 * (choi + choi.conj().T)

    if np.max(np.abs(choi)) < 1e-14:
        rho = np.eye(d, dtype=complex) / d
        return DiamondResult(0.0, 0.0, 0, rho, _certificate_input(rho), 0.0)

    r_marg = _trace_out(choi, d, d)
    j_plus = _psd_part(choi)
    eye_out = np.eye(d, dtype=complex)

    def lower_bound(rho: np.ndarray) -> float:
        sq = np.kron(_sqrt_psd(rho), eye_out)
        return float(_half_trace_norm(sq @ choi @ sq))

    def upper_bound(z: np.ndarray) -> float:
        z_feas = _psd_part(choi + _psd_part(z - choi))
        marg = _trace_out(z_feas, d, d) - 0.5 * r_marg
        return float(np.linalg.eigvalsh(marg)[-1])

    # warm start: Z = pospart(J) is dual feasible; rho maximally mixed
    z = j_plus.copy()
    z_bar = z.copy()
    y = np.zeros_like(choi)
    rho = np.eye(d, dtype=complex) / d

    step = 0.99 / math.sqrt(d + 1.0)
    tau = sigma = step

    best_lb = lower_bound(rho)
    best_ub = upper_bound(z)
    best_rho = rho.copy()
    iterations = 0

    while best_ub - best_lb > gap_tol and iterations < max_iterations:
        for _ in range(check_every):
            rho = _project_density(rho + sigma * (_trace_out(z_bar, d, d) - 0.5 * r_marg))
            y = _psd_part(y - sigma * z_bar)
            z_new = choi + _psd_part(z - tau * (np.kron(rho, eye_out) - y) - choi)
            z_bar = 2.0 * z_new - z
            z = z_new
            iterations += 1
        lb = lower_bound(rho)
        if lb > best_lb:
            best_lb = lb
            best_rho = rho.copy()
        best_ub = min(best_ub, upper_bound(z))

    gap = best_ub - best_lb
    if gap > gap_tol:
        raise SolverError(
            f"distance SDP stalled at gap {gap:.3e} after {iterations} iterations", gap
        )
    return DiamondResult(
        value=float(best_ub),
        gap=float(gap),
        iterations=iterations,
        input_state=best_rho,
        optimal_input=_certificate_input(best_rho),
        primal_bound=float(best_lb),
    )
