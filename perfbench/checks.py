"""Output checks that do not trust the code they check.

Each reference here is computed from first principles with plain numpy,
not through ``gatemem``:

* the Choi matrix and the primal value of the diamond-distance SDP at
  the solver's own witness, so a reported ``primal_bound`` is re-derived;
* the averaged trace distance between two qubit channels by quadrature
  over the Bloch sphere (Gauss-Legendre in cos(theta), trapezoid in
  phi), which a Monte-Carlo estimate must match within its standard
  error whatever random stream produced it;
* the log-likelihood of the simulator's true output state on a record
  set, which a maximum-likelihood estimate may trail by at most
  ``NAT_SLACK`` nats.
"""

from __future__ import annotations

import math

import numpy as np

#: Diamond certificates: the solver's tolerance on the primal-dual gap.
GAP_TOL = 1e-6
#: Averaged cells may sit this many combined standard errors from a reference.
AVG_SIGMAS = 5.0
#: Slack on likelihood comparisons (per-shot normalized log-likelihood).
LOGLIK_SLACK = 1e-9
#: How far, in total nats, an estimate may trail the true state.  The
#: finite-shot stopping rule halts within a small fraction of the
#: statistical resolution; the true state itself trails the maximum by
#: about (d^2 - 1) / 2 nats.
NAT_SLACK = 1.0

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_SDAG = np.array([[1, 0], [0, -1j]], dtype=complex)
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# basis change before a computational-basis readout of the labelled Pauli
_ROTATION = {"X": _H, "Y": _H @ _SDAG, "Z": np.eye(2, dtype=complex)}


def _vec(mat: np.ndarray) -> np.ndarray:
    return mat.reshape(-1, order="F")


def _unvec(vector: np.ndarray, d: int) -> np.ndarray:
    return vector.reshape(d, d, order="F")


def choi(superop: np.ndarray) -> np.ndarray:
    """sum_ij |i><j| (x) Phi(|i><j|): input factor first, trace d."""
    d = math.isqrt(superop.shape[0])
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out += np.kron(unit, _unvec(superop @ _vec(unit), d))
    return out


def conditional(joint: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Superoperator of the map conditioned on the first gate."""
    return joint @ np.linalg.inv(first)


def cp_violation(superop: np.ndarray) -> float:
    """Trace-norm excess of the trace-1 Choi matrix (zero for CP maps)."""
    d = math.isqrt(superop.shape[0])
    c = choi(superop) / d
    return max(float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (c + c.conj().T))))) - 1.0, 0.0)


def close(value: float, ref: float, tol: float = 1e-9) -> list[str]:
    if not abs(value - ref) <= tol * max(1.0, abs(ref)):
        return [f"{value!r} differs from {ref!r}"]
    return []


def diamond_primal(superop_a: np.ndarray, superop_b: np.ndarray, rho: np.ndarray) -> float:
    """0.5 ||(sqrt(rho) (x) I) J (sqrt(rho) (x) I)||_1 for J the difference Choi."""
    delta = choi(superop_a) - choi(superop_b)
    delta = 0.5 * (delta + delta.conj().T)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    side = np.kron(root, np.eye(rho.shape[0]))
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(side @ delta @ side))))


def diamond_problems(result, superop_a, superop_b) -> list[str]:
    """Certificate checks on one solver result; empty when it passes."""
    problems = []
    if not (result.gap <= GAP_TOL):
        problems.append(f"gap {result.gap:.3e} > {GAP_TOL}")
    if not (result.primal_bound <= result.value):
        problems.append(f"primal {result.primal_bound!r} > value {result.value!r}")
    primal = diamond_primal(superop_a, superop_b, result.input_state)
    if abs(primal - result.primal_bound) > 1e-8 * max(1.0, primal):
        problems.append(f"witness gives {primal!r}, solver reports {result.primal_bound!r}")
    return problems


def avg_distance_qubit(superop_a: np.ndarray, superop_b: np.ndarray,
                       n_theta: int = 192, n_phi: int = 384) -> tuple[float, float]:
    """Mean and standard deviation of the output trace distance over
    Haar-random pure qubit inputs.

    A pure input is rho = (I + n.sigma)/2 with n uniform on the sphere,
    so the output difference is affine in n and both moments are smooth
    surface integrals.  The deviation gives the standard error a
    Monte-Carlo mean over m samples should have: sd / sqrt(m).
    """
    delta = np.asarray(superop_a) - np.asarray(superop_b)
    parts = [_unvec(delta @ _vec(np.eye(2, dtype=complex) / 2), 2)]
    parts += [_unvec(delta @ _vec(p / 2), 2) for p in _PAULIS]
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - x**2)[:, None]
    n = (s * np.cos(phi), s * np.sin(phi), np.broadcast_to(x[:, None], (n_theta, n_phi)))
    out = parts[0][None, None] + sum(c[..., None, None] * p for c, p in zip(n, parts[1:]))
    out = 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))
    p, r, q = out[..., 0, 0].real, out[..., 1, 1].real, out[..., 0, 1]
    mid = 0.5 * (p + r)
    rad = np.sqrt((0.5 * (p - r)) ** 2 + np.abs(q) ** 2)
    dist = 0.5 * (np.abs(mid + rad) + np.abs(mid - rad))
    mean = float(0.5 * np.sum(w[:, None] * dist) / n_phi)
    second = float(0.5 * np.sum(w[:, None] * dist**2) / n_phi)
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def avg_problems(mean: float, stderr: float, ref: float, ref_stderr: float = 0.0) -> list[str]:
    tol = AVG_SIGMAS * math.hypot(stderr, ref_stderr) + 1e-12
    if not (math.isfinite(mean) and abs(mean - ref) <= tol):
        return [f"mean {mean!r} vs reference {ref!r} (tolerance {tol:.3e})"]
    return []


def mle_problems(estimates: dict, truths: dict, records, reference=None) -> list[str]:
    """Per-preparation likelihood checks on one reconstruction.

    ``estimates`` maps preparation label to the reported log-likelihood
    and ``truths`` to the simulator's exact output state.  An estimate
    may trail the true state by at most ``NAT_SLACK`` nats over the
    whole record set, and never trail the committed reference.
    """
    problems = []
    for prep, ll in estimates.items():
        prep_records = [r for r in records if r.prep_label == prep]
        weight = sum(r.shots if r.shots is not None else 1.0 for r in prep_records)
        deficit = (loglik(truths[prep], prep_records) - ll) * weight
        if not (deficit <= NAT_SLACK):
            problems.append(f"{prep}: estimate trails the true state by {deficit:.3g} nats")
    if reference is not None:
        for (prep, ll), ref in zip(estimates.items(), reference):
            if not (ll >= ref - LOGLIK_SLACK):
                problems.append(f"{prep}: log-likelihood {ll!r} below reference {ref!r}")
    return problems


def rotation(meas_label: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for symbol in meas_label.split("*"):
        out = np.kron(out, _ROTATION[symbol])
    return out


def loglik(state: np.ndarray, records) -> float:
    """Shot-normalized log-likelihood of ``state`` on one preparation's records."""
    total, weight = 0.0, 0.0
    for rec in records:
        rot = rotation(rec.meas_label)
        probs = np.maximum(np.real(np.diag(rot @ state @ rot.conj().T)), 1e-300)
        n = len(rec.meas_label.split("*"))
        keys = [format(i, f"0{n}b") for i in range(2**n)]
        counts = np.array([rec.counts.get(k, 0) for k in keys], dtype=float)
        total += float(counts @ np.log(probs))
        weight += rec.shots if rec.shots is not None else 1.0
    return total / weight
