"""Semidefinite kernels: unit-diagonal SDP and a fractional solver on top.

solve_unit_diag_sdp maximizes tr(C X) over {X Hermitian, X >= 0 (PSD),
diag(X) = 1} with ADMM operator splitting: an affine projection (pin the
diagonal) alternates with a PSD projection (dense eigendecomposition).
Convergence is declared only through a certified optimality gap that is
valid at any iterate:

  lower bound: tr(C X_hat) at the exactly feasible X_hat = S Z S,
               S = diag(1/sqrt(diag Z));
  upper bound: the dual of the problem is min sum(y) s.t. Diag(y) >= C,
               so any real y shifted by the most negative eigenvalue of
               Diag(y) - C is dual feasible. The candidate y comes from
               the ADMM stationarity condition y = diag(C) - rho*diag(U).

solve_fractional_sdp maximizes (ns*tr(N V)) / (ds*tr(D V) + off) over the
same feasible set, for rank-one N = w_num w_num^H and D = w_den w_den^H given
by their factors. It runs Dinkelbach iteration from a caller-supplied
feasible rank-one start, each step solving the inner SDP with
C = ns*N - lambda*ds*D and warm-starting from the previous state. The
certified inner bounds give a certified upper bound on the ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ValidationError, _integer

# Allowance for eigensolver backward error when certifying dual feasibility.
_EIG_SAFETY = 1e-12
# ADMM iterations between certificate checks.
_CHECK_EVERY = 25
# Starting inner-SDP tolerance and step cap of the Dinkelbach iteration.
_INNER_TOL = 1e-7
_MAX_STEPS = 50


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Certified solve result; objective is tr(C x_opt) at the feasible, read-only x_opt."""

    x_opt: np.ndarray
    objective: float
    duality_gap_estimate: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """Dinkelbach result; ratio_opt is attained by the feasible, read-only v_opt."""

    v_opt: np.ndarray
    ratio_opt: float
    ratio_upper_bound: float
    inner_solves: int
    converged: bool


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _hermitian(m) -> np.ndarray:
    """A caller's matrix as a read-only symmetrized complex array.

    Checked once, where it enters: square, nonempty, finite, and Hermitian
    up to 1e-8 relative asymmetry.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValidationError("matrix entries must be finite")
    scale = np.linalg.norm(arr)
    asym = np.linalg.norm(arr - arr.conj().T)
    if asym > 1e-8 * max(1.0, scale):
        raise ValidationError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} at scale {scale:.3e}"
        )
    sym = _hermitize(arr)
    sym.setflags(write=False)
    return sym


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b) for Hermitian a, b (real up to rounding)."""
    return float(np.real(np.vdot(a, b)))


def _feasible_primal(c: np.ndarray, z: np.ndarray) -> tuple:
    """Rescale z onto the unit diagonal, preserving PSD; return (tr(c x), x)."""
    d = np.real(np.diag(z)).copy()
    ok = d > 1e-12
    s = np.zeros_like(d)
    s[ok] = 1.0 / np.sqrt(d[ok])
    x = z * np.outer(s, s)
    if not np.all(ok):
        bad = ~ok
        x[bad, :] = 0.0
        x[:, bad] = 0.0
    x = _hermitize(x)
    np.fill_diagonal(x, 1.0)
    return _real_trace_product(c, x), x


def _feasible_dual_bound(c: np.ndarray, rho: float, u: np.ndarray) -> float:
    """Upper bound from the dual min sum(y) s.t. Diag(y) >= c."""
    y = np.real(np.diag(c)) - rho * np.real(np.diag(u))
    m = np.diag(y).astype(complex) - c
    lam_min = float(np.linalg.eigvalsh(m)[0])
    slack = _EIG_SAFETY * max(1.0, float(np.linalg.norm(m)))
    mu = max(0.0, -(lam_min - slack))
    return float(np.sum(y) + len(y) * mu)


def solve_unit_diag_sdp(
    c,
    tol: float = 1e-7,
    max_iters: int = 20000,
    state: dict | None = None,
) -> SdpSolution:
    """Maximize tr(c X) s.t. diag(X) = 1, X PSD, with a certified gap.

    Stops when upper - lower <= tol*(1 + |lower|). state carries the
    splitting state (z, u, rho) across related solves: each key present
    warm-starts its part, each missing key starts cold (z = I, u = 0,
    rho = max(||c||/n, 1e-12)), and any dict is updated with the final state.
    """
    cm = _hermitian(c)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    max_iters = _integer("max_iters", max_iters, 0)
    n = cm.shape[0]

    seeded = state or {}
    z = np.array(seeded["z"], dtype=complex) if "z" in seeded else np.eye(n, dtype=complex)
    u = np.array(seeded["u"], dtype=complex) if "u" in seeded else np.zeros((n, n), dtype=complex)
    rho = float(seeded["rho"]) if "rho" in seeded else max(float(np.linalg.norm(cm)) / n, 1e-12)
    if z.shape != cm.shape or u.shape != cm.shape:
        raise ValidationError(
            f"state z and u must have the shape of c {cm.shape}, got {z.shape} and {u.shape}"
        )

    alpha = 1.6  # over-relaxation
    best_lb = -math.inf
    best_ub = math.inf
    best_x = None
    converged = False
    iterations = 0

    def certify() -> bool:
        nonlocal best_lb, best_ub, best_x
        lb, x_hat = _feasible_primal(cm, z)
        if lb > best_lb:
            best_lb, best_x = lb, x_hat
        best_ub = min(best_ub, _feasible_dual_bound(cm, rho, u))
        return max(0.0, best_ub - best_lb) <= tol * (1.0 + abs(best_lb))

    # The iterates are not symmetrized: eigh reads only the lower triangle
    # of m, and the anti-Hermitian rounding carried in u is scaled by
    # 1 - alpha each step, so it stays at rounding level.
    converged = certify()
    if not converged:
        diag = np.arange(n)
        c_rho = cm / rho
        for it in range(1, max_iters + 1):
            iterations = it
            x = z - u + c_rho
            x[diag, diag] = 1.0
            m = alpha * x + (1.0 - alpha) * z + u
            w, q = np.linalg.eigh(m)
            np.maximum(w, 0.0, out=w)
            z_new = (q * w) @ q.conj().T
            u = m - z_new
            if it % 10 == 0:
                pri = float(np.linalg.norm(x - z_new))
                dua = rho * float(np.linalg.norm(z_new - z))
                if pri > 10.0 * dua:
                    rho *= 2.0
                    u /= 2.0
                    c_rho = cm / rho
                elif dua > 10.0 * pri:
                    rho /= 2.0
                    u *= 2.0
                    c_rho = cm / rho
            z = z_new
            if it % _CHECK_EVERY == 0 and certify():
                converged = True
                break
        else:
            converged = certify() if max_iters > 0 else converged

    if best_x is None:  # pragma: no cover - certify always runs at least once
        _, best_x = _feasible_primal(cm, z)
        best_lb = _real_trace_product(cm, best_x)
    if state is not None:
        state.update({"z": z, "u": u, "rho": rho})
    best_x.setflags(write=False)
    return SdpSolution(
        x_opt=best_x,
        objective=best_lb,
        duality_gap_estimate=max(0.0, best_ub - best_lb),
        iterations=iterations,
        converged=converged,
    )


def _phase_project(x: np.ndarray) -> np.ndarray:
    """Unit-modulus projection with the last (homogenization) entry pinned to 1."""
    mag = np.abs(x)
    out = np.ones(x.shape, dtype=complex)
    nz = mag > 0.0
    out[nz] = x[nz] / mag[nz]
    out = out * np.conj(out[-1])
    out[-1] = 1.0
    return out


def solve_fractional_sdp(
    w_num,
    w_den,
    num_scale: float,
    den_scale: float,
    den_offset: float,
    start,
    tol: float = 1e-6,
    inner_max_iters: int = 20000,
) -> FractionalSolution:
    """Maximize (num_scale*tr(N V)) / (den_scale*tr(D V) + den_offset).

    N = w_num w_num^H and D = w_den w_den^H are given by their rank-one
    factors. Feasible set: V Hermitian PSD with unit diagonal. start is a
    unit-modulus vector; its lifting start start^H seeds the incumbent, the
    first lambda and the splitting state. Dinkelbach iteration with
    incumbent retention, so lambda never decreases. Stops once
    the certified gap on the ratio, ratio_upper_bound - ratio_opt, falls
    below tol*(1 + |ratio_opt|), or after _MAX_STEPS steps. The problem is
    internally normalized so that num_scale*tr(N) + den_scale*tr(D) +
    den_offset = 1, making tolerances meaningful for arbitrarily scaled
    physical inputs (the ratio is unchanged).
    """
    w_num, w_den, start = (np.asarray(x, dtype=complex) for x in (w_num, w_den, start))
    if w_num.ndim != 1 or w_num.size < 1 or not w_num.shape == w_den.shape == start.shape:
        raise ValidationError(
            "w_num, w_den and start must be nonempty 1-D arrays of one length, got "
            f"shapes {w_num.shape}, {w_den.shape}, {start.shape}"
        )
    if not all(np.all(np.isfinite(x)) for x in (w_num, w_den, start)):
        raise ValidationError("w_num, w_den and start must be finite")
    if np.any(np.abs(np.abs(start) - 1.0) > 1e-9):
        raise ValidationError("start must have unit-modulus entries")
    for name, v in (("num_scale", num_scale), ("den_scale", den_scale)):
        if not (math.isfinite(v) and v >= 0.0):
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
    if not (math.isfinite(den_offset) and den_offset > 0.0):
        raise ValidationError(f"den_offset must be > 0, got {den_offset!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be positive, got {tol!r}")

    num = _hermitize(np.outer(w_num, w_num.conj()))
    den = _hermitize(np.outer(w_den, w_den.conj()))
    scale = (
        num_scale * float(np.real(np.trace(num)))
        + den_scale * float(np.real(np.trace(den)))
        + den_offset
    )
    a = (num_scale / scale) * num
    b = (den_scale / scale) * den
    off = den_offset / scale

    def ratio_parts(v: np.ndarray) -> tuple:
        f = _real_trace_product(a, v)
        g = _real_trace_product(b, v) + off
        if f < -1e-9 or g <= 0.0:
            raise ValidationError(
                f"negative trace in fractional objective: f={f:.3e}, g={g:.3e}"
            )
        return max(f, 0.0), g

    best_v = np.outer(start, start.conj())
    best_v.setflags(write=False)
    f, g = ratio_parts(best_v)
    best_ratio = lam = f / g
    ratio_upper = math.inf
    state: dict = {"z": best_v}
    inner_solves = 0
    converged = False
    inner_tol = _INNER_TOL

    for _ in range(_MAX_STEPS):
        sol = solve_unit_diag_sdp(a - lam * b, tol=inner_tol, max_iters=inner_max_iters, state=state)
        inner_solves += 1
        v = sol.x_opt
        f, g = ratio_parts(v)
        if f / g > best_ratio:
            best_ratio = f / g
            best_v = v
        # Certified upper bound: for any feasible V, F - lam*G <= phi(lam)
        # <= inner objective + inner gap - lam*off, and G >= off.
        phi_ub = sol.objective + sol.duality_gap_estimate - lam * off
        ratio_upper = min(ratio_upper, lam + max(phi_ub, 0.0) / off)
        lam = best_ratio
        if ratio_upper - best_ratio <= tol * (1.0 + abs(best_ratio)):
            converged = True
            break
        # A warm-started re-solve exits immediately once it meets the inner
        # tolerance, so when the inner certificate dominates the residual
        # the outer gap can only shrink by tightening that tolerance.
        if sol.duality_gap_estimate > 0.5 * max(phi_ub, 0.0):
            inner_tol = max(0.1 * inner_tol, 1e-13)

    ratio_upper = max(ratio_upper, best_ratio)
    return FractionalSolution(
        v_opt=best_v,
        ratio_opt=best_ratio,
        ratio_upper_bound=ratio_upper,
        inner_solves=inner_solves,
        converged=converged,
    )


def extract_rank_one(v, n_draws: int, seed, score) -> tuple:
    """Best unit-modulus vector from eigen and Gaussian candidates.

    The pool is one (n, n_draws + 1) array: column 0 is the phase-projected
    leading eigenvector of v, the other columns are n_draws phase-projected
    samples from CN(0, v); every column has its last entry pinned to
    exactly 1. score maps the whole (n, m) block to its m scores in one
    call. Returns (vector, score) for the maximum; ties keep the earliest
    column and a NaN score never wins: it counts as -inf.
    """
    v = _hermitian(v)
    n_draws = _integer("n_draws", n_draws, 1)
    w, q = np.linalg.eigh(v)
    root = q * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    shape = (v.shape[0], n_draws)
    samples = root @ ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0))
    pool = _phase_project(np.column_stack([q[:, -1], samples]))
    scores = np.asarray(score(pool), dtype=float)
    if scores.shape != (pool.shape[1],):
        raise ValidationError(
            f"score must return one value per column, got shape {scores.shape}"
        )
    scores = np.where(np.isnan(scores), -np.inf, scores)
    best = int(np.argmax(scores))
    return pool[:, best].copy(), float(scores[best])
