"""Semidefinite kernels: unit-diagonal SDP and a fractional solver on top.

solve_unit_diag_sdp maximizes tr(C X) over {X Hermitian, X >= 0 (PSD),
diag(X) = 1} with ADMM operator splitting: an affine projection (pin the
diagonal) alternates with a PSD projection. From order _SPLIT_MIN_ORDER
up, while one side of the spectrum holds at most one eigenvalue (the
common case), a projection costs one Cholesky factorization, which
certifies it: a lone eigenvector is refined by Rayleigh-Ritz on a Krylov
space of dimension at most 3 (by a Rayleigh-quotient step, an LU solve,
when that pair's residual is too large), and an empty side needs none.
Otherwise the projection is a dense eigendecomposition.
Convergence is declared only through a certified optimality gap that is
valid at any iterate. It is checked at the start, at iterations 1, 2, 4, 8
and 16, and then at every multiple of 25, so a solve that is certifiable
early stops early:

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
C = ns*N - lambda*ds*D and starting its splitting at the incumbent. The
certified inner bounds give a certified upper bound on the ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ValidationError, _integer

# Allowance for eigensolver backward error when certifying dual feasibility.
_EIG_SAFETY = 1e-12
# ADMM iterations between certificate checks; below it, checks also run at
# the powers of two, so a solve first certifiable at t < 16 stops by 2t.
_CHECK_EVERY = 25
# Smallest order whose PSD projection tries the rank-one split before eigh;
# below it a dense eigh is faster (measured on a 2-vCPU x86-64 host).
_SPLIT_MIN_ORDER = 12
# Largest accepted residual ||m x - theta x|| of a Ritz pair, per unit of
# ||m||: a small multiple of the backward error a dense eigh guarantees.
_RITZ_TOL = 64 * np.finfo(float).eps
# Starting inner-SDP tolerance and step cap of the Dinkelbach iteration.
_INNER_TOL = 1e-7
_MAX_STEPS = 50
# Default certified-gap tolerance of the Dinkelbach iteration.
_TOL = 1e-6


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


def _gap_closed(upper: float, value: float, tol: float = _TOL) -> bool:
    """The Dinkelbach stopping test: upper - value <= tol*(1 + |value|)."""
    return upper - value <= tol * (1.0 + abs(value))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _diag(a: np.ndarray) -> np.ndarray:
    """Writeable strided view of the diagonal of a C-contiguous square array."""
    return a.reshape(-1)[:: a.shape[0] + 1]


def _hermitian(m) -> np.ndarray:
    """A caller's matrix as a read-only, C-contiguous, symmetrized complex array.

    Checked once, where it enters: square, nonempty, finite, and Hermitian
    up to 1e-8 relative asymmetry. An exactly Hermitian matrix is returned
    as a read-only view, not copied; the caller's array stays writeable.
    """
    arr = np.ascontiguousarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValidationError("matrix entries must be finite")
    skew = arr - arr.conj().T
    if skew.any():
        scale = np.linalg.norm(arr)
        asym = np.linalg.norm(skew)
        if asym > 1e-8 * max(1.0, scale):
            raise ValidationError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} at scale {scale:.3e}"
            )
        sym = _hermitize(arr)
    else:
        sym = arr.view()
    sym.setflags(write=False)
    return sym


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b) for Hermitian a, b (real up to rounding)."""
    return float(np.real(np.vdot(a, b)))


def _feasible_primal(c: np.ndarray, z: np.ndarray) -> tuple:
    """Rescale z onto the unit diagonal, preserving PSD; return (tr(c x), x)."""
    d = z.diagonal().real
    ok = d > 1e-12
    if ok.all():
        s = 1.0 / np.sqrt(d)
        x = z * np.outer(s, s)
    else:  # a row and column without a positive diagonal entry become 0
        s = np.zeros(d.shape)
        s[ok] = 1.0 / np.sqrt(d[ok])
        x = z * np.outer(s, s)
        x[~ok, :] = 0.0
        x[:, ~ok] = 0.0
    x = _hermitize(x)
    _diag(x)[:] = 1.0
    return _real_trace_product(c, x), x


def _feasible_dual_bound(c: np.ndarray, rho: float, u: np.ndarray) -> float:
    """Upper bound from the dual min sum(y) s.t. Diag(y) >= c."""
    y = c.diagonal().real - rho * u.diagonal().real
    # Diag(y) - c: 0.0 - c rather than -c keeps an exact zero entry at +0.
    m = 0.0 - c
    _diag(m)[:] = y - c.diagonal()
    lam_min = float(np.linalg.eigvalsh(m)[0])
    slack = _EIG_SAFETY * max(1.0, float(np.linalg.norm(m)))
    mu = max(0.0, -(lam_min - slack))
    return float(np.sum(y) + len(y) * mu)


def _ritz(m: np.ndarray, v: np.ndarray, mv: np.ndarray, lam: float, negative: bool, tol: float):
    """(x, m x) for m's extreme Ritz pair on one side, or None.

    Rayleigh-Ritz on the Krylov space {v, m v}, in closed form, widened to
    {v, m v, m^2 v} when that pair's residual exceeds tol; each new basis
    vector is reorthogonalized against the earlier ones. v is a unit vector,
    mv = m v and lam = v^H m v. The pair is returned only if its residual
    ||m x - theta x|| is at most tol; the Ritz value theta is the least
    (negative) or the greatest of the projected matrix.
    """
    r = mv - lam * v
    r -= np.vdot(v, r) * v
    beta = np.linalg.norm(r)
    if beta <= tol:  # v is an eigenvector to working accuracy
        return v, mv
    q = r / beta
    mq = m @ q
    gamma = np.vdot(q, mq).real
    half = 0.5 * (lam - gamma)
    root = math.hypot(half, beta)
    theta = 0.5 * (lam + gamma) + (-root if negative else root)
    # eigenvector of [[lam, beta], [beta, gamma]] from its better-conditioned row
    if abs(theta - gamma) >= abs(theta - lam):
        c, s = theta - gamma, beta
    else:
        c, s = beta, theta - lam
    norm = math.hypot(c, s)
    x = (c / norm) * v + (s / norm) * q
    mx = (c / norm) * mv + (s / norm) * mq
    r = mx - theta * x
    if np.linalg.norm(r) <= tol:
        return x, mx
    # widened only when needed: a 3x3 eigh on every step made the default
    # K = 25 solve about 40% slower
    r -= np.vdot(v, r) * v
    r -= np.vdot(q, r) * q
    r /= np.linalg.norm(r)
    basis = np.column_stack((v, q, r))
    images = np.column_stack((mv, mq, m @ r))
    w, y = np.linalg.eigh(basis.conj().T @ images)
    k = 0 if negative else -1
    x = basis @ y[:, k]
    mx = images @ y[:, k]
    return (x, mx) if np.linalg.norm(mx - w[k] * x) <= tol else None


def _psd_split(m: np.ndarray, lone):
    """(P(m), m - P(m), lone') with P the projection onto the PSD cone.

    lone is None or (v, negative) about the side of m's spectrum, negative
    or (if not negative) positive, that held at most one eigenvalue at the
    previous call: v estimates that eigenvalue's eigenvector, or is None
    when the side held none. Every path that skips the dense eigh costs one
    O(n^3) factorization, a Cholesky factorization shifted by
    _EIG_SAFETY*||m|| that certifies the split:
    - v given: v is refined by _ritz, accepted when its residual is at most
      _RITZ_TOL*||m||, the backward error of a dense eigh; otherwise by one
      Rayleigh-quotient step, an LU solve shifted by v^H m v. With
      lam = v^H m v of the refined v on the expected side, the lone part is
      lam v v^H and the factorization certifies that the other part is
      semidefinite; the two parts are trace-orthogonal by the choice of
      lam, so they are the two projections.
    - v None, or lam on the wrong side (the lone eigenvalue crossed zero):
      the side is empty, the factorization certifies that m (or -m) is
      semidefinite, and the split is m and a zero matrix.
    Otherwise (no estimate, or a failed factorization) a dense eigh splits
    m, and at orders of at least _SPLIT_MIN_ORDER it seeds lone' for the
    next call when one side of the spectrum holds at most one eigenvalue.
    Every returned array is new, or m itself.
    """
    n = m.shape[0]
    if lone is not None:
        v, negative = lone
        try:
            scale = np.linalg.norm(m)
            if v is not None:
                mv = m @ v
                lam = np.vdot(v, mv).real
                pair = _ritz(m, v, mv, lam, negative, _RITZ_TOL * scale)
                if pair is None:
                    shifted = m.copy()
                    diag = _diag(shifted)
                    diag -= lam
                    v = np.linalg.solve(shifted, v)
                    v /= np.linalg.norm(v)
                    mv = m @ v
                else:
                    v, mv = pair
                lam = np.vdot(v, mv).real
                if not ((lam < 0.0) if negative else (lam > 0.0)):
                    v = None  # the lone eigenvalue crossed zero: its side is empty
            if v is None:
                zero = np.zeros_like(m)
                side, split = (m.copy(), (m, zero)) if negative else (-m, (zero, m))
            else:
                part = lam * np.outer(v, v.conj())
                rest = m - part
                side, split = (rest.copy(), (rest, part)) if negative else (-rest, (part, rest))
            diag = _diag(side)
            diag += _EIG_SAFETY * scale
            np.linalg.cholesky(side)
            return (*split, (v, negative))
        except np.linalg.LinAlgError:
            pass
    w, q = np.linalg.eigh(m)
    lone = None
    if n >= _SPLIT_MIN_ORDER:
        n_neg = int(np.count_nonzero(w < 0.0))
        if n_neg <= 1:
            lone = (q[:, 0] if n_neg else None), True
        elif n_neg >= n - 1:
            lone = (q[:, -1] if n_neg < n else None), False
    np.maximum(w, 0.0, out=w)
    z = (q * w) @ q.conj().T
    return z, m - z, lone


def solve_unit_diag_sdp(
    c,
    tol: float = 1e-7,
    max_iters: int = 20000,
    start=None,
) -> SdpSolution:
    """Maximize tr(c X) s.t. diag(X) = 1, X PSD, with a certified gap.

    Stops when upper - lower <= tol*(1 + |lower|), tested at the start, at
    iterations 1, 2, 4, 8 and 16, at every multiple of _CHECK_EVERY and at
    max_iters. The splitting starts at z = start (default I; it must be
    finite and have the shape of c, and it is read, never written) with
    u = 0 and rho = max(||c||/n, 1e-12).
    Each iteration projects onto the PSD cone with _psd_split, which skips
    the dense eigh at order >= _SPLIT_MIN_ORDER while one side of the
    iterate's spectrum keeps at most one eigenvalue.
    """
    cm = _hermitian(c)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    max_iters = _integer("max_iters", max_iters, 0)
    n = cm.shape[0]

    # The loop writes diagonals through C-order strided views (_diag), so
    # start is taken C-contiguous; a C-contiguous complex start is used in
    # place and never written.
    z = np.eye(n, dtype=complex) if start is None else np.ascontiguousarray(start, dtype=complex)
    if z.shape != cm.shape:
        raise ValidationError(f"start must have the shape of c {cm.shape}, got {z.shape}")
    if not np.isfinite(z).all():
        raise ValidationError("start must be finite")
    u = np.zeros((n, n), dtype=complex)
    rho = max(float(np.linalg.norm(cm)) / n, 1e-12)

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

    # The iterates are not symmetrized: eigh and cholesky read only the lower
    # triangle of m, and the anti-Hermitian rounding carried in u is scaled
    # by 1 - alpha each step, so it stays at rounding level. A split with a
    # lone negative eigenvalue or an empty negative side leaves that rounding
    # in z instead, which carries it unscaled, so it grows only by the new
    # rounding.
    converged = certify()
    if not converged:
        c_rho = cm / rho
        lone = None  # (eigenvector, side) of a single eigenvalue on one side of m
        for it in range(1, max_iters + 1):
            iterations = it
            x = z - u + c_rho
            _diag(x)[:] = 1.0
            m = alpha * x + (1.0 - alpha) * z + u
            z_new, u, lone = _psd_split(m, lone)
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
            checkpoint = it % _CHECK_EVERY == 0 or (it < _CHECK_EVERY and it & (it - 1) == 0)
            if checkpoint and certify():
                converged = True
                break
        else:
            converged = certify() if max_iters > 0 else converged

    if best_x is None:  # pragma: no cover - certify always runs at least once
        _, best_x = _feasible_primal(cm, z)
        best_lb = _real_trace_product(cm, best_x)
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
    tol: float = _TOL,
    inner_max_iters: int = 20000,
) -> FractionalSolution:
    """Maximize (num_scale*tr(N V)) / (den_scale*tr(D V) + den_offset).

    N = w_num w_num^H and D = w_den w_den^H are given by their rank-one
    factors. Feasible set: V Hermitian PSD with unit diagonal. start is a
    unit-modulus vector; its lifting start start^H is the first incumbent
    and sets the first lambda. Dinkelbach iteration with incumbent
    retention, so lambda never decreases; each inner solve starts its
    splitting at the incumbent. Stops once the certified gap on the ratio,
    ratio_upper_bound - ratio_opt, falls below tol*(1 + |ratio_opt|), or
    after _MAX_STEPS steps. The problem is internally normalized so that
    num_scale*tr(N) + den_scale*tr(D) + den_offset = 1, making tolerances
    meaningful for arbitrarily scaled physical inputs (the ratio is
    unchanged). The arguments are not checked: the package's one caller,
    optimizer.optimize_phases, passes lift's factors, a validated
    Scenario's power terms and a unit-modulus anchor.
    """
    # np.outer's complex products are conjugate-symmetric only up to rounding
    # (numpy may fuse the multiply-add), so both are symmetrized once here.
    # Then every C = a - lam*b is exactly Hermitian, and _hermitian passes
    # it to the inner solve without a copy. Both are scaled in place.
    a = _hermitize(np.outer(w_num, w_num.conj()))
    b = _hermitize(np.outer(w_den, w_den.conj()))
    scale = (
        num_scale * float(np.real(np.trace(a)))
        + den_scale * float(np.real(np.trace(b)))
        + den_offset
    )
    a *= num_scale / scale
    b *= den_scale / scale
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
    inner_solves = 0
    converged = False
    inner_tol = _INNER_TOL

    for _ in range(_MAX_STEPS):
        sol = solve_unit_diag_sdp(a - lam * b, tol=inner_tol, max_iters=inner_max_iters, start=best_v)
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
        if _gap_closed(ratio_upper, best_ratio, tol):
            converged = True
            break
        # Each inner solve stops as soon as it meets the inner tolerance, so
        # when the inner certificate dominates the residual the outer gap
        # can only shrink by tightening that tolerance.
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
    seed = _integer("seed", seed, 0)
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
