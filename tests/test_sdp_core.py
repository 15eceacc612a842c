"""Unit-diagonal SDP solver, fractional solver, and rank-one extraction."""
import math

import numpy as np
import pytest

from risjam import (
    OptimizerSettings,
    ValidationError,
    build_channel_set,
    default_scenario,
    lift,
    optimize_phases,
    solve_unit_diag_sdp,
)
from risjam import sdp_core
from risjam.sdp_core import (
    _CHECK_EVERY,
    _EIG_SAFETY,
    _SPLIT_MIN_ORDER,
    FractionalSolution,
    SdpSolution,
    _feasible_dual_bound,
    _feasible_primal,
    _hermitize,
    _hermitian,
    _psd_split,
    _real_trace_product,
    extract_rank_one,
    solve_fractional_sdp,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T / n


def first_column(block):
    return -np.arange(block.shape[1], dtype=float)


# The two public entries that take a matrix from the caller.
ENTRIES = {
    "solve_unit_diag_sdp": lambda m: solve_unit_diag_sdp(m, tol=1e-9),
    "extract_rank_one": lambda m: extract_rank_one(m, 4, 0, first_column),
}


class TestEntryChecks:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "m",
        [
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            np.array([[math.nan, 0.0], [0.0, 1.0]]),
            np.ones((2, 3)),
        ],
        ids=["gross_asymmetry", "nonfinite", "nonsquare"],
    )
    def test_rejects_malformed_matrix(self, entry, m):
        with pytest.raises(ValidationError):
            ENTRIES[entry](m)

    def test_accepts_and_symmetrizes_roundoff(self):
        base = random_psd(4, 0) + np.eye(4)
        jittered = base + 1e-12 * np.eye(4, k=1)
        symmetrized = 0.5 * (jittered + jittered.conj().T)
        sol = solve_unit_diag_sdp(jittered, tol=1e-9)
        assert np.array_equal(sol.x_opt, sol.x_opt.conj().T)
        ref = solve_unit_diag_sdp(symmetrized, tol=1e-9)
        assert sol.objective == ref.objective
        assert np.array_equal(sol.x_opt, ref.x_opt)
        vec, _ = extract_rank_one(jittered, 4, 0, first_column)
        assert np.array_equal(vec, extract_rank_one(symmetrized, 4, 0, first_column)[0])

    def test_solutions_are_read_only_arrays(self):
        sol = solve_unit_diag_sdp(random_hermitian(5, 1), tol=1e-9)
        # at n = 1 the start is the only feasible point, so v_opt is its lifting
        one = np.ones(1)
        fractional = [
            solve_fractional_sdp(random_vector(4, 2), random_vector(4, 3), 1.0, 1.0, 1.0, np.ones(4)),
            solve_fractional_sdp(one, one, 1.0, 1.0, 1.0, one),
        ]
        for m in [sol.x_opt] + [fs.v_opt for fs in fractional]:
            assert type(m) is np.ndarray
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 2.0


class TestUnitDiagSdp:
    def test_scalar_problem(self):
        sol = solve_unit_diag_sdp(np.array([[5.0]]))
        assert isinstance(sol, SdpSolution)
        assert sol.objective == pytest.approx(5.0, rel=1e-9)
        assert sol.x_opt[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert sol.converged

    def test_real_exchange_matrix(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        assert sol.objective == pytest.approx(2.0, abs=1e-7)
        assert sol.x_opt[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_complex_exchange_matrix(self):
        # tr(CX) reduces to 2*Im(X[0,1]); the argmax has X[0,1] = +1j
        c = np.array([[0.0, 1j], [-1j, 0.0]])
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        assert sol.objective == pytest.approx(2.0, abs=1e-7)
        assert sol.x_opt[0, 1] == pytest.approx(1j, abs=1e-6)

    def test_rank_one_objective_is_coherent_sum(self):
        # C = a a^H: optimum is (sum |a_k|)^2, attained by the phase vector of a
        rng = np.random.default_rng(11)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = np.outer(a, a.conj())
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        expected = float(np.sum(np.abs(a))) ** 2
        assert sol.objective == pytest.approx(expected, rel=1e-7)

    def test_solution_is_feasible(self):
        c = random_hermitian(8, 3)
        sol = solve_unit_diag_sdp(c, tol=1e-8)
        x = sol.x_opt
        assert np.allclose(np.diag(x).real, 1.0, atol=1e-9)
        assert np.allclose(np.diag(x).imag, 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(x)
        assert eigs.min() >= -1e-8 * max(1.0, eigs.max())

    def test_certified_gap_brackets_objective(self):
        c = random_hermitian(10, 4)
        sol = solve_unit_diag_sdp(c, tol=1e-7)
        assert sol.duality_gap_estimate >= 0.0
        assert sol.duality_gap_estimate <= 1e-7 * (1 + abs(sol.objective)) * 1.01

    def test_deterministic(self):
        c = random_hermitian(7, 9)
        a = solve_unit_diag_sdp(c, tol=1e-8)
        b = solve_unit_diag_sdp(c, tol=1e-8)
        assert a.objective == b.objective
        assert np.array_equal(a.x_opt, b.x_opt)
        assert a.iterations == b.iterations

    def test_iteration_cap_reports_nonconvergence(self):
        c = random_hermitian(20, 5)
        sol = solve_unit_diag_sdp(c, tol=1e-12, max_iters=2)
        assert not sol.converged
        assert sol.duality_gap_estimate > 0.0
        # the feasible primal is still returned
        assert np.allclose(np.diag(sol.x_opt).real, 1.0, atol=1e-9)

    def test_warm_start_helps(self, monkeypatch):
        # the lifted default K = 9 and K = 25 first Dinkelbach C: started at
        # the Dinkelbach start the solve certifies (after 2 and 250
        # iterations), started cold it stalls above tol
        for k in (3, 5):
            c, tol, _, warm = first_inner_solve(monkeypatch, k, k)
            assert warm.converged
            assert warm.iterations < 2000
            cold = solve_unit_diag_sdp(c, tol=tol, max_iters=2000)
            assert cold.iterations == 2000
            assert not cold.converged

    def test_default_start_is_identity(self):
        c = random_hermitian(6, 17)
        a = solve_unit_diag_sdp(c, tol=1e-9)
        b = solve_unit_diag_sdp(c, tol=1e-9, start=np.eye(6))
        assert a.iterations == b.iterations > 0
        assert a.objective == b.objective
        assert a.duality_gap_estimate == b.duality_gap_estimate
        assert np.array_equal(a.x_opt, b.x_opt)

    def test_wrong_shape_start_rejected(self):
        with pytest.raises(ValidationError, match="start"):
            solve_unit_diag_sdp(random_hermitian(4, 19), start=np.eye(3))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValidationError):
            solve_unit_diag_sdp(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, bad):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]])
        off_diagonal = np.array([[1.0, bad], [bad, 1.0]])
        for start in (off_diagonal, np.full((2, 2), bad)):
            with pytest.raises(ValidationError, match="start must be finite"):
                solve_unit_diag_sdp(exchange, start=start)

    @pytest.mark.parametrize("max_iters", [2.5, True, -1])
    def test_non_integer_max_iters_rejected(self, max_iters):
        with pytest.raises(ValidationError, match="max_iters"):
            solve_unit_diag_sdp(np.eye(2), max_iters=max_iters)

    def test_dominates_every_feasible_point_on_small_grid(self):
        # n = 2 feasible set is X = [[1, z], [z*, 1]] with |z| <= 1
        c = random_hermitian(2, 13)
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        phis = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        z = np.exp(1j * phis)
        vals = c[0, 0].real + c[1, 1].real + 2 * np.real(c[1, 0] * z)
        assert sol.objective >= vals.max() - 1e-6


def reference_sdp(c, tol, max_iters=20000, z=None, early_checks=True):
    """The splitting step with every iterate explicitly symmetrized.

    Same ADMM as solve_unit_diag_sdp from a cold start, or from a given z
    with u and rho cold: over-relaxation 1.6, rho balancing every 10 steps,
    a certificate at the start, at iterations 1, 2, 4, 8 and 16, every
    _CHECK_EVERY steps and at max_iters. early_checks=False drops the
    checks at 1 to 16. Returns (objective, gap, iterations, converged).
    """
    n = c.shape[0]
    z = np.eye(n, dtype=complex) if z is None else np.array(z, dtype=complex)
    u = np.zeros((n, n), dtype=complex)
    rho = max(float(np.linalg.norm(c)) / n, 1e-12)
    alpha = 1.6
    lb, ub = -math.inf, math.inf

    def certify():
        nonlocal lb, ub
        lb = max(lb, _feasible_primal(c, z)[0])
        ub = min(ub, _feasible_dual_bound(c, rho, u))
        return max(0.0, ub - lb) <= tol * (1.0 + abs(lb))

    it = 0
    converged = certify()
    while not converged and it < max_iters:
        it += 1
        x = _hermitize(z - u + c / rho)
        np.fill_diagonal(x, 1.0)
        x_relaxed = alpha * x + (1.0 - alpha) * z
        w, q = np.linalg.eigh(_hermitize(x_relaxed + u))
        z_new = _hermitize((q * np.clip(w, 0.0, None)) @ q.conj().T)
        u = u + x_relaxed - z_new
        if it % 10 == 0:
            pri = float(np.linalg.norm(x - z_new))
            dua = rho * float(np.linalg.norm(z_new - z))
            if pri > 10.0 * dua:
                rho *= 2.0
                u = u / 2.0
            elif dua > 10.0 * pri:
                rho /= 2.0
                u = u * 2.0
        z = z_new
        early = early_checks and it in (1, 2, 4, 8, 16)
        if early or it % _CHECK_EVERY == 0 or it == max_iters:
            converged = certify()
    return lb, max(0.0, ub - lb), it, converged


class TestUnsymmetrizedStep:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_symmetrized_reference(self, seed):
        n = 2 + (seed * 24) // 19  # n = 2 ... 26
        c = random_hermitian(n, 100 + seed)
        objective, gap, iterations, converged = reference_sdp(c, tol=1e-9)
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        assert sol.iterations == iterations
        assert sol.converged == converged
        scale = 1.0 + abs(objective)
        assert abs(sol.objective - objective) <= 1e-10 * scale
        assert abs(sol.duality_gap_estimate - gap) <= 1e-10 * scale

    @pytest.mark.parametrize("n, seed", [(3, 1), (10, 7), (26, 8)])
    def test_state_stays_hermitian_over_a_long_run(self, n, seed, monkeypatch):
        last = []
        split = sdp_core._psd_split

        def recording(m, lone):
            z, u, lone = split(m, lone)
            last[:] = [m, z, u]
            return z, u, lone

        monkeypatch.setattr(sdp_core, "_psd_split", recording)
        sol = solve_unit_diag_sdp(random_hermitian(n, seed), tol=1e-15, max_iters=5000)
        assert sol.iterations == 5000
        # the last split's input and its two parts, the final z and u
        for m in last:
            assert np.linalg.norm(0.5 * (m - m.conj().T)) <= 1e-10 * np.linalg.norm(m)


def reference_feasible_primal(c, z):
    """The primal rescaling as first written: np.diag copies and fill_diagonal."""
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


def reference_dual_bound(c, rho, u):
    """The dual bound as first written, with Diag(y) - c built by np.diag."""
    y = np.real(np.diag(c)) - rho * np.real(np.diag(u))
    m = np.diag(y).astype(complex) - c
    lam_min = float(np.linalg.eigvalsh(m)[0])
    slack = _EIG_SAFETY * max(1.0, float(np.linalg.norm(m)))
    mu = max(0.0, -(lam_min - slack))
    return float(np.sum(y) + len(y) * mu)


class TestCertificateKernels:
    """The certificate's two bounds equal their first-written formulas bit for bit."""

    @pytest.mark.parametrize("n", range(2, 31))
    def test_feasible_primal_bit_for_bit(self, n):
        c = random_hermitian(n, 700 + n)
        z = random_psd(n, 800 + n)
        holed = z.copy()
        holed[n // 2, :] = 0.0
        holed[:, n // 2] = 0.0
        # an ADMM iterate is Hermitian only up to rounding
        skewed = z + 1e-15 * random_vector(n, 900 + n)[:, None]
        for zz in (z, holed, skewed):
            lb, x = _feasible_primal(c, zz)
            ref_lb, ref_x = reference_feasible_primal(c, zz)
            assert lb == ref_lb
            assert x.tobytes() == ref_x.tobytes()

    @pytest.mark.parametrize("n", range(2, 31))
    def test_dual_bound_bit_for_bit(self, n):
        c = random_hermitian(n, 1000 + n)
        u = random_hermitian(n, 1100 + n) + 1e-15 * random_vector(n, 1200 + n)[:, None]
        for rho in (1e-3, 0.7, 25.0):
            assert _feasible_dual_bound(c, rho, u) == reference_dual_bound(c, rho, u)


class TestNoCallerCopies:
    """The solver reads a caller's arrays without writing or re-flagging them."""

    def test_start_unchanged_when_rho_balancing_rescales(self, monkeypatch):
        c = random_hermitian(8, 21)
        # a start far off the unit diagonal makes the rho balancing rescale u
        z0 = 100.0 * random_psd(8, 22)
        before = z0.copy()
        rhos = []
        bound = sdp_core._feasible_dual_bound

        def recording(c, rho, u):
            rhos.append(rho)
            return bound(c, rho, u)

        monkeypatch.setattr(sdp_core, "_feasible_dual_bound", recording)
        sol = solve_unit_diag_sdp(c, tol=1e-15, max_iters=30, start=z0)
        assert sol.iterations == 30
        assert rhos[-1] != rhos[0]
        assert np.array_equal(z0, before)
        assert z0.flags.writeable

    def test_exact_hermitian_caller_matrix_stays_writeable(self):
        c = random_hermitian(6, 24)
        assert not (c - c.conj().T).any()
        kept = c.copy()
        assert np.shares_memory(_hermitian(c), c)
        solve_unit_diag_sdp(c, tol=1e-9)
        assert c.flags.writeable
        assert np.array_equal(c, kept)

    def test_fortran_ordered_inputs_solve_alike(self):
        c = random_hermitian(9, 25)
        z0 = random_psd(9, 26)
        ref = solve_unit_diag_sdp(c, tol=1e-9, start=z0)
        sol = solve_unit_diag_sdp(np.asfortranarray(c), tol=1e-9, start=np.asfortranarray(z0))
        assert sol.iterations == ref.iterations > 0
        assert sol.objective == ref.objective
        assert np.array_equal(sol.x_opt, ref.x_opt)


class _FirstStepDone(Exception):
    pass


def first_inner_solve(monkeypatch, k_rows, k_cols):
    """(c, tol, z, solution) of the first inner solve that optimize_phases
    runs on the lifted default scenario; z is the Dinkelbach start."""
    seen = []

    def spy(c, tol, max_iters, start):
        z = np.array(start)
        seen.append((c, tol, z, solve_unit_diag_sdp(c, tol=tol, max_iters=max_iters, start=start)))
        raise _FirstStepDone

    monkeypatch.setattr(sdp_core, "solve_unit_diag_sdp", spy)
    sc = default_scenario(k_rows=k_rows, k_cols=k_cols)
    with pytest.raises(_FirstStepDone):
        optimize_phases(lift(build_channel_set(sc), sc), OptimizerSettings(), seed=0)
    return seen[0]


class TestCheckSchedule:
    @pytest.mark.parametrize("seed", range(20))
    def test_cold_solve_stops_no_later_than_every_25_only(self, seed):
        n = 2 + (seed * 24) // 19  # n = 2 ... 26
        c = random_hermitian(n, 300 + seed)
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        _, _, late_iterations, late_converged = reference_sdp(c, tol=1e-9, early_checks=False)
        assert sol.converged and late_converged
        assert sol.iterations <= late_iterations

    @pytest.mark.parametrize("k_rows, k_cols", [(3, 3), (5, 5)])
    def test_lifted_first_step_stops_no_later_than_every_25_only(self, monkeypatch, k_rows, k_cols):
        # a cold start stalls above tol on these C, so both start from the Dinkelbach z
        c, tol, z, sol = first_inner_solve(monkeypatch, k_rows, k_cols)
        _, _, late_iterations, late_converged = reference_sdp(c, tol, z=z, early_checks=False)
        assert sol.converged and late_converged
        assert sol.iterations <= late_iterations

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("tol, max_iters", [(1e-9, 20000), (1e-12, 37)])
    def test_cold_solve_stops_at_a_checkpoint(self, seed, tol, max_iters):
        n = 2 + (seed * 24) // 19
        sol = solve_unit_diag_sdp(random_hermitian(n, 300 + seed), tol=tol, max_iters=max_iters)
        it = sol.iterations
        assert it in (0, 1, 2, 4, 8, 16) or it % _CHECK_EVERY == 0 or it == max_iters

    def test_default_first_step_stops_early(self, monkeypatch):
        # certified at iteration 2; checks only every _CHECK_EVERY ran it to 125
        _, _, _, sol = first_inner_solve(monkeypatch, 3, 3)
        assert sol.converged
        assert sol.iterations <= 16


def lone_sided(n, seed, negative, flips=1):
    """(m, q): a random Hermitian m whose negative (or, if not negative,
    positive) side holds the `flips` eigenpairs in q's first columns."""
    w, q = np.linalg.eigh(random_hermitian(n, seed))
    w = np.abs(w) if negative else -np.abs(w)
    w[:flips] *= -1.0
    return _hermitize((q * w) @ q.conj().T), q


def eigh_projection(m):
    w, q = np.linalg.eigh(m)
    return (q * np.clip(w, 0.0, None)) @ q.conj().T


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the dense np.linalg.eigh calls made after the fixture is set up.

    The 3x3 Rayleigh-Ritz eigh of _psd_split's Krylov step is not counted;
    every test that takes this fixture works at orders of at least 11.
    """
    calls = []
    original = np.linalg.eigh

    def counting(a):
        if a.shape[0] != 3:
            calls.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the np.linalg.solve calls made after the fixture is set up."""
    calls = []
    original = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def with_spectrum(w, seed):
    """(m, q): a Hermitian m = q diag(w) q^H with random unitary q."""
    _, q = np.linalg.eigh(random_hermitian(len(w), seed))
    return _hermitize((q * w) @ q.conj().T), q


def nearby(m, seed):
    """m plus a Hermitian perturbation of relative size about 1e-6."""
    return m + 1e-6 * np.linalg.norm(m) * random_hermitian(m.shape[0], seed) / m.shape[0]


def assert_is_projection(m, z, u):
    projection = eigh_projection(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(z - projection) <= 1e-12 * scale
    assert np.linalg.norm(u - (m - projection)) <= 1e-12 * scale


SIDES = pytest.mark.parametrize("negative", [True, False], ids=["negative", "positive"])
ORDERS = pytest.mark.parametrize("n", [12, 40, 101])


class TestPsdSplit:
    @pytest.mark.parametrize("negative", [True, False], ids=["negative", "positive"])
    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_split_is_the_projection(self, seed, negative, eigh_calls):
        n = 12 + (seed * 89) // 19  # n = 12 ... 101
        m, q = lone_sided(n, 500 + seed, negative)
        scale = np.linalg.norm(m)
        # the estimate an ADMM step passes on: the lone eigenvector of a nearby iterate
        nearby = m + 1e-6 * scale * random_hermitian(n, 600 + seed) / n
        _, q_near = np.linalg.eigh(nearby)
        estimate = q_near[:, 0] if negative else q_near[:, -1]
        projection = eigh_projection(m)
        del eigh_calls[:]
        z, u, lone = _psd_split(m, (estimate, negative))
        assert eigh_calls == []
        assert np.linalg.norm(z - projection) <= 1e-12 * scale
        assert np.linalg.norm(u - (m - projection)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(z)[0] >= -_EIG_SAFETY * scale
        assert np.linalg.eigvalsh(u)[-1] <= _EIG_SAFETY * scale
        assert lone[1] == negative
        assert abs(np.vdot(lone[0], q[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("negative", [True, False], ids=["negative", "positive"])
    @pytest.mark.parametrize("n", [12, 40, 101])
    def test_minority_side_of_two_falls_back(self, n, negative, eigh_calls):
        m, q = lone_sided(n, n, negative, flips=2)
        projection = eigh_projection(m)
        del eigh_calls[:]
        z, u, lone = _psd_split(m, (q[:, 0], negative))
        assert eigh_calls == [n]
        scale = np.linalg.norm(m)
        assert np.linalg.norm(z - projection) <= 1e-12 * scale
        assert np.linalg.norm(u - (m - projection)) <= 1e-12 * scale
        assert lone is None  # no side holds a single eigenvalue

    @pytest.mark.parametrize("negative", [True, False], ids=["negative", "positive"])
    @pytest.mark.parametrize("n", [12, 40, 101])
    def test_stale_estimate_falls_back_and_reseeds(self, n, negative, eigh_calls):
        m, q = lone_sided(n, n, negative)
        _, q_other = lone_sided(n, n + 1, negative)
        projection = eigh_projection(m)
        del eigh_calls[:]
        z, u, lone = _psd_split(m, (q_other[:, 0], negative))
        assert eigh_calls == [n]
        scale = np.linalg.norm(m)
        assert np.linalg.norm(z - projection) <= 1e-12 * scale
        assert np.linalg.norm(u - (m - projection)) <= 1e-12 * scale
        assert lone[1] == negative
        assert abs(np.vdot(lone[0], q[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("negative", [True, False], ids=["negative", "positive"])
    def test_no_estimate_below_the_crossover(self, negative):
        m, _ = lone_sided(_SPLIT_MIN_ORDER - 1, 3, negative)
        z, u, lone = _psd_split(m, None)
        assert lone is None
        assert np.linalg.norm(z - eigh_projection(m)) <= 1e-12 * np.linalg.norm(m)

    @SIDES
    @ORDERS
    def test_empty_side_that_stays_empty_skips_eigh(self, n, negative, eigh_calls):
        sign = 1.0 if negative else -1.0
        m0, _ = with_spectrum(sign * np.linspace(1.0, n, n), n)
        del eigh_calls[:]
        z, u, lone = _psd_split(m0, None)
        assert eigh_calls == [n]  # the reseed
        assert lone == (None, negative)
        m1 = nearby(m0, n + 1)
        del eigh_calls[:]
        z, u, lone = _psd_split(m1, lone)
        assert eigh_calls == []
        assert lone == (None, negative)
        assert (z if negative else u) is m1
        assert not (u if negative else z).any()
        assert_is_projection(m1, z, u)

    @SIDES
    @ORDERS
    def test_empty_side_that_gains_an_eigenvalue_falls_back_and_reseeds(self, n, negative, eigh_calls):
        sign = 1.0 if negative else -1.0
        w = sign * np.linspace(1.0, n, n)
        w[0] = -sign  # one eigenvalue crosses to the side that was empty
        m, q = with_spectrum(w, n)
        del eigh_calls[:]
        z, u, lone = _psd_split(m, (None, negative))
        assert eigh_calls == [n]
        assert lone[1] == negative
        assert abs(np.vdot(lone[0], q[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert_is_projection(m, z, u)

    @SIDES
    @ORDERS
    def test_lone_eigenvalue_crossing_zero_takes_the_cholesky_path(self, n, negative, eigh_calls):
        sign = 1.0 if negative else -1.0
        w = sign * np.linspace(1.0, n, n)
        w[0] = -sign
        m0, q = with_spectrum(w, n)
        w[0] = 1e-3 * sign  # the lone eigenvalue moves across zero
        m1 = _hermitize((q * w) @ q.conj().T)
        _, q_near = np.linalg.eigh(nearby(m0, n + 1))
        estimate = q_near[:, 0] if negative else q_near[:, -1]
        del eigh_calls[:]
        z, u, lone = _psd_split(m1, (estimate, negative))
        assert eigh_calls == []
        assert lone == (None, negative)
        assert (z if negative else u) is m1
        assert_is_projection(m1, z, u)

    @SIDES
    @ORDERS
    def test_three_cluster_spectrum_needs_no_solve(self, n, negative, eigh_calls, solve_calls):
        # like the default geometry's iterates: one eigenvalue near n and a
        # tight cluster near 1 on one side, a lone eigenvalue on the other
        sign = 1.0 if negative else -1.0
        w = sign * (1.0 + 1e-9 * np.linspace(0.0, 1.0, n))
        w[0], w[-1] = -sign * 0.3, sign * n
        m, q = with_spectrum(w, 700 + n)
        _, q_near = np.linalg.eigh(nearby(m, 800 + n))
        estimate = q_near[:, 0] if negative else q_near[:, -1]
        del eigh_calls[:]
        z, u, lone = _psd_split(m, (estimate, negative))
        assert eigh_calls == [] and solve_calls == []
        assert lone[1] == negative
        assert abs(np.vdot(lone[0], q[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert_is_projection(m, z, u)

    @SIDES
    @ORDERS
    def test_invariant_krylov_plane_needs_no_solve(self, n, negative, eigh_calls, solve_calls):
        # {v, m v} is exactly invariant: the Ritz pair comes from that plane
        sign = 1.0 if negative else -1.0
        w = sign * np.linspace(1.0, n, n)
        w[0], w[1] = -sign, sign
        m = np.diag(w).astype(complex)
        v = np.zeros(n, dtype=complex)
        v[:2] = 2**-0.5
        z, u, lone = _psd_split(m, (v, negative))
        assert eigh_calls == [] and solve_calls == []
        assert lone[1] == negative
        assert abs(lone[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert_is_projection(m, z, u)

    @SIDES
    @ORDERS
    def test_spread_spectrum_falls_back_to_lu(self, n, negative, monkeypatch, eigh_calls, solve_calls):
        # every call tries the Krylov step first, then one LU solve
        ritz_calls = []
        ritz = sdp_core._ritz
        monkeypatch.setattr(
            sdp_core, "_ritz", lambda *args: ritz_calls.append(args[0].shape[0]) or ritz(*args)
        )
        m0, q = lone_sided(n, 900 + n, negative)
        _, q_near = np.linalg.eigh(nearby(m0, 1000 + n))
        estimate = q_near[:, 0] if negative else q_near[:, -1]
        m1 = nearby(m0, 1100 + n)
        del eigh_calls[:]
        z0, u0, lone = _psd_split(m0, (estimate, negative))
        assert (ritz_calls, solve_calls, eigh_calls) == ([n], [n], [])
        assert lone[1] == negative
        assert abs(np.vdot(lone[0], q[:, 0])) == pytest.approx(1.0, abs=1e-12)
        z1, u1, lone = _psd_split(m1, lone)
        assert (ritz_calls, solve_calls, eigh_calls) == ([n, n], [n, n], [])
        assert lone[1] == negative
        assert_is_projection(m0, z0, u0)
        assert_is_projection(m1, z1, u1)

    @pytest.mark.parametrize("n", [_SPLIT_MIN_ORDER - 1, _SPLIT_MIN_ORDER, 40])
    def test_solver_eigh_calls_by_order(self, n, eigh_calls):
        # a Dinkelbach-like c = a a^H - b b^H / 2 has a rank-one optimum
        a, b = random_vector(n, 41), random_vector(n, 42)
        c = np.outer(a, a.conj()) - 0.5 * np.outer(b, b.conj())
        sol = solve_unit_diag_sdp(c, tol=1e-9)
        assert sol.converged
        if n < _SPLIT_MIN_ORDER:
            assert len(eigh_calls) == sol.iterations
        else:
            assert 0 < len(eigh_calls) < sol.iterations / 2


class TestFractionalSdp:
    def test_zero_denominator_scale_matches_plain_solve(self):
        # with D switched off the ratio is tr(a a^H V) / 4, whose optimum is (sum |a|)^2 / 4
        a = random_vector(5, 21)
        plain = solve_unit_diag_sdp(np.outer(a, a.conj()), tol=1e-9)
        fs = solve_fractional_sdp(a, np.zeros(5), 1.0, 0.0, 4.0, np.ones(5), tol=1e-8)
        assert isinstance(fs, FractionalSolution)
        assert fs.ratio_opt == pytest.approx(plain.objective / 4.0, rel=1e-6)
        assert fs.ratio_opt == pytest.approx(float(np.sum(np.abs(a))) ** 2 / 4.0, rel=1e-6)

    def test_upper_bound_dominates_ratio(self):
        fs = solve_fractional_sdp(
            random_vector(4, 41), random_vector(4, 42), 1.0, 1.0, 0.3, np.ones(4)
        )
        assert fs.ratio_upper_bound >= fs.ratio_opt - 1e-12

    def test_two_by_two_against_dense_grid(self):
        # exhaustive over the full n = 2 feasible set (|z| <= 1 disc)
        a, b = random_vector(2, 51), random_vector(2, 52)
        fs = solve_fractional_sdp(a, b, 1.0, 1.0, 0.5, np.ones(2), tol=1e-8)
        num, den = np.outer(a, a.conj()), np.outer(b, b.conj())
        rs = np.linspace(0.0, 1.0, 101)
        phis = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
        grid = np.outer(rs, np.exp(1j * phis)).ravel()
        num_vals = num[0, 0].real + num[1, 1].real + 2 * np.real(num[1, 0] * grid)
        den_vals = den[0, 0].real + den[1, 1].real + 2 * np.real(den[1, 0] * grid)
        ratios = num_vals / (den_vals + 0.5)
        best = float(ratios.max())
        assert fs.ratio_opt >= best - 1e-3 * abs(best)
        assert fs.ratio_opt <= fs.ratio_upper_bound * (1 + 1e-9)

    def test_scale_invariance(self):
        a, b = random_vector(3, 61), random_vector(3, 62)
        x = solve_fractional_sdp(a, b, 1.0, 1.0, 1.0, np.ones(3))
        y = solve_fractional_sdp(1e-6 * a, 1e-6 * b, 1.0, 1.0, 1e-12, np.ones(3))
        assert y.ratio_opt == pytest.approx(x.ratio_opt, rel=1e-6)


def reference_extract(v, n_draws, seed, score_one):
    """The pool built and scored one candidate at a time; the first strict
    maximum wins and a NaN score is skipped."""
    v = 0.5 * (v + v.conj().T)
    w, q = np.linalg.eigh(v)
    root = q * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    shape = (v.shape[0], n_draws)
    samples = root @ ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0))
    best_vec, best = None, -math.inf
    for x in [q[:, -1]] + [samples[:, j] for j in range(n_draws)]:
        c = x / np.abs(x)
        c = c * np.conj(c[-1])
        c[-1] = 1.0
        s = float(score_one(c))
        if s > best:
            best_vec, best = c, s
    return best_vec, best


def per_column(score_one):
    return lambda block: np.array([score_one(block[:, j]) for j in range(block.shape[1])])


class TestExtraction:
    def test_recovers_rank_one_optimum(self):
        rng = np.random.default_rng(71)
        u = np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        u = u * np.conj(u[-1])  # feasible candidates pin the last slot to 1
        v = np.outer(u, u.conj())

        # |u^H c|^2 over unit-modulus c is maximized exactly at c = u
        def score(block):
            return np.abs(u.conj() @ block) ** 2

        vec, got = extract_rank_one(v, 50, 0, score)
        assert got == pytest.approx(25.0, rel=1e-9)
        assert np.allclose(vec, u, atol=1e-6)
        assert np.allclose(np.abs(vec), 1.0, atol=1e-12)

    def test_last_entry_exactly_one(self):
        v = random_psd(4, 81) + 4 * np.eye(4)
        vec, _ = extract_rank_one(v, 10, 3, lambda c: np.abs(c.sum(axis=0)))
        assert vec[-1] == 1.0 + 0.0j

    def test_deterministic_in_seed(self):
        v = random_psd(6, 91) + 6 * np.eye(6)
        score = lambda c: np.real(c.sum(axis=0))
        a_vec, a_val = extract_rank_one(v, 25, 1234, score)
        b_vec, b_val = extract_rank_one(v, 25, 1234, score)
        assert a_val == b_val
        assert np.array_equal(a_vec, b_vec)

    def test_more_draws_never_worse(self):
        v = random_psd(5, 101) + 5 * np.eye(5)
        score = lambda c: np.real(np.einsum("ij,ij->j", c.conj(), v @ c))
        _, few = extract_rank_one(v, 5, 7, score)
        _, many = extract_rank_one(v, 200, 7, score)
        assert many >= few - 1e-12

    @pytest.mark.parametrize(
        "n, seed, score_one",
        [
            (5, 121, lambda c: float(np.real(c.sum()))),
            # coarse levels make ties, so the first maximum must win
            (5, 122, lambda c: math.floor(2.0 * np.real(c.sum()))),
            (7, 123, lambda c: round(abs(c[:3].sum()))),
            (3, 124, lambda c: 1.0),
        ],
    )
    def test_batched_pick_matches_per_candidate_loop(self, n, seed, score_one):
        v = random_psd(n, seed) + 0.1 * np.eye(n)
        ref_vec, ref_val = reference_extract(v, 40, seed, score_one)
        vec, val = extract_rank_one(v, 40, seed, per_column(score_one))
        assert val == ref_val
        assert np.array_equal(vec, ref_vec)

    def test_nan_score_never_wins(self):
        v = random_psd(4, 131) + 4 * np.eye(4)
        every = list(range(21))
        for nan_cols in ([0, 3], every[1:], [c for c in every if c != 7], every):
            seen = {}

            def score(block):
                seen["pool"] = block.copy()
                s = np.real(block.sum(axis=0))
                s[nan_cols] = np.nan
                return s

            vec, val = extract_rank_one(v, 20, 5, score)
            finite = np.real(seen["pool"].sum(axis=0))
            finite[nan_cols] = -np.inf
            best = int(np.argmax(finite))
            assert val == finite[best]
            assert np.array_equal(vec, seen["pool"][:, best])

    def test_rejects_one_score_per_call(self):
        with pytest.raises(ValidationError):
            extract_rank_one(np.eye(3), 4, 0, lambda c: 1.0)

    def test_scalar_case(self):
        vec, val = extract_rank_one(np.array([[1.0]]), 3, 0, lambda c: abs(c[0]))
        assert vec[0] == 1.0 + 0.0j
        assert val == pytest.approx(1.0)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValidationError):
            extract_rank_one(np.eye(2), 0, 0, lambda c: 0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            extract_rank_one(np.eye(2), 4, seed, first_column)

    @pytest.mark.parametrize("n_draws", [2.5, True])
    def test_rejects_non_integer_draws(self, n_draws):
        with pytest.raises(ValidationError, match="n_draws"):
            extract_rank_one(np.eye(2), n_draws, 0, first_column)
