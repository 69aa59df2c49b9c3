import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowp import saddle
from sowp.densmat import MomentumGrid, _grid_nodes
from sowp.errors import DegenerateSaddleError, SaddleError
from sowp.pulse import Pulse
from sowp.saddle import (action, action_derivative, find_saddles,
                         prefactor_branch, saddle_batch)

E_F = -0.12499200  # F- ground-channel energy, a.u.


def quadrature_action(pulse, e_bound, p, t, nodes=400):
    """Oracle: Gauss-Legendre quadrature of (1/2)(p + A)^2 - E along the
    straight contour from 0 to t (the integrand is entire, so the path is
    irrelevant)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (x + 1.0)
    ts = s * t
    px, py, pz = p
    vz = pz + pulse.vector_potential(ts.astype(complex))
    integrand = 0.5 * (vz * vz + px * px + py * py) - e_bound
    return t * 0.5 * np.sum(w * integrand)


@pytest.fixture(scope="module")
def pulse():
    return Pulse.from_lab(1800.0, 8, 1.3e13)


class TestAction:
    def test_free_particle_limit(self):
        pu = Pulse(omega=0.025, n_cycles=4, a0=0.0)
        p = (0.1, 0.0, 0.3)
        for t in (5.0, 100.0 + 20.0j):
            expected = (0.5 * (0.1 ** 2 + 0.3 ** 2) - E_F) * t
            assert action(pu, E_F, p, t) == pytest.approx(expected, rel=1e-14)

    def test_zero_at_origin(self, pulse):
        assert action(pulse, E_F, (0.1, 0.2, 0.3), 0.0) == 0.0

    def test_derivative_is_integrand(self, pulse, rng):
        # |S| ~ 4e2 here, so h = 1e-4 balances roundoff against truncation
        h = 1e-4
        for _ in range(40):
            t = rng.uniform(0, pulse.tau_p) + 1j * rng.uniform(-30, 30)
            p = tuple(rng.uniform(-0.5, 0.5, 3))
            fd = (action(pulse, E_F, p, t + h) - action(pulse, E_F, p, t - h)) / (2 * h)
            integrand = action_derivative(pulse, E_F, p, t)
            assert fd == pytest.approx(integrand, rel=1e-8)

    def test_matches_contour_quadrature(self, pulse, rng):
        for _ in range(10):
            t = rng.uniform(10, pulse.tau_p) + 1j * rng.uniform(1, 25)
            p = tuple(rng.uniform(-0.6, 0.6, 3))
            closed = action(pulse, E_F, p, t)
            quad = quadrature_action(pulse, E_F, p, t)
            assert closed == pytest.approx(quad, rel=1e-8)


class TestFindSaddles:
    def test_count_eight_cycles(self, pulse):
        saddles = find_saddles(pulse, E_F, (0.0, 0.0, 0.05))
        assert len(saddles) == 18  # 2N+2

    def test_count_two_cycles(self):
        pu = Pulse.from_lab(1800.0, 2, 1.3e13)
        assert len(find_saddles(pu, E_F, (0.0, 0.0, 0.05))) == 6

    def test_contracts(self, pulse):
        saddles = find_saddles(pulse, E_F, (0.02, -0.03, 0.11))
        t = np.array([s.t for s in saddles])
        assert all(s.mu == k + 1 for k, s in enumerate(saddles))
        assert (t.imag > 0).all()
        assert (t.real >= -1e-9).all() and (t.real <= pulse.tau_p + 1e-9).all()
        assert (np.diff(t.real) > 0).all()
        assert np.abs(np.diff(t)).min() > 1e-6
        for s in saddles:
            resid = action_derivative(pulse, E_F, (0.02, -0.03, 0.11), s.t)
            assert abs(resid) < 1e-10
            assert s.action == pytest.approx(
                complex(action(pulse, E_F, (0.02, -0.03, 0.11), s.t)), rel=1e-12)
            assert s.prefactor ** -2 == pytest.approx(-1j * s.s2, rel=1e-10)

    def test_monochromatic_spacing(self):
        # long flat-ish pulse, p_z = 0: the constant-amplitude closed form
        # has Re(arcsin) = 0, so interior spacings approach pi/omega (at
        # p_z != 0 they alternate around it within each cycle)
        pu = Pulse.from_lab(1800.0, 16, 1.3e13)
        saddles = find_saddles(pu, E_F, (0.05, 0.0, 0.0))
        spacing = np.diff([s.t.real for s in saddles])[8:-8]
        assert np.allclose(spacing, np.pi / pu.omega, rtol=0.05)

    def test_reflection_pz(self, pulse):
        up = find_saddles(pulse, E_F, (0.0, 0.0, 0.3))
        dn = find_saddles(pulse, E_F, (0.0, 0.0, -0.3))
        assert len(up) == len(dn) == 18
        # time-reversal antisymmetry of the envelope maps the sets onto
        # each other: t -> tau_p - conj(t), order reversed
        mapped = sorted((pulse.tau_p - np.conj(s.t) for s in up),
                        key=lambda z: z.real)
        for a, b in zip(mapped, (s.t for s in dn)):
            assert a == pytest.approx(b, rel=1e-9)

    def test_branches_alternate(self, pulse, rng):
        for _ in range(5):
            p = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                 rng.uniform(-0.7, 0.7))
            saddles = find_saddles(pulse, E_F, p)
            branches = [s.branch for s in saddles]
            assert all(b2 == -b1 for b1, b2 in zip(branches, branches[1:]))

    def test_zero_field_rejected(self):
        pu = Pulse(omega=0.025, n_cycles=4, a0=0.0)
        with pytest.raises(SaddleError):
            find_saddles(pu, E_F, (0.0, 0.0, 0.05))

    def test_positive_energy_rejected(self, pulse):
        with pytest.raises(ValueError):
            find_saddles(pulse, 0.1, (0.0, 0.0, 0.05))


class TestSaddleBatch:
    def test_matches_single_point(self, pulse):
        pts = [(0.05, 0.0), (0.3, 0.04), (-0.2, 0.09)]
        batch = saddle_batch(pulse, E_F, np.array([p[0] for p in pts]),
                             np.array([p[1] for p in pts]))
        for i, (pz, pp2) in enumerate(pts):
            single = find_saddles(pulse, E_F, (np.sqrt(pp2), 0.0, pz))
            assert np.allclose(batch.t[i], [s.t for s in single], rtol=1e-10)

    def test_residual_field(self, pulse):
        batch = saddle_batch(pulse, E_F, np.array([0.1]), np.array([0.01]))
        assert batch.residual.max() < 1e-10


def radial_lines(pulse, n_energy=40, n_theta=16):
    """(pz, pperp^2) of a small density-matrix grid, shape (n_energy, n_theta)."""
    grid = MomentumGrid.build(pulse.omega, n_energy=n_energy, n_theta=n_theta)
    pz, pperp, _ = _grid_nodes(grid)
    return pz, pperp * pperp


def assert_same_saddles(lines, points, columns=slice(None)):
    """A 2-D (continued) batch equals the 1-D batch of the same nodes, on
    the selected columns."""
    for name in ("t", "action", "s2", "prefactor"):
        np.testing.assert_allclose(
            getattr(lines, name)[:, columns],
            getattr(points, name).reshape(lines.t.shape)[:, columns],
            rtol=1e-10, atol=0, err_msg=name)
    assert lines.residual.max() < 1e-10


def count_seeds(monkeypatch):
    """Wrap np.linalg.eigvals; the returned list gets the number of
    matrices of every call."""
    seeded = []
    eigvals = np.linalg.eigvals

    def counting(a):
        seeded.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return seeded


def record_newton(monkeypatch, collapse=None):
    """Wrap saddle._newton; the returned list gets (seeds, roots) of every
    call.  collapse = (call, node): that call returns the node with its
    first two roots equal, which fails the distinctness contract."""
    calls = []
    newton = saddle._newton

    def recording(pulse, e_bound, t, pz, pperp2):
        roots, residual = newton(pulse, e_bound, t, pz, pperp2)
        if collapse is not None and len(calls) == collapse[0]:
            roots = roots.copy()
            roots[collapse[1], 1] = roots[collapse[1], 0]
        calls.append((t.copy(), roots.copy()))
        return roots, residual

    monkeypatch.setattr(saddle, "_newton", recording)
    return calls


def assert_same_roots_modulo_period(a, b, period):
    """Root sets a and b, shape (n, deg), agree up to shifts of Re t by the
    period of the saddle equation."""
    d = a[:, :, None] - b[:, None, :]
    d = (d.real + 0.5 * period) % period - 0.5 * period + 1j * d.imag
    assert np.abs(d).min(axis=-1).max() <= 1e-10 * period


class TestContinuation:
    @pytest.mark.parametrize("n_cycles", [2, 8, 18])
    def test_lines_match_independent_points(self, n_cycles):
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        pz, pp2 = radial_lines(pu)
        lines = saddle_batch(pu, E_F, pz, pp2)
        assert lines.t.shape == pz.shape + (deg,)
        assert_same_saddles(lines, saddle_batch(pu, E_F, pz.ravel(), pp2.ravel()))

        # odd n_theta: the middle line, p_z = 0, is its own mirror image.  A
        # saddle there lies on Re t = 0, which the strip also holds as
        # Re t = tau_p; which of the two a solve returns depends on
        # rounding, so that line is compared modulo tau_p.
        pz, pp2 = radial_lines(pu, n_theta=15)
        assert (pz[:, 7] == 0.0).all()
        lines = saddle_batch(pu, E_F, pz, pp2)
        points = saddle_batch(pu, E_F, pz.ravel(), pp2.ravel())
        assert lines.t.shape == pz.shape + (deg,)
        assert_same_saddles(lines, points, columns=np.arange(15) != 7)
        assert_same_roots_modulo_period(
            lines.t[:, 7], points.t.reshape(lines.t.shape)[:, 7], pu.tau_p)

    def test_far_neighbours_are_reseeded(self, pulse, monkeypatch):
        # without the last column the lines are not mirror images, so every
        # line is continued and row 0 seeds all of them; the first block
        # call returns one node with two equal roots, which fails the
        # distinctness contract and is re-seeded
        pz, pp2 = (a[:, :-1] for a in radial_lines(pulse))
        seeded = count_seeds(monkeypatch)
        record_newton(monkeypatch, collapse=(3, 5))
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert sum(seeded) > pz.shape[1]   # more than row 0
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    def test_shuffled_rows_match_independent_points(self, pulse, rng):
        pz, pp2 = (a[:, :-1] for a in radial_lines(pulse))
        perm = rng.permutation(pz.shape[0])
        pz, pp2 = pz[perm], pp2[perm]
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    def test_rejects_three_dimensional_input(self, pulse):
        with pytest.raises(ValueError):
            saddle_batch(pulse, E_F, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


class TestPredictor:
    def test_reseed_in_block_falls_back_in_its_column(self, pulse, monkeypatch):
        pz, pp2 = radial_lines(pulse)
        deg = 2 * pulse.n_cycles + 2
        solved, col = pz.shape[1] // 2, 2
        k = saddle.ROW_BLOCK_ROWS
        assert 1 < k < pz.shape[0] - 3
        # call 3 polishes the first block (rows 3..3+k-1); its last row has
        # two equal roots in column col, so call 4 re-seeds that node
        calls = record_newton(monkeypatch, collapse=(3, (k - 1) * solved + col))
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert len(calls[4][0]) == 1
        seeds = calls[5][0].reshape(-1, solved, deg)
        last = calls[3][1].reshape(k, solved, deg)[-1]
        # the next block starts column col from the re-seeded roots, every
        # other column from the extrapolation
        np.testing.assert_array_equal(seeds[:, col], np.broadcast_to(
            calls[4][1][0], seeds[:, col].shape))
        for j in set(range(solved)) - {col}:
            assert not np.array_equal(seeds[0, j], last[j])
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    @pytest.mark.parametrize("rows", [
        np.r_[0:5, 4, 4, 5:40],                # repeated rows: equal s
        np.r_[0:20, 18:9:-1, 20:40],           # s rises, falls, rises
    ], ids=["repeated", "non-monotone"])
    def test_irregular_paths_match_independent_points(self, pulse, monkeypatch,
                                                     rows):
        # one row per block, so every three consecutive rows extrapolate
        monkeypatch.setattr(saddle, "ROW_BLOCK_ROWS", 1)
        pz, pp2 = (a[rows] for a in radial_lines(pulse))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = saddle_batch(pulse, E_F, pz, pp2)
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    @pytest.mark.parametrize("n_cycles", [2, 18])
    def test_one_newton_call_per_block(self, monkeypatch, n_cycles):
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        pz, pperp, _ = _grid_nodes(MomentumGrid.build(pu.omega))
        n_path, solved = pz.shape[0], pz.shape[1] // 2
        block = saddle.ROW_BLOCK_ROWS
        calls = record_newton(monkeypatch)
        evaluated = []
        vector_potential = Pulse.vector_potential

        def counting(self, t, phasors=None):
            evaluated.append(np.size(t))
            return vector_potential(self, t, phasors=phasors)

        monkeypatch.setattr(Pulse, "vector_potential", counting)
        saddle_batch(pu, E_F, pz, pperp * pperp)
        # row 0, rows 1 and 2 alone, then blocks; no line is re-seeded
        assert len(calls) == 3 + math.ceil((n_path - 3) / block)
        # the final pass evaluates A once at every node; seeding each row
        # with the previous row's roots cost 3.92 evaluations per root here
        newton = sum(evaluated) - pz.size * deg
        assert newton < 3.5 * n_path * solved * deg


class TestMirror:
    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_symmetric_lines_solve_half(self, pulse, monkeypatch, n_theta):
        pz, pp2 = radial_lines(pulse, n_theta=n_theta)
        seeded = count_seeds(monkeypatch)
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert sum(seeded) == (n_theta + 1) // 2
        # column n_theta-1-j holds tau_p - conj(t) of column j, in
        # reversed order of Re t
        for j in range(n_theta // 2):
            np.testing.assert_array_equal(
                lines.t[:, n_theta - 1 - j],
                (pulse.tau_p - np.conj(lines.t[:, j]))[:, ::-1])

    def test_asymmetric_lines_solve_all(self, pulse, monkeypatch):
        pz, pp2 = radial_lines(pulse)
        pp2 = pp2.copy()
        pp2[:, 0] *= 1.0 + 1e-12   # p_perp^2 no longer mirrors exactly
        seeded = count_seeds(monkeypatch)
        saddle_batch(pulse, E_F, pz, pp2)
        assert sum(seeded) == pz.shape[1]

    def test_every_node_is_validated(self, pulse, monkeypatch):
        pz, pp2 = radial_lines(pulse)
        seen = []
        validate = saddle._validate_batch

        def recording(pu, e_bound, pz_, pp2_, t, residual, s2):
            seen.append((pz_.copy(), pp2_.copy(), t.shape))
            return validate(pu, e_bound, pz_, pp2_, t, residual, s2)

        monkeypatch.setattr(saddle, "_validate_batch", recording)
        saddle_batch(pulse, E_F, pz, pp2)
        (vpz, vpp2, shape), = seen
        np.testing.assert_array_equal(vpz, pz.ravel())
        np.testing.assert_array_equal(vpp2, pp2.ravel())
        assert shape == (pz.size, 2 * pulse.n_cycles + 2)


def test_one_phasor_build_per_evaluation(monkeypatch):
    """One default-grid channel at N = 18: each Newton step builds the
    phasors once, for A and A'; the final pass once per block, for A, A'
    and the action."""
    pu = Pulse.from_lab(1800.0, 18, 1.3e13)
    deg = 2 * pu.n_cycles + 2
    pz, pperp, _ = _grid_nodes(MomentumGrid.build(pu.omega))
    builds = {True: 0, False: 0}      # keyed by: inside _newton
    evaluations = []                  # Pulse.vector_potential inside _newton
    inside = [False]
    phasors, newton = Pulse.phasors, saddle._newton
    vector_potential = Pulse.vector_potential

    def counting_phasors(self, t):
        builds[inside[0]] += 1
        return phasors(self, t)

    def counting_a(self, t, **kwargs):
        if inside[0]:
            evaluations.append(np.size(t))
        return vector_potential(self, t, **kwargs)

    def flagged_newton(*args):
        inside[0] = True
        try:
            return newton(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Pulse, "phasors", counting_phasors)
    monkeypatch.setattr(Pulse, "vector_potential", counting_a)
    monkeypatch.setattr(saddle, "_newton", flagged_newton)
    saddle_batch(pu, E_F, pz, pperp * pperp)
    rows = saddle.FINAL_BLOCK_ELEMS // deg
    assert builds[False] == math.ceil(pz.size / rows)
    assert evaluations and builds[True] == len(evaluations)


def test_final_pass_memory_is_bounded():
    """Peak traced allocation of one default-grid channel at N = 18 stays
    within 7.5 times the size of the returned saddle times."""
    pu = Pulse.from_lab(1800.0, 18, 1.3e13)
    pz, pperp, _ = _grid_nodes(MomentumGrid.build(pu.omega))
    pp2 = pperp * pperp
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        batch = saddle_batch(pu, E_F, pz, pp2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * batch.t.nbytes, f"peak {peak / batch.t.nbytes:.2f} x t.nbytes"


class TestSaddleErrors:
    PZ = np.array([0.05, 0.3, -0.2])
    PP2 = np.array([0.0, 0.04, 0.09])

    @staticmethod
    def assert_names_node(err, pulse, pz, pp2):
        msg = str(err)
        assert f"p_z = {pz:.6g}," in msg
        assert f"p_perp^2 = {pp2:.6g}," in msg
        assert f"e_bound = {E_F:.8g}" in msg
        assert err.roots.shape == (2 * pulse.n_cycles + 2,)

    @pytest.mark.parametrize("tol, value, exc", [
        ("RESIDUAL_TOL", 0.0, SaddleError),
        ("DISTINCT_TOL", 1e6, SaddleError),
        ("DEGENERATE_S2_TOL", 1e6, DegenerateSaddleError),
    ])
    def test_tolerance_failure_names_the_first_node(self, pulse, monkeypatch,
                                                   tol, value, exc):
        monkeypatch.setattr(saddle, tol, value)
        with pytest.raises(exc) as info:
            saddle_batch(pulse, E_F, self.PZ, self.PP2)
        self.assert_names_node(info.value, pulse, self.PZ[0], self.PP2[0])

    @pytest.mark.parametrize("corrupt, match", [
        (lambda t, pu: np.conj(t), "Im t"),
        (lambda t, pu: t + pu.tau_p, "outside 0 <= Re t"),
    ])
    def test_root_set_failure_names_the_node(self, pulse, corrupt, match):
        good = saddle_batch(pulse, E_F, self.PZ, self.PP2)
        t = good.t.copy()
        t[1] = corrupt(t[1], pulse)
        with pytest.raises(SaddleError, match=match) as info:
            saddle._validate_batch(pulse, E_F, self.PZ, self.PP2, t,
                                   good.residual, good.s2)
        self.assert_names_node(info.value, pulse, self.PZ[1], self.PP2[1])
        np.testing.assert_array_equal(info.value.roots, t[1])


class TestPrefactorBranch:
    def test_unit_cases(self):
        assert prefactor_branch(1j) == pytest.approx(1.0)
        val = prefactor_branch(-1j)
        assert val.real >= 0

    @settings(deadline=None, max_examples=80)
    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False))
    def test_inverse_square(self, s2):
        pref = prefactor_branch(s2)
        assert pref ** -2 == pytest.approx(-1j * s2, rel=1e-12)
        assert pref.real >= 0 or (pref.real == 0 and pref.imag > 0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSaddleError):
            prefactor_branch(0.0)
