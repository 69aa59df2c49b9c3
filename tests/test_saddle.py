import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from scalar_oracle import action, action_derivative
from sowp import saddle
from sowp.amplitude import amplitude_profiles
from sowp.densmat import MomentumGrid, build_density_matrix, grid_nodes
from sowp.errors import DegenerateSaddleError, SaddleError
from sowp.pulse import Pulse
from sowp.saddle import find_saddles, saddle_batch
from sowp.species import get_species

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
            assert s.prefactor.real >= 0   # principal branch

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
            branches = [np.sign((p[2] + pulse.vector_potential(s.t)).imag)
                        for s in saddles]
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
    pz, pperp, _ = grid_nodes(grid)
    return pz, pperp * pperp


def assert_same_saddles(lines, points, columns=slice(None)):
    """A 2-D (continued) batch equals the 1-D batch of the same nodes, on
    the selected columns."""
    for name in ("t", "action", "s2", "prefactor"):
        np.testing.assert_allclose(
            getattr(lines, name)[:, columns],
            getattr(points, name).reshape(lines.t.shape)[:, columns],
            rtol=1e-10, atol=0, err_msg=name)
    assert lines.residual[:, columns].max() < 1e-10


def consumed_batch(pulse, pz, pp2):
    """saddle_batch given a consumer, the path of the density matrix: a
    SaddleBatch of the whole grid that holds the blocks the consumer is
    handed, NaN on the lines it does not solve."""
    deg = 2 * pulse.n_cycles + 2
    batch = saddle.SaddleBatch(*(np.full(pz.shape + (deg,), np.nan, dtype=dtype)
                                 for dtype in [complex] * 5 + [float]))

    def keep(nodes, block):
        for name in saddle.SaddleBatch.__slots__:
            getattr(batch, name).reshape(-1, deg)[nodes] = getattr(block, name)

    saddle_batch(pulse, E_F, pz, pp2, keep)
    return batch


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

    def recording(pulse, e_bound, t, pz, pperp2, **kwargs):
        seeds = t.copy()        # before Newton polishes them in place
        roots, *fields = newton(pulse, e_bound, t, pz, pperp2, **kwargs)
        if collapse is not None and len(calls) == collapse[0]:
            roots = roots.copy()
            roots[collapse[1], 1] = roots[collapse[1], 0]
        calls.append((seeds, roots.copy()))
        return (roots, *fields)

    monkeypatch.setattr(saddle, "_newton", recording)
    return calls


def row_blocks(n_path, rows=None):
    """The rows of each Newton call along continued lines: rows 0, 1 and 2
    alone, then ``rows`` (default ROW_BLOCK_ROWS) rows at a time."""
    starts = [0, 1, 2] + list(range(3, n_path, rows or saddle.ROW_BLOCK_ROWS))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_path])]


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
        # line is continued, across p_z = 0.  Row 0 starts from the roots of
        # its first node (p_z < 0), and at the nodes of the other sign of p_z
        # from their mirror image, so no node of row 0 needs eigvals.  Calls
        # 0-3 solve the first node and rows 0, 1 and 2; call 4, the first
        # block, returns one node with two equal roots, which fails the
        # distinctness contract and is re-seeded
        pz, pp2 = (a[:, :-1] for a in radial_lines(pulse))
        assert (pz[0] > 0).any() and (pz[0] < 0).any()
        seeded = count_seeds(monkeypatch)
        calls = record_newton(monkeypatch, collapse=(4, 5))
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert seeded == [1, 1]
        assert [len(seeds) for seeds, _ in calls[:6]] == [1] + [pz.shape[1]] * 3 + [
            saddle.ROW_BLOCK_ROWS * pz.shape[1], 1]
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    def test_failed_row_zero_node_is_reseeded(self, pulse, monkeypatch):
        # on the consumer path: row 0 of the solved lines starts from the
        # first node's roots (call 0); its Newton call (call 1) returns
        # node 3 with two equal roots, so eigvals re-seeds it (call 2), and
        # its line continues from there
        pz, pp2 = radial_lines(pulse)
        solved = pz.shape[1] // 2
        seeded = count_seeds(monkeypatch)
        calls = record_newton(monkeypatch, collapse=(1, 3))
        lines = consumed_batch(pulse, pz, pp2)
        assert seeded == [1, 1]
        assert [len(seeds) for seeds, _ in calls[:3]] == [1, solved, 1]
        np.testing.assert_array_equal(calls[1][0],
                                      np.repeat(calls[0][1], solved, axis=0))
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()),
                            columns=np.s_[:solved])

    def test_reseed_inside_a_block_keeps_the_block(self, monkeypatch):
        # N = 18, on the consumer path: call 4 is the first full block (rows
        # 3 .. 3 + ROW_BLOCK_ROWS - 1) and returns one node in its middle
        # with two equal roots.  Call 5 re-seeds it in buffers of its own and
        # the block's fields take its roots; every node the consumer gets,
        # that block's included, equals the independent point solve
        pu = Pulse.from_lab(1800.0, 18, 1.3e13)
        pz, pp2 = radial_lines(pu)
        solved, k = pz.shape[1] // 2, saddle.ROW_BLOCK_ROWS
        assert pz.shape[0] >= 3 + k
        seeded = count_seeds(monkeypatch)
        calls = record_newton(monkeypatch, collapse=(4, (k // 2) * solved + 3))
        lines = consumed_batch(pu, pz, pp2)
        assert seeded == [1, 1]
        assert [len(seeds) for seeds, _ in calls[4:6]] == [k * solved, 1]
        assert_same_saddles(lines, saddle_batch(pu, E_F, pz.ravel(), pp2.ravel()),
                            columns=np.s_[:solved])

    def test_shuffled_rows_match_independent_points(self, pulse, rng):
        pz, pp2 = (a[:, :-1] for a in radial_lines(pulse))
        perm = rng.permutation(pz.shape[0])
        pz, pp2 = pz[perm], pp2[perm]
        lines = saddle_batch(pulse, E_F, pz, pp2)
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()))

    def test_rejects_three_dimensional_input(self, pulse):
        with pytest.raises(ValueError):
            saddle_batch(pulse, E_F, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shapes", [(3, 4), ((2, 3), (3, 2)), (6, (2, 3))])
    def test_rejects_points_of_different_shapes(self, pulse, shapes):
        pz, pp2 = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="same shape"):
            saddle_batch(pulse, E_F, pz, pp2)


class TestPredictor:
    def test_reseeded_column_is_extrapolated_like_the_rest(self, pulse,
                                                           monkeypatch):
        pz, pp2 = radial_lines(pulse)
        deg = 2 * pulse.n_cycles + 2
        solved, col = pz.shape[1] // 2, 2
        k = saddle.ROW_BLOCK_ROWS
        assert 1 < k < pz.shape[0] - 3
        # on the consumer path: call 0 solves the first node, calls 1-3
        # rows 0-2 of the solved lines, call 4 the first block (rows
        # 3..3+k-1); its last row has two equal roots in column col, so
        # call 5 re-seeds that node
        calls = record_newton(monkeypatch, collapse=(4, (k - 1) * solved + col))
        lines = consumed_batch(pulse, pz, pp2)
        assert len(calls[5][0]) == 1
        assert (np.diff(lines.t[:, :solved].real, axis=-1) > 0).all()
        # the stored rows are the returned ones; the next block (call 6)
        # seeds every column, the re-seeded one included, by the Lagrange
        # polynomial through the last PREDICTOR_ROWS rows in s = |p|, root
        # by root in Re t order
        r, m = 3 + k, saddle.PREDICTOR_ROWS
        assert r >= m
        s = np.sqrt(pz * pz + pp2)[:, :solved]
        nodes, x = s[r - m:r], s[r:r + k]
        last = lines.t[r - m:r, :solved]
        expected, scale = 0.0, 0.0
        for j in range(m):
            weight = np.prod([(x - nodes[i]) / (nodes[j] - nodes[i])
                              for i in range(m) if i != j], axis=0)
            expected = expected + weight[..., None] * last[j]
            scale = scale + np.abs(weight[..., None] * last[j])
        seeds = calls[6][0].reshape(k, solved, deg)
        # the weights reach 2e6 in sum of moduli ten rows out, so the two
        # summation orders agree to rounding of that sum, not of the seed
        assert (np.abs(seeds - expected) <= 1e-14 * scale).all()
        assert not np.array_equal(seeds[0, col], last[-1, col])
        assert_same_saddles(lines, saddle_batch(pulse, E_F, pz.ravel(), pp2.ravel()),
                            columns=np.s_[:solved])

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

    def test_edge_root_jump_falls_back(self, pulse, monkeypatch):
        # the p_z = 0 line, every row re-seeded: eigvals returns its edge
        # root at Re t = 0 on some rows and at tau_p on others, a jump the
        # degree-6 weights would blow up to overflow.  Those columns start
        # Newton from the last row's roots instead, with no RuntimeWarning
        pz, pp2 = (a[:, 7:8] for a in radial_lines(pulse, n_theta=15))
        assert (pz == 0.0).all()
        monkeypatch.setattr(saddle, "DISTINCT_TOL", 1e6)
        calls = record_newton(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaddleError, match="separated"):
                saddle_batch(pulse, E_F, pz, pp2)
        roots = np.concatenate([roots for _, roots in calls])
        assert (np.abs(roots[:, 0].real) < 1e-6 * pulse.tau_p).any()
        assert (np.abs(roots[:, -1].real - pulse.tau_p) < 1e-6 * pulse.tau_p).any()
        for seeds, _ in calls:
            assert np.abs(seeds.real).max() <= 1.25 * pulse.tau_p

    @pytest.mark.parametrize("n_cycles", [2, 18])
    def test_one_newton_call_per_block(self, monkeypatch, n_cycles,
                                       species_f, species_cl, species_br):
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega))
        n_path, solved = pz.shape[0], pz.shape[1] // 2
        # ten rows per block, five at N = 18 (ROW_BLOCK_ROOTS per channel)
        blocks = row_blocks(n_path, {2: 10, 18: 5}[n_cycles])
        calls = record_newton(monkeypatch)
        seeded = count_seeds(monkeypatch)
        evaluated, checked = [], []
        vector_potential = Pulse.vector_potential
        checked_fields = saddle._checked

        def counting(self, t, phasors=None, **kwargs):
            evaluated.append(np.size(t))
            return vector_potential(self, t, phasors=phasors, **kwargs)

        def counting_gate(pu, fields, *work):
            checked.append(len(fields[0]))
            return checked_fields(pu, fields, *work)

        monkeypatch.setattr(Pulse, "vector_potential", counting)
        monkeypatch.setattr(saddle, "_checked", counting_gate)
        for sp in (species_f, species_cl, species_br):
            for j2 in (3, 1):
                calls.clear()
                seeded.clear()
                evaluated.clear()
                checked.clear()
                saddle_batch(pu, sp.e_bound(j2), pz, pperp * pperp,
                             lambda nodes, block: None)
                # the first node, then one call per row block: no node is
                # re-seeded, which also means the roots kept their Re t
                # order, the one the predictor extrapolates in
                assert len(calls) == 1 + len(blocks), (sp.name, j2)
                assert seeded == [1], (sp.name, j2)
                # and every node reaches the contract gate once, per row
                # block
                assert checked == [len(range(n_path)[rows]) * solved
                                   for rows in blocks], (sp.name, j2)
                # A is evaluated only by Newton, 2.02 times per root: one
                # step from nearly every predicted seed (the quadratic
                # predictor needed two, 2.92 evaluations per root)
                assert sum(evaluated) < 2.1 * n_path * solved * deg, (sp.name, j2)

    def test_one_eigensolve_per_channel(self, monkeypatch, species_f):
        # on a MomentumGrid every solved line is continued from row 0, and
        # row 0 from the roots of its first node: one eigenvalue problem
        # per channel, both in one eigvals call, so two per density matrix
        pu = Pulse.from_lab(1800.0, 18, 1.3e13)
        seeded = count_seeds(monkeypatch)
        build_density_matrix(pu, species_f, MomentumGrid.build(pu.omega))
        assert seeded == [2]


class TestMirror:
    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_symmetric_lines_solve_half(self, pulse, monkeypatch, n_theta):
        # the first node, then the rows of the first ceil(n_theta/2) lines
        # given a consumer, of every line without one
        pz, pp2 = radial_lines(pulse, n_theta=n_theta)
        calls = record_newton(monkeypatch)
        rows = [len(range(pz.shape[0])[r]) for r in row_blocks(pz.shape[0])]
        for consume, lines in ((lambda nodes, block: None, (n_theta + 1) // 2),
                               (None, n_theta)):
            calls.clear()
            batch = saddle_batch(pulse, E_F, pz, pp2, consume)
            assert [len(seeds) for seeds, _ in calls] == [1] + [
                k * lines for k in rows]
        # the mirrored lines, solved like the others, hold the images: column
        # n_theta-1-j is tau_p - conj(t) of column j, in reversed order of
        # Re t, to rounding.  The p_z = 0 line is its own image, modulo
        # tau_p (see test_lines_match_independent_points)
        t = batch.t
        for j in range(n_theta // 2):
            np.testing.assert_allclose(
                t[:, n_theta - 1 - j], (pulse.tau_p - np.conj(t[:, j]))[:, ::-1],
                rtol=0, atol=1e-10 * pulse.tau_p, err_msg=str(j))
        if n_theta % 2:
            mid = t[:, n_theta // 2]
            assert_same_roots_modulo_period(mid, pulse.tau_p - np.conj(mid),
                                            pulse.tau_p)

    def test_asymmetric_lines_solve_all(self, pulse, monkeypatch):
        pz, pp2 = radial_lines(pulse)
        pp2 = pp2.copy()
        pp2[:, 0] *= 1.0 + 1e-12   # p_perp^2 no longer mirrors exactly
        calls = record_newton(monkeypatch)
        saddle_batch(pulse, E_F, pz, pp2)
        rows = [len(range(pz.shape[0])[r]) for r in row_blocks(pz.shape[0])]
        # the first node, then rows 0, 1, 2, ... of every line: the nodes of
        # row 0 at the other sign of p_z need no eigvals (see
        # test_far_neighbours_are_reseeded)
        assert [len(seeds) for seeds, _ in calls] == [1] + [
            k * pz.shape[1] for k in rows]

    @staticmethod
    def record_checks(monkeypatch):
        """Wrap saddle._node_checks, the per-node contract path; the
        returned list gets the roots and |S'| of every call."""
        seen = []
        node_checks = saddle._node_checks

        def recording(pu, fields, *work):
            seen.append((fields[0].copy(), fields[-1].copy()))
            return node_checks(pu, fields, *work)

        monkeypatch.setattr(saddle, "_node_checks", recording)
        return seen

    @staticmethod
    def record_gate(monkeypatch):
        """Wrap saddle._checked, the contract gate of every block; the
        returned list gets the roots and |S'| of every call."""
        seen = []
        checked = saddle._checked

        def recording(pu, fields, *work):
            seen.append((fields[0].copy(), fields[-1].copy()))
            return checked(pu, fields, *work)

        monkeypatch.setattr(saddle, "_checked", recording)
        return seen

    def test_every_node_is_validated(self, pulse, monkeypatch):
        # without a consumer, the contract gate sees every node's roots and
        # |S'| exactly once, per row block of all lines, in flat order
        pz, pp2 = radial_lines(pulse)
        deg = 2 * pulse.n_cycles + 2
        seen = self.record_gate(monkeypatch)
        batch = saddle_batch(pulse, E_F, pz, pp2)
        blocks = row_blocks(pz.shape[0])
        assert len(seen) == len(blocks)
        for (roots, residual), rows in zip(seen, blocks):
            np.testing.assert_array_equal(roots, batch.t[rows].reshape(-1, deg))
            np.testing.assert_array_equal(residual,
                                          batch.residual[rows].reshape(-1, deg))

    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_consumer_path_validates_each_solved_node(self, pulse, monkeypatch,
                                                      n_theta):
        # given a consumer, only the solved lines are evaluated: the gate
        # sees every solved node's roots and |S'| exactly once, per row
        # block, and no mirrored node, and the consumer gets the solved
        # nodes' flat indices in the whole grid, block by block
        pz, pp2 = radial_lines(pulse, n_theta=n_theta)
        deg = 2 * pulse.n_cycles + 2
        solved = (n_theta + 1) // 2
        expected = saddle_batch(pulse, E_F, pz, pp2)
        seen, handed = self.record_gate(monkeypatch), []
        saddle_batch(pulse, E_F, pz, pp2,
                     lambda nodes, block: handed.append(nodes))
        blocks = row_blocks(pz.shape[0])
        flat = np.arange(pz.size).reshape(pz.shape)
        assert len(seen) == len(handed) == len(blocks)
        for (roots, residual), nodes, rows in zip(seen, handed, blocks):
            np.testing.assert_array_equal(
                roots, expected.t[rows, :solved].reshape(-1, deg))
            np.testing.assert_array_equal(
                residual, expected.residual[rows, :solved].reshape(-1, deg))
            np.testing.assert_array_equal(nodes, flat[rows, :solved].ravel())

    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_blocks_lend_their_unsolved_images(self, pulse, n_theta):
        # each block names the grid nodes of its nodes' mirror images: each
        # at (-p_z, the same p_perp^2), none for the p_z = 0 line, and over
        # all blocks every node of the unsolved lines exactly once
        pz, pp2 = radial_lines(pulse, n_theta=n_theta)
        flat_pz, flat_pp2 = pz.ravel(), pp2.ravel()
        covered = []

        def consume(nodes, block):
            images, has = block.images
            np.testing.assert_array_equal(has, flat_pz[nodes] != 0)
            np.testing.assert_array_equal(flat_pz[images], -flat_pz[nodes][has])
            np.testing.assert_array_equal(flat_pp2[images], flat_pp2[nodes][has])
            covered.extend(images.tolist())

        saddle_batch(pulse, E_F, pz, pp2, consume)
        unsolved = np.arange(pz.size).reshape(pz.shape)[:, (n_theta + 1) // 2:]
        assert len(covered) == unsolved.size
        assert sorted(covered) == sorted(unsolved.ravel().tolist())
        if n_theta % 2:
            assert (pz[:, n_theta // 2] == 0).all()

    def test_points_and_unmirrored_lines_lend_no_images(self, pulse):
        # 1-D points, and lines whose last column is dropped so that they
        # do not mirror, are solved whole: no block names an image
        pz, pp2 = radial_lines(pulse)
        seen = []

        def consume(nodes, block):
            seen.append(block.images)

        saddle_batch(pulse, E_F, pz[:, :-1], pp2[:, :-1], consume)
        saddle_batch(pulse, E_F, pz[0], pp2[0], consume)
        assert len(seen) == len(row_blocks(pz.shape[0])) + 1
        assert all(images is None for images in seen)

    def test_failing_batch_is_validated_whole(self, pulse, monkeypatch):
        # a block that fails the gate stops the consumer, not the
        # continuation: every later block is still checked, each node once,
        # and the error names the first failing node of the whole batch
        pz, pp2 = radial_lines(pulse)
        good = saddle_batch(pulse, E_F, pz, pp2)
        monkeypatch.setattr(saddle, "DEGENERATE_S2_TOL", 1e6)
        seen, handed = self.record_checks(monkeypatch), []
        with pytest.raises(DegenerateSaddleError) as info:
            saddle_batch(pulse, E_F, pz, pp2,
                         lambda nodes, block: handed.append(nodes))
        assert handed == []
        assert sum(len(roots) for roots, _ in seen) == pz.size // 2
        assert f"p_z = {pz[0, 0]:.6g}," in str(info.value)
        np.testing.assert_array_equal(info.value.roots, good.t[0, 0])


    def test_mirrored_node_failing_alone_is_named(self, pulse, monkeypatch):
        # in the first block, node m on a mirrored line (row 3) and node b
        # on a solved line (row 8) return a root moved off the saddle, from
        # every Newton call, re-seeds included.  Without a consumer every
        # line is solved: m comes first in flat order, so the error names
        # m, failing alone, and counts m and b.  Given one, m is not solved
        # (its partner passes), so the error names b and counts b with its
        # mirror image
        pz, pp2 = radial_lines(pulse)
        m, b, shift = (3, 12), (8, 1), 1e-4
        good = saddle_batch(pulse, E_F, pz, pp2)
        newton = saddle._newton

        def off_at_m_and_b(pu, e_bound, t, pz_, pp2_, **kwargs):
            roots = newton(pu, e_bound, t, pz_, pp2_, **kwargs)[0].copy()
            for n in (m, b):
                roots[(pz_[:, 0] == pz[n]) & (pp2_[:, 0] == pp2[n]), 0] += shift
            fields, f = saddle._evaluated(pu, e_bound, roots, pz_, pp2_)
            return (*fields, np.abs(f))

        monkeypatch.setattr(saddle, "_newton", off_at_m_and_b)
        for consume, node in ((None, m), (lambda nodes, block: None, b)):
            with pytest.raises(SaddleError) as info:
                saddle_batch(pulse, E_F, pz, pp2, consume)
            message = str(info.value)
            assert message.startswith("saddle residual")
            assert f"p_z = {pz[node]:.6g}, p_perp^2 = {pp2[node]:.6g}," in message
            assert message.endswith(f"(2 of {pz.size} points)")
            expected = good.t[node].copy()
            expected[0] += shift
            np.testing.assert_allclose(info.value.roots, expected, rtol=0,
                                       atol=1e-10 * pulse.tau_p)


def test_one_phasor_build_per_evaluation(monkeypatch):
    """One default-grid channel at N = 18: each Newton step builds the
    phasors once, for A and A'; S'' and the action of every node take the
    phasors of its last Newton step, so none are built outside Newton,
    with a consumer or without."""
    pu = Pulse.from_lab(1800.0, 18, 1.3e13)
    pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega))
    builds = {True: 0, False: 0}      # keyed by: inside _newton
    evaluations = []                  # Pulse.vector_potential inside _newton
    inside = [False]
    phasors, newton = Pulse.phasors, saddle._newton
    vector_potential = Pulse.vector_potential

    def counting_phasors(self, t, **kwargs):
        builds[inside[0]] += 1
        return phasors(self, t, **kwargs)

    def counting_a(self, t, **kwargs):
        if inside[0]:
            evaluations.append(np.size(t))
        return vector_potential(self, t, **kwargs)

    def flagged_newton(*args, **kwargs):
        inside[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(Pulse, "phasors", counting_phasors)
    monkeypatch.setattr(Pulse, "vector_potential", counting_a)
    monkeypatch.setattr(saddle, "_newton", flagged_newton)
    for consume in (lambda nodes, block: None, None):
        builds.update({True: 0, False: 0})
        evaluations.clear()
        saddle_batch(pu, E_F, pz, pperp * pperp, consume)
        assert builds[False] == 0
        assert evaluations and builds[True] == len(evaluations)


class TestRsqrt:
    """saddle._rsqrt, the prefactor's 1/sqrt, against a 40-digit oracle
    and against numpy's branch."""

    @staticmethod
    def rsqrt(x):
        x = np.asarray(x, dtype=complex)
        return saddle._rsqrt(x, np.empty_like(x), np.empty((2,) + x.shape, dtype=complex))

    def test_matches_oracle(self, rng):
        # |x| from 1e-6 (DEGENERATE_S2_TOL) to 1e6, every argument; the
        # _rsqrt docstring holds the measured error
        x = 10.0 ** rng.uniform(-6.0, 6.0, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
        with mpmath.workdps(40):
            ref = np.array([complex(1 / mpmath.sqrt(mpmath.mpc(v.real, v.imag))) for v in x])
        err = np.abs(self.rsqrt(x) - ref) / np.abs(ref)
        assert err.max() <= 4e-16, err.max()

    def test_branch_of_numpy_on_the_axes(self):
        # the negative real axis takes the side of the sign of its zero
        # imaginary part, as numpy's principal sqrt does
        x = np.array([complex(-4.0, 0.0), complex(-4.0, -0.0), complex(4.0, 0.0),
                      complex(4.0, -0.0), 9j, -9j, complex(-2.0, 1e-300),
                      complex(-2.0, -1e-300)])
        got, want = self.rsqrt(x), 1 / np.sqrt(x)
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
        off_positive_axis = np.array([0, 1, 4, 5, 6, 7])
        np.testing.assert_array_equal(np.signbit(got.imag[off_positive_axis]),
                                      np.signbit(want.imag[off_positive_axis]))

    def test_into_its_argument(self, rng):
        x = rng.uniform(-5.0, 5.0, (4, 6)) + 1j * rng.uniform(-5.0, 5.0, (4, 6))
        want = self.rsqrt(x)
        got = saddle._rsqrt(x, x, np.empty((2,) + x.shape, dtype=complex))
        assert got is x and got.tobytes() == want.tobytes()


def test_final_pass_memory_is_bounded():
    """Peak traced allocation of one default-grid channel at N = 18 stays
    within 7.5 times the size of the returned saddle times."""
    pu = Pulse.from_lab(1800.0, 18, 1.3e13)
    pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega))
    pp2 = pperp * pperp
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        batch = saddle_batch(pu, E_F, pz, pp2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * batch.t.nbytes, f"peak {peak / batch.t.nbytes:.2f} x t.nbytes"


@pytest.mark.parametrize("n_cycles", [2, 8])
def test_consumer_path_memory_does_not_grow_with_the_grid(n_cycles):
    """Given a consumer, saddle_batch holds no array of the grid's size, so
    the traced peak of both F channels on a default-grid layout does not
    grow when n_energy doubles from 200 to 400.  Measured: flat to 0.1 %;
    a per-node record of the contract values grew it by 20-40 %."""
    pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
    f = get_species("F")
    peaks = []
    for n_energy in (200, 400):
        pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega, n_energy=n_energy))
        pp2 = pperp * pperp
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            saddle_batch(pu, [f.e_bound(3), f.e_bound(1)], pz, pp2,
                         lambda nodes, block: None)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.01 * peaks[0], peaks


@pytest.mark.parametrize("n_cycles", [8, 18])
def test_consumer_path_peak_is_one_workspace_and_the_predictor_rows(n_cycles):
    """Given a consumer, the traced peak of both F channels on the default
    grid is the block workspace (ten complex arrays of a row block's roots,
    a slot each, and two float ones) and the PREDICTOR_ROWS rows the
    predictor reads, both sized from ROW_BLOCK_ROWS, ROW_BLOCK_ROOTS and
    PREDICTOR_ROWS, plus the predictor's Lagrange factors (a float per
    block row, pair of predictor rows and line) and less than a slot of a
    block's other temporaries.  An eleventh slot, or a window that also
    holds a block's rows, adds a whole slot."""
    pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
    f = get_species("F")
    pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega))
    deg, lines = 2 * n_cycles + 2, pz.shape[1] // 2     # the solved lines
    rows = min(saddle.ROW_BLOCK_ROWS, saddle.ROW_BLOCK_ROOTS // (lines * deg))
    row = 2 * lines * deg * np.dtype(complex).itemsize      # both channels
    slot = rows * row
    workspace = 10 * slot + 2 * (slot // 2)
    window = saddle.PREDICTOR_ROWS * row
    factors = rows * saddle.PREDICTOR_ROWS ** 2 * lines * np.dtype(float).itemsize
    pp2 = pperp * pperp
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        saddle_batch(pu, [f.e_bound(3), f.e_bound(1)], pz, pp2,
                     lambda nodes, block: None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= workspace + window + factors + slot, (peak, slot)


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
    def test_root_set_failure_names_the_node(self, pulse, monkeypatch,
                                             corrupt, match):
        # Newton returns the second point's roots corrupted, |S'| intact
        good = saddle_batch(pulse, E_F, self.PZ, self.PP2)
        newton = saddle._newton

        def corrupting(*args, **kwargs):
            t, *fields = newton(*args, **kwargs)
            t = t.copy()
            t[1] = corrupt(t[1], pulse)
            return (t, *fields)

        monkeypatch.setattr(saddle, "_newton", corrupting)
        with pytest.raises(SaddleError, match=match) as info:
            saddle_batch(pulse, E_F, self.PZ, self.PP2)
        self.assert_names_node(info.value, pulse, self.PZ[1], self.PP2[1])
        assert "(1 of 3 points)" in str(info.value)
        np.testing.assert_array_equal(info.value.roots, corrupt(good.t[1], pulse))

    def test_residual_failure_outranks_earlier_distinctness_failure(
            self, pulse, monkeypatch):
        # node a (row 5) returns two equal roots and node b (row 20) a root
        # moved off the saddle, from every Newton call, re-seeds included.
        # The residual contract comes first, so both paths name b with its
        # roots.  Given a consumer, b counts with its mirror image, which
        # is not solved; without one, b's image is solved and passes, so b
        # counts alone.  Only the blocks before a's reach the consumer
        pz, pp2 = radial_lines(pulse)
        solved, a, b, shift = pz.shape[1] // 2, (5, 2), (20, 3), 1e-4
        good = saddle_batch(pulse, E_F, pz, pp2)
        newton = saddle._newton

        def corrupting(pu, e_bound, t, pz_, pp2_, **kwargs):
            roots = newton(pu, e_bound, t, pz_, pp2_, **kwargs)[0].copy()
            at = [(pz_[:, 0] == pz[n]) & (pp2_[:, 0] == pp2[n]) for n in (a, b)]
            roots[at[0], 1] = roots[at[0], 0]
            roots[at[1], 0] += shift
            fields, f = saddle._evaluated(pu, e_bound, roots, pz_, pp2_)
            return (*fields, np.abs(f))

        monkeypatch.setattr(saddle, "_newton", corrupting)
        handed = []
        with pytest.raises(SaddleError) as windowed:
            saddle_batch(pulse, E_F, pz, pp2,
                         lambda nodes, block: handed.append(nodes))
        with pytest.raises(SaddleError) as whole:
            saddle_batch(pulse, E_F, pz, pp2)
        expected = good.t[b].copy()
        expected[0] += shift
        for info, count in ((windowed, 2), (whole, 1)):
            message = str(info.value)
            assert message.startswith("saddle residual")
            assert f"p_z = {pz[b]:.6g}, p_perp^2 = {pp2[b]:.6g}," in message
            assert message.endswith(f"({count} of {pz.size} points)")
            np.testing.assert_allclose(info.value.roots, expected, rtol=0,
                                       atol=1e-10 * pulse.tau_p)
        np.testing.assert_array_equal(
            np.concatenate(handed),
            np.arange(pz.size).reshape(pz.shape)[:3, :solved].ravel())
        assert type(whole.value) is type(windowed.value)
        assert (str(whole.value).rsplit("(", 1)[0]
                == str(windowed.value).rsplit("(", 1)[0])
        np.testing.assert_array_equal(whole.value.roots, windowed.value.roots)


class TestBlockGate:
    """The contract gate reduces each block as a whole, and takes per-node
    values only for a block that fails: one bad node in an otherwise
    passing block must raise what the per-node gate raises on every
    block."""

    @pytest.mark.parametrize("consumer", [False, True])
    @pytest.mark.parametrize("fault", ["nan root", "shifted root", "nan |S'|"])
    def test_one_bad_node_in_a_late_block(self, pulse, monkeypatch, fault,
                                          consumer):
        # node (36, 2), on a solved line in the last block (rows 33-39),
        # returns one NaN root, one root moved off the saddle, or one NaN
        # |S'| at intact roots, from every Newton call, re-seeds included.
        # Each breaks the residual contract first, the last one that alone.
        # Given a consumer, its mirror image is not solved and counts with
        # it; without one, the image is solved and passes
        pz, pp2 = radial_lines(pulse)
        node, solved = (36, 2), pz.shape[1] // 2
        assert row_blocks(pz.shape[0])[-1] == slice(33, 40)
        newton = saddle._newton

        def faulty(pu, e_bound, t, pz_, pp2_, **kwargs):
            roots = newton(pu, e_bound, t, pz_, pp2_, **kwargs)[0].copy()
            at = (pz_[:, 0] == pz[node]) & (pp2_[:, 0] == pp2[node])
            if fault == "nan root":
                roots[at, 3] = complex(np.nan, np.nan)
            elif fault == "shifted root":
                roots[at, 3] += 1e-4
            fields, f = saddle._evaluated(pu, e_bound, roots, pz_, pp2_)
            residual = np.abs(f)
            if fault == "nan |S'|":
                residual[at, 3] = np.nan
            return (*fields, residual)

        monkeypatch.setattr(saddle, "_newton", faulty)
        handed = []
        consume = (lambda nodes, block: handed.append(nodes)) if consumer else None
        with pytest.raises(SaddleError) as gated, np.errstate(invalid="ignore"):
            saddle_batch(pulse, E_F, pz, pp2, consume)
        # the reference: per-node values and checks on every block
        monkeypatch.setattr(saddle, "_checked", saddle._node_checks)
        with pytest.raises(SaddleError) as per_node, np.errstate(invalid="ignore"):
            saddle_batch(pulse, E_F, pz, pp2, consume and (lambda nodes, block: None))
        message = str(gated.value)
        assert message == str(per_node.value)
        assert message.startswith("saddle residual ")
        assert ("nan" in message) == (fault != "shifted root")
        assert f"p_z = {pz[node]:.6g}, p_perp^2 = {pp2[node]:.6g}," in message
        assert message.endswith(f"({2 if consumer else 1} of {pz.size} points)")
        np.testing.assert_array_equal(gated.value.roots, per_node.value.roots)
        if consumer:    # every block before the failing one
            np.testing.assert_array_equal(
                np.concatenate(handed),
                np.arange(pz.size).reshape(pz.shape)[:33, :solved].ravel())


class TestChannels:
    """saddle_batch given a sequence of channel energies continues the
    lines of all channels in one pass; each channel gets what a call with
    its energy alone gets."""

    @staticmethod
    def solve(pulse, e_bound, pz, pp2, consumer):
        """The SaddleBatch of the call, without a consumer or collected from
        the blocks one is handed (NaN on the lines it does not solve)."""
        if not consumer:
            return saddle_batch(pulse, e_bound, pz, pp2)
        deg = 2 * pulse.n_cycles + 2
        shape = np.shape(e_bound) + pz.shape + (deg,)
        batch = saddle.SaddleBatch(*(np.full(shape, np.nan, dtype=dtype)
                                     for dtype in [complex] * 5 + [float]))

        def keep(nodes, block):
            for name in saddle.SaddleBatch.__slots__:
                field = getattr(batch, name).reshape(np.shape(e_bound) + (-1, deg))
                field[..., nodes, :] = getattr(block, name)

        saddle_batch(pulse, e_bound, pz, pp2, keep)
        return batch

    @staticmethod
    def nodes(pulse, layout):
        pz, pp2 = radial_lines(pulse, n_energy=20, n_theta=7)
        return (pz.ravel()[::3], pp2.ravel()[::3]) if layout == "points" else (pz, pp2)

    @pytest.mark.parametrize("consumer", [False, True])
    @pytest.mark.parametrize("layout", ["points", "lines"])
    @pytest.mark.parametrize("n_cycles", [2, 8, 18])
    @pytest.mark.parametrize("name", ["F", "Br"])
    def test_two_channels_equal_two_calls(self, name, n_cycles, layout,
                                          consumer):
        # a block of both channels has the rows of a block of one, so every
        # field agrees to the bit
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        energies = [get_species(name).e_bound(j2) for j2 in (3, 1)]
        pz, pp2 = self.nodes(pu, layout)
        both = self.solve(pu, energies, pz, pp2, consumer)
        for channel, e_bound in enumerate(energies):
            alone = self.solve(pu, e_bound, pz, pp2, consumer)
            for field in saddle.SaddleBatch.__slots__:
                np.testing.assert_array_equal(getattr(both, field)[channel],
                                              getattr(alone, field), err_msg=field)

    @pytest.mark.parametrize("n_cycles", [8, 18])
    def test_binding_budget_holds_the_rows_of_one_channel(self, monkeypatch,
                                                          n_cycles):
        # a root budget of three rows per channel: a block of both channels
        # holds the three rows a block of one holds, so every field agrees
        # to the bit
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        energies = [get_species("Br").e_bound(j2) for j2 in (3, 1)]
        pz, pp2 = self.nodes(pu, "lines")
        monkeypatch.setattr(saddle, "ROW_BLOCK_ROOTS", 3 * pz.shape[1] * deg)
        calls = record_newton(monkeypatch)
        both = saddle_batch(pu, energies, pz, pp2)
        assert [seeds.shape[:2] for seeds, _ in calls[4:6]] == [(2, 3 * pz.shape[1])] * 2
        for channel, e_bound in enumerate(energies):
            calls.clear()
            alone = saddle_batch(pu, e_bound, pz, pp2)
            assert len(calls[4][0]) == 3 * pz.shape[1]
            for field in saddle.SaddleBatch.__slots__:
                np.testing.assert_array_equal(getattr(both, field)[channel],
                                              getattr(alone, field), err_msg=field)

    @pytest.mark.parametrize("n_cycles", [8, 18])
    def test_smaller_blocks_agree_to_rounding(self, monkeypatch, n_cycles):
        # root budgets of three and of six rows per channel: the blocks
        # differ, and a block's Newton steps with them.  The roots agree to
        # the Newton stopping tolerance; 1/sqrt(-i S'') magnifies that to up
        # to 2.7e-12 relative (measured; the same as one channel in blocks
        # of 5 and 10 rows)
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        energies = [get_species("Br").e_bound(j2) for j2 in (3, 1)]
        pz, pp2 = self.nodes(pu, "lines")
        calls = record_newton(monkeypatch)
        solved = {}
        for rows in (3, 6):
            monkeypatch.setattr(saddle, "ROW_BLOCK_ROOTS", rows * pz.shape[1] * deg)
            calls.clear()
            solved[rows] = saddle_batch(pu, energies, pz, pp2)
            assert calls[4][0].shape[:2] == (2, rows * pz.shape[1])
        for field, rtol in (("t", 1e-12), ("action", 1e-12), ("prefactor", 1e-11)):
            np.testing.assert_allclose(getattr(solved[3], field),
                                       getattr(solved[6], field), rtol=rtol,
                                       atol=0, err_msg=field)

    @pytest.mark.parametrize("n_cycles, rows", [(2, 10), (18, 5)])
    def test_block_holds_both_channels_within_the_root_budget(
            self, monkeypatch, species_f, n_cycles, rows):
        # the density-matrix call on the default grid: after the first
        # nodes and rows 0-2, blocks of `rows` rows of both channels' solved
        # lines, ten at N = 2; at N = 18 no Newton call holds more than
        # ROW_BLOCK_ROOTS roots per channel, nor a workspace for two channels
        # more than twice that
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        deg = 2 * n_cycles + 2
        pz, pperp, _ = grid_nodes(MomentumGrid.build(pu.omega))
        n_path, solved = pz.shape[0], pz.shape[1] // 2
        calls, workspaces = record_newton(monkeypatch), []
        workspace = saddle._workspace

        def recording(n, deg):
            workspaces.append(n)
            return workspace(n, deg)

        monkeypatch.setattr(saddle, "_workspace", recording)
        amplitude_profiles(pu, species_f, pz, pperp, consume=lambda nodes, rows: None)
        starts = [0, 1, 2] + list(range(3, n_path, rows))
        ks = [b - a for a, b in zip(starts, starts[1:] + [n_path])]
        assert [seeds.shape for seeds, _ in calls] == [(2, 1, deg)] + [
            (2, k * solved, deg) for k in ks]
        assert max(ks) == rows
        if n_cycles == 18:
            assert max(seeds[0].size for seeds, _ in calls) <= saddle.ROW_BLOCK_ROOTS
            assert max(workspaces) * deg <= 2 * saddle.ROW_BLOCK_ROOTS

    @pytest.mark.parametrize("e_bound", [[], [[E_F]], [E_F, 0.0]])
    def test_rejects_other_energies(self, pulse, e_bound):
        with pytest.raises(ValueError, match="negative energies"):
            saddle_batch(pulse, e_bound, np.zeros(3), np.zeros(3))

    PZ = np.array([0.05, 0.3, -0.2])
    PP2 = np.array([0.0, 0.04, 0.09])

    @staticmethod
    def corrupt(monkeypatch, pz, pp2, faults):
        """Newton returns the roots of each (energy, node, how) of
        ``faults`` corrupted, from every call, re-seeds included: 'shift'
        moves its first root off the saddle (the residual contract fails),
        'equal' repeats it (distinctness fails)."""
        newton = saddle._newton

        def corrupting(pu, e_bound, t, pz_, pp2_, **kwargs):
            roots = newton(pu, e_bound, t, pz_, pp2_, **kwargs)[0].copy()
            for energy, node, how in faults:
                at = np.broadcast_to((e_bound[..., 0] == energy) & (pz_[:, 0] == pz[node])
                                     & (pp2_[:, 0] == pp2[node]), roots.shape[:-1])
                if how == "shift":
                    roots[at, 0] += 1e-4
                else:
                    roots[at, 1] = roots[at, 0]
            fields, f = saddle._evaluated(pu, e_bound, roots, pz_, pp2_)
            return (*fields, np.abs(f))

        monkeypatch.setattr(saddle, "_newton", corrupting)

    @pytest.mark.parametrize("layout", ["three", "lines"])
    @pytest.mark.parametrize("consumer", [False, True])
    def test_j12_failure_names_its_channel(self, pulse, species_f, monkeypatch,
                                           layout, consumer):
        # only j = 1/2 fails: the error is the one its energy alone raises,
        # naming E_1/2 and counting the nodes of one channel
        e32, e12 = species_f.e_bound(3), species_f.e_bound(1)
        pz, pp2 = (self.PZ, self.PP2) if layout == "three" else radial_lines(pulse)
        node = 1 if layout == "three" else (5, 2)
        self.corrupt(monkeypatch, pz, pp2, [(e12, node, "shift")])
        consume = (lambda nodes, block: None) if consumer else None
        with pytest.raises(SaddleError) as both:
            saddle_batch(pulse, [e32, e12], pz, pp2, consume)
        with pytest.raises(SaddleError) as alone:
            saddle_batch(pulse, e12, pz, pp2, consume)
        saddle_batch(pulse, e32, pz, pp2, consume)     # j = 3/2 alone passes
        message = str(both.value)
        assert message == str(alone.value)
        assert message.startswith("saddle residual")
        assert f"e_bound = {e12:.8g}" in message
        count = 2 if consumer and layout == "lines" else 1
        assert message.endswith(f"({count} of {pz.size} points)")
        np.testing.assert_array_equal(both.value.roots, alone.value.roots)

    @pytest.mark.parametrize("consumer", [False, True])
    def test_j32_failure_outranks_j12_failure(self, pulse, species_f,
                                              monkeypatch, consumer):
        # j = 1/2 breaks the residual contract, which comes first, at an
        # earlier node; j = 3/2 breaks only distinctness, later.  The error
        # is still the one j = 3/2 alone raises
        e32, e12 = species_f.e_bound(3), species_f.e_bound(1)
        pz, pp2 = radial_lines(pulse)
        self.corrupt(monkeypatch, pz, pp2, [(e12, (4, 1), "shift"),
                                            (e32, (20, 3), "equal")])
        handed = []
        consume = (lambda nodes, block: handed.append(nodes)) if consumer else None
        with pytest.raises(SaddleError) as both:
            saddle_batch(pulse, [e32, e12], pz, pp2, consume)
        if consumer:    # the j = 1/2 failure in rows 3-12 stops both channels
            solved = np.arange(pz.size).reshape(pz.shape)[:, :pz.shape[1] // 2]
            np.testing.assert_array_equal(np.concatenate(handed), solved[:3].ravel())
        with pytest.raises(SaddleError) as alone:
            saddle_batch(pulse, e32, pz, pp2, consume)
        message = str(both.value)
        assert message == str(alone.value)
        assert message.startswith("saddle pair separated")
        assert f"p_z = {pz[20, 3]:.6g}," in message
        assert f"e_bound = {e32:.8g}" in message
        np.testing.assert_array_equal(both.value.roots, alone.value.roots)
