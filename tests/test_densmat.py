import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import sowp
from scalar_oracle import channel_amplitudes, density_matrix_loop
from sowp import amplitude, analysis, cli, dynamics, saddle
from sowp.amplitude import STATES, SUM_ROWS, amplitude_profiles
from sowp.analysis import buildup
from sowp.densmat import (DensityMatrix, Gram, MomentumGrid, _gauss_legendre,
                          build_density_matrix, coherence_degree, family,
                          gram_to_rho, grid_nodes, total_probability)
from sowp.dynamics import pure_state_limit
from sowp.errors import (CoherenceUndefinedError, NumericalError,
                         ProbabilityError, SaddleError, SaturationWarning)
from sowp.pulse import Pulse
from sowp.species import Species, get_species

SMALL_GRID = dict(n_energy=64, n_theta=24, n_phi=8)


def small_grid(pulse, **over):
    kw = {**SMALL_GRID, **over}
    return MomentumGrid.build(pulse.omega, **kw)


def streamed_rho(pulse, species, grid, cumulative=False):
    """(K, 6, 6) density matrices from a ``Gram`` consuming the blocks of
    ``amplitude_profiles``, then ``gram_to_rho``: K = 1, or the 2N+2
    build-up partial sums when ``cumulative``."""
    pz, pperp, weights = grid_nodes(grid)
    gram = Gram(weights, 2 * pulse.n_cycles + 2 if cumulative else 1)
    amplitude_profiles(pulse, species, pz, pperp, cumulative=cumulative,
                       consume=gram)
    return gram_to_rho(gram.matrix[:, 0], grid)


class TestMomentumGrid:
    def test_volume_exact(self, ref_pulse):
        grid = MomentumGrid.build(ref_pulse.omega)
        volume = (grid.radial_weights.sum() * grid.u_weights.sum()
                  * grid.phi_weights.sum())
        exact = 4.0 * np.pi / 3.0 * (2.0 * grid.e_max) ** 1.5
        assert volume == pytest.approx(exact, rel=1e-10)

    def test_extent_is_photon_cutoff(self, ref_pulse):
        grid = MomentumGrid.build(ref_pulse.omega)
        assert grid.e_max == pytest.approx(15 * ref_pulse.omega, rel=1e-15)
        assert 0.5 * grid.p_nodes.max() ** 2 < grid.e_max
        assert (grid.radial_weights > 0).all() and (grid.u_weights > 0).all()

    def test_rejects_bad_args(self, ref_pulse):
        with pytest.raises(ValueError):
            MomentumGrid.build(ref_pulse.omega, phi_mode="weird")
        with pytest.raises(ValueError):
            MomentumGrid.build(ref_pulse.omega, n_energy=1)

    @pytest.mark.parametrize("name, value", [
        ("omega", np.nan), ("omega", np.inf), ("omega", 0.0), ("omega", -1.0),
        ("e_max", np.nan), ("e_max", np.inf), ("e_max", 0.0), ("e_max", -1.0)])
    def test_rejects_bad_omega_or_e_max(self, ref_pulse, name, value):
        kw = {"omega": ref_pulse.omega, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            MomentumGrid.build(**kw, n_energy=8, n_theta=4)


def legendre_rule_oracle(n):
    """The nonnegative nodes of the n-point Gauss-Legendre rule, ascending,
    and their weights 2 / ((1 - x^2) P_n'(x)^2), to 30 digits: three Newton
    steps on the recurrence in mpmath from numpy's leggauss nodes."""
    nodes, weights = [], []
    with mpmath.workdps(30):
        for x in np.polynomial.legendre.leggauss(n)[0][n // 2:]:
            x = mpmath.mpf(x)
            for _ in range(3):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = n * (p0 - x * p1) / (1 - x * x)
                x, last = x - p1 / dp, x
            nodes.append(x)
            weights.append(2 / ((1 - last * last) * dp * dp))
    return np.array(nodes, dtype=float), np.array(weights, dtype=float)


class TestGaussLegendre:
    """_gauss_legendre, the rule of every MomentumGrid, against a 30-digit
    oracle, and its exact symmetry, on which the mirror rule of
    sowp.saddle rests."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64, 200])
    def test_matches_oracle(self, n):
        # the bounds the _gauss_legendre docstring states; where
        # np.longdouble is plain double, the first-order weight correction
        # is lost and the weights keep the rounding of the nodes
        x, w = _gauss_legendre(n)
        nodes, weights = legendre_rule_oracle(n)
        weight_tol = (4e-16 if np.finfo(np.longdouble).eps < np.finfo(float).eps
                      else 1e-13)
        assert (np.diff(x) > 0).all()
        assert np.abs(x[n // 2:] - nodes).max() <= 2e-16
        assert (np.abs(w[n // 2:] - weights) / weights).max() <= weight_tol

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64, 200])
    def test_exactly_symmetric(self, n):
        x, w = _gauss_legendre(n)
        np.testing.assert_array_equal(x[::-1], -x)
        np.testing.assert_array_equal(w[::-1], w)

    def test_default_grid_keeps_the_mirror_rule(self, monkeypatch, species_f):
        # the lines of the default grid are exact mirror images, so half of
        # them are solved: F at N = 18 makes one saddle pass of 44 Newton
        # calls (not 88)
        pulse = Pulse.from_lab(1800.0, 18, 1.3e13)
        grid = MomentumGrid.build(pulse.omega)
        pz, pperp, _ = grid_nodes(grid)
        assert saddle._solved_lines(pz, pperp * pperp) == 32
        passes, newton_calls = [], []
        saddle_batch, newton = amplitude.saddle_batch, saddle._newton

        def counting_pass(*args, **kwargs):
            passes.append(1)
            return saddle_batch(*args, **kwargs)

        def counting_newton(*args, **kwargs):
            newton_calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(amplitude, "saddle_batch", counting_pass)
        monkeypatch.setattr(saddle, "_newton", counting_newton)
        build_density_matrix(pulse, species_f, grid)
        assert (len(passes), len(newton_calls)) == (1, 44)


def test_grid_build_needs_no_eigensolve():
    """Building the default grid, in a fresh process, imports no
    numpy.polynomial and calls no LAPACK eigensolver."""
    code = ("import sys\n"
            "import numpy as np\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('eigvalsh called')\n"
            "np.linalg.eigvalsh = refuse\n"
            "from sowp.densmat import MomentumGrid\n"
            "MomentumGrid.build(0.0253)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(sowp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("record", [MomentumGrid, DensityMatrix,
                                    analysis.BuildupTrace, dynamics.SignalTrace])
def test_records_of_arrays_compare_and_hash_by_identity(record):
    """Equality over ndarray fields would raise (the truth value of an
    array is ambiguous) and their hash would fail, so these records compare
    and hash by identity."""
    a, b = (record(*(np.eye(6) for _ in dataclasses.fields(record)))
            for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_records_of_scalars_keep_value_equality():
    # a Pulse keys the action coefficients' cache
    pairs = [(Pulse.from_lab(1800.0, 8, 1.3e13), Pulse.from_lab(1800.0, 8, 1.3e13)),
             (get_species("F"), dataclasses.replace(get_species("F"))),
             (analysis.SweepPoint("f", 2, 1.0, 0.5, 0.8, 0.1),
              analysis.SweepPoint("f", 2, 1.0, 0.5, 0.8, 0.1)),
             (analysis.FitResult(0.9, 0.4, 0.01), analysis.FitResult(0.9, 0.4, 0.01)),
             (saddle.SaddlePoint(1, 1j, 2j, 3j, 1.0), saddle.SaddlePoint(1, 1j, 2j, 3j, 1.0))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


class TestAssemble:
    """The streamed 4x4 Gram contraction (``Gram`` as the consumer of
    ``amplitude_profiles``, then ``gram_to_rho``) against the loop over
    state pairs and spins; sums run in another order, so they agree to
    roundoff."""

    @staticmethod
    def assert_matches_loop(rho, amplitudes, weights, grid, k=None):
        ref = density_matrix_loop(amplitudes, weights, grid, k)
        np.testing.assert_allclose(rho, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())
        np.testing.assert_array_equal(rho == 0, ref == 0)

    @pytest.mark.parametrize("phi_mode", ["analytic", "numeric"])
    def test_matches_loop(self, ref_pulse, species_f, phi_mode):
        grid = MomentumGrid.build(ref_pulse.omega, n_energy=16, n_theta=6,
                                  n_phi=6, phi_mode=phi_mode)
        pz, pperp, weights = grid_nodes(grid)
        rho = streamed_rho(ref_pulse, species_f, grid)
        assert rho.shape == (1, len(STATES), len(STATES))
        full = amplitude_profiles(ref_pulse, species_f, pz, pperp)
        self.assert_matches_loop(rho[0], channel_amplitudes(full), weights,
                                 grid)

        rhos = streamed_rho(ref_pulse, species_f, grid, cumulative=True)
        assert rhos.shape == (2 * ref_pulse.n_cycles + 2,) + rho.shape[1:]
        partial = amplitude_profiles(ref_pulse, species_f, pz, pperp,
                                     cumulative=True)
        amplitudes = channel_amplitudes(partial)
        for k, rho_k in enumerate(rhos):
            self.assert_matches_loop(rho_k, amplitudes, weights, grid, k)


class TestStreamedGram:
    """build_density_matrix and buildup add each block of saddle sums into
    their Gram matrices as it arrives.  The reference is one Gram call on
    the whole grid's held sums (amplitude_profiles without a consumer), at
    the same row blocks, so the same roots: many blocks agree with it to
    roundoff (the node sums run in blocks)."""

    @pytest.mark.parametrize("phi_mode", ["analytic", "numeric"])
    @pytest.mark.parametrize("n_theta", [6, 7])
    @pytest.mark.parametrize("n_cycles", [1, 2, 8])
    def test_equals_assemble_of_held_sums(self, species_f, monkeypatch,
                                          n_cycles, n_theta, phi_mode):
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=20, n_theta=n_theta,
                                  n_phi=6, phi_mode=phi_mode)
        # blocks of 3 rows from row 3 on: many blocks and a partial last one
        monkeypatch.setattr(saddle, "ROW_BLOCK_ROWS", 3)
        pz, pperp, weights = grid_nodes(grid)
        held = []
        for cumulative in (False, True):
            sums = amplitude_profiles(pulse, species_f, pz, pperp, cumulative)
            gram = Gram(weights, sums.shape[-1] if cumulative else 1)
            gram(slice(None), sums.reshape(sums.shape[0], pz.size, -1))
            held.append(gram_to_rho(gram.matrix[:, 0], grid))
        (held,), stack = held

        np.testing.assert_allclose(
            build_density_matrix(pulse, species_f, grid).matrix, held,
            rtol=0, atol=1e-14 * np.abs(held).max())

        trace = buildup(pulse, species_f, grid)
        atol = 1e-14 * np.abs(stack).max()
        streamed = (trace.pop_j32_m32, trace.pop_j32_m12, trace.pop_j12_m12,
                    trace.coherence)
        for got, want in zip(streamed, family(stack)):
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        np.testing.assert_allclose(trace.final.matrix, stack[-1], rtol=0,
                                   atol=atol)

    @pytest.mark.parametrize("cumulative", [False, True])
    @pytest.mark.parametrize("n_cycles", [2, 8])
    def test_points_and_lines_agree_on_an_odd_grid(self, species_f, n_cycles,
                                                   cumulative):
        # the same nodes as independent points (each seeded alone, nothing
        # mirrored) and as lines (half continued, half mirrored), with a
        # p_z = 0 line whose edge saddle either solve may place at Re t = 0
        # or at tau_p
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=40, n_theta=15)
        pz, pperp, weights = grid_nodes(grid)
        gram = Gram(weights, 2 * n_cycles + 2 if cumulative else 1)
        amplitude_profiles(pulse, species_f, pz.ravel(), pperp.ravel(),
                           cumulative=cumulative, consume=gram)
        points = gram_to_rho(gram.matrix[:, 0], grid)
        lines = streamed_rho(pulse, species_f, grid, cumulative)
        np.testing.assert_allclose(points, lines, rtol=0,
                                   atol=1e-12 * np.abs(lines).max())

    def test_buildup_peak_memory_is_bounded(self, ref_pulse, species_f,
                                            ref_grid):
        """Traced peak of the F build-up at N = 8 on the default grid
        within 6 times one channel's saddle times (holding all four
        cumulative sums needs 12)."""
        nodes = ref_grid.p_nodes.size * ref_grid.u_nodes.size
        t_nbytes = nodes * (2 * ref_pulse.n_cycles + 2) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            buildup(ref_pulse, species_f, ref_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * t_nbytes, f"peak {peak / t_nbytes:.2f} x t.nbytes"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bound is for glibc's heap")
def test_warm_matrix_does_not_churn_the_heap():
    """A second default-grid F matrix at N = 18 in a fresh process takes at
    most 1 500 minor page faults.  Each saddle_batch call writes its row
    blocks into one set of buffers, so the heap is not trimmed after one
    block and faulted in again by the next.  Measured: about 1 000 (the
    bound leaves 50 %); about 35 000 when every block allocated its own
    arrays, and 2 100 when only Newton's steps did.  A fresh process, since
    earlier tests leave glibc's trim threshold too high to show churn."""
    code = ("import resource\n"
            "from sowp import Pulse, build_density_matrix, get_species\n"
            "pulse, f = Pulse.from_lab(1800.0, 18, 1.3e13), get_species('F')\n"
            "build_density_matrix(pulse, f)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "build_density_matrix(pulse, f)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(sowp.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    faults = int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert faults <= 1500, f"{faults} minor page faults"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bound is for glibc's heap")
def test_first_buildup_does_not_churn_the_heap():
    """The first default-grid F build-up at N = 8 in a fresh process (each
    CLI run) takes at most 4 000 minor page faults.  amplitude_profiles
    writes a block's sums, images and summand into buffers of the call, so
    glibc, whose trim threshold is still low in a fresh process, does not
    trim the heap after one block and fault it in again for the next.
    Measured: 1 300 to 2 700, by where sowp is installed (the heap layout
    moves with the path); 6 600 to 7 200 when every block allocated them."""
    code = ("import resource\n"
            "from sowp import Pulse, get_species\n"
            "from sowp.analysis import buildup\n"
            "pulse, f = Pulse.from_lab(1800.0, 8, 1.3e13), get_species('F')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "buildup(pulse, f)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(sowp.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    faults = int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert faults <= 4000, f"{faults} minor page faults"


class TestSpeciesPasses:
    """build_density_matrix given several species at one pulse solves them
    in one saddle_batch pass, and each gets the matrix it gets alone."""

    @pytest.mark.parametrize("n_cycles, n_theta", [(2, 16), (2, 64), (3, 64)])
    def test_grouped_equals_per_species(self, species_f, species_cl, species_br,
                                        n_cycles, n_theta):
        # at N = 3 on 32 solved lines a root budget shared by six channels
        # would cut the blocks from ten rows to seven; the budget is per
        # channel, so the blocks, the roots and the sums are the same
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=30, n_theta=n_theta, n_phi=8)
        group = (species_f, species_cl, species_br)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            grouped = build_density_matrix(pulse, group, grid)
            alone = [build_density_matrix(pulse, sp, grid) for sp in group]
        assert len(grouped) == len(group)
        for got, want in zip(grouped, alone):
            np.testing.assert_array_equal(got.matrix, want.matrix)

    def test_grouped_equals_per_species_after_reseeding(
            self, monkeypatch, species_f, species_cl, species_br):
        # at 400 nm, 1e11 W/cm^2 and N = 18 on an 18 x 10 grid, nodes of all
        # six channels of the shared pass fail a contract and are re-seeded;
        # each channel's re-seeded roots are polished with their own Newton
        # stop, as they are alone
        pulse = Pulse.from_lab(400.0, 18, 1e11)
        grid = MomentumGrid.build(pulse.omega, n_energy=18, n_theta=10)
        group = (species_br, species_cl, species_f)
        reseeded, solve = [], saddle._solve_points

        def recording(pulse, e_bound, *args, **kwargs):
            reseeded.append(float(np.ravel(e_bound)[0]))
            return solve(pulse, e_bound, *args, **kwargs)
        monkeypatch.setattr(saddle, "_solve_points", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            grouped = build_density_matrix(pulse, group, grid)
            channels = set(reseeded[1:])    # after the first node
            alone = [build_density_matrix(pulse, sp, grid) for sp in group]
        for got, want in zip(grouped, alone):
            assert got.matrix.tobytes() == want.matrix.tobytes()
        assert channels == {sp.e_bound(j2) for sp in group for j2 in (3, 1)}

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_shared_gram_makes_each_species_product(self, species_f,
                                                    species_cl, species_br,
                                                    cumulative):
        # one Gram fed the rows of three species, and one Gram per species
        # fed only its rows, from the same blocks: the same bits per species
        pulse = Pulse.from_lab(1800.0, 3, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=20, n_theta=7)
        pz, pperp, weights = grid_nodes(grid)
        group = (species_f, species_cl, species_br)
        sums = 2 * pulse.n_cycles + 2 if cumulative else 1
        shared = Gram(weights, sums, species=len(group))
        alone = [Gram(weights, sums) for _ in group]
        n = len(SUM_ROWS)

        def consume(nodes, rows):
            shared(nodes, rows)
            for s, gram in enumerate(alone):
                gram(nodes, rows[n * s:n * (s + 1)])
        amplitude_profiles(pulse, group, pz, pperp, cumulative, consume)
        assert shared.matrix.shape == (sums, len(group), n, n)
        for s, gram in enumerate(alone):
            assert shared.matrix[:, s].tobytes() == gram.matrix[:, 0].tobytes()
            assert gram_to_rho(shared.matrix, grid)[:, s].tobytes() == (
                gram_to_rho(gram.matrix, grid)[:, 0].tobytes())

    @pytest.mark.parametrize("n_cycles, names, passes", [
        (2, "F Cl Br", [6]),
        (3, "F Cl Br", [6]),
        (7, "F Cl Br", [6]),
        (8, "F Cl Br", [6]),
        (18, "F Cl Br", [6]),
        (9, "F Cl", [4]),
        (10, "F Cl", [4]),
    ])
    def test_pass_rule_on_the_default_grid(self, monkeypatch, n_cycles, names,
                                           passes):
        # one pass of every species' two channels per pulse, whatever N:
        # the saddle passes are counted, not solved, so the matrices stay zero
        energies = []
        monkeypatch.setattr(amplitude, "saddle_batch",
                            lambda pulse, e_bound, pz, pperp2, consume:
                            energies.append(len(e_bound)))
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        group = [get_species(name) for name in names.split()]
        rhos = build_density_matrix(pulse, group, MomentumGrid.build(pulse.omega))
        assert energies == passes
        assert len(rhos) == len(group)


class TestBuildDensityMatrix:
    def test_zero_field(self, species_f):
        # one rule for both entry points: the saddle layer's SaddleError
        pu = Pulse(omega=0.0253, n_cycles=8, a0=0.0)
        grid = small_grid(pu)
        with pytest.raises(SaddleError, match="zero-amplitude"):
            build_density_matrix(pu, species_f, grid)
        with pytest.raises(SaddleError, match="zero-amplitude"):
            buildup(pu, species_f, grid)
        zero = DensityMatrix(np.zeros((len(STATES), len(STATES)), dtype=complex))
        with pytest.raises(ProbabilityError):
            total_probability(zero)

    def test_reference_coherences(self, ref_rho):
        assert coherence_degree(ref_rho["F"]) == pytest.approx(0.84, abs=0.05)
        assert coherence_degree(ref_rho["Cl"]) == pytest.approx(0.70, abs=0.05)
        assert coherence_degree(ref_rho["Br"]) == pytest.approx(0.02, abs=0.03)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_hermitian(self, ref_rho, name):
        m = ref_rho[name].matrix
        scale = np.abs(m).max()
        assert np.abs(m - m.conj().T).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_diagonals_real_positive(self, ref_rho, name):
        d = np.diag(ref_rho[name].matrix)
        assert np.abs(d.imag).max() <= 1e-14 * d.real.max()
        assert (d.real > 0).all()
        assert total_probability(ref_rho[name]) == pytest.approx(
            float(d.real.sum()), rel=1e-14)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_m_reflection_symmetry(self, ref_rho, name):
        matrix = ref_rho[name].matrix
        up = family(matrix)[:3]
        dn = [matrix[a, a].real for a in map(STATES.index,
                                              ((3, -3), (3, -1), (1, -1)))]
        assert dn == pytest.approx(up, rel=1e-6)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_coherence_block_psd(self, ref_rho, name):
        rho = ref_rho[name]
        _, pop31, pop11, off = family(rho.matrix)
        assert abs(off) ** 2 <= pop31 * pop11
        assert 0.0 <= coherence_degree(rho) <= 1.0

    def test_phi_paths_agree(self, ref_pulse, species_f):
        rho_a = build_density_matrix(ref_pulse, species_f,
                                     small_grid(ref_pulse, phi_mode="analytic"))
        rho_n = build_density_matrix(ref_pulse, species_f,
                                     small_grid(ref_pulse, phi_mode="numeric"))
        idx = {s: i for i, s in enumerate(STATES)}
        scale = np.abs(rho_a.matrix).max()
        for a, (j2a, m2a) in enumerate(STATES):
            for b, (j2b, m2b) in enumerate(STATES):
                if m2a == m2b:
                    assert rho_n.matrix[a, b] == pytest.approx(
                        rho_a.matrix[a, b], rel=1e-6, abs=1e-12 * scale)
                else:
                    assert rho_a.matrix[a, b] == 0.0
                    assert abs(rho_n.matrix[a, b]) < 1e-2 * scale

    def test_saturation_warning(self, species_f):
        pu = Pulse.from_lab(1800.0, 8, 3.0e13)
        with pytest.warns(SaturationWarning):
            build_density_matrix(pu, species_f, small_grid(pu))

    def test_deterministic(self, ref_pulse, species_f):
        grid = small_grid(ref_pulse)
        r1 = build_density_matrix(ref_pulse, species_f, grid)
        r2 = build_density_matrix(ref_pulse, species_f, grid)
        assert np.array_equal(r1.matrix, r2.matrix)

    def test_w_quadratic_in_b(self, ref_pulse, species_f):
        grid = small_grid(ref_pulse)
        base = build_density_matrix(ref_pulse, species_f, grid)
        doubled_b = Species(name="Fx", ea_ev=species_f.ea_ev,
                            splitting_cm1=species_f.splitting_cm1,
                            b_au=2 * species_f.b_au, l=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            big = build_density_matrix(ref_pulse, doubled_b, grid)
        assert big.w == pytest.approx(4 * base.w, rel=1e-12)

    def test_w_monotone_in_intensity(self, species_f):
        ws = []
        for intensity in (0.8e13, 1.1e13, 1.6e13):
            pu = Pulse.from_lab(1800.0, 8, intensity)
            ws.append(build_density_matrix(pu, species_f, small_grid(pu)).w)
        assert ws[0] < ws[1] < ws[2]


class TestCoherenceDegree:
    def test_pure_state(self):
        assert coherence_degree(pure_state_limit()) == \
            pytest.approx(1.0, abs=1e-14)

    def test_zero_off_diagonal(self):
        mat = np.diag([0.1, 0.2, 0.3, 0.1, 0.15, 0.15]).astype(complex)
        assert coherence_degree(DensityMatrix(mat)) == 0.0

    def test_undefined_for_empty_diagonal(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[2, 2] = 0.5
        with pytest.raises(CoherenceUndefinedError):
            coherence_degree(DensityMatrix(mat))

    def test_past_one_only_within_the_roundoff_guard(self):
        # a g above 1 within 1e-12 is roundoff, read as 1; beyond it the
        # matrix is not a density matrix
        a31, a11 = map(STATES.index, ((3, 1), (1, 1)))

        def rho(g):
            mat = np.diag([0.1, 0.2, 0.2, 0.1, 0.2, 0.2]).astype(complex)
            mat[a31, a11] = mat[a11, a31] = 0.2 * g
            return DensityMatrix(mat)

        assert coherence_degree(rho(1.0 + 1e-13)) == 1.0
        with pytest.raises(NumericalError, match="roundoff guard"):
            coherence_degree(rho(1.0 + 1e-11))


class TestFamily:
    def test_stack_equals_per_matrix_reads(self, rng):
        stack = (rng.normal(size=(5, 6, 6))
                 + 1j * rng.normal(size=(5, 6, 6)))
        pop33, pop31, pop11, off = family(stack)
        assert pop33.shape == off.shape == (5,)
        a33, a31, a11 = map(STATES.index, ((3, 3), (3, 1), (1, 1)))
        for k in range(5):
            m = stack[k]
            expected = (m[a33, a33].real, m[a31, a31].real, m[a11, a11].real,
                        m[a31, a11])
            assert (pop33[k], pop31[k], pop11[k], off[k]) == expected
            assert family(stack[k]) == expected

    def test_one_matrix_gives_python_scalars(self, ref_rho):
        assert [type(x) for x in family(ref_rho["F"].matrix)] == [
            float, float, float, complex]


def densmat_csv(rho, out, monkeypatch):
    """The exit status of ``sowp single`` for F with the density matrix
    rho, and the lines of the densmat.csv it writes under ``out``."""
    monkeypatch.setattr(cli, "build_density_matrix", lambda *args, **kw: rho)
    status = cli.main(["single", "--species", "f", "--out-dir", str(out)])
    return status, (out / "densmat.csv").read_text().splitlines()


class TestCsvExport:
    def test_round_trip_format(self, ref_rho, tmp_path, monkeypatch):
        rho = ref_rho["F"]
        status, lines = densmat_csv(rho, tmp_path, monkeypatch)
        assert status == 0
        assert lines[0].startswith("# w = ")
        assert lines[1].startswith("# g = ")
        assert lines[2] == "jp,mp,j,m,re,im"
        assert len(lines) == 3 + 36
        assert float(lines[0].split("=")[1]) == rho.w
        parts = lines[3].split(",")
        assert (float(parts[0]), float(parts[1])) == (1.5, -1.5)
        # full double precision survives the round trip
        got = complex(float(parts[4]), float(parts[5]))
        assert got == rho.matrix[0, 0]

    def test_undefined_g_written_as_nan(self, tmp_path, monkeypatch, capsys):
        mat = np.zeros((6, 6), dtype=complex)
        mat[2, 2] = 0.5
        status, lines = densmat_csv(DensityMatrix(mat), tmp_path, monkeypatch)
        assert lines[:2] == ["# w = 0.5", "# g = nan"]
        assert len(lines) == 3 + 36
        # then the run fails on g, and writes no summary
        assert status == 2
        assert capsys.readouterr().err == (
            "numerical failure: coherence undefined: diagonals 5.000e-01, 0.000e+00\n")
        assert not (tmp_path / "summary.txt").exists()
