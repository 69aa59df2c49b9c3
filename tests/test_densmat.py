import io
import tracemalloc
import warnings

import numpy as np
import pytest

from scalar_oracle import channel_amplitudes, density_matrix_loop
from sowp import saddle
from sowp.amplitude import STATES, amplitude_profiles
from sowp.analysis import buildup
from sowp.densmat import (DensityMatrix, Gram, MomentumGrid,
                          build_density_matrix, coherence_degree, family,
                          gram_to_rho, grid_nodes, total_probability)
from sowp.dynamics import pure_state_limit
from sowp.errors import (CoherenceUndefinedError, ProbabilityError,
                         SaddleError, SaturationWarning)
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
    return gram_to_rho(gram.matrix, grid)


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
    their Gram matrices as it arrives.  The reference is the same call at
    the default FINAL_BLOCK_ELEMS, which on these grids is one block: the
    Gram of the whole grid's held sums.  Many blocks agree with it to
    roundoff (the node sums run in blocks)."""

    @pytest.mark.parametrize("phi_mode", ["analytic", "numeric"])
    @pytest.mark.parametrize("n_theta", [6, 7])
    @pytest.mark.parametrize("n_cycles", [1, 2, 8])
    def test_equals_assemble_of_held_sums(self, species_f, monkeypatch,
                                          n_cycles, n_theta, phi_mode):
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=20, n_theta=n_theta,
                                  n_phi=6, phi_mode=phi_mode)
        nodes = grid.p_nodes.size * grid.u_nodes.size
        assert nodes * (2 * n_cycles + 2) <= saddle.FINAL_BLOCK_ELEMS
        held = streamed_rho(pulse, species_f, grid)[0]
        stack = streamed_rho(pulse, species_f, grid, cumulative=True)
        # blocks of 7 nodes: many blocks and a partial last one
        monkeypatch.setattr(saddle, "FINAL_BLOCK_ELEMS",
                            7 * (2 * n_cycles + 2))

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


class TestCsvExport:
    def test_round_trip_format(self, ref_rho):
        rho = ref_rho["F"]
        buf = io.StringIO()
        rho.write_csv(buf)
        lines = buf.getvalue().splitlines()
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
