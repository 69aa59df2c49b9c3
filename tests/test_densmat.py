import io
import warnings

import numpy as np
import pytest

from scalar_oracle import channel_amplitudes, density_matrix_loop
from sowp.amplitude import STATES, amplitude_profiles
from sowp.analysis import buildup
from sowp.densmat import (DensityMatrix, MomentumGrid, assemble,
                          build_density_matrix, coherence_degree, grid_nodes,
                          total_probability)
from sowp.dynamics import pure_state_limit
from sowp.errors import (CoherenceUndefinedError, GridConvergenceWarning,
                         ProbabilityError, SaddleError, SaturationWarning)
from sowp.pulse import Pulse
from sowp.species import Species, get_species

SMALL_GRID = dict(n_energy=64, n_theta=24, n_phi=8)


def small_grid(pulse, **over):
    kw = {**SMALL_GRID, **over}
    return MomentumGrid.build(pulse.omega, **kw)


class TestMomentumGrid:
    def test_volume_exact(self, ref_pulse):
        grid = MomentumGrid.build(ref_pulse.omega)
        exact = 4.0 * np.pi / 3.0 * grid.p_max ** 3
        assert grid.volume() == pytest.approx(exact, rel=1e-10)

    def test_extent_is_photon_cutoff(self, ref_pulse):
        grid = MomentumGrid.build(ref_pulse.omega)
        assert grid.e_max == pytest.approx(15 * ref_pulse.omega, rel=1e-15)
        assert grid.energy_nodes.max() < grid.e_max
        assert (grid.radial_weights > 0).all() and (grid.u_weights > 0).all()

    def test_doubled(self, ref_pulse):
        grid = MomentumGrid.build(ref_pulse.omega, **SMALL_GRID)
        fine = grid.doubled()
        assert fine.p_nodes.size == 2 * grid.p_nodes.size
        assert fine.u_nodes.size == 2 * grid.u_nodes.size
        assert fine.phi_nodes.size == 2 * grid.phi_nodes.size
        assert fine.e_max == grid.e_max

    def test_rejects_bad_args(self, ref_pulse):
        with pytest.raises(ValueError):
            MomentumGrid.build(ref_pulse.omega, phi_mode="weird")
        with pytest.raises(ValueError):
            MomentumGrid.build(ref_pulse.omega, n_energy=1)


class TestAssemble:
    """The 4x4 Gram contraction against the loop over state pairs and
    spins; sums run in another order, so they agree to roundoff."""

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
        full = amplitude_profiles(ref_pulse, species_f, pz, pperp)
        rho = assemble(full, weights, grid)
        assert rho.shape == (len(STATES), len(STATES))
        self.assert_matches_loop(rho, channel_amplitudes(full), weights, grid)

        partial = amplitude_profiles(ref_pulse, species_f, pz, pperp,
                                     cumulative=True)
        rhos = assemble(partial, weights, grid)
        assert rhos.shape == (2 * ref_pulse.n_cycles + 2,) + rho.shape
        amplitudes = channel_amplitudes(partial)
        for k, rho_k in enumerate(rhos):
            self.assert_matches_loop(rho_k, amplitudes, weights, grid, k)


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
        rho = ref_rho[name]
        for j, m in ((1.5, 1.5), (1.5, 0.5), (0.5, 0.5)):
            up = rho.population(j, m)
            dn = rho.population(j, -m)
            assert dn == pytest.approx(up, rel=1e-6)

    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_coherence_block_psd(self, ref_rho, name):
        rho = ref_rho[name]
        off = abs(rho.coherence) ** 2
        assert off <= rho.population(1.5, 0.5) * rho.population(0.5, 0.5)
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

    def test_convergence_warning_on_coarse_grid(self, ref_pulse, species_f):
        grid = MomentumGrid.build(ref_pulse.omega, n_energy=12, n_theta=6,
                                  n_phi=4)
        with pytest.warns(GridConvergenceWarning):
            build_density_matrix(ref_pulse, species_f, grid,
                                 check_convergence=True)

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
        assert coherence_degree(pure_state_limit().density_matrix) == \
            pytest.approx(1.0, abs=1e-14)

    def test_zero_off_diagonal(self):
        mat = np.diag([0.1, 0.2, 0.3, 0.1, 0.15, 0.15]).astype(complex)
        assert coherence_degree(DensityMatrix(mat)) == 0.0

    def test_undefined_for_empty_diagonal(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[2, 2] = 0.5
        with pytest.raises(CoherenceUndefinedError):
            coherence_degree(DensityMatrix(mat))


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
