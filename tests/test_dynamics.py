import numpy as np
import pytest

from sowp.amplitude import clebsch_gordan
from sowp.densmat import DensityMatrix, coherence_degree
from sowp.dynamics import (CONTRAST_PURE, evolve_density, pure_state_limit,
                           signal_parameters, signal_trace)
from sowp.species import get_species


# the very-short-pulse matrix over STATES, typed entry by entry: per m-sign
# family the populations 1/3 (j = 3/2) and 1/6 (j = 1/2), and the 3/2-1/2
# element -sign(m) sqrt(2)/6
_OFF = np.sqrt(2.0) / 6.0
TYPED_PURE_MATRIX = np.array([
    # (3,-3) (3,-1) (3,1) (3,3) (1,-1) (1,1)
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1 / 3, 0.0, 0.0, _OFF, 0.0],
    [0.0, 0.0, 1 / 3, 0.0, 0.0, -_OFF],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, _OFF, 0.0, 0.0, 1 / 6, 0.0],
    [0.0, 0.0, -_OFF, 0.0, 0.0, 1 / 6]], dtype=complex)


@pytest.fixture(scope="module")
def pure_rho():
    return pure_state_limit().density_matrix


class TestEvolveDensity:
    def test_identity_at_zero(self, ref_rho, species_f):
        rho = ref_rho["F"]
        out = evolve_density(rho, species_f, 0.0)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_identity_after_full_period(self, ref_rho, species_f):
        rho = ref_rho["F"]
        out = evolve_density(rho, species_f, species_f.beat_period_fs)
        assert np.allclose(out.matrix, rho.matrix, rtol=1e-5, atol=0.0)

    def test_half_period_negates_coherence(self, ref_rho, species_f):
        rho = ref_rho["F"]
        out = evolve_density(rho, species_f, 0.5 * species_f.beat_period_fs)
        assert out.coherence == pytest.approx(-rho.coherence, rel=1e-5)

    def test_diagonals_unchanged(self, ref_rho, species_cl):
        rho = ref_rho["Cl"]
        out = evolve_density(rho, species_cl, 17.3)
        assert np.array_equal(np.diag(out.matrix), np.diag(rho.matrix))

    def test_preserves_hermiticity_and_g(self, ref_rho, species_cl):
        rho = ref_rho["Cl"]
        out = evolve_density(rho, species_cl, 5.21)
        m = out.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()
        assert coherence_degree(out) == pytest.approx(coherence_degree(rho),
                                                      rel=1e-14)

    def test_phase_direction(self, ref_rho, species_f):
        # the (3/2, 1/2) element rotates as exp(+i omega_b t)
        rho = ref_rho["F"]
        t_fs = 3.7
        out = evolve_density(rho, species_f, t_fs)
        from sowp import units
        expected = rho.coherence * np.exp(
            1j * species_f.omega_b * units.fs_to_au(t_fs))
        assert out.coherence == pytest.approx(expected, rel=1e-12)


class TestSignalParameters:
    def test_pure_state_values(self, pure_rho):
        s_bar, delta_s = signal_parameters(pure_rho)
        assert s_bar == pytest.approx(19.0 / 45.0, rel=1e-12)
        assert delta_s == pytest.approx(8.0 / 45.0, rel=1e-12)
        assert delta_s / s_bar == pytest.approx(CONTRAST_PURE, rel=1e-12)

    def test_zero_coherence(self):
        mat = np.diag([0.0, 1 / 3, 1 / 3, 0.0, 1 / 6, 1 / 6]).astype(complex)
        _, delta_s = signal_parameters(DensityMatrix(mat))
        assert delta_s == 0.0

    def test_contrast_proportional_to_g(self, pure_rho):
        # at the pure-state populations, Delta_S = (8 g / 19) S_bar
        for g in (0.25, 0.6, 1.0):
            mat = pure_rho.matrix.copy()
            for a, b in ((2, 5), (5, 2), (1, 4), (4, 1)):
                mat[a, b] *= g
            s_bar, delta_s = signal_parameters(DensityMatrix(mat))
            assert delta_s / s_bar == pytest.approx(CONTRAST_PURE * g, rel=1e-12)


class TestPureStateLimit:
    def test_populations(self):
        # derived from the coupling coefficients: within an ulp or so
        limit = pure_state_limit()
        assert limit.populations == pytest.approx((0.0, 2.0 / 3.0, 1.0 / 3.0),
                                                  abs=1e-15)
        assert sum(limit.populations) == pytest.approx(1.0, rel=1e-15)
        assert limit.g == 1.0
        assert limit.coherence == pytest.approx(np.sqrt(2.0) / 3.0, rel=1e-15)

    def test_matches_coupling_coefficients(self):
        # populations are the squared m_l = 0 coupling coefficients
        c32 = clebsch_gordan(1, 0, 0.5, 0.5, 1.5, 0.5)
        c12 = clebsch_gordan(1, 0, 0.5, 0.5, 0.5, 0.5)
        limit = pure_state_limit()
        assert limit.populations[1] == pytest.approx(c32 ** 2, rel=1e-14)
        assert limit.populations[2] == pytest.approx(c12 ** 2, rel=1e-14)

    def test_matches_typed_matrix(self):
        got = pure_state_limit().density_matrix.matrix
        assert np.abs(got - TYPED_PURE_MATRIX).max() <= 1e-16

    def test_density_matrix_consistent(self):
        rho = pure_state_limit().density_matrix
        assert rho.w == pytest.approx(1.0, rel=1e-14)
        assert coherence_degree(rho) == pytest.approx(1.0, abs=1e-14)
        assert rho.population(1.5, 1.5) == 0.0


class TestSignalTrace:
    def test_constant_without_coherence(self, species_f):
        mat = np.diag([0.0, 1 / 3, 1 / 3, 0.0, 1 / 6, 1 / 6]).astype(complex)
        tr = signal_trace(DensityMatrix(mat), species_f, np.linspace(0, 200, 64))
        assert np.ptp(tr.values) == 0.0

    def test_periodicity(self, pure_rho, species_br):
        # tau_b from 1/(c Delta) and the phase period 2 pi / omega_b agree
        # to the frozen constants' precision (~1e-7 relative)
        tau_b = species_br.beat_period_fs
        t = np.linspace(0.0, tau_b, 257)
        tr = signal_trace(pure_rho, species_br, t)
        assert tr.period_fs == pytest.approx(tau_b, rel=1e-5)
        shifted = signal_trace(pure_rho, species_br, t + tau_b)
        assert np.allclose(shifted.values, tr.values, rtol=0, atol=2e-6)

    def test_extrema_and_span(self, pure_rho, species_f):
        tau_b = species_f.beat_period_fs
        t = np.linspace(0.0, 2 * tau_b, 100001)
        tr = signal_trace(pure_rho, species_f, t, beta=0.4)
        assert tr.values.max() - tr.values.min() == pytest.approx(
            2 * tr.delta_s, rel=1e-7)
        # extrema sit where omega_b t + beta = n pi
        from sowp import units
        phase = species_f.omega_b * units.fs_to_au(t[np.argmax(tr.values)]) + 0.4
        frac = phase % np.pi
        assert min(frac, np.pi - frac) < 1e-3

    def test_reference_contrast_below_pure_limit(self, ref_rho, species_f):
        tr = signal_trace(ref_rho["F"], species_f, np.linspace(0, 100, 11))
        assert 0.0 < tr.delta_s / tr.s_bar < CONTRAST_PURE

    def test_beta_shift(self, pure_rho, species_f):
        t = np.linspace(0, 50, 7)
        a = signal_trace(pure_rho, species_f, t, beta=0.0)
        b = signal_trace(pure_rho, species_f, t, beta=np.pi)
        assert np.allclose(a.values + b.values, 2 * a.s_bar, rtol=0, atol=1e-14)

    def test_csv(self, pure_rho, species_f, tmp_path):
        tr = signal_trace(pure_rho, species_f, np.linspace(0, 10, 5))
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            tr.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_fs,S"
        assert len(lines) == 6
