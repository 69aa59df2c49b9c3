import warnings

import numpy as np
import pytest

from sowp.amplitude import clebsch_gordan
from sowp.densmat import (DensityMatrix, MomentumGrid, build_density_matrix,
                          coherence_degree, family)
from sowp.dynamics import (evolve_density, pure_state_limit,
                           signal_parameters, signal_trace)
from sowp.errors import SaturationWarning
from sowp.pulse import Pulse
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
    return pure_state_limit()


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
        assert family(out.matrix)[3] == pytest.approx(-family(rho.matrix)[3],
                                                      rel=1e-5)

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
        expected = family(rho.matrix)[3] * np.exp(
            1j * species_f.omega_b * units.fs_to_au(t_fs))
        assert family(out.matrix)[3] == pytest.approx(expected, rel=1e-12)


def centre_coherence(rho, species, pulse):
    """Re rho_off at the pulse centre, after checking that every element of
    rho taken back there by tau_p/2 is real to 1e-13 x max|rho|."""
    matrix = evolve_density(rho, species, -pulse.tau_p_fs / 2).matrix
    assert np.abs(matrix.imag).max() <= 1e-13 * np.abs(matrix).max()
    return family(matrix)[3].real


class TestCentreReality:
    """The pulse is odd about its centre, A(tau_p - t) = -A(t), so the
    saddles at -p_z mirror those at p_z and rho is real at the centre of
    the pulse.  There the 3/2-1/2 coherence has the sign of the pure-state
    limit where g is large; Br at N = 18 (g about 0.02) has the other sign,
    so Br is checked for sign only at N = 1 and 2."""

    @pytest.mark.parametrize("n_theta", [16, 8])
    @pytest.mark.parametrize("n_cycles", [1, 2, 8, 18])
    @pytest.mark.parametrize("name", ["F", "Cl", "Br"])
    def test_real_at_pulse_centre(self, name, n_cycles, n_theta):
        species = get_species(name)
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        grid = MomentumGrid.build(pulse.omega, n_energy=40, n_theta=n_theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            rho = build_density_matrix(pulse, species, grid)
        off = centre_coherence(rho, species, pulse)
        if name != "Br" or n_cycles <= 2:
            assert off < 0

    def test_buildup_final_real_at_pulse_centre(self, ref_buildup, ref_pulse,
                                                species_f):
        assert centre_coherence(ref_buildup["F"].final, species_f,
                                ref_pulse) < 0


class TestSignalParameters:
    def test_pure_state_values(self, pure_rho):
        s_bar, delta_s = signal_parameters(pure_rho)
        assert s_bar == pytest.approx(19.0 / 45.0, rel=1e-12)
        assert delta_s == pytest.approx(8.0 / 45.0, rel=1e-12)
        assert delta_s / s_bar == pytest.approx(8 / 19, rel=1e-12)

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
            assert delta_s / s_bar == pytest.approx(8 / 19 * g, rel=1e-12)


class TestPureStateLimit:
    """Per m-sign family: ``family`` scaled by 2/w."""

    def test_populations(self, pure_rho):
        # derived from the coupling coefficients: within an ulp or so
        scale = 2.0 / pure_rho.w
        *populations, off = (scale * x for x in family(pure_rho.matrix))
        assert populations == pytest.approx([0.0, 2.0 / 3.0, 1.0 / 3.0],
                                            abs=1e-15)
        assert sum(populations) == pytest.approx(1.0, rel=1e-15)
        assert coherence_degree(pure_rho) == 1.0
        assert abs(off) == pytest.approx(np.sqrt(2.0) / 3.0, rel=1e-15)

    def test_matches_coupling_coefficients(self, pure_rho):
        # populations are the squared m_l = 0 coupling coefficients
        c32 = clebsch_gordan(1, 0, 0.5, 0.5, 1.5, 0.5)
        c12 = clebsch_gordan(1, 0, 0.5, 0.5, 0.5, 0.5)
        _, pop31, pop11, _ = family(pure_rho.matrix)
        scale = 2.0 / pure_rho.w
        assert scale * pop31 == pytest.approx(c32 ** 2, rel=1e-14)
        assert scale * pop11 == pytest.approx(c12 ** 2, rel=1e-14)

    def test_matches_typed_matrix(self, pure_rho):
        assert np.abs(pure_rho.matrix - TYPED_PURE_MATRIX).max() <= 1e-16

    def test_density_matrix_consistent(self, pure_rho):
        assert pure_rho.w == pytest.approx(1.0, rel=1e-14)
        assert coherence_degree(pure_rho) == pytest.approx(1.0, abs=1e-14)
        assert family(pure_rho.matrix)[0] == 0.0


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
        assert 0.0 < tr.delta_s / tr.s_bar < 8 / 19

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
