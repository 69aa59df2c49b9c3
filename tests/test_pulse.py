import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowp.pulse import Pulse
from sowp.saddle import _action_terms
from sowp.species import get_species


def product_form(pulse, t):
    """Reference A(t) = A0 sin^2(omega t / 2N) sin(omega t)."""
    return (pulse.a0 * np.sin(pulse.omega * t / (2 * pulse.n_cycles)) ** 2
            * np.sin(pulse.omega * t))


@pytest.fixture(scope="module")
def pulse():
    return Pulse.from_lab(1800.0, 8, 1.3e13)


class TestVectorPotential:
    def test_vanishes_at_endpoints(self, pulse):
        assert pulse.vector_potential(0.0) == pytest.approx(0.0, abs=1e-15)
        assert abs(pulse.vector_potential(pulse.tau_p)) < 1e-12 * pulse.a0

    def test_bounded_by_a0(self, pulse):
        t = np.linspace(0.0, pulse.tau_p, 20001)
        assert np.abs(pulse.vector_potential(t)).max() <= pulse.a0 * (1 + 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(-50.0, 2100.0), st.floats(-60.0, 60.0),
           st.integers(1, 18))
    def test_matches_product_form_complex(self, tre, tim, n):
        pu = Pulse(omega=0.025, n_cycles=n, a0=0.8)
        t = tre + 1j * tim
        a = pu.vector_potential(t)
        ref = product_form(pu, t)
        assert a == pytest.approx(ref, rel=1e-12, abs=1e-12 * max(1.0, abs(ref)))

    def test_array_input(self, pulse):
        t = np.array([0.0, 10.0, 100.0])
        out = pulse.vector_potential(t)
        assert out.shape == (3,)
        assert out.dtype == float


def mp_product_form(pulse, t):
    """A(t) and dA/dt from the product form at 40 significant digits."""
    with mpmath.workdps(40):
        om = mpmath.mpf(pulse.omega)
        a0 = mpmath.mpf(pulse.a0)
        tm = mpmath.mpc(t.real, t.imag)
        env = mpmath.sin(om * tm / (2 * pulse.n_cycles))
        carrier = mpmath.sin(om * tm)
        a = a0 * env ** 2 * carrier
        da = a0 * (env * mpmath.cos(om * tm / (2 * pulse.n_cycles))
                   * (om / pulse.n_cycles) * carrier
                   + env ** 2 * om * mpmath.cos(om * tm))
        return complex(a), complex(da)


class TestPhasorAccuracy:
    """The phasor form against a 40-digit oracle over the saddle region:
    0 <= Re t <= tau_p and 0 <= Im t <= 200 a.u. (saddles reach Im t ~ 195
    at N = 18)."""

    @pytest.mark.parametrize("n_cycles", [1, 2, 8, 18])
    def test_complex_time_matches_oracle(self, n_cycles, rng):
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        t = rng.uniform(0.0, pu.tau_p, 150) + 1j * rng.uniform(0.0, 200.0, 150)
        ref_a, ref_da = np.array([mp_product_form(pu, tk) for tk in t]).T
        for got, ref in ((pu.vector_potential(t), ref_a),
                         (pu.vector_potential_derivative(t), ref_da)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n_cycles", [1, 18])
    def test_real_time_stays_real(self, n_cycles):
        pu = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        t = np.linspace(0.0, pu.tau_p, 101)
        ref_a, ref_da = np.array([mp_product_form(pu, complex(tk)) for tk in t]).T
        for got, ref in ((pu.vector_potential(t), ref_a),
                         (pu.vector_potential_derivative(t), ref_da)):
            assert got.dtype == float and got.shape == t.shape
            assert np.abs(got - ref.real).max() <= 1e-12 * np.abs(ref).max()
        assert isinstance(pu.vector_potential(1.5), float)


class TestSuppliedPhasors:
    """A, A' and the action from phasors built by the caller are the
    t-only forms bit for bit, with the same type and shape."""

    @pytest.mark.parametrize("t", [
        1234.5,
        1234.5 + 37.25j,
        np.linspace(0.0, 2000.0, 7),
        np.linspace(0.0, 2000.0, 12).reshape(3, 4) + 1j * np.linspace(1.0, 190.0, 4),
    ], ids=["real-scalar", "complex-scalar", "real-array", "complex-array"])
    def test_bit_identical(self, pulse, t):
        phasors = pulse.phasors(np.asarray(t))
        for f in (pulse.vector_potential, pulse.vector_potential_derivative):
            a, b = f(t), f(t, phasors=phasors)
            assert type(a) is type(b) and np.shape(a) == np.shape(b)
            np.testing.assert_array_equal(a, b)
        # the action takes complex t, as saddle.action passes it
        tc = np.asarray(t, dtype=complex)
        e_bound = get_species("F").e_bound(3)
        a = _action_terms(pulse, tc, 0.21, 0.05, e_bound)
        b = _action_terms(pulse, tc, 0.21, 0.05, e_bound, phasors=phasors)
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        np.testing.assert_array_equal(a, b)


class TestElectricField:
    def test_zero_at_start(self, pulse):
        assert pulse.electric_field(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_finite_difference(self, pulse, rng):
        h = 1e-6
        t_real = rng.uniform(0.0, pulse.tau_p, 50)
        t_cplx = t_real[:25] + 1j * rng.uniform(-20, 20, 25)
        for t in np.concatenate([t_real, t_cplx]):
            fd = -(pulse.vector_potential(t + h)
                   - pulse.vector_potential(t - h)) / (2 * h)
            f = pulse.electric_field(t)
            assert f == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_linear_in_a0(self, pulse):
        doubled = Pulse(pulse.omega, pulse.n_cycles, 2 * pulse.a0)
        t = 123.4 + 5.6j
        assert doubled.electric_field(t) == pytest.approx(
            2 * pulse.electric_field(t), rel=1e-14)


class TestDurations:
    def test_reference_fwhm(self, pulse):
        assert float(f"{pulse.fwhm_fs():.3g}") == 17.5

    def test_fwhm_scales_with_cycles(self, pulse):
        double = Pulse(pulse.omega, 2 * pulse.n_cycles, pulse.a0)
        assert double.fwhm_fs() == pytest.approx(2 * pulse.fwhm_fs(), rel=1e-14)

    def test_four_cycle_fwhm(self):
        pu = Pulse.from_lab(1800.0, 4, 1.3e13)
        assert pu.fwhm_fs() == pytest.approx(8.742, abs=5e-3)

    def test_tau_p(self, pulse):
        assert pulse.tau_p == pytest.approx(2 * np.pi * 8 / pulse.omega, rel=1e-15)


class TestKeldyshGamma:
    def test_reference_f_anion(self, pulse):
        sp = get_species("F")
        kappa = sp.kappa(3)
        assert kappa == pytest.approx(0.4999, abs=1e-4)
        gamma = pulse.keldysh_gamma(kappa)
        assert round(gamma, 2) == 0.66

    def test_linear_in_kappa(self, pulse):
        assert pulse.keldysh_gamma(1.0) == pytest.approx(
            2 * pulse.keldysh_gamma(0.5), rel=1e-14)

    def test_tunnelling_limit(self, pulse):
        # omega -> 0 at fixed peak field: a0 = F0/omega grows
        f0 = pulse.f0
        for omega in (0.01, 0.001, 1e-4):
            pu = Pulse(omega=omega, n_cycles=4, a0=f0 / omega)
            assert pu.keldysh_gamma(0.5) == pytest.approx(omega * 0.5 / f0, rel=1e-12)
        assert Pulse(1e-6, 2, f0 / 1e-6).keldysh_gamma(0.5) < 1e-4

    def test_zero_field_rejected(self):
        pu = Pulse(omega=0.025, n_cycles=4, a0=0.0)
        with pytest.raises(ValueError):
            pu.keldysh_gamma(0.5)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Pulse(omega=-1.0, n_cycles=4, a0=0.5)
        with pytest.raises(ValueError):
            Pulse(omega=0.025, n_cycles=0, a0=0.5)
        with pytest.raises(ValueError):
            Pulse(omega=0.025, n_cycles=4, a0=-0.5)

    def test_single_cycle_expansion(self):
        # N=1 drops the zero-frequency component and still matches the
        # product form
        pu = Pulse(omega=0.05, n_cycles=1, a0=0.3)
        assert len(pu.components) == 2
        t = np.linspace(0, pu.tau_p, 500)
        assert np.allclose(pu.vector_potential(t), product_form(pu, t),
                           rtol=1e-13, atol=1e-15)
