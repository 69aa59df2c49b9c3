import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowp.pulse import Pulse, expi
from sowp.saddle import _action_terms, find_saddles
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
        # the action with complex t, as the saddle search passes it
        tc = np.asarray(t, dtype=complex)
        e_bound = get_species("F").e_bound(3)
        a = _action_terms(pulse, tc, 0.21, 0.05, e_bound)
        b = _action_terms(pulse, tc, 0.21, 0.05, e_bound, phasors=phasors)
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("t", [
        np.linspace(0.0, 2000.0, 7),
        np.linspace(0.0, 2000.0, 12).reshape(3, 4),
    ], ids=["real-array", "real-2d-array"])
    def test_action_of_real_t(self, pulse, t):
        # a real ndarray t gives the complex action of the same complex t
        e_bound = get_species("F").e_bound(3)
        real = _action_terms(pulse, t, 0.21, 0.05, e_bound)
        cplx = _action_terms(pulse, t.astype(complex), 0.21, 0.05, e_bound)
        assert np.iscomplexobj(real) and real.shape == t.shape
        np.testing.assert_allclose(real, cplx, rtol=1e-15, atol=0)


class TestOutBuffers:
    """Phasors, A, A' and the action written into caller buffers equal the
    allocating forms bit for bit; real and scalar t keep their types."""

    T = np.linspace(0.0, 2000.0, 12).reshape(3, 4) + 1j * np.linspace(1.0, 190.0, 4)

    @pytest.mark.parametrize("n_cycles", [1, 2, 8, 18])
    def test_bit_identical(self, n_cycles):
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        t = self.T
        bufs = np.empty((8,) + t.shape, dtype=complex)
        phasors = pulse.phasors(t, out=bufs[:4])
        for got, want in zip(phasors, pulse.phasors(t)):
            assert got.tobytes() == want.tobytes()
        # u = z^N is built in the first buffer unless N = 1 (u = z)
        assert all(np.shares_memory(a, b) for a, b in zip(phasors[1:], bufs[1:4]))
        for f in (pulse.vector_potential, pulse.vector_potential_derivative):
            got = f(t, phasors=phasors, out=bufs[4:7])
            assert np.shares_memory(got, bufs[4])
            assert got.tobytes() == f(t).tobytes()
        e_bound = get_species("F").e_bound(3)
        pz, pperp2 = np.array([[0.21], [-0.3], [0.0]]), np.array([[0.05], [0.0], [0.1]])
        got = _action_terms(pulse, t, pz, pperp2, e_bound, phasors=phasors,
                            out=bufs[4:8])
        assert np.shares_memory(got, bufs[4])
        assert got.tobytes() == _action_terms(pulse, t, pz, pperp2, e_bound).tobytes()

    @pytest.mark.parametrize("n_cycles", [1, 18])
    def test_phasors_allocate_nothing_of_the_block_size(self, n_cycles, rng):
        """Into its four arrays, a phasor build of a block of 12 160 roots
        (both channels of five rows of the default grid at N = 18) takes
        expi's scratch from them: its traced peak stays within 4096 bytes,
        numpy's fixed cost per call, far under one array of the block."""
        pulse = Pulse.from_lab(1800.0, n_cycles, 1.3e13)
        shape = (2, 160, 38)
        t = rng.uniform(0.0, pulse.tau_p, shape) + 1j * rng.uniform(0.0, 200.0, shape)
        bufs = np.empty((4,) + shape, dtype=complex)
        pulse.phasors(t, out=bufs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pulse.phasors(t, out=bufs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4096 < t.nbytes, peak

    def test_real_and_scalar_t_keep_their_types(self, pulse):
        real = self.T.real
        for f in (pulse.vector_potential, pulse.vector_potential_derivative):
            assert isinstance(f(1234.5), np.float64)
            assert isinstance(f(1234.5 + 37.25j), np.complex128)
            a = f(real)
            assert isinstance(a, np.ndarray) and a.dtype == float
            b = f(real, out=np.empty((3,) + real.shape, dtype=complex))
            assert b.dtype == float and b.tobytes() == a.tobytes()


def mp_expi(a):
    """exp(i a) and exp(-i a) of each element of a at 40 digits."""
    with mpmath.workdps(40):
        pairs = [(mpmath.exp(1j * mpmath.mpc(v.real, v.imag)),
                  mpmath.exp(-1j * mpmath.mpc(v.real, v.imag))) for v in np.ravel(a)]
    return (np.array([complex(p) for p, _ in pairs]).reshape(np.shape(a)),
            np.array([complex(m) for _, m in pairs]).reshape(np.shape(a)))


class TestExpi:
    """expi against a 40-digit oracle: within 1e-15 relative, plus
    |Re a| 2^-53 (the rounding of a itself) for large Re a; the expi
    docstring holds the measured error."""

    @staticmethod
    def assert_accurate(a):
        a = np.asarray(a)
        inverse = np.empty(a.shape, dtype=complex)
        got = expi(a, inverse=inverse)
        for value, ref in zip((got, inverse), mp_expi(a)):
            err = np.abs(value - ref) / np.abs(ref)
            assert (err <= 1e-15 + np.abs(a.real) * 2.0 ** -53).all(), err.max()

    @pytest.mark.parametrize("re_max", [2 * np.pi, 1e4], ids=["2pi", "1e4"])
    def test_complex_argument(self, rng, re_max):
        # actions reach |S| ~ 2500 at N = 18, Im a down to -5 and up to 5
        self.assert_accurate(rng.uniform(-re_max, re_max, 400)
                             + 1j * rng.uniform(-5.0, 5.0, 400))

    def test_real_argument(self, rng):
        a = rng.uniform(-1e4, 1e4, 400)
        self.assert_accurate(a)
        assert expi(a).dtype == complex

    @pytest.mark.parametrize("a", [0.0, 1.5, -2500.25, 3.0 - 0.5j, 1j])
    def test_scalar_argument(self, a):
        self.assert_accurate(a)
        assert np.shape(expi(a)) == ()

    def test_into_its_argument(self, rng):
        # a may be the output or the inverse array itself, bit for bit
        a = rng.uniform(-100.0, 100.0, (3, 5)) + 1j * rng.uniform(-5.0, 5.0, (3, 5))
        inverse = np.empty_like(a)
        want = expi(a, inverse=inverse)
        for into in ("out", "inverse"):
            b, other = a.copy(), np.empty_like(a)
            pair = (b, other) if into == "out" else (other, b)
            expi(b, out=pair[0], inverse=pair[1])
            assert pair[0].tobytes() == want.tobytes()
            assert pair[1].tobytes() == inverse.tobytes()


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["omega", "n_cycles", "a0"])
    def test_non_finite_parameters(self, name, value):
        kwargs = {"omega": 0.0253, "n_cycles": 8, "a0": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Pulse(**kwargs)

    def test_integral_float_cycles_are_stored_as_int(self):
        as_float = Pulse(omega=0.0253, n_cycles=8.0, a0=1.0)
        as_int = Pulse(omega=0.0253, n_cycles=8, a0=1.0)
        assert type(as_float.n_cycles) is int
        e_bound = get_species("F").e_bound(3)
        for p in ((0.0, 0.0, 0.3), (0.1, 0.2, -0.25)):
            got = find_saddles(as_float, e_bound, p)
            want = find_saddles(as_int, e_bound, p)
            assert len(got) == 18 and got == want

    def test_from_lab_checks_the_cycle_count(self):
        # the count reaches __post_init__ as given: no silent truncation
        with pytest.raises(ValueError, match="^n_cycles must be"):
            Pulse.from_lab(1800.0, 8.7, 1.3e13)
        for n in (8, 8.0, np.int64(8)):
            pulse = Pulse.from_lab(1800.0, n, 1.3e13)
            assert type(pulse.n_cycles) is int and pulse.n_cycles == 8

    def test_single_cycle_expansion(self):
        # N=1 drops the zero-frequency component and still matches the
        # product form
        pu = Pulse(omega=0.05, n_cycles=1, a0=0.3)
        assert pu.sidebands[2] == 0.0
        t = np.linspace(0, pu.tau_p, 500)
        assert np.allclose(pu.vector_potential(t), product_form(pu, t),
                           rtol=1e-13, atol=1e-15)
