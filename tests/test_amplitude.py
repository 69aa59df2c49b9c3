import numpy as np
import pytest

from sowp.amplitude import (CHANNELS, alternating_sign, amplitude_profiles,
                            amplitude_set, clebsch_gordan,
                            complex_sph_harmonic, detachment_amplitude)
from sowp.errors import DegenerateSaddleError
from sowp.pulse import Pulse
from sowp.densmat import MomentumGrid, _grid_nodes
from sowp.saddle import SaddlePoint, action, find_saddles, saddle_batch
from sowp.species import Species, get_species

SQ34 = np.sqrt(3.0 / (4.0 * np.pi))
SQ38 = np.sqrt(3.0 / (8.0 * np.pi))


def cg_bruteforce(l):
    """Oracle: diagonalize J^2 = (L+S)^2 in the |m_l, m_s> product basis
    (s = 1/2) and fix signs by making the highest-m_l component of each
    eigenvector positive, which reproduces the Condon-Shortley convention.

    Returns {(j2, m2): {(ml, ms2): coeff}}.
    """
    mls = range(-l, l + 1)
    basis = [(ml, ms2) for ml in mls for ms2 in (1, -1)]
    dim = len(basis)
    j2mat = np.zeros((dim, dim))
    for a, (ml, ms2) in enumerate(basis):
        j2mat[a, a] = l * (l + 1) + 0.75 + 2 * ml * (ms2 / 2)
        # L+ S- maps |ml, up> to |ml+1, down>; L- S+ is its adjoint
        if ms2 == 1 and ml + 1 <= l:
            b = basis.index((ml + 1, -1))
            amp = np.sqrt(l * (l + 1) - ml * (ml + 1))  # L+ on |l, ml>
            j2mat[b, a] += amp
            j2mat[a, b] += amp
    out = {}
    for m2 in range(-(2 * l + 1), 2 * l + 2, 2):
        idx = [i for i, (ml, ms2) in enumerate(basis) if 2 * ml + ms2 == m2]
        sub = j2mat[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(sub)
        for val, vec in zip(vals, vecs.T):
            j2 = int(round(np.sqrt(4 * val + 1) - 1))  # j(j+1) -> doubled j
            top = max(range(len(idx)), key=lambda k: basis[idx[k]][0])
            if vec[top] < 0:
                vec = -vec
            out[(j2, m2)] = {basis[i]: float(v) for i, v in zip(idx, vec)}
    return out


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 1.5) == 1.0

    def test_closed_form_values(self):
        assert clebsch_gordan(1, 0, 0.5, 0.5, 1.5, 0.5) == pytest.approx(
            np.sqrt(2.0 / 3.0), rel=1e-15)
        assert clebsch_gordan(1, 0, 0.5, 0.5, 0.5, 0.5) == pytest.approx(
            -np.sqrt(1.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_against_bruteforce(self, l):
        table = cg_bruteforce(l)
        for (j2, m2), coeffs in table.items():
            for (ml, ms2), expected in coeffs.items():
                got = clebsch_gordan(l, ml, 0.5, ms2 / 2, j2 / 2, m2 / 2)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_column_orthonormality(self):
        for m2 in (-1, 1):
            for j2a in (1, 3):
                for j2b in (1, 3):
                    total = sum(
                        clebsch_gordan(1, ml, 0.5, ms2 / 2, j2a / 2, m2 / 2)
                        * clebsch_gordan(1, ml, 0.5, ms2 / 2, j2b / 2, m2 / 2)
                        for ml in (-1, 0, 1) for ms2 in (-1, 1))
                    assert total == pytest.approx(1.0 if j2a == j2b else 0.0,
                                                  abs=1e-12)

    def test_selection_rule_returns_zero(self):
        assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 0.5) == 0.0
        assert clebsch_gordan(1, -1, 0.5, -0.5, 1.5, 0.5) == 0.0


class TestSphericalHarmonic:
    def test_north_pole(self):
        assert complex_sph_harmonic(0, (0.0, 0.0, 1.0), 1.0) == pytest.approx(
            SQ34, rel=1e-15)

    def test_matches_angular_form(self, rng):
        for _ in range(25):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            v = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                 np.cos(theta))
            assert complex_sph_harmonic(0, v, 1.0) == pytest.approx(
                SQ34 * np.cos(theta), abs=1e-12)
            assert complex_sph_harmonic(1, v, 1.0) == pytest.approx(
                -SQ38 * np.sin(theta) * np.exp(1j * phi), abs=1e-12)
            assert complex_sph_harmonic(-1, v, 1.0) == pytest.approx(
                SQ38 * np.sin(theta) * np.exp(-1j * phi), abs=1e-12)

    def test_saddle_norm_consistency(self, ref_pulse, species_f):
        # at a saddle v.v = -kappa^2; with norm i kappa the harmonics obey
        # sum_ml |Y|^2 = (3/4pi) (v.conj(v)) / kappa^2
        kappa = species_f.kappa(3)
        p = (0.11, -0.07, 0.23)
        for sp in find_saddles(ref_pulse, species_f.e_bound(3), p):
            v = (p[0], p[1], p[2] + ref_pulse.vector_potential(sp.t))
            assert v[2] ** 2 + p[0] ** 2 + p[1] ** 2 == pytest.approx(
                -kappa ** 2, rel=1e-9)
            total = sum(abs(complex_sph_harmonic(ml, v, 1j * kappa)) ** 2
                        for ml in (-1, 0, 1))
            vv = abs(v[0]) ** 2 + abs(v[1]) ** 2 + abs(v[2]) ** 2
            assert total == pytest.approx(3 / (4 * np.pi) * vv / kappa ** 2,
                                          rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateSaddleError):
            complex_sph_harmonic(0, (0.0, 0.0, 1.0), 0.0)


class TestAlternatingSign:
    def test_odd_l_alternates(self):
        assert [alternating_sign(mu, 1) for mu in (1, 2, 3, 4)] == [1, -1, 1, -1]

    def test_even_l_constant(self):
        assert all(alternating_sign(mu, 0) == 1 for mu in range(1, 9))
        assert all(alternating_sign(mu, 2) == 1 for mu in range(1, 9))

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            alternating_sign(0, 1)


class TestDetachmentAmplitude:
    def test_forbidden_ml(self, ref_pulse, species_f):
        saddles = find_saddles(ref_pulse, species_f.e_bound(3), (0.0, 0.0, 0.1))
        amp = detachment_amplitude(ref_pulse, species_f, 1.5, 1.5, -0.5,
                                   (0.0, 0.0, 0.1), saddles)
        assert amp == 0.0

    def test_axial_emission_only_ml0(self, ref_pulse, species_f):
        profs = amplitude_profiles(ref_pulse, species_f, np.array([0.05, 0.2]),
                                   np.array([0.0, 0.0]))
        for (j2, m2, ms2), vals in profs.items():
            if abs(m2 - ms2) == 2:   # |m_l| = 1
                assert np.abs(vals).max() == 0.0
            else:
                assert np.abs(vals).min() > 0.0

    def test_matches_vectorized_profiles(self, ref_pulse, species_f):
        # the literal alternating-sign times alternating-branch composition
        # must equal the fixed-norm fast path
        pz, pperp = 0.21, 0.13
        profs = amplitude_profiles(ref_pulse, species_f, np.array([pz]),
                                   np.array([pperp]))
        for (j2, m2, ms2), vals in profs.items():
            saddles = find_saddles(ref_pulse, species_f.e_bound(j2),
                                   (pperp, 0.0, pz))
            lit = detachment_amplitude(ref_pulse, species_f, j2 / 2, m2 / 2,
                                       ms2 / 2, (pperp, 0.0, pz), saddles)
            assert lit == pytest.approx(complex(vals[0]), rel=1e-12)

    def test_matches_cumulative_line_profiles(self, ref_pulse, species_f):
        # the same oracle on the build-up path, over 2-D lines (continued
        # and mirrored saddles): partial sum k is the literal amplitude over
        # the first k saddles in order of Re t, and the last partial sum is
        # the summed profile
        grid = MomentumGrid.build(ref_pulse.omega, n_energy=12, n_theta=4)
        pz, pperp, _ = _grid_nodes(grid)
        cumulative = amplitude_profiles(ref_pulse, species_f, pz, pperp,
                                        cumulative=True)
        summed = amplitude_profiles(ref_pulse, species_f, pz, pperp)
        for j2 in (3, 1):
            batch = saddle_batch(ref_pulse, species_f.e_bound(j2), pz,
                                 pperp * pperp)
            for node in np.ndindex(pz.shape):
                saddles = [SaddlePoint(mu=k + 1, t=complex(batch.t[node][k]),
                                       action=complex(batch.action[node][k]),
                                       s2=complex(batch.s2[node][k]),
                                       prefactor=complex(batch.prefactor[node][k]),
                                       branch=int(batch.branch[node][k]))
                           for k in range(batch.t.shape[-1])]
                p = (pperp[node], 0.0, pz[node])
                for (jj2, m2, ms2), vals in cumulative.items():
                    if jj2 != j2:
                        continue
                    for k, val in enumerate(vals[node], start=1):
                        lit = detachment_amplitude(ref_pulse, species_f, j2 / 2,
                                                   m2 / 2, ms2 / 2, p, saddles[:k])
                        assert lit == pytest.approx(complex(val), rel=1e-12)
        for key, vals in cumulative.items():
            np.testing.assert_allclose(vals[..., -1], summed[key], rtol=1e-14,
                                       atol=0, err_msg=str(key))

    def test_azimuthal_phase(self, ref_pulse, species_f):
        # rotating p about z multiplies each m_l component by exp(i m_l phi)
        pz, pperp, phi0 = 0.15, 0.2, 1.234
        base = amplitude_set(ref_pulse, species_f, (pperp, 0.0, pz))
        rot = amplitude_set(ref_pulse, species_f,
                            (pperp * np.cos(phi0), pperp * np.sin(phi0), pz))
        for (j2, m2, ms2), val in base.values.items():
            ml = (m2 - ms2) // 2
            assert rot.values[(j2, m2, ms2)] == pytest.approx(
                val * np.exp(1j * ml * phi0), rel=1e-10, abs=1e-14)

    def test_reflection_symmetry(self, ref_pulse, species_f, rng):
        # |A^{j m}_{m_s}| = |A^{j -m}_{-m_s}| at p_y = 0 (reflection in the
        # xz-plane)
        for _ in range(4):
            pz = rng.uniform(-0.5, 0.5)
            pperp = rng.uniform(0.0, 0.5)
            profs = amplitude_profiles(ref_pulse, species_f,
                                       np.array([pz]), np.array([pperp]))
            for (j2, m2, ms2), vals in profs.items():
                mirror = profs[(j2, -m2, -ms2)]
                assert abs(vals[0]) == pytest.approx(abs(mirror[0]), rel=1e-12)

    def test_linear_in_b(self, ref_pulse, species_f):
        doubled = Species(name="F2B", ea_ev=species_f.ea_ev,
                          splitting_cm1=species_f.splitting_cm1,
                          b_au=2 * species_f.b_au, l=1)
        p = np.array([0.3]), np.array([0.1])
        a1 = amplitude_profiles(ref_pulse, species_f, *p)
        a2 = amplitude_profiles(ref_pulse, doubled, *p)
        for key in a1:
            assert a2[key][0] == pytest.approx(2 * a1[key][0], rel=1e-14)


# --- time-integral oracle ---------------------------------------------------
#
# The amplitude can be evaluated without the saddle approximation as
#     A(p) = int_0^tau_p F(t) dM/dq_z|_{q = p + A(t)} exp(i S(t)) dt
# where M(q) is the z-dipole matrix element of the asymptotic orbital
# B exp(-kappa r)/r Y_{1 m_l} in plane-wave normalization.  For m_l = 0 and
# p along z,
#     dM/dq_z = 4 pi B sqrt(3/4pi) R'(|q_z|),
#     R(q) = arctan(q/kappa)/q^2 - kappa/(q (q^2 + kappa^2)),
# (R is the radial Fourier integral of j_1(qr) e^{-kappa r} r; verified
# against direct numerical integration).  The saddle formula carries a
# systematic modulus offset of about +30% at the reference intensity, but
# must reproduce the positions of the interference extrema exactly; the
# opposite relative sign between half-cycle bursts shifts them by half a
# period and is thereby excluded.

def _radial_ft_derivative(q, kappa):
    return (2 * kappa / (q * q * (q * q + kappa ** 2))
            + 2 * kappa / (q * q + kappa ** 2) ** 2
            - 2 * np.arctan(q / kappa) / q ** 3)


def exact_amplitude_z(pulse, species, p, t_lo=None, t_hi=None, n=160001):
    """Simpson quadrature of the exact time integrand at theta = 0, m_l = 0."""
    kappa = species.kappa(3)
    e_bound = species.e_bound(3)
    t_lo = 0.0 if t_lo is None else t_lo
    t_hi = pulse.tau_p if t_hi is None else t_hi
    t = np.linspace(t_lo, t_hi, n)
    qz = p + pulse.vector_potential(t)
    field = pulse.electric_field(t)
    s_t = action(pulse, e_bound, (0.0, 0.0, p), t)
    dm = (4 * np.pi * species.b_au * SQ34
          * _radial_ft_derivative(np.abs(qz), kappa))
    integrand = field * dm * np.exp(1j * s_t)
    h = t[1] - t[0]
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return np.sum(integrand * w) * h / 3.0


def saddle_amplitude_z(pulse, species, p, flip_relative_sign=False):
    """Saddle sum for the bare m_l = 0 orbital amplitude (no coupling
    coefficient); optionally with the (wrong) opposite half-cycle sign."""
    kappa = species.kappa(3)
    saddles = find_saddles(pulse, species.e_bound(3), (0.0, 0.0, p))
    total = 0.0j
    for sp in saddles:
        vz = p + pulse.vector_potential(sp.t)
        term = (SQ34 * vz / (1j * kappa)) * np.exp(1j * sp.action) * sp.prefactor
        if flip_relative_sign:
            term *= alternating_sign(sp.mu, 1)
        total += term
    return -(2 * np.pi) ** 1.5 * species.b_au * total


@pytest.fixture(scope="module")
def oracle_setup():
    return Pulse.from_lab(1800.0, 8, 1.3e13), get_species("F")


class TestTimeIntegralOracle:
    def test_single_saddle_window_modulus(self, oracle_setup):
        # strongest central saddle versus the time integral over its own
        # stationary window; the plain saddle formula overshoots by ~30%
        # at gamma = 0.66 (the asymptotic parameter is only moderately
        # large), measured 1.298 here and frozen as the expected ratio
        pulse, species = oracle_setup
        kappa = species.kappa(3)
        saddles = find_saddles(pulse, species.e_bound(3), (0.0, 0.0, 0.05))
        terms = []
        for sp in saddles:
            vz = 0.05 + pulse.vector_potential(sp.t)
            terms.append(-(2 * np.pi) ** 1.5 * species.b_au * SQ34 * vz
                         / (1j * kappa) * np.exp(1j * sp.action) * sp.prefactor)
        mu = int(np.argmax(np.abs(terms)))
        lo = 0.5 * (saddles[mu - 1].t.real + saddles[mu].t.real)
        hi = 0.5 * (saddles[mu].t.real + saddles[mu + 1].t.real)
        window = exact_amplitude_z(pulse, species, 0.05, lo, hi)
        ratio = abs(terms[mu]) / abs(window)
        assert ratio == pytest.approx(1.298, abs=0.08)

    def test_interference_positions_pin_the_sign(self, oracle_setup):
        # scan across one above-threshold oscillation: the shipped
        # convention tracks the exact modulus pattern, the flipped relative
        # sign anti-correlates
        pulse, species = oracle_setup
        u_p = pulse.a0 ** 2 / 4
        e_eff = -species.e_bound(3) + u_p
        energies = (np.arange(11.8, 13.01, 0.15) * pulse.omega) - e_eff
        ps = np.sqrt(2 * energies)
        exact = np.array([abs(exact_amplitude_z(pulse, species, p, n=80001))
                          for p in ps])
        ours = np.array([abs(saddle_amplitude_z(pulse, species, p)) for p in ps])
        flipped = np.array([abs(saddle_amplitude_z(pulse, species, p, True))
                            for p in ps])
        assert np.argmax(exact) == np.argmax(ours)
        assert np.argmin(exact) == np.argmin(ours)
        corr_ours = np.corrcoef(exact, ours)[0, 1]
        corr_flip = np.corrcoef(exact, flipped)[0, 1]
        assert corr_ours > 0.95
        assert corr_flip < corr_ours - 0.5


def test_channel_listing():
    assert len(CHANNELS) == 10
    for j2, m2, ms2 in CHANNELS:
        assert abs(m2 - ms2) <= 2
    # |m| = 3/2 states have one (m_l, m_s) contribution, |m| = 1/2 have two
    from collections import Counter
    counts = Counter((j2, m2) for j2, m2, _ in CHANNELS)
    for (j2, m2), n in counts.items():
        assert n == (1 if abs(m2) == 3 else 2)
