"""Detachment amplitude: angular-momentum coupling and the saddle sum.

For a channel (j, m) and final electron spin projection m_s the amplitude is

    A = -(2 pi)^(3/2) B  sum_mu  sgn_mu C(j m; 1 m_l, 1/2 m_s)
                        Y_{1 m_l}(v_mu / norm_mu) exp(i S(t_mu)) / sqrt(-i S''(t_mu))

with m_l = m - m_s, v_mu = p + A(t_mu) the complex velocity at the saddle,
and sgn_mu = (-1)^(mu-1) the alternating sign for l = 1.  At a saddle
v.v = 2E = -kappa^2, so |v| continues to +/- i kappa; the square-root branch
alternates from saddle to saddle, norm_mu = i kappa (-1)^(mu-1), and the
explicit alternating sign compensates it exactly.  The net convention
(equivalent to a fixed +i kappa norm with no extra sign) is validated
against direct numerical time integration of the amplitude integral, which
reproduces both the modulus and the positions of the above-threshold
interference peaks (see tests).

Spherical harmonics follow the Condon-Shortley convention; final spin
states are orthonormal, so amplitudes are kept resolved per m_s and never
summed coherently over it.
"""

from dataclasses import dataclass
from math import sqrt, pi

import numpy as np

from sowp.pulse import Pulse
from sowp.saddle import saddle_batch, find_saddles
from sowp.species import Species
from sowp.errors import DegenerateSaddleError

Y10_COEF = sqrt(3.0 / (4.0 * pi))
Y11_COEF = sqrt(3.0 / (8.0 * pi))

# (j2, m2, ms2) with doubled half-integer quantum numbers; all channels of
# an np shell: j=3/2 (m = -3/2..3/2) and j=1/2 (m = -1/2, 1/2), each m with
# the m_s values allowed by m_l = m - m_s, |m_l| <= 1
CHANNELS = tuple(
    (j2, m2, ms2)
    for j2 in (3, 1)
    for m2 in range(-j2, j2 + 1, 2)
    for ms2 in (-1, 1)
    if abs(m2 - ms2) <= 2
)

# (j, m) basis order of the 6x6 density matrix
STATES = ((3, -3), (3, -1), (3, 1), (3, 3), (1, -1), (1, 1))


def _doubled(x, name):
    d = round(2 * x)
    if abs(2 * x - d) > 1e-12:
        raise ValueError(f"{name} = {x} is not a half-integer")
    return int(d)


def clebsch_gordan(l, m_l, s, m_s, j, m) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <l m_l, s m_s | j m>
    for s = 1/2 and j = l +/- 1/2.

    Returns 0 when the projection selection rule m = m_l + m_s fails.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l}")
    if _doubled(s, "s") != 1:
        raise ValueError(f"only s = 1/2 is supported, got s = {s}")
    l = int(l)
    ml2 = _doubled(m_l, "m_l")
    ms2 = _doubled(m_s, "m_s")
    j2 = _doubled(j, "j")
    m2 = _doubled(m, "m")
    if abs(ml2) > 2 * l or abs(ms2) != 1 or abs(m2) > j2:
        return 0.0
    if m2 != ml2 + ms2:
        return 0.0
    two_l1 = 2 * l + 1
    if j2 == 2 * l + 1:          # j = l + 1/2
        if ms2 == 1:
            return sqrt((l + 0.5 + m) / two_l1)
        return sqrt((l + 0.5 - m) / two_l1)
    if j2 == 2 * l - 1:          # j = l - 1/2
        if ms2 == 1:
            return -sqrt((l + 0.5 - m) / two_l1)
        return sqrt((l + 0.5 + m) / two_l1)
    raise ValueError(f"j = {j} is not l +/- 1/2 for l = {l}")


def complex_sph_harmonic(m_l: int, v, norm, l: int = 1):
    """Solid-harmonic continuation of Y_{1 m_l} at complex velocity v with
    a caller-supplied continuation of |v|:

        Y_10  =  sqrt(3/4pi) v_z / norm
        Y_1+1 = -sqrt(3/8pi) (v_x + i v_y) / norm
        Y_1-1 = +sqrt(3/8pi) (v_x - i v_y) / norm

    For real v with norm = |v| this is the ordinary spherical harmonic.
    """
    if l != 1:
        raise ValueError(f"only l = 1 is implemented, got l = {l}")
    if norm == 0:
        raise DegenerateSaddleError("zero velocity norm in spherical harmonic")
    vx, vy, vz = v
    if m_l == 0:
        return Y10_COEF * vz / norm
    if m_l == 1:
        return -Y11_COEF * (vx + 1j * vy) / norm
    if m_l == -1:
        return Y11_COEF * (vx - 1j * vy) / norm
    raise ValueError(f"|m_l| must be <= 1, got {m_l}")


def alternating_sign(mu: int, l: int = 1) -> int:
    """Sign of the mu-th saddle contribution: (-1)^(mu-1) for odd l, +1 for
    even l (mu counts from 1 in order of increasing Re t)."""
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if l % 2 == 0:
        return 1
    return 1 if mu % 2 == 1 else -1


def detachment_amplitude(pulse: Pulse, species: Species, j, m, m_s, p,
                         saddles) -> complex:
    """Amplitude for leaving the atom in (j, m) with electron spin m_s and
    momentum p, from the saddle list of the matching channel energy E_j."""
    j2 = _doubled(j, "j")
    m2 = _doubled(m, "m")
    ms2 = _doubled(m_s, "m_s")
    ml2 = m2 - ms2
    if abs(ml2) > 2:
        return 0.0 + 0.0j
    cg = clebsch_gordan(1, ml2 / 2, 0.5, m_s, j, m)
    if cg == 0.0:
        return 0.0 + 0.0j
    kappa = species.kappa(j2)
    px, py, pz = (float(c) for c in p)
    total = 0.0 + 0.0j
    for sp in saddles:
        a_t = pulse.vector_potential(sp.t)
        v = (px, py, pz + a_t)
        norm = 1j * kappa * alternating_sign(sp.mu, 1)
        y = complex_sph_harmonic(ml2 // 2, v, norm, l=1)
        total += (alternating_sign(sp.mu, species.l) * y
                  * np.exp(1j * sp.action) * sp.prefactor)
    return -((2.0 * pi) ** 1.5) * species.b_au * cg * total


@dataclass(frozen=True)
class AmplitudeSet:
    """All channel amplitudes at one momentum p, keyed by (j2, m2, ms2)."""

    p: tuple
    values: dict

    def value(self, j, m, m_s) -> complex:
        return self.values[(_doubled(j, "j"), _doubled(m, "m"),
                            _doubled(m_s, "m_s"))]


def amplitude_set(pulse: Pulse, species: Species, p) -> AmplitudeSet:
    """Evaluate every (j, m, m_s) channel at momentum p (one saddle search
    per channel energy)."""
    px, py, pz = (float(c) for c in p)
    values = {}
    for j2 in (3, 1):
        saddles = find_saddles(pulse, species.e_bound(j2), (px, py, pz))
        for jj2, m2, ms2 in CHANNELS:
            if jj2 != j2:
                continue
            values[(j2, m2, ms2)] = detachment_amplitude(
                pulse, species, j2 / 2, m2 / 2, ms2 / 2, (px, py, pz), saddles)
    return AmplitudeSet(p=(px, py, pz), values=values)


def amplitude_profiles(pulse: Pulse, species: Species, pz, pperp,
                       cumulative: bool = False) -> dict:
    """Vectorized phi = 0 channel amplitudes on an array of (pz, pperp)
    momenta: 1-D independent points, or 2-D lines whose saddles are
    continued along axis 0 (see ``saddle_batch``).

    The full amplitude at azimuth phi is the returned profile times
    exp(i m_l phi); the saddle set and the action do not depend on phi.
    Returns {(j2, m2, ms2): array}, shape pz.shape or pz.shape + (2N+2,)
    when ``cumulative`` (partial sums over saddles sorted by Re t, for
    build-up analysis).

    Uses the fixed +i kappa normalization with no explicit sign, which is
    algebraically identical to the alternating-sign times alternating-branch
    composition of detachment_amplitude.  A channel depends on the saddles
    only through m_l: m_l = 0 through sum_mu core_mu v_z,mu, m_l = +/-1
    through p_perp sum_mu core_mu, with core = exp(i S) / sqrt(-i S'').
    Both sums are taken once per j; each channel is a constant times one.
    """
    pz = np.asarray(pz, dtype=float)
    pperp = np.asarray(pperp, dtype=float)
    saddle_sum = np.cumsum if cumulative else np.sum
    pperp_ = pperp[..., None] if cumulative else pperp
    y_coef = {0: Y10_COEF, 1: -Y11_COEF, -1: Y11_COEF}
    out = {}
    for j2 in (3, 1):
        batch = saddle_batch(pulse, species.e_bound(j2), pz, pperp * pperp)
        core = np.exp(1j * batch.action) * batch.prefactor
        sums = {0: saddle_sum(core * batch.vz, axis=-1),
                1: pperp_ * saddle_sum(core, axis=-1)}
        del batch, core   # freed before the next channel's solve
        scale = -((2.0 * pi) ** 1.5) * species.b_au / (1j * species.kappa(j2))
        for jj2, m2, ms2 in CHANNELS:
            if jj2 != j2:
                continue
            ml = (m2 - ms2) // 2
            cg = clebsch_gordan(1, ml, 0.5, ms2 / 2, j2 / 2, m2 / 2)
            out[(j2, m2, ms2)] = (scale * cg * y_coef[ml]) * sums[abs(ml)]
    return out
