"""Independent scalar oracle for the amplitude and the action.

The package evaluates the amplitude only as four vectorized saddle sums per
momentum (``sowp.amplitude.amplitude_profiles``) with the fixed +i kappa
normalization.  This module keeps the literal composition written saddle
by saddle: the alternating sign (-1)^(mu-1) of p-orbital detachment times
the alternating branch +/- i kappa of the velocity norm inside a complex
spherical harmonic.  The tests check that both give the same channel
amplitudes, so a sign-convention slip on either side shows.  ``action`` and
``action_derivative`` are the scalar, 3-vector-momentum forms of the
saddle module's closed-form action and saddle condition, and
``density_matrix_loop`` is the density-matrix contraction written as a loop
over state pairs and electron spins.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from sowp.amplitude import (CHANNEL_COEF, CHANNELS, STATES, Y10_COEF,
                            Y11_COEF, clebsch_gordan)
from sowp.errors import DegenerateSaddleError
from sowp.pulse import Pulse
from sowp.saddle import _action_terms, find_saddles
from sowp.species import Species


def doubled(x, name) -> int:
    """2x for a half-integer label x; ValueError naming ``name`` otherwise."""
    d = round(2 * x)
    if abs(2 * x - d) > 1e-12:
        raise ValueError(f"{name} = {x} is not a half-integer")
    return int(d)


def channel_amplitudes(sums) -> dict:
    """{(j2, m2, ms2): amplitude} from the saddle sums of amplitude_profiles."""
    return dict(zip(CHANNELS, np.tensordot(CHANNEL_COEF, sums, axes=1)))


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
    j2 = doubled(j, "j")
    m2 = doubled(m, "m")
    ms2 = doubled(m_s, "m_s")
    ml2 = m2 - ms2
    if abs(ml2) > 2:
        return 0.0 + 0.0j
    cg = clebsch_gordan(j2, m2, ms2)
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
        return self.values[(doubled(j, "j"), doubled(m, "m"),
                            doubled(m_s, "m_s"))]


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


def action(pulse: Pulse, e_bound: float, p, t):
    """Classical action S(t) = (1/2) int_0^t [p+A]^2 dt' - E t (S(0)=0).

    p is the momentum 3-vector (a.u.); t may be real or complex, scalar or
    array.
    """
    px, py, pz = (float(c) for c in p)
    return _action_terms(pulse, np.asarray(t), pz, px * px + py * py, e_bound)


def action_derivative(pulse: Pulse, e_bound: float, p, t):
    """S'(t) = (1/2)[p + A(t)]^2 - E; vanishes at saddle points."""
    px, py, pz = (float(c) for c in p)
    vz = pz + pulse.vector_potential(np.asarray(t, dtype=complex))
    return 0.5 * (vz * vz + px * px + py * py) - e_bound


def density_matrix_loop(amplitudes: dict, weights, grid, k=None):
    """rho from channel amplitudes {(j2, m2, ms2): array over nodes}, one
    state pair and spin at a time; ``k`` picks build-up partial sum k of
    amplitudes with a trailing saddle axis."""
    if grid.phi_mode == "analytic":
        phi_factor = {dml: (2.0 * np.pi if dml == 0 else 0.0)
                      for dml in range(-2, 3)}
    else:
        phi_factor = {dml: complex(np.sum(grid.phi_weights
                                          * np.exp(1j * dml * grid.phi_nodes)))
                      for dml in range(-2, 3)}
    rho = np.zeros((len(STATES), len(STATES)), dtype=complex)
    for a, (j2a, m2a) in enumerate(STATES):
        for b, (j2b, m2b) in enumerate(STATES):
            for ms2 in (-1, 1):
                key_a, key_b = (j2a, m2a, ms2), (j2b, m2b, ms2)
                if key_a not in amplitudes or key_b not in amplitudes:
                    continue
                amp_a = amplitudes[key_a] if k is None else amplitudes[key_a][..., k]
                amp_b = amplitudes[key_b] if k is None else amplitudes[key_b][..., k]
                fac = phi_factor[(m2b - ms2) // 2 - (m2a - ms2) // 2]
                rho[a, b] += fac * np.sum(weights * np.conj(amp_a) * amp_b)
    return rho / (2.0 * np.pi) ** 3
