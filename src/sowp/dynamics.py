"""Post-pulse evolution of the residual atom and the pump-probe beat signal.

After the pulse the density operator evolves freely; element (j'm, jm)
acquires exp(i (E_j - E_j') t) with atomic fine-structure energies
referenced to E_{3/2} = 0, so only the beat frequency
omega_b = E_{1/2} - E_{3/2} enters.  A probe that preferentially detaches
m_l = 0 electrons measures

    S(t) = S_bar + Delta_S cos(omega_b t + beta)
    S_bar   = (3 x^(3/2,3/2) + 5 x^(1/2,1/2) + 7 x^(3/2,1/2)) / 15
    Delta_S = sqrt(32)/15 |x_off|

where x = rho / (w/2) are the ``densmat.family`` entries normalized per
m-sign family (the two families are equal for linear polarization).  The
very-short-pulse limit is derived from the m_l = 0 coupling coefficients;
read with the same bookkeeping it has populations (0, 2/3, 1/3), coherence
sqrt(2)/3 and contrast Delta_S / S_bar = 8/19, which is independent of the
normalization convention.
"""

from dataclasses import dataclass

import numpy as np

from sowp import units
from sowp.amplitude import STATES, clebsch_gordan
from sowp.densmat import (DensityMatrix, coherence_degree, family,
                          total_probability)
from sowp.species import Species

CONTRAST_PURE = 8.0 / 19.0


def evolve_density(rho: DensityMatrix, species: Species, t_fs: float) -> DensityMatrix:
    """Free evolution by t_fs: off-diagonal (j'=3/2, j=1/2) elements rotate
    by exp(i omega_b t); diagonals are unchanged."""
    t_au = units.fs_to_au(t_fs)
    # atomic energies: E(j=3/2) = 0, E(j=1/2) = omega_b
    energy = {3: 0.0, 1: species.omega_b}
    phase = np.empty((len(STATES), len(STATES)), dtype=complex)
    for a, (j2p, _) in enumerate(STATES):
        for b, (j2, _) in enumerate(STATES):
            phase[a, b] = np.exp(1j * (energy[j2] - energy[j2p]) * t_au)
    return DensityMatrix(rho.matrix * phase)


def _family_normalized(rho: DensityMatrix):
    """``family`` of rho scaled by 2/w: normalization per m-sign family."""
    scale = 2.0 / total_probability(rho)
    return tuple(scale * x for x in family(rho.matrix))


def signal_parameters(rho: DensityMatrix):
    """(S_bar, Delta_S) of the alignment signal for the given matrix."""
    x33, x31, x11, xoff = _family_normalized(rho)
    s_bar = (3.0 * x33 + 5.0 * x11 + 7.0 * x31) / 15.0
    delta_s = np.sqrt(32.0) / 15.0 * abs(xoff)
    return float(s_bar), float(delta_s)


@dataclass(frozen=True)
class PureStateLimit:
    """Very-short-pulse limit: only m_l = 0 electrons detached."""

    populations: tuple      # (rho(3/2,3/2), rho(3/2,1/2), rho(1/2,1/2)) per m family
    coherence: float        # |off-diagonal| in the same normalization
    g: float
    density_matrix: DensityMatrix


def pure_state_limit() -> PureStateLimit:
    """Only m_l = 0 electrons detached: for each electron spin m_s the atom
    is left in sum_j C(1 0, 1/2 m_s | j m_s) |j m_s>, and the two spins
    mix with weight 1/2 (total trace 1)."""
    # row per m_s = +1/2, -1/2: the atom's state over STATES
    psi = np.array([[clebsch_gordan(1, 0, 0.5, ms2 / 2, j2 / 2, m2 / 2)
                     for j2, m2 in STATES] for ms2 in (1, -1)])
    rho = DensityMatrix((0.5 * psi.T @ psi).astype(complex))
    x33, x31, x11, xoff = _family_normalized(rho)
    return PureStateLimit(populations=(x33, x31, x11), coherence=abs(xoff),
                          g=coherence_degree(rho), density_matrix=rho)


@dataclass(frozen=True)
class SignalTrace:
    """Sampled alignment signal S(t) = s_bar + delta_s cos(omega_b t + beta)."""

    t_fs: np.ndarray
    values: np.ndarray
    s_bar: float
    delta_s: float
    beta: float
    omega_b: float     # beat angular frequency, a.u.

    @property
    def period_fs(self) -> float:
        return units.au_to_fs(2.0 * np.pi / self.omega_b)

    def write_csv(self, fh) -> None:
        fh.write("t_fs,S\n")
        for t, s in zip(self.t_fs, self.values):
            fh.write(f"{t:.17g},{s:.17g}\n")


def signal_trace(rho: DensityMatrix, species: Species, t_fs,
                 beta: float = 0.0) -> SignalTrace:
    """Evaluate the beat signal on the given times (fs)."""
    t_fs = np.atleast_1d(np.asarray(t_fs, dtype=float))
    s_bar, delta_s = signal_parameters(rho)
    omega_b = species.omega_b
    t_au = units.fs_to_au(t_fs)
    values = s_bar + delta_s * np.cos(omega_b * t_au + beta)
    return SignalTrace(t_fs=t_fs, values=values, s_bar=s_bar,
                       delta_s=delta_s, beta=beta, omega_b=omega_b)
