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
very-short-pulse limit ``pure_state_limit`` is a density matrix derived from
the m_l = 0 coupling coefficients; read like any other, per m-sign family
it has populations (0, 2/3, 1/3), coherence sqrt(2)/3, g = 1 and contrast
Delta_S / S_bar = 8/19, which is independent of the normalization
convention.
"""

from dataclasses import dataclass

import numpy as np

from sowp import units
from sowp.amplitude import STATES, clebsch_gordan
from sowp.densmat import DensityMatrix, family, total_probability
from sowp.species import Species


def evolve_density(rho: DensityMatrix, species: Species, t_fs: float) -> DensityMatrix:
    """Free evolution by t_fs: off-diagonal (j'=3/2, j=1/2) elements rotate
    by exp(i omega_b t); diagonals are unchanged."""
    t_au = units.fs_to_au(t_fs)
    # atomic energies: E(j=3/2) = 0, E(j=1/2) = omega_b
    e = np.array([0.0 if j2 == 3 else species.omega_b for j2, _ in STATES])
    phase = np.exp(1j * (e[None, :] - e[:, None]) * t_au)
    return DensityMatrix(rho.matrix * phase)


def signal_parameters(rho: DensityMatrix):
    """(S_bar, Delta_S) of the alignment signal for the given matrix."""
    # normalization per m-sign family
    scale = 2.0 / total_probability(rho)
    x33, x31, x11, xoff = (scale * x for x in family(rho.matrix))
    s_bar = (3.0 * x33 + 5.0 * x11 + 7.0 * x31) / 15.0
    delta_s = np.sqrt(32.0) / 15.0 * abs(xoff)
    return float(s_bar), float(delta_s)


def pure_state_limit() -> DensityMatrix:
    """The very-short-pulse limit, in which only m_l = 0 electrons are
    detached: for each electron spin m_s the atom is left in
    sum_j C(1 0, 1/2 m_s | j m_s) |j m_s>, and the two spins mix with
    weight 1/2 (total trace 1)."""
    # row per m_s = +1/2, -1/2: the atom's state over STATES
    psi = np.array([[clebsch_gordan(j2, m2, ms2) if m2 == ms2 else 0.0
                     for j2, m2 in STATES] for ms2 in (1, -1)])
    return DensityMatrix((0.5 * psi.T @ psi).astype(complex))


@dataclass(frozen=True, eq=False)
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
