"""Physical constants and conversions between atomic and laboratory units.

All internal computations in this package use Hartree atomic units; the
functions here are the only place where fs, nm, eV, cm^-1 and W/cm^2 appear.
The constants are frozen to the digits below so that outputs are
bit-reproducible across platforms.
"""

import math

# frozen constants table
AU_TIME_FS = 2.418884e-2        # one atomic time unit in fs
SPEED_OF_LIGHT_CM_S = 2.99792458e10
ATOMIC_INTENSITY_WCM2 = 3.50945e16
HARTREE_EV = 27.211386
HARTREE_CM1 = 219474.63

TWO_PI = 2.0 * math.pi


def wavelength_to_omega(wavelength_nm: float) -> float:
    """Carrier angular frequency (a.u.) of light with the given vacuum
    wavelength, omega = 2 pi c / lambda."""
    if not 0 < wavelength_nm < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength_nm} nm")
    freq_hz = SPEED_OF_LIGHT_CM_S / (wavelength_nm * 1e-7)
    return TWO_PI * freq_hz * (AU_TIME_FS * 1e-15)


def intensity_to_field(intensity_wcm2: float) -> float:
    """Peak electric-field amplitude F0 (a.u.) for the given intensity,
    F0 = sqrt(I / I_atomic)."""
    if not 0 <= intensity_wcm2 < math.inf:
        raise ValueError(f"intensity must be non-negative and finite, got {intensity_wcm2}")
    return math.sqrt(intensity_wcm2 / ATOMIC_INTENSITY_WCM2)


def splitting_to_beat_period(splitting_cm1: float) -> float:
    """Quantum-beat period (fs) of two levels separated by the given
    wavenumber splitting, tau_b = 1/(c * Delta)."""
    if not 0 < splitting_cm1 < math.inf:
        raise ValueError(f"splitting must be positive and finite, got {splitting_cm1} cm^-1")
    return 1e15 / (SPEED_OF_LIGHT_CM_S * splitting_cm1)


def cm1_to_hartree(energy_cm1: float) -> float:
    return energy_cm1 / HARTREE_CM1


def ev_to_hartree(energy_ev: float) -> float:
    return energy_ev / HARTREE_EV


def au_to_fs(time_au: float) -> float:
    return time_au * AU_TIME_FS


def fs_to_au(time_fs: float) -> float:
    return time_fs / AU_TIME_FS
