"""Linearly polarized sin^2-envelope laser pulse.

Vector potential along z:

    A(t) = A0 sin^2(omega t / 2N) sin(omega t),   0 <= t <= tau_p = 2 pi N / omega

which expands into three sinusoids,

    A(t) = (A0/2) sin(omega t)
         - (A0/4) sin((1 + 1/N) omega t)
         - (A0/4) sin((1 - 1/N) omega t).

A(t) and dA/dt are evaluated in phasor form: with z = exp(i omega t / N)
and u = z^N = exp(i omega t), each sinusoid is (u z^r - 1/(u z^r)) / 2i
and each cosine (u z^r + 1/(u z^r)) / 2 for r = 0, +1, -1.  One evaluation
costs one complex exponential, a few products and two reciprocals for all
components, for real and complex t alike (real t returns the real part).
Unlike the product form, the sinusoid sum has no catastrophic cancellation
when |Im t| is large, and it makes the action integral a finite sum of
elementary antiderivatives (see ``sowp.saddle``).  The electric field is
F(t) = -dA/dt, and the peak field is identified as F0 = A0 omega (the
carrier peak at the envelope maximum).

A caller that needs A, dA/dt and the action at the same t builds the
phasors once (Pulse.phasors) and passes them to each.
"""

from dataclasses import dataclass, field

import numpy as np

from sowp import units

FWHM_FACTOR = 0.364  # intensity FWHM of a sin^2 envelope, as fraction of tau_p


@dataclass(frozen=True)
class Pulse:
    """Immutable pulse parameters: carrier frequency (a.u.), cycle count,
    peak vector potential (a.u.).  Polarization is fixed along z."""

    omega: float
    n_cycles: int
    a0: float
    # (amplitude, frequency) pairs of the sinusoid expansion of A(t)
    components: tuple = field(init=False, repr=False, compare=False)
    # components of the carrier and the upper and lower sideband, r = 0, +1,
    # -1 in the phasor form; the lower one is (0, 0) for N = 1
    _sidebands: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.n_cycles < 1 or self.n_cycles != int(self.n_cycles):
            raise ValueError(f"n_cycles must be a positive integer, got {self.n_cycles}")
        if self.a0 < 0:
            raise ValueError(f"a0 must be non-negative, got {self.a0}")
        comps = [(self.a0 / 2.0, self.omega),
                 (-self.a0 / 4.0, self.omega * (1.0 + 1.0 / self.n_cycles))]
        if self.n_cycles > 1:
            comps.append((-self.a0 / 4.0, self.omega * (1.0 - 1.0 / self.n_cycles)))
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "_sidebands",
                           tuple(comps) + ((0.0, 0.0),) * (3 - len(comps)))

    @classmethod
    def from_lab(cls, wavelength_nm: float, n_cycles: int,
                 intensity_wcm2: float) -> "Pulse":
        """Build from laboratory parameters; A0 = F0/omega with
        F0 = sqrt(I/I_atomic)."""
        omega = units.wavelength_to_omega(wavelength_nm)
        f0 = units.intensity_to_field(intensity_wcm2)
        return cls(omega=omega, n_cycles=int(n_cycles), a0=f0 / omega)

    @property
    def f0(self) -> float:
        """Peak electric field A0*omega (a.u.)."""
        return self.a0 * self.omega

    @property
    def tau_p(self) -> float:
        """Total pulse duration 2 pi N / omega (a.u.)."""
        return 2.0 * np.pi * self.n_cycles / self.omega

    @property
    def tau_p_fs(self) -> float:
        return units.au_to_fs(self.tau_p)

    def fwhm_fs(self) -> float:
        """FWHM of the intensity envelope, 0.364 tau_p, in fs."""
        return units.au_to_fs(FWHM_FACTOR * self.tau_p)

    def phasors(self, t):
        """(u, z, 1/u, 1/z) for the array t, with z = exp(i omega t / N)
        and u = z^N = exp(i omega t) built by repeated squaring."""
        z = np.exp((1j * self.omega / self.n_cycles) * t)
        u = z
        for bit in bin(self.n_cycles)[3:]:
            u = u * u
            if bit == "1":
                u = u * z
        return u, z, 1.0 / u, 1.0 / z

    @staticmethod
    def _as_input(t, out):
        """out as a real array for real t, and as a scalar for scalar t."""
        if not np.iscomplexobj(t):
            out = out.real.copy()
        return out[()] if out.ndim == 0 else out

    def vector_potential(self, t, phasors=None):
        """A_z(t) for real or complex t (scalar or ndarray); phasors, if
        given, must be self.phasors(t)."""
        t = np.asarray(t)
        u, z, v, y = self.phasors(t) if phasors is None else phasors
        a0, a1, a2 = (a for a, _ in self._sidebands)
        out = -0.5j * (u * (a0 + a1 * z + a2 * y) - v * (a0 + a1 * y + a2 * z))
        return self._as_input(t, out)

    def vector_potential_derivative(self, t, phasors=None):
        """dA/dt = -F(t); phasors as for vector_potential."""
        t = np.asarray(t)
        u, z, v, y = self.phasors(t) if phasors is None else phasors
        a0, a1, a2 = (a * om for a, om in self._sidebands)
        out = 0.5 * (u * (a0 + a1 * z + a2 * y) + v * (a0 + a1 * y + a2 * z))
        return self._as_input(t, out)

    def electric_field(self, t):
        """F_z(t) = -dA/dt, analytic for complex t."""
        return -self.vector_potential_derivative(t)

    def keldysh_gamma(self, kappa: float) -> float:
        """Keldysh adiabaticity parameter omega*kappa/F0 for a bound state
        of momentum-scale kappa = sqrt(-2 E_bound)."""
        if kappa <= 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        if self.f0 == 0:
            raise ValueError("Keldysh gamma undefined for zero field")
        return self.omega * kappa / self.f0
