"""Linearly polarized sin^2-envelope laser pulse.

Vector potential along z:

    A(t) = A0 sin^2(omega t / 2N) sin(omega t),   0 <= t <= tau_p = 2 pi N / omega

which expands into the carrier and two sidebands (Pulse.sidebands holds a_r),

    A(t) = sum_r a_r sin((1 + r/N) omega t),   r in SIDEBANDS = (0, +1, -1),
    (a_0, a_+1, a_-1) = (A0/2, -A0/4, -A0/4), except a_-1 = 0 for N = 1.

A(t) and dA/dt are evaluated in phasor form: with z = exp(i omega t / N)
and u = z^N = exp(i omega t), each sinusoid is (u z^r - 1/(u z^r)) / 2i
and each cosine (u z^r + 1/(u z^r)) / 2.  One evaluation costs one complex
exponential, a few products and two reciprocals for all three, for real
and complex t alike (real t returns the real part).
Unlike the product form, the sinusoid sum has no catastrophic cancellation
when |Im t| is large, and it makes the action integral a finite sum of
elementary antiderivatives (see ``sowp.saddle``).  The electric field is
F(t) = -dA/dt, and the peak field is identified as F0 = A0 omega (the
carrier peak at the envelope maximum).

A caller that needs A, dA/dt and the action at the same t builds the
phasors once (Pulse.phasors) and passes them to each.
"""

from dataclasses import dataclass, field
from operator import add, mul, sub, truediv

import numpy as np

from sowp import units

FWHM_FACTOR = 0.364  # intensity FWHM of a sin^2 envelope, as fraction of tau_p
SIDEBANDS = (0, 1, -1)  # r of the sinusoids at omega (1 + r/N) in A(t)


_UFUNCS = {add: np.add, sub: np.subtract, mul: np.multiply, truediv: np.divide}


def _into(op, a, b, out=None):
    """op(a, b) for op in _UFUNCS, written into the array ``out`` if given;
    without it, the expression itself, so that numpy scalars keep their
    own scalar arithmetic, bit for bit."""
    return op(a, b) if out is None else _UFUNCS[op](a, b, out=out)


@dataclass(frozen=True)
class Pulse:
    """Immutable pulse parameters: carrier frequency (a.u.), cycle count,
    peak vector potential (a.u.).  Polarization is fixed along z."""

    omega: float
    n_cycles: int
    a0: float
    # amplitudes a_r of the sinusoids at omega (1 + r/N), r in SIDEBANDS
    # order (carrier, upper, lower); the lower one is 0 for N = 1
    sidebands: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not (self.n_cycles >= 1 and float(self.n_cycles).is_integer()):
            raise ValueError(f"n_cycles must be a positive integer, got {self.n_cycles}")
        object.__setattr__(self, "n_cycles", int(self.n_cycles))
        if not (np.isfinite(self.a0) and self.a0 >= 0):
            raise ValueError(f"a0 must be finite and non-negative, got {self.a0}")
        lower = -self.a0 / 4.0 if self.n_cycles > 1 else 0.0
        object.__setattr__(self, "sidebands",
                           (self.a0 / 2.0, -self.a0 / 4.0, lower))

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

    def phasors(self, t, out=None):
        """(u, z, 1/u, 1/z) for the array t, with z = exp(i omega t / N)
        and u = z^N = exp(i omega t) built by repeated squaring; written
        into the four complex arrays ``out`` of t's shape if given."""
        buf, z, v, y = (None,) * 4 if out is None else out
        z = np.exp(np.multiply(1j * self.omega / self.n_cycles, t, out=z), out=z)
        u = z
        for bit in bin(self.n_cycles)[3:]:
            u = _into(mul, u, u, buf)
            if bit == "1":
                u = _into(mul, u, z, buf)
        return u, z, _into(truediv, 1.0, u, v), _into(truediv, 1.0, z, y)

    def _sinusoids(self, t, phasors, coef, combine, factor, out):
        """factor (u (c0 + c1 z + c2 y) combine v (c0 + c1 y + c2 z)) at t
        for coef (c0, c1, c2), the form of A and A': real for real t, a
        scalar for scalar t, and in ``out`` (see vector_potential) if given."""
        t = np.asarray(t)
        u, z, v, y = self.phasors(t) if phasors is None else phasors
        c0, c1, c2 = coef
        res, p_out, q_out = (None,) * 3 if out is None else out
        p = _into(mul, c1, z, p_out)
        p += c0
        p += _into(mul, c2, y, res)
        q = _into(mul, c1, y, q_out)
        q += c0
        q += _into(mul, c2, z, res)
        p = _into(combine, _into(mul, u, p, p_out), _into(mul, v, q, q_out), p_out)
        value = _into(mul, factor, p, res)
        if not np.iscomplexobj(t):
            value = value.real.copy()
        return value[()] if value.ndim == 0 else value

    def vector_potential(self, t, phasors=None, out=None):
        """A_z(t) for real or complex t (scalar or ndarray); phasors, if
        given, must be self.phasors(t).  For complex t, ``out`` may give
        three complex arrays of t's shape: the result is written into the
        first, and the other two are overwritten."""
        return self._sinusoids(t, phasors, self.sidebands, sub, -0.5j, out)

    def vector_potential_derivative(self, t, phasors=None, out=None):
        """dA/dt = -F(t); phasors and out as for vector_potential."""
        coef = [a * (self.omega * (1.0 + r / self.n_cycles))
                for a, r in zip(self.sidebands, SIDEBANDS)]
        return self._sinusoids(t, phasors, coef, add, 0.5, out)

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
