"""Linearly polarized sin^2-envelope laser pulse.

Vector potential along z:

    A(t) = A0 sin^2(omega t / 2N) sin(omega t),   0 <= t <= tau_p = 2 pi N / omega

which expands into the carrier and two sidebands (Pulse.sidebands holds a_r),

    A(t) = sum_r a_r sin((1 + r/N) omega t),   r in SIDEBANDS = (0, +1, -1),
    (a_0, a_+1, a_-1) = (A0/2, -A0/4, -A0/4), except a_-1 = 0 for N = 1.

A(t) and dA/dt are evaluated in phasor form: with z = exp(i omega t / N)
and u = z^N = exp(i omega t), each sinusoid is (u z^r - 1/(u z^r)) / 2i
and each cosine (u z^r + 1/(u z^r)) / 2.  One evaluation costs one expi
call for z and 1/z, and a few products (u and 1/u by repeated squaring)
for all three, for real and complex t alike (real t returns the real
part).
Unlike the product form, the sinusoid sum has no catastrophic cancellation
when |Im t| is large, and it makes the action integral a finite sum of
elementary antiderivatives (see ``sowp.saddle``).  The electric field is
F(t) = -dA/dt, and the peak field is identified as F0 = A0 omega (the
carrier peak at the envelope maximum).

A caller that needs A, dA/dt and the action at the same t builds the
phasors once (Pulse.phasors) and passes them to each.
"""

from dataclasses import dataclass, field
from math import cos, sin

import numpy as np

from sowp import units

FWHM_FACTOR = 0.364  # intensity FWHM of a sin^2 envelope, as fraction of tau_p
SIDEBANDS = (0, 1, -1)  # r of the sinusoids at omega (1 + r/N) in A(t)


# Re a = k 2 pi / 2^10 + r by fdlibm's two-part 2 pi scaled by 2^-10: HI has
# 31 bits, so k HI is exact for |k| < 2^22.  x + SHIFT rounds x to an
# integer, held in the low bits of the double
_EXPI_HI = float.fromhex("0x1.921fb544p-8")
_EXPI_LO = float.fromhex("0x1.0b4611a626331p-42")
_EXPI_SHIFT = 1.5 * 2.0 ** 52
# exp(2 pi i k / 2^10), k = 0 .. 1023: the cosine and sine of the double
# k HI, rotated by the remaining angle k LO to first order
_EXPI_TABLE = np.array([complex(cos(k * _EXPI_HI) - sin(k * _EXPI_HI) * k * _EXPI_LO,
                                sin(k * _EXPI_HI) + cos(k * _EXPI_HI) * k * _EXPI_LO)
                        for k in range(1024)])


def _halves(c):
    """The two float arrays of c's shape in the memory of the complex
    array c (of a copy, unless c is contiguous)."""
    f = c.reshape(-1).view(float)
    return f[:c.size].reshape(c.shape), f[c.size:].reshape(c.shape)


def expi(a, out=None, inverse=None, scratch=None):
    """exp(i a) for a real or complex array (or scalar) a, from real ufuncs
    and one table lookup (the README algorithm note tells how); written
    into the complex array ``out`` of a's shape if given, and exp(-i a)
    into the complex array ``inverse`` if given.  ``scratch`` may give two
    complex arrays of a's shape to overwrite, else they are allocated; a
    may be ``out`` or ``inverse`` itself.  Within 1e-15 relative of a
    40-digit mpmath oracle, plus |Re a| 2^-53 for the rounding of a, for
    |Re a| up to 1e4 (TestExpi; the actions reach |S| ~ 2500 at N = 18):
    4.3e-16 at most measured, numpy's exp 2.2e-16."""
    a = np.asarray(a)
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    if scratch is None:
        scratch = [np.empty(a.shape, dtype=complex) for _ in range(2)]
    (k, c), (index, s) = (_halves(w) for w in scratch)
    index = index.view(np.int64)
    x = a.real
    # k = round(x / (2 pi / 2^10)), and k mod 2^10 from the low bits of k + SHIFT
    k = np.multiply(x, 1.0 / _EXPI_HI, out=k)
    k += _EXPI_SHIFT
    np.bitwise_and(k.view(np.int64), 1023, out=index)
    k -= _EXPI_SHIFT
    r = np.subtract(x, np.multiply(k, _EXPI_HI, out=c), out=c)
    r -= np.multiply(k, _EXPI_LO, out=k)
    r2 = np.multiply(r, r, out=k)
    # sin r = r (1 - r^2/6 + r^4/120) and cos r = 1 - r^2/2 + r^4/24
    s = np.multiply(r2, 1.0 / 120.0, out=s)
    s -= 1.0 / 6.0
    s *= r2
    s *= r
    s += r
    c = np.multiply(r2, 1.0 / 24.0, out=c)
    c -= 0.5
    c *= r2
    c += 1.0
    # exp(i a) = T (cos r + i sin r) e, exp(-i a) = conj(T (cos r + i sin r)) / e
    # for e = exp(-Im a) and the table entry T
    e = np.exp(np.negative(a.imag, out=k), out=k) if np.iscomplexobj(a) else 1.0
    if inverse is not None:
        np.divide(c, e, out=inverse.real)
        np.divide(s, e, out=inverse.imag)
    np.multiply(c, e, out=out.real)
    np.multiply(s, e, out=out.imag)
    table = np.take(_EXPI_TABLE, index, out=scratch[0], mode="wrap")
    if inverse is not None:
        np.conjugate(np.multiply(inverse, table, out=inverse), out=inverse)
    return np.multiply(out, table, out=out)


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
        return cls(omega=omega, n_cycles=n_cycles, a0=f0 / omega)

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
        """FWHM of the intensity envelope, FWHM_FACTOR tau_p, in fs."""
        return units.au_to_fs(FWHM_FACTOR * self.tau_p)

    def phasors(self, t, out=None):
        """(u, z, 1/u, 1/z) for the array t: z = exp(i omega t / N) and 1/z
        from one expi, u = z^N and 1/u = (1/z)^N by repeated squaring;
        written into the four complex arrays ``out`` of t's shape if given
        (expi takes its scratch from the first and third)."""
        t = np.asarray(t)
        if out is None:
            out = [np.empty(t.shape, dtype=complex) for _ in range(4)]
        buf, z, v, y = out
        arg = np.multiply(self.omega / self.n_cycles, t,
                          out=z if np.iscomplexobj(t) else None)
        z = expi(arg, out=z, inverse=y, scratch=(buf, v))

        def power(x, into):     # x^N by repeated squaring, into ``into``
            p = x
            for bit in bin(self.n_cycles)[3:]:
                p = np.multiply(p, p, out=into)
                if bit == "1":
                    p = np.multiply(p, x, out=into)
            return p
        u = power(z, buf)       # z itself for N = 1
        if power(y, v) is y:    # N = 1: 1/u in its own array all the same
            np.copyto(v, y)
        return u, z, v, y

    def _sinusoids(self, t, phasors, coef, combine, factor, out):
        """factor (u (c0 + c1 z + c2 y) combine v (c0 + c1 y + c2 z)) at t
        for coef (c0, c1, c2), the form of A and A': real for real t, a
        scalar for scalar t, and in ``out`` (see vector_potential) if given."""
        t = np.asarray(t)
        u, z, v, y = self.phasors(t) if phasors is None else phasors
        c0, c1, c2 = coef
        res, p_out, q_out = (None,) * 3 if out is None else out
        p = np.multiply(c1, z, out=p_out)
        p += c0
        p += np.multiply(c2, y, out=res)
        q = np.multiply(c1, y, out=q_out)
        q += c0
        q += np.multiply(c2, z, out=res)
        p = combine(np.multiply(u, p, out=p_out), np.multiply(v, q, out=q_out),
                    out=p_out)
        value = np.multiply(factor, p, out=res)
        if not np.iscomplexobj(t):
            value = value.real.copy()
        return value[()] if value.ndim == 0 else value

    def vector_potential(self, t, phasors=None, out=None):
        """A_z(t) for real or complex t (scalar or ndarray); phasors, if
        given, must be self.phasors(t).  For complex t, ``out`` may give
        three complex arrays of t's shape: the result is written into the
        first, and the other two are overwritten."""
        return self._sinusoids(t, phasors, self.sidebands, np.subtract, -0.5j, out)

    def vector_potential_derivative(self, t, phasors=None, out=None):
        """dA/dt = -F(t); phasors and out as for vector_potential."""
        coef = [a * (self.omega * (1.0 + r / self.n_cycles))
                for a, r in zip(self.sidebands, SIDEBANDS)]
        return self._sinusoids(t, phasors, coef, np.add, 0.5, out)

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
