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

expi.  numpy runs complex exp and 1/z element by element through scalar
libm: on a block of 12 160 roots (N = 18, 2 vCPUs, numpy 2.4) exp takes
440-710 us and 1/z 65-110 us, against about 10 us for a complex product;
the real sin and cos are no faster (about 220-240 us each), so splitting
exp(i a) into cos + i sin does not help.  expi(a) builds exp(i a) from
numpy's vectorised real ufuncs and one take instead, in about 200 us, and
exp(-i a) with it for about 50 us more:

* Re a = k 2 pi / 2^10 + r, |r| <= pi / 2^10, by a two-part Cody-Waite
  reduction (fdlibm's split of 2 pi, scaled by 2^-10);
* exp(i Re a) = T_k (cos r + i sin r) with the table entry
  T_k = exp(2 pi i k / 2^10) and the polynomials of cos r to r^4 and of
  sin r to r^5 (truncation error below 1e-18);
* exp(i a) = exp(i Re a) exp(-Im a), exp(-i a) = conj(exp(i Re a)) / exp(-Im a).

Measured against mpmath: 4.3e-16 relative at most (numpy's exp 2.2e-16)
for |Re a| up to 1e4, as the actions reach |S| ~ 2500 at N = 18.
"""

from dataclasses import dataclass, field
from math import cos, sin
from operator import add, mul, sub

import numpy as np

from sowp import units

FWHM_FACTOR = 0.364  # intensity FWHM of a sin^2 envelope, as fraction of tau_p
SIDEBANDS = (0, 1, -1)  # r of the sinusoids at omega (1 + r/N) in A(t)


_UFUNCS = {add: np.add, sub: np.subtract, mul: np.multiply}


def _into(op, a, b, out=None):
    """op(a, b) for op in _UFUNCS, written into the array ``out`` if given;
    without it, the expression itself, so that numpy scalars keep their
    own scalar arithmetic, bit for bit."""
    return op(a, b) if out is None else _UFUNCS[op](a, b, out=out)


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
    and one table lookup (see the module docstring); written into the
    complex array ``out`` of a's shape if given, and exp(-i a) into the
    complex array ``inverse`` if given.  ``scratch`` may give two complex
    arrays of a's shape to overwrite, else they are allocated; a may be
    ``out`` or ``inverse`` itself."""
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
        """(u, z, 1/u, 1/z) for the array t: z = exp(i omega t / N) and 1/z
        from one expi, u = z^N and 1/u = (1/z)^N by repeated squaring;
        written into the four complex arrays ``out`` of t's shape if given
        (expi takes its scratch from the first and third)."""
        t = np.asarray(t)
        if out is None:
            out = [np.empty(t.shape, dtype=complex) for _ in range(4)]
        buf, z, v, y = out
        arg = _into(mul, self.omega / self.n_cycles, t,
                    z if np.iscomplexobj(t) else None)
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
