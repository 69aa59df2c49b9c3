"""Complex saddle points of the strong-field action.

For a momentum p and channel binding energy E < 0 the saddle condition

    S'(t) = (1/2) [p + A(t)]^2 - E = 0

factorizes as A(t) = -p_z +/- i q with q = sqrt(kappa^2 + p_perp^2).
Because A(t) is a finite sum of sinusoids whose frequencies are integer
multiples of omega/N, substituting w = exp(i omega t / N) turns each branch
into a polynomial of degree 2N+2 in w.  The roots of the '+' branch alone
give the complete saddle set: roots inside the unit circle map directly to
saddles with Im t > 0, and roots outside map to the '-' branch saddles via
w -> 1/conj(w) (equivalently t -> conj(t)).  This guarantees exactly 2N+2
saddles with Im t > 0 and 0 <= Re t <= tau_p, with no search heuristics.

Root finding.  Companion-matrix eigenvalues (numpy.linalg.eigvals, stacked
in chunks of at most EIG_CHUNK_ELEMS matrix entries) seed a damped Newton
polish of the exact saddle condition.  Newton stops moving the points of
a channel as soon as their largest |S'| is at most NEWTON_STOP_TOL, 100x
inside RESIDUAL_TOL, and after NEWTON_ITERATIONS steps at the latest.

The shape of the momentum arrays given to saddle_batch selects how seeds
are found:

* 1-D: independent points, every one seeded by eigenvalues.
* 2-D, shape (n_path, n_lines): n_lines continuation paths along axis 0
  (the density matrix passes the radial lines of its grid this way).  The
  first node of row 0 is seeded by eigenvalues, every other node by
  predictor-corrector continuation from it.  An eigensolve costs O(deg^3)
  per node, a Newton step O(deg), so a batch costs one eigensolve per
  channel, plus one per node that fails the contracts below.  On a
  MomentumGrid row 0 is the innermost circle (|p| = 3e-5 a.u. on the
  default grid), whose nodes share nearly the same saddles.  A row 0
  across p_z = 0 seeds the nodes of the other sign from the mirror image
  of those roots (see the mirror rule below), so that the saddle near
  Re t = 0 stays in the strip.

Either way every solved row is stored sorted by Re t, the one root order
of the package, and the predictor extrapolates the k-th root of each row
from the k-th roots of the rows before.  Two roots that crossed in Re t
along a line would only give Newton a poorer seed and, at worst, an
eigenvalue re-seed through the contract check below: a cost in time, not
a wrong root set.

Predictor.  Row 0 starts Newton from the roots of its first node, rows 1
and 2 from the previous row's roots.  From row 3 on, each root is
extrapolated by the Lagrange polynomial in the path parameter
s = sqrt(p_z^2 + p_perp^2) (|p| on a MomentumGrid) through the last
min(r, PREDICTOR_ROWS) rows: the quadratic at row 3, degree 6 from row 7
on.  It needs no evaluation of A, and its seeds are close enough for one
Newton step on nearly every root.  A column falls back to the previous
row's roots when two of those s coincide (the weights would not be
finite), or when the prediction moves a root by more than tau_p/4: a root
that re-seeds flipped between the two ends of the strip (see the mirror
rule) would otherwise be extrapolated far outside it.

Corrector.  The lines of all channel energies given form one set: a row or
block gets one predictor, Newton, contract and evaluation call, and row
0's first nodes share one eigvals call.  Rows from 3 on are polished
ROW_BLOCK_ROWS per Newton call, all predicted from the same rows, or fewer
so that a block holds at most ROW_BLOCK_ROOTS roots (5 rows of both
channels at N = 18 on the default grid; _row_blocks is this rule, and
counts the Newton calls it makes).  Only the rows the predictor
reads are kept, in a window of PREDICTOR_ROWS rows and a block.  Each
Newton step builds the phasors of its t once, for A and A'.  After each
row or block, every node is checked once against the root-set contracts:
residual |S'| <= RESIDUAL_TOL, Im t > 0, 0 <= Re t <= tau_p, and
neighbours in Re t at least DISTINCT_TOL apart.  Since the strip holds
exactly 2N+2 saddles, 2N+2 distinct roots passing these checks are the
complete set.  A node that fails (a root jumped to a neighbour or to a
periodic image) is re-seeded by eigenvalues at its own channel energy, and
its line continues from the re-seeded roots, sorted like every other row.

Mirror rule.  The pulse is odd about its centre, A(tau_p - t) = -A(t), and
real on the real axis, so the saddles at (-p_z, p_perp^2) are
tau_p - conj(t) of those at (p_z, p_perp^2).  When the 2-D inputs are
exact mirror images across their columns (pz[:, ::-1] == -pz and
pperp2[:, ::-1] == pperp2, as on every MomentumGrid: Gauss-Legendre nodes
are symmetric) and a consumer is given, only the first ceil(n_lines/2)
lines are continued and evaluated, the p_z = 0 line included when n_lines
is odd, and the consumer maps its results to the other lines.  Otherwise
every line is continued.

Evaluation.  Newton's last step has evaluated the phasors, v_z and |S'|
at the roots it returns, sorted with them by Re t.  Each row block (for
1-D inputs, the one Newton call) is evaluated from these; a node that
eigenvalues re-seed, from those of its own Newton call.  S'' = v_z A'
gates the block: one whose nodes all pass the root-set and |S''|
contracts gets its action from the same phasors and its prefactor
1/sqrt(-i S'') (principal branch, Re >= 0) from _rsqrt, and goes straight
to its consumer: the caller's consume callback, or a copy into a
SaddleBatch.  _rsqrt builds 1/sqrt from real ufuncs: numpy's complex sqrt
and 1/z run element by element through scalar libm, about 500 us and
100 us on a block of 12 160 roots (N = 18), against about 170 us for
_rsqrt, which is within 2.7e-16 of it relative (measured against mpmath;
1/np.sqrt 3.3e-16).
Failures are named without a whole-grid record: per channel and
contract, a block that breaks it adds its failing grid nodes to a count
(given a consumer, a node counts twice when its mirror image is not
solved) and, the first time, keeps its first failing node: the value,
(p_z, p_perp^2) and roots.  Blocks arrive in flat order, so that node is
the contract's first in flat order.  From the first block that fails on,
no block reaches the consumer, and after the last one SaddleError names,
for the first channel given with a failing node and the first contract
in the order above (|S''| last) that any of its nodes breaks, that node,
the channel energy, its roots and the count, as for that channel alone.
Given a consumer, no array of the grid's size is held: saddle times live
in the window and the block buffers only.

Buffers.  Newton, the root-gap contract and the evaluation write into one
set of block arrays per saddle_batch call (_workspace), sized for its
largest block, so the row blocks allocate no array of their size and the
C heap is not trimmed and faulted in again from block to block.  A block handed to the consumer is
therefore valid only during that call.  Eigenvalue re-seeds and the first
node of row 0 are solved in buffers of their own.

The closed-form action uses the elementary antiderivatives of the sinusoid
expansion with the integration constant fixed so that S(0) = 0, summed as
a trigonometric polynomial with ten frequencies that are multiples of
omega/N, from the same phasors as A(t) (see _action_coefficients).
"""

from dataclasses import dataclass
from operator import add, mul, sub

import numpy as np

from sowp.errors import SaddleError, DegenerateSaddleError
from sowp.pulse import SIDEBANDS, Pulse, _halves, _into

RESIDUAL_TOL = 1e-10       # max |S'(t)| accepted at a root
DISTINCT_TOL = 1e-6        # min pairwise |t_i - t_j|
STRIP_SLACK = 1e-9         # Re t may leave [0, tau_p] by this times tau_p
DEGENERATE_S2_TOL = 1e-6   # min |S''| before the plain formula is distrusted
NEWTON_ITERATIONS = 12     # cap on Newton steps per polish
NEWTON_STOP_TOL = 1e-12    # Newton stops once max |S'| is at or below this
EIG_CHUNK_ELEMS = 4_000_000  # companion-matrix entries per eigvals call
ROW_BLOCK_ROWS = 10          # continued rows per Newton call, at most
ROW_BLOCK_ROOTS = 12_160     # and roots of all channels, unless a row has more
PREDICTOR_ROWS = 7           # rows the predictor extrapolates from


@dataclass(frozen=True)
class SaddlePoint:
    """One saddle: 1-based index mu in order of increasing Re t."""

    mu: int
    t: complex
    action: complex
    s2: complex          # S''(t_mu)
    prefactor: complex   # 1/sqrt(-i S'') on the principal branch


def _action_coefficients(pulse):
    """The action as a trigonometric polynomial in w t, w = omega / N:

        S(t) = (p^2/2 - E + lin) t + p_z sum_r c[r] (1 - cos((N + r) w t))
               + sum_{d=1,2} b[d] sin(d w t) + sum_{r=-2..2} g[r] sin((2N + r) w t)

    The p_z term integrates A, the rest (1/2) A^2: each ordered pair of
    sidebands (N + r1, N + r2) contributes (1/4) a1 a2 [sin(d w t)/(d w)
    - sin(s w t)/(s w)] with d = r1 - r2 and s = 2N + r1 + r2, or t for
    d = 0.  Returns (lin, c, b, g) with c and g indexed by r + 1 and r + 2.
    """
    n = pulse.n_cycles
    w = pulse.omega / n
    # the zero-frequency lower sideband of N = 1 (a = 0) adds nothing
    comps = [(a, r) for a, r in zip(pulse.sidebands, SIDEBANDS) if n + r]
    lin = 0.0
    c, b, g = np.zeros(3), np.zeros(3), np.zeros(5)
    for a1, r1 in comps:
        c[r1 + 1] += a1 / ((n + r1) * w)
        for a2, r2 in comps:
            d = abs(r1 - r2)
            if d == 0:
                lin += 0.25 * a1 * a2
            else:
                b[d] += 0.25 * a1 * a2 / (d * w)
            g[r1 + r2 + 2] -= 0.25 * a1 * a2 / ((2 * n + r1 + r2) * w)
    return lin, c, b, g


def _action_terms(pulse, t, pz, pperp2, e_bound, phasors=None, out=None,
                  coefficients=None):
    """Closed-form action (see _action_coefficients, or ``coefficients``,
    their value) from the phasors z = exp(i omega t / N), u = exp(i omega t)
    and their reciprocals y, v (pulse.phasors(t), built here unless given);
    t is real or complex, and pz, pperp2 and e_bound broadcast against t.
    For complex t, ``out`` may give four complex arrays of t's shape: the
    action is written into the first, and the others are overwritten.

    Every bracket below vanishes exactly at t = 0, so S(0) = 0 exactly.
    """
    lin, c, b, g = coefficients or _action_coefficients(pulse)
    u, z, v, y = pulse.phasors(t) if phasors is None else phasors
    res, w_out, h_out, q_out = (None,) * 4 if out is None else out
    s = _into(mul, 0.5 * (pz * pz + pperp2) - e_bound + lin, t, res)

    def cosines(cr, x, x_inv, buf):     # cr (1 - (x + x_inv) / 2)
        half = _into(mul, 0.5, _into(add, x, x_inv, buf), buf)
        return _into(mul, cr, _into(sub, 1.0, half, buf), buf)

    # p_z sum_r c[r] (1 - (u z^r + v y^r) / 2); into res, not in place, so
    # that s becomes complex when t is real
    w = cosines(c[0], _into(mul, u, y, w_out), _into(mul, v, z, h_out), w_out)
    w += cosines(c[1], u, v, h_out)
    w += cosines(c[2], _into(mul, u, z, h_out), _into(mul, v, y, q_out), h_out)
    s = _into(add, s, _into(mul, pz, w, w_out), res)
    # sin(k w t) = (z^k - y^k) / 2i; for k = 2N + r, z^k = u^2 z^r
    w = _into(mul, b[1], _into(sub, z, y, w_out), w_out)
    w += _into(mul, b[2], _into(sub, _into(mul, z, z, h_out),
                                _into(mul, y, y, q_out), h_out), h_out)
    for up, down, carrier, combine in ((z, y, u, add), (y, z, v, sub)):
        # carrier^2 (g[0] down^2 + g[1] down + g[2] + g[3] up + g[4] up^2)
        h = _into(mul, g[0], _into(mul, down, down, h_out), h_out)
        h += _into(mul, g[1], down, q_out)
        h += g[2]
        h += _into(mul, g[3], up, q_out)
        h += _into(mul, g[4], _into(mul, up, up, q_out), q_out)
        w = _into(combine, w, _into(mul, _into(mul, carrier, carrier, q_out), h,
                                    h_out), w_out)
    s += _into(mul, -0.5j, w, w_out)
    return s


@dataclass(slots=True, eq=False)
class SaddleBatch:
    """Saddle data for a batch of momenta, shape pz.shape + (2N+2,) per field.

    Points are (p_z, p_perp^2) pairs; saddles are sorted by Re t along the
    last axis.
    """

    t: np.ndarray
    vz: np.ndarray
    action: np.ndarray
    s2: np.ndarray
    prefactor: np.ndarray
    residual: np.ndarray


def _polynomial_coefficients(pulse: Pulse):
    """Ascending coefficients of w^(N+1) * A(t(w)), excluding the -c w^(N+1)
    branch term; returns (coef, M) with deg = 2M."""
    n = pulse.n_cycles
    m = n + 1
    coef = np.zeros(2 * m + 1, dtype=complex)
    for a, r in zip(pulse.sidebands, SIDEBANDS):
        coef[m + n + r] += a / 2j
        coef[m - n - r] -= a / 2j
    return coef, m


def _eigvals_seeds(pulse: Pulse, e_bound, pz, pperp2):
    """Unpolished saddle times from companion-matrix eigenvalues for
    energies and points that broadcast together; shape theirs + (2N+2,)."""
    coef, m = _polynomial_coefficients(pulse)
    deg = 2 * m
    lead = coef[deg]
    c = -pz + 1j * np.sqrt(-2.0 * e_bound + pperp2)  # '+' branch constant
    shape, c = c.shape, c.ravel()

    # companion matrix in the np.roots layout: only the w^m column entry
    # depends on c
    base = np.zeros((deg, deg), dtype=complex)
    base[1:, :-1] = np.eye(deg - 1)
    base[0, :] = -coef[::-1][1:] / lead
    const_entry = base[0, deg - 1 - m]

    w = np.empty((c.size, deg), dtype=complex)
    rows = max(1, EIG_CHUNK_ELEMS // (deg * deg))
    for i0 in range(0, c.size, rows):
        sl = slice(i0, i0 + rows)
        comp = np.broadcast_to(base, (c[sl].size, deg, deg)).copy()
        comp[:, 0, deg - 1 - m] = const_entry + c[sl] / lead
        w[sl] = np.linalg.eigvals(comp)

    # roots inside the unit circle: '+' branch saddles (Im t > 0);
    # outside: reflect to the '-' branch
    theta = np.angle(w) % (2.0 * np.pi)
    t = (pulse.n_cycles / pulse.omega) * (theta - 1j * np.log(np.abs(w)))
    return np.where(np.abs(w) < 1.0, t, np.conj(t)).reshape(shape + (deg,))


def _workspace(n, deg):
    """Block buffers for up to n points, each of shape (n, deg): complex
    seeds, t, u, z, 1/u, 1/z, v_z, S', step and two scratch (S'', the
    prefactor and the action reuse the last five), and float |S'| and
    scratch.  Callers take views of their first rows (_views)."""
    return np.empty((11, n, deg), dtype=complex), np.empty((2, n, deg))


def _views(work, shape):
    """The first rows of the buffers ``work`` of _workspace, each of ``shape``."""
    n = int(np.prod(shape[:-1]))
    return [w[:, :n].reshape(w.shape[:1] + shape) for w in work]


def _evaluated(pulse: Pulse, e_bound: float, t, pz, pperp2, out=None):
    """((t, u, z, 1/u, 1/z, v_z), S'(t)) with v_z = p_z + A(t), for points
    pz, pperp2 that broadcast against t; written into the eight complex
    arrays ``out`` of t's shape (u, z, 1/u, 1/z, v_z, S' and two scratch)
    if given."""
    u, z, v, y, vz, f, x1, x2 = (None,) * 8 if out is None else out
    phasors = pulse.phasors(t, out=None if out is None else (u, z, v, y))
    vz = np.add(pz, pulse.vector_potential(t, phasors=phasors, out=(vz, x1, x2)),
                out=vz)
    f = np.multiply(vz, vz, out=f)
    f += pperp2
    f = np.multiply(0.5, f, out=f)
    f -= e_bound
    return (t, *phasors, vz), f


def _newton(pulse: Pulse, e_bound: float, t, pz, pperp2, work):
    """Damped Newton polish of S'(t) = 0 from start values t of shape
    (..., n, 2N+2), for e_bound, pz, pperp2 that broadcast against t, in the
    buffers ``work`` of _workspace; t itself is not written to.

    A channel (t's leading axis, if any) stops once its |S'| are all at
    most NEWTON_STOP_TOL, every one after NEWTON_ITERATIONS steps.  Returns
    the fields of the last evaluation, (t, u, z, 1/u, 1/z, v_z, |S'|), each
    sorted by Re t (in work's buffers unless sorting moved them).
    """
    (_, tk, *fields, d, x1, x2), (residual, mag) = _views(work, t.shape)
    step_cap = 0.25 * np.pi / pulse.omega
    tk[...] = t
    for it in range(NEWTON_ITERATIONS + 1):
        evaluated, f = _evaluated(pulse, e_bound, tk, pz, pperp2, out=(*fields, x1, x2))
        residual = np.abs(f, out=residual)
        going = ~(residual <= NEWTON_STOP_TOL).all(axis=(-2, -1), keepdims=True)
        if it == NEWTON_ITERATIONS or not going.any():
            return _sorted_by_real(*evaluated, residual)
        fp = np.multiply(evaluated[-1], pulse.vector_potential_derivative(
            tk, phasors=evaluated[1:5], out=(d, x1, x2)), out=d)
        # dt = -f / fp (0 where fp = 0), scaled down to at most step_cap
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.divide(np.negative(f, out=f), fp, out=f)
            dt[fp == 0] = 0.0
            scale = np.minimum(np.divide(step_cap, np.abs(dt, out=mag), out=mag),
                               1.0, out=mag)
        np.add(tk, np.multiply(dt, scale, out=dt), out=tk, where=going)


def _rsqrt(x, out, scratch):
    """The principal 1/sqrt(x) of the complex array x, 1e-154 < |x| < 1e154
    (|x|^2 a normal double), from real ufuncs (see the module docstring),
    written into ``out`` (x itself may be ``out``), with the two
    complex arrays ``scratch`` of x's shape overwritten.  With r = |x| and
    rho = sqrt((r + |Re x|)/2), sqrt(x) is rho + i Im x / (2 rho) where
    Re x >= 0, else |Im x| / (2 rho) + i copysign(rho, Im x), free of
    cancellation, and 1/sqrt(x) = conj(sqrt(x)) / r."""
    (r, rho), (eta, big) = (_halves(w) for w in scratch)
    re, im = x.real, x.imag
    r = np.sqrt(np.add(np.multiply(re, re, out=r), np.multiply(im, im, out=rho),
                       out=r), out=r)
    rho = np.add(np.abs(re, out=rho), r, out=rho)
    rho *= 0.5
    rho = np.sqrt(rho, out=rho)
    # -Im x / (2 rho r) and rho / r, the parts of conj(sqrt(x)) / r
    eta = np.divide(np.divide(im, rho, out=eta), r, out=eta)
    eta *= -0.5
    rho /= r
    # rho goes to the real part where Re x >= 0, eta elsewhere; as rho >=
    # |eta|, max(+-copysign(rho, Re x), |eta|) picks the real part for +
    # and the modulus of the imaginary part for -
    big = np.copysign(rho, re, out=big)
    small = np.abs(eta, out=rho)
    np.maximum(big, small, out=out.real)
    np.maximum(np.negative(big, out=big), small, out=big)
    np.copysign(big, eta, out=out.imag)
    return out


def _solve_points(pulse: Pulse, e_bound, pz, pperp2, work=None):
    """Eigenvalue-seeded, Newton-polished roots of the 1-D independent points
    at the energies e_bound (an array that broadcasts against them): the
    fields of _newton, in ``work`` or, by default, in buffers of their own."""
    seeds = _eigvals_seeds(pulse, e_bound, pz, pperp2)
    work = _workspace(seeds[..., 0].size, seeds.shape[-1]) if work is None else work
    return _newton(pulse, e_bound[..., None], seeds, pz[:, None], pperp2[:, None],
                   work=work)


def _sorted_by_real(t, *fields):
    """t and every field reordered by increasing Re t along the last axis."""
    re = t.real
    if (re[..., 1:] > re[..., :-1]).all():      # as continued roots mostly are
        return (t,) + fields
    order = np.argsort(re, axis=-1)
    return tuple(np.take_along_axis(a, order, axis=-1) for a in (t,) + fields)


def _predicted_seeds(prev, s_prev, x, bound, out):
    """Newton seeds at the path parameters x, shape (k, n_lines), from the
    rows prev at s_prev, shapes (..., m, n_lines, 2N+2) (per channel) and
    (m, n_lines), sorted by Re t: for m >= 3 the Lagrange polynomial through
    them in s, root by root, or the last row's roots in a column where two
    s coincide or a root would move by more than ``bound`` (see the module
    docstring); written into the first of ``out``, a complex array of shape
    (..., k, n_lines, 2N+2), a complex and a float one of that shape for
    scratch.
    """
    pred, diff, mag = out
    last = prev[..., -1:, :, :]
    if len(s_prev) < 3:
        pred[...] = last
        return pred
    off = ~np.eye(len(s_prev), dtype=bool)[..., None]     # (j, i, 1): i != j
    denom = np.where(off, s_prev[:, None] - s_prev, 1.0).prod(axis=1)
    fallback = (denom == 0).any(axis=0)
    # weights[k, j, c] = prod_{i != j} (x_kc - s_ic) / denom_jc, applied as
    # one (k, m) matrix per column c
    numer = np.where(off, x[:, None, None] - s_prev, 1.0).prod(axis=2)
    weights = numer / np.where(fallback, 1.0, denom)
    np.matmul(weights.transpose(2, 0, 1), np.swapaxes(prev, -3, -2),
              out=np.swapaxes(pred, -3, -2))
    moved = np.abs(np.subtract(pred, last, out=diff), out=mag)
    fallback = fallback | (moved > bound).any(axis=(-3, -1))
    np.copyto(pred, last, where=fallback[..., None, :, None])
    return pred


def _continue_lines(pulse: Pulse, e_bound, pz, pperp2, block, finish, work):
    """Continue the roots along every line of 2-D points (see the module
    docstring) for the energies e_bound, shape (1,) or (C, 1) for C
    channels, ``block`` rows per Newton call from row 3 on, calling
    finish(nodes, points, fields, values, bad) per row block with the slice
    of its nodes in the flattened pz, their (p_z, p_perp^2), each of shape
    (nodes, 1), the fields of _newton (in the buffers ``work`` of
    _workspace, which the next block reuses), their _contract_values and
    the _contract_checks on these.  Only the rows the predictor reads are
    kept."""
    n_path, n_lines = pz.shape
    deg = 2 * pulse.n_cycles + 2
    ch = e_bound.shape[:-1]     # () or (C,): the leading axis of every block

    def path(rows):             # the path parameter s = |p| of rows
        return np.sqrt(pz[rows] * pz[rows] + pperp2[rows])

    window = np.empty(ch + (PREDICTOR_ROWS + block, n_lines, deg), dtype=complex)
    kept, r = 0, 0      # window[..., :kept, :, :] holds rows r - kept .. r - 1
    while r < n_path:
        k = 1 if r < 3 else min(block, n_path - r)
        rows = slice(r, r + k)
        bpz, bpp2 = (a[rows].reshape(-1, 1) for a in (pz, pperp2))
        # the seeds and two scratch arrays, free until Newton starts
        (seeds, scratch, *_), (_, mag) = _views(work, ch + (k * n_lines, deg))
        if r == 0:      # from the roots of the row's first node, or their image
            # (solved in buffers of its own, so copied here)
            first = _solve_points(pulse, e_bound, bpz[:1, 0], bpp2[:1, 0])[0]
            seeds[...] = first
            image = bpz[:, 0] * bpz[:1, 0] < 0
            seeds[..., image, :] = pulse.tau_p - np.conj(first[..., ::-1])
        else:
            _predicted_seeds(window[..., :kept, :, :], path(slice(r - kept, r)),
                             path(rows), pulse.tau_p / 4,
                             [a.reshape(ch + (k, n_lines, deg))
                              for a in (seeds, scratch, mag)])
        fields = _newton(pulse, e_bound[..., None], seeds, bpz, bpp2, work=work)
        values = _contract_values(pulse, fields, work)
        bad = _contract_checks(pulse, values)
        failed = np.logical_or.reduce(bad)
        if failed.any():    # in buffers of their own, each at its own energy
            again = _solve_points(pulse, *(np.broadcast_to(a, failed.shape)[failed]
                                           for a in (e_bound, bpz[:, 0], bpp2[:, 0])))
            for field, new in zip(fields, again):
                field[failed] = new
            values[:, failed] = _contract_values(pulse, again)
            bad = _contract_checks(pulse, values)
        window[..., kept:kept + k, :, :] = fields[0].reshape(ch + (k, n_lines, deg))
        finish(slice(r * n_lines, (r + k) * n_lines), (bpz, bpp2), fields, values, bad)
        held = min(kept + k, PREDICTOR_ROWS)
        window[..., :held, :, :] = window[..., kept + k - held:kept + k, :, :]
        kept, r = held, r + k


def _solved_lines(pz, pperp2) -> int:
    """The leading lines of 2-D inputs that are solved given a consumer:
    ceil(n_lines/2) of exact mirror images (see the module docstring), else
    all n_lines."""
    mirror = (np.array_equal(pz[:, ::-1], -pz)
              and np.array_equal(pperp2[:, ::-1], pperp2))
    return (pz.shape[1] + 1) // 2 if mirror else pz.shape[1]


def _row_blocks(channels: int, n_path: int, n_lines: int, deg: int):
    """(rows per Newton call from row 3 on, Newton calls) of continuing
    n_path rows of n_lines lines of ``channels`` channels with deg roots
    each: rows 0, 1 and 2 alone, then ROW_BLOCK_ROWS rows per call, or
    fewer so that a call holds at most ROW_BLOCK_ROOTS roots, unless a row
    has more."""
    rows = max(1, min(ROW_BLOCK_ROWS,
                      ROW_BLOCK_ROOTS // max(1, channels * n_lines * deg)))
    return rows, min(n_path, 3) + -(-max(0, n_path - 3) // rows)


def saddle_batch(pulse: Pulse, e_bound, pz, pperp2,
                 consume=None) -> SaddleBatch | None:
    """Find all 2N+2 saddles for each (pz, pperp2) point and channel energy
    e_bound, a number or a sequence (channels solved in one pass).

    1-D (or scalar) inputs are independent points.  2-D inputs are
    continuation paths along axis 0 (see the module docstring).  Returns a
    SaddleBatch with fields of shape e_bound's + pz.shape + (2N+2,), or,
    given ``consume``, None after calling consume(nodes, block) per
    evaluated block (a row block of 2-D inputs, all points of 1-D ones):
    ``nodes`` indexes the flattened nodes (a slice or an index array),
    ``block`` is their SaddleBatch, valid only during the call (the next
    block reuses its arrays, so the consumer may overwrite them; ``Gram``
    and ``amplitude_profiles`` use it at once, and without ``consume`` it
    is copied into the result).  Raises
    SaddleError/DegenerateSaddleError naming the first node that fails the
    residual, count, distinctness, or curvature contracts, in the first
    channel that fails one (its count is of that channel's nodes).
    """
    energy = np.asarray(e_bound, dtype=float)
    if energy.ndim > 1 or energy.size == 0 or (energy >= 0).any():
        raise ValueError(f"e_bound must be one or more negative energies, got {e_bound}")
    if pulse.a0 == 0.0:
        raise SaddleError("no saddle points for a zero-amplitude pulse")
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    pperp2 = np.atleast_1d(np.asarray(pperp2, dtype=float))
    if pz.shape != pperp2.shape:
        raise ValueError("pz and pperp2 must have the same shape")
    deg = 2 * pulse.n_cycles + 2
    e = energy[..., None]       # broadcasts against a block's nodes
    total = pz.size             # grid nodes, mirrored ones included
    n_lines = solved = None     # lines of 2-D inputs, and those solved
    if pz.ndim == 2:
        n_lines = solved = pz.shape[1]
        if consume is not None:     # the consumer maps the mirrored lines itself
            solved = _solved_lines(pz, pperp2)
            pz, pperp2 = pz[:, :solved], pperp2[:, :solved]
        block = _row_blocks(e.size, pz.shape[0], solved, deg)[0]
    elif pz.ndim != 1:
        raise ValueError(f"pz and pperp2 must be 1-D or 2-D, got {pz.ndim}-D")
    # sized for the largest block: all points, or ``block`` rows
    work = _workspace(e.size * (pz.size if pz.ndim == 1 else
                                min(block, pz.shape[0]) * pz.shape[1]), deg)

    batch = None
    if consume is None:     # the SaddleBatch consumer copies every block in
        shape = energy.shape + pz.shape + (deg,)
        batch = SaddleBatch(*(np.empty(shape, dtype=complex) for _ in range(5)),
                            np.empty(shape))

        def consume(nodes, block):
            for name in SaddleBatch.__slots__:
                getattr(batch, name).reshape(energy.shape + (-1, deg))[
                    ..., nodes, :] = getattr(block, name)

    def placed(nodes):
        """The grid's flat nodes of the solved flat nodes ``nodes``, and the
        grid nodes each stands for: itself, and its unsolved mirror image."""
        if solved == n_lines:
            return nodes, 1
        row, line = np.divmod(np.arange(nodes.start, nodes.stop), solved)
        return row * n_lines + line, 1 + (line < n_lines - solved)

    # per channel and contract: the value, p_z, p_perp^2 and roots of its
    # first failing node, and the number of its failing grid nodes
    failing = [{} for _ in e]
    counts = np.zeros((e.size, len(_CONTRACT_MESSAGES) + 1), dtype=int)
    coefficients = _action_coefficients(pulse)

    def finish(nodes, points, fields, values, bad):
        """Evaluate a block and hand it to the consumer, unless it or an
        earlier block broke a contract; note its failing nodes."""
        tb, *phasors, vz, residual = fields
        # the buffers Newton leaves free: seeds, S', step and scratch
        (free, _, _, _, _, _, _, s2, pre, act, x), (_, mag) = _views(work, tb.shape)
        s2 = np.multiply(vz, pulse.vector_potential_derivative(
            tb, phasors=phasors, out=(s2, pre, act)), out=s2)
        low = np.abs(s2, out=mag).min(axis=-1)
        index, copies = placed(nodes)
        for kind, (fails, value) in enumerate(zip(bad + [~(low >= DEGENERATE_S2_TOL)],
                                                  [*values, low])):
            if not fails.any():
                continue
            for fail, count, mask, value_c, roots in zip(
                    failing, counts, fails.reshape(e.size, -1),
                    value.reshape(e.size, -1), tb.reshape(e.size, -1, deg)):
                if mask.any():
                    count[kind] += np.broadcast_to(copies, mask.shape)[mask].sum()
                    if kind not in fail:
                        i = int(np.argmax(mask))
                        fail[kind] = (value_c[i], points[0][i, 0], points[1][i, 0],
                                      roots[i].copy())
        if not any(failing):
            act = _action_terms(pulse, tb, *points, e[..., None], phasors=phasors,
                                out=(act, x, free, pre), coefficients=coefficients)
            prefactor = _rsqrt(np.multiply(-1j, s2, out=pre), pre, (free, x))
            consume(index, SaddleBatch(tb, vz, act, s2, prefactor, residual))

    if pz.ndim == 1:
        fields = _solve_points(pulse, e, pz, pperp2, work)
        values = _contract_values(pulse, fields, work)
        finish(slice(None), (pz[:, None], pperp2[:, None]), fields, values,
               _contract_checks(pulse, values))
    else:
        _continue_lines(pulse, e, pz, pperp2, block, finish, work)
    for fail, count, e_c in zip(failing, counts, e.ravel()):
        if fail:    # name the first failing node of the channel's batch
            _raise_first_failure(pulse, e_c, fail, count, total)
    return batch


def _contract_values(pulse: Pulse, fields, work=None):
    """Per point of the fields of _newton (roots t sorted by Re t along the
    last axis, ..., |S'|): max |S'|, min Im t, the strip edge (Re t of the
    last root, or of the first when it lies below the strip) and the
    smallest gap between neighbours; shape (4,) + t.shape[:-1].  Given the
    buffers ``work`` of _workspace that hold ``fields``, the gaps are
    written into the seeds and the float scratch, which Newton leaves free;
    else into buffers of their own."""
    t, residual = fields[0], fields[-1]
    first, last = t.real[..., 0], t.real[..., -1]
    flat, n = t.reshape(-1), t.size
    if work is None:
        diff, gap = np.empty(n, complex), np.empty(n)
    else:
        diff, gap = work[0][0].reshape(-1)[:n], work[1][1].reshape(-1)[:n]
    # neighbours in flat order: on contiguous operands numpy needs no
    # buffers of its own.  The last of each row crosses into the next row
    # and is left out
    np.subtract(flat[1:], flat[:-1], out=diff[:-1])
    diff[-1:] = 0.0
    gap = np.abs(diff, out=gap).reshape(t.shape)[..., :-1]
    return np.stack([residual.max(axis=-1), t.imag.min(axis=-1),
                     np.where(first >= -STRIP_SLACK * pulse.tau_p, last, first),
                     gap.min(axis=-1)])


_CONTRACT_MESSAGES = (      # per root-set contract, in the order errors report them
    "saddle residual {:.3e} exceeds {residual_tol}; grid or intensity "
    "outside the validated regime",
    "saddle with Im t = {:.3e} <= 0",
    "saddle at Re t = {:.6g} outside 0 <= Re t <= tau_p = {tau_p:.6g}",
    "saddle pair separated by {:.3e} < {distinct_tol}",
)


def _contract_checks(pulse: Pulse, values):
    """The failure mask of each root-set contract on the _contract_values
    ``values``, in the order of _CONTRACT_MESSAGES.  A NaN root fails every
    check."""
    worst, im, edge, gap = values
    eps = STRIP_SLACK * pulse.tau_p
    return [~(worst <= RESIDUAL_TOL), ~(im > 0),
            ~((edge >= -eps) & (edge <= pulse.tau_p + eps)),
            ~(gap >= DISTINCT_TOL)]


def _node(pz, pperp2, e_bound) -> str:
    return f"at p_z = {pz:.6g}, p_perp^2 = {pperp2:.6g}, e_bound = {e_bound:.8g}"


def _raise_first_failure(pulse, e_bound, failing, counts, total):
    """Raise for the first contract in ``failing`` (by contract: the value,
    p_z, p_perp^2 and roots of its first failing node; |S''| last), with
    counts[contract] of ``total`` grid nodes failing it."""
    kind = min(failing)
    value, pz, pperp2, roots = failing[kind]
    if kind < len(_CONTRACT_MESSAGES):
        message = _CONTRACT_MESSAGES[kind].format(
            value, residual_tol=RESIDUAL_TOL, distinct_tol=DISTINCT_TOL,
            tau_p=pulse.tau_p)
        raise SaddleError(f"{message} {_node(pz, pperp2, e_bound)} "
                          f"({counts[kind]} of {total} points)", roots=roots)
    raise DegenerateSaddleError(
        f"|S''| = {value:.3e} below {DEGENERATE_S2_TOL}: near-coalescing "
        f"saddles {_node(pz, pperp2, e_bound)}", roots=roots)


def find_saddles(pulse: Pulse, e_bound: float, p) -> list[SaddlePoint]:
    """All 2N+2 saddle points for momentum 3-vector p, ordered by Re t."""
    px, py, pz = (float(c) for c in p)
    batch = saddle_batch(pulse, e_bound, np.array([pz]),
                         np.array([px * px + py * py]))
    return [
        SaddlePoint(mu=k + 1, t=complex(batch.t[0, k]),
                    action=complex(batch.action[0, k]),
                    s2=complex(batch.s2[0, k]),
                    prefactor=complex(batch.prefactor[0, k]))
        for k in range(batch.t.shape[1])
    ]
