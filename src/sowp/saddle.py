"""Complex saddle points of the strong-field action.

For a momentum p and channel binding energy E < 0 the saddle condition

    S'(t) = (1/2) [p + A(t)]^2 - E = 0

factorizes as A(t) = -p_z +/- i q with q = sqrt(kappa^2 + p_perp^2).  A(t)
is a finite sum of sinusoids at integer multiples of omega/N, so
w = exp(i omega t / N) turns the '+' branch into a polynomial of degree
2N+2 in w.  Its roots inside the unit circle are saddles with Im t > 0, and
those outside map to the '-' branch saddles by w -> 1/conj(w), that is
t -> conj(t).  So the strip Im t > 0, 0 <= Re t <= tau_p holds exactly 2N+2
saddles, and 2N+2 distinct roots in it are the complete set.

Contracts, in the order errors report them: every root of every node has
|S'| <= RESIDUAL_TOL, Im t > 0 and 0 <= Re t <= tau_p (to STRIP_SLACK
tau_p); neighbours in Re t lie at least DISTINCT_TOL apart; and
|S''| >= DEGENERATE_S2_TOL.  A node of a 2-D input that breaks one of the
first four is re-seeded once by companion-matrix eigenvalues.

Inputs.  1-D momentum arrays are independent points, each seeded by
eigenvalues.  2-D arrays of shape (n_path, n_lines) are n_lines paths
continued along axis 0 (the radial lines of a MomentumGrid), seeded by
eigenvalues at their first node only.  Either way the roots of a node are
sorted by Re t, the one root order of the package.  The README "Algorithm
note" tells how the lines are continued, gated and buffered.

Consumers.  Given consume(nodes, block), saddle_batch hands over each
evaluated block as a SaddleBatch in buffers that the next block reuses, so
a block is valid only during the call, and the consumer may overwrite it.
With it the block lends ``block.spare``: one flat complex region of the
same buffers, with room for 4 C nodes (2N+2) elements for C channels and
the nodes of the pass's largest block, which nothing reads until the call
returns, so the consumer may use it as its own scratch for that long.  No
array of the grid's size is held then.

Mirror rule.  The pulse is odd about its centre, A(tau_p - t) = -A(t), and
real on the real axis, so the saddles at (-p_z, p_perp^2) are
tau_p - conj(t) of those at (p_z, p_perp^2).  When 2-D inputs are exact
mirror images across their columns (pz[:, ::-1] == -pz and
pperp2[:, ::-1] == pperp2, as on every MomentumGrid) and a consumer is
given, only the first ceil(n_lines/2) lines are solved, the p_z = 0 line
included when n_lines is odd, and the consumer maps its results to the
others.  Otherwise every line is solved.

Failures.  Per channel and contract, the failing grid nodes are counted
(given a consumer, a node whose mirror image is not solved counts twice)
and the first in flat order is kept.  From the first failing block on, no
block reaches the consumer.  After the last block, SaddleError (or
DegenerateSaddleError, for |S''|) names, for the first channel given with
a failing node and the first contract above that it breaks, that node
(p_z, p_perp^2), the channel energy, its roots and the count.
"""

import functools
from dataclasses import dataclass

import numpy as np

from sowp.errors import SaddleError, DegenerateSaddleError
from sowp.pulse import SIDEBANDS, Pulse, _halves

RESIDUAL_TOL = 1e-10       # max |S'(t)| accepted at a root
DISTINCT_TOL = 1e-6        # min pairwise |t_i - t_j|
STRIP_SLACK = 1e-9         # Re t may leave [0, tau_p] by this times tau_p
DEGENERATE_S2_TOL = 1e-6   # min |S''| before the plain formula is distrusted
NEWTON_ITERATIONS = 12     # cap on Newton steps per polish
NEWTON_STOP_TOL = 1e-12    # Newton stops once max |S'| is at or below this
EIG_CHUNK_ELEMS = 4_000_000  # companion-matrix entries per eigvals call
ROW_BLOCK_ROWS = 10          # continued rows per Newton call, at most
ROW_BLOCK_ROOTS = 6_080      # and roots per channel, unless a row has more
PREDICTOR_ROWS = 7           # rows the predictor extrapolates from


@dataclass(frozen=True)
class SaddlePoint:
    """One saddle: 1-based index mu in order of increasing Re t."""

    mu: int
    t: complex
    action: complex
    s2: complex          # S''(t_mu)
    prefactor: complex   # 1/sqrt(-i S'') on the principal branch


@functools.lru_cache(maxsize=16)
def _action_coefficients(pulse):
    """The action as a trigonometric polynomial in w t, w = omega / N:

        S(t) = (p^2/2 - E + lin) t + p_z sum_r c[r] (1 - cos((N + r) w t))
               + sum_{d=1,2} b[d] sin(d w t) + sum_{r=-2..2} g[r] sin((2N + r) w t)

    The p_z term integrates A, the rest (1/2) A^2: each ordered pair of
    sidebands (N + r1, N + r2) contributes (1/4) a1 a2 [sin(d w t)/(d w)
    - sin(s w t)/(s w)] with d = r1 - r2 and s = 2N + r1 + r2, or t for
    d = 0.  Returns (lin, c, b, g) with c and g indexed by r + 1 and r + 2,
    as tuples: each pulse's are built once, and shared by its callers.
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
    return lin, tuple(c), tuple(b), tuple(g)


def _action_terms(pulse, t, pz, pperp2, e_bound, phasors=None, out=None):
    """Closed-form action (see _action_coefficients) from the phasors
    z = exp(i omega t / N), u = exp(i omega t) and their reciprocals y, v
    (pulse.phasors(t), built here unless given); t is real or complex, and
    pz, pperp2 and e_bound broadcast against t.  For complex t, ``out`` may
    give four complex arrays of t's shape: the action is written into the
    first, and the others are overwritten.

    Every bracket below vanishes exactly at t = 0, so S(0) = 0 exactly.
    """
    lin, c, b, g = _action_coefficients(pulse)
    u, z, v, y = pulse.phasors(t) if phasors is None else phasors
    res, w_out, h_out, q_out = (None,) * 4 if out is None else out
    mul = np.multiply
    s = mul(0.5 * (pz * pz + pperp2) - e_bound + lin, t, out=res)

    def cosines(cr, x, x_inv, buf):     # cr (1 - (x + x_inv) / 2)
        half = mul(0.5, np.add(x, x_inv, out=buf), out=buf)
        return mul(cr, np.subtract(1.0, half, out=buf), out=buf)

    # p_z sum_r c[r] (1 - (u z^r + v y^r) / 2); into res, not in place, so
    # that s becomes complex when t is real
    w = cosines(c[0], mul(u, y, out=w_out), mul(v, z, out=h_out), w_out)
    w += cosines(c[1], u, v, h_out)
    w += cosines(c[2], mul(u, z, out=h_out), mul(v, y, out=q_out), h_out)
    s = np.add(s, mul(pz, w, out=w_out), out=res)
    # sin(k w t) = (z^k - y^k) / 2i; for k = 2N + r, z^k = u^2 z^r
    w = mul(b[1], np.subtract(z, y, out=w_out), out=w_out)
    w += mul(b[2], np.subtract(mul(z, z, out=h_out), mul(y, y, out=q_out),
                               out=h_out), out=h_out)
    for up, down, carrier, combine in ((z, y, u, np.add), (y, z, v, np.subtract)):
        # carrier^2 (g[0] down^2 + g[1] down + g[2] + g[3] up + g[4] up^2)
        h = mul(g[0], mul(down, down, out=h_out), out=h_out)
        h += mul(g[1], down, out=q_out)
        h += g[2]
        h += mul(g[3], up, out=q_out)
        h += mul(g[4], mul(up, up, out=q_out), out=q_out)
        w = combine(w, mul(mul(carrier, carrier, out=q_out), h, out=h_out), out=w_out)
    s += mul(-0.5j, w, out=w_out)
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


class _LentBatch(SaddleBatch):
    """A SaddleBatch handed to a consumer, with ``spare``: one flat complex
    workspace region (the u, z, 1/u and 1/z slots) that the consumer may
    overwrite during its call."""

    __slots__ = ("spare",)


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
    """Block buffers for up to n points, each of shape (n, deg): complex t,
    u, z, 1/u, 1/z, v_z, S', step and two scratch (the action, S'' and the
    prefactor reuse them: see saddle_batch), and float |S'| and scratch.
    Callers take views of their first rows (_views)."""
    return np.empty((10, n, deg), dtype=complex), np.empty((2, n, deg))


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
    buffers ``work`` of _workspace, polishing in their t slot (t is copied
    there unless it is that slot).

    A channel (t's leading axis, if any) stops once its |S'| are all at
    most NEWTON_STOP_TOL, every one after NEWTON_ITERATIONS steps.  Returns
    the fields of the last evaluation, (t, u, z, 1/u, 1/z, v_z, |S'|), each
    sorted by Re t (in work's buffers unless sorting moved them).
    """
    (tk, *fields, d, x1, x2), (residual, mag) = _views(work, t.shape)
    step_cap = 0.25 * np.pi / pulse.omega
    if not np.shares_memory(t, tk):
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
    (|x|^2 a normal double), from real ufuncs (the README algorithm note
    says why), written into ``out`` (x itself may be ``out``), with the two
    complex arrays ``scratch`` of x's shape overwritten.  With r = |x| and
    rho = sqrt((r + |Re x|)/2), sqrt(x) is rho + i Im x / (2 rho) where
    Re x >= 0, else |Im x| / (2 rho) + i copysign(rho, Im x), free of
    cancellation, and 1/sqrt(x) = conj(sqrt(x)) / r.  Within 4e-16 relative
    of a 40-digit mpmath oracle for 1e-6 <= |x| <= 1e6 (TestRsqrt;
    1/np.sqrt: 3.3e-16)."""
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
    s coincide or a root would move by more than ``bound``; written into
    the first of ``out``, a complex array of shape (..., k, n_lines, 2N+2),
    a complex and a float one of that shape for scratch.
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
    if not moved.max(initial=0.0) <= bound:    # the columns only where a root moved too far
        fallback = fallback | (moved > bound).any(axis=(-3, -1))
    if fallback.any():
        np.copyto(pred, last, where=fallback[..., None, :, None])
    return pred


def _continue_lines(pulse: Pulse, e_bound, pz, pperp2, block, work):
    """Continue the roots along every line of 2-D points (as the README
    algorithm note tells) for the energies e_bound, shape (1,) or (C, 1)
    for C channels, ``block`` rows per Newton call from row 3 on, yielding
    (nodes, points, fields, checks) per row block: the slice of its nodes
    in the flattened pz, their (p_z, p_perp^2), each of shape (nodes, 1),
    the fields of _newton (in the buffers ``work`` of _workspace, which the
    next block reuses) and their _checked.  Only the rows the predictor
    reads are kept."""
    n_path, n_lines = pz.shape
    deg = 2 * pulse.n_cycles + 2
    ch = e_bound.shape[:-1]     # () or (C,): the leading axis of every block

    def path(rows):             # the path parameter s = |p| of rows
        return np.sqrt(pz[rows] * pz[rows] + pperp2[rows])

    window = np.empty(ch + (PREDICTOR_ROWS, n_lines, deg), dtype=complex)
    kept, r = 0, 0      # window[..., :kept, :, :] holds rows r - kept .. r - 1
    while r < n_path:
        k = 1 if r < 3 else min(block, n_path - r)
        rows = slice(r, r + k)
        bpz, bpp2 = (a[rows].reshape(-1, 1) for a in (pz, pperp2))
        # the seeds, in Newton's t slot, and two scratch arrays, free until
        # Newton starts
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
        checks = _checked(pulse, fields, work)
        if checks is not None:  # re-seed, in buffers of their own, each channel
            # alone: its Newton stop reads no other channel's roots
            failed = np.logical_or.reduce(checks[1])
            for c in np.ndindex(ch):
                if failed[c].any():
                    again = _solve_points(pulse, e_bound[c], bpz[failed[c], 0],
                                          bpp2[failed[c], 0])
                    for field, new in zip(fields, again):
                        field[c][failed[c]] = new
            checks = _checked(pulse, fields, work)     # the block gated again
        # the last rows: those kept still read, moved to the front, then the
        # block's; before the yield, as a consumer may overwrite the block's t
        held = min(kept + k, PREDICTOR_ROWS)
        old = max(0, held - k)
        if kept > old:  # row by row per channel: overlapping rows would be
            for c in np.ndindex(ch):    # copied through a temporary
                for i in range(old):
                    window[c + (i,)] = window[c + (kept - old + i,)]
        window[..., old:held, :, :] = fields[0].reshape(
            ch + (k, n_lines, deg))[..., k - (held - old):, :, :]
        yield slice(r * n_lines, (r + k) * n_lines), (bpz, bpp2), fields, checks
        kept, r = held, r + k


def _solved_lines(pz, pperp2) -> int:
    """The leading lines of 2-D inputs that are solved given a consumer:
    ceil(n_lines/2) of exact mirror images (the mirror rule), else
    all n_lines."""
    mirror = (np.array_equal(pz[:, ::-1], -pz)
              and np.array_equal(pperp2[:, ::-1], pperp2))
    return (pz.shape[1] + 1) // 2 if mirror else pz.shape[1]


def _row_block(lines: int, deg: int) -> int:
    """The rows per Newton call of a pass over ``lines`` solved lines of
    degree ``deg``, after rows 0, 1 and 2 alone: ROW_BLOCK_ROWS, or as
    many as hold ROW_BLOCK_ROOTS roots per channel, but at least one."""
    return max(1, min(ROW_BLOCK_ROWS, ROW_BLOCK_ROOTS // max(1, lines * deg)))


def _block_nodes(shape, solved, deg: int) -> int:
    """The nodes of the largest block of a pass of degree ``deg`` over
    points of ``shape``: all of 1-D ones, or of 2-D ones the ``solved``
    leading lines of _row_block rows."""
    if len(shape) == 1:
        return shape[0]
    return min(_row_block(solved, deg), shape[0]) * solved


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
    ``block`` is their SaddleBatch, valid only during the call, with
    ``block.spare``, one workspace region that the consumer may overwrite
    during the call (the module docstring gives its size).  Raises
    SaddleError/DegenerateSaddleError as the module docstring says.
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
        block = _row_block(solved, deg)
    elif pz.ndim != 1:
        raise ValueError(f"pz and pperp2 must be 1-D or 2-D, got {pz.ndim}-D")
    # sized for the largest block
    work = _workspace(e.size * _block_nodes(pz.shape, solved, deg), deg)

    batch = None
    if consume is None:     # the SaddleBatch consumer copies every block in
        shape = energy.shape + pz.shape + (deg,)
        batch = SaddleBatch(*(np.empty(shape, dtype=complex) for _ in range(5)),
                            np.empty(shape))

        def consume(nodes, block):
            for name in SaddleBatch.__slots__:
                getattr(batch, name).reshape(energy.shape + (-1, deg))[
                    ..., nodes, :] = getattr(block, name)

    if pz.ndim == 1:    # one block of all points
        fields = _solve_points(pulse, e, pz, pperp2, work)
        blocks = [(slice(None), (pz[:, None], pperp2[:, None]), fields,
                   _checked(pulse, fields, work))]
    else:
        blocks = _continue_lines(pulse, e, pz, pperp2, block, work)
    # per (channel, contract): the number of failing grid nodes, and the
    # value, p_z, p_perp^2 and roots of the first
    counts = np.zeros((e.size, len(_CONTRACT_MESSAGES) + 1), dtype=int)
    first = {}
    # the four phasor slots (u, z, 1/u, 1/z), idle from the prefactor to the
    # next block: lent to the consumer
    spare = work[0][1:5].reshape(-1)
    for nodes, points, fields, checks in blocks:
        # evaluate the block, and hand it to the consumer unless it or an
        # earlier block broke a contract
        tb, *phasors, vz, residual = fields
        # the action, then S'', into the slots Newton leaves free (S', step
        # and scratch); the prefactor into the first scratch slot, with the
        # u and z slots, free once S'' is built, for its scratch: by slot,
        # as at N = 1 the phasor u is z's slot.  So the phasor slots are
        # free from the prefactor on, and the block holds t, v_z, the
        # action, S'' and the prefactor in the others; _node_checks, on a
        # failing block, takes the last scratch slot, idle once S'' is built
        (_, p1, p2, _, _, _, act, s2, x1, x2), (_, mag) = _views(work, tb.shape)
        ready = checks is None and not first
        if ready:
            act = _action_terms(pulse, tb, *points, e[..., None], phasors=phasors,
                                out=(act, s2, x1, x2))
        s2 = np.multiply(vz, pulse.vector_potential_derivative(
            tb, phasors=phasors, out=(s2, x1, x2)), out=s2)
        s2_abs = np.abs(s2, out=mag)
        # the block's flat nodes in the grid, and the grid nodes each
        # stands for: itself, and its unsolved mirror image
        index, copies = nodes, 1
        if solved != n_lines:
            row, line = np.divmod(np.arange(nodes.start, nodes.stop), solved)
            index, copies = row * n_lines + line, 1 + (line < n_lines - solved)
        if checks is not None or not s2_abs.min(initial=np.inf) >= DEGENERATE_S2_TOL:
            # a block that breaks a contract (``checks``, or |S''| over the
            # whole block): its values and failures by (channel, contract, node)
            low = s2_abs.min(axis=-1)   # before _node_checks reuses mag
            values, bad = checks or _node_checks(pulse, fields, work)
            shape = (e.size, -1, tb.shape[-2])
            value = np.stack([*values, low], axis=-2).reshape(shape)
            fails = np.stack([*bad, ~(low >= DEGENERATE_S2_TOL)], axis=-2).reshape(shape)
            counts += (fails * copies).sum(axis=-1)
            at, roots = fails.argmax(axis=-1), tb.reshape(e.size, -1, deg)
            for c, kind in zip(*np.nonzero(fails.any(axis=-1))):
                i = at[c, kind]
                first.setdefault((c, kind), (value[c, kind, i], points[0][i, 0],
                                             points[1][i, 0], roots[c, i].copy()))
        if ready and not first:
            prefactor = _rsqrt(np.multiply(-1j, s2, out=x1), x1, (p1, p2))
            lent = _LentBatch(tb, vz, act, s2, prefactor, residual)
            lent.spare = spare
            consume(index, lent)
    if first:   # name the first failing channel's node of its first contract
        c, kind = min(first)
        value, p, q, roots = first[c, kind]
        node = f"at p_z = {p:.6g}, p_perp^2 = {q:.6g}, e_bound = {e.ravel()[c]:.8g}"
        if kind < len(_CONTRACT_MESSAGES):
            message = _CONTRACT_MESSAGES[kind].format(
                value, residual_tol=RESIDUAL_TOL, distinct_tol=DISTINCT_TOL,
                tau_p=pulse.tau_p)
            raise SaddleError(f"{message} {node} ({counts[c, kind]} of {total} points)",
                              roots=roots)
        raise DegenerateSaddleError(
            f"|S''| = {value:.3e} below {DEGENERATE_S2_TOL}: near-coalescing "
            f"saddles {node}", roots=roots)
    return batch


def _gaps(t, work):
    """|t_{k+1} - t_k| of neighbouring roots t, sorted by Re t along the
    last axis, and +inf in the last column, written into the last complex
    and the float scratch slots of the buffers ``work`` of _workspace of
    t's block, which Newton leaves free and the block loop of saddle_batch
    does not hold."""
    flat, n = t.reshape(-1), t.size
    diff, gap = work[0][-1].reshape(-1)[:n], work[1][1].reshape(-1)[:n]
    # neighbours in flat order: on contiguous operands numpy needs no
    # buffers of its own.  The last of each row crosses into the next row
    # and is left out
    np.subtract(flat[1:], flat[:-1], out=diff[:-1])
    diff[-1:] = 0.0
    gap = np.abs(diff, out=gap).reshape(t.shape)
    gap[..., -1] = np.inf
    return gap


def _checked(pulse: Pulse, fields, work):
    """None when every point of the fields of _newton (roots t sorted by
    Re t along the last axis, ..., |S'|) passes the root-set contracts by
    the block's extremes: max |S'|, min Im t, the first and last Re t and
    the smallest gap (a NaN fails); else their _node_checks."""
    t, residual = fields[0], fields[-1]
    eps = STRIP_SLACK * pulse.tau_p
    if (residual.max(initial=0.0) <= RESIDUAL_TOL and t.imag.min(initial=np.inf) > 0
            and t.real[..., 0].min(initial=np.inf) >= -eps
            and t.real[..., -1].max(initial=-np.inf) <= pulse.tau_p + eps
            and _gaps(t, work).min(initial=np.inf) >= DISTINCT_TOL):
        return None
    return _node_checks(pulse, fields, work)


def _node_checks(pulse: Pulse, fields, work):
    """Per point of the fields of _newton (roots t sorted by Re t along the
    last axis, ..., |S'|), the one per-node contract path: the values max
    |S'|, min Im t, the strip edge (Re t of the last root, or of the first
    when it lies below the strip) and the smallest gap between neighbours
    (_gaps, into ``work``), shape (4,) + t.shape[:-1], and the failure mask
    of each root-set contract on them, in the order of _CONTRACT_MESSAGES.
    A NaN root fails every check."""
    t, residual = fields[0], fields[-1]
    eps = STRIP_SLACK * pulse.tau_p
    first, last = t.real[..., 0], t.real[..., -1]
    values = np.stack([residual.max(axis=-1), t.imag.min(axis=-1),
                       np.where(first >= -eps, last, first),
                       _gaps(t, work).min(axis=-1)])
    worst, im, edge, gap = values
    return values, [~(worst <= RESIDUAL_TOL), ~(im > 0),
                    ~((edge >= -eps) & (edge <= pulse.tau_p + eps)),
                    ~(gap >= DISTINCT_TOL)]


_CONTRACT_MESSAGES = (      # per root-set contract, in the order errors report them
    "saddle residual {:.3e} exceeds {residual_tol}; grid or intensity "
    "outside the validated regime",
    "saddle with Im t = {:.3e} <= 0",
    "saddle at Re t = {:.6g} outside 0 <= Re t <= tau_p = {tau_p:.6g}",
    "saddle pair separated by {:.3e} < {distinct_tol}",
)


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
