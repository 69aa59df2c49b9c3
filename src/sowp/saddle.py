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
polish of the exact saddle condition.  Newton stops as soon as the largest
|S'| of the points being polished is at most NEWTON_STOP_TOL, 100x inside
RESIDUAL_TOL, and after NEWTON_ITERATIONS steps at the latest.

The shape of the momentum arrays given to saddle_batch selects how seeds
are found:

* 1-D: independent points, every one seeded by eigenvalues.
* 2-D, shape (n_path, n_lines): n_lines continuation paths along axis 0
  (the density matrix passes the radial lines of its grid this way).  Row
  0 is seeded by eigenvalues in one stacked call; later rows are found by
  predictor-corrector continuation, with roots tracked by identity and
  sorted by Re t only at the end.  An eigensolve costs O(deg^3) per node,
  a Newton step O(deg), so a line costs one eigensolve instead of n_path.

Predictor.  Rows 1 and 2 start Newton from the previous row's roots.  From
row 3 on, each root is extrapolated from the three previous rows by the
quadratic Lagrange polynomial in the path parameter s = sqrt(p_z^2 +
p_perp^2) (|p| on a MomentumGrid), which needs no evaluation of A.  A
column falls back to the previous row's roots when any of those three rows
was re-seeded by eigenvalues (re-seeded roots come in another order) or
when their s values are not distinct (the weights would not be finite).

Corrector.  Rows from 3 on are polished in blocks of ROW_BLOCK_ROWS
consecutive rows per Newton call, all predicted from the same three rows;
how far the predictor reaches depends on rows, not on the degree.  Each
Newton step builds the phasors of its t once, for A and A'.  After each
row or block, every node is checked against the root-set contracts:
residual |S'| <= RESIDUAL_TOL, Im t > 0, 0 <= Re t <= tau_p, and
neighbours in Re t at least DISTINCT_TOL apart.  Since the strip holds
exactly 2N+2 saddles, 2N+2 distinct roots passing these checks are the
complete set.  A node that fails (a root jumped to a neighbour or to a
periodic image) is re-seeded by eigenvalues, and its line continues from
the re-seeded roots.

Mirror rule.  The pulse is odd about its centre, A(tau_p - t) = -A(t), and
real on the real axis, so the saddles at (-p_z, p_perp^2) are
tau_p - conj(t) of those at (p_z, p_perp^2).  When the 2-D inputs are
exact mirror images across their columns (pz[:, ::-1] == -pz and
pperp2[:, ::-1] == pperp2, as on every MomentumGrid: Gauss-Legendre nodes
are symmetric), only the first ceil(n_lines/2) lines are continued, the
p_z = 0 line included when n_lines is odd, and each remaining line is
filled from its partner by that map.  Otherwise every line is continued.

Final pass.  Whether solved or mirrored, every node's v_z, residual, S''
and action are evaluated from its own t, in blocks of at most
FINAL_BLOCK_ELEMS roots written into preallocated outputs; each block
builds its phasors once, for A, A' and the action.  The whole
batch is then validated, together with the |S''| curvature contract; a
failure raises SaddleError naming the node (p_z, p_perp^2) and the channel
energy.  The prefactor and branch follow from S'' and v_z.

The closed-form action uses the elementary antiderivatives of the sinusoid
expansion with the integration constant fixed so that S(0) = 0, summed as
a trigonometric polynomial with ten frequencies that are multiples of
omega/N, from the same phasors as A(t) (see _action_coefficients).
"""

from dataclasses import dataclass

import numpy as np

from sowp.errors import SaddleError, DegenerateSaddleError
from sowp.pulse import Pulse

RESIDUAL_TOL = 1e-10       # max |S'(t)| accepted at a root
DISTINCT_TOL = 1e-6        # min pairwise |t_i - t_j|
DEGENERATE_S2_TOL = 1e-6   # min |S''| before the plain formula is distrusted
NEWTON_ITERATIONS = 12     # cap on Newton steps per polish
NEWTON_STOP_TOL = 1e-12    # Newton stops once max |S'| is at or below this
EIG_CHUNK_ELEMS = 4_000_000  # companion-matrix entries per eigvals call
FINAL_BLOCK_ELEMS = 16_384   # roots per block of the final evaluation pass
ROW_BLOCK_ROWS = 10          # continued rows per Newton call


@dataclass(frozen=True)
class SaddlePoint:
    """One saddle: 1-based index mu in order of increasing Re t."""

    mu: int
    t: complex
    action: complex
    s2: complex          # S''(t_mu)
    prefactor: complex   # 1/sqrt(-i S'') on the principal branch
    branch: int          # sign of Im(p_z + A(t_mu)); +1 or -1


def action(pulse: Pulse, e_bound: float, p, t):
    """Classical action S(t) = (1/2) int_0^t [p+A]^2 dt' - E t (S(0)=0).

    p is the momentum 3-vector (a.u.); t may be complex, scalar or array.
    """
    px, py, pz = (float(c) for c in p)
    return _action_terms(pulse, np.asarray(t, dtype=complex),
                         pz, px * px + py * py, e_bound)


def action_derivative(pulse: Pulse, e_bound: float, p, t):
    """S'(t) = (1/2)[p + A(t)]^2 - E; vanishes at saddle points."""
    px, py, pz = (float(c) for c in p)
    vz = pz + pulse.vector_potential(np.asarray(t, dtype=complex))
    return 0.5 * (vz * vz + px * px + py * py) - e_bound


def _action_coefficients(pulse):
    """The action as a trigonometric polynomial in w t, w = omega / N:

        S(t) = (p^2/2 - E + lin) t + p_z sum_r c[r] (1 - cos((N + r) w t))
               + sum_{d=1,2} b[d] sin(d w t) + sum_{r=-2..2} g[r] sin((2N + r) w t)

    The p_z term integrates A, the rest (1/2) A^2: each ordered pair of
    components (N + r1, N + r2) contributes (1/4) a1 a2 [sin(d w t)/(d w)
    - sin(s w t)/(s w)] with d = r1 - r2 and s = 2N + r1 + r2, or t for
    d = 0.  Returns (lin, c, b, g) with c and g indexed by r + 1 and r + 2.
    """
    n = pulse.n_cycles
    w = pulse.omega / n
    comps = [(a, int(round(om / w)) - n) for a, om in pulse.components]
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


def _action_terms(pulse, t, pz, pperp2, e_bound, phasors=None):
    """Closed-form action (see _action_coefficients) from the phasors
    z = exp(i omega t / N), u = exp(i omega t) and their reciprocals y, v
    (pulse.phasors(t), built here unless given); pz and pperp2 broadcast
    against t.

    Every bracket below vanishes exactly at t = 0, so S(0) = 0 exactly.
    """
    lin, c, b, g = _action_coefficients(pulse)
    u, z, v, y = pulse.phasors(t) if phasors is None else phasors
    z2, y2, u2, v2 = z * z, y * y, u * u, v * v
    s = (0.5 * (pz * pz + pperp2) - e_bound + lin) * t
    # p_z sum_r c[r] (1 - (u z^r + v y^r) / 2)
    s += pz * (c[0] * (1.0 - 0.5 * (u * y + v * z))
               + c[1] * (1.0 - 0.5 * (u + v))
               + c[2] * (1.0 - 0.5 * (u * z + v * y)))
    # sin(k w t) = (z^k - y^k) / 2i; for k = 2N + r, z^k = u^2 z^r
    high_u = g[0] * y2 + g[1] * y + g[2] + g[3] * z + g[4] * z2
    high_v = g[0] * z2 + g[1] * z + g[2] + g[3] * y + g[4] * y2
    s += -0.5j * (b[1] * (z - y) + b[2] * (z2 - y2) + u2 * high_u - v2 * high_v)
    return s


def prefactor_branch(s2):
    """1/sqrt(-i s2) on the principal branch (Re >= 0; Re = 0 ties resolve
    to Im > 0), applied uniformly to every saddle."""
    s2 = complex(s2)
    if s2 == 0:
        raise DegenerateSaddleError("S'' = 0: coalescing saddle points")
    return 1.0 / np.sqrt(-1j * s2)


class SaddleBatch:
    """Saddle data for a batch of momenta, shape pz.shape + (2N+2,) per field.

    Points are (p_z, p_perp^2) pairs; saddles are sorted by Re t along the
    last axis.
    """

    __slots__ = ("t", "vz", "action", "s2", "prefactor", "branch", "residual")

    def __init__(self, t, vz, action_, s2, prefactor, branch, residual):
        self.t = t
        self.vz = vz
        self.action = action_
        self.s2 = s2
        self.prefactor = prefactor
        self.branch = branch
        self.residual = residual


def _polynomial_coefficients(pulse: Pulse):
    """Ascending coefficients of w^(N+1) * A(t(w)), excluding the -c w^(N+1)
    branch term; returns (coef, M) with deg = 2M."""
    n = pulse.n_cycles
    m = n + 1
    coef = np.zeros(2 * m + 1, dtype=complex)
    base = pulse.omega / n
    for a, om in pulse.components:
        k = int(round(om / base))
        coef[m + k] += a / 2j
        coef[m - k] -= a / 2j
    return coef, m


def _eigvals_seeds(pulse: Pulse, e_bound: float, pz, pperp2):
    """Unpolished saddle times from companion-matrix eigenvalues for 1-D
    point arrays; shape (n, 2N+2)."""
    coef, m = _polynomial_coefficients(pulse)
    deg = 2 * m
    lead = coef[deg]
    c = -pz + 1j * np.sqrt(-2.0 * e_bound + pperp2)  # '+' branch constant

    # companion matrix in the np.roots layout: only the w^m column entry
    # depends on c
    base = np.zeros((deg, deg), dtype=complex)
    base[1:, :-1] = np.eye(deg - 1)
    base[0, :] = -coef[::-1][1:] / lead
    const_entry = base[0, deg - 1 - m]

    w = np.empty((pz.size, deg), dtype=complex)
    rows = max(1, EIG_CHUNK_ELEMS // (deg * deg))
    for i0 in range(0, pz.size, rows):
        sl = slice(i0, i0 + rows)
        comp = np.broadcast_to(base, (c[sl].size, deg, deg)).copy()
        comp[:, 0, deg - 1 - m] = const_entry + c[sl] / lead
        w[sl] = np.linalg.eigvals(comp)

    # roots inside the unit circle: '+' branch saddles (Im t > 0);
    # outside: reflect to the '-' branch
    theta = np.angle(w) % (2.0 * np.pi)
    t = (pulse.n_cycles / pulse.omega) * (theta - 1j * np.log(np.abs(w)))
    return np.where(np.abs(w) < 1.0, t, np.conj(t))


def _newton(pulse: Pulse, e_bound: float, t, pz, pperp2):
    """Damped Newton polish of S'(t) = 0 from start values t of shape
    (n, 2N+2), for points pz, pperp2 of shape (n, 1).

    Stops when every |S'| is at most NEWTON_STOP_TOL or after
    NEWTON_ITERATIONS steps; returns (t, |S'(t)|).
    """
    step_cap = 0.25 * np.pi / pulse.omega
    for it in range(NEWTON_ITERATIONS + 1):
        phasors = pulse.phasors(t)
        vz = pz + pulse.vector_potential(t, phasors=phasors)
        f = 0.5 * (vz * vz + pperp2) - e_bound
        residual = np.abs(f)
        if it == NEWTON_ITERATIONS or (residual <= NEWTON_STOP_TOL).all():
            return t, residual
        fp = vz * pulse.vector_potential_derivative(t, phasors=phasors)
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.where(fp != 0, -f / fp, 0.0)
        mag = np.abs(dt)
        scale = np.where(mag > step_cap, step_cap / np.where(mag > 0, mag, 1.0), 1.0)
        t = t + dt * scale


def _solve_points(pulse: Pulse, e_bound: float, pz, pperp2):
    """Eigenvalue-seeded, Newton-polished roots of 1-D independent points,
    shape (n, 2N+2), unsorted."""
    seeds = _eigvals_seeds(pulse, e_bound, pz, pperp2)
    return _newton(pulse, e_bound, seeds, pz[:, None], pperp2[:, None])[0]


def _sorted_by_real(t, *fields):
    """t and every field reordered by increasing Re t along the last axis."""
    order = np.argsort(t.real, axis=-1)
    return tuple(np.take_along_axis(a, order, axis=-1) for a in (t,) + fields)


def _predicted_seeds(ts, s, r, k, reseeded):
    """Newton seeds for rows r..r+k-1 of the continued lines ts, shape
    (k, n_lines, 2N+2): quadratic Lagrange extrapolation in the path
    parameter s from rows r-3..r-1, or row r-1's roots in a column where
    that is not possible (see the module docstring).  Always a new array:
    Newton may return its seeds unchanged, and re-seeded roots are written
    into its result.
    """
    prev = ts[r - 1]
    if r < 3:
        return np.repeat(prev[None], k, axis=0)
    s0, s1, s2 = s[r - 3], s[r - 2], s[r - 1]
    d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
    fallback = (reseeded[r - 3:r].any(axis=0)
                | (d01 == 0) | (d02 == 0) | (d12 == 0))
    x = s[r:r + k]
    # unit denominators where a column falls back keep the weights finite
    w0 = (x - s1) * (x - s2) / np.where(fallback, 1.0, d01 * d02)
    w1 = (x - s0) * (x - s2) / np.where(fallback, 1.0, -d01 * d12)
    w2 = (x - s0) * (x - s1) / np.where(fallback, 1.0, d02 * d12)
    pred = (w0[..., None] * ts[r - 3] + w1[..., None] * ts[r - 2]
            + w2[..., None] * prev)
    return np.where(fallback[:, None], prev, pred)


def _continue_lines(pulse: Pulse, e_bound: float, pz, pperp2):
    """Roots along axis 0 of 2-D point arrays by predictor-corrector
    continuation (see the module docstring); shape pz.shape + (2N+2,),
    unsorted.

    Lines that mirror each other (p_z -> -p_z at equal p_perp^2, column j
    against column n_lines-1-j) are continued once: the saddles at -p_z are
    tau_p - conj(t) of those at p_z.
    """
    n_path, n_lines = pz.shape
    deg = 2 * pulse.n_cycles + 2
    solved = n_lines
    if (np.array_equal(pz[:, ::-1], -pz)
            and np.array_equal(pperp2[:, ::-1], pperp2)):
        solved = (n_lines + 1) // 2
    t = np.empty(pz.shape + (deg,), dtype=complex)
    ts, pz, pperp2 = t[:, :solved], pz[:, :solved], pperp2[:, :solved]
    s = np.sqrt(pz * pz + pperp2)
    reseeded = np.zeros(pz.shape, dtype=bool)
    ts[0] = _solve_points(pulse, e_bound, pz[0], pperp2[0])
    r = 1
    while r < n_path:
        k = 1 if r < 3 else min(ROW_BLOCK_ROWS, n_path - r)
        rows = slice(r, r + k)
        bpz, bpp2 = pz[rows].reshape(-1, 1), pperp2[rows].reshape(-1, 1)
        seeds = _predicted_seeds(ts, s, r, k, reseeded).reshape(-1, deg)
        roots, residual = _newton(pulse, e_bound, seeds, bpz, bpp2)
        checks = _contract_checks(pulse, *_sorted_by_real(roots, residual))
        failed = np.logical_or.reduce([bad for bad, _, _ in checks])
        if failed.any():
            roots[failed] = _solve_points(pulse, e_bound, bpz[failed, 0],
                                          bpp2[failed, 0])
        ts[rows] = roots.reshape(k, solved, deg)
        reseeded[rows] = failed.reshape(k, solved)
        r += k
    t[:, solved:] = pulse.tau_p - np.conj(ts[:, :n_lines - solved][:, ::-1])
    return t


def saddle_batch(pulse: Pulse, e_bound: float, pz, pperp2) -> SaddleBatch:
    """Find all 2N+2 saddles for each (pz, pperp2) point.

    1-D (or scalar) inputs are independent points.  2-D inputs are
    continuation paths along axis 0 (see the module docstring).  Every
    field of the result has shape pz.shape + (2N+2,).  Raises
    SaddleError/DegenerateSaddleError naming the first node that fails the
    residual, count, distinctness, or curvature contracts.
    """
    if e_bound >= 0:
        raise ValueError(f"e_bound must be negative, got {e_bound}")
    if pulse.a0 == 0.0:
        raise SaddleError("no saddle points for a zero-amplitude pulse")
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    pperp2 = np.atleast_1d(np.asarray(pperp2, dtype=float))
    if pz.shape != pperp2.shape:
        raise ValueError("pz and pperp2 must have the same shape")
    if pz.ndim == 1:
        t = _solve_points(pulse, e_bound, pz, pperp2)
    elif pz.ndim == 2:
        t = _continue_lines(pulse, e_bound, pz, pperp2)
    else:
        raise ValueError(f"pz and pperp2 must be 1-D or 2-D, got {pz.ndim}-D")

    (t,) = _sorted_by_real(t)
    shape = t.shape
    deg = shape[-1]
    t = t.reshape(-1, deg)
    pz, pperp2 = pz.reshape(-1, 1), pperp2.reshape(-1, 1)
    vz = np.empty_like(t)
    s2 = np.empty_like(t)
    act = np.empty_like(t)
    residual = np.empty(t.shape)
    # every node is evaluated from its own t, in bounded blocks of rows
    rows = max(1, FINAL_BLOCK_ELEMS // deg)
    for i0 in range(0, t.shape[0], rows):
        sl = slice(i0, i0 + rows)
        tb, pzb, pp2b = t[sl], pz[sl], pperp2[sl]
        phasors = pulse.phasors(tb)
        vz[sl] = pzb + pulse.vector_potential(tb, phasors=phasors)
        residual[sl] = np.abs(0.5 * (vz[sl] * vz[sl] + pp2b) - e_bound)
        s2[sl] = vz[sl] * pulse.vector_potential_derivative(tb, phasors=phasors)
        act[sl] = _action_terms(pulse, tb, pzb, pp2b, e_bound, phasors=phasors)

    _validate_batch(pulse, e_bound, pz.ravel(), pperp2.ravel(), t, residual, s2)

    prefactor = np.multiply(s2, -1j)
    np.sqrt(prefactor, out=prefactor)
    np.divide(1.0, prefactor, out=prefactor)
    branch = np.where(vz.imag > 0, 1, -1)
    return SaddleBatch(*(a.reshape(shape) for a in
                         (t, vz, act, s2, prefactor, branch, residual)))


def _contract_checks(pulse: Pulse, t, residual):
    """The root-set contracts per point, for roots sorted by Re t along the
    last axis and |S'| in the same layout.

    Returns (failure mask, value, message template) per contract; masks and
    values have shape t.shape[:-1].  A NaN root fails every check.
    """
    eps = 1e-9 * pulse.tau_p
    worst = residual.max(axis=-1)
    im = t.imag.min(axis=-1)
    first, last = t.real[..., 0], t.real[..., -1]
    inside_lo = first >= -eps
    gap = np.abs(np.diff(t, axis=-1)).min(axis=-1)
    return (
        (~(worst <= RESIDUAL_TOL), worst,
         f"saddle residual {{:.3e}} exceeds {RESIDUAL_TOL}; grid or intensity "
         f"outside the validated regime"),
        (~(im > 0), im, "saddle with Im t = {:.3e} <= 0"),
        (~(inside_lo & (last <= pulse.tau_p + eps)),
         np.where(inside_lo, last, first),
         f"saddle at Re t = {{:.6g}} outside 0 <= Re t <= tau_p = {pulse.tau_p:.6g}"),
        (~(gap >= DISTINCT_TOL), gap,
         f"saddle pair separated by {{:.3e}} < {DISTINCT_TOL}"),
    )


def _node(pz, pperp2, e_bound) -> str:
    return f"at p_z = {pz:.6g}, p_perp^2 = {pperp2:.6g}, e_bound = {e_bound:.8g}"


def _validate_batch(pulse, e_bound, pz, pperp2, t, residual, s2):
    """Raise for the first point (in flat order) that breaks a contract;
    the error carries that point's sorted roots."""
    for bad, value, message in _contract_checks(pulse, t, residual):
        if bad.any():
            i = int(np.argmax(bad))
            raise SaddleError(
                f"{message.format(value[i])} {_node(pz[i], pperp2[i], e_bound)} "
                f"({int(bad.sum())} of {bad.size} points)", roots=t[i])
    s2min = np.abs(s2).min(axis=-1)
    bad = ~(s2min >= DEGENERATE_S2_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateSaddleError(
            f"|S''| = {s2min[i]:.3e} below {DEGENERATE_S2_TOL}: near-coalescing "
            f"saddles {_node(pz[i], pperp2[i], e_bound)}", roots=t[i])


def find_saddles(pulse: Pulse, e_bound: float, p) -> list[SaddlePoint]:
    """All 2N+2 saddle points for momentum 3-vector p, ordered by Re t."""
    px, py, pz = (float(c) for c in p)
    batch = saddle_batch(pulse, e_bound, np.array([pz]),
                         np.array([px * px + py * py]))
    return [
        SaddlePoint(mu=k + 1, t=complex(batch.t[0, k]),
                    action=complex(batch.action[0, k]),
                    s2=complex(batch.s2[0, k]),
                    prefactor=complex(batch.prefactor[0, k]),
                    branch=int(batch.branch[0, k]))
        for k in range(batch.t.shape[1])
    ]
