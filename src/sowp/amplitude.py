"""Detachment amplitude: angular-momentum coupling and the saddle sum.

For a channel (j, m) and final electron spin projection m_s the amplitude is

    A = -(2 pi)^(3/2) B  sum_mu  sgn_mu C(j m; 1 m_l, 1/2 m_s)
                        Y_{1 m_l}(v_mu / norm_mu) exp(i S(t_mu)) / sqrt(-i S''(t_mu))

with m_l = m - m_s, v_mu = p + A(t_mu) the complex velocity at the saddle,
and sgn_mu = (-1)^(mu-1) the alternating sign for l = 1.  At a saddle
v.v = 2E = -kappa^2, so |v| continues to +/- i kappa; the square-root branch
alternates from saddle to saddle, norm_mu = i kappa (-1)^(mu-1), and the
explicit alternating sign compensates it exactly.  The code uses the
equivalent fixed +i kappa norm with no extra sign; the literal composition
is kept in the tests as an oracle, and the convention is validated there
against direct numerical time integration of the amplitude integral, which
reproduces both the modulus and the positions of the above-threshold
interference peaks.

Spherical harmonics follow the Condon-Shortley convention; final spin
states are orthonormal, so amplitudes are kept resolved per m_s and never
summed coherently over it.

Species differ only in E_j, kappa_j and B, so the saddle sums of several
species at one pulse come from one saddle_batch pass over all their
channels (amplitude_profiles given a sequence).  species_passes decides
where that pays: where it takes fewer row blocks than one pass each.
"""

from math import sqrt, pi

import numpy as np

from sowp.pulse import Pulse, expi
from sowp.saddle import (_action_coefficients, _row_blocks, _solved_lines,
                         saddle_batch)
from sowp.species import Species

Y10_COEF = sqrt(3.0 / (4.0 * pi))
Y11_COEF = sqrt(3.0 / (8.0 * pi))

# (j2, m2, ms2) with doubled half-integer quantum numbers; all channels of
# an np shell: j=3/2 (m = -3/2..3/2) and j=1/2 (m = -1/2, 1/2), each m with
# the m_s values allowed by m_l = m - m_s, |m_l| <= 1
CHANNELS = tuple(
    (j2, m2, ms2)
    for j2 in (3, 1)
    for m2 in range(-j2, j2 + 1, 2)
    for ms2 in (-1, 1)
    if abs(m2 - ms2) <= 2
)

# (j, m) basis order of the 6x6 density matrix
STATES = ((3, -3), (3, -1), (3, 1), (3, 3), (1, -1), (1, 1))

# (j2, |m_l|) of the four saddle sums returned by amplitude_profiles
SUM_ROWS = ((3, 0), (3, 1), (1, 0), (1, 1))


def doubled(x, name) -> int:
    """2x for a half-integer x; ValueError naming ``name`` otherwise."""
    d = round(2 * x)
    if abs(2 * x - d) > 1e-12:
        raise ValueError(f"{name} = {x} is not a half-integer")
    return int(d)


def clebsch_gordan(l, m_l, s, m_s, j, m) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <l m_l, s m_s | j m>
    for s = 1/2 and j = l +/- 1/2.

    Returns 0 when the projection selection rule m = m_l + m_s fails.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l}")
    if doubled(s, "s") != 1:
        raise ValueError(f"only s = 1/2 is supported, got s = {s}")
    l = int(l)
    ml2 = doubled(m_l, "m_l")
    ms2 = doubled(m_s, "m_s")
    j2 = doubled(j, "j")
    m2 = doubled(m, "m")
    if abs(ml2) > 2 * l or abs(ms2) != 1 or abs(m2) > j2:
        return 0.0
    if m2 != ml2 + ms2:
        return 0.0
    two_l1 = 2 * l + 1
    if j2 == 2 * l + 1:          # j = l + 1/2
        if ms2 == 1:
            return sqrt((l + 0.5 + m) / two_l1)
        return sqrt((l + 0.5 - m) / two_l1)
    if j2 == 2 * l - 1:          # j = l - 1/2
        if ms2 == 1:
            return -sqrt((l + 0.5 - m) / two_l1)
        return sqrt((l + 0.5 + m) / two_l1)
    raise ValueError(f"j = {j} is not l +/- 1/2 for l = {l}")


def _channel_coefficients() -> np.ndarray:
    coef = np.zeros((len(CHANNELS), len(SUM_ROWS)))
    y_coef = {0: Y10_COEF, 1: -Y11_COEF, -1: Y11_COEF}
    for c, (j2, m2, ms2) in enumerate(CHANNELS):
        ml = (m2 - ms2) // 2
        coef[c, SUM_ROWS.index((j2, abs(ml)))] = (
            clebsch_gordan(1, ml, 0.5, ms2 / 2, j2 / 2, m2 / 2) * y_coef[ml])
    return coef


# CHANNELS amplitudes = CHANNEL_COEF @ saddle sums: the Clebsch-Gordan
# times the Y_{1 m_l} coefficient, in the column of the channel's (j, |m_l|)
CHANNEL_COEF = _channel_coefficients()


def species_passes(pulse: Pulse, group, pz, pperp):
    """The species of the sequence ``group`` as amplitude_profiles calls on
    the (pz, pperp) momenta: one call for all when that takes fewer Newton
    calls (row blocks of ``saddle_batch``) than one call per species, else
    one each, so also on a tie.  Channels of several species share a block
    only while ROW_BLOCK_ROOTS leaves it enough rows."""
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    if len(group) < 2 or pz.ndim != 2:      # 1-D points: one Newton call per pass
        return [tuple(group)]
    pperp = np.asarray(pperp, dtype=float)
    lines = _solved_lines(pz, pperp * pperp)

    def calls(species):
        return _row_blocks(2 * species, pz.shape[0], lines, 2 * pulse.n_cycles + 2)[1]

    if calls(len(group)) < len(group) * calls(1):
        return [tuple(group)]
    return [(sp,) for sp in group]


def amplitude_profiles(pulse: Pulse, species, pz, pperp,
                       cumulative: bool = False, consume=None):
    """The four saddle sums of SUM_ROWS at phi = 0 of one Species, or of
    each of a sequence of them, on an array of (pz, pperp) momenta: 1-D
    independent points, or 2-D lines whose saddles are continued along
    axis 0 (see ``saddle_batch``).

    A channel sees the saddles only through m_l: Y_10 carries v_z, Y_1+-1
    carries p_perp.  Row (j, 0) is sum_mu core_mu v_z,mu and row (j, 1) is
    p_perp sum_mu core_mu, core = exp(i S) / sqrt(-i S''), each times
    -(2 pi)^(3/2) B / (i kappa_j).  CHANNEL_COEF @ rows gives the CHANNELS
    amplitudes; at azimuth phi each is that times exp(i m_l phi), since the
    saddle set and the action do not depend on phi.

    One ``saddle_batch`` call solves the (E_3/2, E_1/2) of every species,
    in species order, in one pass.  Returns shape (4S,) + pz.shape for S
    species (4 rows per species, in SUM_ROWS order within each), or
    (4S,) + pz.shape + (2N+2,) when ``cumulative`` (partial sums over
    saddles sorted by Re t, for build-up analysis).  Given ``consume``,
    returns None after calling consume(nodes, rows) per evaluated block of
    ``saddle_batch`` and per block of their mirror images on unsolved
    lines: ``nodes`` indexes the flattened nodes (a slice or an index
    array), ``rows`` holds their 4S sums, shape (4S, nodes) or
    (4S, nodes, 2N+2), valid only during the call (``Gram`` adds them in at
    once), so no sums are held per node.
    """
    group = (species,) if isinstance(species, Species) else tuple(species)
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    pperp = np.atleast_1d(np.asarray(pperp, dtype=float))
    pperp2 = pperp * pperp
    saddle_sum = np.cumsum if cumulative else np.sum
    tail = (2 * pulse.n_cycles + 2,) if cumulative else ()
    pperp_ = pperp.reshape((-1,) + (1,) * len(tail))   # by flat node
    n_rows = len(SUM_ROWS) * len(group)
    sums = None
    if consume is None:     # the default consumer fills the sums
        sums = np.empty((n_rows,) + pz.shape + tail, dtype=complex)
        flat = sums.reshape((n_rows, -1) + tail)   # a view

        def consume(nodes, rows):
            flat[:, nodes] = rows

    # p_z -> -p_z maps t to tau_p - conj(t) (sowp.saddle), and s to exp(i S_tau)
    # sigma conj(s): S_tau = ((p^2/2 - E_j) + lin) tau_p, sigma -1 on (j, 1) rows
    n_lines = pz.shape[-1]
    mirrored = pz.ndim == 2 and _solved_lines(pz, pperp2) < n_lines
    shape = (n_rows, -1) + (1,) * len(tail)
    energy = np.array([[sp.e_bound(j2)] for sp in group for j2, _ in SUM_ROWS])
    lin = _action_coefficients(pulse)[0]
    flat_pz, flat_pp2 = pz.ravel(), pperp2.ravel()
    factor = np.array([-((2.0 * pi) ** 1.5) * sp.b_au / (1j * sp.kappa(j2))
                       for sp in group for j2, _ in SUM_ROWS]).reshape(shape)

    blocks = {}     # by name, grown to the largest block: no heap churn per block
    def buffer(name, shape):
        size = int(np.prod(shape))
        if name not in blocks or blocks[name].size < size:
            blocks[name] = np.empty(size, dtype=complex)
        return blocks[name][:size].reshape(shape)

    def stream(nodes, block):
        # the sums of a block of all channels: rows (j, 0) and (j, 1)
        rows = buffer("rows", (n_rows, block.t.shape[1]) + tail)
        # block.t and block.s2, which the sums do not read, are expi's scratch
        core = expi(block.action, out=buffer("core", block.action.shape),
                    scratch=(block.t, block.s2))
        core = np.multiply(core, block.prefactor, out=core)
        saddle_sum(core, axis=-1, out=rows[1::2])
        saddle_sum(np.multiply(core, block.vz, out=core), axis=-1, out=rows[::2])
        rows[1::2] *= pperp_[nodes]
        rows *= factor
        # the sums at -p_z: partial sums there image suffix sums here, total - prefix_{2N-k}
        image = np.conjugate(rows, out=buffer("image", rows.shape))
        if cumulative:
            np.conjugate(rows[..., -2::-1], out=image[..., :-1])
            np.subtract(image[..., -1:], image[..., :-1], out=image[..., :-1])
        pz_b = flat_pz[nodes]
        s_tau = ((0.5 * (pz_b * pz_b + flat_pp2[nodes]) - energy + lin)
                 * pulse.tau_p).reshape(shape)
        np.negative(image[1::2], out=image[1::2])      # sigma, on the (j, 1) rows
        # exp(i S_tau) into the memory of core, t and s2, which nothing reads now
        spare = [a.reshape(-1)[:s_tau.size].reshape(s_tau.shape)
                 for a in (core, block.t, block.s2)]
        np.multiply(expi(s_tau, out=spare[0], scratch=spare[1:]), image, out=image)
        # p_z = 0 is its own image: its edge saddle counts half at each end
        centre = pz_b == 0
        rows[:, centre] = 0.5 * (rows[:, centre] + image[:, centre])
        consume(nodes, rows)
        if mirrored:    # and the images on the unsolved lines
            partner = nodes + n_lines - 1 - 2 * (nodes % n_lines)
            has = partner > nodes   # all but the p_z = 0 line
            consume(partner[has], image if has.all() else image[:, has])
    # (E_3/2, E_1/2) of each species
    saddle_batch(pulse, energy[::2, 0], pz, pperp2, stream)
    return sums
