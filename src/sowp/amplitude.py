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
is kept in the tests as an oracle.  The tests check the sign convention
against direct numerical time integration of the amplitude: both give the
same positions of the above-threshold interference peaks.  The modulus is
offset from the integral (README "Notes on conventions").

Spherical harmonics follow the Condon-Shortley convention; final spin
states are orthonormal, so amplitudes are kept resolved per m_s and never
summed coherently over it.
"""

import contextlib
import os
from math import prod, sqrt, pi

import numpy as np

from sowp.pulse import Pulse, expi
from sowp.saddle import _action_coefficients, saddle_batch
from sowp.species import Species
from sowp.workers import Forks, forkable

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


def clebsch_gordan(j2, m2, ms2) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <1 m_l, 1/2 m_s | j m> of
    the np shell in doubled labels j2 = 2j (3 or 1), m2 = 2m and
    ms2 = 2m_s (+-1), with m_l = (m2 - ms2)/2; 0 where |m_l| > 1 or |m| > j.
    """
    if abs(m2 - ms2) > 2 or abs(m2) > j2:
        return 0.0
    m = m2 / 2
    if j2 == 3:
        return sqrt((1.5 + m) / 3) if ms2 == 1 else sqrt((1.5 - m) / 3)
    return -sqrt((1.5 - m) / 3) if ms2 == 1 else sqrt((1.5 + m) / 3)


def _channel_coefficients() -> np.ndarray:
    coef = np.zeros((len(CHANNELS), len(SUM_ROWS)))
    y_coef = {0: Y10_COEF, 1: -Y11_COEF, -1: Y11_COEF}
    for c, (j2, m2, ms2) in enumerate(CHANNELS):
        ml = (m2 - ms2) // 2
        coef[c, SUM_ROWS.index((j2, abs(ml)))] = (
            clebsch_gordan(j2, m2, ms2) * y_coef[ml])
    return coef


# CHANNELS amplitudes = CHANNEL_COEF @ saddle sums: the Clebsch-Gordan
# times the Y_{1 m_l} coefficient, in the column of the channel's (j, |m_l|)
CHANNEL_COEF = _channel_coefficients()


def amplitude_profiles(pulse: Pulse, species, pz, pperp,
                       cumulative: bool = False, consume=None, threads: int = 1):
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

    One ``saddle_batch`` pass solves the (E_3/2, E_1/2) of every species,
    in species order.  Returns shape (4S,) + pz.shape for S species (4
    rows per species, in SUM_ROWS order within each), or
    (4S,) + pz.shape + (2N+2,) when ``cumulative`` (partial sums over
    saddles sorted by Re t, for build-up analysis).  Given ``consume``,
    returns None after calling consume(nodes, rows) per evaluated block of
    ``saddle_batch`` and per block of their mirror images at the unsolved
    nodes that the block names (``block.images``): ``nodes`` indexes the
    flattened nodes (a slice or an index array), ``rows`` holds their 4S
    sums, shape (4S, nodes) or (4S, nodes, 2N+2), valid only during the
    call (``Gram`` adds them in at once), so no sums are held per node.
    The sums lie in the workspace region that each ``saddle_batch`` block
    lends (``block.spare``) until the next block, and their mirror images
    are formed in place of them once the consumer has returned, so the
    stream holds no array of a block's size, and the consumer must leave
    ``rows`` unchanged.  This function knows nothing of the grid's layout:
    it applies the reflection identity at the nodes the block names.

    With ``threads`` >= 2 (where os.fork exists: ``sowp.workers.forkable``,
    which raises ValueError unless threads >= 1) the pass is split: one
    worker forked here (``sowp.workers.Forks``) solves the second half of
    the channels, this process the first.  Per block, the worker builds its
    rows in the region that its own block lends and writes them to one
    pipe (raised to 2**20 bytes where Linux allows it), which this process
    reads into the region that its block lends, next to its own rows; it
    forms every image and alone calls ``consume``.  The worker closes the
    pipe when its pass ends, so a block that the pipe ends before is one
    that the worker's pass does not reach.  A channel's
    saddles and sums do not depend on the channels that share its pass, so
    the bits are those of one process, and so are the errors: those of this
    process's channels come first, and no block from the worker's first
    failing one on reaches the consumer.  The worker's outcome, None or its exception,
    and its warnings come back through ``Forks.results``; RuntimeError,
    naming the worker's channel energies, if it ends without its outcome.
    """
    group = (species,) if isinstance(species, Species) else tuple(species)
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    pperp = np.atleast_1d(np.asarray(pperp, dtype=float))
    pperp2 = pperp * pperp
    deg = 2 * pulse.n_cycles + 2
    tail = (deg,) if cumulative else ()
    # the saddle sums as one BLAS product per block: with ones, or for the
    # partial sums with the upper triangle of ones (cumsum's bits); numpy's
    # sum along a short axis is several times slower
    summing = np.ones((deg, deg) if cumulative else deg, dtype=complex)
    if cumulative:
        summing = np.triu(summing)
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
    ones = (1,) * len(tail)
    energy = np.array([sp.e_bound(j2) for sp in group for j2, _ in SUM_ROWS])
    lin = _action_coefficients(pulse)[0]
    flat_pz, flat_pp2 = pz.ravel(), pperp2.ravel()
    factor = np.array([-((2.0 * pi) ** 1.5) * sp.b_au / (1j * sp.kappa(j2))
                       for sp in group for j2, _ in SUM_ROWS])

    def fill(nodes, block, part, rows):
        # the sums of the block's channels, the rows ``part`` of all, into
        # ``rows``; exp(i S) over the action, with block.t and block.s2 as
        # expi's scratch: the sums read none of them again
        core = expi(block.action, out=block.action, scratch=(block.t, block.s2))
        core = np.multiply(core, block.prefactor, out=core)
        np.matmul(core, summing, out=rows[1::2])
        np.matmul(np.multiply(core, block.vz, out=core), summing, out=rows[::2])
        # p_perp spread over a row, in the memory of core, which nothing
        # reads now: numpy buffers a block's worth to broadcast a column,
        # as it would to broadcast the factors, which scale row by row
        spread = core.reshape(-1)[:rows[0].size].reshape(rows.shape[1:])
        np.copyto(spread, pperp_[nodes])
        rows[1::2] *= spread
        for row, f in zip(rows, factor[part]):
            row *= f

    def mirror(image, phase, memory):
        # the sums at -p_z of the sums ``image``, in place, for their
        # exp(i S_tau) ``phase``, with a column in the flat ``memory``: partial
        # sums there image suffix sums here, total - prefix_{2N-k}, so the
        # columns k and 2N - k swap, through the column
        if cumulative:
            column = memory[:image[..., 0].size].reshape(image.shape[:2])
            total = np.conjugate(image[..., -1], out=image[..., -1])
            for k in range(deg // 2):
                other = deg - 2 - k
                np.conjugate(image[..., k], out=column)
                np.conjugate(image[..., other], out=image[..., k])
                np.subtract(total, image[..., k], out=image[..., k])
                np.subtract(total, column, out=image[..., other])
        else:
            np.conjugate(image, out=image)
        np.negative(image[1::2], out=image[1::2])      # sigma, on the (j, 1) rows
        return np.multiply(phase, image, out=image)

    def hand(nodes, block, rows):
        # the 4S sums ``rows`` of the block's nodes to the consumer, then
        # their images at the unsolved nodes the block names, formed in
        # place of them
        pz_b = flat_pz[nodes]
        centre = pz_b == 0
        if block.images is not None or centre.any():
            # S_tau, row by row as numpy buffers a broadcast; exp(i S_tau)
            # into the memory of the block's action, with its t and s2 as
            # scratch, and v_z's for a column: the sums read none of them
            half_p2, s_tau = 0.5 * (pz_b * pz_b + flat_pp2[nodes]), np.empty(rows.shape[:2])
            for row, e in zip(s_tau, energy):
                np.subtract(half_p2, e, out=row)
            s_tau += lin
            s_tau *= pulse.tau_p
            s_tau = s_tau.reshape(rows.shape[:2] + ones)
            phase, *scratch = [a.reshape(-1)[:s_tau.size].reshape(s_tau.shape)
                               for a in (block.action, block.t, block.s2)]
            phase = expi(s_tau, out=phase, scratch=scratch)
            memory = block.vz.reshape(-1)
        # p_z = 0 is its own image: its edge saddle counts half at each end
        if centre.any():
            rows[:, centre] = 0.5 * (rows[:, centre]
                                     + mirror(rows[:, centre], phase[:, centre], memory))
        consume(nodes, rows)
        if block.images is not None:
            images, has = block.images
            image = mirror(rows, phase, memory)
            consume(images, image if has.all() else image[:, has])

    def rows_in(region, n):     # the sums of a block of n nodes, at a region's start
        dims = (n_rows, n) + tail
        return region[:prod(dims)].reshape(dims)

    channels = energy[::2]      # (E_3/2, E_1/2) of each species
    half = len(channels) // 2 if forkable(threads) >= 2 else len(channels)
    # the rows of this process's channels, and of the worker's (none without
    # one, and then no pipe is read)
    mine, theirs = slice(0, 2 * half), slice(2 * half, n_rows)
    reaches = True      # the worker's pass reaches this block

    def stream(nodes, block):
        nonlocal reaches
        if reaches:
            rows = rows_in(block.spare, block.t.shape[1])
            fill(nodes, block, mine, rows[mine])
            # the worker's rows of the block, read into place: the end of the
            # pipe before a whole block is the end of the worker's pass
            rest = rows[theirs]
            reaches = not rest.size or pipe.readinto(rest) == rest.nbytes
            if reaches:
                hand(nodes, block, rows)

    if half == len(channels):
        saddle_batch(pulse, channels, pz, pperp2, stream)
        return sums

    import fcntl    # here, as only the split needs it: an extension module to load
    read, write = os.pipe()
    pipe = open(read, "rb")
    # room for blocks of the worker's rows where Linux lets the pipe grow:
    # the 2**20 bytes that an unprivileged process may set by default
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)

    def work():     # the worker's pass: its outcome, None or its exception
        pipe.close()    # so that a write to a caller that is gone raises

        def put(nodes, block):
            rows = rows_in(block.spare, block.t.shape[1])[theirs]
            fill(nodes, block, theirs, rows)
            data = rows.reshape(-1).view(np.uint8)
            while data.size:
                data = data[os.write(write, data):]

        try:
            saddle_batch(pulse, channels[half:], pz, pperp2, put)
        except Exception as exc:
            return exc
        finally:    # before the outcome is sent, which may wait for this process
            os.close(write)

    try:
        with Forks() as forks:
            try:
                forks.start(work, f"the worker of e_bound = {channels[half:].tolist()} "
                                  f"ended with status {{status}} without its outcome")
            finally:    # so that a worker that ends leaves no writer
                os.close(write)
            saddle_batch(pulse, channels[:half], pz, pperp2, stream)
            error, = forks.results()
    finally:
        pipe.close()
    if error is not None:
        raise error
    return sums
