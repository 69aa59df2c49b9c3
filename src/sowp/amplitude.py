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

import os
import pickle
from math import prod, sqrt, pi

import numpy as np

from sowp.pulse import Pulse, expi
from sowp.saddle import _action_coefficients, _row_block, _solved_lines, saddle_batch
from sowp.species import Species
from sowp.workers import Forks, recorded, show_again

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
    ``saddle_batch`` and per block of their mirror images on unsolved
    lines: ``nodes`` indexes the flattened nodes (a slice or an index
    array), ``rows`` holds their 4S sums, shape (4S, nodes) or
    (4S, nodes, 2N+2), valid only during the call (``Gram`` adds them in at
    once), so no sums are held per node.  The sums and their mirror images
    lie in the two workspace regions that each ``saddle_batch`` block lends
    (``block.spare``) until the next block, so the stream holds no
    array of a block's size, and the consumer may overwrite ``rows``.

    With ``threads`` >= 2 (where os.fork exists) the pass is split: one
    worker forked here (``sowp.workers.Forks``) solves the second half of
    the channels, this process the first, and the sums of a block lie in
    one shared slot of a block's size, which each process fills with its
    own rows; only this process calls ``consume``.  A channel's saddles and
    sums do not depend on the channels that share its pass, so the bits
    are those of one process, and so are the errors: those of this
    process's channels come first, and no block from the worker's first
    failing one on reaches the consumer.  RuntimeError, naming the
    worker's channel energies, if it ends without its outcome.
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
    n_lines = pz.shape[-1]
    solved = _solved_lines(pz, pperp2) if pz.ndim == 2 else n_lines
    mirrored = solved < n_lines
    ones = (1,) * len(tail)
    energy = np.array([[sp.e_bound(j2)] for sp in group for j2, _ in SUM_ROWS])
    lin = _action_coefficients(pulse)[0]
    flat_pz, flat_pp2 = pz.ravel(), pperp2.ravel()
    factor = np.array([-((2.0 * pi) ** 1.5) * sp.b_au / (1j * sp.kappa(j2))
                       for sp in group for j2, _ in SUM_ROWS]).reshape((-1, 1) + ones)

    def fill(nodes, block, part, rows, image):
        # the sums of the block's channels, the rows ``part`` of all, and
        # their images at -p_z, into ``rows`` and ``image``
        # exp(i S) over the action, with block.t and block.s2 as expi's
        # scratch: the sums read none of them again
        core = expi(block.action, out=block.action, scratch=(block.t, block.s2))
        core = np.multiply(core, block.prefactor, out=core)
        np.matmul(core, summing, out=rows[1::2])
        np.matmul(np.multiply(core, block.vz, out=core), summing, out=rows[::2])
        # p_perp spread over a row, in the memory of core, which nothing
        # reads now: numpy buffers a block's worth to broadcast a column
        spread = core.reshape(-1)[:rows[0].size].reshape(rows.shape[1:])
        np.copyto(spread, pperp_[nodes])
        rows[1::2] *= spread
        rows *= factor[part]
        # the sums at -p_z: partial sums there image suffix sums here,
        # total - prefix_{2N-k}
        image = np.conjugate(rows, out=image)
        if cumulative:  # by column: over the whole block numpy buffers a block's worth
            for k in range(deg - 1):
                np.conjugate(rows[..., deg - 2 - k], out=image[..., k])
                np.subtract(image[..., -1], image[..., k], out=image[..., k])
        pz_b = flat_pz[nodes]
        s_tau = ((0.5 * (pz_b * pz_b + flat_pp2[nodes]) - energy[part] + lin)
                 * pulse.tau_p).reshape(rows.shape[:2] + ones)
        np.negative(image[1::2], out=image[1::2])      # sigma, on the (j, 1) rows
        # exp(i S_tau) into the memory of core, t and s2, which nothing reads now
        spare = [a.reshape(-1)[:s_tau.size].reshape(s_tau.shape)
                 for a in (core, block.t, block.s2)]
        np.multiply(expi(s_tau, out=spare[0], scratch=spare[1:]), image, out=image)
        # p_z = 0 is its own image: its edge saddle counts half at each end
        centre = pz_b == 0
        rows[:, centre] = 0.5 * (rows[:, centre] + image[:, centre])

    def hand(nodes, rows, image):
        consume(nodes, rows)
        if mirrored:    # and the images on the unsolved lines
            partner = nodes + n_lines - 1 - 2 * (nodes % n_lines)
            has = partner > nodes   # all but the p_z = 0 line
            consume(partner[has], image if has.all() else image[:, has])

    def in_regions(regions, n):     # (rows, image) of a block of n nodes
        dims = (n_rows, n) + tail
        return [a[:prod(dims)].reshape(dims) for a in regions]

    channels = energy[::2, 0]   # (E_3/2, E_1/2) of each species
    if threads < 2 or len(channels) < 2 or not hasattr(os, "fork"):
        def stream(nodes, block):
            rows, image = in_regions(block.spare, block.t.shape[1])
            fill(nodes, block, slice(None), rows, image)
            hand(nodes, rows, image)

        saddle_batch(pulse, channels, pz, pperp2, stream)
        return sums

    import mmap     # here, as no other path needs it: an extension module to load

    half = len(channels) // 2
    # the rows of this process's channels, and of the worker's
    mine, theirs = slice(0, 2 * half), slice(2 * half, n_rows)
    largest = pz.size if pz.ndim == 1 else min(_row_block(solved, deg), len(pz)) * solved
    size = n_rows * largest * prod(tail)
    slot = np.frombuffer(mmap.mmap(-1, 2 * size * 16), dtype=complex)
    slot = (slot[:size], slot[size:])
    # the worker writes b"w" per block that it has put in the slot, then b"e"
    # and its pickled outcome; this process writes one byte per free slot,
    # and keeps free_r open, so that the byte after the last block finds a
    # reader
    done_r, done_w = os.pipe()
    free_r, free_w = os.pipe()
    os.write(free_w, b"f")

    def work():     # the worker's pass
        # without this process's ends, a read sees the end of a caller
        # that is gone, and a write raises rather than waits for it
        os.close(done_r)
        os.close(free_w)

        def put(nodes, block):
            if not os.read(free_r, 1):  # this process has ended
                os._exit(1)
            rows, image = in_regions(slot, block.t.shape[1])
            fill(nodes, block, theirs, rows[theirs], image[theirs])
            os.write(done_w, b"w")

        def outcome():
            try:
                saddle_batch(pulse, channels[half:], pz, pperp2, put)
            except Exception as exc:
                return exc

        payload = b"e" + pickle.dumps(recorded(outcome))
        with os.fdopen(done_w, "wb") as out:
            out.write(payload)

    tag = b"w"

    def stream(nodes, block):
        nonlocal tag
        if tag != b"w":     # the worker's pass broke off before this block
            return
        rows, image = in_regions(slot, block.t.shape[1])
        fill(nodes, block, mine, rows[mine], image[mine])
        tag = os.read(done_r, 1)
        if tag == b"w":
            hand(nodes, rows, image)
            os.write(free_w, b"f")

    try:
        with Forks() as forks:
            try:
                forks.start(work)
            finally:    # so that a worker that ends leaves no writer
                os.close(done_w)
            saddle_batch(pulse, channels[:half], pz, pperp2, stream)
            if tag == b"w":
                tag = os.read(done_r, 1)
            with os.fdopen(done_r, "rb", closefd=False) as rest:
                payload = rest.read()
    finally:
        for fd in (done_r, free_r, free_w):
            os.close(fd)
    if tag != b"e" or forks.statuses != [0]:
        raise RuntimeError(f"the worker of e_bound = {channels[half:].tolist()} ended "
                           f"with status {forks.statuses[0]} without its outcome")
    error, shown = pickle.loads(payload)
    show_again(shown)
    if error is not None:
        raise error
    return sums
