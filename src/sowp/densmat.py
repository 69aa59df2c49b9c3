"""Residual-atom density matrix from momentum-space quadrature.

    rho_{j'm' jm} = sum_{m_s} int conj(A^{j'm'}_{m_s}) A^{jm}_{m_s} d3p/(2pi)^3

integrated in spherical coordinates up to the photoelectron energy
E_MAX_PHOTONS omega.  The electron spin is traced incoherently (final spin
states are orthonormal).  Every amplitude carries the azimuthal factor
exp(i m_l phi), so the phi integral of a product is 2 pi delta_{m_l' m_l};
the 'analytic' phi mode uses this identity, while the 'numeric' mode
evaluates the phi sum with the uniform trapezoid rule, letting one verify
that m' != m elements vanish within quadrature accuracy rather than by
construction.

Every channel amplitude is a constant times one of the four saddle sums of
``amplitude_profiles``, so the node sum is taken once, into their weighted
4x4 Gram matrix per species and build-up partial sum (``Gram``, a consumer
of ``amplitude_profiles``, so no sums array of the whole grid is held), and
``gram_to_rho`` maps Gram matrices to density matrices.

The radial quadrature is Gauss-Legendre in p on [0, sqrt(2 E_max)] with the
p^2 volume factor folded into the weights, which integrates the momentum
volume exactly; the polar one is Gauss-Legendre in cos(theta).  Both rules
come from ``_gauss_legendre``, whose docstring gives their accuracy.  Nodes
are laid out as (n_energy, n_theta) arrays, so each column is a radial line
along which the saddle search continues its roots (see ``sowp.saddle``).
Quadrature sums run over this fixed node ordering, so results are
reproducible to the bit regardless of how callers parallelize over grid
chunks.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from sowp.amplitude import (CHANNEL_COEF, CHANNELS, STATES, SUM_ROWS,
                            amplitude_profiles)
from sowp.errors import (CoherenceUndefinedError, NumericalError,
                         ProbabilityError, SaturationWarning)
from sowp.pulse import Pulse
from sowp.species import Species

E_MAX_PHOTONS = 15.0
SATURATION_W = 0.5

_STATE_INDEX = {s: i for i, s in enumerate(STATES)}


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in x's precision."""
    p0, p1, xp = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        # P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}), into p0
        np.multiply(x, p1, out=xp)
        p0 -= xp
        p0 *= x.dtype.type(-k) / (k + 1)    # k/(k+1) rounded to x's precision
        p0 += xp
        p0, p1 = p1, p0
    return p1, n * (p0 - x * p1) / ((1 - x) * (1 + x))


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton
    on _legendre from Tricomi's estimates of the nodes (Hale & Townsend,
    SIAM J. Sci. Comput. 35, A652 (2013)), to steps of at most 1e-12, then
    one last step in np.longdouble.  The weight
    2 / ((1 - x)(1 + x) P_n'(x)^2) moves by -2x/(1 - x^2) relative per unit
    of x, so near x = +-1 the rounding of a node to double would cost it up
    to 2.8e-13 (n = 200): it is taken at the exact root to first order,
    from that last step.  Against a 30-digit mpmath oracle up to n = 200
    (TestGaussLegendre) the nodes are within 2e-16 and the weights within
    4e-16 relative, or 1e-13 where np.longdouble is plain double (numpy's
    leggauss: 2.2e-11 at n = 200).  Mirrored as leggauss does, so that x is
    exactly odd and the weights exactly even: a MomentumGrid's lines are
    then exact mirror images (see sowp.saddle)."""
    theta = np.pi * (4.0 * np.arange(n, 0, -1) - 1.0) / (4 * n + 2)
    x = np.cos(theta) * (1.0 - (n - 1) / (8.0 * n ** 3)
                         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4))
    for _ in range(20):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if not np.abs(step).max() > 1e-12:
            break
    x = x.astype(np.longdouble)
    p, dp = _legendre(n, x)
    step = p / dp
    one_x2 = (1 - x) * (1 + x)
    w = (2 / (one_x2 * dp * dp) * (1 + 2 * x * step / one_x2)).astype(float)
    x = (x - step).astype(float)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Spherical momentum quadrature: radial (energy) x polar x azimuthal."""

    e_max: float              # radial cutoff, a.u. of energy
    p_nodes: np.ndarray       # (nE,) radial momentum nodes
    radial_weights: np.ndarray  # (nE,) Gauss-Legendre weights times p^2
    u_nodes: np.ndarray       # (nT,) cos(theta) nodes
    u_weights: np.ndarray
    phi_nodes: np.ndarray     # (nP,) uniform azimuthal nodes on [0, 2pi)
    phi_weights: np.ndarray
    phi_mode: str = "analytic"

    @classmethod
    def build(cls, omega: float, n_energy: int = 200, n_theta: int = 64,
              n_phi: int = 32, phi_mode: str = "analytic",
              e_max: float = None) -> "MomentumGrid":
        if phi_mode not in ("analytic", "numeric"):
            raise ValueError(f"phi_mode must be 'analytic' or 'numeric', got {phi_mode!r}")
        if min(n_energy, n_theta, n_phi) < 2:
            raise ValueError("grid needs at least 2 nodes per dimension")
        for name, value in (("omega", omega), ("e_max", e_max)):
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        e_max = E_MAX_PHOTONS * omega if e_max is None else e_max
        p_max = np.sqrt(2.0 * e_max)
        x, wx = _gauss_legendre(n_energy)
        p = 0.5 * (x + 1.0) * p_max
        wp = 0.5 * p_max * wx * p * p
        u, wu = _gauss_legendre(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        wphi = np.full(n_phi, 2.0 * np.pi / n_phi)
        return cls(e_max=e_max, p_nodes=p, radial_weights=wp, u_nodes=u,
                   u_weights=wu, phi_nodes=phi, phi_weights=wphi,
                   phi_mode=phi_mode)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """6x6 Hermitian matrix over STATES = ((3,-3),(3,-1),(3,1),(3,3),(1,-1),(1,1))
    in doubled (j, m) labels."""

    matrix: np.ndarray = field(repr=False)

    @property
    def w(self) -> float:
        """Total detachment probability (trace)."""
        return float(np.trace(self.matrix).real)


def total_probability(rho: DensityMatrix) -> float:
    """w = sum of diagonal populations; must be positive."""
    w = rho.w
    if w <= 0:
        raise ProbabilityError(f"total detachment probability w = {w} is not positive")
    return w


def family(matrix: np.ndarray):
    """(rho^(3/2,3/2), rho^(3/2,1/2), rho^(1/2,1/2), rho_off): the m > 0
    populations and the complex j = 3/2 <-> 1/2 element at m = 1/2 of a
    (..., 6, 6) stack, as (...) arrays, or for one 6x6 matrix as Python
    scalars."""
    a33, a31, a11 = (_STATE_INDEX[s] for s in ((3, 3), (3, 1), (1, 1)))
    out = (matrix[..., a33, a33].real, matrix[..., a31, a31].real,
           matrix[..., a11, a11].real, matrix[..., a31, a11])
    return out if matrix.ndim > 2 else tuple(x.item() for x in out)


def coherence_degree(rho: DensityMatrix) -> float:
    """Degree of coherence g = |rho_off| / sqrt(rho^(3/2,1/2) rho^(1/2,1/2))."""
    _, d32, d12, off = family(rho.matrix)
    if d32 <= 0 or d12 <= 0:
        raise CoherenceUndefinedError(
            f"coherence undefined: diagonals {d32:.3e}, {d12:.3e}")
    g = abs(off) / np.sqrt(d32 * d12)
    if g > 1.0 + 1e-12:
        raise NumericalError(f"g = {g} exceeds 1 beyond the roundoff guard")
    return min(float(g), 1.0)


def warn_if_saturated(rho: DensityMatrix) -> DensityMatrix:
    """rho, after a SaturationWarning (attributed to the caller's caller)
    when its w exceeds SATURATION_W."""
    if rho.w > SATURATION_W:
        warnings.warn(
            f"w = {rho.w:.3f} > {SATURATION_W}: detachment saturates and "
            f"depletion of the anion is not modelled", SaturationWarning,
            stacklevel=3)
    return rho


def grid_nodes(grid: MomentumGrid):
    """(pz, pperp, weights), each of shape (n_energy, n_theta): column j is
    the radial line at polar node j, ordered by increasing p."""
    p2d, u2d = np.meshgrid(grid.p_nodes, grid.u_nodes, indexing="ij")
    pz = p2d * u2d
    pperp = p2d * np.sqrt(1.0 - u2d * u2d)
    weights = grid.radial_weights[:, None] * grid.u_weights[None, :]
    return pz, pperp, weights


# per channel: its (j, m) state, m_l and m_s
_CHANNEL_STATE = np.array([_STATE_INDEX[(j2, m2)] for j2, m2, _ in CHANNELS])
_CHANNEL_ML = np.array([(m2 - ms2) // 2 for _, m2, ms2 in CHANNELS])
_CHANNEL_MS = np.array([ms2 for _, _, ms2 in CHANNELS])


def _selection(grid: MomentumGrid) -> np.ndarray:
    """(channel, channel) factor of conj(A_c) A_d in rho: where the spins
    agree, the phi integral of exp(i (m_l,d - m_l,c) phi) (exact or by the
    trapezoid rule, per phi_mode) over (2 pi)^3, else 0."""
    dml = _CHANNEL_ML[None, :] - _CHANNEL_ML[:, None]
    if grid.phi_mode == "analytic":
        phi = np.where(dml == 0, 2.0 * np.pi, 0.0)
    else:
        phi = np.sum(grid.phi_weights
                     * np.exp(1j * dml[..., None] * grid.phi_nodes), axis=-1)
    return np.where(_CHANNEL_MS[:, None] == _CHANNEL_MS[None, :], phi,
                    0.0) / (2.0 * np.pi) ** 3


class Gram:
    """Weighted Gram matrices G_ab = sum_nodes w conj(s_a) s_b of the 4
    saddle sums of each of ``species`` species, one per partial sum, added
    up block by block: a consumer for ``amplitude_profiles``.  ``matrix``
    has shape (partial_sums, species, 4, 4)."""

    def __init__(self, weights: np.ndarray, partial_sums: int = 1,
                 species: int = 1):
        self.weights = np.ravel(weights)
        self.matrix = np.zeros((partial_sums, species) + (len(SUM_ROWS),) * 2,
                               dtype=complex)

    def __call__(self, nodes, rows) -> None:
        """Add the sums ``rows`` (shape (4S, n) or (4S, n, K)) of the flat
        nodes ``nodes`` (a slice or an index array)."""
        w = self.weights[nodes]
        s = rows.reshape(self.matrix.shape[1:3] + (rows.shape[1], -1))
        # one partial sum at a time (no temporary of the block's size), and
        # one product per species: a species' bits do not depend on the others
        for k, gram in enumerate(self.matrix):
            gram += (s[..., k].conj() * w) @ s[..., k].swapaxes(1, 2)


def gram_to_rho(gram: np.ndarray, grid: MomentumGrid) -> np.ndarray:
    """The (..., 6, 6) density matrices of a (..., 4, 4) stack of Gram
    matrices: the channel products C G C^T (C = CHANNEL_COEF, real), the
    m_s / phi selection factor, and the sum of channels into (j, m) states."""
    products = _selection(grid) * (CHANNEL_COEF @ gram @ CHANNEL_COEF.T)
    rho = np.zeros(products.shape[:-2] + (len(STATES),) * 2, dtype=complex)
    np.add.at(rho, (..., _CHANNEL_STATE[:, None], _CHANNEL_STATE[None, :]),
              products)
    return rho


def build_density_matrix(pulse: Pulse, species, grid: MomentumGrid = None,
                         threads: int = 1):
    """Integrate amplitude products over the momentum grid (the default
    grid of ``MomentumGrid.build`` unless given).  ``species`` is one
    Species, or a sequence of them, for a tuple of their matrices in the
    same order, solved in one saddle pass, split over two processes when
    ``threads`` >= 2 (see ``amplitude_profiles``; the bits do not change)."""
    if grid is None:
        grid = MomentumGrid.build(pulse.omega)
    pz, pperp, weights = grid_nodes(grid)
    one = isinstance(species, Species)
    group = (species,) if one else tuple(species)
    gram = Gram(weights, species=len(group))
    amplitude_profiles(pulse, group, pz, pperp, consume=gram, threads=threads)
    rhos = []
    for matrix in gram_to_rho(gram.matrix[0], grid):
        rhos.append(warn_if_saturated(DensityMatrix(matrix)))
    return rhos[0] if one else tuple(rhos)
