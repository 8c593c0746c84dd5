"""Mode-matrix route to the third-kind form and the boson partition sum.

The orbit sum for the third-kind differential, with seed
1/(x - y) - 1/x, can be resummed as a resolvent: the seed's Taylor data
around the isometric-disc centers assemble into a pole-basis vector p, a
seed-moment vector q, and a coupling matrix R whose Neumann series
reproduces the word shells,

    psi_1(x, y) = seed(x, y) + p(x)^T (I - R)^{-1} q(y),

with p^T R^{k-1} q summing exactly the length-k words.  Everything is
truncated at M modes per signed handle in the fixed layout (handle-major,
signed order 1, -1, 2, -2, ..., mode index ascending), so vectors have
2*g*M entries and R is square of that size.

The coupling entries carry half-integer powers of the handle parameters
rho through s_h = sqrt(rho_h), principal branch (a negative real rho
counts as rho + 0i).  That choice is safe across the branch cut:
flipping the sign of s_h conjugates R by a diagonal +-1 matrix (and
flips p and q to match), so every assembled value is continuous where
the principal root jumps.

The Fredholm determinant gives the free-boson (Heisenberg) oscillator
partition function det(I - R)^{-1/2}, principal square root.

Both readings run on one factored system per surface and cutoff: R is
assembled once, and I - R is factored at M and at the leading-mode
sub-system at M/2, which gives every tail its drift.  Each of the two
factorizations passes two gates, else the computation refuses with
:class:`~schottky.forms.ConvergenceError`: the power-iteration spectral
radius of R must be below 1, and LAPACK's 1-norm condition number of
I - R (``zgecon``, from the LU) below MAX_CONDITION.  The last system is
kept, so repeated kernel and partition calls on one surface and cutoff
validate, assemble and factor once.

The layer is weight 1 only.  The weight-N seeds have poles at limit
points inside the discs the Taylor modes live on, so their resolvent
diverges as M grows; the weight-N kernels are the Poincare sums of
:class:`schottky.forms.SurfaceForms`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from schottky.forms import (
    EPS,
    ConfigurationError,
    ConvergenceError,
    Estimate,
    kernel_seed,
)
from schottky.group import (
    SchottkyParams,
    require_admissible,
    require_in_domain,
    require_integer,
)

__all__ = [
    "PartitionValue",
    "mode_coupling_matrix",
    "kernel_via_modes",
    "heisenberg_partition",
]

# Factorizations whose 1-norm condition number is above this are refused.
MAX_CONDITION = 1e8

# Power-iteration count for the spectral-radius gate.
POWER_ITERATIONS = 50

# Binomial tables of mode_coupling_matrix, one per mode cutoff.
_BINOMIALS: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class PartitionValue(Estimate):
    """Partition-function estimate with the coupling matrix's spectral radius.

    ``tail`` is the drift against the leading-mode sub-system at half
    the cutoff plus a rounding floor of 2gM eps |value| (M the mode cutoff);
    ``spectral_radius`` the power-iteration estimate for the coupling
    matrix (must be below 1 for the mode expansion to mean anything).
    """

    spectral_radius: float


@dataclass(frozen=True)
class _Factored:
    """LU factors of I - R (read-only), cond_1(I - R) and the radius of R."""

    lu: np.ndarray
    piv: np.ndarray
    cond: float
    radius: float

    def det(self) -> complex:
        """det(I - R): the product of U's diagonal, signed by the row swaps."""
        det = complex(np.prod(np.diag(self.lu)))
        swaps = np.count_nonzero(self.piv != np.arange(len(self.piv)))
        return -det if swaps % 2 else det


def _roots(sp: SchottkyParams) -> list[complex]:
    """s_a = sqrt(rho_a + 0j) for each signed index a, principal branch.

    Equal parameters share one cached system, so no root may hang on the
    sign of a zero imaginary part, which picks the side of the cut.
    """
    return [cmath.sqrt(sp.rho_signed(a) + 0j) for a in sp.signed_indices]


def _pole_basis(sp: SchottkyParams, modes: int, x: complex) -> np.ndarray:
    """Pole-basis vector p at x: entries s_b^{n+1} / (x - w_b)^{n+2}.

    Layout: signed handles in the order 1, -1, 2, -2, ... (outer), mode
    index n = 0..modes-1 (inner); length 2 * genus * modes.
    """
    out = np.empty(2 * sp.genus * modes, dtype=np.complex128)
    n = np.arange(modes)
    for i, (b, s) in enumerate(zip(sp.signed_indices, _roots(sp))):
        d = x - sp.center(b)
        out[i * modes:(i + 1) * modes] = s ** (n + 1) / d ** (n + 2)
    return out


def _seed_moments(sp: SchottkyParams, modes: int, y: complex) -> np.ndarray:
    """Seed-moment vector q at y (same layout as the pole basis).

    Entry (a, m) is -s_a^{m+1} times the m-th Taylor coefficient of the
    seed 1/(x - y) - 1/x in x at the partner center w_{-a}:

        -s_a^{m+1} (-1)^m [ (w_{-a} - y)^{-m-1} - w_{-a}^{-m-1} ].
    """
    out = np.empty(2 * sp.genus * modes, dtype=np.complex128)
    m = np.arange(modes)
    alt = (-1.0) ** m
    for i, (a, s) in enumerate(zip(sp.signed_indices, _roots(sp))):
        wma = sp.center(-a)
        taylor = (wma - y) ** (-m - 1.0) - wma ** (-m - 1.0)
        out[i * modes:(i + 1) * modes] = -(s ** (m + 1)) * alt * taylor
    return out


def _binomials(modes: int) -> np.ndarray:
    """Read-only table C(m + n + 1, m) for m, n < modes, built once per cutoff."""
    binom = _BINOMIALS.get(modes)
    if binom is None:
        binom = np.array(
            [[float(math.comb(m + n + 1, m)) for n in range(modes)] for m in range(modes)]
        )
        binom.flags.writeable = False
        _BINOMIALS[modes] = binom
    return binom


def mode_coupling_matrix(sp: SchottkyParams, modes: int) -> np.ndarray:
    """Coupling matrix R of the mode system (square, 2*genus*modes).

    Block (a, b) vanishes when b = -a (a word may not continue with the
    inverse letter); otherwise

        R[(a,m),(b,n)] = -s_a^{m+1} s_b^{n+1} (-1)^m
                         C(m+n+1, m) (w_{-a} - w_b)^{-(m+n+2)},

    the m-th Taylor coefficient at w_{-a} of the pole-basis entry (b, n)
    dressed with the same s-weights as the moment vector.  A block depends
    on m and n through m + n only (it is a Hankel matrix times the
    weights), so the 2M - 1 powers of each center difference are formed
    once and every block is assembled in one broadcast.
    """
    modes = require_integer(modes, "mode cutoff", 1)
    require_admissible(sp)
    idx = sp.signed_indices
    k = np.arange(modes)
    s = np.array(_roots(sp))[:, None]
    row_w = -(s ** (k + 1)) * (-1.0) ** k
    col_w = s ** (k + 1)
    # Center differences d[a, b] = w_{-a} - w_b.  At b = -a the block
    # vanishes, so d gets a placeholder there instead of a pole.
    inverse = np.array([[b == -a for b in idx] for a in idx])
    d = np.array([[sp.center(-a) - sp.center(b) for b in idx] for a in idx])
    d[inverse] = 1.0
    power = d[:, :, None] ** -(np.arange(2 * modes - 1) + 2.0)
    # hankel[a, b, m, n] = power[a, b, m + n], a strided view without a copy.
    hankel = np.lib.stride_tricks.sliding_window_view(power, modes, axis=2)
    # Indices (a, m, b, n), flattened to the (a, m) x (b, n) layout.
    R = row_w[:, :, None, None] * col_w[None, None, :, :]
    R *= _binomials(modes)[None, :, None, :]
    R *= hankel.transpose(0, 2, 1, 3)
    R.transpose(0, 2, 1, 3)[inverse] = 0.0
    return R.reshape(len(idx) * modes, len(idx) * modes)


def _leading_modes(genus: int, modes: int) -> np.ndarray:
    """Mask of the first max(1, M // 2) modes of every signed handle.

    Every entry of p, q and R depends only on its own mode indices, so
    the system at half the cutoff M is exactly the masked sub-system of
    the one at M.
    """
    return np.arange(2 * genus * modes) % modes < max(1, modes // 2)


def _spectral_radius_estimate(R: np.ndarray) -> float:
    """Power-iteration estimate of the spectral radius (fixed seed).

    The 2-norm is formed inline, with the real/imag dot products that
    ``np.linalg.norm`` uses, which spares its per-call overhead.
    """

    def norm(z: np.ndarray) -> float:
        return math.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))

    dim = R.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= norm(v)
    radius = 0.0
    for _ in range(POWER_ITERATIONS):
        w = R @ v
        radius = norm(w)
        if radius == 0.0:
            return 0.0
        v = w / radius
    return radius


# One entry: kernel and partition calls come in runs on one surface and
# cutoff, and code that rotates surfaces keeps each surface's Z in the
# correlators' memo.  typed=True keeps 4.0 and True from reusing the
# system of 4 and 1 without passing mode_coupling_matrix's integer gate.
@functools.lru_cache(maxsize=1, typed=True)
def _system(sp: SchottkyParams, modes: int) -> tuple[_Factored, _Factored]:
    """The gated factorizations of I - R at M and at its M/2 sub-system."""
    R = mode_coupling_matrix(sp, modes)
    keep = _leading_modes(sp.genus, modes)
    factors = []
    for block in (R, R[np.ix_(keep, keep)]):
        radius = _spectral_radius_estimate(block)
        if radius >= 1.0:
            raise ConvergenceError(
                f"coupling-matrix spectral radius estimate {radius:.3f} "
                ">= 1; the mode expansion diverges for these parameters"
            )
        system = np.eye(block.shape[0], dtype=np.complex128) - block
        lu, piv = lu_factor(system)
        rcond, _ = zgecon(lu, np.abs(system).sum(axis=0).max())
        cond = 1.0 / rcond if rcond > 0.0 else math.inf
        if not cond < MAX_CONDITION:
            raise ConvergenceError(
                f"mode system ill-conditioned (cond {cond:.3g}); the "
                "expansion does not converge for these parameters"
            )
        lu.flags.writeable = piv.flags.writeable = False
        factors.append(_Factored(lu, piv, cond, radius))
    return tuple(factors)


def kernel_via_modes(
    sp: SchottkyParams,
    weight: int,
    modes: int,
    x: complex,
    y: complex,
) -> Estimate:
    """Third-kind differential evaluated through the mode resolvent.

    seed(x, y) + p(x)^T (I - R)^{-1} q(y) with the seed 1/(x - y) - 1/x,
    solved on the cached LU factors of the mode system.  It refuses with
    ConvergenceError when the spectral radius of R is not below 1 or
    cond_1(I - R) not below MAX_CONDITION, at M or at M/2.  The reported
    tail is the drift against the leading-mode sub-system at half the mode
    cutoff plus a rounding floor of 2gM eps
    (|seed| + cond_1(I - R) sum_i |p_i| |s_i|), s = (I - R)^{-1} q.

    Only weight 1 is served.  At weight N >= 2 the seed's basis points are
    limit points inside the discs the Taylor modes live on, so the
    resolvent diverges as M grows; those kernels come from the Poincare
    sum :meth:`schottky.forms.SurfaceForms.recursion_kernel`.
    """
    if require_integer(weight, "weight", 1) > 1:
        raise ConfigurationError(
            f"the mode resolvent serves weight 1 only, got weight {weight}; "
            "use SurfaceForms.recursion_kernel for weight >= 2 kernels"
        )
    full, half = _system(sp, modes)
    x = require_in_domain(sp, x, "x")
    y = require_in_domain(sp, y, "y")
    p = _pole_basis(sp, modes, x)
    q = _seed_moments(sp, modes, y)
    keep = _leading_modes(sp.genus, modes)
    solved = lu_solve((full.lu, full.piv), q)
    correction = complex(p @ solved)
    half_correction = complex(p[keep] @ lu_solve((half.lu, half.piv), q[keep]))
    seed = kernel_seed(x, y, (0.0,))
    # The solve and the dot product round by about 2gM ulps of the terms,
    # which the drift cannot see once both cutoffs agree bit for bit.
    scale = float(full.cond * (np.abs(p) @ np.abs(solved)))
    floor = len(p) * EPS * (abs(seed) + scale)
    return Estimate(seed + correction, abs(correction - half_correction) + floor)


def heisenberg_partition(sp: SchottkyParams, modes: int) -> PartitionValue:
    """Oscillator partition function det(I - R)^{-1/2} at weight 1.

    The determinants at M and M/2 are read off the diagonals of the cached
    LU factors; the principal square root is taken, and for admissible
    parameters the determinant sits near 1.  It refuses with
    ConvergenceError when the spectral radius of R is not below 1 (the
    oscillator sum diverges) or cond_1(I - R) not below MAX_CONDITION, at
    M or at M/2.
    """
    full, half = _system(sp, modes)
    value = 1.0 / cmath.sqrt(full.det())
    half_value = 1.0 / cmath.sqrt(half.det())
    # The LU of the 2gM-square system rounds the determinant by about 2gM
    # ulps, which the drift cannot see once both cutoffs agree bit for bit.
    floor = 2 * sp.genus * modes * EPS * abs(value)
    return PartitionValue(value, abs(value - half_value) + floor, full.radius)
