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
assembled once, I - R is formed in R's own buffer and factored once.  It
passes two gates, else the computation refuses with
:class:`~schottky.forms.ConvergenceError`: the contraction bound
kappa = ||R||_1 (largest column sum of |R|), which bounds the spectral
radius of R, must be below 1, and LAPACK's 1-norm condition number of
I - R (``zgecon``, from the LU) below MAX_CONDITION.  The same pass over
|R| gives both 1-norms.  The last system is kept, so repeated kernel and
partition calls on one surface and cutoff validate, assemble and factor
once.

Tails are bounds, not drifts.  The entries of R beyond the cutoff M have
a closed-form sum (:func:`_omitted_sums`), and so does the whole
operator.  Bornemann's perturbation bound for Fredholm determinants turns
them into a bound on det(I - R) at M against the untruncated operator,
and a Neumann bound with kappa does the same for the resolvent.  The
certified region is that of kappa < 1: on a genus-2 surface with centres
+-1.35 and +-1.4i and equal radii f * 1.945/2 (f = 1 touches), f = 0.5
has kappa = 0.27 and f = 0.8 is refused (kappa = 1.05, while the true
spectral radius is 0.30).  The bounds are rigorous but not tight: on
the genus-3 test surface at M = 5 the determinant's bound gives Z a tail
of 6e-7 where doubling M moves Z by 1e-17, so :func:`mode_cutoff_for`,
which picks the smallest M whose determinant bound meets a tolerance,
errs towards larger M.

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
    _kernel_seed,
)
from schottky.group import (
    InvalidParameterError,
    SchottkyParams,
    require_admissible,
    require_in_domain,
    require_integer,
    require_positive,
)

__all__ = [
    "PartitionValue",
    "mode_coupling_matrix",
    "mode_cutoff_for",
    "kernel_via_modes",
    "heisenberg_partition",
]

# Factorizations whose 1-norm condition number is above this are refused.
MAX_CONDITION = 1e8

# Mode systems of larger dimension 2gM are refused before assembly: past
# it the binomials C(2M - 1, M) of a genus-1 system overflow a float.
MAX_SYSTEM_DIM = 1024


def _require_cutoff(sp: SchottkyParams, modes: int) -> int:
    """The mode cutoff M as an int, refused where 2gM passes MAX_SYSTEM_DIM."""
    modes = require_integer(modes, "mode cutoff", 1)
    if 2 * sp.genus * modes > MAX_SYSTEM_DIM:
        raise InvalidParameterError(
            f"mode cutoff {modes} at genus {sp.genus} gives a mode system of "
            f"dimension {2 * sp.genus * modes}; at most {MAX_SYSTEM_DIM} is assembled"
        )
    return modes


@dataclass(frozen=True)
class PartitionValue(Estimate):
    """Partition-function estimate with the coupling matrix's contraction bound.

    ``tail`` bounds the truncation at the mode cutoff M against the
    untruncated operator, plus a rounding floor of 2gM eps |value|;
    ``spectral_radius`` is the contraction bound ||R||_1, which is at least
    the spectral radius of R and below 1 for every returned value.
    """

    spectral_radius: float


@dataclass(frozen=True)
class _Factored:
    """LU factors of I - R (read-only), cond_1(I - R) and bounds on R.

    ``contraction`` is ||R||_1; ``omitted`` and ``whole`` bound the entry
    sums of |R| beyond the cutoff and of the whole operator.
    """

    lu: np.ndarray
    piv: np.ndarray
    cond: float
    contraction: float
    omitted: float
    whole: float

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


@functools.cache
def _binomials(modes: int) -> np.ndarray:
    """Read-only table C(m + n + 1, m) for m, n < modes, built once per cutoff."""
    binom = np.array(
        [[float(math.comb(m + n + 1, m)) for n in range(modes)] for m in range(modes)]
    )
    binom.flags.writeable = False
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
    modes = _require_cutoff(sp, modes)
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


def _omitted_sums(sp: SchottkyParams, cutoffs) -> np.ndarray:
    """Closed-form bounds on sum |R| over the entries beyond each cutoff M.

    With d = w_{-a} - w_b, lead = |s_a| / |d| and u = (|s_a| + |s_b|) / |d|,
    the entries of block (a, b) with m + n = k sum to at most lead u^{k+1}
    (a binomial sum), so those with a mode index >= M sum to at most
    lead u^{M+1} / (1 - u).  u < 1 says exactly that the discs at w_{-a}
    and w_b are disjoint.  At M = 0 the bound covers the whole operator.
    """
    idx = sp.signed_indices
    blocks = [(a, b) for a in idx for b in idx if b != -a]
    d = np.abs([sp.center(-a) - sp.center(b) for a, b in blocks])
    ra = np.array([sp.radius(a) for a, _ in blocks])
    u = (ra + np.array([sp.radius(b) for _, b in blocks])) / d
    # u rounds to 1 only at touching discs; the bound is then infinite.
    with np.errstate(divide="ignore"):
        return (ra / d / (1.0 - u)) @ u[:, None] ** (np.asarray(cutoffs) + 1.0)


def _determinant_truncation(omitted: float, whole: float) -> float:
    """Bound on |det(I - R) - det(I - R_M)| from the omitted and whole entry sums.

    Bornemann's perturbation bound |det(I - A) - det(I - B)| <= ||A - B||
    exp(1 + ||A|| + ||B||) in trace norm ("On the numerical evaluation of
    Fredholm determinants", Math. Comp. 79, 2010); a matrix's entry sum
    bounds its trace norm, and both A and its truncation B sum to at most
    ``whole``.
    """
    exponent = 1.0 + 2.0 * whole
    return omitted * math.exp(exponent) if exponent < 700.0 else math.inf


def _inverse_root_change(z: complex, tau: float) -> float:
    """Bound on |w^{-1/2} - z^{-1/2}| (principal roots) over |w - z| <= tau.

    On that disc |d/dw w^{-1/2}| = |w|^{-3/2} / 2 <= (|z| - tau)^{-3/2} / 2,
    as long as the disc misses the branch cut (-inf, 0]; else infinite.
    """
    cut = abs(z) if z.real >= 0.0 else abs(z.imag)
    return tau / (2.0 * (abs(z) - tau) ** 1.5) if tau < cut else math.inf


def mode_cutoff_for(sp: SchottkyParams, tol: float, cap: int) -> int:
    """Smallest mode cutoff M <= cap whose determinant truncation bound is <= tol.

    The bound is that of the reported tail of :func:`heisenberg_partition`
    before it is carried through det^{-1/2}; it needs no assembly.  When
    no M <= cap meets tol, the cutoff is cap.
    """
    require_admissible(sp)
    tol = require_positive(tol, "tol")
    cap = _require_cutoff(sp, cap)
    sums = _omitted_sums(sp, range(cap + 1))
    for m in range(1, cap):
        if _determinant_truncation(sums[m], sums[0]) <= tol:
            return m
    return cap


# One entry: kernel and partition calls come in runs on one surface and
# cutoff, and code that rotates surfaces keeps each surface's Z in the
# correlators' memo.  typed=True keeps 4.0 and True from reusing the
# system of 4 and 1 without passing mode_coupling_matrix's integer gate.
@functools.lru_cache(maxsize=1, typed=True)
def _system(sp: SchottkyParams, modes: int) -> _Factored:
    """I - R at the cutoff, formed in R's own buffer, factored and gated.

    The gates are the contraction bound ||R||_1 < 1 and
    cond_1(I - R) < MAX_CONDITION; both 1-norms come from one pass over
    |R|.
    """
    R = mode_coupling_matrix(sp, modes)
    columns = np.abs(R).sum(axis=0)
    contraction = float(columns.max())
    # Written so that a nan bound refuses too.
    if not contraction < 1.0:
        raise ConvergenceError(
            f"contraction bound ||R||_1 = {contraction:.3g} on the coupling matrix's "
            "spectral radius is not below 1; the mode expansion is not certified "
            "to converge for these parameters"
        )
    diagonal = R.diagonal()
    norm = float(np.max(columns - np.abs(diagonal) + np.abs(1.0 - diagonal)))
    np.negative(R, out=R)
    R.flat[:: R.shape[0] + 1] += 1.0
    lu, piv = lu_factor(R, overwrite_a=True)
    rcond, _ = zgecon(lu, norm)
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    if not cond < MAX_CONDITION:
        raise ConvergenceError(
            f"mode system ill-conditioned (cond {cond:.3g}); the "
            "expansion does not converge for these parameters"
        )
    lu.flags.writeable = piv.flags.writeable = False
    omitted, whole = _omitted_sums(sp, (modes, 0))
    return _Factored(lu, piv, cond, contraction, float(omitted), float(whole))


def _geometric(t: float, start: int) -> float:
    """sum_{k >= start} t^k = t^start / (1 - t), infinite unless 0 <= t < 1."""
    return t**start / (1.0 - t) if t < 1.0 else math.inf


def _vector_bounds(
    sp: SchottkyParams, modes: int, x: complex, y: complex
) -> tuple[float, float, float]:
    """sup|p(x)|, sum|q(y)| over all modes, and sum |p_i q_i| over the modes >= M.

    With r = |s_a|, |p_(a,n)| = (r / |x - w_a|)^{n+1} / |x - w_a| and
    |q_(a,m)| <= (r / |w_{-a} - y|)^{m+1} + (r / |w_{-a}|)^{m+1}, so every
    sum is geometric.  A point within the slack of a circle has
    r > |x - w_a| and gets infinite bounds.
    """
    sup_p = sum_q = diagonal = 0.0
    # Every signed handle a: its center w_a, the partner's w_{-a} and |rho_a|.
    for w, partner, rho in zip(sp.w_plus + sp.w_minus, sp.w_minus + sp.w_plus, 2 * sp.rho):
        rho = abs(rho)
        r = math.sqrt(rho)
        dx, dy, d0 = abs(x - w), abs(partner - y), abs(partner)
        sup_p = max(sup_p, r / (dx * dx) if r <= dx else math.inf)
        sum_q += _geometric(r / dy, 1) + _geometric(r / d0, 1)
        diagonal += (
            _geometric(rho / (dx * dy), modes + 1) + _geometric(rho / (dx * d0), modes + 1)
        ) / dx
    return sup_p, sum_q, diagonal


def _kernel_truncation(
    sp: SchottkyParams, modes: int, system: _Factored, x: complex, y: complex
) -> float:
    """Bound on what the modes beyond the cutoff add to p^T (I - R)^{-1} q.

    Pad the truncated R with zeros to B.  Then (I - B)^{-1} is the
    identity on the omitted modes, and (I - R)^{-1} - (I - B)^{-1} =
    (I - R)^{-1} (R - B) (I - B)^{-1}, so the omitted part is the diagonal
    sum p_H . q_H over the modes beyond M plus a term of at most
    sup|p| sum|q| ||R - B||_1 / ((1 - ||R||_1)(1 - ||B||_1)) (Neumann).
    ||B||_1 is the contraction bound, and the omitted entry sum bounds
    ||R - B||_1 and ||R||_1 - ||B||_1.
    """
    sup_p, sum_q, diagonal = _vector_bounds(sp, modes, x, y)
    kappa, omitted = system.contraction, system.omitted
    if omitted == 0.0:
        return diagonal
    if not kappa + omitted < 1.0:
        return math.inf
    return diagonal + sup_p * sum_q * omitted / ((1.0 - kappa - omitted) * (1.0 - kappa))


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
    ConvergenceError when the contraction bound ||R||_1 is not below 1 or
    cond_1(I - R) not below MAX_CONDITION.  The reported tail is the
    bound of _kernel_truncation on the modes beyond the cutoff plus a
    rounding floor of 2gM eps (|seed| + cond_1(I - R) sum_i |p_i| |s_i|),
    s = (I - R)^{-1} q.  The bound is infinite at a point within the
    boundary slack of a circle.

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
    system = _system(sp, modes)
    x = require_in_domain(sp, x, "x")
    y = require_in_domain(sp, y, "y")
    p = _pole_basis(sp, modes, x)
    solved = lu_solve((system.lu, system.piv), _seed_moments(sp, modes, y))
    correction = complex(p @ solved)
    seed = _kernel_seed(x, y, (0.0,))
    # The solve and the dot product round by about 2gM ulps of the terms.
    scale = float(system.cond * (np.abs(p) @ np.abs(solved)))
    floor = len(p) * EPS * (abs(seed) + scale)
    truncation = _kernel_truncation(sp, modes, system, x, y)
    return Estimate(seed + correction, truncation + floor)


def heisenberg_partition(sp: SchottkyParams, modes: int) -> PartitionValue:
    """Oscillator partition function det(I - R)^{-1/2} at weight 1.

    The determinant is read off the diagonal of the cached LU factors and
    the principal square root taken; for admissible parameters the
    determinant sits near 1.  It refuses with ConvergenceError when the
    contraction bound ||R||_1 is not below 1 or cond_1(I - R) not below
    MAX_CONDITION.  The tail is the determinant's truncation bound
    carried through det^{-1/2} (infinite when it reaches the branch cut),
    plus a rounding floor of 2gM eps |value|.
    """
    system = _system(sp, modes)
    det = system.det()
    value = 1.0 / cmath.sqrt(det)
    truncation = _inverse_root_change(det, _determinant_truncation(system.omitted, system.whole))
    # The LU of the 2gM-square system rounds the determinant by about 2gM ulps.
    floor = 2 * sp.genus * modes * EPS * abs(value)
    return PartitionValue(value, truncation + floor, system.contraction)
