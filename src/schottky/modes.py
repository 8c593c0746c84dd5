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
rho through s_h = sqrt(rho_h) (principal branch).  The branch choice is a
gauge: flipping the sign of any s_h conjugates the system by a diagonal
sign matrix and leaves every assembled quantity (kernel values, Fredholm
determinant) unchanged; ``branch_signs`` exposes the flip for testing.

The Fredholm determinant gives the free-boson (Heisenberg) oscillator
partition function det(I - R)^{-1/2}, principal square root.

The layer is weight 1 only.  The weight-N seeds have poles at limit
points inside the discs the Taylor modes live on, so their resolvent
diverges as M grows; the weight-N kernels are the Poincare sums of
:class:`schottky.forms.SurfaceForms`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

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
    InvalidParameterError,
    SchottkyParams,
    require_admissible,
    require_in_domain,
)

__all__ = [
    "PartitionValue",
    "pole_basis",
    "seed_moments",
    "mode_coupling_matrix",
    "kernel_via_modes",
    "heisenberg_partition",
]

# Resolvent solves refuse 1-norm condition numbers above this.
MAX_CONDITION = 1e8

# Power-iteration count for the spectral-radius precheck.
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


def _require_valid(sp: SchottkyParams, modes: int) -> None:
    if modes < 1:
        raise InvalidParameterError("mode cutoff must be >= 1")
    require_admissible(sp)


def _sqrt_rho(
    sp: SchottkyParams, branch_signs: Sequence[int] | None
) -> list[complex]:
    """Principal square roots of the handle parameters, one per handle.

    branch_signs, when given, flips individual roots; the flip is a gauge
    transformation of the mode system (see module docstring).
    """
    if branch_signs is None:
        signs = (1,) * sp.genus
    else:
        signs = tuple(branch_signs)
        if len(signs) != sp.genus or any(s not in (-1, 1) for s in signs):
            raise InvalidParameterError(
                f"branch_signs must be {sp.genus} entries of +-1"
            )
    return [signs[h] * cmath.sqrt(sp.rho[h]) for h in range(sp.genus)]


def pole_basis(
    sp: SchottkyParams,
    modes: int,
    x: complex,
    branch_signs: Sequence[int] | None = None,
) -> np.ndarray:
    """Pole-basis vector p at x: entries s_b^{n+1} / (x - w_b)^{n+2}.

    Layout: signed handles in the order 1, -1, 2, -2, ... (outer), mode
    index n = 0..modes-1 (inner); length 2 * genus * modes.
    """
    _require_valid(sp, modes)
    x = require_in_domain(sp, x, "x")
    return _pole_basis(sp, _sqrt_rho(sp, branch_signs), modes, x)


def _pole_basis(sp: SchottkyParams, roots: list[complex], modes: int, x: complex) -> np.ndarray:
    out = np.empty(2 * sp.genus * modes, dtype=np.complex128)
    n = np.arange(modes)
    for i, b in enumerate(sp.signed_indices):
        s = roots[abs(b) - 1]
        d = x - sp.center(b)
        out[i * modes:(i + 1) * modes] = s ** (n + 1) / d ** (n + 2)
    return out


def seed_moments(
    sp: SchottkyParams,
    modes: int,
    y: complex,
    branch_signs: Sequence[int] | None = None,
) -> np.ndarray:
    """Seed-moment vector q at y (same layout as the pole basis).

    Entry (a, m) is -s_a^{m+1} times the m-th Taylor coefficient of the
    seed 1/(x - y) - 1/x in x at the partner center w_{-a}:

        -s_a^{m+1} (-1)^m [ (w_{-a} - y)^{-m-1} - w_{-a}^{-m-1} ].
    """
    _require_valid(sp, modes)
    y = require_in_domain(sp, y, "y")
    return _seed_moments(sp, _sqrt_rho(sp, branch_signs), modes, y)


def _seed_moments(sp: SchottkyParams, roots: list[complex], modes: int, y: complex) -> np.ndarray:
    out = np.empty(2 * sp.genus * modes, dtype=np.complex128)
    m = np.arange(modes)
    alt = (-1.0) ** m
    for i, a in enumerate(sp.signed_indices):
        s = roots[abs(a) - 1]
        wma = sp.center(-a)
        taylor = (wma - y) ** (-m - 1.0) - wma ** (-m - 1.0)
        out[i * modes:(i + 1) * modes] = -(s ** (m + 1)) * alt * taylor
    return out


def mode_coupling_matrix(
    sp: SchottkyParams,
    modes: int,
    branch_signs: Sequence[int] | None = None,
) -> np.ndarray:
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
    _require_valid(sp, modes)
    return _coupling(sp, _sqrt_rho(sp, branch_signs), modes)


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


def _coupling(sp: SchottkyParams, roots: list[complex], modes: int) -> np.ndarray:
    idx = sp.signed_indices
    k = np.arange(modes)
    s = np.array([roots[abs(a) - 1] for a in idx])[:, None]
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


def kernel_via_modes(
    sp: SchottkyParams,
    weight: int,
    modes: int,
    x: complex,
    y: complex,
    branch_signs: Sequence[int] | None = None,
) -> Estimate:
    """Third-kind differential evaluated through the mode resolvent.

    seed(x, y) + p(x)^T (I - R)^{-1} q(y) with the seed 1/(x - y) - 1/x,
    solved by LU factorization; LAPACK's zgecon estimates the 1-norm
    condition number cond_1(I - R) from the same LU, and refuses at
    MAX_CONDITION.  The reported tail is the drift against the leading-mode
    sub-system at half the mode cutoff plus a rounding floor of 2gM eps
    (|seed| + cond_1(I - R) sum_i |p_i| |s_i|), s = (I - R)^{-1} q.

    Only weight 1 is served.  At weight N >= 2 the seed's basis points are
    limit points inside the discs the Taylor modes live on, so the
    resolvent diverges as M grows; those kernels come from the Poincare
    sum :meth:`schottky.forms.SurfaceForms.recursion_kernel`.
    """
    if weight < 1:
        raise InvalidParameterError("weight must be >= 1")
    if weight > 1:
        raise ConfigurationError(
            f"the mode resolvent serves weight 1 only, got weight {weight}; "
            "use SurfaceForms.recursion_kernel for weight >= 2 kernels"
        )
    _require_valid(sp, modes)
    x = require_in_domain(sp, x, "x")
    roots = _sqrt_rho(sp, branch_signs)
    y = require_in_domain(sp, y, "y")
    p = _pole_basis(sp, roots, modes, x)
    q = _seed_moments(sp, roots, modes, y)
    R = _coupling(sp, roots, modes)
    keep = _leading_modes(sp.genus, modes)

    def solve(p: np.ndarray, q: np.ndarray, R: np.ndarray) -> tuple[complex, float]:
        system = np.eye(R.shape[0], dtype=np.complex128) - R
        lu, piv = lu_factor(system)
        rcond, _ = zgecon(lu, np.abs(system).sum(axis=0).max())
        cond = 1.0 / rcond if rcond > 0.0 else math.inf
        if not cond < MAX_CONDITION:
            raise ConvergenceError(
                f"mode system ill-conditioned (cond {cond:.3g}); the "
                "expansion does not converge for these parameters"
            )
        solved = lu_solve((lu, piv), q)
        return complex(p @ solved), float(cond * (np.abs(p) @ np.abs(solved)))

    correction, scale = solve(p, q, R)
    half, _ = solve(p[keep], q[keep], R[np.ix_(keep, keep)])
    seed = kernel_seed(x, y, (0.0,))
    # The solve and the dot product round by about 2gM ulps of the terms,
    # which the drift cannot see once both cutoffs agree bit for bit.
    floor = len(p) * EPS * (abs(seed) + scale)
    return Estimate(seed + correction, abs(correction - half) + floor)


def heisenberg_partition(
    sp: SchottkyParams,
    modes: int,
    branch_signs: Sequence[int] | None = None,
) -> PartitionValue:
    """Oscillator partition function det(I - R)^{-1/2} at weight 1.

    The principal square root is taken; for admissible parameters the
    determinant sits near 1.  A power-iteration estimate of the spectral
    radius of R must come out below 1, otherwise the mode expansion is
    meaningless and the computation refuses to report a number.
    """
    R = mode_coupling_matrix(sp, modes, branch_signs)
    keep = _leading_modes(sp.genus, modes)

    def det_at(R: np.ndarray) -> tuple[complex, float]:
        radius = _spectral_radius_estimate(R)
        if radius >= 1.0:
            raise ConvergenceError(
                f"coupling-matrix spectral radius estimate {radius:.3f} "
                ">= 1; the oscillator sum diverges for these parameters"
            )
        system = np.eye(R.shape[0], dtype=np.complex128) - R
        lu, piv = lu_factor(system)
        det = complex(np.prod(np.diag(lu)))
        swaps = int(np.sum(piv != np.arange(len(piv))))
        if swaps % 2:
            det = -det
        return det, radius

    det_full, radius = det_at(R)
    det_half, _ = det_at(R[np.ix_(keep, keep)])
    value = 1.0 / cmath.sqrt(det_full)
    half_value = 1.0 / cmath.sqrt(det_half)
    # The LU of the 2gM-square system rounds the determinant by about 2gM
    # ulps, which the drift cannot see once both cutoffs agree bit for bit.
    floor = 2 * sp.genus * modes * EPS * abs(value)
    return PartitionValue(value, abs(value - half_value) + floor, radius)
