"""Mode-matrix route to the weight-1 forms and the boson partition sum.

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

The identity part p^T q of the resolvent is the sum over the 2g
one-letter words, and its terms are the only ones that do not decay with
the mode index where x or y lies on a circle.  So every evaluation is
split:

    psi_1(x, y) = seed(x, y) + sum_{|gamma| = 1} seed(gamma x, y) gamma'(x)
                  + p(x)^T R (I - R)^{-1} q(y),

the one-letter words in closed form, and only the last term truncated
at M; it decays geometrically on the circles too.  R (I - R)^{-1} q is
R S with S = (I - R)^{-1} q: one solve on the cached factors and one
product with the kept R.  The bidifferential is d/dy of psi_1, so the
same split with the closed-form y-derivative q' of the moments gives

    omega(x, y) = 1/(x - y)^2 + sum_{|gamma| = 1} gamma'(x) / (gamma x - y)^2
                  + p(x)^T R (I - R)^{-1} q'(y),

and the projective connection s(x) is 6 times the same at y = x without
the identity term.  :func:`bidifferential_via_modes` returns the omega
matrix of a point set, with s on its diagonal, from one multi-right-hand
side solve; the correlators of :mod:`schottky.correlators` take their
omega and s from the same solve (:func:`_omega_matrix`, which returns
nothing else) and Z from :func:`heisenberg_partition`.

Block (a, b) of R is C(m+n+1, m) u_ab[m] v_ab[n], u_ab and v_ab the
powers 1..M of the ratios -s_a / d and s_b / d, d = w_{-a} - w_b (see
:func:`mode_coupling_matrix`).  The discs at w_{-a} and w_b are disjoint,
so both ratios lie inside the unit disc: the powers cannot overflow,
however close the centres, and the binomials, capped by MAX_SYSTEM_DIM,
are the only factors that grow.

The coupling entries carry half-integer powers of the handle parameters
rho through s_h = sqrt(rho_h), principal branch (a negative real rho
counts as rho + 0i).  That choice is safe across the branch cut:
flipping the sign of s_h conjugates R by a diagonal +-1 matrix (and
flips p and q to match), so every assembled value is continuous where
the principal root jumps.

The Fredholm determinant gives the free-boson (Heisenberg) oscillator
partition function det(I - R)^{-1/2}, principal square root.

Every reading runs on one factored system per surface and cutoff: R is
assembled once, column-major, and kept; I - R, its contiguous negated
copy, is factored in place by zgetrf; Z is read off the factors.  They
are the only complex N x N arrays a system allocates (N = 2gM), 230 KB
each at genus 3 and M = 20: above glibc's initial 128 KiB mmap
threshold, so while it stays there each is mapped and zero-filled afresh
(a copy of R then takes 87 us, against 7 us from the heap, on a 2-vCPU
x86-64 host).  The system passes one gate, else the computation refuses with
:class:`~schottky.forms.ConvergenceError`: kappa = ||R||_1 (largest
column sum of |R|), which bounds the spectral radius of R, must be below
1.  Finite parameters are the admissibility scan's to check
(:func:`~schottky.group.validate`: at an infinite centre every block
that touches it vanishes and kappa stays finite); kappa's nan test
covers what the assembly produces, as a nan or inf entry makes kappa
nan or inf.  As ||I - R||_1 <= 1 + kappa and ||(I - R)^{-1}||_1 <=
1 / (1 - kappa), it bounds cond_1(I - R) by (1 + kappa) / (1 - kappa)
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).  An
LRU cache keeps CACHE_ENTRIES systems, keyed by parameters and cutoff,
built from the handle record that SurfaceForms reads
(``forms._surface``), so both routes check a parameter set once.

A system computes once what does not depend on the points: R, |R| and
the factors, kappa, Z, the omitted entry sum, the surface record, the
mode ramp 1..M and the rounding factor of :func:`_split_sums`; per
kernel it keeps a truncation certificate, formed by the first request
that needs it.  A request looks the system up once and hands it, with
its points and kernel, to each helper: :func:`_split_sums`,
:func:`_point_terms`, :func:`_truncation` and :func:`_vector_bounds`
take (system, xs, ys, kernel) and read the record, the cutoff M (the
ramp's length) and the handle letters of a pole error from the system,
not from the parameters.  A request makes one pass over its points
(:func:`_point_terms`): it forms 1/(x_i - w_b) and 1/(w_{-b} - y_j) once,
and from them the one-letter words with their floors and the vectors p
and q; then one solve on the factors with a right-hand side per y_j and
the two products with R and |R|.  An omega matrix forms its points'
pairwise differences once, for the coincident-point check, the identity
word, its floor and the diagonal.

Tails are bounds, not drifts.  The entries of R beyond the cutoff M have
a closed-form sum (:func:`_omitted_sums`), and so does the whole
operator.  Bornemann's perturbation bound for Fredholm determinants
turns them into a bound on det(I - R) at M against the untruncated
operator, and a Neumann bound on |R| with kappa does the same for the
resolvent (:func:`_truncation`).  Per kernel (psi_1 or omega, each a
:class:`_Kernel` record of its poles) a system also keeps a certificate:
that bound at a virtual pair nearer every disc than the domain gate
admits, so a bound at every pair of the closed domain.  A request whose
smallest rounding floor is at least the certificate is charged it and
skips the per-pair series; as the certificate depends on the system
alone, no tail depends on which requests ran before.  The certified
region is that of kappa < 1: on a genus-2 surface with centres +-1.35
and +-1.4i and equal radii f * 1.945/2 (f = 1 touches), f = 0.5 has
kappa = 0.27 and f = 0.8 is refused (kappa = 1.05, while the true
spectral radius is 0.30).  The bounds are rigorous but not tight: on the
genus-3 test surface at M = 5 the determinant's bound gives Z a tail of
6e-7 where doubling M moves Z by 1e-17, so :func:`mode_cutoff_for`,
which picks the smallest M whose determinant bound meets a tolerance,
errs towards larger M.  The layer is weight 1 only (see
:func:`kernel_via_modes`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dgemm, zgemm
from scipy.linalg.lapack import zgetrf, zgetrs

from schottky.forms import (
    CACHE_ENTRIES,
    EPS,
    POLE_GUARD,
    ConfigurationError,
    ConvergenceError,
    Estimate,
    _origin_exterior,
    _orbit_ulps,
    _pole_error,
    _Surface,
    _surface,
)
from schottky.group import (
    DOMAIN_SLACK,
    InvalidParameterError,
    SchottkyParams,
    require_in_domain,
    require_integer,
    require_positive,
)

__all__ = [
    "PartitionValue",
    "mode_coupling_matrix",
    "mode_cutoff_for",
    "kernel_via_modes",
    "bidifferential_via_modes",
    "heisenberg_partition",
]

# Mode systems of larger dimension 2gM are refused before assembly: past
# it the binomials C(2M - 1, M) of a genus-1 system overflow a float.  They
# are the only factors of R that grow; its ratio powers are below 1.
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
    """R, |R| (``size``) and the LU factors of I - R, read-only, with Z and
    what every request on the system reads.

    ``contraction`` is kappa = ||R||_1 < 1, the one gate, ``omitted`` a
    bound on the entry sum of |R| beyond the cutoff, and ``partition``
    Z = det(I - R)^{-1/2}.  |R| is kept for every omega call's rounding
    floor: recomputing it costs 33 us a call at genus 3 and M = 20.
    ``surface`` is the parameters' record (``forms._surface``), ``ramp``
    the mode numbers 1..M as floats, read-only, and ``ulps`` the split
    sums' rounding factor (2gM + 4(M + 1)) (1 + kappa) / (1 - kappa).
    ``certificates``, mutable and ignored by equality, maps each kernel
    record (:class:`_Kernel`) to its :func:`_truncation` bound over the
    whole domain.  The system is the one handle of a request's helpers:
    they read the record, the handle letters (``surface.letters``) and
    the cutoff M = ``len(ramp)`` here.
    """

    R: np.ndarray
    size: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    contraction: float
    omitted: float
    partition: PartitionValue
    surface: _Surface
    ramp: np.ndarray
    ulps: float
    certificates: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A mode-route kernel K(X, y) of X = gamma x, stated once, as its poles.

    ``poles`` lists (sign, at_y, order): K is the sum of sign / (X - P)^order
    with P = y where ``at_y`` and P = 0 elsewhere, order 1 or 2 (the degrees
    in the mode index that :func:`_series` sums).  The orbit sum of
    K(gamma x, y) gamma'(x) is psi_1 for ``_PSI``, K = 1/(X - y) - 1/X, and
    omega = d psi_1 / dy for ``_OMEGA``, K = 1/(X - y)^2.  All else the mode
    route knows of a kernel is read from its poles:

    * the moment vector: entry (a, m) is -s_a^{m+1} times the m-th Taylor
      coefficient of K in X at w_{-a}, which for a pole of order k at P is
      sign C(m + k - 1, m) z_a(P)^{m+1} / (w_{-a} - P)^{k-1}, with
      z_a(P) = -s_a / (w_{-a} - P).  So psi_1 has q = z_a(y)^{m+1} -
      z_a(0)^{m+1} and omega q' = (m + 1) z_a(y)^{m+1} / (w_{-a} - y);
    * its majorants (:func:`_vector_bounds`): |entry (b, n)| is at most the
      sum over poles of (n + 1)^{k-1} sigma^{n+1} / |w_{-b} - P|^{k-1},
      sigma = r_b / |w_{-b} - P|, one (coefficient, ratio, power) triple of
      :func:`_series` per pole;
    * the rounding of a term at X (:func:`_pole_sums`): kappa =
      sum order |X| / |X - P| and drift = sum order r / |X - P|, the
      poles' shares in :func:`~schottky.forms._orbit_ulps`.

    ``term(gx, dgx, y, diff)`` is the one-letter words' term
    K(gamma x, y) gamma'(x) in closed form, at gx = gamma x, dgx = gamma'(x)
    and diff = gx - y; ``name`` is what its pole guard calls the kernel.
    Records hash by identity: a system keys its certificates by them.
    """

    name: str
    poles: tuple[tuple[float, bool, int], ...]
    term: Callable[..., np.ndarray]


_PSI = _Kernel("weight-1 kernel", ((1.0, True, 1), (-1.0, False, 1)),
               lambda gx, dgx, y, diff: dgx / gx * (y / diff))
_OMEGA = _Kernel("bidifferential", ((1.0, True, 2),), lambda gx, dgx, y, diff: dgx / (diff * diff))


def _powers(z: np.ndarray, modes: int) -> np.ndarray:
    """z^{k+1} for k = 0..modes-1 on a new last axis, by doubling.

    With entries 0..k-1 filled, entries k..2k-1 are entries 0..k-1 times
    entry k-1, one product of the whole slice: ceil(log2(modes)) products
    in all.  Entry j is formed from entries j - k and k - 1, k the largest
    power of two at most j, whatever ``modes`` is, so it does not depend
    on ``modes`` (numpy's cumprod does: its vector loop may fuse the
    multiply-adds differently by length).  By induction entry j carries
    (j - k) + (k - 1) + 1 = j complex products, so it is off by at most
    2 j eps of its size.
    """
    out = np.empty((modes,) + z.shape, dtype=np.complex128)
    out[0] = z
    k = 1
    while k < modes:
        n = min(k, modes - k)
        np.multiply(out[:n], out[k - 1], out=out[k : k + n])
        k += n
    return out.transpose(*range(1, out.ndim), 0)


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _binomials(modes: int) -> np.ndarray:
    """Read-only table C(m + n + 1, m) for m, n < modes, built once per cutoff."""
    binom = np.array([[math.comb(m + n + 1, m) for n in range(modes)] for m in range(modes)], float)
    binom.flags.writeable = False
    return binom


def mode_coupling_matrix(sp: SchottkyParams, modes: int) -> np.ndarray:
    """Coupling matrix R of the mode system (square, 2*genus*modes).

    Block (a, b) vanishes when b = -a (a word may not continue with the
    inverse letter); otherwise, with d = w_{-a} - w_b,

        R[(a,m),(b,n)] = C(m+n+1, m) u_ab[m] v_ab[n],
        u_ab[m] = (-s_a / d)^{m+1},  v_ab[n] = (s_b / d)^{n+1},

    the m-th Taylor coefficient at w_{-a} of the pole-basis entry (b, n)
    dressed with the same s-weights as the moment vector.  The discs at
    w_{-a} and w_b are disjoint, so |s_a| and |s_b| are below |d|: no
    ratio reaches 1 in modulus, no power can overflow, and only the
    binomials grow, up to C(2M - 1, M) (see MAX_SYSTEM_DIM).  The ratios
    of every block, zero at b = -a, are raised in one :func:`_powers` pass,
    and R is formed by two broadcast products, (v C) u, in its
    column-major layout.
    """
    modes = _require_cutoff(sp, modes)
    geo = _surface(sp)
    n = len(geo.centers)
    d = geo.partners[geo.row] - geo.centers[geo.col]
    ratios = np.zeros((2, n, n), complex)
    ratios[:, geo.row, geo.col] = -geo.roots[geo.row] / d, geo.roots[geo.col] / d
    u, v = _powers(ratios, modes)
    # Indices (b, n, a, m), so R is column-major.
    R = np.multiply(v.transpose(1, 2, 0)[..., None], _binomials(modes).T[:, None, :], order="C")
    R *= u.transpose(1, 0, 2)[:, None]
    return R.reshape(n * modes, n * modes).T


def _omitted_sums(sp: SchottkyParams, cutoffs) -> np.ndarray:
    """Closed-form bounds on sum |R| over the entries beyond each cutoff M.

    With d = w_{-a} - w_b, lead = |s_a| / |d| and u = (|s_a| + |s_b|) / |d|,
    the entries of block (a, b) with m + n = k sum to at most lead u^{k+1}
    (a binomial sum), so those with a mode index >= M sum to at most
    lead u^{M+1} / (1 - u).  u < 1 says exactly that the discs at w_{-a}
    and w_b are disjoint.  At M = 0 the bound covers the whole operator.
    """
    geo = _surface(sp)
    ra, d = geo.radii[geo.row], geo.gap
    u = (ra + geo.radii[geo.col]) / d
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
    tol = require_positive(tol, "tol")
    cap = _require_cutoff(sp, cap)
    sums = _omitted_sums(sp, range(cap + 1))
    for m in range(1, cap):
        if _determinant_truncation(sums[m], sums[0]) <= tol:
            return m
    return cap


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _system(sp: SchottkyParams, modes: int) -> _Factored:
    """R and I - R at a cutoff that passed :func:`_require_cutoff`, factored, gated, and Z.

    R is column-major; after the gate, whose nan test covers the assembly
    (the parameters passed validate's finiteness scan), zgetrf factors
    I - R, its contiguous negated copy, in place.  R and the factors are
    the only complex N x N arrays it allocates.  A zero pivot is refused.
    The record, ramp and rounding factor that every request on the system
    reads are formed here, once.
    """
    R = mode_coupling_matrix(sp, modes)
    size = np.abs(R, order="C")  # row-major, so kappa sums each column row by row
    contraction = float(size.sum(axis=0).max())
    if not contraction < 1.0:  # a nan bound refuses too
        raise ConvergenceError(
            f"contraction bound ||R||_1 = {contraction:.3g} on the coupling matrix's "
            "spectral radius is not below 1; the mode expansion is not certified "
            "to converge for these parameters"
        )
    # Negated as float64 pairs, 4x faster; only a C-order R (as tests patch in) is copied.
    lu = np.negative(np.asfortranarray(R).T.view(np.float64)).view(np.complex128).T
    np.einsum("ii->i", lu)[:] += 1.0
    lu, piv, info = zgetrf(lu, overwrite_a=True)
    if info:
        raise ConvergenceError(f"pivot {info} of the LU factors of I - R is exactly zero")
    ramp = np.arange(1.0, modes + 1.0)
    for array in (R, size, lu, piv, ramp):
        array.flags.writeable = False
    omitted, whole = _omitted_sums(sp, (modes, 0))
    # det(I - R): the product of U's diagonal, signed by the row swaps.
    det = complex(np.prod(np.diag(lu)))
    if np.count_nonzero(piv != np.arange(len(piv))) % 2:
        det = -det
    value = 1.0 / cmath.sqrt(det)
    truncation = _inverse_root_change(det, _determinant_truncation(float(omitted), float(whole)))
    # The LU of the 2gM-square system rounds the determinant by about 2gM ulps.
    floor = 2 * sp.genus * modes * EPS * abs(value)
    partition = PartitionValue(value, truncation + floor, contraction)
    ulps = (2 * sp.genus * modes + 4 * (modes + 1)) * (1.0 + contraction) / (1.0 - contraction)
    return _Factored(R, size, lu, piv, contraction, float(omitted), partition, _surface(sp), ramp, ulps)


def _series(X, Y, power: int, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of C(m+n+1, m) X^m Y^n (n + 1)^power over all m, n >= 0, and over m + n >= modes.

    The first is exact: 1 / ((1 - X)(1 - X - Y)) at power 0 and
    1 / (1 - X - Y)^2 at power 1.  The second bounds the terms of total
    degree k = m + n by (k + 1)^power (X + Y)^{k+1} / Y, as
    sum_{m+n=k} C(k+1, m) X^m Y^n = ((X + Y)^{k+1} - X^{k+1}) / Y.  Both
    are infinite unless X + Y < 1.
    """
    u = X + Y
    ok = u < 1.0
    whole = ok.all()
    if not whole:
        u, X = np.where(ok, u, 0.0), np.where(ok, X, 0.0)
    rest = 1.0 - u
    head = u ** (modes + 1) / (rest * Y)
    if power == 0:
        full = 1.0 / ((1.0 - X) * rest)
    else:
        full = 1.0 / (rest * rest)
        head *= (modes + 1 - modes * u) / rest
    if whole:
        return full, head
    return np.where(ok, full, math.inf), np.where(ok, head, math.inf)


def _vector_bounds(
    system: _Factored, xs: np.ndarray, ys: np.ndarray, kernel: _Kernel
) -> tuple[np.ndarray, ...]:
    """Entry sums of |p(x_i)|^T |R| and |R| |q(y_j)|, q the kernel's moments, whole and past the cutoff.

    Over the untruncated operator: per x_i the sums of |p|^T |R| and of
    |p|^T |D|, per y_j those of |R| |q| and |D| |q|, and per pair
    |p|^T |D| |q|, D being the entries of R with a mode index >= M.
    Block (a, b) has |R| entries lead C(m+n+1, m) alpha^m beta^n with
    alpha = r_a / d, beta = r_b / d, lead = alpha beta and
    d = |w_{-a} - w_b|; |p_(a,m)(x)| = t^{m+1} / |x - w_a| with
    t = r_a / |x - w_a|; and |q_(b,n)(y)| is at most the kernel's pole
    majorants (:class:`_Kernel`), sigma = r_b / |w_{-b} - y| at a pole at y.
    So every sum is a :func:`_series` per block and pole.  A point within
    the slack of a circle (t or sigma a hair above 1) keeps them finite, as
    the products decay at alpha t + beta < 1.  A last row and column are
    those of a virtual pair nearer every disc than require_in_domain
    admits, at t = sigma = 1 / (1 - 2 DOMAIN_SLACK) in every block.  With
    the 1/Y of :func:`_series` multiplied through, each sum is a power
    series in t and sigma with nonnegative coefficients, so it bounds
    every admitted pair's.  The record and the cutoff M are the system's.
    """
    geo, modes, virtual = system.surface, len(system.ramp), 1.0 - 2.0 * DOMAIN_SLACK
    ra, rb = geo.radii[geo.row], geo.radii[geo.col]
    alpha, beta = ra / geo.gap, rb / geo.gap
    dx = np.concatenate([np.abs(xs[:, None] - geo.centers[geo.row]), [ra * virtual]])
    t = ra / dx
    weight = alpha * beta * t / dx
    full, tail = _series(alpha * t, beta, 0, modes)
    rows_full, rows_tail = (weight * full).sum(axis=-1), (weight * tail).sum(axis=-1)
    dy = np.concatenate([np.abs(geo.partners[geo.col] - ys[:, None]), [rb * virtual]])
    cols_full = cols_tail = both = 0.0
    for _, at_y, order in kernel.poles:
        # |w_{-b} - P|, and the pole's (coefficient, ratio, power).
        dist = dy if at_y else np.ones_like(dy) * np.abs(geo.partners[geo.col])
        coef, sigma, power = (1.0 if order == 1 else 1.0 / dist), rb / dist, order - 1
        scale = alpha * beta * coef * sigma
        full, tail = _series(alpha, beta * sigma, power, modes)
        cols_full = cols_full + (scale * full).sum(axis=-1)
        cols_tail = cols_tail + (scale * tail).sum(axis=-1)
        _, tail = _series((alpha * t)[:, None, :], beta * sigma, power, modes)
        both = both + (weight[:, None, :] * (coef * sigma) * tail).sum(axis=-1)
    return rows_full, rows_tail, cols_full, cols_tail, both


def _truncation(system: _Factored, xs: np.ndarray, ys: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """Bound on what the modes beyond the cutoff add to p(x_i)^T R (I - R)^{-1} q(y_j).

    Pad the truncated R with zeros to B, and let D = R - B.  Entrywise
    |sum_k p^T (R^k - B^k) q| <= P^T ((I - A)^{-1} - (I - |B|)^{-1}) Q
    with P = |p|, Q = |q|, A = |R| = |B| + |D|, and that difference is
    (I - A)^{-1} |D| (I - |B|)^{-1}.  Expanding both inverses once,

        P^T |D| Q + (P^T A)(I - A)^{-1}(|D| Q) + (P^T |D|)(I - |B|)^{-1}(|B| Q)
        + (P^T A)(I - A)^{-1} |D| (I - |B|)^{-1} (|B| Q),

    where every vector has finite entry sums (:func:`_vector_bounds`)
    even on the circles, as p and q only meet R.  ||B||_1 is the
    contraction bound kappa, the omitted entry sum w bounds ||D||_1, so
    ||(I - |B|)^{-1}||_1 <= 1 / (1 - kappa) and
    ||(I - A)^{-1}||_1 <= 1 / (1 - kappa - w).  The bound is a positive
    combination of those sums, so at the virtual pair of
    :func:`_vector_bounds` it bounds the truncation at every pair of the
    closed domain: that entry is kept in ``system.certificates``.
    """
    rows_full, rows_tail, cols_full, cols_tail, both = _vector_bounds(system, xs, ys, kernel)
    kappa, omitted = system.contraction, system.omitted
    inner, outer = 1.0 - kappa - omitted, 1.0 - kappa
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bound = both + (
            rows_full[:, None] * cols_tail + rows_tail[:, None] * (inner / outer) * cols_full
            + rows_full[:, None] * (omitted / outer) * cols_full
        ) / inner
    # An infinite sum times one that underflowed to zero is infinite, and
    # nothing is bounded unless kappa + w < 1.
    bound = np.where(np.isnan(bound) | (not kappa + omitted < 1.0), math.inf, bound)
    system.certificates.setdefault(kernel, float(bound[-1, -1]))
    return bound[:-1, :-1]


def _pole_sums(kernel: _Kernel, size, dist, scale):
    """sum over the kernel's poles P of order * scale / |X - P|, given
    size = |X| and dist = |X - y|: kappa at scale |X|, drift at scale r."""
    total = None
    for _, at_y, order in kernel.poles:
        share = order * scale / (dist if at_y else size)
        total = share if total is None else total + share
    return total


def _point_terms(
    system: _Factored, xs: np.ndarray, ys: np.ndarray, kernel: _Kernel
) -> tuple[np.ndarray, ...]:
    """One pass over a request's points: the one-letter words' sums and
    floors at each pair (x_i, y_j), the pole-basis vectors p(x_i) and the
    kernel's moment vectors at y_j, one row per point.

    All are read from h = 1/(x_i - w_b) and 1/(w_{-b} - y_j), each formed
    once.  gamma_a x = w_{-a} + rho_a h and gamma_a'(x) = -rho_a h^2 enter
    the record's closed-form ``term``; each term is charged
    :func:`~schottky.forms._orbit_ulps` at k = 1 with the kappa and drift
    of the kernel's poles, plus one ulp per later addition.  A point
    within POLE_GUARD of gamma_a x is refused with the Poincare route's
    error, naming the word (a,).  Entry (b, n) of p is s_b^{n+1} /
    (x - w_b)^{n+2}, h times the powers of s_b h; the moment entries are
    those of the kernel's poles (:class:`_Kernel`).  The powers of s_b h
    and of z_a(P) at P = y_j, and at P = 0 only for a kernel with a pole
    there, are formed in one :func:`_powers` pass over them stacked; each
    entry is the same product whatever it is stacked with.  Layout: signed
    handles in the order 1, -1, 2, -2, ... (outer), mode index 0..M-1
    (inner); each row has 2gM entries.
    """
    geo = system.surface
    h, inv_y = 1.0 / (xs[:, None] - geo.centers), 1.0 / (geo.partners - ys[:, None])
    gx, dgx = geo.partners + geo.rho * h, -geo.rho * h * h
    diff = gx[:, None, :] - ys[None, :, None]
    dist = np.abs(diff)
    if dist.size and dist.min() < POLE_GUARD:
        raise _pole_error(kernel.name, (geo.letters[np.argmin(dist) % len(geo.centers)],))
    size = np.abs(gx)[:, None, :]
    words = kernel.term(gx[:, None, :], dgx[:, None, :], ys[None, :, None], diff)
    kappa, drift = _pole_sums(kernel, size, dist, size), _pole_sums(kernel, size, dist, geo.radius)
    ulps = _orbit_ulps(1, kappa, drift, 2.0, geo.cond) + len(geo.centers) + 2
    rows = [geo.roots * h, -geo.roots * inv_y]
    if not all(at_y for _, at_y, _ in kernel.poles):
        rows.append([-geo.roots / geo.partners])
    powers = _powers(np.concatenate(rows), len(system.ramp))
    terms = []
    for sign, at_y, order in kernel.poles:
        term = powers[len(xs) : len(xs) + len(ys)] if at_y else powers[-1:]
        if order == 2:
            term = (inv_y if at_y else 1.0 / geo.partners)[..., None] * term * system.ramp
        terms.append(term if sign > 0 else -term)
    p, q = h[..., None] * powers[: len(xs)], sum(terms[1:], terms[0])
    floors = EPS * ((np.abs(words.real) + np.abs(words.imag)) * ulps).sum(axis=-1)
    return words.sum(axis=-1), floors, p.reshape(len(xs), -1), q.reshape(len(ys), -1)


def _split_sums(
    system: _Factored, xs: np.ndarray, ys: np.ndarray, kernel: _Kernel
) -> tuple[np.ndarray, np.ndarray]:
    """Every word but the identity at each pair (x_i, y_j): values and tails.

    The one-letter words in closed form plus p(x_i)^T R S, S the solution
    of (I - R) S = q for all y_j at once, q the kernel's moments.  Per
    point it forms what :func:`_point_terms` does, in one pass; the
    factors, R and |R|, the surface record, the ramp 1..M and the rounding
    factor below come from the system, formed once per system.  R S is
    a product, not S - q: on a circle q does not decay with the mode
    index, and S - q would cancel it.  The tail is the truncation bound
    of :func:`_truncation`, the one-letter floors, and a rounding floor of
    (2gM + 4(M + 1)) eps c |p|^T |R| |S|, c = (1 + kappa) / (1 - kappa)
    the gate's bound on cond_1(I - R): the solve and the products round
    by about 2gM ulps of the terms, and the powers of p and q by
    2(M + 1) each.  Where the system's certificate is at most the
    smallest floor, it is charged in place of the per-pair bound, at most
    doubling a tail, and the series are skipped.  The certificate depends
    on the system alone, so the tail does not depend on earlier requests.
    """
    values, floors, P, Q = _point_terms(system, xs, ys, kernel)
    S, _ = zgetrs(system.lu, system.piv, Q.T)
    # R S and |R| |S| on scipy's BLAS, which did the solve: numpy bundles
    # its own, and two thread pools contend.  On two or more columns these
    # argument orders round as numpy's @ does.
    values += P @ zgemm(1.0, S, system.R, trans_a=1, trans_b=1).T
    floors += system.ulps * EPS * (np.abs(P) @ dgemm(1.0, system.size.T, np.abs(S), trans_a=1))
    floor = floors.min()
    if system.certificates.get(kernel, math.inf) > floor:
        bound = _truncation(system, xs, ys, kernel)
        if system.certificates[kernel] > floor:
            return values, floors + bound
    return values, floors + system.certificates[kernel]


def _identity_floor(kernel: _Kernel, term: np.ndarray, size, dist) -> np.ndarray:
    """Rounding of the identity word's term at X = x, size = |x| and dist =
    |x - y|, as :func:`~schottky.forms._orbit_ulps` at k = 0."""
    kappa = _pole_sums(kernel, size, dist, size)
    return EPS * (np.abs(term.real) + np.abs(term.imag)) * _orbit_ulps(1, kappa, 0.0, 1.0, 0.0)


def kernel_via_modes(
    sp: SchottkyParams,
    weight: int,
    modes: int,
    x: complex,
    y: complex,
) -> Estimate:
    """Third-kind differential evaluated through the mode resolvent.

    seed(x, y) + the one-letter words in closed form + p(x)^T R (I - R)^{-1}
    q(y) with the seed 1/(x - y) - 1/x, solved on the cached LU factors of
    the mode system (see the module docstring).  The seed is the identity
    word's term of the kernel record, ``_PSI.term`` at gamma x = x and
    gamma'(x) = 1, (1/x) (y / (x - y)), the closed form of the one-letter
    words.  Before any factorization it refuses an origin inside a disc,
    then the cutoff, then x or y outside the domain or |x - y| or |x| <
    POLE_GUARD (the identity's poles); before the solve, y within
    POLE_GUARD of gamma_a x, as third_kind_form does; with
    ConvergenceError, kappa = ||R||_1 not below 1, the one gate.  The
    tail is the bound of :func:`_truncation`, finite on the circles, plus
    the rounding floors of :func:`_split_sums` and of the identity term
    (:func:`_identity_floor`).

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
    _origin_exterior(sp)
    modes = _require_cutoff(sp, modes)
    x = require_in_domain(sp, x, "x")
    y = require_in_domain(sp, y, "y")
    if abs(x - y) < POLE_GUARD or abs(x) < POLE_GUARD:
        raise _pole_error(_PSI.name, ())
    values, tails = _split_sums(_system(sp, modes), np.array([x]), np.array([y]), _PSI)
    identity = _PSI.term(x, 1.0, y, x - y)
    value = identity + complex(values[0, 0])
    floor = _identity_floor(_PSI, np.array(identity), abs(x), abs(x - y))
    return Estimate(value, float(tails[0, 0] + floor) + EPS * abs(value))


def _insertion_points(sp: SchottkyParams, points: Sequence[complex]) -> tuple[np.ndarray, ...]:
    """The points as an array x and their differences x_i - x_j, 1 on the
    diagonal: the library's one check of insertion points, each in the
    fundamental domain ("insertion point k") and no two, equal ones too,
    closer than POLE_GUARD (refused as the identity word's pole).  The
    parameters' record (:func:`~schottky.forms._surface`) is looked up
    first, so an inadmissible set is refused by its parameters."""
    _surface(sp)
    xs = np.array([require_in_domain(sp, p, f"insertion point {k}") for k, p in enumerate(points)])
    diff = xs[:, None] - xs
    np.fill_diagonal(diff, 1.0)
    if diff.size and np.abs(diff).min() < POLE_GUARD:
        raise _pole_error(_OMEGA.name, ())
    return xs, diff


def bidifferential_via_modes(
    sp: SchottkyParams, modes: int, points: Sequence[complex]
) -> list[list[Estimate]]:
    """omega(x_i, x_j) for i != j and s(x_i) on the diagonal, from the mode resolvent.

    Row i, column j of the result is the bidifferential of the normalized
    second kind at (x_i, x_j), or at i = j the projective connection
    s(x_i) = 6 lim_{y -> x} (omega(x, y) - 1/(x - y)^2), both as
    :meth:`schottky.forms.SurfaceForms.bidifferential` and
    ``projective_connection`` sum them.  The cutoff is checked first; the
    rest, the parameters' record, then the points' gates, and each entry's
    tail, is :func:`_omega_matrix`'s, one Estimate per entry of its arrays.
    """
    omega, tails = (a.tolist() for a in _omega_matrix(sp, _require_cutoff(sp, modes), points))
    return [[Estimate(v, t) for v, t in zip(*rows)] for rows in zip(omega, tails)]


def _omega_matrix(
    sp: SchottkyParams, modes: int, points: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """omega(x_i, x_j) off the diagonal and s(x_i) on it, and their tails, as
    two arrays, at a cutoff that passed :func:`_require_cutoff`.

    Both come from one solve with a right-hand side q'(x_j) per point (see
    the module docstring).  The parameters, then the points
    (:func:`_insertion_points`), are checked before the system is
    factored, and no points give two empty arrays with no system looked
    up; a point within POLE_GUARD of another's one-letter image before
    the solve.  The checks' pairwise
    differences x_i - x_j, 1 on the diagonal, also give the identity word
    1/(x_i - x_j)^2 and its rounding; per request the rest is one pass of
    :func:`_split_sums`, whose values and tails are taken 6 times on the
    diagonal.  Each tail is the bound of :func:`_split_sums` plus, off the
    diagonal, the identity term's rounding, plus eps |value| for the last
    addition.
    """
    xs, diff = _insertion_points(sp, points)
    if not len(xs):
        return np.empty((0, 0), complex), np.empty((0, 0))
    values, tails = _split_sums(_system(sp, modes), xs, xs, _OMEGA)
    identity = 1.0 / (diff * diff)
    omega = identity + values
    np.fill_diagonal(omega, 6.0 * values.diagonal())
    total = tails + _identity_floor(_OMEGA, identity, np.abs(xs)[:, None], np.abs(diff))
    np.fill_diagonal(total, 6.0 * tails.diagonal())
    return omega, total + EPS * np.abs(omega)


def heisenberg_partition(sp: SchottkyParams, modes: int) -> PartitionValue:
    """Oscillator partition function det(I - R)^{-1/2} at weight 1, principal root.

    Read once per cached system off the diagonal of its LU factors; for
    admissible parameters the determinant sits near 1.  It refuses as
    :func:`_system` does, at kappa = ||R||_1 >= 1 or a zero pivot.  The
    tail is the determinant's truncation bound carried through det^{-1/2}
    (infinite when it reaches the branch cut), plus a rounding floor of
    2gM eps |value|.
    """
    return _system(sp, _require_cutoff(sp, modes)).partition
