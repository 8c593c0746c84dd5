"""Closed-form correlation functions: free boson, Virasoro, even lattices.

Every n-point function of the rank-one free boson (Heisenberg) current
reduces to the partition function times a pairing sum: the sum over
fixed-point-free involutions of the insertion labels of products of the
bidifferential.  Virasoro insertions reduce to the projective connection
and the bidifferential.  Even-lattice partition functions factor through
the Siegel theta function of the period matrix.

The Siegel theta function of a rank-d lattice at genus g is the Riemann
theta function of Omega (x) Gram on Z^(g d).  Its sum is truncated to
the ellipsoid N^T (Im Omega (x) Gram) N <= r2, enumerated block by block
with the Fincke-Pohst recursion (Fincke and Pohst, Math. Comp. 1985).
r2 is the smallest radius at which a rigorous bound on the omitted terms
is at most the caller's tol: a lattice-point count by Voronoi cells and
the covering radius, integrated against the Gaussian, in the spirit of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann
theta functions" (Math. Comp. 2004).  ``lattice_partition`` takes tol
from the SurfaceForms policy; the reported tail is that bound plus a
rounding floor.

The surface data (bidifferential, projective connection, period matrix)
comes from a SurfaceForms evaluator; the partition function from the
mode-matrix determinant.  A call's ``modes`` sets the mode cutoff; when
it is None the cutoff comes from the policy: the smallest one, up to
``mode_cutoff``, whose bound on the determinant's truncation meets
``tol``.  Z (once per mode cutoff) and the period matrix are computed
once per SurfaceForms and kept on it, so repeated requests on one surface
pay for them once; the kept period matrix is read-only.
Insertion points must lie in the fundamental domain.

Every call returns an :class:`~schottky.forms.Estimate`: each correlator
is its formula in Estimate arithmetic, which bounds how the tails of the
surface data propagate and adds each operation's rounding.  They are the
pairing sum times Z, s Z / 12, (s_x s_y / 144 + omega^2 / 2) Z, and
theta' Z^d, where theta' has |theta| tail(Omega) added to its tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from schottky.forms import EPS, Estimate, PeriodMatrixResult, SurfaceForms
from schottky.group import (
    InvalidParameterError,
    TruncationPolicy,
    require_in_domain,
    require_integer,
    require_positive,
)
from schottky.modes import PartitionValue, heisenberg_partition, mode_cutoff_for

__all__ = [
    "LatticeSpec",
    "pairings",
    "heisenberg_npoint",
    "virasoro_one_point",
    "virasoro_two_point",
    "siegel_theta",
    "lattice_partition",
]

# Partial vectors per block of the Siegel theta enumeration: large enough
# that numpy's per-call cost is small against the block's arithmetic,
# small enough that the n blocks alive at once take a few MB.
_THETA_BLOCK = 4096


def _gram_entry(v) -> int:
    """A Gram entry as an int; anything but an exact integer is refused."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != v:
        raise InvalidParameterError(f"Gram entries must be integers, got {v!r}")
    return n


@dataclass(frozen=True)
class LatticeSpec:
    """Even positive-definite integral lattice given by its Gram matrix.

    ``gram`` is a tuple of integer rows.  Rank 0 (empty Gram) is the
    degenerate lattice whose theta series is 1.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_gram_entry(v) for v in row) for row in self.gram)
        object.__setattr__(self, "gram", rows)
        d = len(rows)
        for row in rows:
            if len(row) != d:
                raise InvalidParameterError("Gram matrix must be square")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParameterError("Gram matrix must be symmetric")
            if rows[i][i] % 2 != 0:
                raise InvalidParameterError(
                    "lattice must be even (diagonal Gram entries divisible by 2)"
                )
        if d > 0:
            eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
            if eigs[0] <= 0.0:
                raise InvalidParameterError("Gram matrix must be positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_array(self) -> np.ndarray:
        return np.array(self.gram, dtype=float).reshape(self.rank, self.rank)


def pairings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Fixed-point-free involutions of range(n) as sorted pair tuples.

    The lowest unpaired label is always paired first, giving a
    deterministic order with (n-1)!! entries for even n and none for
    odd n.
    """
    if n % 2 or n < 0:
        return

    def rec(rest: list[int]):
        if not rest:
            yield ()
            return
        first = rest[0]
        for k in range(1, len(rest)):
            partner = rest[k]
            tail = rest[1:k] + rest[k + 1:]
            for sub in rec(tail):
                yield ((first, partner),) + sub

    yield from rec(list(range(n)))


def _partition(forms: SurfaceForms, modes: int | None) -> PartitionValue:
    """Z of the surface at the mode cutoff, computed once per cutoff.

    If ``modes`` is None the cutoff is the smallest one, up to the
    policy's ``mode_cutoff``, whose determinant bound meets its ``tol``.
    """
    if modes is None:
        if "M" not in forms._memo:
            policy = forms.policy
            forms._memo["M"] = mode_cutoff_for(forms.sp, policy.tol, policy.mode_cutoff)
        m = forms._memo["M"]
    else:
        # Gated before the lookup: 20.0 == 20 would find the Z of cutoff 20.
        m = require_integer(modes, "mode cutoff", 1)
    if ("Z", m) not in forms._memo:
        forms._memo["Z", m] = heisenberg_partition(forms.sp, m)
    return forms._memo["Z", m]


def _period_matrix(forms: SurfaceForms) -> PeriodMatrixResult:
    """The surface's period matrix, computed once; its ``omega`` is read-only."""
    if "Omega" not in forms._memo:
        result = forms.period_matrix()
        result.omega.flags.writeable = False
        forms._memo["Omega"] = result
    return forms._memo["Omega"]


def heisenberg_npoint(
    forms: SurfaceForms,
    points: Sequence[complex],
    modes: int | None = None,
) -> Estimate:
    """n-point function of the weight-one current.

    Zero for odd n; for even n the pairing sum of bidifferentials times
    the oscillator partition function (n = 0 gives the partition function
    itself, through the one empty pairing).  Every point must lie in the
    fundamental domain.
    """
    pts = tuple(
        require_in_domain(forms.sp, p, f"insertion point {i}") for i, p in enumerate(points)
    )
    n = len(pts)
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in pairs:
        if pts[i] == pts[j]:
            raise InvalidParameterError(f"insertion points {i} and {j} coincide")
    if n % 2:
        return Estimate(0.0j, 0.0)
    omega = {(i, j): forms.bidifferential(pts[i], pts[j]) for i, j in pairs}
    total = sum(math.prod(omega[pair] for pair in pairing) for pairing in pairings(n))
    return total * _partition(forms, modes)


def virasoro_one_point(
    forms: SurfaceForms, x: complex, modes: int | None = None
) -> Estimate:
    """One-point function of the Virasoro vector: s(x) Z / 12."""
    return forms.projective_connection(x) * _partition(forms, modes) / 12.0


def virasoro_two_point(
    forms: SurfaceForms, x: complex, y: complex, modes: int | None = None
) -> Estimate:
    """Two-point Virasoro function:

        ( s(x) s(y) / 144 + omega(x,y)^2 / 2 ) Z.
    """
    x = require_in_domain(forms.sp, x, "x")
    y = require_in_domain(forms.sp, y, "y")
    if x == y:
        raise InvalidParameterError("two-point insertions coincide")
    sx = forms.projective_connection(x)
    sy = forms.projective_connection(y)
    w = forms.bidifferential(x, y)
    return (sx * sy / 144.0 + 0.5 * w**2) * _partition(forms, modes)


def _upper_gammas(n: int, x: float) -> list[float]:
    """Gamma(k/2 + 1, x) for k = 0..n (n >= 1), the upper incomplete gamma function.

    Upward recurrence Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x from
    Gamma(1, x) = e^-x and Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)); every
    term is positive, so it keeps full relative accuracy.
    """
    ex = math.exp(-x)
    out = [ex, 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x)) + math.sqrt(x) * ex]
    for k in range(2, n + 1):
        out.append(0.5 * k * out[k - 2] + x ** (0.5 * k) * ex)
    return out


def _theta_truncation(U: np.ndarray, tol: float) -> tuple[float, float]:
    """Smallest r2 whose bound on the omitted theta terms is <= tol, and that bound.

    The omitted terms are exp(-pi |U N|^2) over integer N with
    |U N|^2 > r2.  Each lattice point owns its Voronoi cell of volume
    det U, and a point within r of the origin has its cell inside the
    ball of radius r + mu, mu the covering radius; Babai's nearest-plane
    bound gives mu <= sqrt(sum U_ii^2) / 2.  So at most
    V_n (r + mu)^n / det U points lie within r, and integrating that
    count against pi exp(-pi t) dt from r2 bounds the omitted sum by

        (V_n / det U) sum_k C(n, k) mu^(n-k) pi^(-k/2) Gamma(k/2 + 1, pi r2).

    The coefficients are formed in logs; r2 is bisected to 2^-20 of its
    bracket.
    """
    n = U.shape[0]
    diag = np.diag(U)
    log_mu = math.log(0.5 * math.sqrt(float(np.sum(diag * diag))))
    log_lead = (
        0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0) - float(np.sum(np.log(diag)))
        + math.lgamma(n + 1.0)
    )
    log_coef = [
        log_lead - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
        + (n - k) * log_mu - 0.5 * k * math.log(math.pi)
        for k in range(n + 1)
    ]

    def bound(r2: float) -> float:
        gammas = _upper_gammas(n, math.pi * r2)
        return sum(math.exp(c + math.log(gm)) for c, gm in zip(log_coef, gammas) if gm > 0.0)

    lo, hi = 0.0, 1.0
    while bound(hi) > tol:
        lo, hi = hi, 2.0 * hi
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if bound(mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi, bound(hi)


def siegel_theta(
    omega: np.ndarray,
    lattice: LatticeSpec,
    tol: float = TruncationPolicy().tol,
) -> Estimate:
    """Siegel theta value: sum over g-tuples (lambda_1..lambda_g) of

        exp( i pi sum_{a,b} Omega_ab <lambda_a, lambda_b> ),

    that is the Riemann theta function of Omega (x) G at zero on Z^n,
    n = g d.  The sum runs over the ellipsoid N^T Q N <= r2 with
    Q = Im Omega (x) G, whose points are enumerated by a Fincke-Pohst
    recursion on the Cholesky factor of Q, last coordinate first, one of
    each +-N pair.  r2 is the smallest radius at which the bound of
    _theta_truncation on the omitted terms is at most ``tol``
    (``lattice_partition`` passes its policy's ``tol``); the reported
    tail is that bound plus a rounding floor of eps * sum |term| * (1 +
    pi |N^T Re(Omega (x) G) N| + pi N^T Q N).  Omega must be symmetric to
    rounding, with Im Omega positive definite.
    """
    tol = require_positive(tol, "tol")
    om = np.asarray(omega, dtype=np.complex128)
    if om.ndim != 2 or om.shape[0] != om.shape[1]:
        raise InvalidParameterError("period matrix must be square")
    asym = float(np.abs(om - om.T).max(initial=0.0))
    if asym > 1e-12 * max(1.0, float(np.abs(om).max(initial=0.0))):
        raise InvalidParameterError(
            f"period matrix must be symmetric (|Omega - Omega^T| = {asym:.3g})"
        )
    om = 0.5 * (om + om.T)
    lam_min = float(np.linalg.eigvalsh(om.imag)[0])
    if lam_min <= 0.0:
        raise InvalidParameterError(
            f"Im(period matrix) must be positive definite (min eig {lam_min:.3g})"
        )
    d = lattice.rank
    if d == 0:
        return Estimate(1.0 + 0.0j, 0.0)
    G = lattice.gram_array()
    A = np.kron(om.real, G)
    U = np.linalg.cholesky(np.kron(om.imag, G)).T
    n = U.shape[0]
    r2, bound = _theta_truncation(U, tol)
    # Enumerating a hair past r2 keeps points that rounding of the
    # partial norms would drop; the bound covers what lies beyond r2.
    cut = r2 * (1.0 + 1e-12)
    total = 0.0j
    magnitude = 0.0
    # Depth-first over blocks of partial vectors: (level i, coordinates,
    # partial |U N|^2, partial N^T A N, all assigned coordinates zero).
    # Only coordinates above i are set, and a block holds at most
    # _THETA_BLOCK rows, so memory stays at about n blocks.
    stack = [(n - 1, np.zeros((1, n)), np.zeros(1), np.zeros(1), np.ones(1, dtype=bool))]
    while stack:
        i, N, norm, phase, zero = stack.pop()
        s = N[:, i + 1:] @ U[i, i + 1:]
        b = N[:, i + 1:] @ A[i, i + 1:]
        centre = -s / U[i, i]
        half = np.sqrt(np.maximum(cut - norm, 0.0)) / U[i, i]
        lo = np.ceil(centre - half)
        # While every higher coordinate is zero the first nonzero one is
        # positive: one of each +-N, and (at i = 0) no N = 0.
        lo = np.where(zero, np.maximum(lo, 0.0 if i else 1.0), lo)
        counts = np.maximum(np.floor(centre + half) - lo + 1.0, 0.0).astype(np.int64)
        ends = np.cumsum(counts)
        if ends[-1] > _THETA_BLOCK and len(ends) > 1:
            j = max(1, int(np.searchsorted(ends, _THETA_BLOCK, side="right")))
            stack.append((i, N[j:], norm[j:], phase[j:], zero[j:]))
            N, norm, phase, zero = N[:j], norm[:j], phase[:j], zero[:j]
            s, b, lo, counts, ends = s[:j], b[:j], lo[:j], counts[:j], ends[:j]
        m = int(ends[-1])
        if m == 0:
            continue
        parent = np.repeat(np.arange(len(counts)), counts)
        x = lo[parent] + (np.arange(m) - (ends - counts)[parent])
        child_norm = norm[parent] + (U[i, i] * x + s[parent]) ** 2
        child_phase = phase[parent] + x * (A[i, i] * x + 2.0 * b[parent])
        if i > 0:
            child = N[parent]
            child[:, i] = x
            stack.append((i - 1, child, child_norm, child_phase, zero[parent] & (x == 0.0)))
            continue
        size = np.exp(-math.pi * child_norm)
        total += complex(np.sum(size * np.exp(1j * math.pi * child_phase)))
        magnitude += float(np.sum(size * (1.0 + math.pi * (np.abs(child_phase) + child_norm))))
    tail = bound + EPS * (1.0 + 2.0 * magnitude)
    return Estimate(1.0 + 2.0 * total, tail)


def lattice_partition(
    forms: SurfaceForms,
    lattice: LatticeSpec,
    modes: int | None = None,
) -> Estimate:
    """Even-lattice partition function: theta(period matrix) * Z^rank.

    The theta sum is truncated at the policy's ``tol``; the period
    matrix's tail enters theta's to first order, as |theta| tail(Omega).
    Rank 0 is exactly 1, computed without the period matrix or Z.
    """
    d = lattice.rank
    if d == 0:
        return Estimate(1.0 + 0.0j, 0.0)
    omega = _period_matrix(forms)
    theta = siegel_theta(omega.omega, lattice, forms.policy.tol)
    theta = Estimate(theta.value, theta.tail + abs(theta.value) * omega.tail)
    return theta * _partition(forms, modes) ** d
