"""Closed-form correlation functions: free boson, Virasoro, even lattices.

Every n-point function of the rank-one free boson (Heisenberg) current
reduces to the partition function times a pairing sum: the sum over
fixed-point-free involutions of the insertion labels of products of the
bidifferential.  Virasoro insertions reduce to the projective connection
and the bidifferential.  Even-lattice partition functions factor through
the Siegel theta function of the period matrix.

The Siegel theta function of a rank-d lattice at genus g is the Riemann
theta function of Omega (x) Gram on Z^(g d).  It has two exact routes,
and ``siegel_theta`` takes the one of smaller predicted work; both are
properties of the input, and there is no option.

- Fincke-Pohst: the (g d)-dimensional sum over the ellipsoid
  N^T (Im Omega (x) Gram) N <= r2, enumerated block by block with the
  Fincke-Pohst recursion (Fincke and Pohst, Math. Comp. 1985).  Its
  predicted work is the ellipsoid's point count, by volume.  It serves
  every lattice, and it is the other route's oracle.
- Cosets: pairwise-orthogonal v_1..v_d in the lattice, of norms n_i,
  span a sublattice K of index idx, and the sum splits coset by coset
  (the glue decomposition of Conway and Sloane, "Sphere Packings,
  Lattices and Groups", ch. 4 and 7):

      theta(Omega (x) Gram) = sum_{c in (Lambda/K)^g} prod_i theta[f_i(c)](n_i Omega),

  f_i(c)_a = <c_a, v_i> / n_i mod 1 and theta[f](W) = sum_{k in Z^g}
  exp(i pi (k + f)^T W (k + f)).  The <c, v_i> mod n_i form a cyclic
  group of some order p_i, so the p_i^g characteristics of one (n_i, p_i)
  are the classes mod p_i of a single g-dimensional sum, of
  m = p_i (k + f) under (n_i / p_i^2) Omega.  The predicted work is
  those sums' point counts plus the idx^g d products.  A LatticeSpec
  finds its frame once: the least index among its short vectors, 2 for
  A2 ((2) + (6)), A3 (A1^2 + (4)) and D4 (A1^4), 16 for E8 (A1^8).

Each n-dimensional sum is truncated at an r2, found by bisection to
within 1/(16 n) of the smallest, at which a rigorous bound on the omitted
terms meets its tolerance: a lattice-point count by Voronoi cells and the
covering radius, integrated against the Gaussian, in the spirit of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing Riemann theta
functions" (Math. Comp. 2004).  The Fincke-Pohst sum meets
the caller's tol.  On the coset route the factors combine through
majorants, |theta[f]| <= sum |term| + tail, by the product rule, and
each factor's tolerance is a share of tol small enough that the whole
tail stays below it.  Either tail adds a rounding floor and, for an Omega
known to tau per entry, a bound on what that error does: pi tau
sum_N |t_N| W_N, with W_N = sum_ab |<lambda_a, lambda_b>| bounded by
(g / lambda_min(Im Omega)) N^T (Im Omega (x) Gram) N, and a second-order
remainder, accumulated in the same pass (on the coset route per factor,
through the product rule).  ``lattice_partition`` takes tol from the
SurfaceForms policy and tau from the period matrix's tail.

The bidifferential and the projective connection come from the mode
resolvent (:func:`~schottky.modes.bidifferential_via_modes`), the period
matrix from a SurfaceForms evaluator, and the partition function from
the mode-matrix determinant.  A call's ``modes`` sets the mode cutoff;
when it is None the cutoff comes from the policy: the smallest one, up to
``mode_cutoff``, whose bound on the determinant's truncation meets
``tol``.  Z and omega use the same cutoff, so one factored mode system
serves a whole request.  This module keeps no state but each
LatticeSpec's frame: Z lives on the factored system, which
:mod:`schottky.modes` caches per parameter set and cutoff, and the
period matrix on the SurfaceForms
(``SurfaceForms.periods``, read-only), so repeated requests on a few
surfaces pay for each once.  No correlator but ``lattice_partition``
enumerates the word table.  A correlator checks its mode cutoff once and
passes the checked int to the mode route's private entry points.
Each insertion point is checked once, by the mode route's gate after the
cutoff and before any factorization: it must lie in the fundamental domain,
and points closer than POLE_GUARD, equal ones too, raise PoleProximityError.

Every call returns an :class:`~schottky.forms.Estimate`: each correlator
is its formula in Estimate arithmetic, which bounds how the tails of the
surface data propagate and adds each operation's rounding.  They are the
pairing sum times Z, s Z / 12, (s_x s_y / 144 + omega^2 / 2) Z, and
theta Z^d, where theta's tail covers the period matrix's.

The pairing sums take every bidifferential (and, for the Virasoro
two-point function, both projective connections) from one omega matrix
of the insertion points: one solve with a right-hand side per point on
the factors that Z is read from.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from schottky.forms import EPS, Estimate, SurfaceForms
from schottky.group import InvalidParameterError, TruncationPolicy, require_positive
from schottky.modes import (
    _bidifferentials,
    _insertion_points,
    _require_cutoff,
    _system,
    heisenberg_partition,
    mode_cutoff_for,
)

# heisenberg_partition, the zero-point function Z, is re-exported with the
# correlators built on it.
__all__ = [
    "LatticeSpec",
    "pairings",
    "heisenberg_partition",
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

# Predicted work of a theta route, in enumerated points (about 0.12 us
# each on a 2-vCPU machine with BLAS on one thread, where these were
# fitted): the fixed cost of one level of the recursion, of one
# enumeration beside its levels, of combining the coset products, and of
# one factor of one coset product.
# The fitted model stays: "cosets iff fewer distinct (n_i, p_i) than the rank"
# took the slower route in 21 of 180 random cases, at worst 9.2 s for 0.39 ms.
_LEVEL_WORK = 200.0
_SUM_WORK = 400.0
_COSET_WORK = 400.0
_PRODUCT_WORK = 0.25

# Bounds on the frame search: short vectors considered, search nodes, and
# cosets.  Past them a lattice has no frame and takes the Fincke-Pohst route.
_FRAME_CANDIDATES = 2048
_FRAME_NODES = 20_000
_FRAME_INDEX = 4096


def _gram_entry(v) -> int:
    """A Gram entry as an int; anything but an exact integer is refused, bools too."""
    try:
        n = None if isinstance(v, (bool, np.bool_)) else int(v)
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

    @functools.cached_property
    def _frame(self) -> _Frame | None:
        """The orthogonal frame of :func:`_find_frame`, found once per spec."""
        return _find_frame(self.gram)


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


def _cutoff(forms: SurfaceForms, modes: int | None) -> int:
    """The mode cutoff of a request: ``modes``, gated as :mod:`schottky.modes`
    gates it, or for None the smallest one, up to the policy's
    ``mode_cutoff``, whose determinant bound meets its ``tol``.  Every
    correlator takes it first, so a bad cutoff is refused also where the
    value needs no mode system, and passes it to the mode route's private
    entry points, which do not check it again."""
    if modes is not None:
        return _require_cutoff(forms.sp, modes)
    return mode_cutoff_for(forms.sp, forms.policy.tol, forms.policy.mode_cutoff)


def heisenberg_npoint(
    forms: SurfaceForms,
    points: Sequence[complex],
    modes: int | None = None,
) -> Estimate:
    """n-point function of the weight-one current.

    Zero for odd n; for even n the pairing sum of bidifferentials times
    the oscillator partition function (n = 0 gives the partition function
    itself, through the one empty pairing).  The n(n-1)/2 bidifferentials
    come from one omega matrix of the mode resolvent, at the cutoff of Z.
    Odd n passes the same gate on its points as even n.
    """
    m = _cutoff(forms, modes)
    points = tuple(points)
    if len(points) % 2:
        _insertion_points(forms.sp, points)
        return Estimate(0.0j, 0.0)
    omega = _bidifferentials(forms.sp, m, points)
    total = sum(math.prod(omega[i][j] for i, j in pairing) for pairing in pairings(len(points)))
    return total * _system(forms.sp, m).partition


def virasoro_one_point(
    forms: SurfaceForms, x: complex, modes: int | None = None
) -> Estimate:
    """One-point function of the Virasoro vector: s(x) Z / 12."""
    m = _cutoff(forms, modes)
    [[s]] = _bidifferentials(forms.sp, m, (x,))
    return s * _system(forms.sp, m).partition / 12.0


def virasoro_two_point(
    forms: SurfaceForms, x: complex, y: complex, modes: int | None = None
) -> Estimate:
    """Two-point Virasoro function:

        ( s(x) s(y) / 144 + omega(x,y)^2 / 2 ) Z.
    """
    m = _cutoff(forms, modes)
    (sx, w), (_, sy) = _bidifferentials(forms.sp, m, (x, y))
    return (sx * sy / 144.0 + 0.5 * w**2) * _system(forms.sp, m).partition


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


def _tail_bound(U: np.ndarray) -> Callable[[float], float]:
    """The bound r2 -> sum of exp(-pi |U N|^2) over the integer N with |U N|^2 > r2.

    Each lattice point owns its Voronoi cell of volume det U, and a point
    within r of the origin has its cell inside the ball of radius r + mu,
    mu the covering radius; Babai's nearest-plane bound gives
    mu <= sqrt(sum U_ii^2) / 2.  So at most V_n (r + mu)^n / det U points
    lie within r, and integrating that count against pi exp(-pi t) dt
    from r2 bounds the omitted sum by

        (V_n / det U) sum_k C(n, k) mu^(n-k) pi^(-k/2) Gamma(k/2 + 1, pi r2).

    The argument holds for every translate of the lattice too, so the
    bound covers each class of a sum split by residues.  The coefficients
    are formed in logs.
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

    return bound


def _theta_truncation(U: np.ndarray, tol: float) -> tuple[float, float]:
    """An r2 at most 1 + 1/(16 n) times the least whose :func:`_tail_bound` is <= tol, and its bound.

    The bracket doubles from log(1/tol) / pi, where exp(-pi r2) alone
    meets tol; bisection then stops once hi - lo <= lo / (16 n), n the
    dimension, and returns hi.  Its ellipsoid holds at most
    (1 + 1/(16 n))^(n/2) < e^(1/32), about 3%, more points than the least
    one, after six to eight evaluations of the bound for n <= 3 and up to
    twelve for n = 24.
    """
    bound = _tail_bound(U)
    lo, hi = 0.0, max(1.0, -math.log(tol) / math.pi)
    b_hi = bound(hi)
    while b_hi > tol:
        lo, hi = hi, 2.0 * hi
        b_hi = bound(hi)
    while hi - lo > lo / (16 * len(U)):
        mid = 0.5 * (lo + hi)
        b = bound(mid)
        if b > tol:
            lo = mid
        else:
            hi, b_hi = mid, b
    return hi, b_hi


def _ellipsoid(
    U: np.ndarray, A: np.ndarray, cut: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The integer N != 0 with |U N|^2 <= cut, one of each +-N, in blocks.

    A Fincke-Pohst recursion (Fincke and Pohst, Math. Comp. 1985) on the
    upper triangular U, last coordinate first, depth-first over blocks of
    at most _THETA_BLOCK partial vectors, so memory stays at about n
    blocks.  While every higher coordinate is zero the next nonzero one
    is positive, which keeps one of each +-N and drops N = 0.  Yields
    (N, parent, x, norm, phase) per block of points: point k is
    N[parent[k]] with coordinate 0 set to x[k], |U N|^2 = norm[k] and
    N^T A N = phase[k], for a symmetric A.
    """
    n = U.shape[0]
    # (level i, coordinates, partial |U N|^2, partial N^T A N, all assigned
    # coordinates zero); only coordinates above i are set.
    stack = [(n - 1, np.zeros((1, n)), np.zeros(1), np.zeros(1), np.ones(1, dtype=bool))]
    while stack:
        i, N, norm, phase, zero = stack.pop()
        s = N[:, i + 1:] @ U[i, i + 1:]
        b = N[:, i + 1:] @ A[i, i + 1:]
        centre = -s / U[i, i]
        half = np.sqrt(np.maximum(cut - norm, 0.0)) / U[i, i]
        lo = np.ceil(centre - half)
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
        else:
            yield N, parent, x, child_norm, child_phase


def _points(N: np.ndarray, parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The coordinates of a block of :func:`_ellipsoid`'s points."""
    child = N[parent]
    child[:, 0] = x
    return child


class _Enumeration:
    """One theta sum over N in Z^n, planned: exp(i pi N^T (A + i Q) N) split by N mod p.

    ``U`` is the Cholesky factor of Q, ``r2`` the radius of
    :func:`_theta_truncation` for ``tol`` and ``bound`` its bound on the
    omitted sum of |term|, over all classes together.  ``negated`` maps
    each class c to -c, the identity for p <= 2.
    """

    def __init__(self, A: np.ndarray, Q: np.ndarray, tol: float, p: int):
        self.A, self.p = A, p
        self.U = np.linalg.cholesky(Q).T
        self.r2, self.bound = _theta_truncation(self.U, tol)
        self.weights = p ** np.arange(len(self.U))
        digits = np.arange(p ** len(self.U))[:, None] // self.weights % p
        self.negated = -digits % p @ self.weights

    @property
    def points(self) -> float:
        """Predicted count of one of each +-N in the ellipsoid, by its volume
        V_n r2^(n/2) / det U."""
        n = len(self.U)
        log_volume = (
            0.5 * n * math.log(math.pi * self.r2) - math.lgamma(0.5 * n + 1.0)
            - float(np.sum(np.log(np.diag(self.U))))
        )
        return 0.5 * math.exp(log_volume)

    def sums(self, charge: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per class sum_a (N_a mod p) p^a of p^n (one for p = 1): the sum,
        the sum of |term|, and the error bound.

        N and -N give equal terms, in classes c and -c, and N = 0 counts
        once, exactly.  The error is ``bound``, eps times the rounding
        floor (each term rounds by at most eps |term| (1 + pi |N^T A N| +
        pi N^T Q N)) and charge(self, moments), the moments being the
        class sums of |term| N^T Q N.
        """
        count = len(self.negated)
        sums = [np.zeros(count, dtype=np.complex128)] + [np.zeros(count) for _ in range(3)]
        # Enumerating a hair past r2 keeps points that rounding of the
        # partial norms would drop; the bound covers what lies beyond r2.
        for N, parent, x, norm, phase in _ellipsoid(self.U, self.A, self.r2 * (1.0 + 1e-12)):
            size = np.exp(-math.pi * norm)
            parts = (
                size * np.exp(1j * math.pi * phase),
                size,
                size * norm,
                size * (1.0 + math.pi * (np.abs(phase) + norm)),
            )
            if count == 1:
                for acc, part in zip(sums, parts):
                    acc[0] += np.sum(part)
                continue
            index = (np.mod(_points(N, parent, x), self.p) @ self.weights).astype(np.int64)
            sums[0] += np.bincount(index, parts[0].real, count) + 1j * np.bincount(
                index, parts[0].imag, count
            )
            for k in (1, 2, 3):
                sums[k] += np.bincount(index, parts[k], count)
        values, sizes, moments, floors = (a + a[self.negated] for a in sums)
        values[0] += 1.0
        sizes[0] += 1.0
        floors[0] += 1.0
        return values, sizes, self.bound + EPS * floors + charge(self, moments)


# A theta route planned for one Omega and tol: its predicted work, and
# evaluate(t), the value for an Omega known to tau per entry, with
# t = tau g / lambda_min(Im Omega) as in _charge.
_Route = tuple[float, Callable[[float], Estimate]]


def _charge(t: float) -> Callable:
    """Bound, per class, on how far the sums move when each Omega_ab moves by <= tau,
    with t = tau g / lambda_min(Im Omega).

    A term moves by |term| |e^z - 1| <= |term| |z| e^|z|, |z| <= pi tau W,
    W = sum_ab |<lambda_a, lambda_b>| <= g sum_a <lambda_a, lambda_a>
    <= (g / lambda_min(Im Omega)) s, with s = N^T Q N, so |z| <= pi t s
    and the kept terms (s <= r2) move by at most pi t e^(pi t r2) times the
    moment sum.  For t <= 1/4 an omitted term moves by at most (4/e) t
    exp(-pi s / 2), and the omitted exp(-pi s / 2) sum to at most the tail
    bound of U / sqrt(2) at r2 / 2; past t = 1/4 the charge is infinite.
    """

    def charge(plan: _Enumeration, moments: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return np.zeros_like(moments)
        if not t <= 0.25:
            return np.full_like(moments, math.inf)
        omitted = 4.0 / math.e * t * _tail_bound(plan.U / math.sqrt(2.0))(0.5 * plan.r2)
        return math.pi * t * math.exp(math.pi * t * plan.r2 * (1.0 + 1e-12)) * moments + omitted

    return charge


def _fincke_pohst(om: np.ndarray, G: np.ndarray, tol: float) -> _Route:
    """theta_Lambda(Omega) as one (g d)-dimensional sum over N in Z^(g d).

    The Riemann theta function of Omega (x) G at zero, truncated where the
    tail bound of Q = Im Omega (x) G meets ``tol``.  The tail is that bound,
    eps times the rounding floor and the charge of :func:`_charge`.
    """
    g, d = om.shape[0], len(G)

    def kron(a: np.ndarray) -> np.ndarray:
        # np.kron(a, G) without its generic-shape overhead (30 us a call).
        return (a[:, None, :, None] * G[None, :, None, :]).reshape(g * d, g * d)

    plan = _Enumeration(kron(om.real), kron(om.imag), tol, 1)

    def evaluate(t: float) -> Estimate:
        values, _, errors = plan.sums(_charge(t))
        return Estimate(complex(values[0]), float(errors[0]))

    return plan.points + _LEVEL_WORK * len(plan.U) + _SUM_WORK, evaluate


def _theta_majorant(t: float) -> float:
    """Upper bound on sum_{k in Z} exp(-pi t k^2), as k^2 >= 3k - 2 for k >= 1."""
    return 1.0 + 2.0 * math.exp(-math.pi * t) / -math.expm1(-3.0 * math.pi * t)


def _coset_theta(om: np.ndarray, frame: _Frame, tol: float, lam: float) -> _Route:
    """theta_Lambda(Omega) through the frame K = sum Z v_i (see the module docstring),
    with lam = lambda_min(Im Omega).

    One g-dimensional enumeration per distinct (n_i, p_i), split into the
    p_i^g characteristic sums theta[s / p_i](n_i Omega), s in (Z/p_i)^g, as
    the classes mod p_i of m = p_i k + s in Z^g under (n_i / p_i^2) Omega;
    then the sum over the idx^g coset tuples of products of d of them.
    Each enumeration is truncated at eps = tol / (2 d idx^g prod_i S_i),
    S_i >= every class sum of |term| (a shifted Gaussian sum is at most the
    unshifted one, by Poisson summation).  The tail is the product rule's
    sum_c sum_i e_i prod_{j<i} (A_j + e_j) prod_{j>i} A_j, with A the
    computed sums of |term| and e the class errors, plus the rounding of
    the products and of the coset sum.
    """
    g, d, idx = om.shape[0], len(frame.norms), frame.index
    majorant = math.prod(_theta_majorant(n * lam) ** g for n in frame.norms)
    eps = tol / (2.0 * d * idx**g * majorant)
    plans = {
        (n, p): _Enumeration(n / p**2 * om.real, n / p**2 * om.imag, eps, p)
        for n, p in frame.keys
    }
    work = frame.fixed_work(g) + sum(plan.points for plan in plans.values())

    def evaluate(t: float) -> Estimate:
        charge = _charge(t)
        tables = {key: plan.sums(charge) for key, plan in plans.items()}
        # Row a: the coset of handle a in each of the idx^g tuples.
        handles = np.indices((idx,) * g).reshape(g, -1)
        value = np.ones(idx**g, dtype=np.complex128)
        upper, lower, tail = np.ones(idx**g), np.ones(idx**g), np.zeros(idx**g)
        for i, (n, p) in enumerate(zip(frame.norms, frame.orders)):
            flat = (frame.residues[handles, i] * (p ** np.arange(g))[:, None]).sum(axis=0)
            values, sizes, errors = (table[flat] for table in tables[n, p])
            value *= values
            tail = tail * sizes + upper * errors
            upper *= sizes + errors
            lower *= sizes
        # A product of d factors rounds by at most 2 eps per factor, and
        # numpy's pairwise coset sum by (log2 of the count + 16) eps of the
        # sum of |products|.
        ulps = 2 * d + (idx**g).bit_length() + 16
        return Estimate(complex(value.sum()), float(tail.sum() + ulps * EPS * lower.sum()))

    return work, evaluate


class _Frame:
    """An orthogonal sublattice K = sum_i Z v_i of full rank, and Lambda / K.

    ``vectors`` holds the v_i as rows of coordinates in the Gram basis,
    ``norms`` the n_i = <v_i, v_i>.  <c, v_i> mod n_i over the cosets c
    takes the values (n_i / p_i) s, s in Z/p_i, with p_i in ``orders``;
    row c of ``residues`` holds each s_i(c).  The residues determine the
    coset (c with every <c, v_i> divisible by n_i is sum_i
    (<c, v_i> / n_i) v_i, in K), so the rows are distinct and there are
    idx = [Lambda : K] of them.
    """

    def __init__(
        self, vectors: np.ndarray, norms: tuple[int, ...], orders: tuple[int, ...],
        residues: np.ndarray,
    ):
        self.vectors, self.norms, self.orders, self.residues = vectors, norms, orders, residues

    @property
    def index(self) -> int:
        return len(self.residues)

    @property
    def keys(self) -> tuple[tuple[int, int], ...]:
        """The distinct (n_i, p_i), one enumeration each."""
        return tuple(dict.fromkeys(zip(self.norms, self.orders)))

    def fixed_work(self, g: int) -> float:
        """The coset route's predicted work at genus g without its points,
        so a lower bound on it."""
        sums = len(self.keys) * (_LEVEL_WORK * g + _SUM_WORK)
        return sums + _COSET_WORK + _PRODUCT_WORK * len(self.norms) * float(self.index) ** g


def _short_vectors(gram: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and norms of the lattice vectors of norm <= bound, one of each +-v,
    sorted by norm (stably, in enumeration order)."""
    G = gram.astype(float)
    U = np.linalg.cholesky(G).T
    blocks = [_points(N, parent, x) for N, parent, x, _, _ in _ellipsoid(U, 0.0 * G, bound + 0.5)]
    X = np.rint(np.concatenate(blocks)).astype(np.int64) if blocks else np.zeros((0, len(G)), int)
    norms = np.einsum("ij,jk,ik->i", X, gram, X)
    order = np.argsort(norms, kind="stable")
    return X[order], norms[order]


def _orthogonal_frame(orthogonal: np.ndarray, norms: np.ndarray, d: int) -> list[int] | None:
    """Indices of d pairwise-orthogonal candidates with the least product of norms.

    Depth-first over increasing indices, the candidates sorted by norm.  A
    branch is cut once its product times the next norm to the power of the
    vectors still missing reaches the best product found, since every later
    candidate is at least as long.  The search stops after _FRAME_NODES
    nodes with the best frame so far, or None.
    """
    norms = [int(v) for v in norms]
    best: list = [math.inf, None]
    nodes = 0

    def search(chosen: list[int], allowed: np.ndarray, product: int) -> None:
        nonlocal nodes
        need = d - len(chosen)
        if need == 0:
            best[:] = [product, chosen]
            return
        for j in np.flatnonzero(allowed):
            if product * norms[j] ** need >= best[0] or nodes >= _FRAME_NODES:
                return
            nodes += 1
            rest = allowed & orthogonal[j]
            rest[: j + 1] = False
            if np.count_nonzero(rest) >= need - 1:
                search(chosen + [int(j)], rest, product * norms[j])

    search([], np.ones(len(norms), dtype=bool), 1)
    return best[1]


def _find_frame(gram: tuple[tuple[int, ...], ...]) -> _Frame | None:
    """The orthogonal frame of least index among the vectors of norm <= B, for the
    first B = 2, 4, 8, ... at which one exists; None past _FRAME_CANDIDATES
    candidates or _FRAME_INDEX cosets.

    The cosets are the closure of 0 under adding the residues of the basis
    vectors, <e_j, v_i> mod n_i.
    """
    G = np.array(gram, dtype=np.int64)
    d = len(G)
    bound = 2
    while True:
        X, norms = _short_vectors(G, bound)
        if len(X) > _FRAME_CANDIDATES:
            return None
        chosen = _orthogonal_frame(X @ G @ X.T == 0, norms, d)
        if chosen is not None:
            break
        bound *= 2
    V, n = X[chosen], norms[chosen]
    steps = [tuple(row) for row in (G @ V.T) % n]
    cosets = {(0,) * d}
    frontier = list(cosets)
    while frontier:
        fresh = []
        for c in frontier:
            for step in steps:
                e = tuple((a + b) % m for a, b, m in zip(c, step, n))
                if e not in cosets:
                    cosets.add(e)
                    fresh.append(e)
        if len(cosets) > _FRAME_INDEX:
            return None
        frontier = fresh
    table = np.array(sorted(cosets), dtype=np.int64)
    # The residues of v_i form the subgroup (n_i / p_i) Z / n_i Z.
    unit = np.gcd.reduce(np.concatenate([table, n[None, :]]), axis=0)
    return _Frame(V, tuple(int(v) for v in n), tuple(int(v) for v in n // unit), table // unit)


def siegel_theta(
    omega: np.ndarray,
    lattice: LatticeSpec,
    tol: float = TruncationPolicy().tol,
    omega_tail: float = 0.0,
) -> Estimate:
    """Siegel theta value: sum over g-tuples (lambda_1..lambda_g) of

        exp( i pi sum_{a,b} Omega_ab <lambda_a, lambda_b> ),

    that is the Riemann theta function of Omega (x) G at zero on Z^(g d).
    Two exact routes, chosen by their predicted work (see the module
    docstring): the (g d)-dimensional Fincke-Pohst sum, or, where the
    lattice has an orthogonal frame, the coset sum of products of
    g-dimensional theta constants with characteristics.  Either is
    truncated so that its bound on the omitted terms is at most ``tol``
    (``lattice_partition`` passes its policy's ``tol``).  The tail adds a
    rounding floor and, for an Omega whose entries are known to within
    ``omega_tail``, a bound on how far that moves the value.  Omega must be
    symmetric to rounding, with Im Omega positive definite.
    """
    tol = require_positive(tol, "tol")
    if isinstance(omega_tail, bool) or not isinstance(omega_tail, numbers.Real):
        raise InvalidParameterError(f"omega_tail = {omega_tail!r} is not a real number")
    tau = float(omega_tail)
    if not tau >= 0.0:
        raise InvalidParameterError(f"omega_tail = {tau} must be >= 0")
    om = np.asarray(omega, dtype=np.complex128)
    if om.ndim != 2 or not om.shape[0] == om.shape[1] > 0:
        raise InvalidParameterError("period matrix must be square and non-empty")
    if not np.isfinite(om).all():
        raise InvalidParameterError("period matrix must be finite")
    asym = float(np.abs(om - om.T).max(initial=0.0))
    if asym > 1e-12 * max(1.0, float(np.abs(om).max(initial=0.0))):
        raise InvalidParameterError(
            f"period matrix must be symmetric (|Omega - Omega^T| = {asym:.3g})"
        )
    om = 0.5 * (om + om.T)
    lam_min = float(np.linalg.eigvalsh(om.imag)[0])
    if not lam_min > 0.0:
        raise InvalidParameterError(
            f"Im(period matrix) must be positive definite (min eig {lam_min:.3g})"
        )
    if lattice.rank == 0:
        return Estimate(1.0 + 0.0j, 0.0)
    work, evaluate = _fincke_pohst(om, lattice.gram_array(), tol)
    frame = lattice._frame
    # Where the coset route's fixed work alone exceeds the Fincke-Pohst
    # prediction, its truncations are not worth planning.
    if frame is not None and frame.fixed_work(om.shape[0]) < work:
        coset_work, coset = _coset_theta(om, frame, tol, lam_min)
        if coset_work < work:
            evaluate = coset
    return evaluate(tau * om.shape[0] / lam_min)


def lattice_partition(
    forms: SurfaceForms,
    lattice: LatticeSpec,
    modes: int | None = None,
) -> Estimate:
    """Even-lattice partition function: theta(period matrix) * Z^rank.

    The theta sum is truncated at the policy's ``tol``, and its tail
    bounds how far the period matrix's tail (per entry) moves it (see
    :func:`siegel_theta`).  Rank 0 is exactly 1, computed without the
    period matrix or Z.  Z comes before the period matrix and theta, so a
    surface whose mode system is refused pays for neither.
    """
    m = _cutoff(forms, modes)
    d = lattice.rank
    if d == 0:
        return Estimate(1.0 + 0.0j, 0.0)
    z = _system(forms.sp, m).partition
    periods = forms.periods
    return siegel_theta(periods.omega, lattice, forms.policy.tol, periods.tail) * z**d
