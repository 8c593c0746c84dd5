"""Closed-form correlation functions: free boson, Virasoro, even lattices.

Every n-point function of the rank-one free boson (Heisenberg) current
reduces to the partition function times a pairing sum: the sum over
fixed-point-free involutions of the insertion labels of products of the
bidifferential.  Virasoro insertions reduce to the projective connection
and the bidifferential.  Even-lattice partition functions factor through
the Siegel theta function of the period matrix.

The Siegel theta function of a rank-d lattice at genus g is the Riemann
theta function of Omega (x) Gram on Z^(g d).  It has two exact routes,
and ``siegel_theta`` takes the one of smaller predicted work, refusing a
call past a budget of 1e9 points; both are properties of the input, and
there is no option.

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
  those sums' point counts plus the idx^g d products, formed a block of
  tuples at a time.  A LatticeSpec finds its frame once: the least index
  among its short vectors, 2 for A2 ((2) + (6)), A3 (A1^2 + (4)) and D4
  (A1^4), 16 for E8 (A1^8), 256 for D16+ (A1^16).

Each n-dimensional sum sum_N exp(-pi |U N|^2), U upper triangular, is
truncated at an r2 given in closed form by a Chernoff bound.  Summed one
coordinate at a time, the first first, every row is a shifted
one-dimensional sum, at most m(U_ii^2) with m(t) = min(1 + 1/sqrt(t),
1 + 2 e^(-pi t) / (1 - e^(-3 pi t))), so for 0 < s < 1 the terms with
|U N|^2 >= r2 sum to at most exp(-pi (1 - s) r2) prod_i m(s U_ii^2), in
every residue class too.  The least r2 at which the bound of some share
s of a fixed grid meets the tolerance is then a minimum over the grid of
closed forms, with no search.  The Fincke-Pohst sum meets
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
passes the checked int to the mode route's private entry points; every
correlator reads Z through the public
:func:`~schottky.modes.heisenberg_partition`, which checks it again.
Each insertion point is checked once, by the mode route's gate after the
cutoff and before any factorization: it must lie in the fundamental domain,
and points closer than POLE_GUARD, equal ones too, raise PoleProximityError.

Every call returns an :class:`~schottky.forms.Estimate`: each correlator
is its formula in Estimate arithmetic, which bounds how the tails of the
surface data propagate and adds each operation's rounding.  They are the
pairing sum times Z, s Z / 12, (s_x s_y / 144 + omega^2 / 2) Z, and
theta Z^d, where theta's tail covers the period matrix's.  The pairing
sum alone runs on plain numbers, with its formula's operations and bits,
and carries the Estimate bound in closed form: a product of m entries
within t of omega moves by at most prod (|omega| + t) - prod |omega|, and
its m - 1 rounded products and the additions by what Estimate charges.

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

from schottky.forms import _TAIL_UP, _UNDERFLOW, EPS, ConfigurationError, Estimate, SurfaceForms
from schottky.group import InvalidParameterError, TruncationPolicy, require_positive
from schottky.modes import (
    _insertion_points,
    _omega_matrix,
    _require_cutoff,
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

# Partial vectors per block of the theta enumeration, and coset tuples per
# block of its product: large enough that numpy's per-call cost is small
# against a block's arithmetic, small enough that the blocks alive take a few MB.
_THETA_BLOCK = 4096

# siegel_theta refuses a call whose least predicted work passes this many
# points, minutes of work: D16+ passes at genus 3 (6.7e7 points, 19 s) and
# is refused at genus 4 (1.7e10, hours).
_WORK_BUDGET = 1e9

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
        try:  # _gram_entry refuses an entry; an int where a row belongs raises TypeError
            rows = tuple(tuple(_gram_entry(v) for v in row) for row in self.gram)
        except TypeError:
            raise InvalidParameterError("Gram matrix must be a sequence of rows") from None
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
    if not n:
        yield ()
        return

    # A pairing is built as it descends; the last pair needs no generator.
    def rec(prefix: tuple, rest: tuple[int, ...]):
        first = rest[0]
        if len(rest) == 2:
            yield prefix + ((first, rest[1]),)
            return
        for k in range(1, len(rest)):
            yield from rec(prefix + ((first, rest[k]),), rest[1:k] + rest[k + 1:])

    yield from rec((), tuple(range(n)))


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


def _pairing_sum(values: list[list[complex]], tails: list[list[float]]) -> Estimate:
    """The sum over :func:`pairings` of the products of values[i][j], and its tail.

    The value is bit for bit that of ``sum(math.prod(e[i][j] for i, j in
    pairing))`` on Estimates e of these entries: the same complex
    operations in the same order.  Entry (i, j) is known to tails[i][j].
    For a product of m entries of sizes a and tails t, d = prod (a + t) -
    prod a bounds what the tails do, as Estimate's product rule does term
    by term; it is carried as d <- d (a + t) + h t, h the product of the
    sizes so far, so nothing cancels.  The m - 1 rounded products (1 times
    the first entry is exact) are each off by at most 2 eps times a partial
    product, which carried forward comes to 2 (m - 1) eps prod (a + t);
    each addition but the first (0 plus a product, exact) rounds by at
    most eps |running total|.  Every eps brings ``_UNDERFLOW``, as in
    Estimate; a product's 2 ``_UNDERFLOW`` (the exact first's too) is
    carried forward in d, as Estimate's tail carries it.  The bound's own
    evaluation, sums of k nonnegative terms and products of m, is off by
    at most (k + m) eps relative, so it is raised by that and by
    ``_TAIL_UP``.  An infinite tail gives an infinite bound.
    """
    cells = [[(v, abs(v), abs(v) + t, t) for v, t in zip(vrow, trow)]
             for vrow, trow in zip(values, tails)]
    total, count, spread, size, sizes, tiny = 0, 0, 0.0, 0.0, 0.0, 2.0 * _UNDERFLOW
    for pairing in pairings(len(values)):
        p, h, d = 1, 1.0, 0.0
        for i, j in pairing:
            v, a, s, t = cells[i][j]
            p = p * v
            d = d * s + h * t + tiny
            h = h * a
        rounds = total != 0
        total = total + p
        if rounds:
            sizes += abs(total)
        spread += d
        size += h + d
        count += 1
    ulps = 2 * max(len(values) // 2 - 1, 0)
    tail = spread + EPS * (ulps * size + sizes) + _UNDERFLOW * (count - 1)
    tail *= (1.0 + (count + len(values)) * EPS) * _TAIL_UP
    return Estimate(total, tail if tail == tail else math.inf)


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

    The pairing sum (:func:`_pairing_sum`) is its Estimate formula's value
    bit for bit, with that formula's tail in closed form.
    """
    m = _cutoff(forms, modes)
    points = tuple(points)
    if len(points) % 2:
        _insertion_points(forms.sp, points)
        return Estimate(0.0j, 0.0)
    omega, tails = _omega_matrix(forms.sp, m, points)
    return _pairing_sum(omega.tolist(), tails.tolist()) * heisenberg_partition(forms.sp, m)


def virasoro_one_point(
    forms: SurfaceForms, x: complex, modes: int | None = None
) -> Estimate:
    """One-point function of the Virasoro vector: s(x) Z / 12."""
    m = _cutoff(forms, modes)
    omega, tails = _omega_matrix(forms.sp, m, (x,))
    return Estimate(complex(omega[0, 0]), float(tails[0, 0])) * heisenberg_partition(forms.sp, m) / 12.0


def virasoro_two_point(
    forms: SurfaceForms, x: complex, y: complex, modes: int | None = None
) -> Estimate:
    """Two-point Virasoro function:

        ( s(x) s(y) / 144 + omega(x,y)^2 / 2 ) Z.
    """
    m = _cutoff(forms, modes)
    omega, tails = _omega_matrix(forms.sp, m, (x, y))
    sx, sy, w = (Estimate(complex(omega[k]), float(tails[k])) for k in ((0, 0), (1, 1), (0, 1)))
    return (sx * sy / 144.0 + 0.5 * w**2) * heisenberg_partition(forms.sp, m)


# The shares s of the Chernoff bound in _tail_bound, j / 16 for j = 1..15.  On
# random U a grid of 1023 shares lowered no radius by more than 3.2% at n = 1,
# 0.8% at n = 3 and 0.4% at n = 24.
_SHARES = np.arange(1, 16) / 16.0


def _log_majorant(U: np.ndarray) -> np.ndarray:
    """Per share s of _SHARES, sum_i log m(s U_ii^2), with
    m(t) = min(1 + 1/sqrt(t), 1 + 2 e^(-pi t) / (1 - e^(-3 pi t))).

    m(t) bounds sum_k exp(-pi t (k + c)^2) for every real c: the first form
    because a unimodal sum with peak 1 is at most 1 plus its integral, the
    second because a shifted sum is at most the unshifted one (Poisson
    summation) and k^2 >= 3k - 2 for k >= 1.  Summed one coordinate at a
    time over the upper triangular U, the first coordinate first, each
    row is such a sum, so the result is the log of a bound on
    sum_N exp(-pi s |U (N + f)|^2) for every shift f.
    """
    u = U.diagonal()
    pi_t = _SHARES[:, None] * (math.pi * u * u)
    m = np.minimum(_SHARES[:, None] ** -0.5 / u, np.exp(-pi_t) * (-2.0 / np.expm1(-3.0 * pi_t)))
    return np.log1p(m).sum(axis=1)


def _tail_bound(U: np.ndarray, r2: float) -> float:
    """A bound on the sum of exp(-pi |U N|^2) over the integer N with |U N|^2 >= r2.

    For 0 < s < 1 each such term is at most exp(-pi (1 - s) r2)
    exp(-pi s |U N|^2), so the sum is at most exp(-pi (1 - s) r2) prod_i
    m(s U_ii^2) (see :func:`_log_majorant`); the least over the shares is
    taken.  Every bound of m holds for shifted sums, so this one holds for
    every translate of the lattice too: for each class of a sum split by
    residues, and for theta[f] (at r2 = 0, where it covers every term).
    """
    return float(np.exp(np.min(_log_majorant(U) - math.pi * (1.0 - _SHARES) * r2)))


def _theta_truncation(U: np.ndarray, tol: float) -> tuple[float, float]:
    """The least r2 >= 0 at which :func:`_tail_bound` meets tol, and the bound there.

    Each share's bound falls with r2, so in closed form r2 = max(0, min_s
    (log prod_i m(s U_ii^2) - log tol) / (pi (1 - s))).  The bound is then
    tol, or at r2 = 0, where the bound on the whole sum meets tol, that
    bound, min_s prod_i m(s U_ii^2).
    """
    logs = _log_majorant(U)
    r2 = float(np.min((logs - math.log(tol)) / (math.pi * (1.0 - _SHARES))))
    return max(0.0, r2), min(tol, float(np.exp(np.min(logs))))


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
        V_n r2^(n/2) / det U; 0 at r2 = 0, where the sum is N = 0 alone."""
        if self.r2 == 0.0:
            return 0.0
        n = len(self.U)
        log_volume = (
            0.5 * n * math.log(math.pi * self.r2) - math.lgamma(0.5 * n + 1.0)
            - float(np.sum(np.log(np.diag(self.U))))
        )
        return 0.5 * math.exp(log_volume)

    def sums(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per class sum_a (N_a mod p) p^a of p^n (one for p = 1): the sum,
        the sum of |term|, and the error bound, for an Omega known to tau
        per entry and t = tau g / lambda_min(Im Omega).

        N and -N give equal terms, in classes c and -c, and N = 0 counts
        once, exactly.  The error is ``bound``, eps times the rounding
        floor (each term rounds by at most eps |term| (1 + pi |N^T A N| +
        pi N^T Q N)) and the charge of Omega's tail.  A term moves by
        |term| |e^z - 1| <= |term| |z| e^|z|, |z| <= pi tau W, W = sum_ab
        |<lambda_a, lambda_b>| <= g sum_a <lambda_a, lambda_a> <= (g /
        lambda_min(Im Omega)) s, with s = N^T Q N, so |z| <= pi t s and the
        kept terms (s <= r2) move by at most pi t e^(pi t r2) times the
        class sum of |term| s.  For t <= 1/4 an omitted term moves by at
        most (4/e) t exp(-pi s / 2), and the omitted exp(-pi s / 2) sum to
        at most the tail bound of U / sqrt(2) at r2 / 2; past t = 1/4 the
        charge is infinite.
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
        charge = 0.0 if t == 0.0 else math.inf
        if 0.0 < t <= 0.25:
            omitted = 4.0 / math.e * t * _tail_bound(self.U / math.sqrt(2.0), 0.5 * self.r2)
            kept = math.pi * t * math.exp(math.pi * t * self.r2 * (1.0 + 1e-12))
            charge = kept * moments + omitted
        return values, sizes, self.bound + EPS * floors + charge


# A theta route planned for one Omega and tol: its predicted work, and
# evaluate(t), the value for an Omega known to tau per entry, with
# t = tau g / lambda_min(Im Omega) as in _Enumeration.sums.
_Route = tuple[float, Callable[[float], Estimate]]


def _fincke_pohst(om: np.ndarray, G: np.ndarray, tol: float) -> _Route:
    """theta_Lambda(Omega) as one (g d)-dimensional sum over N in Z^(g d).

    The Riemann theta function of Omega (x) G at zero, truncated where the
    tail bound of Q = Im Omega (x) G meets ``tol``.  The tail is that bound,
    eps times the rounding floor and the charge of Omega's tail, as
    :meth:`_Enumeration.sums` gives them.
    """
    g, d = om.shape[0], len(G)

    def kron(a: np.ndarray) -> np.ndarray:
        # np.kron(a, G) without its generic-shape overhead (30 us a call).
        return (a[:, None, :, None] * G[None, :, None, :]).reshape(g * d, g * d)

    plan = _Enumeration(kron(om.real), kron(om.imag), tol, 1)

    def evaluate(t: float) -> Estimate:
        values, _, errors = plan.sums(t)
        return Estimate(complex(values[0]), float(errors[0]))

    return plan.points + _LEVEL_WORK * len(plan.U) + _SUM_WORK, evaluate


def _coset_theta(om: np.ndarray, frame: _Frame, tol: float) -> _Route:
    """theta_Lambda(Omega) through the frame K = sum Z v_i (see the module docstring).

    One g-dimensional enumeration per distinct (n_i, p_i), split into the
    p_i^g characteristic sums theta[s / p_i](n_i Omega), s in (Z/p_i)^g, as
    the classes mod p_i of m = p_i k + s in Z^g under (n_i / p_i^2) Omega;
    then the sum over the idx^g coset tuples, in blocks, of products of d.
    Each enumeration is truncated at eps = tol / (2 d idx^g prod_i S_i),
    with S_i = :func:`_tail_bound` at r2 = 0 of the Cholesky factor of
    n_i Im Omega, which bounds every theta[f](n_i Omega)'s sum of |term|.
    The tail is the product rule's sum_c sum_i e_i prod_{j<i} (A_j + e_j)
    prod_{j>i} A_j, with A the computed sums of |term| and e the class
    errors, plus the rounding of the products and of the coset sum.
    """
    g, d, idx = om.shape[0], len(frame.norms), frame.index
    U = np.linalg.cholesky(om.imag).T
    whole = {n: _tail_bound(math.sqrt(n) * U, 0.0) for n in set(frame.norms)}
    majorant = math.prod(whole[n] for n in frame.norms)
    eps = tol / (2.0 * d * idx**g * majorant)
    plans = {
        (n, p): _Enumeration(n / p**2 * om.real, n / p**2 * om.imag, eps, p)
        for n, p in frame.keys
    }
    work = frame.fixed_work(g) + sum(plan.points for plan in plans.values())

    def evaluate(t: float) -> Estimate:
        tables = {key: plan.sums(t) for key, plan in plans.items()}
        count, block = idx**g, min(idx**g, _THETA_BLOCK)
        sums = []  # per block: its total, tail and sum of |products|
        for start in range(0, count, block):
            # Row a: the coset of handle a in each tuple of the block.
            tuples = np.arange(start, min(start + block, count))
            handles = tuples // idx ** np.arange(g)[::-1, None] % idx
            value, tail, upper, lower = 1.0 + 0.0j, 0.0, 1.0, 1.0
            for i, (n, p) in enumerate(zip(frame.norms, frame.orders)):
                flat = (frame.residues[handles, i] * (p ** np.arange(g))[:, None]).sum(axis=0)
                values, sizes, errors = (table[flat] for table in tables[n, p])
                value = value * values
                tail = tail * sizes + upper * errors
                upper = upper * (sizes + errors)
                lower = lower * sizes
            sums.append((complex(value.sum()), float(tail.sum()), float(lower.sum())))
        # A product of d factors rounds by at most 2 eps per factor, numpy's
        # pairwise sum of a block by (log2 of its count + 16) eps of the sum
        # of |products|, and the block sums, added pairwise, by one eps per level.
        ulps = 2 * d + block.bit_length() + 16 + (len(sums) - 1).bit_length()
        while len(sums) > 1:
            sums = [tuple(map(sum, zip(*sums[k : k + 2]))) for k in range(0, len(sums), 2)]
        total, tails, sizes_sum = sums[0]
        return Estimate(total, float(tails + ulps * EPS * sizes_sum))

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
    symmetric to rounding, with Im Omega positive definite.  Past
    ``_WORK_BUDGET`` = 1e9 points of predicted work on the cheaper route the
    call is refused with ConfigurationError before any sum runs.
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
    g = om.shape[0]
    work, evaluate = _fincke_pohst(om, lattice.gram_array(), tol)
    frame = lattice._frame
    # Where the coset route's fixed work alone exceeds the Fincke-Pohst
    # prediction, its truncations are not worth planning.
    if frame is not None and frame.fixed_work(g) < work:
        coset_work, coset = _coset_theta(om, frame, tol)
        if coset_work < work:
            work, evaluate = coset_work, coset
    if work > _WORK_BUDGET:
        raise ConfigurationError(
            f"siegel_theta of a rank-{lattice.rank} lattice at genus {g} needs a predicted "
            f"{work:.3g} points of work, past the budget of {_WORK_BUDGET:.3g}"
        )
    return evaluate(tau * g / lam_min)


def lattice_partition(
    forms: SurfaceForms,
    lattice: LatticeSpec,
    modes: int | None = None,
) -> Estimate:
    """Even-lattice partition function: theta(period matrix) * Z^rank.

    The theta sum is truncated at the policy's ``tol``, and its tail
    bounds how far the period matrix's tail (per entry) moves it (see
    :func:`siegel_theta`).  Rank 0 is exactly 1, computed without the
    period matrix or Z.  Z (:func:`heisenberg_partition`) comes before the
    period matrix and theta, so a surface whose mode system is refused
    pays for neither.
    """
    m = _cutoff(forms, modes)
    d = lattice.rank
    if d == 0:
        return Estimate(1.0 + 0.0j, 0.0)
    z = heisenberg_partition(forms.sp, m)
    periods = forms.periods
    return siegel_theta(periods.omega, lattice, forms.policy.tol, periods.tail) * z**d
