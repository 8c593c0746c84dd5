r"""Truncated orbit sums for the function theory of a Schottky surface.

Everything here is a finite Poincare series over the reduced words of
length at most L (the truncation policy's word cutoff), evaluated with
the deterministic word order fixed by :func:`schottky.group.enumerate_group`.
W_a denotes the repelling and W_{-a} the attracting fixed point of the
generator gamma_a, and q_a its multiplier
(:func:`schottky.group.classical_from_params`).  The objects:

- the differential of the third kind with simple poles at y and 0,
      psi_1(x, y) = sum_gamma (1/(gamma x - y) - 1/(gamma x)) d(gamma x),
- the symmetric bidifferential of the second kind
      omega(x, y) = sum_gamma d(gamma x) dy / (gamma x - y)^2,
- the normalized holomorphic 1-forms, a sum over the cosets G/<gamma_a>
      nu_a(x) = sum_gamma [1/(x - gamma W_{-a}) - 1/(x - gamma W_a)] dx,
- the projective connection
      s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2,
- the weight-(N, N) power kernels  sum_gamma (d(gamma x) dy/(gamma x - y)^2)^N,
- the weight-N recursion kernels Psi_N built from a Bers-type seed
      seed(x, y) = (1/(x - y)) prod_j (y - A_j)/(x - A_j)
  summed as  sum_gamma seed(gamma x, y) (d(gamma x)/dx)^N,
- the holomorphic N-forms theta_a(x; l), the coefficients of the
  quasi-period polynomial of Psi_N around w_a, read off exactly from its
  values at 2N-1 points of the isometric circle, and
- the period matrix, a sum over the double cosets <gamma_a>\G/<gamma_b>
      2 pi i Omega_ab = delta_ab log q_a
                        + sum'_gamma log{W_a, W_{-a}; gamma W_b, gamma W_{-b}}
  with the cross-ratio {z1, z2; z3, z4} = (z1-z3)(z2-z4)/((z1-z4)(z2-z3))
  and the identity left out when a = b (see :meth:`SurfaceForms.period_matrix`).

The coset series need no paths, quadrature or auxiliary points: the
representatives of G/<gamma_a> are the words whose last letter is not
+-a, and those of <gamma_a>\G/<gamma_b> the words whose first letter is
not +-a and whose last letter is not +-b.

Orientation conventions (load-bearing, fixed by the requirements that
Im(Omega) is positive definite, exp(2*pi*i*Omega_11) recovers the genus-1
multiplier, and the one-form normalization below):

- the cycle dual to handle a is the circle at w_{-a} traversed
  counterclockwise in the plane, and (1/2*pi*i) oint nu_b = delta_ab on it;
- nu_a has residue +1 at the attracting images gamma W_{-a}; with the
  opposite sign (which one also meets in the literature) every sign
  downstream flips and Im(Omega) comes out negative definite;
- 2 pi i Omega_ab is the integral of nu_b along a path from z0 on the
  circle at w_a to gamma_a z0.

Every evaluation returns an :class:`Estimate`, whose tail is the last
word shell's contribution plus a rounding floor (infinite at L = 0).
The floor is eps times the terms' sizes |Re| + |Im| times the ulps of
two roundings: each term's own (one ulp, or the per-term bound of
``SurfaceForms._orbit_ulps`` in the seed- and power-kernel sums, whose
terms divide by gamma x - A_j and gamma x - y), and the summation's.  A
term meeting at most k roundings on its way into a sum moves it by
gamma_k = k u / (1 - k u) of its size, u = eps/2 (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 4.2); k counts numpy's pairwise
sum (``_sum_ulps``) and one addition per later block, k = 27 + 12 on the
genus-3 fixture at L = 6.  The period-matrix entries get the same floor.
The quasi-period coefficients carry the kernel tails at their sample
points through the same finite Fourier transform as the values.  Raising
the word cutoff must move any value by less than its tail; the test
suite enforces this.

The pointwise sums (everything above but the period matrix) walk the
word table in fixed blocks of at most ``_ORBIT_BLOCK`` rows, the last
shell starting a block of its own.  Per block they form gamma x and
gamma'x, the terms and their rounding bounds, and add the block's sum,
floor and last-shell part to running totals in row order; no temporary
spans the whole table.
The blocks depend on the word table only, so every value is reproduced
bit for bit on every call, and a kernel summed at several y in one pass
(as the quasi-period coefficients do) equals its single-y value.
Against a sum over the whole table in one pass, blocking moves a value by
summation rounding only, which the floor bounds.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from schottky.group import (
    GroupWord,
    InvalidParameterError,
    SchottkyError,
    SchottkyParams,
    TruncationPolicy,
    classical_from_params,
    enumerate_group,
    generator_map,
    in_fundamental_domain,
    require_admissible,
    require_finite,
    require_in_domain,
    require_integer,
)

__all__ = [
    "Estimate",
    "PeriodMatrixResult",
    "PoleProximityError",
    "ConvergenceError",
    "ConfigurationError",
    "SurfaceForms",
    "kernel_seed",
]

# Points closer than this to a pole of a summand abort the evaluation.
POLE_GUARD = 1e-9

# Machine epsilon of float64, the unit of every tail's rounding floor.
EPS = float(np.finfo(np.float64).eps)

# Rows per block of the orbit sums.  A complex temporary of one block
# takes 32 KiB, so the dozen alive at once stay in cache and under glibc's
# default 128 KiB mmap threshold: they are reused from the heap instead
# of being mapped and zero-filled afresh on every pass.
_ORBIT_BLOCK = 2048


class PoleProximityError(SchottkyError):
    """An evaluation point collided with a pole of a truncated summand."""

    def __init__(self, message: str, word: GroupWord | None = None):
        super().__init__(message)
        self.word = word


class ConvergenceError(SchottkyError):
    """A truncated value failed its internal consistency check."""


class ConfigurationError(SchottkyError):
    """The parameter set cannot support the requested construction."""


# Tails are raised by this factor, far above the few ulps that their own
# arithmetic can lose, and each eps of rounding brings this absolute part
# (16 units of the smallest subnormal) for gradual underflow.
_TAIL_UP = 1.0 + 2.0**-40
_UNDERFLOW = 2.0**-1070


@dataclass(frozen=True)
class Estimate:
    """A value and a bound ``tail`` on its distance from the true value.

    The producer documents what the tail covers; it is infinite where
    nothing bounds the value.  ``+`` and ``*`` take estimates or plain
    numbers (exact), ``/`` a real number and ``**`` an int n >= 0.  For a
    and b within t_a and t_b of the truth the result's tail is the
    rigorous bound t_a + t_b, |a| t_b + t_a |b| + t_a t_b, t_a / |c| or
    (|a| + t_a)^n - |a|^n, plus the operation's own rounding: eps |result|
    for + and /, 2 eps |result| for * (a complex product rounds by at
    most sqrt(5)/2 eps; Brent, Percival and Zimmermann, Math. Comp. 2007)
    and 2 (n - 1) eps |result| for ** n, which compounds like n - 1
    products.  An exact zero times an infinite tail counts as zero.  The
    value is the plain floating-point result, bit for bit.
    """

    value: complex
    tail: float

    def __add__(self, other):
        b = _parts(other)
        if b is None:
            return NotImplemented
        return _rounded(self.value + b[0], self.tail + b[1], 1)

    def __mul__(self, other):
        b = _parts(other)
        if b is None:
            return NotImplemented
        a, ta, tb = abs(self.value), self.tail, b[1]
        grow = _times(a, tb) + _times(ta, abs(b[0])) + _times(ta, tb)
        return _rounded(self.value * b[0], grow, 2)

    # IEEE sums and CPython's complex products are commutative bit for bit.
    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        return _rounded(self.value / c, self.tail / abs(c), 1)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        a, t = abs(self.value), self.tail
        # (a + t)^n - a^n as t sum_k (a + t)^k a^(n-1-k): no cancellation.
        grow = _times(t, sum(_times((a + t) ** k, a ** (n - 1 - k)) for k in range(n)))
        return _rounded(self.value**n, grow, 2 * max(n - 1, 0))


def _parts(x) -> tuple[complex, float] | None:
    """Value and tail of an estimate; a plain number is exact; None for anything else."""
    if isinstance(x, Estimate):
        return x.value, x.tail
    return (x, 0.0) if isinstance(x, numbers.Number) else None


def _rounded(value: complex, grow: float, ulps: int) -> Estimate:
    return Estimate(value, (grow + ulps * (EPS * abs(value) + _UNDERFLOW)) * _TAIL_UP)


def _times(x: float, y: float) -> float:
    """x * y for bounds: an exact zero gives zero, also against an infinity."""
    return x * y if x and y else 0.0


@dataclass(frozen=True)
class PeriodMatrixResult:
    """Period matrix with its convergence diagnostics.

    ``omega`` is the g x g matrix of the double-coset series of
    :meth:`SurfaceForms.period_matrix` (see the module docstring), 2 pi i
    Omega_ab being the integral of nu_b along the b-cycle of handle a.

    Integer rule: Omega is defined modulo integers in its real parts (a
    different marking of the b-cycles).  Each off-diagonal entry is
    computed once per unordered pair and mirrored, so Omega is exactly
    symmetric; then the real part of every entry is reduced into
    (-1/2, 1/2], a real part within its rounding floor of -1/2 being
    taken as +1/2.  A half-integer real part (the identity cross-ratio or
    q_a on the negative real axis) thus gets the same representative at
    every cutoff and in every rotated frame.  Even-lattice theta values
    do not depend on the rule.

    ``tail`` is the largest entry tail: the last word shell of the entry's
    sum plus its rounding floor, over 2 pi (infinite at L = 0).
    """

    omega: np.ndarray
    tail: float


def kernel_seed(x: complex, y: complex, limit_points: Sequence[complex]) -> complex:
    """Seed kernel (1/(x-y)) prod_j (y - A_j)/(x - A_j).

    With the single point A = 0 this is 1/(x-y) - 1/x, the seed of the
    third-kind differential; with 2N-1 points it is the weight-N Bers
    seed.
    """
    x = complex(x)
    y = complex(y)
    if x == y:
        raise PoleProximityError("seed kernel evaluated on its diagonal pole")
    out = 1.0 / (x - y)
    for A in limit_points:
        out *= (y - A) / (x - A)
    return out


class SurfaceForms:
    """Evaluator for the truncated function theory of one parameter set.

    Immutable after construction: the word table and the generator
    fixed points (:func:`~schottky.group.classical_from_params`) are
    frozen here, so repeated evaluations are deterministic.  ``words`` is
    the :class:`~schottky.group.WordTable` of
    :func:`~schottky.group.enumerate_group`; the orbit and coset sums
    read its arrays directly.  The fixed points serve the coset series,
    the period matrix and, sliced in handle order, the pole basis of the
    weight-N seeds (see :meth:`_seed_points`).  The only state added
    later is a memo of Z and Omega, which :mod:`schottky.correlators`
    fills on first use with values that the parameters and policy fix.

    Parameters
    ----------
    sp:
        Validated Schottky parameters (validation is re-run; invalid sets
        are rejected).
    policy:
        Truncation policy; ``max_word_length`` bounds the cached words.
    """

    def __init__(self, sp: SchottkyParams, policy: TruncationPolicy | None = None):
        self.sp = sp
        self.policy = policy if policy is not None else TruncationPolicy()
        require_admissible(sp)
        if not in_fundamental_domain(sp, 0.0):
            raise InvalidParameterError(
                "the origin lies inside a disc; the third-kind normalization "
                "needs it exterior - move the discs off the origin with "
                "mobius_act_on_params first"
            )
        self.words = enumerate_group(sp, self.policy.max_word_length)
        self._wa, self._wb = self.words.a, self.words.b
        self._wc, self._wd = self.words.c, self.words.d
        self._blocks = _row_blocks(self.words.length)
        # numpy's pairwise sum of a block, then one addition per later block.
        self._sum_ulps = _sum_ulps(max(e - s for s, e, _ in self._blocks), len(self._blocks) - 1)
        self._grow = 1.0 + self.words.length
        self._classical = classical_from_params(sp)
        # Per-surface results of schottky.correlators: Z per mode cutoff
        # and the period matrix, each computed on first use.
        self._memo: dict = {}

    # -- construction helpers ------------------------------------------------

    def _require_handle(self, a: int) -> int:
        a = require_integer(a, "handle index", 1)
        if a > self.sp.genus:
            raise InvalidParameterError(
                f"handle index must be 1..{self.sp.genus}, got {a}"
            )
        return a

    def _seed_points(self, weight: int) -> tuple[complex, ...]:
        """Pole basis A_1..A_{2N-1} of the weight-N seed.

        Weight 1 takes the single point 0 (the auxiliary pole of the
        third-kind normalization); weight N the first 2N-1 of the fixed
        points in handle order (W_1, W_{-1}, W_2, W_{-2}, ...), which are
        pairwise distinct as each lies in its own disc.  The 2g points
        serve weights up to g.
        """
        if weight == 1:
            return (0.0,)
        if weight > self.sp.genus:
            raise ConfigurationError(
                f"weight {weight} needs {2 * weight - 1} seed points, but genus "
                f"{self.sp.genus} has {2 * self.sp.genus} fixed points; "
                "weight N kernels need genus >= N"
            )
        cp = self._classical
        points = [p for pair in zip(cp.W_plus, cp.W_minus) for p in pair]
        return tuple(points[: 2 * weight - 1])

    # -- orbit plumbing ------------------------------------------------------

    def _orbit(
        self, x: complex, s: int, e: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """gamma x, d(gamma x)/dx and c x + d for the words in rows s..e-1."""
        den = self._wc[s:e] * x + self._wd[s:e]
        gx = (self._wa[s:e] * x + self._wb[s:e]) / den
        dgx = 1.0 / (den * den)
        return gx, dgx, den

    def _fixed_point_images(
        self, rows: np.ndarray, h: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """gamma W_h, gamma W_{-h} and their difference for the words in rows.

        The difference is formed as (W_h - W_{-h}) / ((c W_h + d)(c W_{-h} + d))
        (the words are det-1), which keeps its full relative accuracy where
        the two images agree to many digits.
        """
        Wp = self._classical.W_plus[h - 1]
        Wm = self._classical.W_minus[h - 1]
        a, b, c, d = (w[rows] for w in (self._wa, self._wb, self._wc, self._wd))
        den_p = c * Wp + d
        den_m = c * Wm + d
        return (a * Wp + b) / den_p, (a * Wm + b) / den_m, (Wp - Wm) / (den_p * den_m)

    def _reduce(
        self,
        terms: Callable[[int, int], Sequence[tuple[np.ndarray, np.ndarray | None]]],
        count: int,
        first: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sums over the word table, one row block at a time.

        ``terms(s, e)`` returns ``count`` pairs (vals, ulps) for the rows
        s..e-1 (from row ``first`` on): the terms of each summed quantity
        and their per-term rounding bound from :meth:`_orbit_ulps`, or
        None for a bound of one ulp (eps |term|, the magnitude taken as
        |Re| + |Im|).  Each block's sum, its rounding floor sum |vals| ulps
        and, for a block of the last shell, its sum again are added to
        running totals in row order, so the result depends on the word
        table only.  Returns per quantity the total, the last shell's sum
        and the floor in units of eps: the terms' own rounding plus that
        of the summation (see the module docstring).
        """
        totals = np.zeros(count, dtype=np.complex128)
        shells = np.zeros(count, dtype=np.complex128)
        floors = np.zeros(count)
        for s, e, last in self._blocks:
            s = max(s, first)
            if s >= e:
                continue
            for j, (vals, ulps) in enumerate(terms(s, e)):
                part = vals.sum()
                totals[j] += part
                if last:
                    shells[j] += part
                if ulps is None:
                    floors[j] += (1.0 + self._sum_ulps) * _abs_sum(vals)
                else:
                    # The summation's share per term, as |Re| + |Im| <= sqrt(2) |term|.
                    floors[j] += np.abs(vals) @ (ulps + math.sqrt(2.0) * self._sum_ulps)
        return totals, shells, floors

    def _tails(self, shells: np.ndarray, floors: np.ndarray) -> np.ndarray:
        """Last-shell magnitude plus eps times the floor; infinite at L = 0."""
        if self.policy.max_word_length == 0:
            return np.full(len(shells), math.inf)
        return np.abs(shells) + EPS * floors

    def _sum(
        self,
        term: Callable[[int, int], tuple[np.ndarray, np.ndarray | None]],
        first: int = 0,
    ) -> Estimate:
        """One blocked sum (see :meth:`_reduce`) and its tail."""
        totals, shells, floors = self._reduce(lambda s, e: (term(s, e),), 1, first)
        return Estimate(complex(totals[0]), float(self._tails(shells, floors)[0]))

    def _orbit_ulps(self, weight: int, kappa: np.ndarray, s: int, e: int) -> np.ndarray:
        """Per-word bound, in ulps, on the rounding of an orbit term (rows s..e-1).

        A term (gamma'x)^N / prod_P (gamma x - P) gets (1 + k)(6N + 4 kappa)
        ulps, k the word length and kappa the sum over the poles P of
        |gamma x| / |gamma x - P|.  The word table gives gamma x and
        gamma'x to 4(1 + k) and 6(1 + k) ulps (measured on the test
        fixtures), and each difference gamma x - P amplifies the first by
        |gamma x| / |gamma x - P|, large where the orbit nears a pole.
        """
        return self._grow[s:e] * (6.0 * weight + 4.0 * kappa)

    def _guard_poles(self, dist: np.ndarray, s: int, what: str) -> None:
        """Refuse a block whose distances to a pole (rows s..) fall below the guard."""
        if dist.min() < POLE_GUARD:
            w = GroupWord(self.words.letters(s + int(np.argmin(dist))))
            raise PoleProximityError(
                f"{what}: evaluation point within {POLE_GUARD} of a pole "
                f"(word {w.letters})",
                word=w,
            )

    # -- seed-kernel series ----------------------------------------------------

    def _kernel_many_y(
        self, x: complex, ys: np.ndarray, weight: int, dy: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """sum_gamma seed(gamma x, y) (gamma'x)^weight at each y, or its d/dy.

        Returns (values, tails), one entry per y.  The seed carries the
        pole basis fixed at construction; it is P(y) / ((x - y) prod_j
        (x - A_j)) with P(y) = prod_j (y - A_j), and the value is P(y) S_1,
        S_k the orbit sum of (gamma'x)^weight / (prod_j (gamma x - A_j)
        (gamma x - y)^k).  Only with ``dy`` does the pass also form S_2,
        for the term-wise derivative P'(y) S_1 + P(y) S_2.  The rounding
        floor is the per-term bound of :meth:`_orbit_ulps` over the poles
        A_j and y.  Each y is summed with the same operations as a call
        with y alone.
        """
        A = self._seed_points(weight)
        poly = np.ones_like(ys)
        dpoly = np.zeros_like(ys)
        for Aj in A:
            dpoly = dpoly * (ys - Aj) + poly
            poly = poly * (ys - Aj)
        what = "weight-%d kernel%s" % (weight, " derivative" if dy else "")

        def terms(s: int, e: int) -> list[tuple[np.ndarray, np.ndarray]]:
            gx, dgx, _ = self._orbit(x, s, e)
            coef, inv = self._orbit_seed_coef(gx, dgx, A, weight)
            abs_gx = np.abs(gx)
            out = []
            for y in ys:
                diff = gx - y
                dist = np.abs(diff)
                self._guard_poles(dist, s, what)
                ulps = self._orbit_ulps(weight, abs_gx * (inv + 1.0 / dist), s, e)
                out.append((coef / diff, ulps))
                if dy:
                    # The shifted terms divide by gamma x - y once more.
                    shifted = ulps + self._orbit_ulps(0, abs_gx / dist, s, e)
                    out.append((coef / (diff * diff), shifted))
            return out

        totals, shells, floors = self._reduce(terms, (2 if dy else 1) * len(ys))
        if not dy:
            return poly * totals, np.abs(poly) * self._tails(shells, floors)
        vals = dpoly * totals[::2] + poly * totals[1::2]
        shell = dpoly * shells[::2] + poly * shells[1::2]
        return vals, self._tails(shell, np.abs(dpoly) * floors[::2] + np.abs(poly) * floors[1::2])

    def _orbit_seed_coef(
        self,
        gx: np.ndarray,
        dgx: np.ndarray,
        A: tuple[complex, ...],
        weight: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(gamma'x)^N / prod_j (gamma x - A_j) over a block of the orbit.

        Returns the coefficients and sum_j 1 / |gamma x - A_j|, which
        times |gamma x| amplifies their rounding (see :meth:`_orbit_ulps`).
        No pole guard on gx - A_j: the truncated orbit clusters at the
        limit points by design, and the derivative power vanishes fast
        enough that these terms decay.  Deep words can even collide with
        a basis point bitwise (both sit on the same limit point to float
        resolution); such a term vanishes like the word multiplier to the
        power N-1, so it is zeroed rather than divided.
        """
        coef = dgx**weight
        inv = np.zeros(len(gx))
        for Aj in A:
            diff = gx - Aj
            dead = diff == 0
            if dead.any():
                diff = np.where(dead, 1.0, diff)
                coef = np.where(dead, 0.0, coef)
            coef = coef / diff
            inv += 1.0 / np.abs(diff)
        return coef, inv

    def _kernel_at(self, x: complex, y: complex, weight: int, dy: bool = False) -> Estimate:
        """One-point :meth:`_kernel_many_y`, x and y validated."""
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")
        vals, tails = self._kernel_many_y(x, np.array([y], dtype=np.complex128), weight, dy)
        return Estimate(complex(vals[0]), float(tails[0]))

    # -- public evaluations ----------------------------------------------------

    def third_kind_form(self, x: complex, y: complex) -> Estimate:
        """Differential of the third kind: simple poles at y (res +1) and 0.

        Weight (1, 0); the y-dependence is through the pole location only.
        Convergence of the series is governed by x, which must lie in the
        fundamental domain; y may sit anywhere off the orbit of x (the
        meromorphic continuation in y), which quasi-period checks rely on.
        """
        return self._kernel_at(x, y, 1)

    def recursion_kernel(self, x: complex, y: complex, weight: int) -> Estimate:
        """Weight-N kernel of the genus-g recursion (N-form in x).

        For weight 1 this is the third-kind differential; for weight >= 2
        the series over the Bers-type seed with the frozen pole basis.
        Simple pole at x = y with residue 1 in the x variable.  As with
        the third-kind form, y may lie anywhere off the orbit of x.
        """
        return self._kernel_at(x, y, require_integer(weight, "weight", 1))

    def recursion_kernel_dy(self, x: complex, y: complex, weight: int) -> Estimate:
        """Analytic d/dy of the weight-N kernel (term-wise, no differencing)."""
        return self._kernel_at(x, y, require_integer(weight, "weight", 1), dy=True)

    def bidifferential(self, x: complex, y: complex) -> Estimate:
        """Symmetric normalized bidifferential, double pole on the diagonal.

        x must lie in the fundamental domain; y anywhere off the orbit
        of x (the continuation in the second argument).
        """
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential")
            return dgx / (diff * diff), None

        return self._sum(term)

    def bidifferential_dfirst(self, x: complex, y: complex) -> Estimate:
        """Analytic partial of the bidifferential in its first argument."""
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, den = self._orbit(x, s, e)
            ggx = self._second_derivatives(den, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential derivative")
            return ggx / (diff * diff) - 2.0 * dgx * dgx / (diff * diff * diff), None

        return self._sum(term)

    def bidifferential_dsecond(self, x: complex, y: complex) -> Estimate:
        """Analytic partial of the bidifferential in its second argument."""
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential derivative")
            return 2.0 * dgx / (diff * diff * diff), None

        return self._sum(term)

    def _second_derivatives(self, den: np.ndarray, s: int, e: int) -> np.ndarray:
        """d^2(gamma x)/dx^2 for the rows s..e-1, given their c x + d."""
        return -2.0 * self._wc[s:e] / (den * den * den)

    def power_bidifferential(self, x: complex, y: complex, weight: int) -> Estimate:
        """sum_gamma (d(gamma x) dy / (gamma x - y)^2)^N, weight (N, N)."""
        weight = require_integer(weight, "weight", 1)
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")

        def term(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            dist = np.abs(diff)
            self._guard_poles(dist, s, "power bidifferential")
            # The rounding floor is the per-term bound of _orbit_ulps with
            # the pole y counted 2N times.
            kappa = 2.0 * weight * np.abs(gx) / dist
            return (dgx / (diff * diff)) ** weight, self._orbit_ulps(weight, kappa, s, e)

        return self._sum(term)

    def projective_connection(self, x: complex) -> Estimate:
        """s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2.

        The prefactor 6 matches the regularized-diagonal definition
        s(x) = 6 lim_{y->x} (omega(x,y) - dx dy/(x-y)^2), which is what
        the Virasoro one-point value s(x)/12 is built from.
        """
        x = require_in_domain(self.sp, x, "x")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - x
            if np.abs(diff).min() < POLE_GUARD:
                raise PoleProximityError("projective connection: x at an orbit point")
            return 6.0 * dgx / (diff * diff), None

        return self._sum(term, first=1)

    def projective_connection_derivative(self, x: complex) -> Estimate:
        """Analytic d/dx of the projective connection."""
        x = require_in_domain(self.sp, x, "x")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, den = self._orbit(x, s, e)
            ggx = self._second_derivatives(den, s, e)
            diff = gx - x
            if np.abs(diff).min() < POLE_GUARD:
                raise PoleProximityError("projective connection derivative: pole")
            return 6.0 * (ggx / (diff * diff) - 2.0 * dgx * (dgx - 1.0) / (diff**3)), None

        return self._sum(term, first=1)

    # -- holomorphic one-forms ---------------------------------------------------

    def _one_form_sum(
        self,
        a: int,
        x: complex,
        term: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> Estimate:
        """Blocked sum over G/<gamma_a> of term(delta, dm, dp) at x.

        The cosets are the words whose last letter is not +-a; per word
        delta = gamma W_a - gamma W_{-a}, dm = x - gamma W_{-a} and
        dp = x - gamma W_a.  The images are limit points, strictly inside
        the discs, so they never meet an x of the fundamental domain.
        """
        a = self._require_handle(a)
        x = require_in_domain(self.sp, x, "x")
        last = self.words.last

        def block(s: int, e: int) -> tuple[np.ndarray, None]:
            rows = s + np.flatnonzero(np.abs(last[s:e]) != a)
            img_p, img_m, delta = self._fixed_point_images(rows, a)
            return term(delta, x - img_m, x - img_p), None

        return self._sum(block)

    def holomorphic_form(self, a: int, x: complex) -> Estimate:
        """Normalized holomorphic 1-form nu_a at x (a in 1..g).

        nu_a(x) = sum_{gamma in G/<gamma_a>} [1/(x - gamma W_{-a})
        - 1/(x - gamma W_a)], each term formed as
        -delta / ((x - gamma W_{-a})(x - gamma W_a)) with
        delta = gamma W_a - gamma W_{-a}, so that no digits cancel.
        Normalization: (1/2*pi*i) oint nu_b = delta_ab on the circle at
        w_{-a}, counterclockwise.
        """
        return self._one_form_sum(a, x, lambda delta, dm, dp: -delta / (dm * dp))

    def holomorphic_form_derivative(self, a: int, x: complex) -> Estimate:
        """Analytic d/dx of nu_a (term-wise differentiation)."""

        def term(delta: np.ndarray, dm: np.ndarray, dp: np.ndarray) -> np.ndarray:
            prod = dm * dp
            return delta * (dm + dp) / (prod * prod)

        return self._one_form_sum(a, x, term)

    # -- quasi-period coefficients ----------------------------------------------

    def quasiperiod_coefficient(
        self, weight: int, a: int, ell: int, x: complex
    ) -> Estimate:
        """Holomorphic N-form theta_a(x; l) from the kernel quasi-periods.

        For a in 1..g and 0 <= l <= 2N-2 the theta_a(x; l) are the
        coefficients of the quasi-period polynomial

            psi_N(x,y) - psi_N(x,gamma_a y) (gamma_a'(y))^{1-N}
                = sum_l theta_a(x;l) (y - w_a)^l,

        of degree 2N-2 in y.  It is sampled at the 2N-1 nodes
        y_k = w_a + r_a e^{2 pi i k/(2N-1)} on the isometric circle of w_a,
        with gamma_a'(y)^{1-N} = (c y + d)^{2N-2} for the det-1 generator,
        and its coefficients are the discrete Fourier transform of the
        samples, theta_a(x;l) = mean_k(d_k e^{-2 pi i l k/(2N-1)}) / r_a^l,
        exact for a polynomial of that degree.  The tail is the same
        transform of the node errors: the kernel tails at y_k and
        gamma_a y_k plus the rounding of the difference, over r_a^l.  At
        weight 1 the single member is theta_a(x;0) = -nu_a(x) (the
        quasi-period of the third-kind form runs against the one-form
        orientation fixed in the module docstring).
        """
        weight = require_integer(weight, "weight", 1)
        a = self._require_handle(a)
        ell = require_integer(ell, "coefficient index", 0)
        if ell > 2 * weight - 2:
            raise InvalidParameterError("coefficient index must lie in 0..2N-2")
        x = require_in_domain(self.sp, x, "x")
        n = 2 * weight - 1
        r = self.sp.radius(a)
        g = generator_map(self.sp, a)
        ys = self.sp.center(a) + r * np.exp(2j * np.pi * np.arange(n) / n)
        den = g.c * ys + g.d
        vals, tails = self._kernel_many_y(
            x, np.concatenate([ys, (g.a * ys + g.b) / den]), weight
        )
        factor = den ** (2 * weight - 2)
        moved = vals[n:] * factor
        phase = np.exp(-2j * np.pi * ell * np.arange(n) / n)
        value = complex(np.mean((vals[:n] - moved) * phase)) / r**ell
        tail = np.mean(
            tails[:n] + np.abs(factor) * tails[n:]
            + EPS * (np.abs(vals[:n]) + np.abs(moved))
        ) / r**ell
        return Estimate(value, float(tail))

    # -- period matrix ---------------------------------------------------

    def period_matrix(self) -> PeriodMatrixResult:
        """Period matrix Omega from the double-coset series.

        2 pi i Omega_ab = delta_ab log q_a + the sum over the words whose
        first letter is not +-a and whose last letter is not +-b (the
        identity dropped when a = b) of log{W_a, W_{-a}; gamma W_b,
        gamma W_{-b}}.  Each log is taken as log1p of cross-ratio - 1,
        formed as (W_a - W_{-a})(gamma W_b - gamma W_{-b}) /
        ((W_a - gamma W_{-b})(W_{-a} - gamma W_b)), so the deep terms keep
        their relative accuracy.  See :class:`PeriodMatrixResult` for the
        integer rule and the tail.
        """
        g = self.sp.genus
        L = self.policy.max_word_length
        cp = self._classical
        first = np.abs(self.words.first_letters())
        last = np.abs(self.words.last)
        omega = np.empty((g, g), dtype=np.complex128)
        worst = 0.0
        for b in range(1, g + 1):
            rows = np.flatnonzero(last != b)
            img_p, img_m, delta = self._fixed_point_images(rows, b)
            for a in range(1, b + 1):
                keep = first[rows] != a
                if a == b:
                    keep[0] = False  # rows[0] is the identity
                Wa, Wma = cp.W_plus[a - 1], cp.W_minus[a - 1]
                terms = _log1p(
                    (Wa - Wma) * delta[keep] / ((Wa - img_m[keep]) * (Wma - img_p[keep]))
                )
                total = complex(terms.sum())
                scale = _abs_sum(terms)
                if a == b:
                    log_q = cmath.log(cp.q[a - 1])
                    total += log_q
                    scale += abs(log_q)
                # One ulp per term, the pairwise sum and the log q addition.
                floor = EPS * scale * (1.0 + _sum_ulps(len(terms), 1)) / (2.0 * math.pi)
                tail = math.inf
                if L > 0:
                    shell = abs(terms[self.words.length[rows][keep] == L].sum())
                    tail = shell / (2.0 * math.pi) + floor
                value = total / (2j * math.pi)
                re = value.real - math.ceil(value.real - 0.5 - floor)
                omega[a - 1, b - 1] = omega[b - 1, a - 1] = complex(re, value.imag)
                worst = max(worst, tail)
        return PeriodMatrixResult(omega, worst)


def _row_blocks(length: np.ndarray) -> tuple[tuple[int, int, bool], ...]:
    """Row blocks (s, e, last) of a word table with word lengths ``length``.

    Blocks hold at most _ORBIT_BLOCK rows.  The last shell (the longest
    words, last in the breadth-first order) starts a block of its own, so
    every block lies wholly inside it (``last`` true) or wholly before it.
    """
    n = len(length)
    start = int(np.searchsorted(length, length[-1]))
    cuts = [*range(0, start, _ORBIT_BLOCK), *range(start, n, _ORBIT_BLOCK), n]
    return tuple((s, e, s >= start) for s, e in zip(cuts[:-1], cuts[1:]))


def _sum_ulps(n: int, more: int) -> float:
    """gamma_k / eps for numpy's sum of n >= 1 complex terms and ``more`` additions.

    numpy sums a run of m <= 64 terms through four accumulators, combined
    in two levels, then the m mod 4 leftovers: at most min(m, m // 4 + 4)
    roundings per term.  A longer run is halved at a multiple of four, one
    rounding more, into halves of at most (m + 7) / 2 terms: at most
    20 + ceil(log2((m - 7) / 57)).  Counted on top: one addition per chunk
    of 8192 (numpy's buffer) and one for the first term.
    """
    m = min(n, 8192)
    k = min(m, m // 4 + 4) if m <= 64 else 20 + math.ceil(math.log2((m - 7) / 57))
    k += 1 + (n - 1) // 8192 + more
    return k / (2.0 - k * EPS)


def _abs_sum(terms: np.ndarray) -> float:
    """sum(|Re| + |Im|) of a 1-d complex array, a bound on sum |terms|.

    numpy's pairwise sum over the interleaved parts, with no square
    roots.  Unlike BLAS ``dasum``, whose result depends on the alignment
    of its input, it rounds the same wherever the terms sit in memory.
    """
    return float(np.abs(np.ascontiguousarray(terms).view(np.float64)).sum())


def _log1p(z: np.ndarray) -> np.ndarray:
    """Principal log(1 + z), accurate to rounding in z also where |z| is small.

    numpy's complex log1p forms |1 + z| first and so loses the real part
    of small z; here the real part is log1p(2 Re z + |z|^2) / 2 for
    |z| < 1/2, and log|1 + z| elsewhere.
    """
    re, im = z.real, z.imag
    small = np.abs(z) < 0.5
    near = 0.5 * np.log1p(np.where(small, re * (2.0 + re) + im * im, 0.0))
    far = np.log(np.abs(np.where(small, 1.0, 1.0 + z)))
    return np.where(small, near, far) + 1j * np.arctan2(im, 1.0 + re)
