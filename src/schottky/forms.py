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

All evaluations report a tail: the magnitude of the contribution of the
last word shell plus a rounding floor, or infinity at L = 0.  The floor
is eps * sum |terms| (eps the float64 machine epsilon; the summed
magnitudes use |Re| + |Im|); the seed- and power-kernel sums, whose terms
divide by gamma x - A_j and gamma x - y, give each term its own bound in
ulps instead (``SurfaceForms._orbit_ulps``).  The quasi-period coefficients carry the
kernel tails at their sample points through the same finite Fourier
transform as the values.  Raising the word cutoff must move any reported
value by less than its reported tail; the test suite enforces this.

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
summation rounding only, a few eps * sum |terms|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dasum

from schottky.group import (
    GroupWord,
    InvalidParameterError,
    MobiusMap,
    SchottkyError,
    SchottkyParams,
    TruncationPolicy,
    classical_from_params,
    enumerate_group,
    generator_map,
    in_fundamental_domain,
    ordered_fixed_points,
    validate,
)

__all__ = [
    "FormValue",
    "PeriodMatrixResult",
    "PoleProximityError",
    "ConvergenceError",
    "ConfigurationError",
    "SurfaceForms",
    "kernel_seed",
    "select_seed_points",
    "origin_clearing_translation",
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


@dataclass(frozen=True)
class FormValue:
    """A differential-form coefficient with its weights and tail estimate.

    ``value`` is the coefficient of dx^weight_x dy^weight_y at the
    evaluation point(s); ``tail`` is the reported truncation estimate
    (last word shell plus rounding, as the producing operation
    documents).
    """

    value: complex
    weight_x: int
    weight_y: int
    tail: float


@dataclass(frozen=True)
class PeriodMatrixResult:
    r"""Period matrix with its convergence diagnostics.

    ``omega`` is the g x g matrix of the two coset series

        nu_b(x) = sum_{gamma in G/<gamma_b>}
                  [1/(x - gamma W_{-b}) - 1/(x - gamma W_b)] dx,
        2 pi i Omega_ab = delta_ab log q_a
                  + sum'_{gamma in <gamma_a>\G/<gamma_b>}
                    log{W_a, W_{-a}; gamma W_b, gamma W_{-b}},

    2 pi i Omega_ab being the integral of nu_b along the b-cycle of
    handle a.  Coset representatives: the reduced words of length <= L
    whose first letter is not +-a and whose last letter is not +-b; the
    prime drops the identity when a = b.  Each log is principal.

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

    @property
    def genus(self) -> int:
        return self.omega.shape[0]

    def im_min_eigenvalue(self) -> float:
        sym = 0.5 * (self.omega.imag + self.omega.imag.T)
        return float(np.linalg.eigvalsh(sym).min())


def select_seed_points(
    limit_points: Sequence[complex], weight: int, genus: int
) -> tuple[complex, ...]:
    """First 2N-1 pairwise-distinct limit points, in the given order.

    Weight 1 always uses the single point 0 (the auxiliary pole of the
    third-kind normalization); higher weights slice the fixed ordering.
    """
    if weight == 1:
        return (0.0,)
    need = 2 * weight - 1
    chosen: list[complex] = []
    for p in limit_points:
        p = complex(p)
        if all(p != c for c in chosen):
            chosen.append(p)
        if len(chosen) == need:
            return tuple(chosen)
    raise ConfigurationError(
        f"weight {weight} needs {need} distinct limit points, "
        f"only {len(chosen)} available (genus {genus}); "
        "weight >= 2 kernels need genus >= 2"
    )


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


def origin_clearing_translation(sp: SchottkyParams) -> MobiusMap:
    """A translation making the origin exterior to every disc.

    The third-kind normalization places an auxiliary pole at 0, so the
    origin must lie in the fundamental domain.  When it does not, conjugate
    the parameters by the returned map (via mobius_act_on_params) first.
    The shift moves the mean disc center to the origin's antipode at a safe
    distance; identity if the origin is already clear.
    """
    if in_fundamental_domain(sp, 0.0):
        return MobiusMap(1.0, 0.0, 0.0, 1.0)
    centers = [sp.center(a) for a in sp.signed_indices]
    radii = [sp.radius(a) for a in sp.signed_indices]
    reach = max(abs(c) + r for c, r in zip(centers, radii))
    # Any exterior point p works; translate by -p to move p to the origin.
    best = None
    best_clear = -math.inf
    for k in range(32):
        p = 1.5 * reach * cmath.exp(2j * math.pi * k / 32)
        clear = min(abs(p - c) - r for c, r in zip(centers, radii))
        if clear > best_clear:
            best_clear = clear
            best = p
    return MobiusMap(1.0, -best, 0.0, 1.0)


class SurfaceForms:
    """Evaluator for the truncated function theory of one parameter set.

    Immutable after construction: the word table and the pole basis of
    the weight-N seeds, the generator fixed points in handle order
    (W_1, W_{-1}, W_2, W_{-2}, ...), are frozen here, so repeated
    evaluations are deterministic.  ``words`` is the
    :class:`~schottky.group.WordTable` of
    :func:`~schottky.group.enumerate_group`; the orbit and coset sums
    read its arrays directly.  The only state added later is a memo of
    Z and Omega, which :mod:`schottky.correlators` fills on first use
    with values that the parameters and policy fix.

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
        report = validate(sp)
        if not report.ok:
            raise InvalidParameterError(
                "parameters violate the disc condition: "
                + "; ".join(
                    f"pair ({v.index_a},{v.index_b}) margin {v.margin:.3g}"
                    for v in report.violations
                )
                + ("; " + "; ".join(report.issues) if report.issues else "")
            )
        if not in_fundamental_domain(sp, 0.0):
            raise InvalidParameterError(
                "the origin lies inside a disc; the third-kind normalization "
                "needs it exterior - conjugate the parameters by "
                "origin_clearing_translation(sp) first"
            )
        self.words = enumerate_group(sp, self.policy.max_word_length)
        self._wa, self._wb = self.words.a, self.words.b
        self._wc, self._wd = self.words.c, self.words.d
        self._blocks = _row_blocks(self.words.length)
        self._grow = 1.0 + self.words.length
        self._classical = classical_from_params(sp)
        self.limit_points = ordered_fixed_points(sp)
        # Per-surface results of schottky.correlators: Z per mode cutoff
        # and the period matrix, each computed on first use.
        self._memo: dict = {}

    # -- construction helpers ------------------------------------------------

    def _in_domain(self, z: complex) -> bool:
        """Domain membership with a hair of slack for boundary jitter.

        Boundary points and their generator images land on the
        isometric circles; floating point can put them an ulp inside,
        which must not count as an excursion.  Genuine pole collisions
        are caught separately.
        """
        sp = self.sp
        return all(
            abs(z - sp.center(b)) >= sp.radius(b) * (1.0 - 1e-12)
            for b in sp.signed_indices
        )

    def _require_in_domain(self, z: complex, name: str) -> complex:
        z = complex(z)
        if not self._in_domain(z):
            raise InvalidParameterError(
                f"{name} = {z} lies inside an isometric disc"
            )
        return z

    def _require_handle(self, a: int) -> None:
        if not 1 <= a <= self.sp.genus:
            raise InvalidParameterError(
                f"handle index must be 1..{self.sp.genus}, got {a}"
            )

    def _seed_points(self, weight: int) -> tuple[complex, ...]:
        """First 2N-1 pairwise-distinct limit points, in the fixed order."""
        return select_seed_points(self.limit_points, weight, self.sp.genus)

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
        and the floor.
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
                floors[j] += _abs_sum(vals) if ulps is None else np.abs(vals) @ ulps
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
    ) -> tuple[complex, float]:
        """One blocked sum (see :meth:`_reduce`) and its tail."""
        totals, shells, floors = self._reduce(lambda s, e: (term(s, e),), 1, first)
        return complex(totals[0]), float(self._tails(shells, floors)[0])

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
            w = self.words[s + int(np.argmin(dist))][0]
            raise PoleProximityError(
                f"{what}: evaluation point within {POLE_GUARD} of a pole "
                f"(word {w.letters})",
                word=w,
            )

    # -- seed-kernel series ----------------------------------------------------

    def _kernel_many_y(
        self, x: complex, ys: np.ndarray, weight: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """sum_gamma seed(gamma x, y) (gamma'x)^weight for each y.

        Returns (values, tails), one entry per y.  The seed carries the
        pole basis fixed at construction.  The rounding floor is the
        per-term bound of :meth:`_orbit_ulps` over the poles A_j and y.
        Each y is summed with the same operations as a call with y alone.
        """
        A = self._seed_points(weight)
        poly = np.ones_like(ys)
        for Aj in A:
            poly = poly * (ys - Aj)
        what = "weight-%d kernel" % weight

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
            return out

        totals, shells, floors = self._reduce(terms, len(ys))
        return poly * totals, np.abs(poly) * self._tails(shells, floors)

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

    def _kernel_dy_many_y(
        self, x: complex, ys: np.ndarray, weight: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """d/dy of the weight-N kernel at each y (analytic, term-wise).

        Returns (values, tails), one entry per y, the tail being the
        magnitude of the last word shell's contribution plus the per-term
        rounding floor of :meth:`_orbit_ulps`.
        """
        A = self._seed_points(weight)
        poly = np.ones_like(ys)
        dpoly = np.zeros_like(ys)
        for Aj in A:
            dpoly = dpoly * (ys - Aj) + poly
            poly = poly * (ys - Aj)
        what = "weight-%d kernel derivative" % weight

        def terms(s: int, e: int) -> list[tuple[np.ndarray, np.ndarray]]:
            gx, dgx, _ = self._orbit(x, s, e)
            coef, inv = self._orbit_seed_coef(gx, dgx, A, weight)
            abs_gx = np.abs(gx)
            out = []
            for y in ys:
                diff = gx - y
                dist = np.abs(diff)
                self._guard_poles(dist, s, what)
                # The shifted terms divide by gamma x - y once more.
                kappa_y = abs_gx / dist
                ulps = self._orbit_ulps(weight, abs_gx * inv + kappa_y, s, e)
                ulps_shifted = ulps + self._orbit_ulps(0, kappa_y, s, e)
                out += [(coef / diff, ulps), (coef / (diff * diff), ulps_shifted)]
            return out

        totals, shells, floors = self._reduce(terms, 2 * len(ys))
        vals = dpoly * totals[::2] + poly * totals[1::2]
        if self.policy.max_word_length == 0:
            return vals, np.full(len(ys), math.inf)
        tails = np.abs(dpoly * shells[::2] + poly * shells[1::2]) + EPS * (
            np.abs(dpoly) * floors[::2] + np.abs(poly) * floors[1::2]
        )
        return vals, tails

    # -- public evaluations ----------------------------------------------------

    def third_kind_form(self, x: complex, y: complex) -> FormValue:
        """Differential of the third kind: simple poles at y (res +1) and 0.

        Weight (1, 0); the y-dependence is through the pole location only.
        Convergence of the series is governed by x, which must lie in the
        fundamental domain; y may sit anywhere off the orbit of x (the
        meromorphic continuation in y), which quasi-period checks rely on.
        """
        x = self._require_in_domain(x, "x")
        y = complex(y)
        vals, tails = self._kernel_many_y(x, np.array([y], dtype=np.complex128), 1)
        return FormValue(complex(vals[0]), 1, 0, float(tails[0]))

    def recursion_kernel(self, x: complex, y: complex, weight: int) -> FormValue:
        """Weight-N kernel of the genus-g recursion (N-form in x).

        For weight 1 this is the third-kind differential; for weight >= 2
        the series over the Bers-type seed with the frozen pole basis.
        Simple pole at x = y with residue 1 in the x variable.  As with
        the third-kind form, y may lie anywhere off the orbit of x.
        """
        if weight < 1:
            raise InvalidParameterError("weight must be >= 1")
        x = self._require_in_domain(x, "x")
        y = complex(y)
        vals, tails = self._kernel_many_y(x, np.array([y], dtype=np.complex128), weight)
        return FormValue(complex(vals[0]), weight, 1 - weight, float(tails[0]))

    def recursion_kernel_dy(self, x: complex, y: complex, weight: int) -> FormValue:
        """Analytic d/dy of the weight-N kernel (term-wise, no differencing)."""
        x = self._require_in_domain(x, "x")
        y = complex(y)
        vals, tails = self._kernel_dy_many_y(x, np.array([y], dtype=np.complex128), weight)
        return FormValue(complex(vals[0]), weight, 2 - weight, float(tails[0]))

    def bidifferential(self, x: complex, y: complex) -> FormValue:
        """Symmetric normalized bidifferential, double pole on the diagonal.

        x must lie in the fundamental domain; y anywhere off the orbit
        of x (the continuation in the second argument).
        """
        x = self._require_in_domain(x, "x")
        y = complex(y)

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential")
            return dgx / (diff * diff), None

        total, tail = self._sum(term)
        return FormValue(total, 1, 1, tail)

    def bidifferential_dfirst(self, x: complex, y: complex) -> FormValue:
        """Analytic partial of the bidifferential in its first argument."""
        x = self._require_in_domain(x, "x")
        y = complex(y)

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, den = self._orbit(x, s, e)
            ggx = self._second_derivatives(den, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential derivative")
            return ggx / (diff * diff) - 2.0 * dgx * dgx / (diff * diff * diff), None

        total, tail = self._sum(term)
        return FormValue(total, 2, 1, tail)

    def bidifferential_dsecond(self, x: complex, y: complex) -> FormValue:
        """Analytic partial of the bidifferential in its second argument."""
        x = self._require_in_domain(x, "x")
        y = complex(y)

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            self._guard_poles(np.abs(diff), s, "bidifferential derivative")
            return 2.0 * dgx / (diff * diff * diff), None

        total, tail = self._sum(term)
        return FormValue(total, 1, 2, tail)

    def _second_derivatives(self, den: np.ndarray, s: int, e: int) -> np.ndarray:
        """d^2(gamma x)/dx^2 for the rows s..e-1, given their c x + d."""
        return -2.0 * self._wc[s:e] / (den * den * den)

    def power_bidifferential(self, x: complex, y: complex, weight: int) -> FormValue:
        """sum_gamma (d(gamma x) dy / (gamma x - y)^2)^N, weight (N, N)."""
        if weight < 1:
            raise InvalidParameterError("weight must be >= 1")
        x = self._require_in_domain(x, "x")
        y = complex(y)

        def term(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - y
            dist = np.abs(diff)
            self._guard_poles(dist, s, "power bidifferential")
            # The rounding floor is the per-term bound of _orbit_ulps with
            # the pole y counted 2N times.
            kappa = 2.0 * weight * np.abs(gx) / dist
            return (dgx / (diff * diff)) ** weight, self._orbit_ulps(weight, kappa, s, e)

        total, tail = self._sum(term)
        return FormValue(total, weight, weight, tail)

    def projective_connection(self, x: complex) -> FormValue:
        """s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2.

        The prefactor 6 matches the regularized-diagonal definition
        s(x) = 6 lim_{y->x} (omega(x,y) - dx dy/(x-y)^2), which is what
        the Virasoro one-point value s(x)/12 is built from.
        """
        x = self._require_in_domain(x, "x")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, _ = self._orbit(x, s, e)
            diff = gx - x
            if np.abs(diff).min() < POLE_GUARD:
                raise PoleProximityError("projective connection: x at an orbit point")
            return 6.0 * dgx / (diff * diff), None

        total, tail = self._sum(term, first=1)
        return FormValue(total, 2, 0, tail)

    def projective_connection_derivative(self, x: complex) -> FormValue:
        """Analytic d/dx of the projective connection."""
        x = self._require_in_domain(x, "x")

        def term(s: int, e: int) -> tuple[np.ndarray, None]:
            gx, dgx, den = self._orbit(x, s, e)
            ggx = self._second_derivatives(den, s, e)
            diff = gx - x
            if np.abs(diff).min() < POLE_GUARD:
                raise PoleProximityError("projective connection derivative: pole")
            return 6.0 * (ggx / (diff * diff) - 2.0 * dgx * (dgx - 1.0) / (diff**3)), None

        total, tail = self._sum(term, first=1)
        return FormValue(total, 3, 0, tail)

    # -- holomorphic one-forms ---------------------------------------------------

    def _one_form_sum(
        self,
        a: int,
        x: complex,
        term: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> tuple[complex, float]:
        """Blocked sum over G/<gamma_a> of term(delta, dm, dp) at x.

        The cosets are the words whose last letter is not +-a; per word
        delta = gamma W_a - gamma W_{-a}, dm = x - gamma W_{-a} and
        dp = x - gamma W_a.  The images are limit points, strictly inside
        the discs, so they never meet an x of the fundamental domain.
        """
        self._require_handle(a)
        x = self._require_in_domain(x, "x")
        last = self.words.last

        def block(s: int, e: int) -> tuple[np.ndarray, None]:
            rows = s + np.flatnonzero(np.abs(last[s:e]) != a)
            img_p, img_m, delta = self._fixed_point_images(rows, a)
            return term(delta, x - img_m, x - img_p), None

        return self._sum(block)

    def holomorphic_form(self, a: int, x: complex) -> FormValue:
        """Normalized holomorphic 1-form nu_a at x (a in 1..g).

        nu_a(x) = sum_{gamma in G/<gamma_a>} [1/(x - gamma W_{-a})
        - 1/(x - gamma W_a)], each term formed as
        -delta / ((x - gamma W_{-a})(x - gamma W_a)) with
        delta = gamma W_a - gamma W_{-a}, so that no digits cancel.
        Normalization: (1/2*pi*i) oint nu_b = delta_ab on the circle at
        w_{-a}, counterclockwise.
        """
        total, tail = self._one_form_sum(a, x, lambda delta, dm, dp: -delta / (dm * dp))
        return FormValue(total, 1, 0, tail)

    def holomorphic_form_derivative(self, a: int, x: complex) -> FormValue:
        """Analytic d/dx of nu_a (term-wise differentiation)."""

        def term(delta: np.ndarray, dm: np.ndarray, dp: np.ndarray) -> np.ndarray:
            prod = dm * dp
            return delta * (dm + dp) / (prod * prod)

        total, tail = self._one_form_sum(a, x, term)
        return FormValue(total, 2, 0, tail)

    # -- quasi-period coefficients ----------------------------------------------

    def quasiperiod_coefficient(
        self, weight: int, a: int, ell: int, x: complex
    ) -> FormValue:
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
        self._require_handle(a)
        if not 0 <= ell <= 2 * weight - 2:
            raise InvalidParameterError("coefficient index must lie in 0..2N-2")
        x = self._require_in_domain(x, "x")
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
        return FormValue(value, weight, 0, float(tail))

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
                floor = EPS * scale / (2.0 * math.pi)
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


def _abs_sum(terms: np.ndarray) -> float:
    """sum(|Re| + |Im|) of a 1-d complex array, a bound on sum |terms|.

    One BLAS pass over the interleaved parts: no square roots and, for a
    contiguous array, no temporary.
    """
    if not terms.size:
        return 0.0
    return dasum(np.ascontiguousarray(terms).view(np.float64))


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
