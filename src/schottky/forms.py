"""Truncated orbit sums for the function theory of a Schottky surface.

Everything here is a finite Poincare series over the reduced words of
length at most L (the truncation policy's word cutoff), evaluated with
the deterministic word order fixed by :func:`schottky.group.enumerate_group`.
The objects:

- the differential of the third kind with simple poles at y and 0,
      psi_1(x, y) = sum_gamma (1/(gamma x - y) - 1/(gamma x)) d(gamma x),
- the symmetric bidifferential of the second kind
      omega(x, y) = sum_gamma d(gamma x) dy / (gamma x - y)^2,
- the normalized holomorphic 1-forms nu_a, computed as a probe difference
      nu_a(x) = psi_1(x, gamma_a y0) - psi_1(x, y0),
- the projective connection
      s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2,
- the weight-(N, N) power kernels  sum_gamma (d(gamma x) dy/(gamma x - y)^2)^N,
- the weight-N recursion kernels Psi_N built from a Bers-type seed
      seed(x, y) = (1/(x - y)) prod_j (y - A_j)/(x - A_j)
  summed as  sum_gamma seed(gamma x, y) (d(gamma x)/dx)^N,
- the holomorphic N-forms theta_a(x; l) extracted from the quasi-periods
  of Psi_N by contour integrals over the isometric circles, and
- the period matrix, as integrals of nu_b along paths from a point of the
  circle at w_a to its image on the circle at w_{-a}.

Orientation conventions (load-bearing, fixed by the requirements that
Im(Omega) is positive definite, exp(2*pi*i*Omega_11) recovers the genus-1
multiplier, and the one-form normalization below):

- the cycle dual to handle a is the circle at w_{-a} traversed
  counterclockwise in the plane, and (1/2*pi*i) oint nu_b = delta_ab on it;
- nu_a is the probe difference written above; with the opposite order of
  the two psi_1 terms (which one also meets in the literature) every sign
  downstream flips and Im(Omega) comes out negative definite;
- the period path runs from z0 on the circle at w_a to gamma_a z0.

All evaluations report a truncation tail estimate: the magnitude of the
contribution of the last word shell (plus quadrature or probe drift where
those enter).  Doubling the word cutoff must move any reported value by
less than its reported tail; the test suite enforces this.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from schottky.group import (
    GroupWord,
    InvalidParameterError,
    MobiusMap,
    SchottkyError,
    SchottkyParams,
    TruncationPolicy,
    enumerate_group,
    generator_map,
    in_fundamental_domain,
    ordered_fixed_points,
    validate,
)

__all__ = [
    "FormValue",
    "ContourSpec",
    "PathSegment",
    "PeriodPath",
    "PeriodMatrixResult",
    "PoleProximityError",
    "ConvergenceError",
    "QuadratureError",
    "ConfigurationError",
    "PathError",
    "SurfaceForms",
    "kernel_seed",
    "select_seed_points",
    "origin_clearing_translation",
]

# Points closer than this to a pole of a summand abort the evaluation.
POLE_GUARD = 1e-9

# Inflation factor for boundary-arc detours around a disc that blocks a
# period path, relative to the disc radius.
DETOUR_INFLATION = 1.3

_X_CHUNK = 96  # column block size for (words x points) arrays


class PoleProximityError(SchottkyError):
    """An evaluation point collided with a pole of a truncated summand."""

    def __init__(self, message: str, word: GroupWord | None = None):
        super().__init__(message)
        self.word = word


class ConvergenceError(SchottkyError):
    """A truncated value failed its internal consistency check."""


class QuadratureError(SchottkyError):
    """Doubling quadrature nodes moved a contour integral above tolerance."""


class ConfigurationError(SchottkyError):
    """The parameter set cannot support the requested construction."""


class PathError(SchottkyError):
    """No admissible period path could be constructed."""


@dataclass(frozen=True)
class FormValue:
    """A differential-form coefficient with its weights and tail estimate.

    ``value`` is the coefficient of dx^weight_x dy^weight_y at the
    evaluation point(s); ``tail`` is the reported truncation estimate
    (last word shell, probe drift, or quadrature drift, whichever the
    producing operation documents).
    """

    value: complex
    weight_x: int
    weight_y: int = 0
    tail: float = 0.0


@dataclass(frozen=True)
class ContourSpec:
    """A circle for contour quadrature: center, radius, node count."""

    center: complex
    radius: float
    n_points: int = 128

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidParameterError("contour radius must be positive")
        n = self.n_points
        if not (isinstance(n, int) and n >= 32 and (n & (n - 1)) == 0):
            raise InvalidParameterError("n_points must be a power of two >= 32")

    def nodes(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.n_points) / self.n_points
        return self.center + self.radius * np.exp(1j * angles)


@dataclass(frozen=True)
class PathSegment:
    """One piece of a period path: a straight line or a circular arc.

    For a line, ``start``/``end`` are the endpoints.  For an arc,
    ``center``/``radius`` fix the circle, ``angle_start`` the initial
    angle and ``sweep`` the signed angular extent.
    """

    kind: str
    start: complex = 0.0
    end: complex = 0.0
    center: complex = 0.0
    radius: float = 0.0
    angle_start: float = 0.0
    sweep: float = 0.0

    def length(self) -> float:
        if self.kind == "line":
            return abs(self.end - self.start)
        return abs(self.sweep) * self.radius

    def point(self, t: float) -> complex:
        """Position at parameter t in [0, 1]."""
        if self.kind == "line":
            return self.start + t * (self.end - self.start)
        ang = self.angle_start + t * self.sweep
        return self.center + self.radius * cmath.exp(1j * ang)

    def velocity(self, t: float) -> complex:
        if self.kind == "line":
            return self.end - self.start
        ang = self.angle_start + t * self.sweep
        return 1j * self.sweep * self.radius * cmath.exp(1j * ang)


@dataclass(frozen=True)
class PeriodPath:
    """A chain of segments from a point of C_a to its generator image."""

    handle: int
    base_point: complex
    nominal_end: complex
    segments: tuple[PathSegment, ...]

    def total_length(self) -> float:
        return sum(seg.length() for seg in self.segments)


@dataclass(frozen=True)
class PeriodMatrixResult:
    """Period matrix with its convergence diagnostics.

    ``tail`` is the largest combined estimate (series last-shell plus
    panel-doubling quadrature drift) over all entries; ``symmetry_error``
    the largest |Omega_ab - Omega_ba|.
    """

    omega: np.ndarray
    tail: float
    symmetry_error: float

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

    Immutable after construction: the word table, the limit points for
    the weight-N seeds, the probe points for the one-forms and the period
    base points are all frozen here, so repeated evaluations are
    deterministic.  ``words`` is the :class:`~schottky.group.WordTable`
    of :func:`~schottky.group.enumerate_group`; the orbit sums read its
    matrix arrays directly.

    Parameters
    ----------
    sp:
        Validated Schottky parameters (validation is re-run; invalid sets
        are rejected).
    policy:
        Truncation policy; ``max_word_length`` bounds the cached words.
    limit_points:
        Optional override of the pole-basis points for the weight-N seeds.
        Defaults to the generator fixed points in handle order
        (W_1, W_{-1}, W_2, W_{-2}, ...).  Entries must be limit points of
        the group for the series to converge.
    probes:
        Optional pair of probe points in the fundamental domain for the
        one-form difference; chosen automatically when omitted.
    contour_points:
        Default node count for the extraction contours (power of two).
    """

    def __init__(
        self,
        sp: SchottkyParams,
        policy: TruncationPolicy | None = None,
        limit_points: Sequence[complex] | None = None,
        probes: tuple[complex, complex] | None = None,
        contour_points: int = 128,
    ):
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
        self._last_shell = self.words.length == self.policy.max_word_length

        if limit_points is None:
            self.limit_points = ordered_fixed_points(sp)
        else:
            self.limit_points = tuple(complex(p) for p in limit_points)

        if contour_points < 32 or contour_points & (contour_points - 1):
            raise InvalidParameterError("contour_points must be a power of two >= 32")
        self.contour_points = contour_points

        self._gens = {a: generator_map(sp, a) for a in sp.signed_indices}
        self.probes = tuple(probes) if probes is not None else self._choose_probes()
        if len(self.probes) != 2:
            raise InvalidParameterError("probes must be a pair of points")
        for p in self.probes:
            if not in_fundamental_domain(sp, p):
                raise InvalidParameterError("probe point lies inside a disc")
        self._period_paths: dict[int, PeriodPath] = {}

    # -- construction helpers ------------------------------------------------

    def _choose_probes(self) -> tuple[complex, complex]:
        """Two well-separated points on a ring exterior to every disc."""
        sp = self.sp
        centers = [sp.center(a) for a in sp.signed_indices]
        radii = [sp.radius(a) for a in sp.signed_indices]
        ring = 1.5 * max(abs(c) + r for c, r in zip(centers, radii)) + 0.5
        scores = []
        for k in range(32):
            p = ring * cmath.exp(2j * math.pi * k / 32)
            scores.append(min(abs(p - c) - r for c, r in zip(centers, radii)))
        k0 = max(range(32), key=lambda k: scores[k])
        # Second probe at least a quarter turn away.
        far = [
            k for k in range(32)
            if min((k - k0) % 32, (k0 - k) % 32) >= 8
        ]
        k1 = max(far, key=lambda k: scores[k])
        y0 = ring * cmath.exp(2j * math.pi * k0 / 32)
        y1 = ring * cmath.exp(2j * math.pi * k1 / 32)
        return (y0, y1)

    def _in_domain(self, z: complex) -> bool:
        """Domain membership with a hair of slack for boundary jitter.

        Quadrature nodes land exactly on the isometric circles; floating
        point can put them an ulp inside, which must not count as an
        excursion.  Genuine pole collisions are caught separately.
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

    def _seed_points(self, weight: int) -> tuple[complex, ...]:
        """First 2N-1 pairwise-distinct limit points, in the fixed order."""
        return select_seed_points(self.limit_points, weight, self.sp.genus)

    # -- orbit plumbing ------------------------------------------------------

    def _orbit_scalar(self, x: complex) -> tuple[np.ndarray, np.ndarray]:
        """gamma x and d(gamma x)/dx over all cached words, for scalar x."""
        den = self._wc * x + self._wd
        gx = (self._wa * x + self._wb) / den
        dgx = 1.0 / (den * den)
        return gx, dgx

    def _orbit_block(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orbit arrays of shape (n_words, len(xs))."""
        den = self._wc[:, None] * xs[None, :] + self._wd[:, None]
        gx = (self._wa[:, None] * xs[None, :] + self._wb[:, None]) / den
        dgx = 1.0 / (den * den)
        return gx, dgx

    def _shell_sum(self, vals: np.ndarray) -> tuple[complex, float]:
        """Total over words plus the last-shell tail magnitude.

        ``vals`` has one entry per word (1-d) in the deterministic order.
        """
        total = complex(vals.sum())
        if self.policy.max_word_length == 0:
            return total, math.inf
        tail = float(abs(vals[self._last_shell].sum()))
        return total, tail

    def _guard_poles(self, dist: np.ndarray, what: str) -> None:
        idx = int(np.argmin(dist))
        if dist.flat[idx] < POLE_GUARD:
            word_idx = idx // dist.shape[1] if dist.ndim == 2 else idx
            w = self.words[word_idx][0]
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
        pole basis fixed at construction.
        """
        A = self._seed_points(weight)
        gx, dgx = self._orbit_scalar(x)
        coef = self._orbit_seed_coef(gx, dgx, A, weight)
        poly = np.ones_like(ys)
        for Aj in A:
            poly = poly * (ys - Aj)
        vals = np.empty(len(ys), dtype=np.complex128)
        tails = np.empty(len(ys), dtype=np.float64)
        diff = gx[:, None] - ys[None, :]
        self._guard_poles(np.abs(diff), "weight-%d kernel" % weight)
        terms = coef[:, None] / diff
        for j in range(len(ys)):
            v, t = self._shell_sum(terms[:, j])
            vals[j] = poly[j] * v
            tails[j] = abs(poly[j]) * t
        return vals, tails

    def _orbit_seed_coef(
        self,
        gx: np.ndarray,
        dgx: np.ndarray,
        A: tuple[complex, ...],
        weight: int,
    ) -> np.ndarray:
        """(gamma'x)^N / prod_j (gamma x - A_j) over the cached orbit.

        No pole guard on gx - A_j: the truncated orbit clusters at the
        limit points by design, and the derivative power vanishes fast
        enough that these terms decay.  Deep words can even collide with
        a basis point bitwise (both sit on the same limit point to float
        resolution); such a term vanishes like the word multiplier to the
        power N-1, so it is zeroed rather than divided.
        """
        coef = dgx**weight
        for Aj in A:
            diff = gx - Aj
            dead = np.abs(diff) < 1e-13 * (abs(Aj) + 1.0)
            if dead.any():
                diff = np.where(dead, 1.0, diff)
                coef = np.where(dead, 0.0, coef)
            coef = coef / diff
        return coef

    def _kernel_dy_many_y(
        self, x: complex, ys: np.ndarray, weight: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """d/dy of the weight-N kernel at each y (analytic, term-wise).

        Returns (values, tails), one entry per y, the tail being the
        magnitude of the last word shell's contribution.
        """
        A = self._seed_points(weight)
        gx, dgx = self._orbit_scalar(x)
        coef = self._orbit_seed_coef(gx, dgx, A, weight)
        poly = np.ones_like(ys)
        dpoly = np.zeros_like(ys)
        for Aj in A:
            dpoly = dpoly * (ys - Aj) + poly
            poly = poly * (ys - Aj)
        diff = gx[:, None] - ys[None, :]
        self._guard_poles(np.abs(diff), "weight-%d kernel derivative" % weight)
        base = coef[:, None] / diff
        shifted = coef[:, None] / (diff * diff)
        vals = dpoly * base.sum(axis=0) + poly * shifted.sum(axis=0)
        if self.policy.max_word_length == 0:
            return vals, np.full(len(ys), math.inf)
        last = self._last_shell
        tails = np.abs(dpoly * base[last].sum(axis=0) + poly * shifted[last].sum(axis=0))
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
        gx, dgx = self._orbit_scalar(x)
        diff = gx - y
        self._guard_poles(np.abs(diff)[:, None], "bidifferential")
        vals = dgx / (diff * diff)
        total, tail = self._shell_sum(vals)
        return FormValue(total, 1, 1, tail)

    def bidifferential_dfirst(self, x: complex, y: complex) -> FormValue:
        """Analytic partial of the bidifferential in its first argument."""
        x = self._require_in_domain(x, "x")
        y = complex(y)
        gx, dgx = self._orbit_scalar(x)
        ggx = self._second_derivatives(x)
        diff = gx - y
        self._guard_poles(np.abs(diff)[:, None], "bidifferential derivative")
        vals = ggx / (diff * diff) - 2.0 * dgx * dgx / (diff * diff * diff)
        total, tail = self._shell_sum(vals)
        return FormValue(total, 2, 1, tail)

    def bidifferential_dsecond(self, x: complex, y: complex) -> FormValue:
        """Analytic partial of the bidifferential in its second argument."""
        x = self._require_in_domain(x, "x")
        y = complex(y)
        gx, dgx = self._orbit_scalar(x)
        diff = gx - y
        self._guard_poles(np.abs(diff)[:, None], "bidifferential derivative")
        vals = 2.0 * dgx / (diff * diff * diff)
        total, tail = self._shell_sum(vals)
        return FormValue(total, 1, 2, tail)

    def _second_derivatives(self, x: complex) -> np.ndarray:
        den = self._wc * x + self._wd
        return -2.0 * self._wc / (den * den * den)

    def power_bidifferential(self, x: complex, y: complex, weight: int) -> FormValue:
        """sum_gamma (d(gamma x) dy / (gamma x - y)^2)^N, weight (N, N)."""
        if weight < 1:
            raise InvalidParameterError("weight must be >= 1")
        x = self._require_in_domain(x, "x")
        y = complex(y)
        gx, dgx = self._orbit_scalar(x)
        diff = gx - y
        self._guard_poles(np.abs(diff)[:, None], "power bidifferential")
        vals = (dgx / (diff * diff)) ** weight
        total, tail = self._shell_sum(vals)
        return FormValue(total, weight, weight, tail)

    def projective_connection(self, x: complex) -> FormValue:
        """s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2.

        The prefactor 6 matches the regularized-diagonal definition
        s(x) = 6 lim_{y->x} (omega(x,y) - dx dy/(x-y)^2), which is what
        the Virasoro one-point value s(x)/12 is built from.
        """
        x = self._require_in_domain(x, "x")
        gx, dgx = self._orbit_scalar(x)
        gx, dgx = gx[1:], dgx[1:]
        diff = gx - x
        if len(diff) and np.abs(diff).min() < POLE_GUARD:
            raise PoleProximityError("projective connection: x at an orbit point")
        vals = 6.0 * dgx / (diff * diff)
        total = complex(vals.sum())
        if self.policy.max_word_length == 0:
            return FormValue(0.0, 2, 0, 0.0)
        tail = float(abs(vals[self._last_shell[1:]].sum()))
        return FormValue(total, 2, 0, tail)

    def projective_connection_derivative(self, x: complex) -> FormValue:
        """Analytic d/dx of the projective connection."""
        x = self._require_in_domain(x, "x")
        gx, dgx = self._orbit_scalar(x)
        ggx = self._second_derivatives(x)
        gx, dgx, ggx = gx[1:], dgx[1:], ggx[1:]
        diff = gx - x
        if len(diff) and np.abs(diff).min() < POLE_GUARD:
            raise PoleProximityError("projective connection derivative: pole")
        vals = 6.0 * (ggx / (diff * diff) - 2.0 * dgx * (dgx - 1.0) / (diff**3))
        total = complex(vals.sum())
        if self.policy.max_word_length == 0:
            return FormValue(0.0, 3, 0, 0.0)
        tail = float(abs(vals[self._last_shell[1:]].sum()))
        return FormValue(total, 3, 0, tail)

    # -- holomorphic one-forms ---------------------------------------------------

    def holomorphic_form(self, a: int, x: complex) -> FormValue:
        """Normalized holomorphic 1-form nu_a at x (a in 1..g).

        Probe difference nu_a(x) = psi_1(x, gamma_a y0) - psi_1(x, y0);
        the value is probe-independent up to truncation, which is checked
        against the second frozen probe.  The probe discrepancy is the
        reported tail.  Normalization: (1/2*pi*i) oint nu_b = delta_ab on
        the circle at w_{-a}, counterclockwise.
        """
        vals = self._holomorphic_forms_bulk(
            [a], np.array([complex(x)], dtype=np.complex128)
        )
        return vals[0][0]

    def holomorphic_form_derivative(self, a: int, x: complex) -> FormValue:
        """Analytic d/dx of nu_a (term-wise differentiation)."""
        if not 1 <= a <= self.sp.genus:
            raise InvalidParameterError(f"handle index must be 1..{self.sp.genus}")
        x = self._require_in_domain(x, "x")
        y0 = self.probes[0]
        ya = self._gens[a](y0)
        gx, dgx = self._orbit_scalar(x)
        ggx = self._second_derivatives(x)
        out = 0.0 + 0.0j
        tail = 0.0
        for ypt, sign in ((ya, 1.0), (y0, -1.0)):
            diff = gx - ypt
            self._guard_poles(np.abs(diff)[:, None], "one-form derivative")
            vals = sign * (-(dgx * dgx) / (diff * diff) + ggx / diff)
            total, t = self._shell_sum(vals)
            out += total
            tail += t
        return FormValue(out, 2, 0, tail)

    def _holomorphic_forms_bulk(
        self, handles: Sequence[int], xs: np.ndarray
    ) -> list[list[FormValue]]:
        """nu_a at many points, sharing one orbit evaluation.

        Returns a list (per handle) of lists (per point).  The probe
        consistency check runs on every point; its discrepancy is the
        reported tail (max with the series last shell).  The failure
        threshold is the policy tolerance with a floor of 100x the series
        shell, since probe agreement cannot be better than the truncation
        itself.
        """
        for a in handles:
            if not 1 <= a <= self.sp.genus:
                raise InvalidParameterError(
                    f"handle index must be 1..{self.sp.genus}, got {a}"
                )
        y0, y1 = self.probes
        out: list[list[FormValue]] = [[] for _ in handles]
        for start in range(0, len(xs), _X_CHUNK):
            block = xs[start:start + _X_CHUNK]
            for z in block:
                if not self._in_domain(complex(z)):
                    raise InvalidParameterError(
                        f"evaluation point {complex(z)} lies inside a disc"
                    )
            gx, dgx = self._orbit_block(block)
            for i, a in enumerate(handles):
                ga = self._gens[a]
                vals_by_probe = []
                tails_by_probe = []
                for yp in (y0, y1):
                    yimg = ga(yp)
                    d1 = gx - yimg
                    d0 = gx - yp
                    self._guard_poles(np.abs(d1), "one-form")
                    self._guard_poles(np.abs(d0), "one-form")
                    terms = (1.0 / d1 - 1.0 / d0) * dgx
                    totals = terms.sum(axis=0)
                    if self.policy.max_word_length == 0:
                        shell = np.full(len(block), math.inf)
                    else:
                        shell = np.abs(terms[self._last_shell].sum(axis=0))
                    vals_by_probe.append(totals)
                    tails_by_probe.append(shell)
                drift = np.abs(vals_by_probe[0] - vals_by_probe[1])
                worst = float(drift.max()) if len(drift) else 0.0
                if worst > max(self.policy.tol, 100.0 * float(np.max(tails_by_probe[0], initial=0.0))):
                    raise ConvergenceError(
                        f"one-form probe dependence {worst:.3g} exceeds tol "
                        f"{self.policy.tol:.3g}; increase max_word_length"
                    )
                for j in range(len(block)):
                    tail = max(float(drift[j]), float(tails_by_probe[0][j]))
                    out[i].append(FormValue(complex(vals_by_probe[0][j]), 1, 0, tail))
        return out

    # -- quasi-period extraction ---------------------------------------------------

    def laurent_coefficient(
        self, weight: int, a: int, ell: int, x: complex,
        contour: ContourSpec | None = None,
    ) -> tuple[complex, float]:
        """Laurent coefficient of the weight-N kernel on the circle at w_a.

        chi_a(x; l) = (1/2*pi*i) oint psi_N(x, y) (y - w_a)^{-l-1} dy over
        the isometric circle of the signed index a, counterclockwise, by
        trapezoidal quadrature with node doubling.  Returns (value, drift)
        where drift is the node-doubling change.
        """
        x = self._require_in_domain(x, "x")
        if a == 0 or abs(a) > self.sp.genus:
            raise InvalidParameterError("signed handle index out of range")
        if contour is None:
            contour = ContourSpec(
                self.sp.center(a), self.sp.radius(a), self.contour_points
            )
        fine = ContourSpec(contour.center, contour.radius, 2 * contour.n_points)
        vals = []
        for spec in (contour, fine):
            ys = spec.nodes()
            kvals, _ = self._kernel_many_y(x, ys, weight)
            rel = ys - spec.center
            vals.append(complex(np.mean(kvals * rel ** (-ell))))
        drift = abs(vals[1] - vals[0])
        scale = max(1.0, abs(vals[1]))
        if drift > max(self.policy.tol * scale, 1e-13 * scale):
            raise QuadratureError(
                f"contour coefficient did not converge under node doubling "
                f"(drift {drift:.3g}); raise contour_points"
            )
        return vals[1], drift

    def quasiperiod_coefficient(
        self, weight: int, a: int, ell: int, x: complex,
        contour_points: int | None = None,
    ) -> FormValue:
        """Holomorphic N-form theta_a(x; l) from the kernel quasi-periods.

        theta_a(x;l) = chi_a(x;l) + (-1)^N rho_a^{N-1-l} chi_{-a}(x;2N-2-l)
        for a in 1..g and 0 <= l <= 2N-2, where chi are the Laurent
        coefficients over the two isometric circles of handle a.  These
        satisfy the quasi-period reconstruction

            psi_N(x,y) - psi_N(x,gamma_a y) (gamma_a'(y))^{1-N}
                = sum_l theta_a(x;l) (y - w_a)^l,

        an exact polynomial identity in y up to truncation tails.  At
        weight 1 the single member is theta_a(x;0) = -nu_a(x) (the
        quasi-period of the third-kind form runs against the one-form
        orientation fixed in the module docstring).
        """
        if not 1 <= a <= self.sp.genus:
            raise InvalidParameterError(f"handle index must be 1..{self.sp.genus}")
        if not 0 <= ell <= 2 * weight - 2:
            raise InvalidParameterError("coefficient index must lie in 0..2N-2")
        n = contour_points if contour_points is not None else self.contour_points
        rho = self.sp.rho[a - 1]
        ca = ContourSpec(self.sp.center(a), self.sp.radius(a), n)
        cma = ContourSpec(self.sp.center(-a), self.sp.radius(-a), n)
        chi_a, drift_a = self.laurent_coefficient(weight, a, ell, x, ca)
        chi_ma, drift_ma = self.laurent_coefficient(
            weight, -a, 2 * weight - 2 - ell, x, cma
        )
        sign = -1.0 if weight % 2 else 1.0
        value = chi_a + sign * rho ** (weight - 1 - ell) * chi_ma
        tail = drift_a + abs(rho ** (weight - 1 - ell)) * drift_ma
        return FormValue(value, weight, 0, tail)

    # -- period matrix ---------------------------------------------------

    def period_path(self, a: int) -> PeriodPath:
        """The cached integration path for handle a (built on first use)."""
        if a not in self._period_paths:
            self._period_paths[a] = self._build_period_path(a)
        return self._period_paths[a]

    def _build_period_path(self, a: int, flip_detours: frozenset[int] = frozenset()) -> PeriodPath:
        """Path from z0 on the circle at w_a to gamma_a z0.

        z0 scans 64 boundary angles; admissible candidates leave the
        circle at w_a outward and arrive at the circle at w_{-a} inward
        (so the open chord stays off both handle-a discs); among those the
        chord maximizing its clearance from all other discs wins.  Discs
        still blocking the chord get boundary-arc detours (minor arc by
        default; ``flip_detours`` switches sides per disc when the caller
        needs the other homotopy class).
        """
        sp = self.sp
        if not 1 <= a <= sp.genus:
            raise InvalidParameterError(f"handle index must be 1..{sp.genus}")
        ga = self._gens[a]
        wa, wma = sp.center(a), sp.center(-a)
        ra = sp.radius(a)
        others = [b for b in sp.signed_indices if b not in (a, -a)]

        def chord_clearance(p: complex, q: complex) -> float:
            if not others:
                return math.inf
            return min(
                _segment_clearance(p, q, sp.center(b)) - sp.radius(b) for b in others
            )

        def admissibility(theta: float) -> tuple[float, complex, complex]:
            """min(outward departure, inward arrival) for the chord at theta.

            Nonnegative means the straight chord never re-enters either
            handle disc (the distance to a point is unimodal along a line,
            so a nonnegative radial speed at an endpoint on the circle
            keeps the chord outside from there on).
            """
            z0 = wa + ra * cmath.exp(1j * theta)
            e = ga(z0)
            v = e - z0
            outward = (v * (z0 - wa).conjugate()).real
            inward = (v * (e - wma).conjugate()).real
            return min(outward, -inward), z0, e

        step = 2.0 * math.pi / 64
        grid = [admissibility(k * step) for k in range(64)]
        passing = [t for t in grid if t[0] >= 0]
        if passing:
            _, z0, e = max(passing, key=lambda t: chord_clearance(t[1], t[2]))
        else:
            # The admissible window can be far narrower than the grid step
            # (its width shrinks like radius/separation when the handle
            # discs face each other); refine the max-min by ternary search
            # around the best grid angle.
            k0 = max(range(64), key=lambda k: grid[k][0])
            lo = (k0 - 2) * step
            hi = (k0 + 2) * step
            for _ in range(120):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if admissibility(m1)[0] < admissibility(m2)[0]:
                    lo = m1
                else:
                    hi = m2
            h_star, z0, e = admissibility(0.5 * (lo + hi))
            if h_star < 0:
                raise PathError(
                    f"no admissible departure angle on the circle of handle "
                    f"{a}: every chord to its generator image re-enters a "
                    "handle disc"
                )

        segments: list[PathSegment] = []
        blockers = []
        for b in others:
            det_r = DETOUR_INFLATION * sp.radius(b)
            if _segment_clearance(z0, e, sp.center(b)) < det_r:
                ts = _segment_circle_hits(z0, e, sp.center(b), det_r)
                if ts is not None:
                    blockers.append((ts[0], ts[1], b, det_r))
        blockers.sort()
        cursor = z0
        for t1, t2, b, det_r in blockers:
            c = sp.center(b)
            s1 = z0 + t1 * (e - z0)
            s2 = z0 + t2 * (e - z0)
            th1 = cmath.phase(s1 - c)
            th2 = cmath.phase(s2 - c)
            sweep = (th2 - th1 + math.pi) % (2.0 * math.pi) - math.pi
            if abs(b) in flip_detours:
                sweep = sweep - math.copysign(2.0 * math.pi, sweep)
            segments.append(PathSegment("line", start=cursor, end=s1))
            segments.append(
                PathSegment("arc", center=c, radius=det_r, angle_start=th1, sweep=sweep)
            )
            cursor = s2
        segments.append(PathSegment("line", start=cursor, end=e))
        segments = [s for s in segments if s.length() > 0]
        path = PeriodPath(a, z0, e, tuple(segments))
        self._check_path_clear(path, a)
        return path

    def _check_path_clear(self, path: PeriodPath, a: int) -> None:
        sp = self.sp
        for seg in path.segments:
            for t in np.linspace(0.0, 1.0, 33):
                z = seg.point(float(t))
                for b in sp.signed_indices:
                    # Endpoints sit exactly on the handle-a circles, which
                    # gives margin 0 there; anything clearly inside is a
                    # genuine excursion.
                    margin = abs(z - sp.center(b)) - sp.radius(b)
                    if margin < -1e-9:
                        raise PathError(
                            f"period path for handle {a} enters disc {b} "
                            "and could not be rerouted"
                        )

    def _integrate_forms_along(
        self, path: PeriodPath, handles: Sequence[int], panels_scale: int = 1
    ) -> tuple[np.ndarray, float, float]:
        """Integrals of nu_b (b in handles) along the path.

        Composite 16-node Gauss-Legendre panels per segment.  Returns
        (values, series_tail, probe_tail): one integral per handle, the
        largest series last-shell estimate among nodes (scaled by path
        length) and the largest probe drift.
        """
        nodes16, weights16 = np.polynomial.legendre.leggauss(16)
        xs_all: list[complex] = []
        ws_all: list[complex] = []
        for seg in path.segments:
            n_panels = max(2, math.ceil(seg.length() / 0.25)) * panels_scale
            for p in range(n_panels):
                t0 = p / n_panels
                t1 = (p + 1) / n_panels
                tm = 0.5 * (t0 + t1)
                th = 0.5 * (t1 - t0)
                for u, w in zip(nodes16, weights16):
                    t = tm + th * u
                    xs_all.append(seg.point(t))
                    ws_all.append(w * th * seg.velocity(t))
        xs = np.array(xs_all, dtype=np.complex128)
        ws = np.array(ws_all, dtype=np.complex128)
        bulk = self._holomorphic_forms_bulk(handles, xs)
        values = np.empty(len(handles), dtype=np.complex128)
        series_tail = 0.0
        probe_tail = 0.0
        length = path.total_length()
        for i in range(len(handles)):
            fv = bulk[i]
            vals = np.array([f.value for f in fv], dtype=np.complex128)
            tails = np.array([f.tail for f in fv], dtype=np.float64)
            values[i] = complex((vals * ws).sum())
            series_tail = max(series_tail, float(tails.max()) * length)
            probe_tail = max(probe_tail, float(tails.max()) * length)
        return values, series_tail, probe_tail

    def period_matrix(
        self, paths: dict[int, PeriodPath] | None = None
    ) -> PeriodMatrixResult:
        """Period matrix Omega with 2*pi*i Omega_ab = integral of nu_b
        along the handle-a path.

        ``paths`` overrides the cached paths (used by finite-difference
        callers to freeze geometry); if a supplied path's nominal end
        differs from the current generator image of its base point, a
        short straight correction segment is appended so the integral
        ends at gamma_a z0 for *this* parameter set.

        The off-diagonal entries are defined modulo integers: winding a
        period path once around a disc of another handle shifts the
        corresponding entry by 1 (a different but equally valid marking).
        The raw integrals are therefore canonicalized by subtracting the
        rounded integer antisymmetry from the upper triangle - the lower
        triangle entry fixes the branch.  This is locally constant in the
        parameters, so finite differences of the result are unaffected,
        and partition functions of even lattices do not see the shift.

        Diagnostics: quadrature drift under panel doubling plus series
        tails enter ``tail``; |Omega - Omega^T| max-norm after the integer
        correction is ``symmetry_error``.  If detours were needed and the
        result is still asymmetric beyond tolerance, the detour sides are
        flipped and the most symmetric variant wins.
        """
        g = self.sp.genus
        handles = list(range(1, g + 1))
        omega = np.zeros((g, g), dtype=np.complex128)
        worst_tail = 0.0

        def entry_rows(path_map: dict[int, PeriodPath]) -> tuple[np.ndarray, float]:
            om = np.zeros((g, g), dtype=np.complex128)
            tail_acc = 0.0
            for a in handles:
                base = path_map[a]
                segs = list(base.segments)
                current_end = self._gens[a](base.base_point)
                if abs(current_end - base.nominal_end) > 0:
                    segs.append(
                        PathSegment("line", start=base.nominal_end, end=current_end)
                    )
                path = PeriodPath(a, base.base_point, current_end, tuple(segs))
                coarse, st, pt = self._integrate_forms_along(path, handles, 1)
                fine, st2, pt2 = self._integrate_forms_along(path, handles, 2)
                drift = float(np.abs(fine - coarse).max())
                tail_acc = max(tail_acc, drift + max(st2, pt2))
                om[a - 1, :] = fine / (2j * math.pi)
            return om, tail_acc

        def canonicalize(om: np.ndarray) -> np.ndarray:
            om = om.copy()
            for i in range(g):
                for j in range(i + 1, g):
                    shift = round(float((om[i, j] - om[j, i]).real))
                    om[i, j] -= shift
            return om

        if paths is None:
            path_map = {a: self.period_path(a) for a in handles}
        else:
            path_map = {a: paths[a] for a in handles}
        omega, worst_tail = entry_rows(path_map)
        omega = canonicalize(omega)
        symmetry = float(np.abs(omega - omega.T).max())

        has_detours = any(
            any(seg.kind == "arc" for seg in path_map[a].segments) for a in handles
        )
        if paths is None and has_detours and symmetry > max(1e-6, 10.0 * worst_tail):
            # Try the other homotopy class around each detoured disc: the
            # two sides differ by an integer shift of one column, and only
            # one of them is the canonical marking (the symmetric one).
            best = (symmetry, omega, worst_tail)
            for a in handles:
                detoured = sorted(
                    {  # discs the handle-a path detours around
                        b
                        for seg in path_map[a].segments
                        if seg.kind == "arc"
                        for b in range(1, g + 1)
                        if abs(seg.center - self.sp.center(b)) < 1e-12
                        or abs(seg.center - self.sp.center(-b)) < 1e-12
                    }
                )
                for b in detoured:
                    alt = dict(path_map)
                    alt[a] = self._build_period_path(a, frozenset({b}))
                    om2, t2 = entry_rows(alt)
                    om2 = canonicalize(om2)
                    s2 = float(np.abs(om2 - om2.T).max())
                    if s2 < best[0]:
                        best = (s2, om2, t2)
            symmetry, omega, worst_tail = best
        if symmetry > max(1e-6, 10.0 * worst_tail):
            raise ConvergenceError(
                f"period matrix asymmetry {symmetry:.3g} exceeds tolerance; "
                "raise the word cutoff or inspect the path geometry"
            )
        return PeriodMatrixResult(omega, worst_tail, symmetry)


def _segment_clearance(p: complex, q: complex, c: complex) -> float:
    """Distance from the segment [p, q] to the point c."""
    d = q - p
    L2 = (d * d.conjugate()).real
    if L2 == 0:
        return abs(c - p)
    t = ((c - p) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p + t * d - c)


def _segment_circle_hits(
    p: complex, q: complex, c: complex, r: float
) -> tuple[float, float] | None:
    """Parameters (t1, t2) where segment [p,q] crosses the circle (c, r).

    None when the segment misses the circle or only touches it; the
    endpoints are assumed exterior (clamped slightly inward otherwise).
    """
    d = q - p
    a2 = (d * d.conjugate()).real
    if a2 == 0:
        return None
    f = p - c
    b = 2.0 * (f * d.conjugate()).real
    c0 = (f * f.conjugate()).real - r * r
    disc = b * b - 4.0 * a2 * c0
    if disc <= 0:
        return None
    root = math.sqrt(disc)
    t1 = (-b - root) / (2.0 * a2)
    t2 = (-b + root) / (2.0 * a2)
    if t2 <= 0.0 or t1 >= 1.0:
        return None
    return (max(t1, 1e-9), min(t2, 1.0 - 1e-9))
