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
  values at 2N-1 points of the isometric circle, all a and l at once, and
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
two roundings: each term's own and the summation's.  One rule,
:func:`_orbit_ulps`, sets a term's own in every pointwise sum.  A term
of a word of k letters, one over 2N forms l_P = num - P den = den (gamma
x - P) of its pair (num, den) = (a x + b, c x + d) (gamma x = num / den,
gamma'x = den^-2), gets (1 + k)(6N + 4 kappa) ulps of rounding and
k c (N + drift) of the float generators' error; kappa sums (|gamma x| +
|P|) / |gamma x - P| and drift r / |gamma x - P| over its forms.  The
table gives gamma x and den to 4 and 3 ulps per letter, so a form is
computed as l_P (1 + h) + num g plus its own rounding against |num| +
|P| |den|: h counts once per form (6N), g is amplified by |gamma x| /
|gamma x - P| and the own rounding by kappa's share.  The one-forms put
x for P and gamma W_{+-a} for gamma x.  r is the largest radius and c =
max_a (|w_a w_{-a}| + |rho_a|) / |rho_a| the generators' conditioning.
Poles off the limit set are charged with reach = max_a (|w_a| + r_a) >=
|gamma x| (gamma != id); the weight-1 kernel's 0 per block, at min_a
(|w_a| - r_a) <= |gamma x|.  The pole at y, which every pointwise sum
but the one-forms has (s puts x for y), is charged by one rule at every
weight and cutoff (``SurfaceForms._pole_at_y``): per word in the
identity's block, at |gamma x - y|, and per block past it, at y's
clearance delta(y) <= |gamma x - y|, the least |y - w_a| - r_a less a
rounding margin, as every gamma x but x itself lies in a closed disc
(``SurfaceForms._clearance``), or where delta(y) is at most the pole
guard (y on a circle, inside a disc or nearly so) at the block's least
|gamma x - y|.  Limit points (the seed's basis points, gamma W_{+-a})
are charged per term, as deep words approach them.  grow and skew are
per block, its longest word's, but per word in the identity's block, the
one block that any sum prices per word.  The period matrix charges one ulp
per term, log q_a too; against 40-digit sums over the true group it
stayed within 0.06 of its tail.  A term meeting at most m roundings on
its way into a sum moves it by gamma_m = m u / (1 - m u) of its size,
u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms, sec.
4.2); m counts numpy's pairwise sum of a block (``_sum_ulps``) and the
pairwise sum of the B block sums, ceil(log2 B) additions: m = 27 + 4 on
the genus-3 fixture at L = 6 (B = 13).  The quasi-period coefficients
carry the kernel tails at their sample points through the
same finite Fourier transform as the values.  Raising the word cutoff
must move any value by less than its tail; the test suite enforces this.

Every sum walks the word table in fixed blocks of at most ``_ORBIT_BLOCK``
rows, the last shell starting a block of its own, adds the block sums
and their last-shell parts pairwise and the floors in row order; no
temporary spans the whole table.  The blocks are cut once per word
table into the block plan (``SurfaceForms._blocks``): one read-only
record per block with its rows, whether it lies in the last shell, and
the floor data that every sum reads, grow, skew and the weight-1
kernel's share of its pole at 0.  The sums read the plan and keep
nothing of their own, and the plan depends on the word table only, so
every value is reproduced bit for bit on every call.  A pass may sum
several quantities, each with the same operations as alone: a kernel at
several y (every quasi-period coefficient at x is one pass) equals its
single-y value, and the period matrix is one pass over its g(g+1)/2
entries.  Against a one-pass sum over the whole table, blocking moves a
value by summation rounding only, which the floor bounds.

The word table is enumerated on the first orbit, coset or period sum of
a :class:`SurfaceForms`, not at construction: the correlators of
:mod:`schottky.correlators` take omega, s and Z from the mode resolvent
of :mod:`schottky.modes`, so a surface that only serves them never
enumerates.  These Poincare sums stay the oracle of that route, and the
only route at weight >= 2.  ``lattice_partition`` reads the period
matrix that each surface computes once and keeps (``periods``).  One
cached record per parameter set (:func:`_surface`), the only admissibility
check, holds the handle data of both routes; SurfaceForms takes its gates
and the c, r and reach of its floors from it.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from schottky.group import (
    DOMAIN_SLACK,
    ClassicalParams,
    InvalidParameterError,
    SchottkyError,
    SchottkyParams,
    TruncationPolicy,
    WordTable,
    _first_letters,
    classical_from_params,
    enumerate_group,
    generator_map,
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
]

# Points closer than this to a pole of a summand abort the evaluation.
POLE_GUARD = 1e-9

# Machine epsilon of float64, the unit of every tail's rounding floor.
EPS = float(np.finfo(np.float64).eps)

# Entries of each per-surface LRU cache, forms._surface and modes._system:
# perfbench's g3-lattice rotates four surfaces; rotating more recomputes.
CACHE_ENTRIES = 4

# Rows per block of the orbit sums.  A complex temporary of one block
# takes 32 KiB, so the dozen alive at once stay in cache and under glibc's
# default 128 KiB mmap threshold: they are reused from the heap instead
# of being mapped and zero-filled afresh on every pass.
_ORBIT_BLOCK = 2048


class PoleProximityError(SchottkyError):
    """An evaluation point collided with a pole of a truncated summand.

    ``letters`` spells the summand's word (WordTable.letters), or is None.
    """

    def __init__(self, message: str, letters: tuple[int, ...] | None = None):
        super().__init__(message)
        self.letters = letters


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


def _kernel_seed(x: complex, y: complex, limit_points: Sequence[complex]) -> complex:
    """Seed kernel (1/(x-y)) prod_j (y - A_j)/(x - A_j).

    With the single point A = 0 this is 1/(x-y) - 1/x, the seed of the
    third-kind differential; with 2N-1 points it is the weight-N Bers
    seed.
    """
    x = complex(x)
    y = complex(y)
    out = 1.0 / (x - y)
    for A in limit_points:
        out *= (y - A) / (x - A)
    return out


class _Block(NamedTuple):
    """One record of the block plan (``SurfaceForms._blocks``): rows s..e-1 of
    the word table, ``last`` if they lie in the last shell, and the floor data
    that every sum reads (module docstring): grow = 1 + k and skew = c k for
    words of k letters, and ``base``, the weight-1 kernel's share of its pole
    at 0, :func:`_orbit_ulps` (1, 1, r / min_a (|w_a| - r_a), grow, skew).
    Per word (read-only arrays) in the identity's block, else numbers at the
    block's longest word.  The identity's block (s = 0) is the one block that
    every sum prices per word, the pole at y too (``SurfaceForms._pole_at_y``)."""

    s: int
    e: int
    last: bool
    grow: np.ndarray | float
    skew: np.ndarray | float
    base: np.ndarray | float


class SurfaceForms:
    """Evaluator for the truncated function theory of one parameter set.

    Immutable after construction: the parameters' validated record
    (:func:`_surface`, which the mode route reads too) is read here, and
    all that is formed later, on first use, depends on the parameters and
    the policy alone and is formed once by its owner, read-only, so
    repeated evaluations are deterministic.  ``words`` is the
    :class:`~schottky.group.WordTable` of
    :func:`~schottky.group.enumerate_group`, built on first use (an
    oversize or overflowing cutoff is refused then); the orbit and coset
    sums read its arrays directly, in the row blocks of the block plan
    ``_blocks``, whose records (:class:`_Block`) carry each block's floor
    data.  The generator fixed points
    (:func:`~schottky.group.classical_from_params`), also formed on first
    use, serve the coset series, the period matrix and, sliced in handle
    order, the pole basis of the weight-N seeds (see :meth:`_seed_points`);
    no mode-route request reads them.  ``periods`` is the
    period matrix, computed on first use and kept with a read-only
    ``omega``.

    Parameters
    ----------
    sp:
        Schottky parameters, refused if not a SchottkyParams, inadmissible
        or with the origin inside a disc (the record's gates, checked once
        per parameter set).
    policy:
        Truncation policy (None for the default, else refused unless a
        TruncationPolicy); ``max_word_length`` bounds the cached words.
    """

    def __init__(self, sp: SchottkyParams, policy: TruncationPolicy | None = None):
        if not isinstance(sp, SchottkyParams):
            raise InvalidParameterError(f"sp = {sp!r} is not a SchottkyParams")
        if policy is not None and not isinstance(policy, TruncationPolicy):
            raise InvalidParameterError(f"policy = {policy!r} is not a TruncationPolicy")
        self.sp = sp
        self.policy = policy if policy is not None else TruncationPolicy()
        self._surface = _origin_exterior(sp)

    @functools.cached_property
    def _classical(self) -> ClassicalParams:
        """The generator fixed points and multipliers, formed on first use."""
        return classical_from_params(self.sp)

    # -- the word table, built on first use -------------------------------------

    @functools.cached_property
    def words(self) -> WordTable:
        """The reduced words of length <= the policy's cutoff."""
        return enumerate_group(self.sp, self.policy.max_word_length)

    @functools.cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        """The block plan: a :class:`_Block` per run of at most _ORBIT_BLOCK rows.

        The last shell (the longest words, last in the breadth-first order)
        starts a block of its own, so every block lies wholly inside it
        (``last``) or before it.  Each block's floor data are formed here,
        once per word table, per word in the identity's block (row 0), else at
        its longest word, row e - 1; the arrays are read-only.
        """
        length, sf = self.words.length, self._surface
        start = int(np.searchsorted(length, length[-1]))
        cuts = [*range(0, start, _ORBIT_BLOCK), *range(start, len(length), _ORBIT_BLOCK)]
        blocks = []
        for s, e in zip(cuts, [*cuts[1:], len(length)]):
            k = length[s:e] if s == 0 else float(length[e - 1])
            grow, skew = 1.0 + k, sf.cond * k
            base = _orbit_ulps(1, 1.0, sf.radius / sf.inner, grow, skew)
            blocks.append(_Block(s, e, s >= start, grow, skew, base))
        for part in blocks[0][3:]:  # the identity's block, the one priced per word
            part.flags.writeable = False
        return tuple(blocks)

    @functools.cached_property
    def _sum_ulps(self) -> float:
        """numpy's pairwise sum of a block, then the block sums' pairwise sum."""
        return _sum_ulps(max(b.e - b.s for b in self._blocks), (len(self._blocks) - 1).bit_length())

    # -- construction helpers ------------------------------------------------

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

    def _orbit(self, x: complex, s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
        """(num, den) = (a x + b, c x + d) of the words in rows s..e-1 (module docstring)."""
        w = self.words
        return w.a[s:e] * x + w.b[s:e], w.c[s:e] * x + w.d[s:e]

    def _coset_images(self, s: int, e: int, h: int) -> tuple[np.ndarray, ...]:
        """The cosets of <gamma_h> in rows s..e-1, the words whose last letter
        is not +-h, as row offsets from s, then (num, den) of gamma W_h and
        of gamma W_{-h} for their words."""
        w = self.words
        rows = np.flatnonzero(np.abs(w.last[s:e]) != h)
        Wp, Wm = self._classical.W_plus[h - 1], self._classical.W_minus[h - 1]
        a, b, c, d = (part[s:e][rows] for part in (w.a, w.b, w.c, w.d))
        return rows, a * Wp + b, c * Wp + d, a * Wm + b, c * Wm + d

    def _reduce(
        self,
        terms: Callable[[_Block], Iterable[tuple[int, np.ndarray, np.ndarray | float]]],
        count: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sums of ``count`` quantities over the word table, one row block at a time.

        ``terms(block)`` yields triples (j, vals, ulps) for each record of the
        block plan (:attr:`_blocks`), rows s..e-1: the terms of quantity j
        over its rows of the block (a quantity with none there is not
        yielded) and the bound, stated by the caller from the record's floor
        data, on their own rounding in ulps of eps times their sizes
        |Re| + |Im|, one per term or one for the block.  The block sums are
        added pairwise in row order (:func:`_pairwise`), and so, apart, are
        the last shell's; the floors are added in row order.  So the result
        depends on the word table only.  Returns per quantity the total,
        the last shell's sum and the floor in units of eps: the terms' own
        rounding plus that of the summation (see the module docstring).
        """
        parts: list[list[complex]] = [[] for _ in range(count)]
        shell_parts: list[list[complex]] = [[] for _ in range(count)]
        floors = np.zeros(count)
        for block in self._blocks:
            for j, vals, ulps in terms(block):
                part = np.add.reduce(vals)
                parts[j].append(part)
                if block.last:
                    shell_parts[j].append(part)
                if isinstance(ulps, np.ndarray):
                    # Sizes |Re| + |Im| as per block; the summation's share with margin sqrt(2).
                    sizes = np.abs(vals.real) + np.abs(vals.imag)
                    floors[j] += sizes @ (ulps + math.sqrt(2.0) * self._sum_ulps)
                else:
                    floors[j] += (ulps + self._sum_ulps) * _abs_sum(vals)
        totals = np.array([_pairwise(p) for p in parts], dtype=np.complex128)
        shells = np.array([_pairwise(p) for p in shell_parts], dtype=np.complex128)
        return totals, shells, floors

    def _tails(self, shells: np.ndarray, floors: np.ndarray) -> np.ndarray:
        """Last-shell magnitude plus eps times the floor; infinite at L = 0."""
        if self.policy.max_word_length == 0:
            return np.full(len(shells), math.inf)
        return np.abs(shells) + EPS * floors

    def _guard_poles(self, dist: np.ndarray, s: int, what: str) -> float:
        """Least distance to a pole in rows s.., refused below the guard with the word."""
        k = int(dist.argmin())
        if dist[k] < POLE_GUARD:
            raise _pole_error(what, self.words.letters(s + k))
        return float(dist[k])

    def _pole_at_y(
        self, block: _Block, t: int, ell: np.ndarray, den: np.ndarray, clear: float, what: str
    ) -> np.ndarray | float:
        """The distance at which rows t..e-1 of ``block`` charge the pole at y.

        ``ell`` and ``den`` are the rows' l_y = num - y den and den, and
        ``clear`` is y's clearance delta(y) (:meth:`_clearance`).  Past the
        identity's block it is delta(y) where that exceeds the pole guard,
        and otherwise the block's least |gamma x - y|; in the identity's
        block it is |gamma x - y| per word.  A scan refuses a distance below
        the pole guard with its word.
        """
        if block.s and clear > POLE_GUARD:
            return clear
        dist = np.abs(ell) / np.abs(den)
        near = self._guard_poles(dist, t, what)
        return near if block.s else dist

    def _clearance(self, y: complex) -> float:
        """delta(y), at most every |gamma x - y| the orbit sums compute, gamma != id.

        gamma_a maps the exterior of the disc at w_a into the disc at
        w_{-a}, so every gamma x with gamma != id lies in one of the 2g
        closed discs (the nesting argument of M. Schmies, "Computing
        Poincare theta series for Schottky groups", in Bobenko and Klein
        (eds.), Computational Approach to Riemann Surfaces, LNM 2013), and
        min over the discs of |y - w| - r bounds |gamma x - y| for every x
        of the domain.  Less a margin: 2 DOMAIN_SLACK r for the domain
        gate's slack (x that far inside the disc at w_a puts gamma_a x as
        far outside that at w_{-a}), and for the rounding of the computed
        distance, 2 eps times :func:`_orbit_ulps`' share of a pole at the
        cutoff's longest word, plus a relative (10 (1 + L) + c L) eps.
        Nonpositive on a circle and inside a disc.  The discs are ``sp.discs``.
        """
        sf = self._surface
        y = complex(y)
        L = self.policy.max_word_length
        grow, skew = 1.0 + L, sf.cond * L
        gap = min(abs(y - w) - r for _, w, _, r in self.sp.discs)
        share = _orbit_ulps(0, sf.reach + abs(y), sf.radius, grow, skew)
        slack = 2.0 * DOMAIN_SLACK * sf.radius
        return gap * (1.0 - EPS * (10.0 * grow + skew)) - slack - 2.0 * EPS * share

    # -- seed-kernel series ----------------------------------------------------

    def _kernel_many_y(
        self, x: complex, ys: np.ndarray, weight: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """sum_gamma seed(gamma x, y) (gamma'x)^weight at each y.

        Returns (values, tails), one entry per y.  The seed carries the
        pole basis fixed at construction; it is P(y) / ((x - y) prod_j
        (x - A_j)) with P(y) = prod_j (y - A_j), and the value is P(y)
        times the orbit sum of 1 / (prod_j l_{A_j} l_y) (:meth:`_orbit`),
        the forms inverted in pairs so that no product leaves the range.
        Weight-1 x is guarded at the identity's pole 0.  A word on a basis
        point to the bit (l_{A_j} = 0) adds 0, its term vanishing like its
        multiplier^(N-1).  Floor shares (module docstring): per term for
        the basis points, limit points that deep words approach; per block
        for 0 (the block plan's ``base``); and for y, at every weight, at
        the distance of :meth:`_pole_at_y`, which also guards it: per word
        in the identity's block, past it at its clearance delta(y)
        (:meth:`_clearance`) where that clears the pole guard, else at the
        block's least |gamma x - y|.  Each y is summed as in a call with y
        alone.  The tail is |P(y)| times the orbit sum's, so 0 where P(y)
        is 0 (y a basis point), also at L = 0.
        """
        A = self._seed_points(weight)
        poly = np.ones_like(ys)
        for Aj in A:
            poly = poly * (ys - Aj)
        what = f"weight-{weight} kernel"
        if weight == 1 and abs(x) < POLE_GUARD:
            raise _pole_error(what, ())
        radius = self._surface.radius
        top = max(self._surface.reach, abs(x))
        seed_top = top + max(map(abs, A))
        clear = [self._clearance(y) for y in ys]

        def terms(block: _Block) -> Iterator[tuple[int, np.ndarray, float | np.ndarray]]:
            s, grow, skew = block.s, block.grow, block.skew
            num, den = self._orbit(x, s, block.e)
            base = block.base
            if weight > 1:
                forms, inv, dead = [], 0.0, False
                for Aj in A:
                    ell = num - Aj * den
                    size = np.abs(ell)
                    if not size.all():
                        dead = dead | (size == 0)
                        ell, size = np.where(dead, 1.0, ell), np.where(dead, 1.0, size)
                    forms.append(ell)
                    inv = inv + 1.0 / size
                last = forms.pop()
                coef = np.where(dead, 0.0, 1.0)
                for u, v in zip(forms[::2], forms[1::2]):
                    coef = coef / (u * v)
                t_seed = np.abs(den) * inv
                base = _orbit_ulps(weight, seed_top * t_seed, radius * t_seed, grow, skew)
            for k, y in enumerate(ys.tolist()):
                ell = num - y * den
                at = self._pole_at_y(block, s, ell, den, clear[k], what)
                share = _orbit_ulps(0, top + abs(y), radius, grow, skew)
                term = np.reciprocal(num * ell) if weight == 1 else coef / (last * ell)
                yield k, term, base + share / at

        totals, shells, floors = self._reduce(terms, len(ys))
        # Every term carries the exact factor P(y): a zero P(y) times an infinite tail is zero.
        return poly * totals, np.abs(poly) * np.where(poly != 0, self._tails(shells, floors), 0.0)

    def _kernel_at(self, x: complex, y: complex, weight: int) -> Estimate:
        """One-point :meth:`_kernel_many_y`, x and y validated."""
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")
        vals, tails = self._kernel_many_y(x, np.array([y], dtype=np.complex128), weight)
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

    def bidifferential(self, x: complex, y: complex) -> Estimate:
        """Symmetric normalized bidifferential, double pole on the diagonal.

        The weight-1 :meth:`power_bidifferential`.  x must lie in the
        fundamental domain; y anywhere off the orbit of x (the
        continuation in the second argument).
        """
        return self.power_bidifferential(x, y, 1)

    def power_bidifferential(self, x: complex, y: complex, weight: int) -> Estimate:
        """sum_gamma (d(gamma x) dy / (gamma x - y)^2)^N, weight (N, N)."""
        weight = require_integer(weight, "weight", 1)
        what = "bidifferential" if weight == 1 else "power bidifferential"
        return self._omega_sum(x, y, what, weight)

    def _omega_sum(
        self, x: complex, y: complex, what: str, weight: int, first: int = 0
    ) -> Estimate:
        """Blocked orbit sum of (gamma'x / (gamma x - y)^2)^N, N = ``weight``;
        x in the fundamental domain, y finite.

        One row block at a time, from row ``first``; ``what`` names the sum
        in a pole-guard error.  The term is 1 / l_y^2 (see :meth:`_orbit`).
        Each block's floor is :func:`_orbit_ulps` at its longest word, the
        pole y counted 2N times as
        kappa = 2N (max(reach, |x|) + |y|) / near and drift = 2N r / near:
        |gamma x| <= reach but at the identity (whose image is x); grow and
        skew are the block plan's (:class:`_Block`), per word in the
        identity's block from row ``first``.  near is the distance of
        :meth:`_pole_at_y`: |gamma x - y| per word in the identity's block,
        past it y's clearance delta(y) (:meth:`_clearance`) where that
        exceeds the pole guard, else the block's least |gamma x - y|; a
        distance below the pole guard is refused with its word.
        """
        x = require_in_domain(self.sp, x, "x")
        y = require_finite(y, "y")
        top = 2 * weight * (max(self._surface.reach, abs(x)) + abs(y))
        rim = 2 * weight * self._surface.radius
        clear = self._clearance(y)

        def terms(block: _Block) -> Iterator[tuple[int, np.ndarray, float | np.ndarray]]:
            s, e, grow, skew = block.s, block.e, block.grow, block.skew
            t = max(s, first)
            if t >= e:
                return
            if not s:  # the identity's block, per word from the sum's first row
                grow, skew = grow[t:], skew[t:]
            num, den = self._orbit(x, t, e)
            ell = num - y * den
            near = self._pole_at_y(block, t, ell, den, clear, what)
            ulps = _orbit_ulps(weight, top / near, rim / near, grow, skew)
            term = np.reciprocal(ell * ell)
            yield 0, term ** weight if weight > 1 else term, ulps

        totals, shells, floors = self._reduce(terms, 1)
        return Estimate(complex(totals[0]), float(self._tails(shells, floors)[0]))

    def projective_connection(self, x: complex) -> Estimate:
        """s(x) = 6 sum_{gamma != id} d(gamma x) dx / (gamma x - x)^2.

        The prefactor 6 matches the regularized-diagonal definition
        s(x) = 6 lim_{y->x} (omega(x,y) - dx dy/(x-y)^2), which is what
        the Virasoro one-point value s(x)/12 is built from.  It is the
        bidifferential's pass at y = x from row 1, past the identity.
        """
        return 6.0 * self._omega_sum(x, x, "projective connection", 1, first=1)

    # -- holomorphic one-forms ---------------------------------------------------

    def holomorphic_form(self, a: int, x: complex) -> Estimate:
        """Normalized holomorphic 1-form nu_a at x (a in 1..g).

        nu_a(x) = sum_{gamma in G/<gamma_a>} [1/(x - gamma W_{-a})
        - 1/(x - gamma W_a)], a blocked sum over the cosets, the words
        whose last letter is not +-a (at genus 1 only the identity).  Each
        term is formed as -(W_a - W_{-a}) / (l_{-a} l_a) from the linear
        forms l_{+-a} = x den_{+-a} - num_{+-a} of the word's rows at
        W_{+-a} (:meth:`_coset_images`), so that no digits cancel
        where the two images agree; each form adds |den| / |l| times its
        share of the floor (see the module docstring).  Normalization:
        (1/2*pi*i) oint nu_b = delta_ab on the circle at w_{-a},
        counterclockwise.

        At L = 1 the tail charges the larger of the two shells, the identity's
        term and the one-letter words: the words ending in gamma_{-a} see x
        on C_a through an isometric circle, so there the next shell is as
        large as the last (the move to L = 2 reached 2.6 times the last
        shell on the genus-2 test surface).
        """
        a = require_integer(a, "handle index", 1)
        if a > self.sp.genus:
            raise InvalidParameterError(f"handle index must be 1..{self.sp.genus}, got {a}")
        x = require_in_domain(self.sp, x, "x")
        delta = self._classical.W_plus[a - 1] - self._classical.W_minus[a - 1]
        top = self._surface.reach + abs(x)

        def terms(block: _Block) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
            rows, num_p, den_p, num_m, den_m = self._coset_images(block.s, block.e, a)
            grow, skew = (part[rows] if block.s == 0 else part for part in (block.grow, block.skew))
            ell_m, ell_p = x * den_m - num_m, x * den_p - num_p
            t = np.abs(den_m) / np.abs(ell_m) + np.abs(den_p) / np.abs(ell_p)
            share = _orbit_ulps(0, top, self._surface.radius, grow, skew)
            return ((0, -delta / (ell_m * ell_p), _orbit_ulps(1, 0.0, 0.0, grow, skew) + t * share),)

        totals, shells, floors = self._reduce(terms, 1)
        if self.policy.max_word_length == 1:
            shells = np.maximum(np.abs(shells), np.abs(totals - shells))
        return Estimate(complex(totals[0]), float(self._tails(shells, floors)[0]))

    # -- quasi-period coefficients ----------------------------------------------

    def quasiperiod_coefficients(self, weight: int, x: complex) -> list[list[Estimate]]:
        """Holomorphic N-forms theta_a(x; l) from the kernel quasi-periods.

        Entry [a - 1][l], for a in 1..g and 0 <= l <= 2N-2, is the
        coefficient theta_a(x; l) of the quasi-period polynomial

            psi_N(x,y) - psi_N(x,gamma_a y) (gamma_a'(y))^{1-N}
                = sum_l theta_a(x;l) (y - w_a)^l,

        of degree 2N-2 in y.  It is sampled at the 2N-1 nodes
        y_k = w_a + r_a e^{2 pi i k/(2N-1)} on the isometric circle of w_a,
        with gamma_a'(y)^{1-N} = (c y + d)^{2N-2} for the det-1 generator,
        and its coefficients are the discrete Fourier transform of the
        samples, theta_a(x;l) = mean_k(d_k e^{-2 pi i l k/(2N-1)}) / r_a^l,
        exact for a polynomial of that degree; one kernel pass serves the
        nodes y_k and gamma_a y_k of every handle.  The tail is the same
        transform of the node errors: the kernel tails at y_k and
        gamma_a y_k plus the rounding of the difference, over r_a^l.  At
        weight 1 the single member is theta_a(x;0) = -nu_a(x) (the
        quasi-period of the third-kind form runs against the one-form
        orientation fixed in the module docstring).
        """
        weight = require_integer(weight, "weight", 1)
        x = require_in_domain(self.sp, x, "x")
        n = 2 * weight - 1
        handles = range(1, self.sp.genus + 1)
        nodes, factors = [], []
        for a in handles:
            g = generator_map(self.sp, a)
            ys = self.sp.center(a) + self.sp.radius(a) * np.exp(2j * np.pi * np.arange(n) / n)
            den = g.c * ys + g.d
            nodes += [ys, (g.a * ys + g.b) / den]
            factors.append(den ** (2 * weight - 2))
        # Row a - 1 of each: the handle's values (tails) at y_k, then at gamma_a y_k.
        vals, tails = self._kernel_many_y(x, np.concatenate(nodes), weight)
        out = []
        for a, factor, (v, v_img), (t, t_img) in zip(
            handles, factors, vals.reshape(-1, 2, n), tails.reshape(-1, 2, n)
        ):
            r, moved = self.sp.radius(a), v_img * factor
            spread = np.mean(t + np.abs(factor) * t_img + EPS * (np.abs(v) + np.abs(moved)))
            phases = (np.exp(-2j * np.pi * ell * np.arange(n) / n) for ell in range(n))
            out.append([
                Estimate(complex(np.mean((v - moved) * phase)) / r**ell, float(spread / r**ell))
                for ell, phase in enumerate(phases)
            ])
        return out

    # -- period matrix ---------------------------------------------------

    def period_matrix(self) -> PeriodMatrixResult:
        """Period matrix Omega from the double-coset series.

        2 pi i Omega_ab = delta_ab log q_a + the sum over the words whose
        first letter is not +-a and whose last letter is not +-b (the
        identity dropped when a = b) of log{W_a, W_{-a}; gamma W_b,
        gamma W_{-b}}.  Each log is taken as log1p of cross-ratio - 1,
        formed as (W_a - W_{-a})(gamma W_b - gamma W_{-b}) /
        ((W_a - gamma W_{-b})(W_{-a} - gamma W_b)), so the deep terms keep
        their relative accuracy.  Per row block, each gather of W_{+-b}'s
        images serves the entries a <= b, and one log1p call takes their
        terms, joined.  log q_a takes the identity's place in the
        diagonal's first block.  See :class:`PeriodMatrixResult` for the
        integer rule and the tail.
        """
        g = self.sp.genus
        cp = self._classical
        w = self.words
        pairs = [(a, b) for b in range(1, g + 1) for a in range(1, b + 1)]

        def terms(block: _Block) -> Iterator[tuple[int, np.ndarray, float]]:
            s, e = block.s, block.e
            first = np.abs(_first_letters(g, s, w.length[s:e]))
            for b in range(1, g + 1):  # the images of W_{+-b} under the cosets of column b
                rows, num_p, den_p, num_m, den_m = self._coset_images(s, e, b)
                img_p, img_m = num_p / den_p, num_m / den_m
                delta = (cp.W_plus[b - 1] - cp.W_minus[b - 1]) / (den_p * den_m)
                args, ends = [], [0]
                for a in range(1, b + 1):
                    keep = first[rows] != a
                    keep[:1] &= not (a == b and s == 0)  # row 0 is the identity
                    Wa, Wma = cp.W_plus[a - 1], cp.W_minus[a - 1]
                    args.append((Wa - Wma) * delta[keep] / ((Wa - img_m[keep]) * (Wma - img_p[keep])))
                    ends.append(ends[-1] + len(args[-1]))
                vals = _log1p(np.concatenate(args))
                for a in range(1, b + 1):
                    part = vals[ends[a - 1]:ends[a]]
                    if a == b and s == 0:
                        part = np.concatenate(([cmath.log(cp.q[a - 1])], part))
                    yield b * (b - 1) // 2 + a - 1, part, 1.0  # the index of (a, b) in pairs

        totals, shells, floors = self._reduce(terms, len(pairs))
        tails = self._tails(shells, floors) / (2.0 * math.pi)
        omega = np.empty((g, g), dtype=np.complex128)
        for (a, b), total, floor in zip(pairs, totals, floors):
            value = complex(total) / (2j * math.pi)
            floor = EPS * floor / (2.0 * math.pi)
            re = value.real - math.ceil(value.real - 0.5 - floor)
            omega[a - 1, b - 1] = omega[b - 1, a - 1] = complex(re, value.imag)
        return PeriodMatrixResult(omega, float(tails.max()))

    @functools.cached_property
    def periods(self) -> PeriodMatrixResult:
        """The period matrix of :meth:`period_matrix`, computed once; its ``omega`` is read-only."""
        result = self.period_matrix()
        result.omega.flags.writeable = False
        return result


class _Surface(NamedTuple):
    """The validated handle data of one parameter set; the arrays are read-only.

    Per signed handle in the mode layout's order 1, -1, 2, -2, ...: a, w_a,
    w_{-a}, rho_a, s_a = sqrt(rho_a + 0j) (principal root) and r_a; per mode
    block (a, b != -a), row-major: the positions of a, b and |w_{-a} - w_b|;
    c of :func:`_orbit_ulps`, max_a r_a, max_a (|w_a| + r_a) >= |gamma x|
    (gamma != id), and min_a (|w_a| - r_a) <= |gamma x|, > 0 iff the origin is exterior.
    """

    letters: tuple[int, ...]
    centers: np.ndarray
    partners: np.ndarray
    rho: np.ndarray
    roots: np.ndarray
    radii: np.ndarray
    row: np.ndarray
    col: np.ndarray
    gap: np.ndarray
    cond: float
    radius: float
    reach: float
    inner: float


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _surface(sp: SchottkyParams) -> _Surface:
    """The record of admissible parameters: the library's one admissibility check.

    Its letters, centres, rho and radii are ``sp.discs``, the list that
    :func:`~schottky.group.validate` scanned.  Equal parameters share one
    entry, so no root may hang on the sign of a zero imaginary part, which
    picks the side of the cut.
    """
    require_admissible(sp)
    # Layout order 1, -1, 2, -2, ...: the partner of position i is i ^ 1.
    letters, centers, rho, radii = zip(*sp.discs)
    centers = np.array(centers)
    pos = np.arange(len(centers))
    partners = centers[pos ^ 1]
    row, col = np.nonzero(pos[None, :] != (pos ^ 1)[:, None])
    handles = list(zip(centers.tolist(), partners.tolist(), rho, radii))
    surface = _Surface(
        letters, centers, partners, np.array(rho),
        np.array([cmath.sqrt(r + 0j) for r in rho]), np.array(radii), row, col,
        np.abs(partners[row] - centers[col]),
        max((abs(w * v) + abs(rh)) / abs(rh) for w, v, rh, _ in handles), max(radii),
        max(abs(w) + r for w, _, _, r in handles), min(abs(w) - r for w, _, _, r in handles),
    )
    for array in (field for field in surface if isinstance(field, np.ndarray)):
        array.flags.writeable = False
    return surface


def _origin_exterior(sp: SchottkyParams) -> _Surface:
    """The record of sp, refused unless psi_1's second pole, the origin, is outside every disc."""
    surface = _surface(sp)
    if not surface.inner > 0.0:
        raise InvalidParameterError(
            "the origin lies in a closed disc; the third-kind normalization needs it exterior - "
            "move the discs off the origin with mobius_act_on_params first"
        )
    return surface


def _pole_error(what: str, letters: tuple[int, ...]) -> PoleProximityError:
    """The refusal of an evaluation point within POLE_GUARD of the pole of word ``letters``."""
    return PoleProximityError(
        f"{what}: evaluation point within {POLE_GUARD} of a pole (word {letters})", letters
    )


def _orbit_ulps(weight: int, kappa, drift, grow, skew):
    """Rounding bound in ulps of orbit terms: the rule of the module docstring.

    ``grow`` is 1 + k and ``skew`` k c (per block, its longest word's).
    generator_map forms rho_a - w_{-a} w_a, which cancels: each letter is
    the det-1 form of a map whose rho is off by up to c ulps, which moves
    gamma'x by c ulps and gamma x by c r eps.  Linear in kappa and drift:
    at weight 0 it is a pole's share per unit of 1 / |gamma x - P|.
    Arrays give one bound per word, numbers one per block.
    """
    return grow * (6.0 * weight + 4.0 * kappa) + skew * (weight + drift)


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


def _pairwise(parts: list[complex]) -> complex:
    """The sum of ``parts`` added pairwise, 0 if none.

    Each part meets (len(parts) - 1).bit_length() additions.
    """
    while len(parts) > 1:
        parts = [sum(parts[k : k + 2]) for k in range(0, len(parts), 2)]
    return sum(parts, 0j)


def _abs_sum(terms: np.ndarray) -> float:
    """sum(|Re| + |Im|) of a 1-d complex array, a bound on sum |terms|.

    numpy's pairwise sum over the interleaved parts, with no square
    roots.  Unlike BLAS ``dasum``, whose result depends on the alignment
    of its input, it rounds the same wherever the terms sit in memory.
    """
    return float(np.add.reduce(np.abs(np.ascontiguousarray(terms).view(np.float64))))


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
