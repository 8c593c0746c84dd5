"""Schottky groups on the Riemann sphere: parameters, generators, words.

A rank-g Schottky group is generated by g loxodromic Mobius maps. Each
generator is encoded by the sewing relation

    (z' - w_{-a}) (z - w_a) = rho_a,

so the generator acts as  gamma_a z = w_{-a} + rho_a / (z - w_a).  The two
isometric circles (centers w_a and w_{-a}, common radius |rho_a|^{1/2})
bound the standard fundamental domain: gamma_a maps the exterior of the
disc at w_a onto the interior of the disc at w_{-a}.  Parameters are
admissible when they are finite and the 2g closed discs are pairwise disjoint,

    |w_a - w_b| > |rho_a|^{1/2} + |rho_b|^{1/2}    for all a != b,

with signed indices running over {1, -1, ..., g, -g} and rho_{-a} := rho_a.
:func:`in_fundamental_domain` and :func:`require_in_domain` test a point
against the open discs in one scan over ``SchottkyParams.discs``, which
each parameter set forms once and keeps.

The classical coordinates (repelling fixed point W_a, attracting fixed
point W_{-a}, multiplier q_a with 0 < |q_a| < 1) are related to the disc
coordinates by

    w_a     = (W_a - q_a W_{-a}) / (1 - q_a),
    w_{-a}  = (W_{-a} - q_a W_a) / (1 - q_a),
    rho_a   = -q_a (W_a - W_{-a})^2 / (1 - q_a)^2.

Group elements are indexed by reduced words in the generators.  The
enumeration order (by length, then lexicographically in the generator
order 1, -1, 2, -2, ...) is fixed once and for all so that truncated
orbit sums are bit-for-bit reproducible.

:func:`enumerate_group` returns the words as a :class:`WordTable`: flat
arrays with one row per word in that order, holding the matrix entries
a, b, c, d (complex128), the word length, the row of the parent word
(the word without its last letter) and the last letter; no object is
built per word, and :meth:`WordTable.letters` spells one out from the
parent rows where a message or an error needs it; a row's place in its
shell gives its first letter (``_first_letters``).  Each matrix equals,
bit for bit, the left-to-right :meth:`MobiusMap.compose` product of its
letters' :func:`generator_map` matrices.  The table forms these
products on real and imaginary parts separately, in the order Python's
complex arithmetic uses, because numpy's vectorized complex multiply may
fuse multiply-adds and round differently.  The tree grows shell by shell
over fixed blocks of frontier words, each block's children formed from a
table of the letters allowed after each last letter and written straight
into the output arrays; the block size changes the speed, never a bit.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INFINITY",
    "is_infinity",
    "SchottkyError",
    "InvalidParameterError",
    "DegenerateMapError",
    "DomainExitError",
    "MobiusMap",
    "IDENTITY_MAP",
    "SchottkyParams",
    "ClassicalParams",
    "WordTable",
    "TruncationPolicy",
    "PairSeparation",
    "ValidityReport",
    "signed_indices",
    "params_from_classical",
    "classical_from_params",
    "generator_map",
    "apply_mobius",
    "enumerate_group",
    "validate",
    "require_admissible",
    "require_finite",
    "require_integer",
    "require_positive",
    "require_in_domain",
    "mobius_act_on_params",
    "in_fundamental_domain",
]


# Canonical point at infinity.  Any non-finite complex is treated as the
# same point of the sphere; this constant is what the library returns.
INFINITY = complex(math.inf, 0.0)

# Slack of the domain gate, relative to each radius: a point that far
# inside a circle is still admitted (see require_in_domain).
DOMAIN_SLACK = 1e-12


def _number(z: complex, name: str) -> complex:
    """z as a complex, refused by name unless a number (numpy scalars count,
    bools do not)."""
    if isinstance(z, bool) or not isinstance(z, numbers.Number):
        raise InvalidParameterError(f"{name} = {z!r} is not a number")
    return complex(z)


def _coordinates(values, name: str) -> tuple[complex, ...]:
    """The sequence ``values`` as a tuple of complex, each entry by :func:`_number`,
    refused by name."""
    try:
        return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(values))
    except TypeError:
        raise InvalidParameterError(f"{name} = {values!r} is not a sequence") from None


def is_infinity(z: complex) -> bool:
    """True if the number z represents the point at infinity (any non-finite
    value); anything but a number is refused as :func:`require_finite` refuses it."""
    return not cmath.isfinite(_number(z, "z"))


class SchottkyError(ValueError):
    """Base class for all parameter and domain errors raised here."""


class InvalidParameterError(SchottkyError):
    """Malformed or inadmissible input parameters."""


class DegenerateMapError(InvalidParameterError):
    """A Mobius map degenerated (zero determinant, parabolic or elliptic)."""


class DomainExitError(InvalidParameterError):
    """An operation produced parameters outside the admissible domain.

    Carries the validity report of the offending parameter set in the
    ``report`` attribute.
    """

    def __init__(self, message: str, report: "ValidityReport | None" = None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusMap:
    """A Mobius transformation z -> (az + b) / (cz + d).

    The library keeps maps normalized to determinant 1 (call
    :meth:`normalized`); composition of long words stays stable that way
    and derivative formulas simplify.  The normalization uses the
    principal square root, so it is determined up to an overall sign that
    never affects the action on points.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _number(getattr(self, name), name))

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def normalized(self) -> "MobiusMap":
        """Rescale entries so the determinant is exactly 1; a zero or non-finite one is refused."""
        det = self.determinant()
        if det == 0:
            raise DegenerateMapError("Mobius map has zero determinant")
        if not cmath.isfinite(det):
            raise DegenerateMapError(f"Mobius map has a non-finite determinant {det}")
        s = cmath.sqrt(det)
        return MobiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def __call__(self, z: complex) -> complex:
        return apply_mobius(self, z)

    def derivative(self, z: complex) -> complex:
        """d(mz)/dz = 1 / (cz + d)^2 for a det-1 map.

        Assumes the matrix is normalized.  The determinant is never
        recomputed here: for long words the entries are large and
        ad - bc would be pure cancellation noise, while the product of
        det-1 factors is det-1 exactly.
        """
        den = self.c * complex(z) + self.d
        return 1.0 / (den * den)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Return self after other (matrix product self @ other)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        """Inverse map; for a det-1 map this is again det-1."""
        return MobiusMap(self.d, -self.b, -self.c, self.a)


IDENTITY_MAP = MobiusMap(1.0, 0.0, 0.0, 1.0)


def apply_mobius(m: MobiusMap, z: complex) -> complex:
    """Evaluate m at z with one-point-compactification conventions."""
    z = _number(z, "z")
    if not cmath.isfinite(z):
        return INFINITY if m.c == 0 else m.a / m.c
    den = m.c * z + m.d
    if den == 0:
        return INFINITY
    return (m.a * z + m.b) / den


# ---------------------------------------------------------------------------
# Parameter spaces
# ---------------------------------------------------------------------------

def signed_indices(genus: int) -> tuple[int, ...]:
    """Generator order (1, -1, 2, -2, ..., g, -g) used everywhere."""
    return tuple(s * h for h in range(1, genus + 1) for s in (1, -1))


@dataclass(frozen=True)
class SchottkyParams:
    """Disc coordinates of a rank-g Schottky group.

    ``w_plus[h-1]`` and ``w_minus[h-1]`` are the isometric-circle centers
    w_h and w_{-h}; ``rho[h-1]`` is the sewing parameter of handle h
    (shared by both signs).  Each coordinate passes the library's one
    number rule (``_number``: numpy scalars count, bools do not), else it
    is refused by name.  ``discs`` lists the signed discs, formed on first
    use and kept (a ``functools.cached_property``, outside the fields'
    equality and hash): :func:`validate`, the point gate of both routes and
    the surface record of :mod:`schottky.forms` read it.  Admissibility,
    finiteness included, is *not* checked at construction; call
    :func:`validate`.
    """

    genus: int
    w_plus: tuple[complex, ...]
    w_minus: tuple[complex, ...]
    rho: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "genus", require_integer(self.genus, "genus", 1))
        for name in ("w_plus", "w_minus", "rho"):
            vals = _coordinates(getattr(self, name), name)
            if len(vals) != self.genus:
                raise InvalidParameterError(
                    f"{name} must have length {self.genus}, got {len(vals)}"
                )
            object.__setattr__(self, name, vals)

    @property
    def signed_indices(self) -> tuple[int, ...]:
        return signed_indices(self.genus)

    @functools.cached_property
    def discs(self) -> tuple[tuple[int, complex, complex, float], ...]:
        """(a, w_a, rho_a, r_a = |rho_a|^{1/2}) per signed index a = 1, -1, 2, -2, ...,
        formed on first use and kept."""
        return tuple((s * h, w, rho, math.sqrt(abs(rho)))
                     for h, (wp, wm, rho) in enumerate(zip(self.w_plus, self.w_minus, self.rho), 1)
                     for s, w in ((1, wp), (-1, wm)))

    def center(self, a: int) -> complex:
        """Isometric-circle center w_a for a signed index a."""
        a = self._check_index(a)
        return self.w_plus[a - 1] if a > 0 else self.w_minus[-a - 1]

    def rho_signed(self, a: int) -> complex:
        """Sewing parameter rho_a (independent of the sign of a)."""
        return self.rho[abs(self._check_index(a)) - 1]

    def radius(self, a: int) -> float:
        """Isometric-circle radius |rho_a|^{1/2}."""
        return math.sqrt(abs(self.rho_signed(a)))

    def _check_index(self, a: int) -> int:
        """a as an int in +/-1..+/-genus, else refused (bools too, by require_integer)."""
        value = require_integer(a, "signed index", -self.genus)
        if value == 0 or value > self.genus:
            raise InvalidParameterError(
                f"signed index must lie in +/-1..+/-{self.genus}, got {a!r}"
            )
        return value


@dataclass(frozen=True)
class ClassicalParams:
    """Fixed-point coordinates: repelling W_h, attracting W_{-h}, multiplier q_h."""

    W_plus: tuple[complex, ...]
    W_minus: tuple[complex, ...]
    q: tuple[complex, ...]

    def __post_init__(self):
        for name in ("W_plus", "W_minus", "q"):
            object.__setattr__(self, name, _coordinates(getattr(self, name), name))
        g = len(self.q)
        if g < 1 or len(self.W_plus) != g or len(self.W_minus) != g:
            raise InvalidParameterError("W_plus, W_minus, q must share a positive length")
        for h, (Wp, Wm, qh) in enumerate(zip(self.W_plus, self.W_minus, self.q), start=1):
            if Wp == Wm:
                raise InvalidParameterError(f"handle {h}: coincident fixed points")
            if not abs(qh) < 1:
                raise InvalidParameterError(
                    f"handle {h}: multiplier must satisfy |q| < 1, got |q| = {abs(qh)}"
                )

    @property
    def genus(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class TruncationPolicy:
    """Shared truncation knobs: word length L, mode cutoff M, tolerance.

    ``max_word_length`` bounds the reduced words kept in orbit sums,
    ``mode_cutoff`` bounds the local mode index in the coupling matrices,
    and ``tol`` is the accuracy target the caller is aiming for: the
    Siegel theta sum is truncated where its tail bound meets it, and a
    correlator called without an explicit mode cutoff takes the smallest
    one, up to ``mode_cutoff``, whose determinant bound meets it; the
    orbit sums do not enforce it.
    """

    max_word_length: int = 6
    mode_cutoff: int = 20
    tol: float = 1e-9

    def __post_init__(self):
        for name, least in (("max_word_length", 0), ("mode_cutoff", 1)):
            object.__setattr__(self, name, require_integer(getattr(self, name), name, least))
        object.__setattr__(self, "tol", require_positive(self.tol, "tol"))


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def params_from_classical(cp: ClassicalParams) -> SchottkyParams:
    """Convert fixed-point coordinates to disc coordinates.

    Validity of the result is not asserted; degenerate inputs (q close
    to 0, nearly touching discs) pass through so the caller can inspect
    the report from :func:`validate`.
    """
    w_plus, w_minus, rho = [], [], []
    for Wp, Wm, qh in zip(cp.W_plus, cp.W_minus, cp.q):
        den = 1.0 - qh
        w_plus.append((Wp - qh * Wm) / den)
        w_minus.append((Wm - qh * Wp) / den)
        rho.append(-qh * (Wp - Wm) ** 2 / (den * den))
    return SchottkyParams(cp.genus, tuple(w_plus), tuple(w_minus), tuple(rho))


def classical_from_params(sp: SchottkyParams) -> ClassicalParams:
    """Recover fixed points and multipliers from disc coordinates.

    The fixed points of each generator are the roots of

        z^2 - (w_h + w_{-h}) z + (w_h w_{-h} - rho_h) = 0,

    and the multiplier at a fixed point W is -rho_h / (W - w_h)^2.  The
    two multipliers are exact reciprocals; the attracting root (modulus
    below 1) becomes W_{-h}.  A vanishing discriminant means a parabolic
    generator and raises :class:`DegenerateMapError`.
    """
    W_plus, W_minus, q = [], [], []
    for h, (wa, wma, rho) in enumerate(zip(sp.w_plus, sp.w_minus, sp.rho), start=1):
        if rho == 0:
            raise InvalidParameterError(f"handle {h}: rho = 0")
        s = wa + wma
        p = wa * wma - rho
        disc = s * s - 4.0 * p  # equals (wa - wma)^2 + 4 rho
        if disc == 0:
            raise DegenerateMapError(f"handle {h}: parabolic generator (zero discriminant)")
        root = cmath.sqrt(disc)
        z1 = 0.5 * (s + root)
        z2 = 0.5 * (s - root)
        m1 = -rho / ((z1 - wa) ** 2)
        if abs(m1) < 1.0:
            attracting, repelling, mult = z1, z2, m1
        else:
            m2 = -rho / ((z2 - wa) ** 2)
            if not abs(m2) < 1.0:
                raise DegenerateMapError(f"handle {h}: generator is not loxodromic")
            attracting, repelling, mult = z2, z1, m2
        W_plus.append(repelling)
        W_minus.append(attracting)
        q.append(mult)
    return ClassicalParams(tuple(W_plus), tuple(W_minus), tuple(q))


# ---------------------------------------------------------------------------
# Generators and words
# ---------------------------------------------------------------------------

def generator_map(sp: SchottkyParams, a: int) -> MobiusMap:
    """Det-1 matrix of the generator gamma_a, for a signed index a.

    gamma_a z = w_{-a} + rho_a / (z - w_a); the matrix
    [[w_{-a}, rho_a - w_{-a} w_a], [1, -w_a]] has determinant -rho_a and
    is rescaled by the principal square root.  generator_map(-a) is the
    inverse transformation of generator_map(a) (the matrices may differ
    by an overall sign, which acts trivially).
    """
    wa, wma, rho = sp.center(a), sp.center(-a), sp.rho_signed(a)
    if rho == 0:
        raise InvalidParameterError(f"handle {abs(a)}: rho = 0 gives no group element")
    return MobiusMap(wma, rho - wma * wa, 1.0, -wa).normalized()


def _word_count(genus: int, max_word_length: int) -> int:
    """Number of reduced words of length <= L in the free group of rank g; L may be an array."""
    g, L = genus, max_word_length
    return 1 + 2 * L if g == 1 else 1 + g * ((2 * g - 1) ** L - 1) // (g - 1)


def _first_letters(genus: int, start: int, length: np.ndarray) -> np.ndarray:
    """First letters, as signed indices (0 for the identity), of the rows
    start, start + 1, ... of a word table, whose lengths are ``length``.

    A shell of length k >= 1 starts at row S_k, the count of the shorter
    words, and is lexicographic with the first letter most significant, so
    row i begins with letter number (i - S_k) // (2g - 1)^(k-1) of the
    generator order 1, -1, 2, -2, ...
    """
    k = np.maximum(length, 1)
    n = (start + np.arange(len(length)) - _word_count(genus, k - 1)) // (2 * genus - 1) ** (k - 1)
    return np.where(length == 0, 0, (n // 2 + 1) * (1 - 2 * (n % 2)))


@dataclass(frozen=True, eq=False)
class WordTable:
    """The reduced words of length <= L as flat arrays, one row per word.

    Row i holds the det-1 matrix ``(a[i], b[i]; c[i], d[i])`` of word i
    (complex128), its ``length``, the row of its ``parent`` (the word
    with the last letter removed; the identity, row 0, is its own
    parent) and its ``last`` letter as a signed index (0 for the
    identity).  The arrays are read-only and shared by every consumer.

    ``len(table)`` is the word count and :meth:`letters` spells out one
    word; no per-word object is ever built.  The first letter follows
    from the row's place in its shell (``_first_letters``).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    length: np.ndarray
    parent: np.ndarray
    last: np.ndarray

    def __len__(self) -> int:
        return len(self.length)

    def letters(self, i: int) -> tuple[int, ...]:
        """Letters of word i, first to last."""
        out: list[int] = []
        i = range(len(self))[i]
        while i:
            out.append(int(self.last[i]))
            i = int(self.parent[i])
        return tuple(reversed(out))


# Frontier words grown per block in enumerate_group (see its docstring).
_GROW_BLOCK = 512

# enumerate_group refuses a table of more words than this (88 bytes each,
# 1.5 GB in all) before allocating it.
MAX_WORDS = 2**24

# enumerate_group refuses a table with a real or imaginary part of an entry
# above this, and require_finite an evaluation point of modulus above
# _POINT_LIMIT.  The orbit sums form the linear forms num - P den of a
# word's rows, num = a x + b and den = c x + d, at a point x and a pole P,
# and divide by products of two of them.  With |x|, |P| <= 2**64 each form
# is at most 2**330.5 (2**64 + 1)^2 < 2**460, and a product of two stays
# below 2**920, inside the float range, 2**1024.
_ENTRY_LIMIT = 2.0**330
_POINT_LIMIT = 2.0**64


def _dot(x, y, u, v):
    """x*y + u*v on (real, imag) pairs, rounded as Python complex arithmetic rounds it."""
    re = (x[0] * y[0] - x[1] * y[1]) + (u[0] * v[0] - u[1] * v[1])
    im = (x[0] * y[1] + x[1] * y[0]) + (u[0] * v[1] + u[1] * v[0])
    return re, im


def enumerate_group(sp: SchottkyParams, max_word_length: int) -> WordTable:
    """All reduced words of length <= L with their composed det-1 matrices.

    Deterministic order: by length, then lexicographic on letters in the
    generator order (1, -1, 2, -2, ...).  Returns a :class:`WordTable`.

    The tree grows breadth-first.  Each shell right-multiplies every
    frontier matrix by the generators that may follow its last letter
    (all 2g after the identity, else the 2g - 1 that do not undo it, in
    generator order, read from a table indexed by the last letter) and
    writes the children straight into the output arrays, parent by
    parent, which is the order above.  The frontier is taken in blocks of
    at most ``_GROW_BLOCK`` = 512 words, so every temporary (up to
    512 (2g - 1) complex entries, 40 KiB at genus 3) stays in cache and
    under glibc's default 128 KiB mmap threshold instead of being mapped
    and zero-filled afresh (at 4096 they cross it, and genus 3, L = 6
    takes over twice as long).  No mask is formed: the children of a
    block are gathered, never filtered.

    Promise: the matrix of a word equals, bit for bit, the left-to-right
    product ``IDENTITY_MAP.compose(generator_map(sp, a1)).compose(...)``
    of its letters.  numpy's vectorized complex multiply may fuse
    multiply and add (FMA) and then rounds differently from Python's
    ``complex.__mul__`` (by up to a few 1e-15), so the products are
    formed on the real and imaginary parts in the same order as
    ``complex.__mul__`` and ``complex.__add__``.

    Each generator matrix is normalized to det 1 once; products of det-1
    factors stay det-1, and the composed matrices are deliberately *not*
    renormalized (for long words the entries are large and a recomputed
    ad - bc is cancellation noise, so dividing by its square root would
    corrupt the matrix).  So the entries grow geometrically with the
    length, and a shell with a real or imaginary part above 2**330 (or a
    non-finite one) is refused with :class:`InvalidParameterError`, naming
    the cutoff, before the next shell is formed: the orbit sums' products
    of linear forms would overflow far out, and a longer table would hold
    inf and nan.
    """
    max_word_length = require_integer(max_word_length, "max_word_length", 0)
    letters = sp.signed_indices
    gens = [generator_map(sp, x) for x in letters]
    # Tables indexed by signed letter: numpy reads row -h as row 2g + 1 - h,
    # so every letter has a row of its own (row 0 is unused).
    gen_parts = []  # (real, imag) of the entries a, b, c, d of each generator
    for k in "abcd":
        entry = np.zeros(2 * sp.genus + 1, dtype=np.complex128)
        entry[list(letters)] = [getattr(m, k) for m in gens]
        gen_parts.append((entry.real, entry.imag))
    follow = np.zeros((2 * sp.genus + 1, 2 * sp.genus - 1), dtype=np.int64)
    for x in letters:
        follow[x] = [y for y in letters if y != -x]  # in generator order
    # Past genus 1 the count passes the cap long before L = 64, so a longer
    # cutoff is counted at 64 and never forms a huge integer.
    n = _word_count(sp.genus, max_word_length if sp.genus == 1 else min(max_word_length, 64))
    if n > MAX_WORDS:
        raise InvalidParameterError(
            f"max_word_length = {max_word_length} at genus {sp.genus} needs at least "
            f"{n} words; a word table holds at most {MAX_WORDS}"
        )
    a, b, c, d = (np.empty(n, dtype=np.complex128) for _ in range(4))
    length = np.zeros(n, dtype=np.int64)
    parent = np.zeros(n, dtype=np.int64)
    last = np.zeros(n, dtype=np.int64)
    a[0], b[0], c[0], d[0] = IDENTITY_MAP.a, IDENTITY_MAP.b, IDENTITY_MAP.c, IDENTITY_MAP.d
    entries = (a, b, c, d)
    # A child's real and imaginary parts are at most 4 G times its parent's
    # largest, G the generators' largest part (rounding included).
    step = 4.0 * max(float(np.abs(part).max()) for parts in gen_parts for part in parts)
    step *= 1.0 + 2.0**-40
    peak = 1.0  # a bound on the parts of the frontier's entries
    start, lo = 0, 1  # the frontier (the last shell) is rows start..lo
    for k in range(1, max_word_length + 1):
        # Every letter may follow the identity.
        width = len(letters) if k == 1 else len(letters) - 1
        for f0 in range(start, lo, _GROW_BLOCK):
            f1 = min(f0 + _GROW_BLOCK, lo)
            o0 = lo + (f0 - start) * width
            o1 = o0 + (f1 - f0) * width
            new = follow[last[f0:f1]].ravel() if k > 1 else np.array(letters)
            rows = np.repeat(np.arange(f0, f1), width)
            ga, gb, gc, gd = ((re[new], im[new]) for re, im in gen_parts)
            fa, fb, fc, fd = ((z.real, z.imag) for z in (arr[rows] for arr in entries))
            products = (
                _dot(fa, ga, fb, gc), _dot(fa, gb, fb, gd),
                _dot(fc, ga, fd, gc), _dot(fc, gb, fd, gd),
            )
            for arr, (re, im) in zip(entries, products):
                arr.real[o0:o1] = re
                arr.imag[o0:o1] = im
            parent[o0:o1] = rows
            last[o0:o1] = new
        hi = lo + (lo - start) * width
        length[lo:hi] = k
        # The entries grow geometrically with the length.  Only a shell whose
        # bound passes the limit is read, and it is refused if its largest
        # part does too (or is not finite), before the next shell is formed.
        peak *= step
        if peak > _ENTRY_LIMIT:
            peak = max(max(v.max(), -v.min()) for v in (arr[lo:hi].view(np.float64) for arr in entries))
            if not peak <= _ENTRY_LIMIT:
                raise InvalidParameterError(
                    f"max_word_length = {max_word_length}: the words of length {k} have "
                    f"matrix entries of size {peak:.3g}, past 2**330, where the orbit sums "
                    "overflow a float; lower the cutoff"
                )
        start, lo = lo, hi
    for arr in (a, b, c, d, length, parent, last):
        arr.flags.writeable = False
    return WordTable(a, b, c, d, length, parent, last)


# ---------------------------------------------------------------------------
# Validity and the fundamental domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSeparation:
    """Separation record for one unordered pair of isometric circles."""

    index_a: int
    index_b: int
    separation: float
    radius_sum: float

    @property
    def margin(self) -> float:
        return self.separation - self.radius_sum


@dataclass(frozen=True)
class ValidityReport:
    """Result of the pairwise disc-separation check.

    ``ok`` is True iff every pair satisfies the strict inequality and no
    structural issue (zero rho, a non-finite coordinate) was found.
    ``violations`` lists the failing pairs; ``pairs`` lists every pair
    with its margin so callers can see how much room a parameter set has.
    """

    ok: bool
    pairs: tuple[PairSeparation, ...]
    violations: tuple[PairSeparation, ...]
    issues: tuple[str, ...]


def validate(sp: SchottkyParams) -> ValidityReport:
    """Check the strict pairwise disc condition over ``sp.discs``; a zero rho
    and each non-finite coordinate, by name, are issues."""
    issues = [f"handle {h}: rho = 0" for h, rho in enumerate(sp.rho, start=1) if rho == 0]
    issues += [f"{name}[{i}] = {z} is not finite" for name in ("w_plus", "w_minus", "rho")
               for i, z in enumerate(getattr(sp, name)) if not cmath.isfinite(z)]
    pairs: list[PairSeparation] = []
    violations: list[PairSeparation] = []
    for (a, wa, _, ra), (b, wb, _, rb) in itertools.combinations(sp.discs, 2):
        rec = PairSeparation(a, b, abs(wa - wb), ra + rb)
        pairs.append(rec)
        if not rec.separation > rec.radius_sum:
            violations.append(rec)
    ok = not issues and not violations
    return ValidityReport(ok, tuple(pairs), tuple(violations), tuple(issues))


def require_admissible(sp: SchottkyParams) -> None:
    """Refuse parameters that fail :func:`validate`, naming every reason."""
    report = validate(sp)
    if not report.ok:
        bad = [f"pair ({v.index_a},{v.index_b}) margin {v.margin:.3g}" for v in report.violations]
        reasons = "; ".join([*bad, *report.issues])
        raise InvalidParameterError(f"parameters are not admissible: {reasons}")


def require_finite(z: complex, name: str) -> complex:
    """z as an evaluation point, a complex number, else refused by name:
    anything but a number (numpy scalars count, bools do not), infinite or
    NaN parts, and a modulus past 2**64, where the orbit sums would
    overflow (see _POINT_LIMIT)."""
    z = _number(z, name)
    if not cmath.isfinite(z):
        raise InvalidParameterError(f"{name} = {z} is not finite")
    if math.hypot(z.real, z.imag) > _POINT_LIMIT:
        raise InvalidParameterError(f"{name} = {z} lies past |z| = 2**64")
    return z


def require_integer(n: int, name: str, least: int) -> int:
    """n as an int >= least, else refused by name.

    Accepts what :func:`operator.index` accepts (int, numpy integers)
    except bools, which would otherwise pass as 0 and 1.
    """
    try:
        value = operator.index(n)
    except TypeError:
        value = None
    if value is None or isinstance(n, bool):
        raise InvalidParameterError(f"{name} = {n!r} is not an integer")
    if value < least:
        raise InvalidParameterError(f"{name} = {value} must be >= {least}")
    return value


def require_positive(x: float, name: str) -> float:
    """x as a float > 0, else refused by name.

    Accepts real numbers (int, float, numpy reals) except bools; nan,
    zero and negative values are refused.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidParameterError(f"{name} = {x!r} is not a real number")
    value = float(x)
    if not value > 0.0:
        raise InvalidParameterError(f"{name} = {value} must be > 0")
    return value


def require_in_domain(sp: SchottkyParams, z: complex, name: str) -> complex:
    """z as a finite complex number in the fundamental domain, else refused by name.

    The circles get a slack of DOMAIN_SLACK of their radii: boundary
    points and their generator images can land an ulp inside.
    """
    z = require_finite(z, name)
    if _in_a_disc(sp, z, 1.0 - DOMAIN_SLACK):
        raise InvalidParameterError(f"{name} = {z} lies inside an isometric disc")
    return z


def in_fundamental_domain(sp: SchottkyParams, z: complex) -> bool:
    """True iff z lies outside or on every isometric circle.

    The boundary counts as inside the fundamental domain (closed
    convention); the point at infinity is always inside.
    """
    return is_infinity(z) or not _in_a_disc(sp, complex(z), 1.0)


def _in_a_disc(sp: SchottkyParams, z: complex, shrink: float) -> bool:
    """True iff the finite z lies strictly inside a disc of ``sp.discs``, every
    radius times ``shrink``."""
    for _, w, _, r in sp.discs:
        if abs(z - w) < r * shrink:
            return True
    return False


# ---------------------------------------------------------------------------
# Mobius action on the parameter space
# ---------------------------------------------------------------------------

def mobius_act_on_params(sp: SchottkyParams, m: MobiusMap) -> SchottkyParams:
    """Transport disc coordinates along a global Mobius change of coordinate.

    For a det-1 map with rows (A, B; C, D) each handle transforms as

        den     = (C w_a + D)(C w_{-a} + D) - rho_a C^2,
        w_a'    = ((A w_a + B)(C w_{-a} + D) - rho_a A C) / den,
        w_{-a}' = ((A w_{-a} + B)(C w_a + D) - rho_a A C) / den,
        rho_a'  = rho_a / den^2.

    Acting by m1 then m2 equals acting by m2 composed with m1.  If the
    image parameters violate the disc condition a :class:`DomainExitError`
    carrying the validity report is raised.
    """
    m = m.normalized()
    A, B, C, D = m.a, m.b, m.c, m.d
    w_plus, w_minus, rho = [], [], []
    for wa, wma, rh in zip(sp.w_plus, sp.w_minus, sp.rho):
        den = (C * wa + D) * (C * wma + D) - rh * C * C
        if den == 0:
            raise DegenerateMapError("a disc center is sent to infinity by this map")
        w_plus.append(((A * wa + B) * (C * wma + D) - rh * A * C) / den)
        w_minus.append(((A * wma + B) * (C * wa + D) - rh * A * C) / den)
        rho.append(rh / (den * den))
    out = SchottkyParams(sp.genus, tuple(w_plus), tuple(w_minus), tuple(rho))
    report = validate(out)
    if not report.ok:
        raise DomainExitError(
            "transformed parameters violate the disc condition", report=report
        )
    return out
