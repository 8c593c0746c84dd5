"""Closed-form correlation functions: free boson, Virasoro, even lattices.

Every n-point function of the rank-one free boson (Heisenberg) current
reduces to the partition function times a pairing sum: the sum over
fixed-point-free involutions of the insertion labels of products of the
bidifferential.  Virasoro insertions reduce to the projective connection
and the bidifferential.  Even-lattice partition functions factor through
the Siegel theta function of the period matrix.

The surface data (bidifferential, projective connection, period matrix)
comes from a SurfaceForms evaluator; the partition function from the
mode-matrix determinant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from schottky.forms import SurfaceForms
from schottky.group import InvalidParameterError
from schottky.modes import heisenberg_partition

__all__ = [
    "CorrelatorValue",
    "LatticeSpec",
    "pairings",
    "heisenberg_npoint",
    "virasoro_one_point",
    "virasoro_two_point",
    "siegel_theta",
    "lattice_partition",
]

# Default tail target for the Siegel theta radius choice.
THETA_TAIL_TARGET = 1e-13


@dataclass(frozen=True)
class CorrelatorValue:
    """Correlator coefficient with a first-order error estimate.

    ``weights`` records the differential weight carried in each
    insertion slot (1 per current, 2 per Virasoro vector).
    """

    value: complex
    tail: float
    weights: tuple[int, ...]


@dataclass(frozen=True)
class LatticeSpec:
    """Even positive-definite integral lattice given by its Gram matrix.

    ``gram`` is a tuple of integer rows.  Rank 0 (empty Gram) is the
    degenerate lattice whose theta series is 1.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.gram)
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
    if n == 0:
        yield ()
        return
    labels = list(range(n))

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

    yield from rec(labels)


def _mode_cutoff(forms: SurfaceForms, modes: int | None) -> int:
    if modes is not None:
        if modes < 1:
            raise InvalidParameterError("mode cutoff must be >= 1")
        return modes
    return forms.policy.mode_cutoff


def heisenberg_npoint(
    forms: SurfaceForms,
    points: Sequence[complex],
    modes: int | None = None,
) -> CorrelatorValue:
    """n-point function of the weight-one current.

    Zero for odd n; for even n the pairing sum of bidifferentials times
    the oscillator partition function.  n = 0 returns the partition
    function itself.
    """
    pts = tuple(complex(p) for p in points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise InvalidParameterError(
                    f"insertion points {i} and {j} coincide"
                )
    weights = (1,) * n
    if n % 2:
        return CorrelatorValue(0.0j, 0.0, weights)
    z = heisenberg_partition(forms.sp, _mode_cutoff(forms, modes))
    if n == 0:
        return CorrelatorValue(z.value, z.tail, weights)

    omega_val: dict[tuple[int, int], complex] = {}
    omega_rel: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = forms.bidifferential(pts[i], pts[j])
            omega_val[(i, j)] = w.value
            omega_rel[(i, j)] = w.tail / max(abs(w.value), 1e-300)

    total = 0.0j
    total_tail = 0.0
    for pairing in pairings(n):
        prod = 1.0 + 0.0j
        rel = 0.0
        for pair in pairing:
            prod *= omega_val[pair]
            rel += omega_rel[pair]
        total += prod
        total_tail += abs(prod) * rel
    value = total * z.value
    tail = total_tail * abs(z.value) + abs(total) * z.tail
    return CorrelatorValue(value, tail, weights)


def virasoro_one_point(
    forms: SurfaceForms, x: complex, modes: int | None = None
) -> CorrelatorValue:
    """One-point function of the Virasoro vector: s(x) Z / 12."""
    s = forms.projective_connection(x)
    z = heisenberg_partition(forms.sp, _mode_cutoff(forms, modes))
    value = s.value * z.value / 12.0
    tail = (s.tail * abs(z.value) + abs(s.value) * z.tail) / 12.0
    return CorrelatorValue(value, tail, (2,))


def virasoro_two_point(
    forms: SurfaceForms, x: complex, y: complex, modes: int | None = None
) -> CorrelatorValue:
    """Two-point Virasoro function:

        ( s(x) s(y) / 144 + omega(x,y)^2 / 2 ) Z.
    """
    if complex(x) == complex(y):
        raise InvalidParameterError("two-point insertions coincide")
    sx = forms.projective_connection(x)
    sy = forms.projective_connection(y)
    w = forms.bidifferential(x, y)
    z = heisenberg_partition(forms.sp, _mode_cutoff(forms, modes))
    combo = sx.value * sy.value / 144.0 + 0.5 * w.value**2
    combo_tail = (
        (sx.tail * abs(sy.value) + abs(sx.value) * sy.tail) / 144.0
        + abs(w.value) * w.tail
    )
    value = combo * z.value
    tail = combo_tail * abs(z.value) + abs(combo) * z.tail
    return CorrelatorValue(value, tail, (2, 2))


def _theta_candidates(lattice: LatticeSpec, radius: float) -> np.ndarray:
    """Integer vectors with Gram norm at most radius^2 (plus the origin)."""
    d = lattice.rank
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    G = lattice.gram_array()
    chol = np.linalg.cholesky(G)
    inv = np.linalg.inv(chol)
    bounds = [
        int(math.floor(radius * float(np.linalg.norm(inv[:, i])) + 1e-12))
        for i in range(d)
    ]
    grids = np.meshgrid(
        *[np.arange(-b, b + 1, dtype=np.int64) for b in bounds], indexing="ij"
    )
    pts = np.stack([grid.ravel() for grid in grids], axis=1)
    norms = np.einsum("ki,ij,kj->k", pts, G, pts)
    return pts[norms <= radius * radius + 1e-9]


def siegel_theta(
    omega: np.ndarray,
    lattice: LatticeSpec,
    radius: float | None = None,
) -> CorrelatorValue:
    """Siegel theta value: sum over g-tuples of lattice vectors of

        exp( i pi sum_{a,b} Omega_ab <lambda_a, lambda_b> ),

    truncated to tuples whose components all have Gram norm <= radius^2.
    The reported tail is the Gaussian bound g*d*exp(-pi lam_min r^2)
    with lam_min the smallest eigenvalue of Im Omega.
    """
    om = np.asarray(omega, dtype=np.complex128)
    if om.ndim != 2 or om.shape[0] != om.shape[1]:
        raise InvalidParameterError("period matrix must be square")
    g = om.shape[0]
    im_eigs = np.linalg.eigvalsh(om.imag)
    lam_min = float(im_eigs[0])
    if lam_min <= 0.0:
        raise InvalidParameterError(
            f"Im(period matrix) must be positive definite (min eig {lam_min:.3g})"
        )
    d = lattice.rank
    if d == 0:
        return CorrelatorValue(1.0 + 0.0j, 0.0, ())
    if radius is None:
        radius = math.sqrt(
            max(4.0, math.log(g * d / THETA_TAIL_TARGET) / (math.pi * lam_min))
        )
    cand = _theta_candidates(lattice, radius)
    G = lattice.gram_array()
    # pair[i, j] = <cand_i, cand_j> in the lattice inner product
    pair = cand @ G @ cand.T
    total = 0.0 + 0.0j
    if g == 1:
        total = complex(np.sum(np.exp(1j * math.pi * om[0, 0] * np.diag(pair))))
    else:
        diag = np.diag(pair)
        m = len(cand)
        import itertools

        for head in itertools.product(range(m), repeat=g - 1):
            expo = 0.0j
            for a, ia in enumerate(head):
                expo += om[a, a] * diag[ia]
                for b, ib in enumerate(head[a + 1:], start=a + 1):
                    expo += 2.0 * om[a, b] * pair[ia, ib]
            cross = np.zeros(m, dtype=np.complex128)
            for a, ia in enumerate(head):
                cross += 2.0 * om[a, g - 1] * pair[ia, :]
            expo_vec = expo + cross + om[g - 1, g - 1] * diag
            total += complex(np.sum(np.exp(1j * math.pi * expo_vec)))
    tail = g * d * math.exp(-math.pi * lam_min * radius * radius)
    return CorrelatorValue(total, tail, ())


def lattice_partition(
    forms: SurfaceForms,
    lattice: LatticeSpec,
    modes: int | None = None,
    radius: float | None = None,
) -> CorrelatorValue:
    """Even-lattice partition function: theta(period matrix) * Z^rank.

    Rank 0 is exactly 1, computed without the period matrix or Z.
    """
    d = lattice.rank
    if d == 0:
        return CorrelatorValue(1.0 + 0.0j, 0.0, ())
    omega = forms.period_matrix()
    theta = siegel_theta(omega.omega, lattice, radius)
    z = heisenberg_partition(forms.sp, _mode_cutoff(forms, modes))
    zd = z.value**d
    value = theta.value * zd
    rel_z = d * z.tail / max(abs(z.value), 1e-300)
    tail = (
        theta.tail * abs(zd)
        + abs(theta.value) * abs(zd) * rel_z
        + abs(value) * omega.tail
    )
    return CorrelatorValue(value, tail, ())
