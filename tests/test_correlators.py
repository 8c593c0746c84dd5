"""Oracle tests for the closed-form correlators.

The oracles are independent of the code under test: counting
(double factorials), genus-1 closed forms (the cyclic orbit summed in
the coordinate where the generator is z -> q z, the Euler product, the
Jacobi theta series), theta series of D4 and E8 (Jacobi thetas, the
Eisenstein series E4), and the integrality of the theta exponent.
"""

import ast
import cmath
import itertools
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import schottky
import schottky.correlators as correlators
import schottky.forms as forms
import schottky.group as group
import schottky.modes as modes
from schottky import (
    ClassicalParams,
    InvalidParameterError,
    SchottkyParams,
    TruncationPolicy,
    params_from_classical,
    validate,
)
from schottky.correlators import (
    LatticeSpec,
    heisenberg_npoint,
    lattice_partition,
    pairings,
    siegel_theta,
    virasoro_one_point,
    virasoro_two_point,
)
from schottky.forms import ConvergenceError, PeriodMatrixResult, PoleProximityError, SurfaceForms
from schottky.modes import (
    bidifferential_via_modes,
    heisenberg_partition,
    kernel_via_modes,
    mode_cutoff_for,
)

# Rounding floor for comparisons of values whose tails can read 0.
FLOOR = 1e-12

TORUS = ClassicalParams((1.0,), (-1.0,), (0.04,))
TORI = [TORUS, ClassicalParams((1.6,), (-0.7 + 0.3j,), (0.03 + 0.02j,))]


@pytest.fixture(scope="module")
def torus_forms():
    sp = params_from_classical(TORUS)
    return SurfaceForms(sp, TruncationPolicy(max_word_length=6, mode_cutoff=20))


def euler_product(q: complex, terms: int = 200) -> complex:
    """prod_{n >= 1} (1 - q^n)^-1, the genus-1 oscillator partition function."""
    out = 1.0 + 0.0j
    for n in range(1, terms + 1):
        out /= 1.0 - q**n
    return out


def torus_bidifferential(x: complex, y: complex, cp: ClassicalParams, terms: int = 60) -> complex:
    """omega(x, y) on the torus, summed where the generator is u -> q u.

    T(z) = (z - W_-)/(z - W_+) conjugates the generator to u -> q u, and
    dz dw/(z - w)^2 is Mobius invariant, so the orbit sum becomes
    T'(x) T'(y) sum_n q^n / (q^n T(x) - T(y))^2 over all integers n.
    """
    Wp, Wm, q = cp.W_plus[0], cp.W_minus[0], cp.q[0]
    T = lambda z: (z - Wm) / (z - Wp)
    dT = lambda z: (Wm - Wp) / (z - Wp) ** 2
    X, Y = T(x), T(y)
    total = sum(q**n / (q**n * X - Y) ** 2 for n in range(-terms, terms + 1))
    return dT(x) * dT(y) * total


def torus_projective_connection(x: complex, cp: ClassicalParams, terms: int = 60) -> complex:
    """s(x) = 12 (u'(x)/u(x))^2 sum_{m >= 1} q^m / (1 - q^m)^2 on the torus.

    In the coordinate u = (x - W_+)/(x - W_-) the generator is a dilation,
    and the n != 0 terms of the orbit sum for omega pair up at y = x.
    """
    Wp, Wm, q = cp.W_plus[0], cp.W_minus[0], cp.q[0]
    log_du = 1.0 / (x - Wp) - 1.0 / (x - Wm)
    return 12.0 * log_du**2 * sum(q**m / (1.0 - q**m) ** 2 for m in range(1, terms + 1))


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


@pytest.mark.parametrize("n", range(9))
def test_pairings_count_and_shape(n):
    found = list(pairings(n))
    if n % 2:
        assert found == []
        return
    assert len(found) == double_factorial(n - 1)
    assert len(set(found)) == len(found)
    for pairing in found:
        labels = [i for pair in pairing for i in pair]
        assert sorted(labels) == list(range(n))
        assert all(i < j for i, j in pairing)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_heisenberg_npoint_vanishes(torus_forms, n, monkeypatch):
    # Exactly 0, with no mode system factored and no omega formed.
    def unused(*args, **kwargs):
        raise AssertionError("an odd n needs no mode system")

    monkeypatch.setattr(correlators, "_system", unused)
    monkeypatch.setattr(correlators, "_bidifferentials", unused)
    pts = [2.0 + 0.5j * k for k in range(n)]
    for m in (None, 5):
        res = heisenberg_npoint(torus_forms, pts, modes=m)
        assert res.value == 0


def test_genus1_two_point_is_omega_times_z(torus_forms):
    x, y = 2.0 + 0.5j, -1.5 - 1.2j
    res = heisenberg_npoint(torus_forms, [x, y])
    expected = torus_bidifferential(x, y, TORUS) * euler_product(TORUS.q[0])
    assert abs(res.value - expected) <= res.tail + FLOOR * abs(expected)


@pytest.mark.parametrize("cp", TORI)
def test_genus1_virasoro_one_and_two_point(cp):
    # <omega> = s(x) Z / 12 and <omega omega> = (s(x) s(y)/144 + omega(x,y)^2/2) Z.
    forms = SurfaceForms(
        params_from_classical(cp), TruncationPolicy(max_word_length=12, mode_cutoff=20)
    )
    z = euler_product(cp.q[0])
    x, y = 2.0 + 0.5j, -1.5 - 1.2j
    sx, sy = (torus_projective_connection(p, cp) for p in (x, y))
    one = virasoro_one_point(forms, x)
    expected = sx * z / 12.0
    assert abs(one.value - expected) <= one.tail + FLOOR * abs(expected)
    two = virasoro_two_point(forms, x, y)
    expected = (sx * sy / 144.0 + torus_bidifferential(x, y, cp) ** 2 / 2.0) * z
    assert abs(two.value - expected) <= two.tail + FLOOR * abs(expected)


def test_rank0_lattice_on_torus_is_one(torus_forms, monkeypatch):
    # Exactly 1 with no tail: neither the period matrix nor Z is needed.
    def unused(*args, **kwargs):
        raise AssertionError("rank 0 needs no period matrix or partition function")

    monkeypatch.setattr(type(torus_forms), "period_matrix", unused)
    monkeypatch.setattr(correlators, "_system", unused)
    res = lattice_partition(torus_forms, LatticeSpec(()))
    assert res.value == 1
    assert res.tail == 0.0


@pytest.mark.parametrize("bad", [0, -3, 2.5, 10**6])
def test_bad_cutoff_refused_where_no_mode_system_is_needed(torus_forms, bad):
    # An odd n and a rank-0 lattice need no mode system, yet a cutoff that
    # an even n or a rank >= 1 lattice refuses is refused there too, with
    # the same message.
    def refusal(call):
        with pytest.raises(InvalidParameterError, match="mode cutoff") as info:
            call(bad)
        return str(info.value)

    x, y = 2.0 + 0.5j, -1.5 - 1.2j
    even = refusal(lambda m: heisenberg_npoint(torus_forms, [x, y], modes=m))
    assert refusal(lambda m: heisenberg_npoint(torus_forms, [x], modes=m)) == even
    assert refusal(lambda m: heisenberg_npoint(torus_forms, [x, y, -x], modes=m)) == even
    assert refusal(lambda m: lattice_partition(torus_forms, LatticeSpec(()), modes=m)) == even
    assert refusal(lambda m: lattice_partition(torus_forms, A2, modes=m)) == even


def test_lattice_partition_refuses_before_the_period_matrix(genus2_params, monkeypatch):
    # A bad cutoff, or a surface whose mode system fails its contraction
    # bound, is refused before the period matrix and theta are computed.
    calls = Counter()
    period_matrix = SurfaceForms.period_matrix

    def counted_period_matrix(forms):
        calls["Omega"] += 1
        return period_matrix(forms)

    monkeypatch.setattr(SurfaceForms, "period_matrix", counted_period_matrix)
    surface = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=4))
    for bad in (0, 2.5, 10**6):
        with pytest.raises(InvalidParameterError, match="mode cutoff"):
            lattice_partition(surface, A2, modes=bad)
    # Admissible, but ||R||_1 = 1.05 at centres +-1.35, +-1.4i and equal radii.
    r = 0.8 * 1.945 / 2.0
    uncertified = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (r * r, r * r))
    with pytest.raises(ConvergenceError, match="contraction bound"):
        lattice_partition(SurfaceForms(uncertified), A2, modes=20)
    assert calls == {}


def test_rank1_lattice_on_torus_matches_jacobi_theta(torus_forms):
    # Gram (2): theta = sum_n q^(n^2) with q = exp(2 pi i Omega), times Z.
    q = TORUS.q[0]
    theta = sum(q ** (n * n) for n in range(-12, 13))
    expected = theta * euler_product(q)
    res = lattice_partition(torus_forms, LatticeSpec(((2,),)))
    assert abs(res.value - expected) <= res.tail + FLOOR * abs(expected)


def test_siegel_theta_a2_invariant_under_integral_shift():
    # exp(i pi sum Omega_ab <l_a, l_b>) is unchanged by Omega -> Omega + B
    # for symmetric integral B, since the lattice is even.
    a2 = LatticeSpec(((2, -1), (-1, 2)))
    omega = np.array([[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 0.9j]])
    base = siegel_theta(omega, a2)
    for B in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[2, -1], [-1, 3]]):
        shifted = siegel_theta(omega + np.array(B), a2)
        assert abs(shifted.value - base.value) <= base.tail + shifted.tail + FLOOR * abs(base.value)
        assert abs(base.value) > 0.5


A2 = LatticeSpec(((2, -1), (-1, 2)))
A3 = LatticeSpec(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
D4 = LatticeSpec(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))
# Its frame has residues of order 4, so -c differs from c among the classes.
A4 = LatticeSpec(((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)))
# Cartan matrix of E8: even, unimodular, rank 8.
E8 = LatticeSpec((
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, -1),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 0, 0, 2),
))


def eisenstein_e4(tau: complex, terms: int = 40) -> complex:
    """E4(tau) = 1 + 240 sum_n sigma_3(n) q^n, q = exp(2 pi i tau)."""
    q = np.exp(2j * math.pi * tau)
    sigma3 = [sum(k**3 for k in range(1, n + 1) if n % k == 0) for n in range(1, terms + 1)]
    return 1.0 + 240.0 * sum(c * q**n for n, c in enumerate(sigma3, start=1))


def jacobi_theta(tau: complex, sign: int, terms: int = 30) -> complex:
    """theta_3 (sign +1) or theta_4 (sign -1): sum_n sign^n exp(i pi tau n^2)."""
    return sum(sign**abs(n) * np.exp(1j * math.pi * tau * n * n) for n in range(-terms, terms + 1))


@pytest.mark.parametrize(
    "gram",
    [
        ((2, 0.5), (0.5, 2)), ((2.9,),), (("2",),), ((2 + 0j,),), ((float("nan"),),),
        ((2, True), (True, 2)), ((2, np.True_), (np.True_, 2)),
    ],
)
def test_lattice_spec_rejects_non_integer_gram(gram):
    # Bools would pass as 0 and 1; require_integer refuses them too.
    with pytest.raises(InvalidParameterError, match="Gram entries must be integers"):
        LatticeSpec(gram)


@pytest.mark.parametrize(
    "gram, reason",
    [
        (((2, -1),), "square"),
        (((2, -1), (0, 2)), "symmetric"),
        (((3,),), "even"),
        (((2, 3), (3, 2)), "positive definite"),
        (((0,),), "positive definite"),
    ],
)
def test_lattice_spec_rejects_malformed_gram(gram, reason):
    with pytest.raises(InvalidParameterError, match=reason):
        LatticeSpec(gram)


def test_lattice_spec_accepts_integral_floats():
    assert LatticeSpec(((2.0, -1.0), (-1, np.int64(2)))).gram == ((2, -1), (-1, 2))


@pytest.mark.parametrize("tol", [True, "x", 1e-9 + 0j, math.nan, 0.0, -1e-9])
def test_siegel_theta_refuses_bad_tol(tol):
    # One gate with TruncationPolicy: a typed error, not a bare TypeError.
    with pytest.raises(InvalidParameterError, match="tol"):
        siegel_theta(np.array([[1.0j]]), A2, tol)


def test_siegel_theta_rejects_non_symmetric_omega():
    omega = np.array([[0.1 + 1.0j, 0.2 + 0.3j], [0.25 + 0.3j, -0.3 + 0.9j]])
    with pytest.raises(InvalidParameterError):
        siegel_theta(omega, A2)
    # Asymmetry at the rounding level is accepted.
    omega[1, 0] = omega[0, 1] * (1.0 + 1e-15)
    assert abs(siegel_theta(omega, A2).value) > 0.5


@pytest.mark.parametrize("entry", [math.nan, complex(0.1, math.nan), complex(0.0, math.inf)])
def test_siegel_theta_refuses_non_finite_omega(entry):
    # Refused before the symmetry test, whose Omega - Omega^T would warn on inf.
    omega = np.array([[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 0.9j]])
    omega[1, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="^period matrix must be finite$"):
            siegel_theta(omega, A2)


def test_siegel_theta_refuses_indefinite_imaginary_part():
    with pytest.raises(InvalidParameterError, match="positive definite"):
        siegel_theta(np.array([[1.0j, 0.0], [0.0, -1.0j]]), A2)


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (2,), (1, 1, 1)])
def test_siegel_theta_refuses_non_square_or_empty_omega(shape):
    with pytest.raises(InvalidParameterError, match="period matrix must be square"):
        siegel_theta(np.full(shape, 1.0j), A2)


def test_rank0_siegel_theta_is_one_after_validating_omega():
    rank0 = LatticeSpec(())
    res = siegel_theta(np.array([[0.3 + 1.0j]]), rank0, omega_tail=1.0)
    assert (res.value, res.tail) == (1.0, 0.0)
    for bad in (np.array([[-1.0j]]), np.zeros((0, 0)), np.array([[math.nan]])):
        with pytest.raises(InvalidParameterError, match="period matrix"):
            siegel_theta(bad, rank0)


def test_omega_tail_past_a_quarter_charges_an_infinite_tail():
    # At genus 1 and Im Omega = 1, t = g tau / lambda_min is tau itself:
    # the first-order charge holds up to t = 1/4 and not past it.
    omega = np.array([[0.2 + 1.0j]])
    exact = siegel_theta(omega, A2)
    at_quarter = siegel_theta(omega, A2, omega_tail=0.25)
    past = siegel_theta(omega, A2, omega_tail=0.26)
    assert at_quarter.value == past.value == exact.value
    assert exact.tail < at_quarter.tail < math.inf == past.tail


@pytest.mark.parametrize("n", [1, 3, 6, 12, 24])
def test_theta_truncation_stops_within_a_sixteenth_per_dimension(n):
    # The radius meets tol and exceeds the least one that does by at most
    # a factor 1 + 1/(16 n), the least found here by 60 bisection steps.
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    U = np.linalg.cholesky(B @ B.T / n + 0.5 * np.eye(n)).T
    bound = correlators._tail_bound(U)
    for tol in (1e-3, 1e-9, 1e-13):
        r2, tail = correlators._theta_truncation(U, tol)
        assert tail == bound(r2) <= tol
        lo, hi = 0.0, r2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if bound(mid) > tol else (lo, mid)
        assert r2 <= (1.0 + 1.0 / (16 * n)) * hi


def test_e8_genus2_diagonal_is_product_of_eisenstein_series():
    # theta_E8 = E4, and a diagonal Omega factors the genus-2 sum.
    tau1, tau2 = 0.1 + 2.0j, -0.3 + 2.5j
    res = siegel_theta(np.diag([tau1, tau2]), E8)
    expected = eisenstein_e4(tau1) * eisenstein_e4(tau2)
    assert res.tail <= 1e-9 + FLOOR
    assert abs(res.value - expected) <= res.tail + FLOOR * abs(expected)


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.6j, -0.45 + 1.3j])
def test_d4_genus1_is_jacobi_theta_average(tau):
    # D4 = {x in Z^4 : sum x even}, so theta_D4 = (theta_3^4 + theta_4^4) / 2.
    res = siegel_theta(np.array([[tau]]), D4)
    expected = 0.5 * (jacobi_theta(tau, 1) ** 4 + jacobi_theta(tau, -1) ** 4)
    assert abs(res.value - expected) <= res.tail + FLOOR * abs(expected)


class TestTruncationDiscipline:
    """Tightening tol moves the theta value by less than the loose tail."""

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_siegel_theta_within_reported_tail(self, fixture, request):
        forms = SurfaceForms(request.getfixturevalue(fixture), TruncationPolicy())
        omega = forms.period_matrix().omega
        for lattice in (A2, A3, D4):
            loose = siegel_theta(omega, lattice, 1e-9)
            tight = siegel_theta(omega, lattice, 1e-13)
            assert loose.tail <= 1e-9 + FLOOR
            assert tight.tail < loose.tail
            assert abs(tight.value - loose.value) < loose.tail

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_lattice_partition_within_reported_tail(self, fixture, request):
        sp = request.getfixturevalue(fixture)
        loose = SurfaceForms(sp, TruncationPolicy(tol=1e-9))
        tight = SurfaceForms(sp, TruncationPolicy(tol=1e-13))
        for lattice in (A2, A3, D4):
            c, f = lattice_partition(loose, lattice), lattice_partition(tight, lattice)
            assert abs(f.value - c.value) < c.tail


@pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
@pytest.mark.parametrize("M", [4, 10])
def test_mode_route_correlators_within_tail_of_the_doubled_cutoff(fixture, M, request):
    # Every correlator built on the mode route moves by less than its tail
    # when M doubles, with points on each isometric circle among others.
    sp = request.getfixturevalue(fixture)
    forms = SurfaceForms(sp, TruncationPolicy(max_word_length=3))
    circles = [
        sp.center(a) + sp.radius(a) * cmath.exp(1j * (0.4 + 0.9 * k))
        for k, a in enumerate(sp.signed_indices)
    ]
    points = circles + [3.0 - 1.0j, -3.1 + 0.4j, 2.6 + 0.9j]
    requests = [
        lambda m, n=n, k=k: heisenberg_npoint(forms, points[k:k + n], modes=m)
        for n in (2, 4, 6) for k in (0, len(points) - n)
    ]
    requests += [lambda m, x=x: virasoro_one_point(forms, x, modes=m) for x in points]
    requests += [
        lambda m, x=x, y=y: virasoro_two_point(forms, x, y, modes=m)
        for x, y in zip(points, points[1:])
    ]
    for request_at in requests:
        c, f = request_at(M), request_at(2 * M)
        assert abs(f.value - c.value) < c.tail


def theta_with_characteristic(omega, a, b, box=6):
    """theta[a; b](0, Omega) for a, b in {0, 1}^g, summed over the box |n_i| <= box:
    sum_n exp(i pi (n + a/2)^T Omega (n + a/2) + i pi (n + a/2)^T b)."""
    g = omega.shape[0]
    n = np.stack(np.meshgrid(*[np.arange(-box, box + 1)] * g, indexing="ij"), -1).reshape(-1, g)
    y = n + 0.5 * np.asarray(a)
    return np.exp(1j * math.pi * (np.einsum("ka,ab,kb->k", y, omega, y) + y @ np.asarray(b))).sum()


def e8_from_even_characteristics(omega):
    """theta_E8(Omega) = 2^-g sum over the even characteristics m of theta[m]^8."""
    g = omega.shape[0]
    chars = [np.array(c) for c in itertools.product((0, 1), repeat=g)]
    total = sum(
        theta_with_characteristic(omega, a, b) ** 8
        for a in chars
        for b in chars
        if a @ b % 2 == 0
    )
    return total / 2**g


class TestThetaRoutes:
    """The coset route through an orthogonal frame against the Fincke-Pohst
    sum and the even-characteristic formula for E8."""

    @pytest.mark.parametrize(
        "lattice, norms, index",
        [
            (A2, (2, 6), 2), (A3, (2, 2, 4), 2), (D4, (2, 2, 2, 2), 2), (E8, (2,) * 8, 16),
            (A4, (2, 2, 4, 20), 8),
        ],
    )
    def test_frames_of_the_root_lattices(self, lattice, norms, index):
        frame = lattice._frame
        G = np.array(lattice.gram)
        V = frame.vectors
        assert frame.norms == norms and frame.index == index
        if lattice is A4:
            assert frame.orders == (2, 2, 4, 4)
        assert np.array_equal(V @ G @ V.T, np.diag(norms))
        # [Lambda : K]^2 det G = det Gram(K), and the residues tell the cosets apart.
        assert index**2 * round(np.linalg.det(G)) == math.prod(norms)
        assert len({tuple(row) for row in frame.residues}) == index

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_routes_agree_within_tails(self, fixture, seed, request, perturbed):
        sp = request.getfixturevalue(fixture)
        if seed is not None:
            sp = perturbed(sp, seed)
        omega = np.array(SurfaceForms(sp, TruncationPolicy(max_word_length=5)).periods.omega)
        lam = np.linalg.eigvalsh(omega.imag)[0]
        for lattice in (A2, A3, D4, A4):
            for tol in (1e-9, 1e-12):
                fp = correlators._fincke_pohst(omega, lattice.gram_array(), tol)[1](0.0)
                cs = correlators._coset_theta(omega, lattice._frame, tol, lam)[1](0.0)
                assert fp.tail <= tol + FLOOR and cs.tail <= tol + FLOOR
                assert abs(fp.value - cs.value) <= fp.tail + cs.tail, (lattice, tol)

    @pytest.mark.parametrize("p", [3, 4])
    def test_class_sums_against_a_box(self, genus2_params, p):
        # Per class m mod p of m in Z^2, the enumeration's sums of
        # exp(i pi (n / p^2) m^T Omega m) against all m in a box, whose
        # omitted terms are below 1e-30.  Only half of each +-m is
        # enumerated, so the class of -m is read through the negation.
        forms = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=5))
        om = 4.0 / p**2 * np.array(forms.periods.omega)
        plan = correlators._Enumeration(om.real, om.imag, 1e-13, p)
        values, _, errors = plan.sums(correlators._charge(0.0))
        m = np.indices((21, 21)).reshape(2, -1).T - 10
        terms = np.exp(1j * math.pi * np.einsum("ka,ab,kb->k", m, om, m))
        index = m % p @ (p ** np.arange(2))
        box = np.bincount(index, terms.real, p * p) + 1j * np.bincount(index, terms.imag, p * p)
        assert np.all(np.abs(values - box) <= errors + FLOOR * np.abs(box))

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_e8_matches_even_characteristics(self, fixture, request):
        omega = np.array(SurfaceForms(request.getfixturevalue(fixture)).periods.omega)
        res = siegel_theta(omega, E8, 1e-12)
        expected = e8_from_even_characteristics(omega)
        assert res.tail <= 1e-12 + FLOOR
        assert abs(res.value - expected) <= res.tail + FLOOR * abs(expected)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_siegel_theta_takes_the_route_of_least_predicted_work(self, fixture, request):
        omega = np.array(SurfaceForms(request.getfixturevalue(fixture)).periods.omega)
        lam = np.linalg.eigvalsh(omega.imag)[0]
        for lattice in (A2, A3, D4):
            # Each route is a pair (predicted work, evaluate(t)).
            fp = correlators._fincke_pohst(omega, lattice.gram_array(), 1e-9)
            cs = correlators._coset_theta(omega, lattice._frame, 1e-9, lam)
            expected = min((fp, cs), key=lambda route: route[0])[1](0.0)
            got = siegel_theta(omega, lattice, 1e-9)
            assert (got.value, got.tail) == (expected.value, expected.tail)
            if lattice is D4:
                # Twelve (genus 3) or eight dimensions against one to three.
                assert cs[0] < fp[0] / 4

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_one_eigendecomposition_per_call(self, fixture, request, monkeypatch):
        # lambda_min(Im Omega) is found once, by validation, and passed to the
        # coset route's majorant and to the charge of Omega's tail.
        omega = np.array(SurfaceForms(request.getfixturevalue(fixture)).periods.omega)
        expected = siegel_theta(omega, D4, 1e-9, omega_tail=1e-10)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        got = siegel_theta(omega, D4, 1e-9, omega_tail=1e-10)
        assert len(calls) == 1
        assert (got.value, got.tail) == (expected.value, expected.tail)
        assert expected.tail < math.inf

    @pytest.mark.parametrize("limit", ["_FRAME_CANDIDATES", "_FRAME_INDEX"])
    def test_lattice_without_a_frame_takes_fincke_pohst(self, limit, genus2_params, monkeypatch):
        omega = np.array(SurfaceForms(genus2_params).periods.omega)
        framed = siegel_theta(omega, D4, 1e-9)
        monkeypatch.setattr(correlators, limit, 1)
        fresh = LatticeSpec(D4.gram)
        assert fresh._frame is None
        got = siegel_theta(omega, fresh, 1e-9)
        fp = correlators._fincke_pohst(omega, fresh.gram_array(), 1e-9)[1](0.0)
        assert (got.value, got.tail) == (fp.value, fp.tail)
        assert abs(got.value - framed.value) <= got.tail + framed.tail

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_e8_lattice_partition_under_a_second(self, fixture, request):
        # Aim 1's budget for a public call at the default policy; the
        # (g d)-dimensional sum took 8.8 s on the genus-2 fixture at tol 1e-3.
        start = time.perf_counter()
        res = lattice_partition(SurfaceForms(request.getfixturevalue(fixture)), E8)
        assert time.perf_counter() - start < 1.0
        assert res.tail <= 1e-8

    def test_period_tail_charged_through_the_derivative(self, monkeypatch):
        # E8 at genus 1 is E4, and at Omega = i (q = e^-2pi) E6 = 0 and
        # E2 = 3/pi, so dtheta/dOmega = (2 pi i / 3)(E2 E4 - E6) = 2i E4(i):
        # an error tau in Omega moves theta by 2 |theta| tau to first order,
        # twice the |theta| tau that was charged before.  At genus 1 with a
        # real q every term is positive and the charge is that slope.
        tau = 1e-6
        omega = np.array([[1j]])
        slope = 2.0 * abs(eisenstein_e4(1j))
        exact = siegel_theta(omega, E8, 1e-12)
        moved = siegel_theta(omega, E8, 1e-12, omega_tail=tau)
        assert moved.value == exact.value
        assert slope * tau <= moved.tail - exact.tail <= 1.001 * slope * tau
        # The same charge reaches lattice_partition from the period matrix's tail.
        sp = params_from_classical(ClassicalParams((1.0,), (-1.0,), (math.exp(-2 * math.pi),)))
        surface = SurfaceForms(sp)
        assert abs(surface.periods.omega[0, 0] - 1j) < 1e-12
        moved_periods = PeriodMatrixResult(omega, tau)
        monkeypatch.setattr(SurfaceForms, "periods", property(lambda self: moved_periods))
        res = lattice_partition(surface, E8)
        z = correlators._system(sp, mode_cutoff_for(sp, 1e-9, 20)).partition.value
        assert abs(res.value - exact.value * z**8) <= res.tail
        assert res.tail >= slope * tau * abs(z) ** 8

    @pytest.mark.parametrize("tau", [-1e-9, math.nan, True, "0", 1j])
    def test_siegel_theta_refuses_bad_omega_tail(self, tau):
        with pytest.raises(InvalidParameterError, match="omega_tail"):
            siegel_theta(np.array([[1.0j]]), A2, 1e-9, tau)


def test_mode_cutoff_checked_once_per_request(genus3_params, monkeypatch):
    # The correlator checks its cutoff (or, without one, the policy's cap)
    # and hands the checked int to the mode route's private entry points.
    # Assembling a fresh system adds the public assembler's own check.
    calls = Counter()
    for module in (correlators, modes):
        counted(monkeypatch, module, "_require_cutoff", calls)
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    x, y, w = 3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j
    requests = [
        lambda m: heisenberg_npoint(surface, [x, y], modes=m),
        lambda m: heisenberg_npoint(surface, [x, y, w], modes=m),
        lambda m: virasoro_one_point(surface, x, modes=m),
        lambda m: virasoro_two_point(surface, x, y, modes=m),
        lambda m: lattice_partition(surface, A2, modes=m),
        lambda m: lattice_partition(surface, LatticeSpec(()), modes=m),
    ]
    for m in (None, 12):
        for request in requests:
            request(m)
        for request in requests:
            calls.clear()
            request(m)
            assert calls == {"_require_cutoff": 1}
    modes._system.cache_clear()
    calls.clear()
    heisenberg_npoint(surface, [x, y], modes=12)
    assert calls == {"_require_cutoff": 2}


class TestSurfaceMemo:
    """Z once per parameter set and mode cutoff, on the cached mode system;
    Omega once per SurfaceForms.  The correlators keep no state."""

    X, Y = 0.6 + 0.2j, -0.5 - 0.8j
    POLICY = TruncationPolicy(max_word_length=4, mode_cutoff=12)

    def requests(self):
        x, y = self.X, self.Y
        return [
            lambda f: heisenberg_npoint(f, []),
            lambda f: heisenberg_npoint(f, [x, y]),
            lambda f: heisenberg_npoint(f, [x, y], modes=8),
            lambda f: virasoro_one_point(f, x),
            lambda f: virasoro_two_point(f, x, y),
            lambda f: lattice_partition(f, A2),
            lambda f: lattice_partition(f, D4),
        ]

    def test_one_computation_per_surface(self, genus2_params, monkeypatch):
        calls = Counter()
        assemble = modes.mode_coupling_matrix
        period_matrix = SurfaceForms.period_matrix

        def counted_assemble(sp, m):
            calls[("R", m)] += 1
            return assemble(sp, m)

        def counted_period_matrix(forms):
            calls["Omega"] += 1
            return period_matrix(forms)

        monkeypatch.setattr(modes, "mode_coupling_matrix", counted_assemble)
        monkeypatch.setattr(SurfaceForms, "period_matrix", counted_period_matrix)
        modes._system.cache_clear()
        forms = SurfaceForms(genus2_params, self.POLICY)
        for _ in range(3):
            for request in self.requests():
                request(forms)
        # Without modes= the cutoff is the policy's tol-driven one.
        m = mode_cutoff_for(genus2_params, self.POLICY.tol, self.POLICY.mode_cutoff)
        assert m < self.POLICY.mode_cutoff
        assert calls == {("R", m): 1, ("R", 8): 1, "Omega": 1}
        # Another surface with equal parameters shares the mode system and
        # computes its own period matrix.
        twin = SchottkyParams(2, genus2_params.w_plus, genus2_params.w_minus, genus2_params.rho)
        lattice_partition(SurfaceForms(twin, self.POLICY), A2)
        assert calls == {("R", m): 1, ("R", 8): 1, "Omega": 2}

    def test_memo_bitwise_equal_to_uncached_route(self, genus2_params):
        warm = SurfaceForms(genus2_params, self.POLICY)
        for request in self.requests():
            request(warm)
        hot = [request(warm) for request in self.requests()]
        cached = [heisenberg_partition(genus2_params, m) for m in (8, 12)]
        modes._system.cache_clear()
        cold = [request(SurfaceForms(genus2_params, self.POLICY)) for request in self.requests()]
        assert [(h.value, h.tail) for h in hot] == [(c.value, c.tail) for c in cold]
        modes._system.cache_clear()
        fresh = [heisenberg_partition(genus2_params, m) for m in (8, 12)]
        assert [(z.value, z.tail) for z in cached] == [(z.value, z.tail) for z in fresh]
        periods = SurfaceForms(genus2_params, self.POLICY).period_matrix()
        assert np.array_equal(warm.periods.omega, periods.omega)
        assert warm.periods.tail == periods.tail

    def test_cached_omega_is_read_only(self, genus2_params):
        forms = SurfaceForms(genus2_params, self.POLICY)
        lattice_partition(forms, A2)
        assert forms.periods is forms.periods
        with pytest.raises(ValueError):
            forms.periods.omega[0, 0] = 0.0


def test_fresh_surface_validated_once(genus3_params, perturbed, monkeypatch):
    # SurfaceForms, the correlators and the mode route all read one
    # validated record per parameter set, so a fresh draw is checked once.
    sp = perturbed(genus3_params, 11)
    x, y = 0.6 + 0.2j, -0.5 - 0.8j
    validations = []

    def counted_validate(params):
        validations.append(params)
        return validate(params)

    # The admissibility gate of schottky.group runs validate.
    monkeypatch.setattr(group, "validate", counted_validate)
    forms._surface.cache_clear()
    modes._system.cache_clear()
    surface = SurfaceForms(sp, TruncationPolicy(max_word_length=4))
    heisenberg_npoint(surface, [x, y])
    virasoro_two_point(surface, x, y)
    lattice_partition(surface, A2)
    kernel_via_modes(sp, 1, 12, x, y)
    mode_cutoff_for(sp, 1e-10, 20)
    assert validations == [sp]


@pytest.mark.parametrize("where", [[0], [1, 0, 2], [1, 0], [0, 1]])
def test_heisenberg_npoint_requires_every_point_in_domain(genus3_params, where):
    # The centre w_1 of a disc, alone, among an odd number of points, or
    # as either point of a pair: refused whatever n and the order.
    forms = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    choices = [genus3_params.center(1), 3.0 + 1.0j, -3.0 + 0.5j]
    with pytest.raises(InvalidParameterError, match="insertion point"):
        heisenberg_npoint(forms, [choices[k] for k in where])


def counted(monkeypatch, module, name, calls):
    """Count the calls of module.name in calls[name], passing them through."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_each_insertion_point_checked_once(genus3_params, monkeypatch):
    # One gate in the mode route checks every point once per request, and
    # nothing else in the library checks them.
    calls = Counter()
    for module in (correlators, modes, forms):
        if hasattr(module, "require_in_domain"):
            counted(monkeypatch, module, "require_in_domain", calls)
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    points = [3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j, 0.3 + 3.3j, -2.7 - 2.9j, 4.1 + 0.2j]
    for call, expected in (
        (lambda: heisenberg_npoint(surface, points, modes=5), 6),
        (lambda: virasoro_two_point(surface, points[0], points[1], modes=5), 2),
        (lambda: virasoro_one_point(surface, points[0], modes=5), 1),
        (lambda: heisenberg_npoint(surface, points[:3], modes=5), 3),
    ):
        calls.clear()
        call()
        assert calls["require_in_domain"] == expected


@pytest.mark.parametrize("gap", [0.0, 1e-12])
def test_coincident_insertions_share_one_refusal(genus3_params, monkeypatch, gap):
    # Equal points and points 1e-12 apart get the mode route's pole-guard
    # error, for even and odd n alike, before any solve.
    calls = Counter()
    counted(monkeypatch, modes, "zgetrs", calls)
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    x, y = 3.0 - 1.0j, -3.1 + 0.4j
    for call in (
        lambda: heisenberg_npoint(surface, [x, x + gap], modes=5),
        lambda: heisenberg_npoint(surface, [x, x + gap, y], modes=5),
        lambda: heisenberg_npoint(surface, [y, x, x + gap, -y], modes=5),
        lambda: virasoro_two_point(surface, x, x + gap, modes=5),
    ):
        with pytest.raises(PoleProximityError, match=r"^bidifferential: .* \(word \(\)\)$") as info:
            call()
        assert info.value.letters == ()
    assert calls == {}


def test_point_in_a_disc_refused_before_factorization(genus3_params, perturbed, monkeypatch):
    # The gate runs after the cutoff and before the system is factored: on
    # a fresh surface a point inside a disc costs no LU, and on a surface
    # whose contraction bound is refused (||R||_1 = 1.05) the point error
    # comes first.
    r = 0.8 * 1.945 / 2.0
    uncertified = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (r * r, r * r))
    calls = Counter()
    counted(monkeypatch, modes, "lu_factor", calls)
    x = 5.0 + 1.0j
    for sp in (perturbed(genus3_params, 5), uncertified):
        inside = sp.center(1)
        surface = SurfaceForms(sp, TruncationPolicy(max_word_length=3))
        modes._system.cache_clear()
        for call in (
            lambda: bidifferential_via_modes(sp, 8, [x, inside]),
            lambda: kernel_via_modes(sp, 1, 8, x, inside),
            lambda: heisenberg_npoint(surface, [inside, x], modes=8),
        ):
            with pytest.raises(InvalidParameterError, match="inside an isometric disc"):
                call()
    assert calls == {}
    with pytest.raises(ConvergenceError, match="contraction bound"):
        heisenberg_npoint(SurfaceForms(uncertified), [x, -x], modes=8)


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_non_finite_insertions_refused_by_name(torus_forms, bad):
    x = 2.0 + 0.5j
    for arg, call in (
        ("insertion point 1", lambda: heisenberg_npoint(torus_forms, [x, bad])),
        ("insertion point 0", lambda: heisenberg_npoint(torus_forms, [bad])),
        ("insertion point 0", lambda: virasoro_one_point(torus_forms, bad)),
        ("insertion point 0", lambda: virasoro_two_point(torus_forms, bad, x)),
        ("insertion point 1", lambda: virasoro_two_point(torus_forms, x, bad)),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{arg} = .* is not finite$"):
            call()


def test_zero_cutoff_tails_are_infinite_not_nan(genus2_params):
    # At L = 0 the projective connection is the empty sum, 0 with an
    # infinite tail, and the bidifferential the identity term alone, with
    # an infinite tail too; the Virasoro formulas multiplied out as
    # Estimates must keep those tails infinite, not nan.
    forms = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=0, mode_cutoff=8))
    x, y = 3.0 + 1.0j, -2.0 + 2.0j
    sx, sy = forms.projective_connection(x), forms.projective_connection(y)
    w = forms.bidifferential(x, y)
    assert sx.value == 0 and math.isinf(sx.tail) and math.isinf(w.tail)
    z = heisenberg_partition(genus2_params, mode_cutoff_for(genus2_params, forms.policy.tol, 8))
    for res in (sx * z / 12.0, (sx * sy / 144.0 + 0.5 * w**2) * z):
        assert math.isinf(res.tail)


def test_correlators_build_no_word_table(genus3_params, monkeypatch):
    # omega, s and Z of a request come from one factored mode system: on a
    # fresh surface heisenberg_npoint and both Virasoro functions enumerate
    # no word table and form no orbit, while lattice_partition (whose
    # period matrix is a coset series) builds the table once.  This guards
    # the speedup without a timer.
    calls = Counter()
    enumerate_group, orbit = forms.enumerate_group, SurfaceForms._orbit

    def counted_enumerate(*args):
        calls["enumerate"] += 1
        return enumerate_group(*args)

    def counted_orbit(self, *args):
        calls["orbit"] += 1
        return orbit(self, *args)

    monkeypatch.setattr(forms, "enumerate_group", counted_enumerate)
    monkeypatch.setattr(SurfaceForms, "_orbit", counted_orbit)
    points = [3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j, 0.3 + 3.3j, -2.7 - 2.9j, 4.1 + 0.2j]
    for modes in (5, None):
        surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=6))
        heisenberg_npoint(surface, points, modes=modes)
        virasoro_one_point(surface, points[0], modes=modes)
        virasoro_two_point(surface, points[0], points[1], modes=modes)
    assert calls == {}
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=4))
    lattice_partition(surface, A2)
    lattice_partition(surface, D4)
    assert calls == {"enumerate": 1}


# Serves each surface once in a fresh interpreter: argv[1] holds the
# parameters as float pairs and the insertion points.
FRESH_PROCESS = """
import ast, sys
from schottky import SchottkyParams, TruncationPolicy
from schottky.correlators import LatticeSpec, heisenberg_npoint, lattice_partition
from schottky.forms import SurfaceForms
surfaces, points = ast.literal_eval(sys.argv[1])
out = []
for genus, *parts in surfaces:
    sp = SchottkyParams(genus, *([complex(*z) for z in part] for part in parts))
    forms = SurfaceForms(sp, TruncationPolicy(max_word_length=4))
    for r in (heisenberg_npoint(forms, points), lattice_partition(forms, LatticeSpec(%r))):
        out.append(tuple(map(float, (r.value.real, r.value.imag, r.tail))))
print(repr(out))
""" % (A2.gram,)


def test_rotating_surfaces_compute_each_once(genus3_params, perturbed, monkeypatch):
    # Four surfaces served in turn for three rounds: one mode system
    # assembled and one period matrix computed per surface, and every
    # value and tail the same, bit for bit, as a fresh process's that
    # serves each surface once.
    surfaces = [perturbed(genus3_params, seed) for seed in range(4)]
    points = (0.6 + 0.2j, -0.5 - 0.8j)
    calls = Counter()
    assemble, period_matrix = modes.mode_coupling_matrix, SurfaceForms.period_matrix

    def counted_assemble(sp, m):
        calls["R"] += 1
        return assemble(sp, m)

    def counted_period_matrix(forms):
        calls["Omega"] += 1
        return period_matrix(forms)

    monkeypatch.setattr(modes, "mode_coupling_matrix", counted_assemble)
    monkeypatch.setattr(SurfaceForms, "period_matrix", counted_period_matrix)
    modes._system.cache_clear()
    served = [SurfaceForms(sp, TruncationPolicy(max_word_length=4)) for sp in surfaces]
    rounds = []
    for _ in range(3):
        out = []
        for surface in served:
            for r in (heisenberg_npoint(surface, points), lattice_partition(surface, A2)):
                out.append(tuple(map(float, (r.value.real, r.value.imag, r.tail))))
        rounds.append(out)
    assert calls == {"R": 4, "Omega": 4}
    floats = [
        (sp.genus, *([(z.real, z.imag) for z in part] for part in (sp.w_plus, sp.w_minus, sp.rho)))
        for sp in surfaces
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(schottky.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))
    child = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, repr((floats, points))],
        capture_output=True, text=True, env=env, check=True,
    )
    fresh = ast.literal_eval(child.stdout)
    assert all(out == fresh for out in rounds)


@pytest.mark.parametrize("cp", TORI)
def test_genus1_mode_route_matches_closed_forms(cp):
    # omega and s from the mode resolvent against the cyclic orbit summed
    # in the coordinate where the generator is a dilation, at points far
    # out and on both circles (where the one-letter words do not decay).
    sp = params_from_classical(cp)
    circle = [sp.center(a) + sp.radius(a) * cmath.exp(0.7j * a) for a in sp.signed_indices]
    pts = [2.0 + 0.5j, -1.5 - 1.2j, *circle]
    for M in (10, 30):
        omega = bidifferential_via_modes(sp, M, pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                got = omega[i][j]
                ref = torus_projective_connection(x, cp) if i == j else torus_bidifferential(x, y, cp)
                assert abs(got.value - ref) <= got.tail + FLOOR * abs(ref), (M, i, j)
