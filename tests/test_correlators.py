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
from fractions import Fraction
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
from schottky.forms import (
    ConfigurationError, ConvergenceError, PeriodMatrixResult, PoleProximityError, SurfaceForms,
)
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

    monkeypatch.setattr(modes, "_system", unused)
    monkeypatch.setattr(correlators, "_omega_matrix", unused)
    pts = [2.0 + 0.5j * k for k in range(n)]
    for m in (None, 5):
        res = heisenberg_npoint(torus_forms, pts, modes=m)
        assert res.value == 0


def estimate_pairing_sum(omega):
    """The pairing sum in Estimate arithmetic: the oracle of correlators._pairing_sum."""
    return sum(math.prod(omega[i][j] for i, j in pairing) for pairing in pairings(len(omega)))


def value_bits(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def domain_points(sp, n: int, seed: int) -> list[complex]:
    """n seeded points of the fundamental domain of sp within |z| <= 6, at
    least 0.5 apart and from the origin."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(*rng.uniform(-6.0, 6.0, 2))
        if abs(z) <= 6.0 and group.in_fundamental_domain(sp, z) and min(
            abs(z - w) for w in [0.0, *pts]
        ) >= 0.5:
            pts.append(z)
    return pts


def exact_pairing_sum(values) -> tuple[Fraction, Fraction]:
    """The pairing sum of float entries in exact rational arithmetic, as (re, im)."""
    re, im = Fraction(0), Fraction(0)
    for pairing in pairings(len(values)):
        pr, pi = Fraction(1), Fraction(0)
        for i, j in pairing:
            vr, vi = Fraction(values[i][j].real), Fraction(values[i][j].imag)
            pr, pi = pr * vr - pi * vi, pr * vi + pi * vr
        re, im = re + pr, im + pi
    return re, im


def assert_within_tail(values):
    got = correlators._pairing_sum(values, [[0.0] * len(row) for row in values])
    re, im = exact_pairing_sum(values)
    value = complex(got.value)
    err2 = (Fraction(value.real) - re) ** 2 + (Fraction(value.imag) - im) ** 2
    assert err2 <= Fraction(got.tail) ** 2, (float(err2) ** 0.5, got.tail)


class TestPairingSum:
    @pytest.mark.parametrize("surface", ["torus", "genus2", "genus3", *range(8)])
    def test_matches_the_estimate_formula(self, surface, request, genus3_params, perturbed):
        # Values bit for bit, and tails within 0.9-1.0001 of the Estimate
        # formula's, alone and times Z, for n = 0..10 at M = 10 on the
        # fixtures and on eight perturbed genus-3 draws.
        if isinstance(surface, str):
            sp = request.getfixturevalue(f"{surface}_params")
        else:
            sp = perturbed(genus3_params, surface)
        pts = domain_points(sp, 10, 1)
        z = modes._system(sp, 10).partition
        for n in range(0, 11, 2):
            values, tails = modes._omega_matrix(sp, 10, pts[:n])
            got = correlators._pairing_sum(values.tolist(), tails.tolist())
            want = estimate_pairing_sum(modes.bidifferential_via_modes(sp, 10, pts[:n]))
            if n == 0:  # the empty product, an exact int 1
                assert want == 1 and got.value == 1 and got.tail == 0.0
                want = forms.Estimate(want, 0.0)
            assert value_bits(got.value) == value_bits(want.value), n
            assert 0.9 * want.tail <= got.tail <= 1.0001 * want.tail, (n, got.tail / want.tail)
            full, ref = heisenberg_npoint(SurfaceForms(sp), pts[:n], modes=10), want * z
            assert value_bits(full.value) == value_bits(ref.value), n
            assert 0.9 * ref.tail <= full.tail <= 1.0001 * ref.tail, (n, full.tail / ref.tail)

    @pytest.mark.parametrize("seed", range(6))
    def test_rounding_charge_bounds_the_exact_sum(self, seed):
        # With exact entries the tail is rounding alone, and it must cover
        # the distance to the exact rational sum.
        rng = np.random.default_rng(seed)
        for n in (2, 4, 6, 8):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert_within_tail((m * 10.0 ** rng.uniform(-3, 3, size=(n, n))).tolist())
        # Only the last pairing, ((0, 3), (1, 2)), is not zero: every addition
        # is exact and uncharged, and its one rounded product is all the error.
        lone = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).tolist()
        lone[0][1] = lone[0][2] = 0j
        assert_within_tail(lone)

    def test_addition_charge_bounds_lost_low_order_terms(self):
        # Every product is exact: the 15 pairings with (0, 1) give 2^53 each,
        # the other 90 give 7 each, below half an ulp of 15 * 2^53, so each
        # of those additions loses 7 and only the additions' charge covers
        # the 630.
        values = [[1.0 + 0j] * 8 for _ in range(8)]
        values[0] = [1.0 + 0j, 2.0**53 + 0j] + [7.0 + 0j] * 6
        assert complex(correlators._pairing_sum(values, [[0.0] * 8] * 8).value) == 15 * 2.0**53
        assert_within_tail(values)

    def test_an_infinite_tail_is_infinite_not_nan(self):
        values = [[0j, 1.0 + 1j, 2.0, 3.0]] * 4
        for k in range(1, 4):
            tails = [[0.0] * 4 for _ in range(4)]
            tails[0][k] = math.inf
            assert math.isinf(correlators._pairing_sum(values, tails).tail)

    def test_one_estimate_product_per_request(self, genus3_params, monkeypatch):
        # On a cached system an 8-point request multiplies one Estimate (the
        # pairing sum by Z), adds none, and draws its 105 pairings through
        # the module attribute correlators.pairings.
        surface = SurfaceForms(genus3_params)
        pts = domain_points(genus3_params, 8, 2)
        heisenberg_npoint(surface, pts, modes=12)
        calls = Counter()
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            counted(monkeypatch, forms.Estimate, name, calls)
        drawn = pairings

        def counting(n):
            for pairing in drawn(n):
                calls["pairings"] += 1
                yield pairing

        monkeypatch.setattr(correlators, "pairings", counting)
        heisenberg_npoint(surface, pts, modes=12)
        assert calls == Counter({"__mul__": 1, "pairings": 105})


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
    monkeypatch.setattr(modes, "_system", unused)
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



def _d16_plus() -> LatticeSpec:
    """D16+: the D16 basis e_i - e_{i+1} (i = 1..15) and e_15 + e_16, with
    e_1 - e_2 replaced by (1/2, ..., 1/2); even, unimodular, rank 16."""
    basis = np.zeros((16, 16))
    basis[0] = 0.5
    for i in range(1, 15):
        basis[i, i], basis[i, i + 1] = 1.0, -1.0
    basis[15, 14] = basis[15, 15] = 1.0
    return LatticeSpec(tuple(map(tuple, np.rint(basis @ basis.T).astype(int).tolist())))


D16_PLUS = _d16_plus()


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
        (2, "sequence of rows"),
        ((2,), "sequence of rows"),
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tail_bound_against_a_box(n):
    # The Chernoff bound against the exact sum of exp(-pi |U (N + f)|^2)
    # over |U (N + f)|^2 >= r2, over all N and per class of N mod p, for
    # f = 0 and a random shift.  The box holds every N with |U N|^2 <= 20
    # (|N_i|^2 <= 20 (Q^-1)_ii), so each term outside it is below
    # exp(-20 pi), about 5e-28, far under the omitted sums compared.
    # The bound is formed in logs, and it may round a few ulps below an
    # exact sum that it meets.
    rng = np.random.default_rng(n)
    for cond in (1.0, 10.0, 1e2, 1e3):
        R, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Q = R @ np.diag(np.geomspace(0.1, 0.1 * cond, n)) @ R.T
        U = np.linalg.cholesky(Q).T
        half = np.ceil(np.sqrt(20.0 * np.diag(np.linalg.inv(Q)))).astype(int)
        N = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in half], indexing="ij"), -1)
        N = N.reshape(-1, n)
        classes = {p: N % p @ (p ** np.arange(n)) for p in (1, 2, 3)}
        for shift in (np.zeros(n), rng.random(n)):
            norms = np.einsum("ka,ab,kb->k", N + shift, Q, N + shift)
            terms = np.exp(-math.pi * norms)
            for r2 in (0.0, 0.5, 2.0, 5.0, 10.0):
                bound = correlators._tail_bound(U, r2)
                omitted = np.where(norms >= r2, terms, 0.0)
                for p, index in classes.items():
                    worst = np.bincount(index, omitted, p**n).max()
                    assert worst <= bound * (1.0 + 1e-15), (cond, r2, p)


@pytest.mark.parametrize("n", [1, 3, 6, 12, 24])
def test_truncation_radius_is_the_least_that_meets_tol(n):
    # The bound at the radius meets tol (to the rounding of its logs), no
    # smaller radius does, and the radius is 0 once tol exceeds the bound
    # on the whole sum.
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    U = np.linalg.cholesky(B @ B.T / n + 0.5 * np.eye(n)).T
    for tol in (1e-3, 1e-9, 1e-13):
        r2, tail = correlators._theta_truncation(U, tol)
        assert tail == tol and r2 > 0.0
        assert correlators._tail_bound(U, r2) <= tol * (1.0 + 1e-12)
        assert correlators._tail_bound(U, (1.0 - 1e-9) * r2) > tol
    whole = correlators._tail_bound(U, 0.0)
    for tol in (1.01 * whole, 1e6):
        assert correlators._theta_truncation(U, tol) == (0.0, whole)


@pytest.mark.parametrize("tol", [10.0, 1e6])
def test_siegel_theta_at_a_tol_past_the_whole_sum(genus3_params, tol):
    # At tol 1e6 every radius is 0 and each sum is its N = 0 term; the
    # volume of the empty ellipsoid took log(0).  Both routes, and the
    # route that siegel_theta takes, lie within their tails of a tight value.
    omega = np.array(SurfaceForms(genus3_params).periods.omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lattice in (A2, D4):
            exact = siegel_theta(omega, lattice, 1e-12)
            got = [
                siegel_theta(omega, lattice, tol),
                correlators._fincke_pohst(omega, lattice.gram_array(), tol)[1](0.0),
                correlators._coset_theta(omega, lattice._frame, tol)[1](0.0),
            ]
            for res in got:
                assert res.tail <= tol
                assert abs(res.value - exact.value) <= res.tail + exact.tail


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
        for lattice in (A2, A3, D4, A4):
            for tol in (1e-9, 1e-12):
                fp = correlators._fincke_pohst(omega, lattice.gram_array(), tol)[1](0.0)
                cs = correlators._coset_theta(omega, lattice._frame, tol)[1](0.0)
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
        values, _, errors = plan.sums(0.0)
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
        for lattice in (A2, A3, D4):
            # Each route is a pair (predicted work, evaluate(t)).
            fp = correlators._fincke_pohst(omega, lattice.gram_array(), 1e-9)
            cs = correlators._coset_theta(omega, lattice._frame, 1e-9)
            expected = min((fp, cs), key=lambda route: route[0])[1](0.0)
            got = siegel_theta(omega, lattice, 1e-9)
            assert (got.value, got.tail) == (expected.value, expected.tail)
            if lattice is D4:
                # Twelve (genus 3) or eight dimensions against one to three.
                assert cs[0] < fp[0] / 4

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_one_eigendecomposition_per_call(self, fixture, request, monkeypatch):
        # lambda_min(Im Omega) is found once, by validation, and passed to the
        # charge of Omega's tail.
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

    def test_work_past_the_budget_refused_in_under_a_second(self):
        # D16+ has frame A1^16 of index 256: at genus 4 the coset product
        # alone is 256^4 tuples, 1.7e10 points of predicted work, and the
        # Fincke-Pohst sum 1.3e26.  The call is refused before any sum runs,
        # where an unblocked product would ask for 128 GiB.
        assert D16_PLUS._frame.index == 256
        omega = 1j * np.eye(4) + 0.1 * np.ones((4, 4))
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="rank-16 lattice at genus 4 .* 1.7"):
            siegel_theta(omega, D16_PLUS)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_coset_product_in_small_blocks(self, fixture, request, monkeypatch):
        # E8's 16^g coset tuples in blocks of 7 (and its class sums'
        # enumeration too) give the value of one block within rounding,
        # and a tail still within tol plus the floor.
        omega = np.array(SurfaceForms(request.getfixturevalue(fixture)).periods.omega)
        whole = siegel_theta(omega, E8, 1e-9)
        monkeypatch.setattr(correlators, "_THETA_BLOCK", 7)
        blocked = siegel_theta(omega, E8, 1e-9)
        assert abs(blocked.value - whole.value) <= FLOOR * abs(whole.value)
        assert blocked.tail <= 1e-9 + FLOOR

    def test_block_sums_added_pairwise(self, genus2_params, monkeypatch):
        # E8's 256 coset tuples at genus 2 in 256 blocks of one: the block
        # sums are added pairwise, 8 levels, so with one block's pairwise
        # sum no longer charged the rounding stays that of one block of 256.
        # Charged one eps per later block, the tail read 5.4 times as much.
        omega = np.array(SurfaceForms(genus2_params).periods.omega)
        whole = siegel_theta(omega, E8, 1e-13)
        monkeypatch.setattr(correlators, "_THETA_BLOCK", 1)
        blocked = siegel_theta(omega, E8, 1e-13)
        assert abs(blocked.value - whole.value) <= whole.tail
        assert blocked.tail <= 1.01 * whole.tail

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
        z = heisenberg_partition(sp, mode_cutoff_for(sp, 1e-9, 20)).value
        assert abs(res.value - exact.value * z**8) <= res.tail
        assert res.tail >= slope * tau * abs(z) ** 8

    @pytest.mark.parametrize("tau", [-1e-9, math.nan, True, "0", 1j])
    def test_siegel_theta_refuses_bad_omega_tail(self, tau):
        with pytest.raises(InvalidParameterError, match="omega_tail"):
            siegel_theta(np.array([[1.0j]]), A2, 1e-9, tau)


def test_mode_cutoff_checked_once_per_request(genus3_params, monkeypatch):
    # The correlator checks its cutoff (or, without one, the policy's cap)
    # and hands the checked int to the mode route's private entry points.
    # Assembling a fresh system adds the public assembler's own check, and
    # every correlator that needs Z reads it through the public
    # heisenberg_partition, which checks the int it is handed once more.
    calls = Counter()
    for module in (correlators, modes):
        counted(monkeypatch, module, "_require_cutoff", calls)
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    x, y, w = 3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j
    requests = [
        (lambda m: heisenberg_npoint(surface, [x, y], modes=m), 2),
        (lambda m: heisenberg_npoint(surface, [x, y, w], modes=m), 1),
        (lambda m: virasoro_one_point(surface, x, modes=m), 2),
        (lambda m: virasoro_two_point(surface, x, y, modes=m), 2),
        (lambda m: lattice_partition(surface, A2, modes=m), 2),
        (lambda m: lattice_partition(surface, LatticeSpec(()), modes=m), 1),
    ]
    for m in (None, 12):
        for request, _ in requests:
            request(m)
        for request, checks in requests:
            calls.clear()
            request(m)
            assert calls == {"_require_cutoff": checks}
    modes._system.cache_clear()
    calls.clear()
    heisenberg_npoint(surface, [x, y], modes=12)
    assert calls == {"_require_cutoff": 3}


def test_one_reader_of_partition_function(genus3_params, monkeypatch):
    # Every correlator that needs Z takes it from heisenberg_partition,
    # once per request, through the binding the benchmark's tracer wraps;
    # the omega product returns omega and its tails alone.  Odd n and rank
    # 0 need no Z and do not read it.
    calls = Counter()
    counted(monkeypatch, correlators, "heisenberg_partition", calls)
    surface = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    pts = [3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j, 0.3 + 3.3j, -2.7 - 2.9j]
    requests = [
        (lambda m: heisenberg_npoint(surface, [], modes=m), 1),
        (lambda m: heisenberg_npoint(surface, pts[:2], modes=m), 1),
        (lambda m: heisenberg_npoint(surface, pts[:4], modes=m), 1),
        (lambda m: heisenberg_npoint(surface, pts[:1], modes=m), 0),
        (lambda m: heisenberg_npoint(surface, pts[:3], modes=m), 0),
        (lambda m: heisenberg_npoint(surface, pts, modes=m), 0),
        (lambda m: virasoro_one_point(surface, pts[0], modes=m), 1),
        (lambda m: virasoro_two_point(surface, pts[0], pts[1], modes=m), 1),
        (lambda m: lattice_partition(surface, A2, modes=m), 1),
        (lambda m: lattice_partition(surface, LatticeSpec(()), modes=m), 0),
    ]
    for m in (None, 12):
        for request, reads in requests:
            calls.clear()
            request(m)
            assert calls["heisenberg_partition"] == reads
    arrays = modes._omega_matrix(genus3_params, 12, pts[:2])
    assert len(arrays) == 2 and all(isinstance(a, np.ndarray) for a in arrays)
    assert [a.shape for a in modes._omega_matrix(genus3_params, 12, [])] == [(0, 0), (0, 0)]


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


@pytest.mark.parametrize("sp", [
    SchottkyParams(2, (math.inf, 3j), (-3.0, -3j), (0.01, 0.01)),
    SchottkyParams(2, (3.0, 3j), (-3.0, complex(0.0, -math.inf)), (0.01, 0.01)),
    SchottkyParams(2, (3.0, 3j), (-3.0, -3j), (0.01, complex(math.inf, 0.0))),
])
def test_non_finite_parameters_refused_by_every_route(sp):
    # |inf - w| beats every radius sum, and every mode block that touches
    # an infinite centre vanishes, so kappa stays finite: the intake's
    # finiteness scan refuses the set before either route reads it, and no
    # call raises untyped (a KeyError, a RuntimeWarning) or returns nan.
    x, y = 0.3 + 0.9j, -0.6 - 0.7j
    calls = {
        "SurfaceForms": lambda: SurfaceForms(sp),
        "third_kind_form": lambda: SurfaceForms(sp).third_kind_form(x, y),
        "bidifferential": lambda: SurfaceForms(sp).bidifferential(x, y),
        "heisenberg_partition": lambda: heisenberg_partition(sp, 8),
        "kernel_via_modes": lambda: kernel_via_modes(sp, 1, 8, x, y),
        "mode_coupling_matrix": lambda: modes.mode_coupling_matrix(sp, 8),
        "mode_cutoff_for": lambda: mode_cutoff_for(sp, 1e-9, 20),
        "bidifferential_via_modes": lambda: bidifferential_via_modes(sp, 8, [x, y]),
        "heisenberg_npoint": lambda: heisenberg_npoint(SurfaceForms(sp), [x, y], modes=8),
        "virasoro_one_point": lambda: virasoro_one_point(SurfaceForms(sp), x, modes=8),
        "virasoro_two_point": lambda: virasoro_two_point(SurfaceForms(sp), x, y, modes=8),
        "lattice_partition": lambda: lattice_partition(SurfaceForms(sp), A2, modes=8),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidParameterError, match=r"\] = .* is not finite"):
            call()


def test_parameters_refused_before_the_points():
    # Finite discs 1 and -1 overlap, and the first point lies inside both:
    # the mode route's point gate looks up the parameters' record first, so
    # the refusal names the parameters, not the point.
    sp = SchottkyParams(2, (0.5, 3j), (0.6, -3j), (0.04, 0.01))
    with pytest.raises(InvalidParameterError, match=r"^parameters are not admissible: pair \(1,-1\) margin"):
        bidifferential_via_modes(sp, 8, [0.55, -0.5 - 0.8j])


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
    # nothing else in the library checks them: the correlators' points,
    # kernel_via_modes' x and y, and bidifferential_via_modes' points.
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
        (lambda: kernel_via_modes(genus3_params, 1, 5, points[0], points[1]), 2),
        (lambda: bidifferential_via_modes(genus3_params, 5, points[:4]), 4),
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
    counted(monkeypatch, modes, "zgetrf", calls)
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
