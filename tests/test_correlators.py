"""Oracle tests for the closed-form correlators.

The oracles are independent of the code under test: counting
(double factorials), genus-1 closed forms (the cyclic orbit summed in
the coordinate where the generator is z -> q z, the Euler product, the
Jacobi theta series), theta series of D4 and E8 (Jacobi thetas, the
Eisenstein series E4), and the integrality of the theta exponent.
"""

import math
from collections import Counter

import numpy as np
import pytest

import schottky.correlators as correlators
from schottky import (
    ClassicalParams,
    InvalidParameterError,
    TruncationPolicy,
    params_from_classical,
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
from schottky.forms import SurfaceForms
from schottky.modes import mode_cutoff_for

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
def test_odd_heisenberg_npoint_vanishes(torus_forms, n):
    pts = [2.0 + 0.5j * k for k in range(n)]
    res = heisenberg_npoint(torus_forms, pts)
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
    monkeypatch.setattr(correlators, "heisenberg_partition", unused)
    res = lattice_partition(torus_forms, LatticeSpec(()))
    assert res.value == 1
    assert res.tail == 0.0


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
    "gram", [((2, 0.5), (0.5, 2)), ((2.9,),), (("2",),), ((2 + 0j,),), ((float("nan"),),)]
)
def test_lattice_spec_rejects_non_integer_gram(gram):
    with pytest.raises(InvalidParameterError):
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


class TestSurfaceMemo:
    """Z and Omega are computed once per surface (Z once per mode cutoff)."""

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
        partition = correlators.heisenberg_partition
        period_matrix = SurfaceForms.period_matrix

        def counted_partition(sp, modes):
            calls[("Z", modes)] += 1
            return partition(sp, modes)

        def counted_period_matrix(forms):
            calls["Omega"] += 1
            return period_matrix(forms)

        monkeypatch.setattr(correlators, "heisenberg_partition", counted_partition)
        monkeypatch.setattr(SurfaceForms, "period_matrix", counted_period_matrix)
        forms = SurfaceForms(genus2_params, self.POLICY)
        for _ in range(3):
            for request in self.requests():
                request(forms)
        # Without modes= the cutoff is the policy's tol-driven one.
        m = mode_cutoff_for(genus2_params, self.POLICY.tol, self.POLICY.mode_cutoff)
        assert m < self.POLICY.mode_cutoff
        assert calls == {("Z", m): 1, ("Z", 8): 1, "Omega": 1}
        # Another surface computes its own.
        lattice_partition(SurfaceForms(genus2_params, self.POLICY), A2)
        assert calls == {("Z", m): 2, ("Z", 8): 1, "Omega": 2}

    def test_memo_bitwise_equal_to_uncached_route(self, genus2_params):
        warm = SurfaceForms(genus2_params, self.POLICY)
        for request in self.requests():
            request(warm)
        for request in self.requests():
            hot = request(warm)
            cold = request(SurfaceForms(genus2_params, self.POLICY))
            assert (hot.value, hot.tail) == (cold.value, cold.tail)
        for modes in (8, 12):
            z = correlators._partition(warm, modes)
            fresh = correlators.heisenberg_partition(genus2_params, modes)
            assert (z.value, z.tail) == (fresh.value, fresh.tail)
        omega = correlators._period_matrix(warm)
        fresh = SurfaceForms(genus2_params, self.POLICY).period_matrix()
        assert np.array_equal(omega.omega, fresh.omega) and omega.tail == fresh.tail

    def test_cached_omega_is_read_only(self, genus2_params):
        forms = SurfaceForms(genus2_params, self.POLICY)
        lattice_partition(forms, A2)
        with pytest.raises(ValueError):
            correlators._period_matrix(forms).omega[0, 0] = 0.0


@pytest.mark.parametrize("where", [[0], [1, 0, 2], [1, 0], [0, 1]])
def test_heisenberg_npoint_requires_every_point_in_domain(genus3_params, where):
    # The centre w_1 of a disc, alone, among an odd number of points, or
    # as either point of a pair: refused whatever n and the order.
    forms = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
    choices = [genus3_params.center(1), 3.0 + 1.0j, -3.0 + 0.5j]
    with pytest.raises(InvalidParameterError, match="insertion point"):
        heisenberg_npoint(forms, [choices[k] for k in where])


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_non_finite_insertions_refused_by_name(torus_forms, bad):
    x = 2.0 + 0.5j
    for arg, call in (
        ("insertion point 1", lambda: heisenberg_npoint(torus_forms, [x, bad])),
        ("insertion point 0", lambda: heisenberg_npoint(torus_forms, [bad])),
        ("x", lambda: virasoro_one_point(torus_forms, bad)),
        ("x", lambda: virasoro_two_point(torus_forms, bad, x)),
        ("y", lambda: virasoro_two_point(torus_forms, x, bad)),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{arg} = .* is not finite$"):
            call()


def test_zero_cutoff_tails_are_infinite_not_nan(genus2_params):
    # At L = 0 the projective connection is the empty sum, 0 with an
    # infinite tail; s(x) s(y) must keep that tail infinite.
    forms = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=0, mode_cutoff=8))
    x, y = 3.0 + 1.0j, -2.0 + 2.0j
    for res in (virasoro_one_point(forms, x), virasoro_two_point(forms, x, y)):
        assert math.isinf(res.tail)
