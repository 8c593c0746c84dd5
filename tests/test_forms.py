"""Tests for the truncated function-theory evaluator.

Oracle values are computed inline by independent means (hand-reduced
identity terms, trapezoidal residue integrals, Richardson limits, finite
differences of independently summed series), never by calling the code
under test a second way that shares the suspect logic.
"""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky.forms import (
    EPS,
    POLE_GUARD,
    ConfigurationError,
    Estimate,
    PoleProximityError,
    SurfaceForms,
    kernel_seed,
    _abs_sum,
)
from schottky.correlators import virasoro_one_point
from schottky.modes import heisenberg_partition, kernel_via_modes
from schottky.group import (
    ClassicalParams,
    InvalidParameterError,
    MobiusMap,
    SchottkyParams,
    TruncationPolicy,
    classical_from_params,
    enumerate_group,
    generator_map,
    mobius_act_on_params,
    params_from_classical,
    validate,
)


@pytest.fixture(scope="module")
def torus_forms(torus_params):
    return SurfaceForms(torus_params, TruncationPolicy(max_word_length=12, tol=1e-9))


@pytest.fixture(scope="module")
def genus2_forms(genus2_params):
    return SurfaceForms(genus2_params, TruncationPolicy(max_word_length=6, tol=1e-8))


def b_cycle_nodes(sp, a, n_angles=64):
    """Gauss-Legendre nodes and weights on a path from z0 to gamma_a z0.

    z0 lies on the circle at w_a.  The path leaves it radially by one
    radius, crosses on a straight chord and comes back radially onto the
    circle at w_{-a}; a straight chord alone re-enters a handle-a disc
    when rho_a is real.  Of n_angles departure angles the one whose nodes
    keep farthest from every disc wins, and it must keep outside all.
    """
    gauss, gauss_w = np.polynomial.legendre.leggauss(16)
    g_a = generator_map(sp, a)
    w, wm, r = sp.center(a), sp.center(-a), sp.radius(a)
    best = None
    for k in range(n_angles):
        z0 = w + r * cmath.exp(2j * math.pi * k / n_angles)
        end = complex(g_a(z0))
        corners = [z0, w + 2 * (z0 - w), wm + 2 * (end - wm), end]
        nodes, weights = [], []
        for p, q in zip(corners, corners[1:]):
            panels = max(2, math.ceil(abs(q - p) / 0.25))
            for j in range(panels):
                lo, hi = p + (q - p) * j / panels, p + (q - p) * (j + 1) / panels
                nodes.extend(0.5 * (lo + hi) + 0.5 * (hi - lo) * gauss)
                weights.extend(0.5 * (hi - lo) * gauss_w)
        nodes = np.array(nodes)
        clearance = min(
            (np.abs(nodes - sp.center(b)) / sp.radius(b)).min() - 1.0
            for b in sp.signed_indices
        )
        if best is None or clearance > best[0]:
            best = (clearance, nodes, np.array(weights))
    assert best[0] > 0
    return best[1], best[2]


def trapezoid_loop(f, center, radius, n=256):
    """(1/2 pi i) oint f(z) dz over the circle, independent quadrature."""
    total = 0.0 + 0.0j
    for k in range(n):
        z = center + radius * cmath.exp(2j * math.pi * k / n)
        total += f(z) * (z - center)
    return total / n


class TestSeedKernel:
    def test_single_point_seed_is_third_kind_identity_term(self):
        # (1/(x-y)) * (y-0)/(x-0) = 1/(x-y) - 1/x; at x=2, y=1 both give 1/2.
        assert kernel_seed(2.0, 1.0, (0.0,)) == pytest.approx(0.5)
        x, y = 1.7 - 0.3j, -0.4 + 2.1j
        assert kernel_seed(x, y, (0.0,)) == pytest.approx(1 / (x - y) - 1 / x)

    def test_three_point_seed_worked_example(self):
        # (1/(3-1)) * ((1-0)(1+2)(1-5)) / ((3-0)(3+2)(3-5))
        #   = (1/2) * (1*3*(-4)) / (3*5*(-2)) = (1/2)(-12/-30) = 0.2
        assert kernel_seed(3.0, 1.0, (0.0, -2.0, 5.0)) == pytest.approx(0.2)

    def test_diagonal_pole_rejected(self):
        with pytest.raises(PoleProximityError):
            kernel_seed(1.0, 1.0, (0.0,))


class TestThirdKind:
    def test_identity_term_only_at_length_zero(self, torus_params):
        F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=0))
        v = F.third_kind_form(2.0, 1.0)
        assert v.value == pytest.approx(0.5)
        assert math.isinf(v.tail)

    def test_residue_plus_one_at_pole_location(self, torus_forms):
        # Independent trapezoidal residue over a small circle around y.
        y = 2.3 + 0.4j
        res = trapezoid_loop(
            lambda z: torus_forms.third_kind_form(z, y).value, y, 1e-2
        )
        assert abs(res - 1.0) < 1e-10

    def test_residue_minus_one_at_origin(self, torus_forms):
        y = 2.3 + 0.4j
        res = trapezoid_loop(
            lambda z: torus_forms.third_kind_form(z, y).value, 0.0, 1e-2
        )
        assert abs(res + 1.0) < 1e-10

    def test_second_argument_may_enter_discs(self, torus_forms):
        # The continuation in y is what quasi-period checks evaluate.
        g1 = generator_map(torus_forms.sp, 1)
        inside = complex(g1(2.0 + 1.0j))
        v = torus_forms.third_kind_form(0.3 + 0.5j, inside)
        assert np.isfinite(v.value)

    def test_first_argument_must_be_exterior(self, torus_forms):
        inside = torus_forms.sp.center(1)
        with pytest.raises(InvalidParameterError):
            torus_forms.third_kind_form(inside, 2.0 + 1.0j)

    def test_pole_collision_guarded(self, torus_forms):
        x = 0.3 + 0.5j
        g1 = generator_map(torus_forms.sp, 1)
        with pytest.raises(PoleProximityError):
            torus_forms.third_kind_form(x, complex(g1(x)))


class TestBidifferential:
    def test_double_pole_normalization(self, genus2_forms):
        # (x-y)^2 * omega -> 1 as x -> y; compare two offsets, the
        # remainder is analytic so the error scales down with h.
        y = 0.55 + 0.35j
        vals = []
        for h in (1e-3, 5e-4):
            x = y + h
            vals.append(genus2_forms.bidifferential(x, y).value * h * h)
        assert abs(vals[1] - 1.0) < 1e-5
        assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0)

    def test_symmetry_within_tails(self, genus2_forms):
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        a = genus2_forms.bidifferential(x, y)
        b = genus2_forms.bidifferential(y, x)
        assert abs(a.value - b.value) <= 100 * (a.tail + b.tail) + 1e-12

    def test_alpha_periods_vanish(self, genus2_forms):
        # Second-kind differential: no residues, so the loop around a
        # disc picks up nothing.
        sp = genus2_forms.sp
        y = 2.5 + 2.1j
        for b in (-1, 2):
            val = trapezoid_loop(
                lambda z: genus2_forms.bidifferential(z, y).value,
                sp.center(b),
                sp.radius(b) * 1.05,
                n=128,
            )
            assert abs(val) < 1e-9

    def test_y_derivative_matches_finite_difference(self, genus2_forms):
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        h = 1e-5
        fd = (
            genus2_forms.bidifferential(x, y + h).value
            - genus2_forms.bidifferential(x, y - h).value
        ) / (2 * h)
        an = genus2_forms.bidifferential_dsecond(x, y).value
        assert abs(an - fd) < 1e-7 * max(1.0, abs(an))

    def test_x_derivative_matches_finite_difference(self, genus2_forms):
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        h = 1e-5
        fd = (
            genus2_forms.bidifferential(x + h, y).value
            - genus2_forms.bidifferential(x - h, y).value
        ) / (2 * h)
        an = genus2_forms.bidifferential_dfirst(x, y).value
        assert abs(an - fd) < 1e-7 * max(1.0, abs(an))


class TestHolomorphicForms:
    def test_genus1_closed_form(self, torus_forms):
        # On a once-handled surface the normalized form is
        # 1/(x - W_attracting) - 1/(x - W_repelling), whose loop integral
        # around the attracting-side disc is +1.
        cp = classical_from_params(torus_forms.sp)
        Wp, Wm = cp.W_plus[0], cp.W_minus[0]
        for x in (0.37 + 0.41j, -2.0 + 0.3j):
            nu = torus_forms.holomorphic_form(1, x)
            closed = 1 / (x - Wm) - 1 / (x - Wp)
            assert abs(nu.value - closed) < 1e-12

    def test_normalization_kronecker_delta(self, genus2_forms):
        sp = genus2_forms.sp
        for b in (1, 2):
            for c in (1, 2):
                val = trapezoid_loop(
                    lambda z: genus2_forms.holomorphic_form(c, z).value,
                    sp.center(-b),
                    sp.radius(-b) * 1.05,
                    n=128,
                )
                assert abs(val - (1.0 if b == c else 0.0)) < 1e-7

    def test_invariance_under_generators(self, genus2_forms):
        # nu(gamma_a x) gamma_a'(x) = nu(x) up to truncation resummation.
        # The isometric circle of a maps onto the circle of -a, so both
        # evaluation points stay on the domain boundary.
        sp = genus2_forms.sp
        for a in (1, 2):
            g = generator_map(sp, a)
            x = sp.center(a) + sp.radius(a) * cmath.exp(0.9j)
            gx = complex(g(x))
            for c in (1, 2):
                v1 = genus2_forms.holomorphic_form(c, x)
                v2 = genus2_forms.holomorphic_form(c, gx)
                moved = v2.value * complex(g.derivative(x))
                assert abs(moved - v1.value) < 1e-5

    def test_derivative_matches_finite_difference(self, genus2_forms):
        x = 0.45 - 0.3j
        h = 1e-5
        for a in (1, 2):
            fd = (
                genus2_forms.holomorphic_form(a, x + h).value
                - genus2_forms.holomorphic_form(a, x - h).value
            ) / (2 * h)
            an = genus2_forms.holomorphic_form_derivative(a, x).value
            assert abs(an - fd) < 1e-7 * max(1.0, abs(an))


class TestProjectiveConnection:
    def test_regularized_diagonal_limit(self, genus2_forms):
        # s(x) = 6 lim_{y->x} (omega(x,y) - 1/(x-y)^2); the bracket is
        # analytic in y at x, so two offsets Richardson-extrapolate the
        # limit with O(h^2) error.
        x = 0.55 + 0.3j
        def bracket(h):
            y = x + h
            h_eff = y - x  # the representable offset, so the pole term
            om = genus2_forms.bidifferential(x, y).value  # cancels exactly
            return 6.0 * (om - 1.0 / (h_eff * h_eff))
        e1, e2, e3 = bracket(1e-3), bracket(5e-4), bracket(2.5e-4)
        r1 = 2.0 * e2 - e1
        r2 = 2.0 * e3 - e2
        richardson = (4.0 * r2 - r1) / 3.0
        s = genus2_forms.projective_connection(x).value
        assert abs(s - richardson) < 1e-7 * max(1.0, abs(s))

    def test_empty_sum_at_length_zero(self, torus_params):
        # No word beyond the identity: the value is the empty sum and
        # nothing bounds the omitted shells.
        F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=0))
        for v in (F.projective_connection(2.0), F.projective_connection_derivative(2.0)):
            assert v.value == 0.0
            assert math.isinf(v.tail)

    def test_quadratic_differential_under_conjugation(self, genus2_params):
        # Conjugating the group by a Mobius map m sends each summand to
        # itself divided by m'(x)^2 exactly (word-by-word), so
        # s_conj(m x) m'(x)^2 = s(x) to machine precision.
        m = MobiusMap(1.0, 0.15 - 0.1j, 0.02, 1.0).normalized()
        moved = mobius_act_on_params(genus2_params, m)
        F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=5))
        G = SurfaceForms(moved, TruncationPolicy(max_word_length=5))
        x = 0.55 + 0.3j
        mx = complex(m(x))
        dm = complex(m.derivative(x))
        lhs = G.projective_connection(mx).value * dm * dm
        rhs = F.projective_connection(x).value
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))

    def test_derivative_matches_finite_difference(self, genus2_forms):
        x = 0.55 + 0.3j
        h = 1e-5
        fd = (
            genus2_forms.projective_connection(x + h).value
            - genus2_forms.projective_connection(x - h).value
        ) / (2 * h)
        an = genus2_forms.projective_connection_derivative(x).value
        assert abs(an - fd) < 1e-7 * max(1.0, abs(an))


class TestPowerKernels:
    def test_identity_term(self, genus2_params):
        F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=0))
        x, y = 2.6, 1.0 - 0.4j
        v = F.power_bidifferential(x, y, 2)
        assert v.value == pytest.approx(1.0 / (x - y) ** 4)

    def test_weight_one_is_bidifferential(self, genus2_forms):
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        a = genus2_forms.power_bidifferential(x, y, 1)
        b = genus2_forms.bidifferential(x, y)
        assert a.value == pytest.approx(b.value)

    def test_third_y_derivative_of_weight2_kernel(self, genus2_forms):
        # Summand-by-summand, (1/3!) d^3/dy^3 of the weight-2 kernel is
        # the squared-bidifferential summand: the seed's cubic numerator
        # drops out after three derivatives and the basis-point product
        # cancels, leaving (gamma'x)^2/(gamma x - y)^4.  Verify with a
        # five-point third-difference plus Richardson.
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        def third(h):
            f = lambda t: genus2_forms.recursion_kernel(x, t, 2).value
            return (
                -f(y - 2 * h) + 2 * f(y - h) - 2 * f(y + h) + f(y + 2 * h)
            ) / (2 * h**3)
        d3 = (16.0 * third(0.0025) - third(0.005)) / 15.0
        lam = genus2_forms.power_bidifferential(x, y, 2).value
        assert abs(d3 / 6.0 - lam) < 1e-5 * max(1.0, abs(lam))


class TestRecursionKernel:
    def test_weight_one_matches_third_kind(self, genus2_forms):
        x, y = 0.6 + 0.2j, 2.4 - 1.0j
        a = genus2_forms.recursion_kernel(x, y, 1)
        b = genus2_forms.third_kind_form(x, y)
        assert a.value == pytest.approx(b.value)

    def test_identity_term_with_fixed_point_basis(self, genus2_params):
        F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=0))
        x, y = 2.6 + 0.3j, -1.9 + 2.2j
        v = F.recursion_kernel(x, y, 2)
        assert v.value == pytest.approx(kernel_seed(x, y, F._seed_points(2)))

    def test_diagonal_residue_one(self, genus2_forms):
        y = 0.5 - 0.6j
        res = trapezoid_loop(
            lambda z: genus2_forms.recursion_kernel(z, y, 2).value, y, 1e-2
        )
        assert abs(res - 1.0) < 1e-9

    def test_weight_two_needs_three_basis_points(self, torus_params):
        F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=4))
        with pytest.raises(ConfigurationError):
            F.recursion_kernel(2.0, 1.0 + 1.0j, 2)

    @pytest.mark.parametrize("fixture", ["torus_params", "genus2_params", "genus3_params"])
    def test_seed_basis_is_fixed_points_in_handle_order(self, fixture, request):
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=1))
        cp = classical_from_params(sp)
        fixed = np.array([W for h in range(sp.genus) for W in (cp.W_plus[h], cp.W_minus[h])])
        assert F._seed_points(1) == (0.0,)
        for N in range(2, sp.genus + 1):
            assert np.array(F._seed_points(N)).tobytes() == fixed[: 2 * N - 1].tobytes()
        with pytest.raises(ConfigurationError, match="genus"):
            F._seed_points(sp.genus + 1)
        with pytest.raises(ConfigurationError):
            F.recursion_kernel(3.0 - 1.0j, 0.5 + 0.5j, sp.genus + 1)

    def test_invariance_in_first_argument(self, genus2_forms):
        sp = genus2_forms.sp
        y = 2.4 - 1.0j
        g = generator_map(sp, 2)
        x = sp.center(2) + sp.radius(2) * cmath.exp(0.9j)
        gx = complex(g(x))
        v1 = genus2_forms.recursion_kernel(x, y, 2).value
        v2 = genus2_forms.recursion_kernel(gx, y, 2).value
        moved = v2 * complex(g.derivative(x)) ** 2
        assert abs(moved - v1) < 1e-5 * max(1.0, abs(v1))

    def test_y_derivative_matches_finite_difference(self, genus2_forms):
        x, y = 0.6 + 0.2j, 2.4 - 1.0j
        h = 1e-5
        fd = (
            genus2_forms.recursion_kernel(x, y + h, 2).value
            - genus2_forms.recursion_kernel(x, y - h, 2).value
        ) / (2 * h)
        an = genus2_forms.recursion_kernel_dy(x, y, 2).value
        assert abs(an - fd) < 1e-7 * max(1.0, abs(an))
        # The reported tail is the last word shell plus the rounding floor:
        # positive, and larger than the move to the next cutoff, also at
        # L = 6 where the last shell has fallen below rounding.
        for L in (3, 6):
            coarse, fine = (
                SurfaceForms(genus2_forms.sp, TruncationPolicy(max_word_length=n))
                .recursion_kernel_dy(x, y, 2)
                for n in (L, L + 1)
            )
            assert coarse.tail > 0
            assert abs(fine.value - coarse.value) < coarse.tail


class TestQuasiPeriods:
    def test_weight_one_coefficient_is_minus_one_form(self, torus_forms):
        x = 0.37 + 0.41j
        th = torus_forms.quasiperiod_coefficient(1, 1, 0, x)
        nu = torus_forms.holomorphic_form(1, x)
        assert abs(th.value + nu.value) < 1e-12

    def test_weight_one_reconstruction(self, torus_forms):
        x = 0.37 + 0.41j
        th = torus_forms.quasiperiod_coefficient(1, 1, 0, x)
        g1 = generator_map(torus_forms.sp, 1)
        for y in (2.0 + 1.0j, -0.2 + 2.2j):
            lhs = (
                torus_forms.third_kind_form(x, y).value
                - torus_forms.third_kind_form(x, complex(g1(y))).value
            )
            assert abs(lhs - th.value) < 1e-12

    def test_weight_two_reconstruction(self, genus2_forms):
        sp = genus2_forms.sp
        x = 0.5 + 0.3j
        rng = np.random.default_rng(7)
        for a in (1, 2):
            ths = [
                genus2_forms.quasiperiod_coefficient(2, a, l, x) for l in range(3)
            ]
            g = generator_map(sp, a)
            wa = sp.center(a)
            for _ in range(4):
                y = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) + (
                    0.3 - 0.55j
                )
                gy = complex(g(y))
                dgy = complex(g.derivative(y))
                lhs = (
                    genus2_forms.recursion_kernel(x, y, 2).value
                    - genus2_forms.recursion_kernel(x, gy, 2).value / dgy
                )
                rhs = sum(t.value * (y - wa) ** l for l, t in enumerate(ths))
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_index_validation(self, genus2_forms):
        with pytest.raises(InvalidParameterError):
            genus2_forms.quasiperiod_coefficient(2, 3, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            genus2_forms.quasiperiod_coefficient(2, 1, 3, 0.5)

    def test_circle_hugging_point_within_tail(self, genus2_params):
        # A point hugging the circle at w_{-1} puts a pole of the kernel
        # next to the sample points on the circle at w_1; the coefficients
        # still come out finite and move by less than their tails.
        sp = genus2_params
        x = sp.center(-1) + sp.radius(-1) * 1.0000001 * cmath.exp(0.3j)
        coarse, fine = (
            SurfaceForms(sp, TruncationPolicy(max_word_length=L)) for L in (5, 7)
        )
        for weight in (1, 2):
            for ell in range(2 * weight - 1):
                c = coarse.quasiperiod_coefficient(weight, 1, ell, x)
                f = fine.quasiperiod_coefficient(weight, 1, ell, x)
                assert np.isfinite(c.value) and 0 < c.tail < 1e-6
                assert abs(f.value - c.value) < c.tail

    @pytest.mark.parametrize("fixture, L", [("genus2_params", 6), ("genus3_params", 5)])
    def test_matches_contour_integrals(self, fixture, L, request):
        # Independent route: the Laurent coefficients
        # chi_b(x; l) = (1/2 pi i) oint psi_N(x, y) (y - w_b)^{-l-1} dy on
        # the isometric circles by the trapezoid rule, combined as
        # theta_a(x; l) = chi_a(x; l) + (-1)^N rho_a^{N-1-l} chi_{-a}(x; 2N-2-l).
        # The two routes sample the kernel at different points, so their
        # rounding does not cancel: allow 1000 ulps of the integrands'
        # mean magnitude on top of the reported tail.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        x = 0.6 + 0.2j
        n = 256
        phases = np.exp(2j * np.pi * np.arange(n) / n)
        for weight in range(1, min(3, sp.genus) + 1):
            for a in range(1, sp.genus + 1):
                samples = {}
                for b in (a, -a):
                    rel = sp.radius(b) * phases
                    psi = [F.recursion_kernel(x, sp.center(b) + u, weight).value for u in rel]
                    samples[b] = (np.array(psi), rel)

                def chi(b, ell):
                    psi, rel = samples[b]
                    terms = psi * rel ** (-ell)
                    return terms.mean(), np.abs(terms).mean()

                for ell in range(2 * weight - 1):
                    factor = (-1) ** weight * sp.rho[a - 1] ** (weight - 1 - ell)
                    (c1, m1), (c2, m2) = chi(a, ell), chi(-a, 2 * weight - 2 - ell)
                    th = F.quasiperiod_coefficient(weight, a, ell, x)
                    bound = th.tail + 1e3 * EPS * (m1 + abs(factor) * m2)
                    assert abs(th.value - (c1 + factor * c2)) < bound


class TestPeriodMatrix:
    def test_genus1_log_multiplier(self, torus_forms):
        res = torus_forms.period_matrix()
        q = classical_from_params(torus_forms.sp).q[0]
        expected = cmath.log(q) / (2j * math.pi)
        assert abs(res.omega[0, 0] - expected) < 1e-10
        assert abs(cmath.exp(2j * math.pi * res.omega[0, 0]) - q) < 1e-10

    def test_genus2_symmetric_positive(self, genus2_forms):
        res = genus2_forms.period_matrix()
        assert np.array_equal(res.omega, res.omega.T)
        assert np.linalg.eigvalsh(res.omega.imag).min() > 0
        assert res.tail < 1e-6
        # Cholesky of Im(Omega) must succeed: PD in the numerical sense.
        np.linalg.cholesky(0.5 * (res.omega.imag + res.omega.imag.T))

    def test_diagonal_close_to_handle_multipliers(self, genus2_forms):
        # Leading order in the handle strength: the diagonal entry is
        # log(q_a)/(2 pi i) with corrections from the other handle.
        cp = classical_from_params(genus2_forms.sp)
        res = genus2_forms.period_matrix()
        for a in (1, 2):
            lead = cmath.log(cp.q[a - 1]) / (2j * math.pi)
            assert abs(res.omega[a - 1, a - 1] - lead) < 0.02

    def test_negative_multiplier_torus(self):
        # q on the negative real axis: log(q)/(2 pi i) = 0.5 + 0.7329i.
        sp = params_from_classical(ClassicalParams((2.0,), (-2.0,), (-0.01,)))
        res = SurfaceForms(sp, TruncationPolicy(max_word_length=5)).period_matrix()
        expected = cmath.log(-0.01) / (2j * math.pi)
        assert abs(expected - (0.5 + 0.7329j)) < 1e-4
        assert 0 < res.tail < 1e-12
        assert abs(res.omega[0, 0] - expected) <= res.tail

    def test_negative_multiplier_genus2(self):
        # Admissible, with the identity cross-ratio of the off-diagonal
        # entry on the negative real axis (Re Omega_12 = 1/2).
        sp = params_from_classical(
            ClassicalParams((2.0, 2j), (-2.0, -2j), (-0.01, 0.01))
        )
        assert validate(sp).ok
        coarse, fine = (
            SurfaceForms(sp, TruncationPolicy(max_word_length=L)).period_matrix()
            for L in (5, 7)
        )
        assert np.array_equal(coarse.omega, coarse.omega.T)
        assert np.linalg.eigvalsh(coarse.omega.imag).min() > 0
        np.linalg.cholesky(coarse.omega.imag)
        assert np.abs(fine.omega - coarse.omega).max() < coarse.tail

    @pytest.mark.parametrize("fixture, L", [("genus2_params", 6), ("genus3_params", 5)])
    def test_quadrature_of_one_forms_along_b_cycles(self, fixture, L, request):
        # Independent route: Gauss-Legendre integrals of nu_b along a path
        # from z0 on the circle at w_a to gamma_a z0 give 2 pi i Omega_ab
        # modulo integers (windings around other discs add integers).
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        omega = F.period_matrix().omega
        g = sp.genus
        for a in range(1, g + 1):
            nodes, weights = b_cycle_nodes(sp, a)
            for b in range(1, g + 1):
                nu = np.array([F.holomorphic_form(b, z).value for z in nodes])
                gap = (nu * weights).sum() / (2j * math.pi) - omega[a - 1, b - 1]
                assert abs(gap - round(gap.real)) < 1e-7

    def test_invariant_under_mobius_conjugation(self, genus2_params):
        # Conjugating the group moves the fixed points but keeps every
        # cross-ratio and multiplier, so Omega stays within its tail.
        m = MobiusMap(1.0, 0.15 - 0.1j, 0.02, 1.0).normalized()
        moved = mobius_act_on_params(genus2_params, m)
        policy = TruncationPolicy(max_word_length=5)
        base = SurfaceForms(genus2_params, policy).period_matrix()
        conj = SurfaceForms(moved, policy).period_matrix()
        assert np.abs(conj.omega - base.omega).max() <= base.tail + conj.tail


class TestTruncationDiscipline:
    def test_doubling_within_reported_tail(self, genus2_params):
        coarse = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=4))
        fine = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=8))
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        pairs = [
            (coarse.third_kind_form(x, y), fine.third_kind_form(x, y)),
            (coarse.bidifferential(x, y), fine.bidifferential(x, y)),
            (coarse.projective_connection(x), fine.projective_connection(x)),
            (coarse.holomorphic_form(1, x), fine.holomorphic_form(1, x)),
            (coarse.recursion_kernel(x, y, 2), fine.recursion_kernel(x, y, 2)),
        ]
        for c, f in pairs:
            assert abs(c.value - f.value) <= max(c.tail, 1e-14)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    @pytest.mark.parametrize("L, k", [(2, 1), (3, 2), (4, 2)])
    def test_coset_series_within_reported_tail(self, fixture, L, k, request):
        sp = request.getfixturevalue(fixture)
        coarse = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        fine = SurfaceForms(sp, TruncationPolicy(max_word_length=L + k))
        c, f = coarse.period_matrix(), fine.period_matrix()
        assert np.abs(f.omega - c.omega).max() < c.tail
        for a in range(1, sp.genus + 1):
            edge = sp.center(-a) + sp.radius(-a) * cmath.exp(0.4j)
            for x in (0.6 + 0.2j, 3.0 - 1.0j, edge):
                cv, fv = coarse.holomorphic_form(a, x), fine.holomorphic_form(a, x)
                assert abs(fv.value - cv.value) < cv.tail

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    @pytest.mark.parametrize("L, k", [(2, 1), (3, 2), (4, 2), (5, 1)])
    def test_every_evaluator_within_reported_tail(self, fixture, L, k, request):
        # The pointwise evaluators at weights up to the largest the genus
        # supports; the handle-indexed ones also on the circle at w_{-a}.
        # At L = 5 the weight >= 2 sums are below rounding on genus 3, so
        # the move to L + 1 is all rounding (recursion_kernel at x = 3 - i
        # moves by more than an eps * sum |terms| floor there).
        sp = request.getfixturevalue(fixture)
        coarse = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        fine = SurfaceForms(sp, TruncationPolicy(max_word_length=L + k))
        weights = range(1, min(3, sp.genus) + 1)
        y = -0.5 - 0.8j
        calls = []
        for x in (0.6 + 0.2j, 3.0 - 1.0j):
            calls += [
                (name, x, y)
                for name in (
                    "third_kind_form", "bidifferential",
                    "bidifferential_dfirst", "bidifferential_dsecond",
                )
            ]
            calls += [("projective_connection", x), ("projective_connection_derivative", x)]
            calls += [
                (name, x, y, N)
                for N in weights
                for name in ("power_bidifferential", "recursion_kernel", "recursion_kernel_dy")
            ]
        for a in range(1, sp.genus + 1):
            edge = sp.center(-a) + sp.radius(-a) * cmath.exp(0.4j)
            for x in (0.6 + 0.2j, 3.0 - 1.0j, edge):
                calls.append(("holomorphic_form_derivative", a, x))
                calls += [
                    ("quasiperiod_coefficient", N, a, ell, x)
                    for N in weights
                    for ell in range(2 * N - 1)
                ]
        for name, *args in calls:
            c, f = getattr(coarse, name)(*args), getattr(fine, name)(*args)
            assert abs(f.value - c.value) < c.tail, (name, args)

    def test_tails_decay_with_cutoff(self, genus2_params):
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        tails = []
        for L in (2, 4, 6):
            F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=L))
            tails.append(F.third_kind_form(x, y).tail)
        assert tails[0] > tails[1] > tails[2]

    def test_zero_cutoff_reports_infinite_tail(self, torus_params):
        F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=0))
        assert math.isinf(F.third_kind_form(2.0, 1.0).tail)


word_table = functools.lru_cache(maxsize=2)(enumerate_group)


def whole_table_terms(sp, L, name, args):
    """Terms and last-shell mask of one orbit or coset sum, over the whole table.

    Built straight from the enumerate_group arrays with the evaluator's
    term formula, for comparison with its row-blocked sum.
    """
    W = word_table(sp, L)
    last_shell = W.length == L
    if name.startswith("holomorphic_form"):
        a, x = args
        rows = np.abs(W.last) != a
        cp = classical_from_params(sp)
        Wp, Wm = cp.W_plus[a - 1], cp.W_minus[a - 1]
        a_, b_, c_, d_ = (v[rows] for v in (W.a, W.b, W.c, W.d))
        den_p, den_m = c_ * Wp + d_, c_ * Wm + d_
        delta = (Wp - Wm) / (den_p * den_m)
        dm, dp = x - (a_ * Wm + b_) / den_m, x - (a_ * Wp + b_) / den_p
        if name == "holomorphic_form":
            return -delta / (dm * dp), last_shell[rows]
        return delta * (dm + dp) / ((dm * dp) * (dm * dp)), last_shell[rows]
    x = args[0]
    den = W.c * x + W.d
    gx = (W.a * x + W.b) / den
    dgx = 1.0 / (den * den)
    ggx = -2.0 * W.c / (den * den * den)
    if name.startswith("projective_connection"):
        gx, dgx, ggx, last_shell = gx[1:], dgx[1:], ggx[1:], last_shell[1:]
        diff = gx - x
        if name == "projective_connection":
            return 6.0 * dgx / (diff * diff), last_shell
        return 6.0 * (ggx / (diff * diff) - 2.0 * dgx * (dgx - 1.0) / diff**3), last_shell
    y = args[1]
    diff = gx - y
    if name == "bidifferential":
        return dgx / (diff * diff), last_shell
    if name == "bidifferential_dfirst":
        return ggx / (diff * diff) - 2.0 * dgx * dgx / (diff * diff * diff), last_shell
    if name == "bidifferential_dsecond":
        return 2.0 * dgx / (diff * diff * diff), last_shell
    N = args[2]
    if name == "power_bidifferential":
        return (dgx / (diff * diff)) ** N, last_shell
    cp = classical_from_params(sp)
    fixed = [W for h in range(sp.genus) for W in (cp.W_plus[h], cp.W_minus[h])]
    A = (0.0,) if N == 1 else fixed[: 2 * N - 1]
    coef = dgx**N
    poly, dpoly = 1.0, 0.0
    for Aj in A:
        # An image on a basis point to the bit contributes 0 (see
        # SurfaceForms._orbit_seed_coef).
        dead = gx == Aj
        coef = np.where(dead, 0.0, coef) / np.where(dead, 1.0, gx - Aj)
        dpoly, poly = dpoly * (y - Aj) + poly, poly * (y - Aj)
    if name == "recursion_kernel":
        return poly * (coef / diff), last_shell
    return dpoly * (coef / diff) + poly * (coef / (diff * diff)), last_shell


class TestBlockedSums:
    """The row-blocked sums agree with sums over the whole word table."""

    @pytest.mark.parametrize("fixture, L", [("genus3_params", 6), ("genus2_params", 2)])
    def test_blocked_sums_match_whole_table(self, fixture, L, request):
        # g3 at L = 6 has 23,437 words in 13 blocks; g2 at L = 2 has 17,
        # fewer than one block holds, split only where the last shell
        # starts.  Reference: the exactly rounded sum of the same terms.
        # Summation order alone moves a sum by a few eps * sum |terms|
        # (numpy's whole-table sum of these terms is off the exact one by
        # up to 2.6 of them at random points on g3), hence the factor 8.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        assert len(F._blocks) == (13 if L == 6 else 2)
        x, y = 3.0 - 1.0j, -0.5 - 0.8j
        calls = [
            (name, (x, y))
            for name in ("bidifferential", "bidifferential_dfirst", "bidifferential_dsecond")
        ]
        calls += [("projective_connection", (x,)), ("projective_connection_derivative", (x,))]
        calls += [
            (name, (x, y, N))
            for N in range(1, sp.genus + 1)
            for name in ("power_bidifferential", "recursion_kernel", "recursion_kernel_dy")
        ]
        calls += [
            (name, (a, x))
            for a in range(1, sp.genus + 1)
            for name in ("holomorphic_form", "holomorphic_form_derivative")
        ]
        for name, args in calls:
            got = getattr(F, name)(*args)
            terms, last_shell = whole_table_terms(sp, L, name, args)
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            scale = float(np.sum(np.abs(terms.real) + np.abs(terms.imag)))
            assert abs(got.value - exact) <= 8 * EPS * scale, (name, args)
            # The tail's last shell is the same rows' sum; the floor on top
            # is (1 + the summation bound) eps * sum |terms| unless the
            # evaluator bounds each term.
            shell = abs(terms[last_shell].sum())
            assert got.tail >= shell, (name, args)
            if name not in ("power_bidifferential", "recursion_kernel", "recursion_kernel_dy"):
                assert got.tail <= shell + (2 + F._sum_ulps) * EPS * scale, (name, args)

    def test_floor_bounds_the_summation(self, genus3_params):
        # At seeded points of the genus-3 fixture the blocked sum is off the
        # exactly rounded sum of its own terms by no more than the floor,
        # the tail less the last shell (up to 4.6 eps * sum |terms| for
        # the bidifferential at random points, against a one-ulp floor once).
        sp = genus3_params
        L = 6
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        rng = np.random.default_rng(11)
        points = []
        while len(points) < 120:
            z = complex(*rng.uniform(-6.0, 6.0, 2))
            if all(abs(z - sp.center(b)) > 1.02 * sp.radius(b) for b in sp.signed_indices):
                points.append(z)
        calls = []
        for k, (x, y) in enumerate(zip(points, points[1:] + points[:1])):
            calls += [("bidifferential", (x, y)), ("projective_connection", (x,))]
            calls.append(("holomorphic_form", (1 + k % sp.genus, x)))
        for name, args in calls:
            got = getattr(F, name)(*args)
            terms, last_shell = whole_table_terms(sp, L, name, args)
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            shell = abs(terms[last_shell].sum())
            assert abs(got.value - exact) <= got.tail - shell, (name, args)

    def test_floor_is_independent_of_buffer_alignment(self):
        # The same terms at 8 offsets of one buffer give one floor (BLAS
        # dasum rounded them two ways), so tails reproduce bit for bit.
        rng = np.random.default_rng(3)
        n = 2048
        terms = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-12, 0, n)
        floors = set()
        for k in range(8):
            view = np.empty(2 * n + 8)[k:k + 2 * n].view(np.complex128)
            view[:] = terms
            floors.add(_abs_sum(view))
        assert len(floors) == 1

    def test_multi_y_kernel_bitwise_equals_single_y(self, genus3_params):
        # quasiperiod_coefficient sums the kernel at all its nodes in one
        # pass; each node must get exactly its single-y value and tail.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=6))
        x = 3.0 - 1.0j
        n = 3
        ys = F.sp.center(2) + F.sp.radius(2) * np.exp(2j * np.pi * np.arange(n) / n)
        ys = np.concatenate([ys, [-0.5 - 0.8j]])
        for N in (1, 2):
            vals, tails = F._kernel_many_y(x, ys, N)
            dvals, dtails = F._kernel_many_y(x, ys, N, dy=True)
            for j, y in enumerate(ys):
                one = F.recursion_kernel(x, y, N)
                assert (vals[j], tails[j]) == (one.value, one.tail)
                one = F.recursion_kernel_dy(x, y, N)
                assert (dvals[j], dtails[j]) == (one.value, one.tail)

    def test_pole_guard_names_word_past_first_block(self):
        # y = gamma x for a word in a later block must be refused with that
        # word.  The discs are large so that the chosen images lie farther
        # than the guard from every other image; on the fixtures a deep
        # word's image lies within 1e-10 of its prefix's, an earlier row.
        sp = SchottkyParams(
            3, (2.2, 2.2j, 2.0 + 2.0j), (-2.2, -2.2j, -2.0 - 2.0j), (0.3, 0.25, 0.2)
        )
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=6))
        W = F.words
        x = 3.0 - 1.0j
        images = (W.a * x + W.b) / (W.c * x + W.d)
        for row in (F._blocks[0][1] + 5, 10000):
            y = images[row]
            assert np.sort(np.abs(images - y))[1] > POLE_GUARD
            for call in (
                lambda: F.bidifferential(x, y),
                lambda: F.recursion_kernel(x, y, 2),
            ):
                with pytest.raises(PoleProximityError) as info:
                    call()
                assert info.value.word.letters == W.letters(row)

class TestConstruction:
    def test_invalid_parameters_rejected(self):
        bad = SchottkyParams(1, (1.0,), (-1.0,), (4.0,))
        with pytest.raises(InvalidParameterError):
            SurfaceForms(bad)

    def test_inadmissible_parameters_name_the_reason(self):
        sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (0.018 + 0.004j, 0.0))
        with pytest.raises(InvalidParameterError, match="admissible: handle 2: rho = 0$"):
            SurfaceForms(sp)

    @pytest.mark.parametrize(
        "bad", [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)]
    )
    def test_non_finite_points_refused_by_name(self, genus2_forms, bad):
        F = genus2_forms
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        two_point = [
            ("third_kind_form", ()), ("bidifferential", ()), ("bidifferential_dfirst", ()),
            ("bidifferential_dsecond", ()), ("power_bidifferential", (2,)),
            ("recursion_kernel", (2,)), ("recursion_kernel_dy", (2,)),
        ]
        calls = [("x", name, (bad, y, *more)) for name, more in two_point]
        calls += [("y", name, (x, bad, *more)) for name, more in two_point]
        calls += [
            ("x", "projective_connection", (bad,)),
            ("x", "projective_connection_derivative", (bad,)),
            ("x", "holomorphic_form", (1, bad)),
            ("x", "holomorphic_form_derivative", (1, bad)),
            ("x", "quasiperiod_coefficient", (2, 1, 0, bad)),
        ]
        for arg, name, args in calls:
            with pytest.raises(InvalidParameterError, match=f"^{arg} = .* is not finite$"):
                getattr(F, name)(*args)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda F, x, y: F.recursion_kernel(x, y, 1.5), id="kernel-weight-1.5"),
            pytest.param(lambda F, x, y: F.recursion_kernel(x, y, True), id="kernel-weight-True"),
            pytest.param(lambda F, x, y: F.power_bidifferential(x, y, 2.5), id="power-weight-2.5"),
            pytest.param(lambda F, x, y: F.recursion_kernel_dy(x, y, 0), id="kernel-dy-weight-0"),
            pytest.param(lambda F, x, y: F.quasiperiod_coefficient(2, 1, 0.5, x), id="quasiperiod-ell-0.5"),
            pytest.param(lambda F, x, y: F.quasiperiod_coefficient(1.5, 1, 1, x), id="quasiperiod-weight-1.5"),
            pytest.param(lambda F, x, y: F.holomorphic_form(1.0, x), id="form-handle-1.0"),
            pytest.param(lambda F, x, y: F.holomorphic_form(True, x), id="form-handle-True"),
            pytest.param(lambda F, x, y: heisenberg_partition(F.sp, 4.0), id="partition-modes-4.0"),
            pytest.param(
                # Not served from the cached system of modes = 1 either.
                lambda F, x, y: (heisenberg_partition(F.sp, 1), heisenberg_partition(F.sp, True)),
                id="partition-modes-True",
            ),
            pytest.param(lambda F, x, y: kernel_via_modes(F.sp, 1, 2.5, x, y), id="modes-2.5"),
            pytest.param(lambda F, x, y: kernel_via_modes(F.sp, 1.0, 4, x, y), id="modes-weight-1.0"),
            pytest.param(
                # Not served from the surface's memoized Z of cutoff 4 either.
                lambda F, x, y: (virasoro_one_point(F, x, modes=4), virasoro_one_point(F, x, modes=4.0)),
                id="correlator-modes-4.0",
            ),
            pytest.param(lambda F, x, y: TruncationPolicy(max_word_length=True), id="policy-L-True"),
            pytest.param(lambda F, x, y: TruncationPolicy(mode_cutoff=20.0), id="policy-M-20.0"),
        ],
    )
    def test_non_integer_indices_refused(self, genus2_forms, call):
        with pytest.raises(InvalidParameterError, match="integer|>= 1"):
            call(genus2_forms, 0.6 + 0.2j, -0.5 - 0.8j)

    def test_numpy_integers_accepted(self, genus2_forms):
        F = genus2_forms
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        assert F.recursion_kernel(x, y, np.int64(2)) == F.recursion_kernel(x, y, 2)
        assert F.holomorphic_form(np.int32(2), x) == F.holomorphic_form(2, x)
        assert type(TruncationPolicy(max_word_length=np.int64(3)).max_word_length) is int

    def test_origin_inside_disc_rejected_with_guidance(self):
        sp = SchottkyParams(1, (0.05,), (3.0,), (0.04,))
        with pytest.raises(InvalidParameterError, match="origin.*mobius_act_on_params"):
            SurfaceForms(sp)

    def test_word_cache_matches_policy(self, genus2_params):
        F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=3))
        W = enumerate_group(genus2_params, 3)
        assert len(F.words) == len(W) == 1 + 4 + 12 + 36
        for name in ("a", "b", "c", "d", "length", "parent", "last"):
            assert getattr(F.words, name).tobytes() == getattr(W, name).tobytes()


def _exact(z):
    """The real and imaginary parts of a float complex, as exact fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _exact_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _near(true, dr, di):
    """Estimate of ``true`` moved by (dr, di), its tail the float at or above the exact gap."""
    value = complex(true.real + dr, true.imag + di)
    gap_r, gap_i = (p - q for p, q in zip(_exact(value), _exact(true)))
    tail = math.hypot(float(gap_r), float(gap_i))
    while Fraction(tail) ** 2 < gap_r * gap_r + gap_i * gap_i:
        tail = math.nextafter(tail, math.inf)
    return Estimate(value, tail)


def _within(estimate, true):
    """|estimate.value - true| <= estimate.tail, decided in exact arithmetic."""
    v = _exact(estimate.value)
    return (v[0] - true[0]) ** 2 + (v[1] - true[1]) ** 2 <= Fraction(estimate.tail) ** 2


_PARTS = st.floats(min_value=-1e3, max_value=1e3)
_OFFSET = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, 1e-300, 1e-15, 1e-9, 1e-3, 1.0, 10.0]),
)


class TestEstimate:
    def test_requires_every_field(self):
        # A producer that forgets the tail fails loudly instead of
        # reporting a default tail of 0.
        with pytest.raises(TypeError):
            Estimate(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        true_a=st.tuples(_PARTS, _PARTS), true_b=st.tuples(_PARTS, _PARTS),
        off_a=_OFFSET, off_b=_OFFSET,
        c=st.floats(min_value=1e-3, max_value=1e3), sign=st.sampled_from([1.0, -1.0]),
        n=st.integers(min_value=0, max_value=8),
    )
    def test_true_result_within_tail(self, true_a, true_b, off_a, off_b, c, sign, n):
        # For computed a, b within their tails of true values T_a, T_b,
        # each operation's tail covers the exact result on T_a, T_b.
        ta, tb = complex(*true_a), complex(*true_b)
        a = _near(ta, off_a[0] * off_a[2], off_a[1] * off_a[2])
        b = _near(tb, off_b[0] * off_b[2], off_b[1] * off_b[2])
        A, B, c = _exact(ta), _exact(tb), sign * c
        assert _within(a + b, (A[0] + B[0], A[1] + B[1]))
        assert _within(a * b, _exact_mul(A, B))
        # A plain number counts as exact, on either side.
        exact_b = _exact(b.value)
        assert _within(b.value + a, (A[0] + exact_b[0], A[1] + exact_b[1]))
        assert _within(b.value * a, _exact_mul(A, exact_b))
        assert _within(a / c, (A[0] / Fraction(c), A[1] / Fraction(c)))
        power = (Fraction(1), Fraction(0))
        for _ in range(n):
            power = _exact_mul(power, A)
        assert _within(a**n, power)

    def test_values_are_the_plain_arithmetic(self):
        a, b = Estimate(0.3 + 0.7j, 1e-12), Estimate(-1.1 + 0.2j, 1e-13)
        assert (a * b / 144.0 + 0.5 * b**2).value == (
            a.value * b.value / 144.0 + 0.5 * b.value**2
        )
        assert sum([a, b]).value == 0 + a.value + b.value

    def test_exact_zero_against_infinite_tail(self):
        # An empty sum at L = 0 has value 0 and an infinite tail; products
        # with it must read infinite or zero, never nan.
        empty, z = Estimate(0.0j, math.inf), Estimate(1.0 + 0.1j, 1e-15)
        assert math.isinf((empty * z).tail)
        assert math.isinf((empty * empty).tail) and math.isinf((empty**3).tail)
        assert (Estimate(0.0j, 0.0) * empty).tail < 1e-300
        assert (empty**0).value == 1 and (empty**0).tail == 0.0

    def test_refused_operands(self):
        a = Estimate(1.0 + 1.0j, 0.0)
        for bad in (lambda: a / a, lambda: a / 1j, lambda: a**-1, lambda: a**0.5, lambda: a + "1"):
            with pytest.raises(TypeError):
                bad()


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=2.2, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=2 * math.pi),
    r2=st.floats(min_value=2.2, max_value=4.0),
    t2=st.floats(min_value=0.5, max_value=2 * math.pi - 0.5),
)
def test_bidifferential_symmetry_property(r, t, r2, t2):
    cp = ClassicalParams((1.0,), (-1.0,), (0.04,))
    sp = params_from_classical(cp)
    F = SurfaceForms(sp, TruncationPolicy(max_word_length=10))
    x = r * cmath.exp(1j * t)
    y = r2 * cmath.exp(1j * (t + t2))
    if abs(x - y) < 1e-2:
        return
    a = F.bidifferential(x, y)
    b = F.bidifferential(y, x)
    assert abs(a.value - b.value) <= 100 * (a.tail + b.tail) + 1e-12
