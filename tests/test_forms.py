"""Tests for the truncated function-theory evaluator.

Oracle values are computed inline by independent means (hand-reduced
identity terms, trapezoidal residue integrals, Richardson limits, finite
differences of independently summed series), never by calling the code
under test a second way that shares the suspect logic.
"""

import cmath
import decimal
import functools
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schottky.forms as forms
from schottky.forms import (
    EPS,
    POLE_GUARD,
    ConfigurationError,
    Estimate,
    PoleProximityError,
    SurfaceForms,
    _kernel_seed,
    _abs_sum,
)
from schottky.correlators import heisenberg_npoint, virasoro_one_point, virasoro_two_point
from schottky.modes import bidifferential_via_modes, heisenberg_partition, kernel_via_modes
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


def test_surface_forms_refuses_malformed_arguments_at_construction(genus2_params):
    # A policy that is not a TruncationPolicy would fail only on first use,
    # and an sp that is not a SchottkyParams with an AttributeError.
    with pytest.raises(InvalidParameterError, match="^policy = 3 is not a TruncationPolicy$"):
        SurfaceForms(genus2_params, 3)
    for bad in ("sp", None, TruncationPolicy()):
        with pytest.raises(InvalidParameterError, match="^sp = .* is not a SchottkyParams$"):
            SurfaceForms(bad)


class TestSeedKernel:
    def test_single_point_seed_is_third_kind_identity_term(self):
        # (1/(x-y)) * (y-0)/(x-0) = 1/(x-y) - 1/x; at x=2, y=1 both give 1/2.
        assert _kernel_seed(2.0, 1.0, (0.0,)) == pytest.approx(0.5)
        x, y = 1.7 - 0.3j, -0.4 + 2.1j
        assert _kernel_seed(x, y, (0.0,)) == pytest.approx(1 / (x - y) - 1 / x)

    def test_three_point_seed_worked_example(self):
        # (1/(3-1)) * ((1-0)(1+2)(1-5)) / ((3-0)(3+2)(3-5))
        #   = (1/2) * (1*3*(-4)) / (3*5*(-2)) = (1/2)(-12/-30) = 0.2
        assert _kernel_seed(3.0, 1.0, (0.0, -2.0, 5.0)) == pytest.approx(0.2)


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
        v = F.projective_connection(2.0)
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
        assert v.value == pytest.approx(_kernel_seed(x, y, F._seed_points(2)))

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
        # Summand-by-summand, d/dy of the weight-1 kernel's
        # (1/(gamma x - y) - 1/gamma x) gamma'x is the bidifferential's
        # gamma'x / (gamma x - y)^2, so a central difference of psi_1 in y
        # gives omega(x, y).
        x, y = 0.6 + 0.2j, 2.4 - 1.0j
        h = 1e-5
        fd = (
            genus2_forms.recursion_kernel(x, y + h, 1).value
            - genus2_forms.recursion_kernel(x, y - h, 1).value
        ) / (2 * h)
        omega = genus2_forms.bidifferential(x, y).value
        assert abs(omega - fd) < 1e-7 * max(1.0, abs(omega))
        # The kernel's reported tail is the last word shell plus the
        # rounding floor: positive, and larger than the move to the next
        # cutoff, also at L = 6 where the last shell has fallen below rounding.
        for L in (3, 6):
            coarse, fine = (
                SurfaceForms(genus2_forms.sp, TruncationPolicy(max_word_length=n))
                .recursion_kernel(x, y, 2)
                for n in (L, L + 1)
            )
            assert coarse.tail > 0
            assert abs(fine.value - coarse.value) < coarse.tail


class TestQuasiPeriods:
    def test_weight_one_coefficient_is_minus_one_form(self, torus_forms):
        x = 0.37 + 0.41j
        [[th]] = torus_forms.quasiperiod_coefficients(1, x)
        nu = torus_forms.holomorphic_form(1, x)
        assert abs(th.value + nu.value) < 1e-12

    def test_weight_one_reconstruction(self, torus_forms):
        x = 0.37 + 0.41j
        [[th]] = torus_forms.quasiperiod_coefficients(1, x)
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
        for a, ths in enumerate(genus2_forms.quasiperiod_coefficients(2, x), start=1):
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
            for c, f in zip(
                coarse.quasiperiod_coefficients(weight, x)[0],
                fine.quasiperiod_coefficients(weight, x)[0],
            ):
                assert np.isfinite(c.value) and 0 < c.tail < 1e-6
                assert abs(f.value - c.value) < c.tail

    @pytest.mark.parametrize("fixture", ["torus_params", "genus2_params", "genus3_params"])
    def test_one_kernel_pass_serves_every_coefficient(self, fixture, request, monkeypatch):
        # All g (2N - 1) coefficients come from one pass at the 2g(2N - 1)
        # nodes, and each equals bit for bit the one-handle expression on a
        # pass at that handle's 2(2N - 1) nodes alone, inside the domain and
        # on a circle.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=4))
        passes = []
        many_y = SurfaceForms._kernel_many_y

        def counted(self, x, ys, weight):
            passes.append(len(ys))
            return many_y(self, x, ys, weight)

        def alone(weight, a, ell, x):
            n = 2 * weight - 1
            r, g = sp.radius(a), generator_map(sp, a)
            ys = sp.center(a) + r * np.exp(2j * np.pi * np.arange(n) / n)
            den = g.c * ys + g.d
            vals, tails = many_y(F, x, np.concatenate([ys, (g.a * ys + g.b) / den]), weight)
            factor = den ** (2 * weight - 2)
            moved = vals[n:] * factor
            phase = np.exp(-2j * np.pi * ell * np.arange(n) / n)
            value = complex(np.mean((vals[:n] - moved) * phase)) / r**ell
            tail = np.mean(
                tails[:n] + np.abs(factor) * tails[n:] + EPS * (np.abs(vals[:n]) + np.abs(moved))
            ) / r**ell
            return value, float(tail)

        monkeypatch.setattr(SurfaceForms, "_kernel_many_y", counted)
        for x in (0.6 + 0.2j, sp.center(-1) + sp.radius(-1) * cmath.exp(0.3j)):
            for N in range(1, sp.genus + 1):
                passes.clear()
                thetas = F.quasiperiod_coefficients(N, x)
                assert passes == [2 * sp.genus * (2 * N - 1)]
                assert [len(row) for row in thetas] == [2 * N - 1] * sp.genus
                for a, row in enumerate(thetas, start=1):
                    for ell, th in enumerate(row):
                        assert (th.value, th.tail) == alone(N, a, ell, x), (x, N, a, ell)

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
            thetas = F.quasiperiod_coefficients(weight, x)
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
                    th = thetas[a - 1][ell]
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

    def test_memory_does_not_grow_with_the_table(self):
        # The genus-4 surface of 156,865 words at L = 6: the sum walks the
        # table in row blocks, so its peak stays below one int64 array of
        # the table (1.2 MiB), let alone the 32 MiB of a whole-table sum.
        c = [2.4 * cmath.exp(1j * math.pi * k / 4) for k in range(4)]
        rho = [0.01 + 0.001j * k for k in range(1, 5)]
        sp = SchottkyParams(4, tuple(c), tuple(-z for z in c), tuple(rho))
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=6))
        assert len(F.words) == 156_865
        tracemalloc.start()
        try:
            res = F.period_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.linalg.eigvalsh(res.omega.imag).min() > 0 and res.tail < 1e-13

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
        # supports, at two points off the circles and on every circle (both
        # signs of every handle), where the words ending in the circle's
        # generator see x through an isometric circle and successive shells
        # shrink slowly.  At L = 5 the weight >= 2 sums are below rounding
        # on genus 3, so the move to L + 1 is all rounding (recursion_kernel
        # at x = 3 - i moves by more than an eps * sum |terms| floor there).
        sp = request.getfixturevalue(fixture)
        coarse = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        fine = SurfaceForms(sp, TruncationPolicy(max_word_length=L + k))
        weights = range(1, min(3, sp.genus) + 1)
        y = -0.5 - 0.8j
        circles = [sp.center(b) + sp.radius(b) * cmath.exp(0.4j) for b in sp.signed_indices]
        calls = []
        for x in (0.6 + 0.2j, 3.0 - 1.0j, *circles):
            calls += [("third_kind_form", x, y), ("bidifferential", x, y), ("projective_connection", x)]
            calls += [
                (name, x, y, N)
                for N in weights
                for name in ("power_bidifferential", "recursion_kernel")
            ]
            calls += [("holomorphic_form", a, x) for a in range(1, sp.genus + 1)]
            calls += [("quasiperiod_coefficients", N, x) for N in weights]
        for name, *args in calls:
            c, f = getattr(coarse, name)(*args), getattr(fine, name)(*args)
            if name == "quasiperiod_coefficients":
                pairs = zip(sum(c, []), sum(f, []))
            else:
                pairs = [(c, f)]
            for c, f in pairs:
                assert abs(f.value - c.value) < c.tail, (name, args)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_holomorphic_form_within_reported_tail_from_one_letter(self, fixture, request):
        # At L = 1 every form, at 24 angles on both circles of every handle
        # and at two points off them.  With the last shell alone as its
        # tail, x on C_a at angle 0 moved to L = 2 by 2.62 times it on
        # genus 2 and 1.41 times on genus 3.
        sp = request.getfixturevalue(fixture)
        coarse = SurfaceForms(sp, TruncationPolicy(max_word_length=1))
        fine = SurfaceForms(sp, TruncationPolicy(max_word_length=2))
        circles = [
            sp.center(b) + sp.radius(b) * cmath.exp(2j * math.pi * k / 24)
            for b in sp.signed_indices
            for k in range(24)
        ]
        for x in (0.6 + 0.2j, 3.0 - 1.0j, *circles):
            for a in range(1, sp.genus + 1):
                c, f = coarse.holomorphic_form(a, x), fine.holomorphic_form(a, x)
                assert abs(f.value - c.value) < c.tail, (a, x)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L", [0, 1])
    def test_zero_pole_polynomial_gives_a_zero_tail(self, genus3_params, L):
        # At y a point of the seed's pole basis every term carries the exact
        # factor P(y) = 0, so the sum is exactly 0, and so is its tail: an
        # exact zero times the infinite L = 0 tail counts as zero, as in
        # Estimate, with no invalid-value warning.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=L))
        x = 3.0 - 1.0j
        for got in (F.third_kind_form(x, 0.0), F.recursion_kernel(x, F._seed_points(2)[0], 2)):
            assert (got.value, got.tail) == (0.0, 0.0)


word_table = functools.lru_cache(maxsize=2)(enumerate_group)


def whole_table_terms(sp, L, name, args):
    """Terms and last-shell mask of one orbit or coset sum, over the whole table.

    Built straight from the enumerate_group arrays with the evaluator's
    term formula, for comparison with its row-blocked sum.
    """
    W = word_table(sp, L)
    last_shell = W.length == L
    cp = classical_from_params(sp)
    if name == "holomorphic_form":
        a, x = args
        rows = np.abs(W.last) != a
        Wp, Wm = cp.W_plus[a - 1], cp.W_minus[a - 1]
        a_, b_, c_, d_ = (v[rows] for v in (W.a, W.b, W.c, W.d))
        ell_p, ell_m = x * (c_ * Wp + d_) - (a_ * Wp + b_), x * (c_ * Wm + d_) - (a_ * Wm + b_)
        return -(Wp - Wm) / (ell_m * ell_p), last_shell[rows]
    x = args[0]
    num, den = W.a * x + W.b, W.c * x + W.d
    if name == "projective_connection":
        ell = num[1:] - x * den[1:]
        return 6.0 * np.reciprocal(ell * ell), last_shell[1:]
    y = args[1]
    ell = num - y * den
    if name == "bidifferential":
        return np.reciprocal(ell * ell), last_shell
    N = args[2]
    if name == "power_bidifferential":
        return np.reciprocal(ell * ell) ** N, last_shell
    if N == 1:
        return y * np.reciprocal(num * ell), last_shell
    fixed = [p for h in range(sp.genus) for p in (cp.W_plus[h], cp.W_minus[h])]
    A = fixed[: 2 * N - 1]
    forms = [num - Aj * den for Aj in A]
    # A word whose form l_{A_j} is 0 to the bit contributes 0 (see
    # SurfaceForms._kernel_many_y).
    dead = np.any([f == 0 for f in forms], axis=0)
    forms = [np.where(dead, 1.0, f) for f in forms]
    coef = 1.0
    for u, v in zip(forms[:-1:2], forms[1::2]):
        coef = coef / (u * v)
    poly = np.prod([y - Aj for Aj in A])
    return poly * np.where(dead, 0.0, coef / (forms[-1] * ell)), last_shell


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
        calls = [("bidifferential", (x, y)), ("projective_connection", (x,))]
        calls += [
            (name, (x, y, N))
            for N in range(1, sp.genus + 1)
            for name in ("power_bidifferential", "recursion_kernel")
        ]
        calls += [("holomorphic_form", (a, x)) for a in range(1, sp.genus + 1)]
        for name, args in calls:
            got = getattr(F, name)(*args)
            terms, last_shell = whole_table_terms(sp, L, name, args)
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            scale = float(np.sum(np.abs(terms.real) + np.abs(terms.imag)))
            assert abs(got.value - exact) <= 8 * EPS * scale, (name, args)
            # The tail's last shell is the same rows' sum, and the floor on
            # top stays within one looseness bound for every evaluator: the
            # worst measured is 5.3e3 eps * sum |terms| (recursion_kernel at
            # weight 2 on g3, where the generators' conditioning c = 1001 is
            # charged per letter).
            shell = abs(terms[last_shell].sum())
            assert shell <= got.tail <= shell + 1e4 * EPS * scale, (name, args)

    def test_floor_bounds_the_summation(self, genus3_params):
        # At seeded points of the genus-3 fixture the blocked sum is off the
        # exactly rounded sum of its own terms by no more than the floor,
        # the tail less the last shell (up to 4.6 eps * sum |terms| for
        # the bidifferential at random points, against a one-ulp floor once).
        # Then the sums whose pole at y is priced per word in the identity's
        # block and per block past it: omega at y a micron off gamma_1 x, the
        # weight-2 power and kernel sums, the kernel also at y inside the
        # disc at w_{-1}, and s at L = 1 and 2.
        sp = genus3_params
        F = {L: SurfaceForms(sp, TruncationPolicy(max_word_length=L)) for L in (1, 2, 6)}
        rng = np.random.default_rng(11)
        points = []
        while len(points) < 120:
            z = complex(*rng.uniform(-6.0, 6.0, 2))
            if all(abs(z - sp.center(b)) > 1.02 * sp.radius(b) for b in sp.signed_indices):
                points.append(z)
        calls = []
        for k, (x, y) in enumerate(zip(points, points[1:] + points[:1])):
            calls += [(6, "bidifferential", (x, y)), (6, "projective_connection", (x,))]
            calls.append((6, "holomorphic_form", (1 + k % sp.genus, x)))
        inside = sp.center(-1) + 0.3 * sp.radius(1) * cmath.exp(0.7j)
        for x, y in zip(points[:2], points[2:4]):
            micron = generator_map(sp, 1)(x) + 1e-6 * (1 + 1j)
            calls += [(6, "bidifferential", (x, micron)), (6, "power_bidifferential", (x, y, 2))]
            calls += [(6, "recursion_kernel", (x, y, 2)), (6, "recursion_kernel", (x, inside, 2))]
            calls += [(1, "projective_connection", (x,)), (2, "projective_connection", (x,))]
        for L, name, args in calls:
            got = getattr(F[L], name)(*args)
            terms, last_shell = whole_table_terms(sp, L, name, args)
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            shell = abs(terms[last_shell].sum())
            assert abs(got.value - exact) <= got.tail - shell, (name, args)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    @pytest.mark.parametrize("x", [2.6 + 0.9j, 3.1 + 0.4j, "circle"])
    def test_omega_family_within_tail_of_exact_sum(self, fixture, x, request):
        # The bidifferential family against the exact sum of its terms over
        # the word table's float entries.  At y a micron off gamma_1 x the
        # difference gamma_1 x - y amplifies the rounding of gamma_1 x a
        # millionfold: a one-ulp floor missed the error by 7.6-476x
        # (bidifferential).  On the circle at w_1, c x + d cancels about
        # 40-fold for gamma_{+-1}; a floor without the generators'
        # conditioning missed by 1.3-1.6x on g3.
        sp = request.getfixturevalue(fixture)
        if x == "circle":
            x = sp.center(1) + sp.radius(1) * cmath.exp(1.3j)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=2))
        W = F.words
        X = _exact(x)
        for y in (generator_map(sp, 1)(x) + 1e-6 * (1 + 1j), -0.5 - 0.8j):
            Y = _exact(y)
            sums = dict.fromkeys(("omega", "power2"), (0, 0))
            for i in range(len(W)):
                a, b, c, d = (_exact(v[i]) for v in (W.a, W.b, W.c, W.d))
                den = _exact_add(_exact_mul(c, X), d)
                dgx = _exact_div((1, 0), _exact_mul(den, den))
                diff = _exact_add(_exact_div(_exact_add(_exact_mul(a, X), b), den), (-Y[0], -Y[1]))
                omega = _exact_div(dgx, _exact_mul(diff, diff))
                terms = {"omega": omega, "power2": _exact_mul(omega, omega)}
                sums = {k: _exact_add(sums[k], t) for k, t in terms.items()}
            calls = [
                (F.bidifferential(x, y), "omega"),
                (F.power_bidifferential(x, y, 1), "omega"),
                (F.power_bidifferential(x, y, 2), "power2"),
            ]
            for got, key in calls:
                assert _within(got, sums[key]), (key, y)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_kernels_and_forms_within_tail_of_exact_sum(self, fixture, request):
        # The weight-N kernels (N = 1..g) and the one-forms against the
        # exact sum of their terms over the word table's float entries,
        # written from gamma x, gamma'x and gamma W, whatever formula the
        # evaluators use.  x on the circle at w_1, where c x + d cancels;
        # y a micron off gamma_1 x, where gamma_1 x - y amplifies the
        # rounding of the image, and y far out (|y| >> reach), where the
        # rounding of a difference with y scales with |y|.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=2))
        W = F.words
        cp = classical_from_params(sp)
        fixed = [_exact(p) for h in range(sp.genus) for p in (cp.W_plus[h], cp.W_minus[h])]
        x = sp.center(1) + sp.radius(1) * cmath.exp(1.3j)
        X = _exact(x)
        rows = [tuple(_exact(v[i]) for v in (W.a, W.b, W.c, W.d)) for i in range(len(W))]

        def image(row, z):
            a, b, c, d = row
            return _exact_div(_exact_add(_exact_mul(a, z), b), _exact_add(_exact_mul(c, z), d))

        def minus(u, v):
            return _exact_add(u, _neg(v))

        orbit = []
        for row in rows:
            den = _exact_add(_exact_mul(row[2], X), row[3])
            orbit.append((image(row, X), _exact_div((1, 0), _exact_mul(den, den))))
        for y in (generator_map(sp, 1)(x) + 1e-6 * (1 + 1j), 500.0 + 300.0j):
            Y = _exact(y)
            for N in range(1, sp.genus + 1):
                A = [(0, 0)] if N == 1 else fixed[: 2 * N - 1]
                total = (0, 0)
                for gx, dgx in orbit:
                    term = _exact_div((1, 0), minus(gx, Y))
                    for _ in range(N):
                        term = _exact_mul(term, dgx)
                    for Aj in A:
                        term = _exact_div(term, minus(gx, Aj))
                    total = _exact_add(total, term)
                for Aj in A:
                    total = _exact_mul(total, minus(Y, Aj))
                assert _within(F.recursion_kernel(x, y, N), total), (N, y)
        for h in range(1, sp.genus + 1):
            total = (0, 0)
            for row, last in zip(rows, W.last):
                if abs(last) != h:
                    attracting, repelling = (
                        _exact_div((1, 0), minus(X, image(row, fixed[k])))
                        for k in (2 * h - 1, 2 * h - 2)
                    )
                    total = _exact_add(total, minus(attracting, repelling))
            assert _within(F.holomorphic_form(h, x), total), h

    def test_every_pointwise_evaluator_reaches_orbit_ulps(self, genus2_forms, monkeypatch):
        # One rounding rule for every pointwise sum: each public evaluator
        # but the period matrix (whose floor is its own, see the module
        # docstring) charges its terms through forms._orbit_ulps.
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        calls = {
            "third_kind_form": (x, y),
            "recursion_kernel": (x, y, 2),
            "bidifferential": (x, y),
            "power_bidifferential": (x, y, 2),
            "projective_connection": (x,),
            "holomorphic_form": (1, x),
            "quasiperiod_coefficients": (2, x),
        }
        public = {name for name in vars(SurfaceForms) if not name.startswith("_")}
        # words and periods are the lazily built word table and period
        # matrix, not evaluators.
        assert public == set(calls) | {"period_matrix", "periods", "words"}
        original = forms._orbit_ulps
        for name, args in calls.items():
            count = 0

            def counted(*rule):
                nonlocal count
                count += 1
                return original(*rule)

            monkeypatch.setattr(forms, "_orbit_ulps", counted)
            getattr(genus2_forms, name)(*args)
            assert count > 0, name

    def test_every_sum_prices_y_through_one_helper(self, genus2_forms, monkeypatch):
        # One rule for the pole at y: every sum with a pole at y (s puts x
        # for it) reads SurfaceForms._pole_at_y once per block and y, and
        # only the identity's block gets a distance per word.
        x, y = 0.6 + 0.2j, -0.5 - 0.8j
        calls = {
            "third_kind_form": ((x, y), 1),
            "recursion_kernel": ((x, y, 2), 1),
            "bidifferential": ((x, y), 1),
            "power_bidifferential": ((x, y, 2), 1),
            "projective_connection": ((x,), 1),
            "quasiperiod_coefficients": ((2, x), 2 * 2 * 3),  # y_k and gamma_a y_k, 3 per handle
        }
        starts = [block.s for block in genus2_forms._blocks]
        assert len(starts) == 2
        original = SurfaceForms._pole_at_y
        for name, (args, ys) in calls.items():
            seen = []

            def counted(self, block, *rest):
                dist = original(self, block, *rest)
                seen.append((block.s, isinstance(dist, np.ndarray)))
                return dist

            monkeypatch.setattr(SurfaceForms, "_pole_at_y", counted)
            getattr(genus2_forms, name)(*args)
            assert sorted(seen) == sorted([(s, s == 0) for s in starts] * ys), name

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
        # quasiperiod_coefficients sums the kernel at all its nodes in one
        # pass; each node must get exactly its single-y value and tail.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=6))
        x = 3.0 - 1.0j
        n = 3
        ys = F.sp.center(2) + F.sp.radius(2) * np.exp(2j * np.pi * np.arange(n) / n)
        ys = np.concatenate([ys, [-0.5 - 0.8j]])
        for N in (1, 2):
            vals, tails = F._kernel_many_y(x, ys, N)
            for j, y in enumerate(ys):
                one = F.recursion_kernel(x, y, N)
                assert (vals[j], tails[j]) == (one.value, one.tail)

    def test_weight1_kernel_refuses_x_on_the_origin(self, genus3_params):
        # x = 0 is the identity's pole of psi_1 in x; the other images stay
        # off the origin.  Both routes refuse it, naming the identity.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=2))
        for x in (0.0, 5e-10j):
            for call in (F.third_kind_form, functools.partial(kernel_via_modes, F.sp, 1, 8)):
                with pytest.raises(PoleProximityError) as info:
                    call(x, -0.5 - 0.8j)
                assert info.value.letters == ()
        assert math.isfinite(F.third_kind_form(1e-6, -0.5 - 0.8j).tail)

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
                assert info.value.letters == W.letters(row)

    def test_pairs_pole_guard_names_the_word(self, genus3_params):
        # x on the circle at w_1 has gamma_1 x on the circle at w_{-1}: both
        # lie in the fundamental domain, and omega(x, gamma_1 x) meets the
        # pole of the word (1,), omega(gamma_1 x, x) that of (-1,).  The
        # orbit sum and the omega matrix of the mode route (where the pair
        # may sit among other points) both refuse, naming the word.
        sp = genus3_params
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=6))
        x = sp.center(1) + sp.radius(1) * cmath.exp(1.3j)
        gx = generator_map(sp, 1)(x)
        for first, second, letters in ((x, gx, (1,)), (gx, x, (-1,))):
            with pytest.raises(PoleProximityError) as info:
                F.bidifferential(first, second)
            assert info.value.letters == letters
            # The matrix holds both orders, so either word may be named.
            for points in ([first, second], [3.0 - 1.0j, first, -3.1 + 0.4j, second]):
                with pytest.raises(PoleProximityError) as info:
                    bidifferential_via_modes(sp, 8, points)
                assert info.value.letters in ((1,), (-1,))


def _exact_psi1_and_omega(sp, W, x, y):
    """Exact sums of psi_1(x, y) and omega(x, y) over the word table's float entries.

    Written from gamma x and gamma'x: psi_1 as y sum gamma'x / ((gamma x -
    y) gamma x), omega as sum gamma'x / (gamma x - y)^2.
    """
    X, Y = _exact(x), _exact(y)
    psi1 = omega = (0, 0)
    for i in range(len(W)):
        a, b, c, d = (_exact(v[i]) for v in (W.a, W.b, W.c, W.d))
        den = _exact_add(_exact_mul(c, X), d)
        image = _exact_div(_exact_add(_exact_mul(a, X), b), den)
        dgx = _exact_div((1, 0), _exact_mul(den, den))
        diff = _exact_add(image, _neg(Y))
        psi1 = _exact_add(psi1, _exact_div(dgx, _exact_mul(diff, image)))
        omega = _exact_add(omega, _exact_div(dgx, _exact_mul(diff, diff)))
    return _exact_mul(psi1, Y), omega


def _scans(F, monkeypatch):
    """A list that records the first row of every per-word pole scan of F."""
    rows = []
    guard = F._guard_poles

    def counted(dist, s, what):
        rows.append(s)
        return guard(dist, s, what)

    monkeypatch.setattr(F, "_guard_poles", counted)
    return rows


class TestClearance:
    """Past the identity's block, y is charged at its disc clearance instead of a scan."""

    @pytest.mark.parametrize("L", [1, 4])
    def test_clearance_bounds_every_image(self, genus3_params, L):
        # delta(y) is at most every computed |gamma x - y|, gamma != id, also
        # for x on a circle and y a nanoradius outside the circle through
        # gamma_{-1} x, and for x inside a disc by the domain gate's slack;
        # it is nonpositive on a circle and inside a disc.
        sp = genus3_params
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        W = F.words
        rng = np.random.default_rng(29)
        w1, r1 = sp.center(1), sp.radius(1)
        x_on = sp.center(-1) + r1 * cmath.exp(1.3j)
        hair = w1 + (generator_map(sp, -1)(x_on) - w1) * (1 + 1e-9)
        # x inside the disc at w_1 by 0.9 of the domain gate's slack puts
        # gamma_1 x outside the disc at w_{-1}, and y just beyond it.
        x_in = w1 + r1 * (1 - 9e-13) * cmath.exp(0.3j)
        w = sp.center(-1)
        past = w + (generator_map(sp, 1)(x_in) - w) * (1 + 1e-12)
        xs = [3.0 - 1.0j, x_on, x_in, sp.center(2) + sp.radius(2) * 1j]
        ys = [-0.5 - 0.8j, hair, past, w1 + r1 * 1j, w1 + 0.5 * r1]
        ys += [complex(*rng.uniform(-4.0, 4.0, 2)) for _ in range(20)]
        for x in xs:
            num, den = W.a[1:] * x + W.b[1:], W.c[1:] * x + W.d[1:]
            for y in ys:
                clear = F._clearance(y)
                assert clear <= (np.abs(num - y * den) / np.abs(den)).min(), (x, y)
                if any(abs(y - sp.center(b)) <= sp.radius(b) for b in sp.signed_indices):
                    assert clear <= 0, y
        assert F._clearance(hair) > 0

    @pytest.mark.parametrize("row", [37, 120, 186])
    def test_pole_at_a_length3_word_past_the_first_block(self, genus3_params, row):
        # At L = 3 on g3 the identity's block holds rows 0..36 and the
        # length-3 words fill the next: y exactly at gamma x lies in a disc,
        # so the later block scans and names the word.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=3))
        W = F.words
        assert F._blocks[0][1] == 37 and W.length[row] == 3
        x = 3.0 - 1.0j
        images = (W.a * x + W.b) / (W.c * x + W.d)
        y = images[row]
        assert np.sort(np.abs(images - y))[1] > POLE_GUARD
        assert F._clearance(y) < 0
        for call in (
            lambda: F.third_kind_form(x, y),
            lambda: F.recursion_kernel(x, y, 1),
            lambda: F.bidifferential(x, y),
        ):
            with pytest.raises(PoleProximityError) as info:
                call()
            assert info.value.letters == W.letters(row)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_continuation_and_circle_points_scan(self, fixture, request, monkeypatch):
        # y inside a disc (the continuation in y) and y on a circle have no
        # positive clearance: every block scans, and the sums stay within
        # their tails of the exact sums of their terms.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=2))
        assert len(F._blocks) == 2
        rows = _scans(F, monkeypatch)
        x = 3.0 - 1.0j if sp.genus == 3 else 2.6 + 0.9j
        w, r = sp.center(-1), sp.radius(1)
        for y in (w + 0.3 * r * cmath.exp(0.7j), w + r * cmath.exp(2.1j)):
            assert F._clearance(y) <= 0
            psi1, omega = _exact_psi1_and_omega(sp, F.words, x, y)
            del rows[:]
            assert _within(F.third_kind_form(x, y), psi1)
            assert _within(F.bidifferential(x, y), omega)
            assert rows == [0, F._blocks[1][0]] * 2

    @pytest.mark.parametrize("fixture", ["torus_params", "genus2_params", "genus3_params"])
    def test_clearance_keeps_values_and_raises_no_tail(self, fixture, request, monkeypatch):
        # Against a clearance of 0, which forces the scan everywhere, at 200
        # random pairs (a third within 1e-12..1e-3 radii outside a circle):
        # the values are bit-identical and the tails no smaller.  Where x
        # and y clear the guard, only the identity's block scans.
        sp = request.getfixturevalue(fixture)
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=6))
        rng = np.random.default_rng(sp.genus)
        discs = [(sp.center(b), sp.radius(b)) for b in sp.signed_indices]

        def draw(k):
            if k % 3 == 0:
                w, r = discs[rng.integers(len(discs))]
                return w + r * (1 + 10.0 ** rng.uniform(-12, -3)) * cmath.exp(2j * math.pi * rng.random())
            while True:
                z = complex(*rng.uniform(-6.0, 6.0, 2))
                if all(abs(z - w) > r for w, r in discs):
                    return z

        pairs = [(draw(k), draw(k + 1)) for k in range(200)]
        calls = {
            "third_kind_form": lambda x, y: F.third_kind_form(x, y),
            "bidifferential": lambda x, y: F.bidifferential(x, y),
            "projective_connection": lambda x, y: F.projective_connection(x),
        }
        certified = {name: [call(x, y) for x, y in pairs] for name, call in calls.items()}
        rows = _scans(F, monkeypatch)
        for x, y in pairs:
            if min(F._clearance(x), F._clearance(y)) > POLE_GUARD:
                for call in calls.values():
                    call(x, y)
        assert set(rows) == {0, 1}
        monkeypatch.setattr(SurfaceForms, "_clearance", lambda self, y: 0.0)
        for name, call in calls.items():
            for (x, y), got in zip(pairs, certified[name]):
                scanned = call(x, y)
                assert got.value == scanned.value, (name, x, y)
                assert got.tail >= scanned.tail, (name, x, y)


class TestTrueGroup:
    """Pointwise sums within their tails of the same words summed over the true group.

    The float generators stand for a group whose sewing parameters they
    carry only to c ulps, c = max_a (|w_a w_{-a}| + |rho_a|) / |rho_a|
    (2.3e3 at rho = 1e-3, 2.3e4 at 1e-4), and every tail must cover that
    too.  With one ulp per term the one-forms missed by up to 242x their
    tail and the projective connection by 60x; a floor without c missed
    by up to 18x.
    """

    @pytest.mark.parametrize("rho0, L", [(1e-3, 5), (1e-4, 4)])
    def test_within_tail_of_true_group_sum(self, rho0, L):
        sp = SchottkyParams(
            2, (1.35, 1.4j), (-1.35, -1.4j), (rho0 * (1 + 0.2j), rho0 * (0.8 - 0.3j))
        )
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=L))
        cp = classical_from_params(sp)
        idx = sp.signed_indices
        # y at 1.5 radii from the next centre, or a fixed y.
        others = [sp.center(b) + 1.5 * sp.radius(b) * cmath.exp(1.1j) for b in idx]
        points = [
            (sp.center(b) + k * sp.radius(b) * cmath.exp(1j * theta), others[(j + 1) % len(idx)])
            for j, b in enumerate(idx)
            for k in (1, 3)
            for theta in (0.4, 2.9)
        ]
        points += [
            ((cp.W_plus[h] + cp.W_minus[h]) / 2 + 3e-4 * (0.6 + 0.8j), others[h])
            for h in range(sp.genus)
        ]
        misses = []

        def check(got, true, what):
            if not _within(got, tuple(Fraction(p) for p in true)):
                misses.append((what, abs(got.value - complex(*true)) / got.tail))

        with decimal.localcontext(_DIGITS):
            G = _TrueGroup(sp, L)
            for x, y_near in points:
                for y in (y_near, -0.3 + 0.2j):
                    true = G.pointwise(x, y)
                    for name in ("bidifferential", "third_kind_form"):
                        check(getattr(F, name)(x, y), true[name], (name, x, y))
                check(F.projective_connection(x), true["projective_connection"], ("s", x))
                for a in range(1, sp.genus + 1):
                    check(F.holomorphic_form(a, x), true["holomorphic_form", a], ("nu", a, x))
            P = F.period_matrix()
            for (a, b), (re, im) in G.period_matrix(sp).items():
                # Omega is defined modulo integers in its real part.
                gap = Fraction(P.omega[a - 1, b - 1].real) - Fraction(re)
                gap -= round(gap)
                gap_im = Fraction(P.omega[a - 1, b - 1].imag) - Fraction(im)
                assert gap * gap + gap_im * gap_im <= Fraction(P.tail) ** 2, (a, b)
        assert not misses, misses


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
            ("third_kind_form", ()), ("bidifferential", ()),
            ("power_bidifferential", (2,)), ("recursion_kernel", (2,)),
        ]
        calls = [("x", name, (bad, y, *more)) for name, more in two_point]
        calls += [("y", name, (x, bad, *more)) for name, more in two_point]
        calls += [
            ("x", "projective_connection", (bad,)),
            ("x", "holomorphic_form", (1, bad)),
            ("x", "quasiperiod_coefficients", (2, bad)),
        ]
        for arg, name, args in calls:
            with pytest.raises(InvalidParameterError, match=f"^{arg} = .* is not finite$"):
                getattr(F, name)(*args)

    @pytest.mark.parametrize("far", [1e200, 1e300])
    def test_far_points_refused_by_name(self, genus3_params, far):
        # Past |z| = 2**64 the orbit sums' products of linear forms overflow,
        # and every evaluator of both routes refuses the point by name; at
        # |z| = 2**64 each returns a finite value without a warning.
        sp = genus3_params
        F = SurfaceForms(sp, TruncationPolicy(max_word_length=6))
        near = 3.0 - 1.0j
        two_point = [
            F.third_kind_form, F.bidifferential,
            lambda x, y: F.power_bidifferential(x, y, 2),
            lambda x, y: F.recursion_kernel(x, y, 2),
            lambda x, y: kernel_via_modes(sp, 1, 20, x, y),
        ]
        one_point = [
            F.projective_connection,
            lambda x: F.holomorphic_form(1, x),
            lambda x: F.quasiperiod_coefficients(2, x),
        ]
        for z in (far, -far * 1j, 2.0**64, -(2.0**64) * 1j):
            calls = [("x", lambda f=f: f(z, near)) for f in two_point]
            calls += [("y", lambda f=f: f(near, z)) for f in two_point]
            calls += [("x", lambda f=f: f(z)) for f in one_point]
            calls += [
                ("insertion point 0", lambda: bidifferential_via_modes(sp, 20, (z, near))),
                ("insertion point 1", lambda: bidifferential_via_modes(sp, 20, (near, z))),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for arg, call in calls:
                    if abs(z) > 2.0**64:
                        with pytest.raises(InvalidParameterError, match=f"^{arg} = .* past "):
                            call()
                    else:
                        res = call()
                        for e in sum(res, []) if isinstance(res, list) else [res]:
                            assert cmath.isfinite(e.value) and math.isfinite(e.tail)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda F, x, y: F.recursion_kernel(x, y, 1.5), id="kernel-weight-1.5"),
            pytest.param(lambda F, x, y: F.recursion_kernel(x, y, True), id="kernel-weight-True"),
            pytest.param(lambda F, x, y: F.power_bidifferential(x, y, 2.5), id="power-weight-2.5"),
            pytest.param(lambda F, x, y: F.recursion_kernel(x, y, 0), id="kernel-weight-0"),
            pytest.param(lambda F, x, y: F.quasiperiod_coefficients(1.5, x), id="quasiperiod-weight-1.5"),
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
        # Both psi_1 routes refuse it; Z and omega do not use the origin.
        # x = 2.2 is gamma_1(0), the image of the auxiliary pole.
        sp = SchottkyParams(1, (0.05,), (3.0,), (0.04,))
        for call in (lambda: SurfaceForms(sp), lambda: kernel_via_modes(sp, 1, 20, 2.2, 1.5j)):
            with pytest.raises(InvalidParameterError, match="origin.*mobius_act_on_params"):
                call()
        assert math.isfinite(heisenberg_partition(sp, 20).tail)
        [[s]] = bidifferential_via_modes(sp, 20, (2.2,))
        assert math.isfinite(s.tail)

    def test_origin_on_a_circle_rejected(self):
        # |w_1| = r_1 to the bit: the weight-1 floor bounds 1 / |gamma x|
        # by 1 / min_a (|w_a| - r_a), so the origin must lie outside every
        # closed disc.  Z and omega stay served.
        sp = SchottkyParams(1, (0.1,), (3.0,), (0.01,))
        assert abs(sp.w_plus[0]) == sp.radius(1)
        for call in (lambda: SurfaceForms(sp), lambda: kernel_via_modes(sp, 1, 20, 2.2, 1.5j)):
            with pytest.raises(InvalidParameterError, match="origin lies in a closed disc"):
                call()
        assert math.isfinite(heisenberg_partition(sp, 20).tail)

    def test_equal_parameters_share_one_read_only_record(self, genus2_params):
        sp = genus2_params
        twin = SchottkyParams(sp.genus, sp.w_plus, sp.w_minus, sp.rho)
        record = forms._surface(sp)
        assert forms._surface(twin) is record
        arrays = [field for field in record if isinstance(field, np.ndarray)]
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_fixed_points_formed_only_where_read(self, genus3_params, monkeypatch):
        # No mode-route request reads the generator fixed points, so a
        # SurfaceForms that serves only those never forms them; the period
        # matrix and the one-forms form them once between them.
        calls = []

        def counted(sp):
            calls.append(sp)
            return classical_from_params(sp)

        monkeypatch.setattr(forms, "classical_from_params", counted)
        F = SurfaceForms(genus3_params, TruncationPolicy(3, 20, 1e-9))
        x, y = 3.0 - 1.0j, -0.5 - 0.8j
        heisenberg_npoint(F, [x, y], modes=20)
        virasoro_two_point(F, x, y, modes=20)
        kernel_via_modes(F.sp, 1, 20, x, y)
        assert calls == []
        F.period_matrix()
        F.holomorphic_form(1, x)
        assert calls == [genus3_params]

    def test_word_cache_matches_policy(self, genus2_params):
        F = SurfaceForms(genus2_params, TruncationPolicy(max_word_length=3))
        W = enumerate_group(genus2_params, 3)
        assert len(F.words) == len(W) == 1 + 4 + 12 + 36
        for name in ("a", "b", "c", "d", "length", "parent", "last"):
            assert getattr(F.words, name).tobytes() == getattr(W, name).tobytes()

    @pytest.mark.parametrize("L", [6, 1])
    def test_formed_state_is_immutable(self, genus3_params, L):
        # What a SurfaceForms forms on first use (the word table, the block
        # plan, the fixed points, the period matrix) is formed once by its
        # owner: after every evaluator has run, nothing the instance holds
        # is a dict, list or set, and every array it reaches is read-only.
        F = SurfaceForms(genus3_params, TruncationPolicy(max_word_length=L))
        x, y = 3.0 - 1.0j, -0.5 - 0.8j
        F.third_kind_form(x, y)
        F.recursion_kernel(x, y, 2)
        F.bidifferential(x, y)
        F.power_bidifferential(x, y, 2)
        F.projective_connection(x)
        F.holomorphic_form(1, x)
        F.quasiperiod_coefficients(2, x)
        F.period_matrix()
        F.periods
        seen, mutable, arrays = set(), [], []

        def walk(path, obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, (dict, list, set)):
                mutable.append(path)
            elif isinstance(obj, np.ndarray):
                arrays.append((path, obj))
            elif isinstance(obj, tuple):
                for k, item in enumerate(obj):
                    walk(f"{path}[{k}]", item)
            elif hasattr(obj, "__dict__"):
                for name, item in vars(obj).items():
                    walk(f"{path}.{name}", item)

        for name, value in vars(F).items():
            walk(name, value)
        assert mutable == []
        assert {"words.a", "_blocks[0][3]", "periods.omega"} <= {path for path, _ in arrays}
        assert [path for path, a in arrays if a.flags.writeable] == []


def _exact(z):
    """The real and imaginary parts of a float complex, as exact fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _exact_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _exact_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _exact_div(a, b):
    """a / b on pairs of fractions, or of decimals under the working context."""
    norm = b[0] * b[0] + b[1] * b[1]
    p = _exact_mul(a, (b[0], -b[1]))
    return p[0] / norm, p[1] / norm


# Working precision of the true-group reference: its fixed points and the
# period matrix's logarithm are irrational, and a few roundings at 50
# digits lie far below the tails under test.
_DIGITS = decimal.Context(prec=50)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _dec(z):
    """The real and imaginary parts of a float complex, as exact decimals."""
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _neg(a):
    return -a[0], -a[1]


def _dec_sqrt(z):
    """Principal square root of a decimal pair."""
    u, v = z
    r = (u * u + v * v).sqrt()
    if u >= 0:
        re = ((r + u) / 2).sqrt()
        return re, v / (2 * re) if re else re
    im = ((r - u) / 2).sqrt().copy_sign(v)
    return v / (2 * im), im


def _dec_arg(z):
    """Principal argument of a decimal pair off the negative real axis.

    tan(theta / 2) = v / (r + u) = (r - u) / v; atan halves its argument
    through t / (1 + sqrt(1 + t^2)) until its series is short.
    """
    u, v = z
    r = (u * u + v * v).sqrt()
    t = v / (r + u) if u > 0 else (r - u) / v
    halvings = 1
    while abs(t) > Decimal("1e-3"):
        t /= 1 + (1 + t * t).sqrt()
        halvings += 1
    total, power, n = t, t, 1
    while abs(power) > Decimal("1e-60"):
        power *= -t * t
        n += 2
        total += power / n
    return total * 2**halvings


def _matmul(m, n):
    return (
        _exact_add(_exact_mul(m[0], n[0]), _exact_mul(m[1], n[2])),
        _exact_add(_exact_mul(m[0], n[1]), _exact_mul(m[1], n[3])),
        _exact_add(_exact_mul(m[2], n[0]), _exact_mul(m[3], n[2])),
        _exact_add(_exact_mul(m[2], n[1]), _exact_mul(m[3], n[3])),
    )


class _TrueGroup:
    """The reduced words of length <= L of the group a float parameter set stands for.

    Generator a is [[w_{-a}, rho_a - w_{-a} w_a], [1, -w_a]] in the exact
    values of the float parameters, never normalized: a word's
    determinant is the product of -rho over its letters, and
    gamma'x = det / (c x + d)^2.  The fixed points solve
    z^2 - (w_a + w_{-a}) z + w_a w_{-a} - rho_a = 0, W_a being the root
    nearer the float repelling fixed point.  Decimal pairs, computed under
    _DIGITS; ``words`` holds (letters, (a, b, c, d), det) per word.
    """

    def __init__(self, sp, L):
        one, zero = (Decimal(1), Decimal(0)), (Decimal(0), Decimal(0))
        gens = {}
        for a in sp.signed_indices:
            wa, wma, rho = (_dec(v) for v in (sp.center(a), sp.center(-a), sp.rho_signed(a)))
            corner = _exact_add(rho, _neg(_exact_mul(wma, wa)))
            gens[a] = (wma, corner, one, _neg(wa)), _neg(rho)
        self.words = [((), (one, zero, zero, one), one)]
        frontier = self.words
        for _ in range(L):
            frontier = [
                (letters + (x,), _matmul(m, gens[x][0]), _exact_mul(det, gens[x][1]))
                for letters, m, det in frontier
                for x in sp.signed_indices
                if not letters or x != -letters[-1]
            ]
            self.words = self.words + frontier
        cp = classical_from_params(sp)
        self.fixed = {}
        for h in range(1, sp.genus + 1):
            wa, wma, rho = (_dec(v) for v in (sp.center(h), sp.center(-h), sp.rho_signed(h)))
            gap = _exact_add(wa, _neg(wma))
            root = _dec_sqrt(_exact_add(_exact_mul(gap, gap), _exact_mul((4, 0), rho)))
            mid = _exact_add(wa, wma)
            roots = [_exact_mul((Decimal("0.5"), 0), _exact_add(mid, r)) for r in (root, _neg(root))]
            near = min(roots, key=lambda z: abs(complex(*z) - cp.W_plus[h - 1]))
            self.fixed[h] = near, roots[1] if near is roots[0] else roots[0]

    def image(self, m, z):
        """The Mobius image of z under the matrix m."""
        num = _exact_add(_exact_mul(m[0], z), m[1])
        return _exact_div(num, _exact_add(_exact_mul(m[2], z), m[3]))

    def pointwise(self, x, y):
        """The true sums of nu_a, s, omega(x, y) and psi_1(x, y)."""
        X, Y = _dec(x), _dec(y)
        sums = {}

        def add(key, term):
            sums[key] = _exact_add(sums.get(key, (0, 0)), term)

        for letters, m, det in self.words:
            den = _exact_add(_exact_mul(m[2], X), m[3])
            gx = self.image(m, X)
            dgx = _exact_div(det, _exact_mul(den, den))
            diff = _exact_add(gx, _neg(Y))
            add("bidifferential", _exact_div(dgx, _exact_mul(diff, diff)))
            pole = _exact_add(_exact_div((1, 0), diff), _neg(_exact_div((1, 0), gx)))
            add("third_kind_form", _exact_mul(pole, dgx))
            if letters:
                diff = _exact_add(gx, _neg(X))
                add("projective_connection", _exact_div(_exact_mul((6, 0), dgx), _exact_mul(diff, diff)))
            for a, fixed in self.fixed.items():
                if letters and abs(letters[-1]) == a:
                    continue
                Wp, Wm = (self.image(m, W) for W in fixed)
                inv_m = _exact_div((1, 0), _exact_add(X, _neg(Wm)))
                inv_p = _exact_div((1, 0), _exact_add(X, _neg(Wp)))
                add(("holomorphic_form", a), _exact_add(inv_m, _neg(inv_p)))
        return sums

    def period_matrix(self, sp):
        """Omega_ab as the log of the product of q_a and the cross-ratios, over 2 pi i."""
        out = {}
        for a in range(1, sp.genus + 1):
            Wa, Wma = self.fixed[a]
            wa, rho = _dec(sp.center(a)), _dec(sp.rho_signed(a))
            # q_a = gamma_a'(W_{-a}) = -rho_a / (W_{-a} - w_a)^2.
            lead = _exact_add(Wma, _neg(wa))
            q = _exact_div(_neg(rho), _exact_mul(lead, lead))
            for b in range(a, sp.genus + 1):
                prod = q if a == b else (Decimal(1), Decimal(0))
                for letters, m, det in self.words:
                    if letters and (abs(letters[0]) == a or abs(letters[-1]) == b):
                        continue
                    if not letters and a == b:
                        continue
                    Wb, Wmb = (self.image(m, W) for W in self.fixed[b])
                    cross = _exact_div(
                        _exact_mul(_exact_add(Wa, _neg(Wb)), _exact_add(Wma, _neg(Wmb))),
                        _exact_mul(_exact_add(Wa, _neg(Wmb)), _exact_add(Wma, _neg(Wb))),
                    )
                    prod = _exact_mul(prod, cross)
                log_abs = (prod[0] * prod[0] + prod[1] * prod[1]).ln() / 2
                out[a, b] = _dec_arg(prod) / (2 * _PI), -log_abs / (2 * _PI)
        return out


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

    def test_product_with_a_non_number_is_refused(self):
        # __mul__ gives way, and str's repetition refuses a non-int.
        with pytest.raises(TypeError):
            Estimate(1j, 0.0) * "x"

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
