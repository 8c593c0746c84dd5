"""Tests for the mode-matrix route: pole basis, moments, coupling, resolvent.

Oracles:
  * Cauchy integrals on small circles for Taylor coefficients (trapezoid
    quadrature of already-tested scalar functions, independent of the
    closed-form entry formulas),
  * direct orbit sums over enumerate_group for the shell identities,
  * the Euler product for the genus-1 oscillator partition function,
  * degeneration (widely separated handles) for factorization.

The weight-2 resolvent only converges where the images gamma_a x stay
closer to w_{-a} than the seed's basis points, so weight-2 checks sample
x far from every center and keep the mode cutoff moderate; weight 1 has
no such restriction (its seed is regular inside every disc).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky.forms import (
    ConvergenceError,
    SurfaceForms,
    kernel_seed,
    select_seed_points,
)
from schottky.group import (
    ClassicalParams,
    InvalidParameterError,
    SchottkyParams,
    TruncationPolicy,
    enumerate_group,
    generator_map,
    ordered_fixed_points,
    params_from_classical,
)
import schottky.modes as modes
from schottky.modes import (
    heisenberg_partition,
    kernel_via_modes,
    mode_coupling_matrix,
    pole_basis,
    seed_moments,
)

# Genus-2 configuration with small rho: the weight-2 resolvent checks
# need weakly coupled handles to leave a wide convergence window.
SMALL_RHO = SchottkyParams(
    2, (1.35, 1.4j), (-1.35, -1.4j), (0.004 + 0.001j, 0.0035 - 0.0008j)
)


def euler_product(q: complex, terms: int = 60) -> complex:
    z = 1.0 + 0.0j
    for n in range(1, terms + 1):
        z /= 1.0 - q**n
    return z


def cauchy_taylor(f, center: complex, order: int, radius: float, n: int = 512):
    """Taylor coefficient (1/m!) f^(m)(center) by trapezoid contour sum."""
    ks = np.arange(n)
    zs = center + radius * np.exp(2j * np.pi * ks / n)
    vals = np.array([f(complex(z)) for z in zs])
    phases = np.exp(-2j * np.pi * ks * order / n)
    return complex(np.mean(vals * phases)) / radius**order


def draw_exterior(rng, sp, center, lo, hi, clearance=0.4):
    """Random point in an annulus, rejecting disc neighborhoods."""
    while True:
        z = center + (lo + (hi - lo) * rng.random()) * cmath.exp(
            2j * math.pi * rng.random()
        )
        if all(
            abs(z - sp.center(a)) > sp.radius(a) + clearance
            for a in sp.signed_indices
        ):
            return z


@pytest.fixture(scope="module")
def torus_sp():
    return params_from_classical(ClassicalParams((1.0,), (-1.0,), (0.04,)))


class TestVectorsAndLayout:
    def test_pole_basis_weight1_entry(self, genus2_params):
        sp = genus2_params
        x = 2.3 + 0.9j
        p = pole_basis(sp, 1, 4, x)
        assert len(p) == 2 * sp.genus * 4
        for i, b in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(b))
            expected = s / (x - sp.center(b)) ** 2
            assert p[i * 4] == pytest.approx(expected, rel=1e-14)

    def test_pole_basis_higher_mode(self, genus2_params):
        sp = genus2_params
        x = -1.9 + 2.2j
        p = pole_basis(sp, 2, 5, x)
        s = cmath.sqrt(sp.rho_signed(-2))
        d = x - sp.center(-2)
        expected = s ** (3 + 2 * 2 - 1) / d ** (3 + 2 * 2)
        assert p[3 * 5 + 3] == pytest.approx(expected, rel=1e-13)

    def test_seed_moments_weight1_entry(self, genus2_params):
        sp = genus2_params
        y = 0.5 - 0.8j
        q = seed_moments(sp, 1, 4, y)
        for i, a in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(a))
            wma = sp.center(-a)
            expected = -s * (1.0 / (wma - y) - 1.0 / wma)
            assert q[i * 4] == pytest.approx(expected, rel=1e-13)

    def test_coupling_zero_blocks(self, genus2_params):
        M = 6
        R = mode_coupling_matrix(genus2_params, 2, M)
        idx = list(genus2_params.signed_indices)
        for i, a in enumerate(idx):
            j = idx.index(-a)
            block = R[i * M:(i + 1) * M, j * M:(j + 1) * M]
            assert np.all(block == 0.0)

    def test_coupling_small_rho_scaling(self):
        sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (1e-20, 1e-20))
        R = mode_coupling_matrix(sp, 1, 5)
        assert np.max(np.abs(R)) < 1e-15

    @pytest.mark.parametrize("fixture", ["torus_sp", "genus2_params", "genus3_params"])
    @pytest.mark.parametrize("M", [1, 5, 20, 21])
    def test_half_cutoff_system_is_leading_mode_slice(self, fixture, M, request):
        # The M/2 drift of the resolvent and the determinant is taken from
        # this slice, so it must equal the system assembled at M/2 exactly.
        sp = request.getfixturevalue(fixture)
        half = max(1, M // 2)
        keep = np.arange(2 * sp.genus * M) % M < half
        assert np.array_equal(modes._leading_modes(sp.genus, M), keep)
        x, y = 5.0 + 1.0j, -5.0 + 2.0j
        for weight in range(1, sp.genus + 1):
            assert np.array_equal(
                pole_basis(sp, weight, half, x), pole_basis(sp, weight, M, x)[keep]
            )
            assert np.array_equal(
                seed_moments(sp, weight, half, y), seed_moments(sp, weight, M, y)[keep]
            )
            assert np.array_equal(
                mode_coupling_matrix(sp, weight, half),
                mode_coupling_matrix(sp, weight, M)[np.ix_(keep, keep)],
            )

    def test_input_validation(self, genus2_params):
        sp = genus2_params
        with pytest.raises(InvalidParameterError):
            pole_basis(sp, 0, 4, 2.0 + 2.0j)
        with pytest.raises(InvalidParameterError):
            mode_coupling_matrix(sp, 1, 0)
        with pytest.raises(InvalidParameterError):
            heisenberg_partition(sp, 10, branch_signs=(1,))
        with pytest.raises(InvalidParameterError):
            heisenberg_partition(sp, 10, branch_signs=(1, 2))
        with pytest.raises(InvalidParameterError):
            pole_basis(sp, 1, 4, sp.center(1) + 0.01)
        with pytest.raises(InvalidParameterError):
            seed_moments(sp, 1, 4, sp.center(-2))


class TestWorkedCoupling:
    def test_torus_corner_entry(self, torus_sp):
        # For fixed points +-1 and multiplier q the (a=1,b=1,m=0,n=0)
        # entry is -rho/(w_{-1}-w_1)^2 = q/(1+q)^2.
        q = 0.04
        R = mode_coupling_matrix(torus_sp, 1, 3)
        assert R[0, 0] == pytest.approx(q / (1 + q) ** 2, rel=1e-13)
        direct = -torus_sp.rho[0] / (torus_sp.center(-1) - torus_sp.center(1)) ** 2
        assert R[0, 0] == pytest.approx(direct, rel=1e-14)

    def test_cross_handle_entry(self, genus2_params):
        # (a=1,m=0),(b=2,n=0) at N=1: -s1 s2 / (w_{-1} - w_2)^2.
        sp = genus2_params
        M = 3
        R = mode_coupling_matrix(sp, 1, M)
        s1 = cmath.sqrt(sp.rho[0])
        s2 = cmath.sqrt(sp.rho[1])
        expected = -s1 * s2 / (sp.center(-1) - sp.center(2)) ** 2
        assert R[0, 2 * M] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("weight", [1, 2])
    def test_coupling_is_taylor_of_pole_basis(self, genus2_params, weight):
        # R[(a,m),(b,n)] equals (-1)^N s_a^{m+1} times the m-th Taylor
        # coefficient of the (b,n) pole-basis entry at w_{-a}; take the
        # coefficient by contour integration instead of the closed form.
        sp = genus2_params
        M = 4
        R = mode_coupling_matrix(sp, weight, M)
        idx = list(sp.signed_indices)
        sign = -1.0 if weight % 2 else 1.0
        for (a, b) in ((1, 2), (-2, 1), (2, 2)):
            i, j = idx.index(a), idx.index(b)
            sa = cmath.sqrt(sp.rho_signed(a))
            wma = sp.center(-a)
            for m in range(M):
                for n in (0, 2):
                    def entry(z, b=b, n=n):
                        s = cmath.sqrt(sp.rho_signed(b))
                        return s ** (n + 2 * weight - 1) / (
                            (z - sp.center(b)) ** (n + 2 * weight)
                        )

                    coeff = cauchy_taylor(entry, wma, m, 0.3)
                    expected = sign * sa ** (m + 1) * coeff
                    assert R[i * M + m, j * M + n] == pytest.approx(
                        expected, rel=1e-9
                    ), (a, b, m, n)

    def test_moments_are_taylor_of_seed(self, genus2_params):
        # q_a(y;m) = (-1)^N s_a^{m+1} (1/m!) d^m/dx^m seed(x,y) at w_{-a}.
        # The contour radius must stay inside the distance to the nearest
        # basis point (the seed has poles at the basis points, which sit
        # close to the centers), so measure that distance first.
        sp = genus2_params
        y = 0.55 - 0.92j
        for weight in (1, 2):
            A = select_seed_points(ordered_fixed_points(sp), weight, sp.genus)
            q = seed_moments(sp, weight, 4, y)
            sign = -1.0 if weight % 2 else 1.0
            idx = list(sp.signed_indices)
            for a in (1, -1, 2):
                i = idx.index(a)
                wma = sp.center(-a)
                clearance = min(abs(wma - Aj) for Aj in A)
                radius = min(0.3, 0.5 * clearance)
                sa = cmath.sqrt(sp.rho_signed(a))
                for m in range(4):
                    coeff = cauchy_taylor(
                        lambda z: kernel_seed(z, y, A), wma, m, radius
                    )
                    expected = sign * sa ** (m + 1) * coeff
                    assert q[i * 4 + m] == pytest.approx(expected, rel=1e-6), (
                        weight,
                        a,
                        m,
                    )


class TestRankOneContraction:
    def test_weight1_handle_sums(self, genus2_params):
        # sum_m p_a(x;m) q_a(y;m) = seed(gamma_a x, y) gamma_a'(x) for
        # each signed handle; weight 1 converges for any exterior pair.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        A = select_seed_points(ordered_fixed_points(sp), 1, sp.genus)
        p = pole_basis(sp, 1, M, x)
        q = seed_moments(sp, 1, M, y)
        for i, a in enumerate(sp.signed_indices):
            g = generator_map(sp, a)
            expected = kernel_seed(g(x), y, A) * g.derivative(x)
            got = complex(p[i * M:(i + 1) * M] @ q[i * M:(i + 1) * M])
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_weight2_handle_sums_far_x(self):
        # Weight 2 needs gamma_a x closer to w_{-a} than the basis points,
        # which holds once x is a few separations out.
        sp = SMALL_RHO
        M = 24
        rng = np.random.default_rng(3)
        A = select_seed_points(ordered_fixed_points(sp), 2, sp.genus)
        for _ in range(3):
            x = draw_exterior(rng, sp, 0.0, 7.0, 8.0)
            y = draw_exterior(rng, sp, 0.0, 1.0, 1.8)
            p = pole_basis(sp, 2, M, x)
            q = seed_moments(sp, 2, M, y)
            for i, a in enumerate(sp.signed_indices):
                g = generator_map(sp, a)
                expected = kernel_seed(g(x), y, A) * g.derivative(x) ** 2
                got = complex(p[i * M:(i + 1) * M] @ q[i * M:(i + 1) * M])
                assert got == pytest.approx(expected, rel=1e-6, abs=1e-13)


class TestShellIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weight1_shells(self, genus2_params, k):
        # p^T R^{k-1} q equals the orbit sum over reduced words of
        # length exactly k.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        A = select_seed_points(ordered_fixed_points(sp), 1, sp.genus)
        p = pole_basis(sp, 1, M, x)
        q = seed_moments(sp, 1, M, y)
        R = mode_coupling_matrix(sp, 1, M)
        via = complex(p @ (np.linalg.matrix_power(R, k - 1) @ q))
        shell = sum(
            kernel_seed(mat(x), y, A) * mat.derivative(x)
            for word, mat in enumerate_group(sp, k)
            if len(word.letters) == k
        )
        assert via == pytest.approx(shell, rel=1e-10)


class TestKernelViaModes:
    def test_weight1_matches_poincare(self, genus2_params):
        sp = genus2_params
        F = SurfaceForms(sp, policy=TruncationPolicy(max_word_length=8, tol=1e-10))
        for x, y in ((0.62 + 0.11j, -0.4 - 0.77j), (2.5 - 1.8j, 0.3 + 0.6j)):
            direct = F.third_kind_form(x, y)
            kv = kernel_via_modes(sp, 1, 24, x, y)
            assert kv.value == pytest.approx(direct.value, abs=1e-10)
            assert kv.weight_x == 1 and kv.weight_y == 0
            assert kv.tail >= 0.0

    def test_weight1_matches_poincare_torus(self, torus_sp):
        F = SurfaceForms(
            torus_sp, policy=TruncationPolicy(max_word_length=12, tol=1e-10)
        )
        x, y = 0.3 + 0.25j, -0.5 - 0.4j
        direct = F.third_kind_form(x, y)
        kv = kernel_via_modes(torus_sp, 1, 30, x, y)
        assert kv.value == pytest.approx(direct.value, abs=1e-9)

    def test_weight2_matches_poincare_far_x(self):
        sp = SMALL_RHO
        F = SurfaceForms(sp, policy=TruncationPolicy(max_word_length=10, tol=1e-12))
        rng = np.random.default_rng(42)
        for _ in range(5):
            x = draw_exterior(rng, sp, 0.0, 6.0, 7.0)
            y = draw_exterior(rng, sp, 0.0, 1.0, 1.8)
            direct = F.recursion_kernel(x, y, 2)
            kv = kernel_via_modes(sp, 2, 14, x, y)
            assert abs(kv.value - direct.value) < 1e-7
            assert kv.weight_x == 2 and kv.weight_y == -1

    def test_small_rho_reduces_to_seed(self):
        # The correction vanishes linearly in rho (not with rho^N: the
        # weight-2 basis points approach the centers as rho shrinks, and
        # the moment vector picks up the inverse scale), so halt at a
        # linear-fit check rather than demanding machine agreement.
        x, y = 3.1 + 0.4j, -0.8 + 0.2j
        for weight in (1, 2):
            drifts = []
            for scale in (1e-6, 1e-8):
                sp = SchottkyParams(
                    2, (1.35, 1.4j), (-1.35, -1.4j), (scale, scale)
                )
                A = select_seed_points(ordered_fixed_points(sp), weight, 2)
                kv = kernel_via_modes(sp, weight, 6, x, y)
                drifts.append(abs(kv.value - kernel_seed(x, y, A)))
            assert drifts[1] < 1e-5
            ratio = drifts[0] / drifts[1]
            assert 30.0 < ratio < 300.0

    def test_branch_sign_invariance(self, genus2_params):
        sp = genus2_params
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        base = kernel_via_modes(sp, 1, 20, x, y)
        for signs in ((-1, 1), (1, -1), (-1, -1)):
            flipped = kernel_via_modes(sp, 1, 20, x, y, branch_signs=signs)
            assert abs(flipped.value - base.value) < 1e-12


class TestHeisenbergPartition:
    def test_torus_euler_product(self, torus_sp):
        z = heisenberg_partition(torus_sp, 40)
        expected = euler_product(0.04)
        assert abs(z.value - expected) / abs(expected) < 1e-8
        assert z.spectral_radius < 1.0
        # The M and M/2 determinants agree bit for bit here; the rounding
        # floor still keeps the tail above zero.
        assert z.tail > 0

    def test_torus_euler_product_other_multiplier(self):
        sp = params_from_classical(
            ClassicalParams((1.6,), (-0.7 + 0.3j,), (0.03 + 0.02j,))
        )
        z = heisenberg_partition(sp, 40)
        expected = euler_product(0.03 + 0.02j)
        assert abs(z.value - expected) / abs(expected) < 1e-8

    def test_mode_convergence_discipline(self, genus2_params):
        z10 = heisenberg_partition(genus2_params, 10)
        z20 = heisenberg_partition(genus2_params, 20)
        assert abs(z20.value - z10.value) <= max(z10.tail, 1e-15)
        assert z20.tail <= z10.tail or z20.tail < 1e-14

    def test_rho_to_zero(self):
        sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (1e-20, 1e-20))
        z = heisenberg_partition(sp, 6)
        assert z.value == pytest.approx(1.0, abs=1e-15)

    def test_factorization_for_separated_handles(self):
        joint = SchottkyParams(
            2, (1.35, 20 + 1.4j), (-1.35, 20 - 1.4j),
            (0.018 + 0.004j, 0.015 - 0.003j),
        )
        h1 = SchottkyParams(1, (1.35,), (-1.35,), (0.018 + 0.004j,))
        h2 = SchottkyParams(1, (20 + 1.4j,), (20 - 1.4j,), (0.015 - 0.003j,))
        z = heisenberg_partition(joint, 24).value
        product = heisenberg_partition(h1, 24).value * heisenberg_partition(
            h2, 24
        ).value
        assert abs(z - product) / abs(product) < 1e-6

    def test_real_symmetric_det_positive(self):
        sp = SchottkyParams(2, (1.2, 4.0), (-1.2, -4.0), (-0.17, -0.15))
        z = heisenberg_partition(sp, 24)
        assert abs(z.value.imag) < 1e-12
        assert z.value.real > 0.0

    def test_branch_sign_invariance(self, genus2_params):
        base = heisenberg_partition(genus2_params, 20)
        for signs in ((-1, 1), (1, -1), (-1, -1)):
            flipped = heisenberg_partition(genus2_params, 20, branch_signs=signs)
            assert abs(flipped.value - base.value) < 1e-12

    def test_divergent_spectrum_refused(self, monkeypatch):
        def fake_coupling(sp, weight, mm, branch_signs=None):
            return 2.0 * np.eye(2 * sp.genus * mm, dtype=np.complex128)

        monkeypatch.setattr(modes, "mode_coupling_matrix", fake_coupling)
        with pytest.raises(ConvergenceError, match="spectral radius"):
            heisenberg_partition(
                SchottkyParams(1, (1.0,), (-1.0,), (-0.17,)), 8
            )


@settings(max_examples=20, deadline=None)
@given(
    re=st.floats(min_value=-0.045, max_value=0.045),
    im=st.floats(min_value=-0.045, max_value=0.045),
)
def test_torus_partition_tracks_euler_product(re, im):
    q = complex(re, im)
    if abs(q) < 1e-3 or abs(q) > 0.045:
        return
    sp = params_from_classical(ClassicalParams((1.0,), (-1.0,), (q,)))
    z = heisenberg_partition(sp, 24)
    expected = euler_product(q)
    assert abs(z.value - expected) / abs(expected) < 1e-6
