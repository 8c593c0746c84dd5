"""Tests for the mode-matrix route: pole basis, moments, coupling, resolvent.

Oracles:
  * Cauchy integrals on small circles for Taylor coefficients (trapezoid
    quadrature of already-tested scalar functions, independent of the
    closed-form entry formulas),
  * direct orbit sums over enumerate_group for the shell identities,
  * the Euler product for the genus-1 oscillator partition function,
  * the product over primitive classes for Z at any genus, summed over
    the cyclically reduced words of the word table (McIntyre & Takhtajan,
    GAFA 16, 2006),
  * degeneration (widely separated handles) for factorization.

The mode layer is weight 1 only: its seed 1/(x - y) - 1/x is regular
inside every disc, so the resolvent converges for any exterior pair.
Weight >= 2 requests are refused; those kernels are tested as Poincare
sums in test_forms.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky.forms import (
    EPS,
    ConfigurationError,
    ConvergenceError,
    SurfaceForms,
    kernel_seed,
)
from schottky.group import (
    ClassicalParams,
    InvalidParameterError,
    MobiusMap,
    SchottkyParams,
    TruncationPolicy,
    enumerate_group,
    generator_map,
    mobius_act_on_params,
    in_fundamental_domain,
    params_from_classical,
    validate,
)
import schottky.group as group
import schottky.modes as modes
from schottky.modes import (
    heisenberg_partition,
    kernel_via_modes,
    mode_coupling_matrix,
    mode_cutoff_for,
)

# The single pole-basis point of the weight-1 seed 1/(x - y) - 1/x.
ORIGIN = (0.0,)


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


def word_table_log_z(sp, L):
    """log Z from the product over primitive classes, on the word table.

    log Z = 1/2 sum_w q_w / (|w| (1 - q_w)) over the cyclically reduced
    words of length 1..L (first letter not the inverse of the last, which
    also drops the identity).  q_w = 1/lambda^2 with lambda the larger
    root of lambda + 1/lambda = tr w; the small root (tr - s)/2 would
    lose digits.  Returns (sum, |last shell|, rounding floor).
    """
    words = enumerate_group(sp, L)
    keep = (words.length >= 1) & (words.first_letters() != -words.last)
    tr = words.a[keep] + words.d[keep]
    root = np.sqrt(tr * tr - 4.0)
    lam = np.where(np.abs(tr + root) >= np.abs(tr - root), tr + root, tr - root) / 2.0
    q = 1.0 / (lam * lam)
    length = words.length[keep]
    terms = 0.5 * q / (length * (1.0 - q))
    return (
        complex(terms.sum()),
        abs(terms[length == L].sum()),
        EPS * (1.0 + np.abs(terms).sum()),
    )


@pytest.fixture
def fresh_system():
    """An empty system cache around a test that fakes the coupling matrix.

    A fake system left in the cache would serve the next test on the same
    surface and cutoff.
    """
    modes._system.cache_clear()
    yield
    modes._system.cache_clear()


@pytest.fixture(scope="module")
def torus_sp():
    return params_from_classical(ClassicalParams((1.0,), (-1.0,), (0.04,)))


class TestVectorsAndLayout:
    def test_pole_basis_weight1_entry(self, genus2_params):
        sp = genus2_params
        x = 2.3 + 0.9j
        p = modes._pole_basis(sp, 4, x)
        assert len(p) == 2 * sp.genus * 4
        for i, b in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(b))
            expected = s / (x - sp.center(b)) ** 2
            assert p[i * 4] == pytest.approx(expected, rel=1e-14)

    def test_seed_moments_weight1_entry(self, genus2_params):
        sp = genus2_params
        y = 0.5 - 0.8j
        q = modes._seed_moments(sp, 4, y)
        for i, a in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(a))
            wma = sp.center(-a)
            expected = -s * (1.0 / (wma - y) - 1.0 / wma)
            assert q[i * 4] == pytest.approx(expected, rel=1e-13)

    def test_coupling_zero_blocks(self, genus2_params):
        M = 6
        R = mode_coupling_matrix(genus2_params, M)
        idx = list(genus2_params.signed_indices)
        for i, a in enumerate(idx):
            j = idx.index(-a)
            block = R[i * M:(i + 1) * M, j * M:(j + 1) * M]
            assert np.all(block == 0.0)

    def test_coupling_small_rho_scaling(self):
        sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (1e-20, 1e-20))
        R = mode_coupling_matrix(sp, 5)
        assert np.max(np.abs(R)) < 1e-15

    @pytest.mark.parametrize("fixture", ["torus_sp", "genus2_params", "genus3_params"])
    @pytest.mark.parametrize("M", [1, 5, 20, 21])
    def test_half_cutoff_system_is_leading_mode_slice(self, fixture, M, request):
        # Every entry of p, q and R depends only on its own mode indices,
        # so the system at M/2 is exactly the leading-mode slice of the one
        # at M (handle-major layout, mode index inner).
        sp = request.getfixturevalue(fixture)
        half = max(1, M // 2)
        keep = np.arange(2 * sp.genus * M) % M < half
        x, y = 5.0 + 1.0j, -5.0 + 2.0j
        assert np.array_equal(modes._pole_basis(sp, half, x), modes._pole_basis(sp, M, x)[keep])
        assert np.array_equal(modes._seed_moments(sp, half, y), modes._seed_moments(sp, M, y)[keep])
        assert np.array_equal(
            mode_coupling_matrix(sp, half),
            mode_coupling_matrix(sp, M)[np.ix_(keep, keep)],
        )

    def test_input_validation(self, genus2_params):
        sp = genus2_params
        x, y = 5.0 + 1.0j, -5.0 + 2.0j
        for call in (
            lambda: mode_coupling_matrix(sp, 0),
            lambda: heisenberg_partition(sp, 0),
            lambda: kernel_via_modes(sp, 0, 4, x, y),
            lambda: kernel_via_modes(sp, 1, 0, x, y),
            lambda: kernel_via_modes(sp, 1, 4, sp.center(1) + 0.01, y),
            lambda: kernel_via_modes(sp, 1, 4, x, sp.center(-2)),
        ):
            with pytest.raises(InvalidParameterError):
                call()


def reference_coupling(sp, M):
    """The coupling matrix assembled block by block from its entry formula."""
    roots = [cmath.sqrt(rho) for rho in sp.rho]
    idx = list(sp.signed_indices)
    R = np.zeros((len(idx) * M, len(idx) * M), dtype=np.complex128)
    m = np.arange(M)
    binom = np.array([[float(math.comb(i + j + 1, i)) for j in range(M)] for i in range(M)])
    for i, a in enumerate(idx):
        row_w = -(roots[abs(a) - 1] ** (m + 1)) * (-1.0) ** m
        for j, b in enumerate(idx):
            if b == -a:
                continue
            col_w = roots[abs(b) - 1] ** (m + 1)
            power = (sp.center(-a) - sp.center(b)) ** (-(m[:, None] + m[None, :] + 2.0))
            R[i * M:(i + 1) * M, j * M:(j + 1) * M] = row_w[:, None] * col_w[None, :] * binom * power
    return R


class TestCouplingAssembly:
    @pytest.mark.parametrize("fixture", ["torus_sp", "genus2_params", "genus3_params"])
    @pytest.mark.parametrize("M", [1, 2, 5, 20, 21])
    def test_broadcast_equals_block_loop(self, fixture, M, request):
        # Every entry equals the per-block formula exactly; the b = -a
        # blocks are exactly zero.
        sp = request.getfixturevalue(fixture)
        idx = list(sp.signed_indices)
        R = mode_coupling_matrix(sp, M)
        assert np.array_equal(R, reference_coupling(sp, M))
        for i, a in enumerate(idx):
            j = idx.index(-a)
            assert np.all(R[i * M:(i + 1) * M, j * M:(j + 1) * M] == 0.0)


class TestSharedSystem:
    """One validated, assembled, factored and gated system per (sp, M)."""

    def test_mixed_calls_validate_and_assemble_once(self, genus3_params, fresh_system, monkeypatch):
        validations, assemblies = [], []
        assemble = modes.mode_coupling_matrix

        def counted_validate(sp):
            validations.append(sp)
            return validate(sp)

        def counted_assemble(sp, mm):
            assemblies.append(mm)
            return assemble(sp, mm)

        # The admissibility gate of schottky.group runs validate.
        monkeypatch.setattr(group, "validate", counted_validate)
        monkeypatch.setattr(modes, "mode_coupling_matrix", counted_assemble)
        for x, y in ((5.0 + 1.0j, -5.0 + 2.0j), (3.0 - 1.0j, -0.5 - 0.8j)):
            kernel_via_modes(genus3_params, 1, 20, x, y)
            heisenberg_partition(genus3_params, 20)
            kernel_via_modes(genus3_params, 1, 20, y, x)
        assert len(validations) == 1
        assert assemblies == [20]

    def test_other_surface_in_between_changes_no_bit(self, genus2_params, genus3_params):
        x, y = 0.62 + 0.11j, -0.4 - 0.77j

        def both(sp):
            return kernel_via_modes(sp, 1, 12, x, y), heisenberg_partition(sp, 12)

        first = both(genus2_params)
        both(genus3_params)
        assert both(genus2_params) == first

    def test_equal_params_share_the_system(self, genus2_params):
        sp = genus2_params
        twin = SchottkyParams(sp.genus, sp.w_plus, sp.w_minus, sp.rho)
        assert twin is not sp and twin == sp
        assert modes._system(twin, 12) is modes._system(sp, 12)

    def test_signed_zero_twins_get_one_branch(self, genus2_params):
        # rho_1 = -0.018 with an imaginary part of +0.0 or -0.0: equal
        # parameters, so one cached system serves both, and both must take
        # the same root for p and q as for R, whichever filled the cache.
        sp = genus2_params
        plus, minus = (
            SchottkyParams(2, sp.w_plus, sp.w_minus, (complex(-0.018, zero), sp.rho[1]))
            for zero in (0.0, -0.0)
        )
        assert plus == minus
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        modes._system.cache_clear()
        first = kernel_via_modes(plus, 1, 12, x, y)
        assert kernel_via_modes(minus, 1, 12, x, y) == first
        modes._system.cache_clear()
        assert kernel_via_modes(minus, 1, 12, x, y) == first

    def test_cached_factors_are_read_only(self, genus2_params):
        factored = modes._system(genus2_params, 12)
        for array in (factored.lu, factored.piv):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestWorkedCoupling:
    def test_torus_corner_entry(self, torus_sp):
        # For fixed points +-1 and multiplier q the (a=1,b=1,m=0,n=0)
        # entry is -rho/(w_{-1}-w_1)^2 = q/(1+q)^2.
        q = 0.04
        R = mode_coupling_matrix(torus_sp, 3)
        assert R[0, 0] == pytest.approx(q / (1 + q) ** 2, rel=1e-13)
        direct = -torus_sp.rho[0] / (torus_sp.center(-1) - torus_sp.center(1)) ** 2
        assert R[0, 0] == pytest.approx(direct, rel=1e-14)

    def test_cross_handle_entry(self, genus2_params):
        # (a=1,m=0),(b=2,n=0) at N=1: -s1 s2 / (w_{-1} - w_2)^2.
        sp = genus2_params
        M = 3
        R = mode_coupling_matrix(sp, M)
        s1 = cmath.sqrt(sp.rho[0])
        s2 = cmath.sqrt(sp.rho[1])
        expected = -s1 * s2 / (sp.center(-1) - sp.center(2)) ** 2
        assert R[0, 2 * M] == pytest.approx(expected, rel=1e-13)

    def test_coupling_is_taylor_of_pole_basis(self, genus2_params):
        # R[(a,m),(b,n)] equals -s_a^{m+1} times the m-th Taylor
        # coefficient of the (b,n) pole-basis entry at w_{-a}; take the
        # coefficient by contour integration instead of the closed form.
        sp = genus2_params
        M = 4
        R = mode_coupling_matrix(sp, M)
        idx = list(sp.signed_indices)
        for (a, b) in ((1, 2), (-2, 1), (2, 2)):
            i, j = idx.index(a), idx.index(b)
            sa = cmath.sqrt(sp.rho_signed(a))
            wma = sp.center(-a)
            for m in range(M):
                for n in (0, 2):
                    def entry(z, b=b, n=n):
                        s = cmath.sqrt(sp.rho_signed(b))
                        return s ** (n + 1) / (z - sp.center(b)) ** (n + 2)

                    coeff = cauchy_taylor(entry, wma, m, 0.3)
                    expected = -(sa ** (m + 1)) * coeff
                    assert R[i * M + m, j * M + n] == pytest.approx(
                        expected, rel=1e-9
                    ), (a, b, m, n)

    def test_moments_are_taylor_of_seed(self, genus2_params):
        # q_a(y;m) = -s_a^{m+1} (1/m!) d^m/dx^m seed(x,y) at w_{-a}.
        sp = genus2_params
        y = 0.55 - 0.92j
        q = modes._seed_moments(sp, 4, y)
        idx = list(sp.signed_indices)
        for a in (1, -1, 2):
            i = idx.index(a)
            wma = sp.center(-a)
            sa = cmath.sqrt(sp.rho_signed(a))
            for m in range(4):
                coeff = cauchy_taylor(lambda z: kernel_seed(z, y, ORIGIN), wma, m, 0.3)
                expected = -(sa ** (m + 1)) * coeff
                assert q[i * 4 + m] == pytest.approx(expected, rel=1e-6), (a, m)


class TestRankOneContraction:
    def test_weight1_handle_sums(self, genus2_params):
        # sum_m p_a(x;m) q_a(y;m) = seed(gamma_a x, y) gamma_a'(x) for
        # each signed handle; weight 1 converges for any exterior pair.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        p = modes._pole_basis(sp, M, x)
        q = modes._seed_moments(sp, M, y)
        for i, a in enumerate(sp.signed_indices):
            g = generator_map(sp, a)
            expected = kernel_seed(g(x), y, ORIGIN) * g.derivative(x)
            got = complex(p[i * M:(i + 1) * M] @ q[i * M:(i + 1) * M])
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestShellIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weight1_shells(self, genus2_params, k):
        # p^T R^{k-1} q equals the orbit sum over reduced words of
        # length exactly k.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        p = modes._pole_basis(sp, M, x)
        q = modes._seed_moments(sp, M, y)
        R = mode_coupling_matrix(sp, M)
        via = complex(p @ (np.linalg.matrix_power(R, k - 1) @ q))
        W = enumerate_group(sp, k)
        mats = [MobiusMap(W.a[i], W.b[i], W.c[i], W.d[i]) for i in np.flatnonzero(W.length == k)]
        shell = sum(kernel_seed(m(x), y, ORIGIN) * m.derivative(x) for m in mats)
        assert via == pytest.approx(shell, rel=1e-10)


class TestKernelViaModes:
    def test_weight1_matches_poincare(self, genus2_params):
        sp = genus2_params
        F = SurfaceForms(sp, policy=TruncationPolicy(max_word_length=8, tol=1e-10))
        for x, y in ((0.62 + 0.11j, -0.4 - 0.77j), (2.5 - 1.8j, 0.3 + 0.6j)):
            direct = F.third_kind_form(x, y)
            kv = kernel_via_modes(sp, 1, 24, x, y)
            assert kv.value == pytest.approx(direct.value, abs=1e-10)
            assert kv.tail >= 0.0

    def test_weight1_matches_poincare_torus(self, torus_sp):
        F = SurfaceForms(
            torus_sp, policy=TruncationPolicy(max_word_length=12, tol=1e-10)
        )
        x, y = 0.3 + 0.25j, -0.5 - 0.4j
        direct = F.third_kind_form(x, y)
        kv = kernel_via_modes(torus_sp, 1, 30, x, y)
        assert kv.value == pytest.approx(direct.value, abs=1e-9)

    def test_weight2_refused(self, genus2_params):
        # The weight-2 resolvent diverges as M grows; the call must refuse
        # and name the Poincare sum instead of returning a number.
        with pytest.raises(ConfigurationError, match="recursion_kernel"):
            kernel_via_modes(genus2_params, 2, 8, 5.0 + 1.0j, -5.0 + 2.0j)

    def test_small_rho_reduces_to_seed(self):
        # The correction is the first word shell, linear in rho.
        x, y = 3.1 + 0.4j, -0.8 + 0.2j
        drifts = []
        for scale in (1e-6, 1e-8):
            sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (scale, scale))
            kv = kernel_via_modes(sp, 1, 6, x, y)
            drifts.append(abs(kv.value - kernel_seed(x, y, ORIGIN)))
        assert drifts[1] < 1e-5
        ratio = drifts[0] / drifts[1]
        assert 30.0 < ratio < 300.0

    @pytest.mark.parametrize(
        "fixture, M", [("torus_sp", 30), ("genus2_params", 40), ("genus3_params", 20)]
    )
    def test_mode_doubling_within_reported_tail(self, fixture, M, request):
        # Doubling M moves both mode-route calls by less than their tails,
        # also where the truncation bound has fallen below rounding and
        # only the rounding floor is left.
        sp = request.getfixturevalue(fixture)
        for x, y in (
            (3.0 + 1.0j, -2.0 + 2.0j), (5.0 + 1.0j, -4.0 + 2.0j),
            (0.62 + 0.11j, -0.4 - 0.77j), (3.0 - 1.0j, -0.5 - 0.8j),
        ):
            c, f = kernel_via_modes(sp, 1, M, x, y), kernel_via_modes(sp, 1, 2 * M, x, y)
            assert abs(f.value - c.value) < c.tail, (x, y)
        c, f = heisenberg_partition(sp, M), heisenberg_partition(sp, 2 * M)
        assert abs(f.value - c.value) < c.tail

    def test_ill_conditioned_system_refused(self, genus2_params, fresh_system, monkeypatch):
        # A leading-mode entry of R at 1 - 1e-10 puts cond_1(I - R) near
        # 1e10, above MAX_CONDITION; at 1 - 1e-6 it is 1e6 and passes.
        # Both stay below the spectral-radius gate.  Both routes refuse.
        def near_singular(entry):
            def coupling(sp, mm):
                R = np.zeros((2 * sp.genus * mm,) * 2, dtype=np.complex128)
                R[0, 0] = entry
                return R
            return coupling

        for call in (
            lambda: kernel_via_modes(genus2_params, 1, 8, 5.0 + 1.0j, -5.0 + 2.0j),
            lambda: heisenberg_partition(genus2_params, 8),
        ):
            modes._system.cache_clear()
            monkeypatch.setattr(modes, "mode_coupling_matrix", near_singular(1.0 - 1e-6))
            assert np.isfinite(call().tail)
            modes._system.cache_clear()
            monkeypatch.setattr(modes, "mode_coupling_matrix", near_singular(1.0 - 1e-10))
            with pytest.raises(ConvergenceError, match="ill-conditioned"):
                call()

    def test_routes_accept_the_same_boundary_points(self, genus2_params):
        # A point a hair inside the circle at w_1 (1e-13 of its radius)
        # counts as on it for the mode route as for the orbit sum, and the
        # two agree there; 1e-11 inside, both refuse.
        sp = genus2_params
        y = -0.4 - 0.77j
        F = SurfaceForms(sp, policy=TruncationPolicy(max_word_length=8))
        x = sp.center(1) + sp.radius(1) * (1.0 - 1e-13)
        direct, kv = F.third_kind_form(x, y), kernel_via_modes(sp, 1, 24, x, y)
        assert abs(kv.value - direct.value) <= kv.tail + direct.tail
        inside = sp.center(1) + sp.radius(1) * (1.0 - 1e-11)
        for call in (lambda: F.third_kind_form(inside, y), lambda: kernel_via_modes(sp, 1, 24, inside, y)):
            with pytest.raises(InvalidParameterError, match="inside an isometric disc"):
                call()

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 1.0)])
    def test_non_finite_points_refused_by_name(self, genus2_params, bad):
        sp = genus2_params
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        for arg, call in (
            ("x", lambda: kernel_via_modes(sp, 1, 8, bad, y)),
            ("y", lambda: kernel_via_modes(sp, 1, 8, x, bad)),
        ):
            with pytest.raises(InvalidParameterError, match=f"^{arg} = .* is not finite$"):
                call()

    def test_inadmissible_parameters_name_the_reason(self):
        sp = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (0.018 + 0.004j, 0.0))
        with pytest.raises(InvalidParameterError, match="admissible: handle 2: rho = 0$"):
            heisenberg_partition(sp, 8)

    def test_values_continuous_across_the_branch_cut(self, genus2_params):
        # At rho_1 = -0.018 +- 1e-18 i the principal root s_1 jumps from
        # +0.134i to -0.134i.  The jump conjugates the mode system by a
        # diagonal sign matrix, so Z and the kernel must not jump with it.
        sp = genus2_params
        above, below = (
            SchottkyParams(2, sp.w_plus, sp.w_minus, (complex(-0.018, im), sp.rho[1]))
            for im in (1e-18, -1e-18)
        )
        root = cmath.sqrt(0.018) * 1j
        assert cmath.sqrt(above.rho[0]) == pytest.approx(root)
        assert cmath.sqrt(below.rho[0]) == pytest.approx(-root)
        za, zb = heisenberg_partition(above, 20), heisenberg_partition(below, 20)
        assert abs(za.value - zb.value) <= za.tail + zb.tail
        for x, y in ((0.62 + 0.11j, -0.4 - 0.77j), (5.0 + 1.0j, -5.0 + 2.0j)):
            ka, kb = kernel_via_modes(above, 1, 20, x, y), kernel_via_modes(below, 1, 20, x, y)
            assert abs(ka.value - kb.value) <= ka.tail + kb.tail


class TestHeisenbergPartition:
    def test_torus_euler_product(self, torus_sp):
        z = heisenberg_partition(torus_sp, 40)
        expected = euler_product(0.04)
        assert abs(z.value - expected) / abs(expected) < 1e-8
        assert z.spectral_radius < 1.0
        # The truncation bound at M = 40 is below rounding; the rounding
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

    @pytest.mark.parametrize(
        "fixture, L",
        [("torus_sp", 7), ("genus2_params", 6), ("genus3_params", 5), ("conjugate", 6)],
    )
    def test_matches_word_table_product_formula(self, fixture, L, request):
        # Z from the determinant against Z from the primitive classes, to
        # within the determinant's tail, the last word shell and rounding.
        if fixture == "conjugate":
            sp = mobius_act_on_params(
                request.getfixturevalue("genus2_params"), MobiusMap(1.0, 0.3, 0.2, 1.0)
            )
        else:
            sp = request.getfixturevalue(fixture)
        z = heisenberg_partition(sp, 30)
        log_z, shell, floor = word_table_log_z(sp, L)
        expected = cmath.exp(log_z)
        assert abs(z.value - expected) < z.tail + abs(expected) * (shell + floor)

    def test_divergent_spectrum_refused(self, fresh_system, monkeypatch):
        # R = 2I, and R = nan I: both routes refuse at the contraction gate.
        sp = SchottkyParams(1, (1.0,), (-1.0,), (-0.17,))
        for entry in (2.0, math.nan):
            monkeypatch.setattr(
                modes, "mode_coupling_matrix",
                lambda sp, mm: entry * np.eye(2 * sp.genus * mm, dtype=np.complex128),
            )
            for call in (
                lambda: kernel_via_modes(sp, 1, 8, 5.0 + 1.0j, -5.0 + 2.0j),
                lambda: heisenberg_partition(sp, 8),
            ):
                modes._system.cache_clear()
                with pytest.raises(ConvergenceError, match="contraction bound .* spectral radius"):
                    call()


def perturbed(sp, seed, jitter=0.2):
    """sp with every centre and rho moved by up to ``jitter`` of its size.

    Each move is a uniform point of a disc, as the benchmark draws its
    surfaces; draws repeat until the parameters are admissible and the
    origin is exterior.
    """
    rng = np.random.default_rng(seed)

    def move(z):
        return z + abs(z) * jitter * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())

    while True:
        draw = SchottkyParams(
            sp.genus,
            tuple(move(w) for w in sp.w_plus),
            tuple(move(w) for w in sp.w_minus),
            tuple(move(r) for r in sp.rho),
        )
        if validate(draw).ok and in_fundamental_domain(draw, 0.0):
            return draw


def surface(name, request):
    """A fixture by name, or "draw<k>": the genus-3 fixture perturbed with seed k."""
    if name.startswith("draw"):
        return perturbed(request.getfixturevalue("genus3_params"), int(name[4:]))
    return request.getfixturevalue(name)


def kernel_points(sp):
    """Point pairs in the fundamental domain: far, central, and 1.2 radii off a circle.

    The last pair, off the circles of handle 1 and its partner, makes the
    diagonal mode sum decay at ratio 1/1.44.
    """
    r = sp.radius(1)
    candidates = (
        (5.0 + 1.0j, -4.0 + 2.0j),
        (0.62 + 0.11j, -0.4 - 0.77j),
        (sp.center(1) + 1.2 * r * cmath.exp(0.4j), sp.center(-1) + 1.2 * r * cmath.exp(2.0j)),
    )
    return [
        (x, y) for x, y in candidates
        if in_fundamental_domain(sp, x) and in_fundamental_domain(sp, y)
    ]


FIXTURES = ["torus_sp", "genus2_params", "genus3_params"]
SURFACES = FIXTURES + [f"draw{k}" for k in range(8)]


def near_touching(f):
    """Genus 2, centres +-1.35 and +-1.4i, equal radii f * 1.945 / 2.

    1.945 is the distance from w_{-1} to w_2, so the discs of handles 1
    and 2 touch at f = 1.
    """
    r = f * 1.945 / 2.0
    return SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (r * r, r * r))


class TestTruncationBounds:
    """Tails are bounds on the truncation at M, not drifts."""

    @pytest.mark.parametrize("name", SURFACES)
    @pytest.mark.parametrize("M", [2, 5, 20])
    def test_tail_bounds_the_doubling(self, name, M, request):
        sp = surface(name, request)
        points = kernel_points(sp)
        assert points
        for x, y in points:
            c, f = kernel_via_modes(sp, 1, M, x, y), kernel_via_modes(sp, 1, 2 * M, x, y)
            assert abs(f.value - c.value) <= c.tail, (x, y)
        c, f = heisenberg_partition(sp, M), heisenberg_partition(sp, 2 * M)
        assert abs(f.value - c.value) <= c.tail

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("M", [2, 5, 20])
    def test_contraction_bound_exceeds_spectral_radius(self, fixture, M, request):
        sp = request.getfixturevalue(fixture)
        radius = np.abs(np.linalg.eigvals(mode_coupling_matrix(sp, M))).max()
        assert heisenberg_partition(sp, M).spectral_radius >= radius

    def test_zero_coupling_has_zero_bound(self, genus2_params, fresh_system, monkeypatch):
        def zero_coupling(sp, mm):
            return np.zeros((2 * sp.genus * mm,) * 2, dtype=np.complex128)

        monkeypatch.setattr(modes, "mode_coupling_matrix", zero_coupling)
        z = heisenberg_partition(genus2_params, 8)
        assert z.spectral_radius == 0.0
        assert z.value == 1.0

    @pytest.mark.parametrize("name", FIXTURES + ["near"])
    @pytest.mark.parametrize("M", [2, 5])
    def test_omitted_sum_bounds_the_entries_beyond_the_cutoff(self, name, M, request):
        # Against the entries of R at 4M with a mode index >= M, and the
        # whole-operator bound against all of R at 4M.
        sp = near_touching(0.5) if name == "near" else request.getfixturevalue(name)
        R = np.abs(mode_coupling_matrix(sp, 4 * M))
        mode = np.arange(R.shape[0]) % (4 * M)
        beyond = (mode[:, None] >= M) | (mode[None, :] >= M)
        omitted, whole = modes._omitted_sums(sp, (M, 0))
        assert R[beyond].sum() <= omitted
        assert R.sum() <= whole

    @pytest.mark.parametrize("name", FIXTURES + ["near"])
    @pytest.mark.parametrize("M", [2, 5])
    def test_vector_bounds_against_the_vectors_at_4M(self, name, M, request):
        sp = near_touching(0.5) if name == "near" else request.getfixturevalue(name)
        for x, y in kernel_points(sp):
            p = np.abs(modes._pole_basis(sp, 4 * M, x))
            q = np.abs(modes._seed_moments(sp, 4 * M, y))
            beyond = np.arange(len(p)) % (4 * M) >= M
            # The sup is attained at mode 0, so it may differ by rounding.
            sup_p, sum_q, diagonal = (b * (1.0 + 8 * EPS) for b in modes._vector_bounds(sp, M, x, y))
            assert p.max() <= sup_p
            assert q.sum() <= sum_q
            assert (p * q)[beyond].sum() <= diagonal

    @pytest.mark.parametrize("z", [1.0 + 0.0j, 0.3 + 0.2j, -1.0 + 0.5j, 2e-3j])
    def test_inverse_root_change_bounds_the_circle(self, z):
        # The largest change of w^{-1/2} over |w - z| <= tau is on the
        # circle; the bound holds there and is tight for small tau.
        cut = abs(z) if z.real >= 0.0 else abs(z.imag)
        circle = np.exp(2j * np.pi * np.arange(256) / 256)
        for tau in (1e-6 * cut, 0.5 * cut):
            change = np.abs((z + tau * circle) ** -0.5 - z ** -0.5).max()
            bound = modes._inverse_root_change(z, tau)
            assert change <= bound
            if tau < 1e-3 * cut:
                assert bound <= 1.01 * change
        assert modes._inverse_root_change(z, 1.01 * cut) == math.inf

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_cutoff_from_tol(self, fixture, request):
        # The smallest cutoff whose determinant bound meets tol: Z's tail
        # there is within tol (plus rounding), and one mode fewer is not.
        sp = request.getfixturevalue(fixture)
        for tol in (1e-6, 1e-12):
            m = mode_cutoff_for(sp, tol, 40)
            assert 1 < m < 40
            z = heisenberg_partition(sp, m)
            assert z.tail <= tol + 2 * sp.genus * m * EPS * abs(z.value)
            assert modes._determinant_truncation(*modes._omitted_sums(sp, (m - 1, 0))) > tol
        assert mode_cutoff_for(sp, 1e-300, 7) == 7


class TestCertifiedRegion:
    """The contraction bound certifies part of the admissible region near touching."""

    def test_certified_surface_within_tail(self):
        sp = near_touching(0.5)
        z, fine = heisenberg_partition(sp, 20), heisenberg_partition(sp, 40)
        assert z.spectral_radius == pytest.approx(0.27, abs=0.01)
        assert abs(fine.value - z.value) <= z.tail < 1e-2

    @pytest.mark.parametrize("M", [5, 10, 20])
    def test_certified_kernel_within_tail(self, M):
        # Far from the circles the Neumann term carries the tail.
        sp = near_touching(0.5)
        for x, y in kernel_points(sp):
            c, f = kernel_via_modes(sp, 1, M, x, y), kernel_via_modes(sp, 1, 2 * M, x, y)
            assert abs(f.value - c.value) <= c.tail, (x, y)

    def test_uncertified_surface_refused(self):
        # Admissible, with true spectral radius 0.30, but ||R||_1 = 1.05.
        sp = near_touching(0.8)
        assert validate(sp).ok
        for call in (
            lambda: heisenberg_partition(sp, 20),
            lambda: kernel_via_modes(sp, 1, 20, 5.0 + 1.0j, -4.0 + 2.0j),
        ):
            with pytest.raises(ConvergenceError, match=r"contraction bound \|\|R\|\|_1 = 1\.05"):
                call()


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
