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

import ast
import cmath
import inspect
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor
from scipy.linalg.lapack import zgecon

from schottky.forms import (
    CACHE_ENTRIES,
    EPS,
    ConfigurationError,
    ConvergenceError,
    PoleProximityError,
    SurfaceForms,
    _kernel_seed,
    _surface,
)
from schottky.group import (
    DOMAIN_SLACK,
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
from schottky.correlators import heisenberg_npoint, virasoro_two_point
from schottky.modes import (
    bidifferential_via_modes,
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
    keep = (words.length >= 1) & (group._first_letters(sp.genus, 0, words.length) != -words.last)
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
    """Empty system and surface-record caches around a test that fakes the
    coupling matrix or counts validations.

    A fake system left in the cache would serve the next test on the same
    surface and cutoff, and a cached record skips validation.
    """
    modes._system.cache_clear()
    _surface.cache_clear()
    yield
    modes._system.cache_clear()


# Both mode-route kernels: psi_1, with moments q, and omega, with q'.
KERNELS = (modes._PSI, modes._OMEGA)


def vectors(sp, M, x, y, kernel=modes._PSI):
    """p(x) and the kernel's moments q(y) (psi_1's by default) of one pair of points."""
    pts = np.array([x], complex), np.array([y], complex)
    *_, p, q = modes._point_terms(modes._system(sp, M), *pts, kernel)
    return p[0], q[0]


@pytest.fixture(scope="module")
def torus_sp():
    return params_from_classical(ClassicalParams((1.0,), (-1.0,), (0.04,)))


class TestVectorsAndLayout:
    def test_pole_basis_weight1_entry(self, genus2_params):
        sp = genus2_params
        x = 2.3 + 0.9j
        p, _ = vectors(sp, 4, x, 0.5 - 0.8j)
        assert len(p) == 2 * sp.genus * 4
        for i, b in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(b))
            expected = s / (x - sp.center(b)) ** 2
            assert p[i * 4] == pytest.approx(expected, rel=1e-14)

    def test_seed_moments_weight1_entry(self, genus2_params):
        sp = genus2_params
        y = 0.5 - 0.8j
        _, q = vectors(sp, 4, 2.3 + 0.9j, y)
        for i, a in enumerate(sp.signed_indices):
            s = cmath.sqrt(sp.rho_signed(a))
            wma = sp.center(-a)
            expected = -s * (1.0 / (wma - y) - 1.0 / wma)
            assert q[i * 4] == pytest.approx(expected, rel=1e-13)

    def test_vectors_do_not_depend_on_the_other_points(self, genus3_params):
        # One _powers pass serves every point of a call: each row
        # equals its point's row alone, bit for bit.
        sp = genus3_params
        xs = np.array([3.0 - 1.0j, 2.6 + 0.9j, -3.1 + 0.4j, 0.3 + 3.3j, -2.7 - 2.9j])
        ys = xs[:2] + 0.5
        for kernel in KERNELS:
            *_, P, Q = modes._point_terms(modes._system(sp, 20), xs, ys, kernel)
            for x, p in zip(xs, P):
                assert np.array_equal(p, vectors(sp, 20, x, ys[0], kernel)[0])
            for y, q in zip(ys, Q):
                assert np.array_equal(q, vectors(sp, 20, xs[0], y, kernel)[1])

    def test_powers_do_not_depend_on_the_cutoff(self):
        # Entry k of _powers (z^(k+1)) is the same product at M and at 2M,
        # bit for bit, and within 2k eps of the exact power.
        rng = np.random.default_rng(5)
        z = (rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)).reshape(2, 4)
        for M in (1, 2, 3, 5, 8, 13, 20):
            powers, doubled = modes._powers(z, M), modes._powers(z, 2 * M)
            assert powers.shape == (2, 4, M)
            assert np.array_equal(powers, doubled[..., :M])
        eps = Fraction(EPS)
        for zi, row in zip(z.ravel(), doubled.reshape(-1, 2 * M)):
            re, im = Fraction(zi.real), Fraction(zi.imag)
            exact_re, exact_im = re, im
            for k, got in enumerate(row):
                if k:
                    exact_re, exact_im = exact_re * re - exact_im * im, exact_re * im + exact_im * re
                error = (Fraction(got.real) - exact_re) ** 2 + (Fraction(got.imag) - exact_im) ** 2
                assert error <= (2 * k * eps) ** 2 * (exact_re**2 + exact_im**2), k

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
        for kernel in KERNELS:
            pairs = zip(vectors(sp, half, x, y, kernel), vectors(sp, M, x, y, kernel))
            for got, full in pairs:
                assert np.array_equal(got, full[keep])
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

    @pytest.mark.parametrize("M", [171, 10**12])
    def test_oversize_cutoff_refused_before_assembly(self, genus3_params, M):
        # 2gM > MAX_SYSTEM_DIM = 1024 is refused by name, before R (16 (2gM)^2
        # bytes) or the M x M binomial table is built: at M = 10^12 any
        # allocation would fail or exhaust memory.
        sp = genus3_params
        for call in (
            lambda: mode_coupling_matrix(sp, M),
            lambda: heisenberg_partition(sp, M),
            lambda: kernel_via_modes(sp, 1, M, 5.0 + 1.0j, -5.0 + 2.0j),
            lambda: mode_cutoff_for(sp, 1e-9, M),
        ):
            with pytest.raises(InvalidParameterError, match=f"dimension {6 * M}"):
                call()
        assert 2 * sp.genus * 170 <= modes.MAX_SYSTEM_DIM


def reference_coupling(sp, M):
    """The coupling matrix assembled block by block from its factored entry formula.

    Block (a, b != -a) is C(m+n+1, m) u[m] v[n], u = (-s_a / d)^{m+1} and
    v = (s_b / d)^{n+1} with d = w_{-a} - w_b, the powers by modes._powers and
    the products in the library's order, (v C) u.
    """
    idx = list(sp.signed_indices)
    R = np.zeros((len(idx) * M, len(idx) * M), dtype=np.complex128)
    binom = np.array([[float(math.comb(m + n + 1, m)) for n in range(M)] for m in range(M)])
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if b == -a:
                continue
            d = sp.center(-a) - sp.center(b)
            # numpy's division, which rounds unlike Python's complex division.
            ratios = np.array([-cmath.sqrt(sp.rho_signed(a)), cmath.sqrt(sp.rho_signed(b))]) / d
            u, v = modes._powers(ratios, M)
            R[i * M:(i + 1) * M, j * M:(j + 1) * M] = (v[None, :] * binom) * u[:, None]
    return R


def exact_ratio(num: complex, den: complex) -> tuple[Fraction, Fraction]:
    """num / den in exact arithmetic, as (real, imaginary) Fractions."""
    nr, ni, dr, di = (Fraction(part) for part in (num.real, num.imag, den.real, den.imag))
    norm = dr * dr + di * di
    return (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm


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

    @pytest.mark.parametrize(
        "fixture, M", [("torus_sp", 20), ("torus_sp", 100), ("genus2_params", 5), ("genus3_params", 20)]
    )
    def test_entries_within_their_rounding_of_the_exact_formula(self, fixture, M, request):
        # Each entry of block (a, b != -a) against C(m+n+1, m) (-s_a/d)^{m+1}
        # (s_b/d)^{n+1} in exact arithmetic from the same s_a = sqrt(rho_a)
        # and d = w_{-a} - w_b.  A ratio rounds once, by a relative delta
        # measured here and at most 4 eps (Smith's division, to first order),
        # and its power k + 1 carries (k + 1) delta; each of the k products
        # of _powers and the two of (v C) u adds at most 2 eps.
        # Every block is checked at the modes 0, 1, M/2 and M - 1 and at
        # 40 more seeded pairs (m, n).  On the torus the binomials grow
        # largest (see MAX_SYSTEM_DIM): C(199, 99) = 4.5e58 at M = 100, where
        # no entry is subnormal yet.
        sp = request.getfixturevalue(fixture)
        idx = list(sp.signed_indices)
        R = mode_coupling_matrix(sp, M)
        rng = np.random.default_rng(11)
        corners = sorted({0, 1, M // 2, M - 1})
        pairs = {(m, n) for m in corners for n in corners} | {tuple(p) for p in rng.integers(0, M, (40, 2))}
        eps = Fraction(EPS)
        for i, a in enumerate(idx):
            for j, b in enumerate(idx):
                if b == -a:
                    continue
                d = sp.center(-a) - sp.center(b)
                factors = []
                for num in (-cmath.sqrt(sp.rho_signed(a)), cmath.sqrt(sp.rho_signed(b))):
                    re, im = exact_ratio(num, d)
                    got = complex(np.complex128(num) / d)
                    delta2 = ((Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2) / (re * re + im * im)
                    assert delta2 <= (4 * eps) ** 2
                    powers = [(re, im)]
                    for _ in range(M - 1):
                        pr, pi = powers[-1]
                        powers.append((pr * re - pi * im, pr * im + pi * re))
                    factors.append((powers, math.sqrt(delta2) / EPS))
                (u, du), (v, dv) = factors
                for m, n in pairs:
                    (ur, ui), (vr, vi) = u[m], v[n]
                    c = math.comb(m + n + 1, m)
                    re, im = c * (ur * vr - ui * vi), c * (ur * vi + ui * vr)
                    entry = complex(R[i * M + m, j * M + n])
                    error = (Fraction(entry.real) - re) ** 2 + (Fraction(entry.imag) - im) ** 2
                    ulps = Fraction((m + 1) * du + (n + 1) * dv) + 2 * (m + n + 2)
                    assert error <= (ulps * eps) ** 2 * (re * re + im * im), (a, b, m, n)


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

    def test_record_holds_the_discs_that_validate_scanned(
        self, torus_params, genus2_params, genus3_params, perturbed
    ):
        # forms._surface builds its letters, centres, rho and radii from
        # sp.discs, the list validate scans, so they agree entry for entry.
        draws = [perturbed(genus3_params, seed) for seed in range(5)]
        for sp in (torus_params, genus2_params, genus3_params, *draws):
            record = _surface(sp)
            letters, centers, rho, radii = zip(*sp.discs)
            assert record.letters == letters == sp.signed_indices
            assert record.centers.tolist() == list(centers)
            assert record.rho.tolist() == list(rho)
            assert record.radii.tolist() == list(radii)

    def test_binomial_tables_are_bounded(self, genus2_params):
        # A cutoff sweep keeps at most CACHE_ENTRIES binomial tables, as
        # the system cache keeps at most that many systems.
        modes._binomials.cache_clear()
        for M in (3, 4, 5, 6, 7, 8):
            mode_coupling_matrix(genus2_params, M)
        assert modes._binomials.cache_info().currsize <= CACHE_ENTRIES

    def test_request_helpers_read_the_system(self):
        # The per-request helpers take the factored system with the points
        # and the kernel, and read the surface record, the cutoff and the
        # handle letters from it: none looks the parameters up again.
        for name in ("_point_terms", "_split_sums", "_truncation", "_vector_bounds"):
            helper = getattr(modes, name)
            assert list(inspect.signature(helper).parameters) == ["system", "xs", "ys", "kernel"]
            tree = ast.parse(textwrap.dedent(inspect.getsource(helper)))
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not names & {"_surface", "_system", "sp"}, name

    def test_cached_factors_are_read_only(self, genus2_params):
        factored = modes._system(genus2_params, 12)
        for array in (factored.R, factored.lu, factored.piv):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestFactoredSystem:
    """The system's R and factors, built column-major and factored by zgetrf directly."""

    @pytest.mark.parametrize("fixture", ["torus_sp", "genus2_params", "genus3_params"])
    @pytest.mark.parametrize("M", [1, 5, 20])
    def test_factors_equal_lu_factor(self, fixture, M, request, fresh_system, monkeypatch):
        # lu and piv are scipy's lu_factor of I - R bit for bit.  I - R is
        # formed as the system forms it, -R with 1 - R_ii on the diagonal,
        # so that the zero blocks keep their sign (-0.0).  R is a fresh
        # assembly bit for bit and shares no memory with the factors, and
        # a C-order copy of R gives the same system.
        sp = request.getfixturevalue(fixture)
        system = modes._system(sp, M)
        R = mode_coupling_matrix(sp, M)
        assert system.R.tobytes() == R.tobytes()
        assert not np.shares_memory(system.R, system.lu)
        A = np.negative(R)
        np.fill_diagonal(A, 1.0 - np.diag(R))
        lu, piv = lu_factor(A)
        assert system.lu.tobytes() == lu.tobytes()
        assert system.piv.dtype == piv.dtype and np.array_equal(system.piv, piv)
        monkeypatch.setattr(modes, "mode_coupling_matrix", lambda sp, mm: np.ascontiguousarray(R))
        twin = modes._system.__wrapped__(sp, M)
        assert twin.lu.tobytes() == lu.tobytes() and np.array_equal(twin.piv, piv)
        assert twin.partition == system.partition

    def test_build_allocates_only_what_it_keeps(self, genus3_params):
        # An uncached build at genus 3 and M = 20 keeps R, |R| and the
        # factors, 563 KiB; its peak stays within 16 KiB of them, so no
        # N x N temporary (115 KB for a real one) is made on the way.
        build = modes._system.__wrapped__
        build(genus3_params, 20)
        tracemalloc.start()
        try:
            system = build(genus3_params, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (system.R, system.size, system.lu, system.piv))
        assert peak - kept < 16 * 1024, (peak, kept)

    def test_zero_pivot_refused_by_name(self, genus2_params, fresh_system, monkeypatch):
        # A factorization that reports U[0, 0] = 0 (info = 1) is refused
        # as a ConvergenceError naming the pivot, before Z is read off.
        factor = modes.zgetrf

        def singular(a, overwrite_a):
            lu, piv, _ = factor(a, overwrite_a=overwrite_a)
            return lu, piv, 1

        monkeypatch.setattr(modes, "zgetrf", singular)
        for call in (
            lambda: heisenberg_partition(genus2_params, 8),
            lambda: kernel_via_modes(genus2_params, 1, 8, 5.0 + 1.0j, -5.0 + 2.0j),
        ):
            with pytest.raises(ConvergenceError, match=r"^pivot 1 of the LU factors of I - R is exactly zero"):
                call()


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
        # q_a(y;m) = -s_a^{m+1} (1/m!) d^m/dx^m K(x,y) at w_{-a}, for each
        # kernel's moments read from its poles: psi_1's seed
        # K = 1/(x - y) - 1/x, and omega's K = 1/(x - y)^2 for q'.
        sp = genus2_params
        y = 0.55 - 0.92j
        seeds = (lambda z: _kernel_seed(z, y, ORIGIN), lambda z: 1.0 / (z - y) ** 2)
        idx = list(sp.signed_indices)
        for kernel, seed in zip(KERNELS, seeds):
            _, q = vectors(sp, 4, 2.3 + 0.9j, y, kernel)
            for a in (1, -1, 2):
                i = idx.index(a)
                wma = sp.center(-a)
                sa = cmath.sqrt(sp.rho_signed(a))
                for m in range(4):
                    coeff = cauchy_taylor(seed, wma, m, 0.3)
                    expected = -(sa ** (m + 1)) * coeff
                    assert q[i * 4 + m] == pytest.approx(expected, rel=1e-6), (kernel.name, a, m)


class TestRankOneContraction:
    def test_weight1_handle_sums(self, genus2_params):
        # sum_m p_a(x;m) q_a(y;m) = seed(gamma_a x, y) gamma_a'(x) for
        # each signed handle, and with q' the omega term
        # gamma_a'(x) / (gamma_a x - y)^2: each record's closed-form
        # one-letter term against its pole data.  Weight 1 converges for
        # any exterior pair.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        seeds = (lambda z: _kernel_seed(z, y, ORIGIN), lambda z: 1.0 / (z - y) ** 2)
        for kernel, seed in zip(KERNELS, seeds):
            p, q = vectors(sp, M, x, y, kernel)
            for i, a in enumerate(sp.signed_indices):
                g = generator_map(sp, a)
                expected = seed(g(x)) * g.derivative(x)
                got = complex(p[i * M:(i + 1) * M] @ q[i * M:(i + 1) * M])
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-14), kernel.name
                term = kernel.term(complex(g(x)), complex(g.derivative(x)), y, complex(g(x)) - y)
                assert term == pytest.approx(expected, rel=1e-13), kernel.name


class TestShellIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weight1_shells(self, genus2_params, k):
        # p^T R^{k-1} q equals the orbit sum over reduced words of
        # length exactly k.
        sp = genus2_params
        M = 30
        x, y = 0.62 + 0.11j, -0.4 - 0.77j
        p, q = vectors(sp, M, x, y)
        R = mode_coupling_matrix(sp, M)
        via = complex(p @ (np.linalg.matrix_power(R, k - 1) @ q))
        W = enumerate_group(sp, k)
        mats = [MobiusMap(W.a[i], W.b[i], W.c[i], W.d[i]) for i in np.flatnonzero(W.length == k)]
        shell = sum(_kernel_seed(m(x), y, ORIGIN) * m.derivative(x) for m in mats)
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
            drifts.append(abs(kv.value - _kernel_seed(x, y, ORIGIN)))
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

    def test_row_swaps_sign_the_determinant(self, torus_params, fresh_system, monkeypatch):
        # LAPACK pivots on |Re| + |Im|, so kappa < 1 does not rule out a row
        # swap: in column 0 of I - R, |0.69 + 0.69i| = 0.976 < 1 but 1.38 > 1.
        # The factors' diagonal is then (-(0.69 + 0.69i), 1 / (0.69 + 0.69i)),
        # of product -1, and only the swap's sign gives det(I - R) = 1, Z = 1
        # rather than -i.
        def coupling(sp, mm):
            return np.array([[0.0, 0.0], [0.69 + 0.69j, 0.0]])

        monkeypatch.setattr(modes, "mode_coupling_matrix", coupling)
        system = modes._system(torus_params, 1)
        assert np.count_nonzero(system.piv != np.arange(2)) == 1
        assert abs(np.prod(np.diag(system.lu)) + 1.0) < 4 * EPS
        z = heisenberg_partition(torus_params, 1)
        assert 0.975 < z.spectral_radius < 0.976
        assert z.value == 1.0 and z.tail < abs(-1j - 1.0)

    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    def test_near_singular_system_served(self, genus2_params, gap, fresh_system, monkeypatch):
        # One leading-mode entry r = 1 - gap puts cond_1(I - R) near
        # 2 / gap, but kappa = r < 1 passes the one gate: Z is the closed
        # form (1 - r)^{-1/2}, exact up to rounding, and the kernel is
        # served.  The determinant's truncation bound for the surface's own
        # omitted entries is below 1e-6 but not 1e-10, so the tail is
        # finite at the first gap and infinite at the second.
        r = 1.0 - gap

        def coupling(sp, mm):
            R = np.zeros((2 * sp.genus * mm,) * 2, dtype=np.complex128)
            R[0, 0] = r
            return R

        monkeypatch.setattr(modes, "mode_coupling_matrix", coupling)
        z = heisenberg_partition(genus2_params, 8)
        expected = (1.0 - r) ** -0.5
        assert z.spectral_radius == r
        assert abs(z.value - expected) <= min(z.tail, 4 * EPS * expected)
        assert math.isfinite(z.tail) == (gap == 1e-6)
        kv = kernel_via_modes(genus2_params, 1, 8, 5.0 + 1.0j, -5.0 + 2.0j)
        assert cmath.isfinite(kv.value)

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
        # With the one-letter words in closed form the truncated part
        # decays there too, so its bound is finite.
        assert math.isfinite(kv.tail)
        inside = sp.center(1) + sp.radius(1) * (1.0 - 1e-11)
        for call in (lambda: F.third_kind_form(inside, y), lambda: kernel_via_modes(sp, 1, 24, inside, y)):
            with pytest.raises(InvalidParameterError, match="inside an isometric disc"):
                call()

    def test_routes_share_the_pole_guards(self, genus3_params, monkeypatch):
        # Within POLE_GUARD of x, or of its one-letter image, both psi_1
        # routes refuse y with one error, and so do both omega routes, the
        # mode routes before their solve; 1e-8 off x, both psi_1 routes
        # serve values that agree within their tails.
        sp, x = genus3_params, 3.0 + 1.0j
        F = SurfaceForms(sp, policy=TruncationPolicy(max_word_length=6))
        solves = []
        solve = modes.zgetrs

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(modes, "zgetrs", counted_solve)
        for dy in (0.0, 1e-12, 1e-10):
            for call in (
                lambda: F.third_kind_form(x, x + dy),
                lambda: kernel_via_modes(sp, 1, 10, x, x + dy),
            ):
                with pytest.raises(PoleProximityError, match=r"^weight-1 kernel: .* \(word \(\)\)$"):
                    call()
            with pytest.raises(PoleProximityError, match=r"^bidifferential: .* \(word \(\)\)$"):
                bidifferential_via_modes(sp, 10, (x, x + dy))
        # On a circle the image gamma_1 x of x is a point of the domain.
        edge = sp.center(1) + sp.radius(1) * cmath.exp(0.7j)
        image = generator_map(sp, 1)(edge)
        for what, call in (
            ("weight-1 kernel", lambda: F.third_kind_form(edge, image)),
            ("weight-1 kernel", lambda: kernel_via_modes(sp, 1, 10, edge, image)),
            ("bidifferential", lambda: F.bidifferential(edge, image)),
            ("bidifferential", lambda: bidifferential_via_modes(sp, 10, (edge, image))),
        ):
            with pytest.raises(PoleProximityError, match=rf"^{what}: .* \(word \(-?1,\)\)$"):
                call()
        assert solves == []
        y = x + 1e-8
        direct, kv = F.third_kind_form(x, y), kernel_via_modes(sp, 1, 10, x, y)
        assert abs(kv.value - direct.value) <= kv.tail + direct.tail

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

    def test_close_centres_at_large_cutoffs(self):
        # Discs of radius 1e-3 at 1 and 1.02: kappa = 0.0028, yet a power
        # (w_{-a} - w_b)^{-(m+n+2)} of the centre difference 0.02 overflows
        # past M = 90.  Each factor of the factored blocks is a power of a
        # ratio below 1, so M = 100 and the largest cutoff, 2gM = 1024,
        # compute, warn of nothing and agree with M = 20 within both tails.
        sp = SchottkyParams(2, (1.0, 3.0j), (1.02, -3.0j), (1e-6, 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse = heisenberg_partition(sp, 20)
            for M in (100, modes.MAX_SYSTEM_DIM // 4):
                z = heisenberg_partition(sp, M)
                assert z.spectral_radius == pytest.approx(0.0028, abs=5e-5)
                assert abs(z.value - coarse.value) <= z.tail + coarse.tail

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
        [
            ("torus_sp", 7), ("genus2_params", 6), ("genus3_params", 5), ("conjugate", 6),
            ("draw1", 5), ("draw2", 5),
        ],
    )
    def test_matches_word_table_product_formula(self, fixture, L, request):
        # Z from the determinant against Z from the primitive classes, to
        # within the determinant's tail, the last word shell and rounding,
        # on the fixtures, a conjugate of one and two perturbed genus-3 draws.
        if fixture == "conjugate":
            sp = mobius_act_on_params(
                request.getfixturevalue("genus2_params"), MobiusMap(1.0, 0.3, 0.2, 1.0)
            )
        else:
            sp = surface(fixture, request)
        z = heisenberg_partition(sp, 30)
        log_z, shell, floor = word_table_log_z(sp, L)
        expected = cmath.exp(log_z)
        assert abs(z.value - expected) < z.tail + abs(expected) * (shell + floor)

    def test_divergent_spectrum_refused(self, fresh_system, monkeypatch):
        # R = 2I, R = nan I and R = inf I: both routes refuse at the contraction
        # gate, which is also the only check for non-finite entries.
        sp = SchottkyParams(1, (1.0,), (-1.0,), (-0.17,))
        for entry in (2.0, math.nan, math.inf):
            monkeypatch.setattr(
                modes, "mode_coupling_matrix",
                lambda sp, mm: np.diag(np.full(2 * sp.genus * mm, entry, dtype=np.complex128)),
            )
            for call in (
                lambda: kernel_via_modes(sp, 1, 8, 5.0 + 1.0j, -5.0 + 2.0j),
                lambda: heisenberg_partition(sp, 8),
            ):
                modes._system.cache_clear()
                with pytest.raises(ConvergenceError, match="contraction bound .* spectral radius"):
                    call()


def surface(name, request):
    """A fixture by name, or "draw<k>": the genus-3 fixture perturbed with seed k."""
    if name.startswith("draw"):
        perturbed = request.getfixturevalue("perturbed")
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


def circle_points(sp):
    """One point on every isometric circle, each at its own angle."""
    return [
        sp.center(a) + sp.radius(a) * cmath.exp(1j * (0.4 + 0.9 * k))
        for k, a in enumerate(sp.signed_indices)
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

    @pytest.mark.parametrize("name", SURFACES)
    @pytest.mark.parametrize("M", [2, 5, 20])
    def test_contraction_bounds_the_condition_number(self, name, M, request):
        # The rounding floors charge (1 + kappa) / (1 - kappa) for
        # cond_1(I - R); LAPACK's estimate from the same factors, a lower
        # bound on cond_1, and the condition number through the inverse
        # stay below it.
        sp = surface(name, request)
        system = modes._system(sp, M)
        kappa = system.contraction
        A = np.eye(len(system.R)) - system.R
        rcond, info = zgecon(system.lu, float(np.abs(A).sum(axis=0).max()))
        assert info == 0 and rcond > 0.0
        bound = (1.0 + kappa) / (1.0 - kappa)
        assert 1.0 / rcond <= bound
        assert np.linalg.cond(A, 1) <= bound

    def test_unbounded_truncation_reads_inf(self, genus2_params):
        # A y deep inside a disc makes the moment sums diverge: the bound is
        # infinite, not the largest float.
        sp = genus2_params
        y = sp.center(1) + 1e-3 * sp.radius(1)
        for kernel in KERNELS:
            bound = modes._truncation(
                modes._system(sp, 10), np.array([3.0 + 1.0j]), np.array([y]), kernel
            )
            assert bound.tolist() == [[math.inf]]

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
        # The entry sums of _vector_bounds against p, q, q' and R at 4M:
        # |p|^T |R| and |R| |q| whole and over the entries D with a mode
        # index >= M, and |p|^T |D| |q|; also at points on the circles.
        sp = near_touching(0.5) if name == "near" else request.getfixturevalue(name)
        R = np.abs(mode_coupling_matrix(sp, 4 * M))
        mode = np.arange(R.shape[0]) % (4 * M)
        D = np.where((mode[:, None] >= M) | (mode[None, :] >= M), R, 0.0)
        ring = circle_points(sp)
        for x, y in [*kernel_points(sp), (ring[0], ring[1]), (ring[1], ring[1])]:
            for kernel in KERNELS:
                p, q = (np.abs(v) for v in vectors(sp, 4 * M, x, y, kernel))
                pair = np.array([x]), np.array([y])
                bounds = modes._vector_bounds(modes._system(sp, M), *pair, kernel)
                rows, rows_d, cols, cols_d, both = (
                    float(np.ravel(b)[0]) * (1.0 + 8 * EPS) for b in bounds
                )
                assert (p @ R).sum() <= rows < math.inf
                assert (p @ D).sum() <= rows_d
                assert (R @ q).sum() <= cols < math.inf
                assert (D @ q).sum() <= cols_d
                assert p @ D @ q <= both < math.inf

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

    @pytest.mark.parametrize("tol", [True, math.nan, -1.0, 0.0, "x"])
    def test_cutoff_refuses_bad_tol(self, genus2_params, tol):
        # Like TruncationPolicy(tol=), not a cutoff of 1 or of the cap.
        with pytest.raises(InvalidParameterError):
            mode_cutoff_for(genus2_params, tol, 20)


class TestCertificate:
    """One truncation bound per system and kernel, over the whole closed domain."""

    @staticmethod
    def points(sp):
        """Points off the circles, on every circle, and DOMAIN_SLACK / 2 of a radius inside each."""
        ring = circle_points(sp)
        hair = [
            sp.center(a) + (1.0 - DOMAIN_SLACK / 2) * (z - sp.center(a))
            for a, z in zip(sp.signed_indices, ring)
        ]
        return np.array([x for pair in kernel_points(sp) for x in pair] + ring + hair)

    @pytest.mark.parametrize("name", SURFACES)
    @pytest.mark.parametrize("M", [2, 5, 20])
    @pytest.mark.parametrize("derivative", [False, True])  # psi_1, or omega = d psi_1 / dy
    def test_certificate_dominates(self, name, M, derivative, request):
        # At least every per-pair bound, and at least what the modes past M
        # add at 4M, P^T ((I - A)^{-1} - (I - |B|)^{-1}) Q: with A = |R| at
        # 4M, |B| its entries below M and D = A - |B|, the difference is
        # (I - A)^{-1} D (I - |B|)^{-1}, summed here without cancellation.
        sp = surface(name, request)
        pts = self.points(sp)
        system = modes._system.__wrapped__(sp, M)
        kernel = KERNELS[derivative]
        bound = modes._truncation(system, pts, pts, kernel)
        certificate = system.certificates[kernel]
        assert bound.shape == (len(pts), len(pts))
        assert (bound <= certificate).all()
        assert certificate < math.inf
        A = np.abs(mode_coupling_matrix(sp, 4 * M))
        mode = np.arange(A.shape[0]) % (4 * M)
        D = np.where((mode[:, None] >= M) | (mode[None, :] >= M), A, 0.0)
        fine = modes._system(sp, 4 * M)
        *_, P, Q = (np.abs(v) for v in modes._point_terms(fine, pts, pts, kernel))
        eye = np.eye(len(A))
        left = np.linalg.solve((eye - A).T, P.T)
        right = np.linalg.solve(eye - (A - D), Q.T)
        assert (left.T @ D @ right).max() <= certificate

    @pytest.mark.parametrize("fixture, fires", [("genus3_params", True), ("torus_sp", False)])
    def test_tails_do_not_depend_on_earlier_requests(
        self, fixture, fires, request, fresh_system, monkeypatch
    ):
        # Each call's value and tail, bit for bit, on a cold system and on
        # one warmed by other requests of both kernels.  On the genus-3
        # fixture at M = 20 the certificate is charged and the warm call
        # skips the per-pair series; on the torus, a pair on partner
        # circles, it is not.
        sp = request.getfixturevalue(fixture)
        forms = SurfaceForms(sp)
        if fires:
            x, y = 3.0 - 1.0j, -0.5 - 0.8j
        else:
            r = sp.radius(1)
            x, y = sp.center(1) + r * cmath.exp(0.7j), sp.center(-1) + r * cmath.exp(2.1j)
        u, v = kernel_points(sp)[0]
        calls = {
            "heisenberg_npoint": lambda: heisenberg_npoint(forms, [x, y], modes=20),
            "virasoro_two_point": lambda: virasoro_two_point(forms, x, y, modes=20),
            "kernel_via_modes": lambda: kernel_via_modes(sp, 1, 20, x, y),
        }
        bounds = []
        vector_bounds = modes._vector_bounds
        monkeypatch.setattr(modes, "_vector_bounds", lambda *a: bounds.append(a) or vector_bounds(*a))
        for name, call in calls.items():
            modes._system.cache_clear()
            cold = call()
            modes._system.cache_clear()
            heisenberg_npoint(forms, [u, v], modes=20)
            kernel_via_modes(sp, 1, 20, v, u)
            bounds.clear()
            warm = call()
            assert (warm.value, warm.tail) == (cold.value, cold.tail), name
            assert (not bounds) == fires, name

    @pytest.mark.parametrize("name", SURFACES)
    def test_gate_slack_points_are_admitted(self, name, request):
        # The points DOMAIN_SLACK / 2 of a radius inside each circle, whose
        # per-pair truncation test_certificate_dominates bounds by the
        # certificate: the domain gate admits them, and the orbit sums'
        # clearance puts them at or past a pole.
        sp = surface(name, request)
        forms = SurfaceForms(sp)
        for z in self.points(sp)[-2 * sp.genus:]:
            assert group.require_in_domain(sp, z, "z") == z
            assert forms._clearance(z) <= 0.0

    def test_cached_surface_skips_the_series(self, genus3_params, fresh_system, monkeypatch):
        # The first request fills the certificate; a second request at other
        # points on the cached system makes no per-pair pass.
        forms = SurfaceForms(genus3_params)
        calls = []
        vector_bounds = modes._vector_bounds
        monkeypatch.setattr(modes, "_vector_bounds", lambda *a: calls.append(a) or vector_bounds(*a))
        heisenberg_npoint(forms, [3.0 - 1.0j, -0.5 - 0.8j], modes=20)
        assert len(calls) == 1
        heisenberg_npoint(forms, [4.0 + 2.0j, -3.0 + 3.5j], modes=20)
        assert len(calls) == 1


class TestModeRoute:
    """psi_1, omega and s from the resolvent, the one-letter words split off."""

    @staticmethod
    def poincare(sp):
        """The orbit sums at a cutoff where they are far below the targets."""
        return SurfaceForms(sp, TruncationPolicy(max_word_length={1: 12, 2: 7, 3: 6}[sp.genus]))

    @staticmethod
    def points(sp):
        return [5.0 + 1.0j, 0.62 + 0.11j, -3.1 + 0.4j, *circle_points(sp)]

    @pytest.mark.parametrize("name", SURFACES)
    def test_omega_matrix_matches_poincare_sums(self, name, request):
        # Off the diagonal omega, on it s, at points on every circle too,
        # where omega(x, gamma_a x') and s meet the non-decaying one-letter
        # terms that the split sums in closed form.
        sp = surface(name, request)
        F = self.poincare(sp)
        pts = self.points(sp)
        omega = bidifferential_via_modes(sp, 20, pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                got = omega[i][j]
                ref = F.projective_connection(x) if i == j else F.bidifferential(x, y)
                assert abs(got.value - ref.value) <= got.tail + ref.tail, (i, j)
                # Not vacuous: on the torus, whose discs are the largest,
                # a pair on the two circles decays at u = 0.39 per mode.
                assert got.tail <= 1e-6 * abs(got.value), (i, j)

    @pytest.mark.parametrize("name", SURFACES)
    def test_kernel_matches_poincare_sums_on_the_circles(self, name, request):
        sp = surface(name, request)
        F = self.poincare(sp)
        pts = self.points(sp)
        for x in circle_points(sp):
            for y in pts:
                if y == x:
                    continue
                got, ref = kernel_via_modes(sp, 1, 20, x, y), F.third_kind_form(x, y)
                assert abs(got.value - ref.value) <= got.tail + ref.tail, (x, y)
                assert got.tail <= 1e-6 * abs(got.value), (x, y)

    @pytest.mark.parametrize("name", SURFACES + ["near"])
    @pytest.mark.parametrize("M", [3, 10])
    def test_mode_doubling_within_reported_tail(self, name, M, request):
        sp = near_touching(0.5) if name == "near" else surface(name, request)
        pts = self.points(sp)
        coarse, fine = bidifferential_via_modes(sp, M, pts), bidifferential_via_modes(sp, 2 * M, pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                c, f = coarse[i][j], fine[i][j]
                assert abs(f.value - c.value) <= c.tail, (i, j)
        for x in circle_points(sp):
            for y in pts[:3]:
                c, f = kernel_via_modes(sp, 1, M, x, y), kernel_via_modes(sp, 1, 2 * M, x, y)
                assert abs(f.value - c.value) <= c.tail, (x, y)

    @pytest.mark.parametrize("fixture", ["genus2_params", "genus3_params"])
    def test_covariant_under_mobius_conjugation(self, fixture, request):
        # The conjugated surface has another mode system, but omega is a
        # (1, 1)-form and s a quadratic differential: omega'(m x, m y)
        # m'(x) m'(y) = omega(x, y) and s'(m x) m'(x)^2 = s(x).
        sp = request.getfixturevalue(fixture)
        m = MobiusMap(1.0, 0.15 - 0.1j, 0.02, 1.0).normalized()
        moved = mobius_act_on_params(sp, m)
        # Isometric circles are not carried to isometric circles, so the
        # points keep off them: half a radius out.
        near = [
            sp.center(a) + 1.5 * sp.radius(a) * cmath.exp(1j * (0.4 + 0.9 * k))
            for k, a in enumerate(sp.signed_indices)
        ]
        pts = [x for x in self.points(sp)[:3] + near if in_fundamental_domain(moved, m(x))]
        assert len(pts) == 3 + 2 * sp.genus
        omega = bidifferential_via_modes(sp, 20, pts)
        image = bidifferential_via_modes(moved, 20, [m(x) for x in pts])
        slope = [complex(m.derivative(x)) for x in pts]
        for i in range(len(pts)):
            for j in range(len(pts)):
                scale = slope[i] * slope[j]
                got, ref = image[i][j], omega[i][j]
                assert abs(got.value * scale - ref.value) <= got.tail * abs(scale) + ref.tail + (
                    1e-12 * abs(ref.value)
                ), (i, j)

    def test_points_within_the_boundary_slack(self, genus2_params):
        # 1e-13 of a radius inside a circle, as the domain gate accepts:
        # finite tails, and the same values as on the circle to the tails.
        sp = genus2_params
        y = -0.4 - 0.77j
        for a in sp.signed_indices:
            on = sp.center(a) + sp.radius(a) * cmath.exp(0.3j)
            hair = sp.center(a) + sp.radius(a) * (1.0 - 1e-13) * cmath.exp(0.3j)
            near, exact = bidifferential_via_modes(sp, 12, [hair, y]), bidifferential_via_modes(sp, 12, [on, y])
            for i in range(2):
                for j in range(2):
                    assert math.isfinite(near[i][j].tail)
                    assert abs(near[i][j].value - exact[i][j].value) <= (
                        near[i][j].tail + exact[i][j].tail + 1e-11 * abs(exact[i][j].value)
                    )

    def test_partner_circle_tail_does_not_grow_with_cutoff(self, torus_sp):
        # x on C_1 and y on C_-1, where q'(y) does not decay with the mode
        # index but R S does: the rounding floor is charged on |R||S|, not
        # on |S| + |q'|, with which the tail grew 62-fold from M = 40 to
        # 160 while the value stayed the same to the last bit.  What grows
        # is the floor's 2gM ulps for the products' length, against sizes
        # far below the one-letter floors: 3% from M = 40 to 160.
        sp = torus_sp
        r = sp.radius(1)
        x, y = sp.center(1) + r * cmath.exp(0.7j), sp.center(-1) + r * cmath.exp(2.1j)
        ref = SurfaceForms(sp, TruncationPolicy(max_word_length=12)).bidifferential(x, y)
        omega = {M: bidifferential_via_modes(sp, M, [x, y])[0][1] for M in (40, 80, 160)}
        assert max(omega[80].tail, omega[160].tail) <= 1.1 * omega[40].tail
        for got in omega.values():
            assert abs(got.value - ref.value) <= got.tail + ref.tail

    def test_refusals(self, genus2_params):
        sp = genus2_params
        assert bidifferential_via_modes(sp, 8, []) == []
        with pytest.raises(InvalidParameterError, match="point 1"):
            bidifferential_via_modes(sp, 8, [3.0, sp.center(1)])
        with pytest.raises(PoleProximityError) as info:
            bidifferential_via_modes(sp, 8, [3.0, 3.0 + 1e-12])
        assert info.value.letters == ()


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


# The thread-count variables of the BLAS libraries that numpy and scipy bundle.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the median time of 50 six-point heisenberg_npoint calls on the
# cached genus-3 system at M = 20.
SIX_POINT_TIMING = """
import statistics, timeit
from schottky import SchottkyParams, TruncationPolicy
from schottky.correlators import heisenberg_npoint
from schottky.forms import SurfaceForms
sp = SchottkyParams(3, (2.2, 2.2j, 2+2j), (-2.2, -2.2j, -2-2j), (0.01+0.002j, 0.012-0.001j, 0.008))
forms = SurfaceForms(sp, TruncationPolicy(6, 20, 1e-9))
pts = [3-1j, -0.5-0.8j, 4+2j, -3+3.5j, 1.2+4j, -4.5-1j]
heisenberg_npoint(forms, pts, modes=20)
print(statistics.median(timeit.repeat(lambda: heisenberg_npoint(forms, pts, modes=20), number=1, repeat=50)))
"""


def test_blas_thread_pools_do_not_contend():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool.
    # When the mode route solved on scipy's and multiplied on numpy's, the
    # two pools contended: on a 2-vCPU x86-64 host a 6-point call took
    # about 8 ms with BLAS on its default threads against 0.35 ms pinned
    # to one, 23 times as long.  Whether this test fails on such code
    # depends on the host: it does only where the pools contend.
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join([str(Path(modes.__file__).parents[1]), base.get("PYTHONPATH", "")])
    times = {}
    for name, env in (("default", base), ("pinned", {**base, **dict.fromkeys(BLAS_THREADS, "1")})):
        child = subprocess.run(
            [sys.executable, "-c", SIX_POINT_TIMING], capture_output=True, text=True, env=env, check=True
        )
        times[name] = float(child.stdout)
    assert times["default"] < 3.0 * times["pinned"], times
