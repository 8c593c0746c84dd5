"""Pinching limits: a handle whose sewing parameter rho goes to 0 degenerates.

As rho_g -> 0 the genus-g surface tends to the genus-(g - 1) surface of
its other handles, and its period matrix and partition function approach
those of that surface at rate O(rho_g) (Fay, "Theta Functions on Riemann
Surfaces", LNM 352, ch. III; Mason and Tuite, "On genus two Riemann
surfaces formed from sewn tori", CMP 270, 2007).  So each difference
divided by rho_g tends to a constant: it must change by under 1% between
rho_g = 1e-5 and 1e-6, and the routes' tails must be far below the
differences they resolve.
"""

import cmath
import math

from schottky import SchottkyParams, TruncationPolicy, classical_from_params
from schottky.forms import SurfaceForms
from schottky.modes import heisenberg_partition

POLICY = TruncationPolicy(max_word_length=6, mode_cutoff=20)
RHOS = (1e-5, 1e-6)


def pinched(sp: SchottkyParams, rho: complex) -> SchottkyParams:
    """sp with the sewing parameter of its last handle set to rho."""
    return SchottkyParams(sp.genus, sp.w_plus, sp.w_minus, (*sp.rho[:-1], rho))


def leading(sp: SchottkyParams, genus: int) -> SchottkyParams:
    """The surface of the first ``genus`` handles of sp."""
    return SchottkyParams(genus, sp.w_plus[:genus], sp.w_minus[:genus], sp.rho[:genus])


def mod_one(z: complex) -> complex:
    """z with its real part reduced into [-1/2, 1/2): Omega's integer rule."""
    return complex((z.real + 0.5) % 1.0 - 0.5, z.imag)


def assert_linear_in_rho(ratios, tails):
    # The difference over rho settles to a constant, and each tail is well
    # below the difference it is a ratio of.
    first, second = ratios
    assert abs(first - second) < 0.01 * abs(second), ratios
    for rho, ratio, tail in zip(RHOS, ratios, tails):
        assert tail < 1e-3 * ratio * rho, (rho, ratio, tail)


def test_genus_two_pinches_to_the_torus(genus2_params):
    # Z tends to prod (1 - q_1^n)^{-1} and Omega_11 to log q_1 / 2 pi i,
    # q_1 the multiplier of the remaining handle.
    z_ratios, z_tails, omega_ratios, omega_tails = [], [], [], []
    for rho in RHOS:
        sp = pinched(genus2_params, rho)
        q = classical_from_params(sp).q[0]
        torus = 1.0 / math.prod(1.0 - q**n for n in range(1, 60))
        z = heisenberg_partition(sp, POLICY.mode_cutoff)
        periods = SurfaceForms(sp, POLICY).periods
        omega = periods.omega[0, 0] - cmath.log(q) / (2j * math.pi)
        z_ratios.append(abs(z.value - torus) / rho)
        z_tails.append(z.tail)
        omega_ratios.append(abs(mod_one(omega)) / rho)
        omega_tails.append(periods.tail)
    assert_linear_in_rho(z_ratios, z_tails)
    assert_linear_in_rho(omega_ratios, omega_tails)


def test_genus_three_pinches_to_genus_two(genus3_params):
    # Z_3 tends to Z_2 and the leading 2 x 2 block of Omega to the period
    # matrix of the genus-2 surface of the first two handles.
    two = leading(genus3_params, 2)
    z_two = heisenberg_partition(two, POLICY.mode_cutoff)
    periods_two = SurfaceForms(two, POLICY).periods
    z_ratios, z_tails, omega_ratios, omega_tails = [], [], [], []
    for rho in RHOS:
        sp = pinched(genus3_params, rho)
        z = heisenberg_partition(sp, POLICY.mode_cutoff)
        periods = SurfaceForms(sp, POLICY).periods
        block = periods.omega[:2, :2] - periods_two.omega
        z_ratios.append(abs(z.value - z_two.value) / rho)
        z_tails.append(z.tail + z_two.tail)
        omega_ratios.append(max(abs(mod_one(complex(w))) for w in block.flat) / rho)
        omega_tails.append(periods.tail + periods_two.tail)
    assert_linear_in_rho(z_ratios, z_tails)
    assert_linear_in_rho(omega_ratios, omega_tails)
