"""Pinching limits: a handle whose sewing parameter rho goes to 0 degenerates.

As rho_g -> 0 the genus-g surface tends to the genus-(g - 1) surface of
its other handles, and its period matrix, partition function and forms
(nu_a, omega and s at fixed points) approach those of that surface at
rate O(rho_g) (Fay, "Theta Functions on Riemann
Surfaces", LNM 352, ch. III; Mason and Tuite, "On genus two Riemann
surfaces formed from sewn tori", CMP 270, 2007).  So each difference
divided by rho_g tends to a constant: it must change by under 1% between
rho_g = 1e-5 and 1e-6, and the routes' tails must be far below the
differences they resolve.  Pinching handle 2 of the genus-2 fixture,
the cross-ratio {z1, z2; z3, z4} = (z1-z3)(z2-z4)/((z1-z4)(z2-z3)) of
the forms module gives Omega's limits in closed form; at genus 3 the
limits are the genus-2 surface's, on the fixture and perturbed draws.
"""

import cmath
import math

import pytest

from schottky import SchottkyParams, TruncationPolicy, classical_from_params, generator_map
from schottky.correlators import LatticeSpec, heisenberg_npoint, lattice_partition, virasoro_one_point
from schottky.forms import SurfaceForms
from schottky.modes import bidifferential_via_modes, heisenberg_partition

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


def cross_ratio(z1: complex, z2: complex, z3: complex, z4: complex) -> complex:
    return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))


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


def assert_pinches_to_genus_two(sp: SchottkyParams):
    # Z_3 tends to Z_2 and the leading 2 x 2 block of Omega to the period
    # matrix of the genus-2 surface of the first two handles.
    two = leading(sp, 2)
    z_two = heisenberg_partition(two, POLICY.mode_cutoff)
    periods_two = SurfaceForms(two, POLICY).periods
    z_ratios, z_tails, omega_ratios, omega_tails = [], [], [], []
    for rho in RHOS:
        pinch = pinched(sp, rho)
        z = heisenberg_partition(pinch, POLICY.mode_cutoff)
        periods = SurfaceForms(pinch, POLICY).periods
        block = periods.omega[:2, :2] - periods_two.omega
        z_ratios.append(abs(z.value - z_two.value) / rho)
        z_tails.append(z.tail + z_two.tail)
        omega_ratios.append(max(abs(mod_one(complex(w))) for w in block.flat) / rho)
        omega_tails.append(periods.tail + periods_two.tail)
    assert_linear_in_rho(z_ratios, z_tails)
    assert_linear_in_rho(omega_ratios, omega_tails)


def test_genus_three_pinches_to_genus_two(genus3_params):
    assert_pinches_to_genus_two(genus3_params)


@pytest.mark.parametrize("seed", range(3))
def test_perturbed_genus_three_pinches_to_genus_two(genus3_params, perturbed, seed):
    assert_pinches_to_genus_two(perturbed(genus3_params, seed))


def test_genus_two_pinches_to_the_torus_of_its_first_handle(genus2_params):
    # With W_{+-1} and q the fixed points and multipliers, Omega_12 tends
    # to its one double coset left, (1/2 pi i) log{W_1, W_{-1}; w_2, w_{-2}},
    # Omega_22 - log q_2 / 2 pi i to the sum of (1/2 pi i) log{w_2, w_{-2};
    # gamma_1^k w_2, gamma_1^k w_{-2}} over 0 < |k| <= 40 (the terms decay
    # as q_1^|k|), and the correlators to the torus's.  The lattice tails
    # at the default tol 1e-9 are the size of the gap at rho = 1e-6.
    policy = TruncationPolicy(POLICY.max_word_length, POLICY.mode_cutoff, 1e-13)
    m, x, y = policy.mode_cutoff, 0.3 + 0.9j, -0.6 - 0.7j
    lattices = (LatticeSpec(((2,),)), LatticeSpec(((2, -1), (-1, 2))))

    def correlators(forms):
        return [heisenberg_npoint(forms, [x, y], modes=m), virasoro_one_point(forms, x, modes=m),
                *(lattice_partition(forms, lattice, modes=m) for lattice in lattices)]

    torus = correlators(SurfaceForms(leading(genus2_params, 1), policy))
    ratios, tails = [], []
    for rho in RHOS:
        sp = pinched(genus2_params, rho)
        cp = classical_from_params(sp)
        (W1, _), (Wm1, _), (w2, wm2) = cp.W_plus, cp.W_minus, (sp.w_plus[1], sp.w_minus[1])
        cosets = 0.0
        for gamma in (generator_map(sp, 1), generator_map(sp, -1)):
            u, v = w2, wm2
            for _ in range(40):
                u, v = gamma(u), gamma(v)
                cosets += cmath.log(cross_ratio(w2, wm2, u, v))
        forms = SurfaceForms(sp, policy)
        omega, tail = forms.periods.omega, forms.periods.tail
        gaps = [
            (omega[0, 1] - cmath.log(cross_ratio(W1, Wm1, w2, wm2)) / (2j * math.pi), tail),
            (omega[1, 1] - (cmath.log(cp.q[1]) + cosets) / (2j * math.pi), tail),
        ]
        gaps = [(abs(mod_one(complex(gap))), tail) for gap, tail in gaps]
        gaps += [(abs(a.value - b.value), a.tail + b.tail) for a, b in zip(correlators(forms), torus)]
        ratios.append([gap / rho for gap, _ in gaps])
        tails.append([tail for _, tail in gaps])
    for quantity_ratios, quantity_tails in zip(zip(*ratios), zip(*tails)):
        assert_linear_in_rho(quantity_ratios, quantity_tails)


def test_genus_two_pinches_pointwise_to_the_torus_of_its_first_handle(genus2_params):
    # nu_1(x), omega(x, y) and s(x) tend to the torus's: on the Poincare
    # route at L = 6, and omega and s on the mode route at M = 20 too (the
    # diagonal of bidifferential_via_modes is s).  The gaps over rho_2 are
    # about 2.13, 3.42 and 6.43, the same on both routes.
    x, y = 0.3 + 0.9j, -0.6 - 0.7j

    def pointwise(sp):
        forms = SurfaceForms(sp, POLICY)
        modes = bidifferential_via_modes(sp, POLICY.mode_cutoff, [x, y])
        return [forms.holomorphic_form(1, x), forms.bidifferential(x, y),
                forms.projective_connection(x), modes[0][1], modes[0][0]]

    torus = pointwise(leading(genus2_params, 1))
    ratios, tails = [], []
    for rho in RHOS:
        pinch = pointwise(pinched(genus2_params, rho))
        ratios.append([abs(a.value - b.value) / rho for a, b in zip(pinch, torus)])
        tails.append([a.tail + b.tail for a, b in zip(pinch, torus)])
    for quantity_ratios, quantity_tails in zip(zip(*ratios), zip(*tails)):
        assert_linear_in_rho(quantity_ratios, quantity_tails)
