"""Shared parameter sets for the test suite.

All fixtures sit comfortably inside the admissible region (disc
separation margins above 1.5) so truncated orbit sums converge fast and
the suites stay cheap.
"""

import cmath
import math

import numpy as np
import pytest

from schottky import ClassicalParams, SchottkyParams, params_from_classical
from schottky.group import in_fundamental_domain, validate


@pytest.fixture(scope="session")
def torus_params() -> SchottkyParams:
    """Genus 1, real fixed points +/-1, multiplier q = 0.04."""
    return params_from_classical(ClassicalParams((1.0,), (-1.0,), (0.04,)))


@pytest.fixture(scope="session")
def genus2_params() -> SchottkyParams:
    """Genus 2 cross layout: one handle on each axis, mildly complex rho."""
    return SchottkyParams(
        2,
        (1.35 + 0.0j, 1.4j),
        (-1.35 + 0.0j, -1.4j),
        (0.018 + 0.004j, 0.015 - 0.003j),
    )


@pytest.fixture(scope="session")
def genus3_params() -> SchottkyParams:
    """Genus 3: handles on the axes and the diagonal, small rho."""
    return SchottkyParams(
        3,
        (2.2 + 0.0j, 2.2j, 2.0 + 2.0j),
        (-2.2 + 0.0j, -2.2j, -2.0 - 2.0j),
        (0.01 + 0.002j, 0.012 - 0.001j, 0.008 + 0.0j),
    )


def _perturbed(sp, seed, jitter=0.2):
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


@pytest.fixture(scope="session")
def perturbed():
    """The function perturbed(sp, seed, jitter=0.2): a seeded random admissible draw near sp."""
    return _perturbed
