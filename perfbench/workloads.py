"""Seeded inputs, workloads and correctness checks for the schottky benchmark.

Every workload is built on the genus-3 fixture of ``tests/conftest.py``.
Inputs come from ``random.Random(seed)`` and are generated before timing
starts; the library sees only these generated inputs.  A request is one
closed-loop unit of work.  It returns an :class:`Answer` (the value, its
reported tail and, for two-route requests, the second route's value and
tail); :func:`classify` turns an answer into pass or fail against the
workload's relative accuracy target.

Requests are grouped in rounds that hold the workload's full mix once,
and a run always measures whole rounds, so the mix is the same in every
run whatever the number of rounds.

Library calls go through module attributes (``correlators.heisenberg_npoint``
rather than a name bound at import time) so that the wrappers installed
by :mod:`tracing` see them.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import schottky.correlators as correlators
import schottky.forms as forms
import schottky.modes as modes
from schottky.group import (
    ClassicalParams,
    SchottkyParams,
    TruncationPolicy,
    in_fundamental_domain,
    params_from_classical,
    validate,
)

# The genus-3 fixture of tests/conftest.py.
FIXTURE = SchottkyParams(
    3,
    (2.2 + 0.0j, 2.2j, 2.0 + 2.0j),
    (-2.2 + 0.0j, -2.2j, -2.0 - 2.0j),
    (0.01 + 0.002j, 0.012 - 0.001j, 0.008 + 0.0j),
)

# Genus-1 anchor: fixed points +-1, multiplier q (the tests' torus).
TORUS_Q = 0.04

# Relative jitter of every disc centre and sewing parameter in perturbed
# surfaces.  At this size the seed's period-matrix path search fails on
# roughly one surface in eight, which the lattice workload keeps.
PERTURBATION = 0.2

# Insertion points: inside |z| <= POINT_RADIUS, at least POINT_CLEARANCE
# from every disc centre (about ten disc radii) and POINT_SEPARATION from
# each other and from the origin (the auxiliary pole of the third-kind
# normalization).
POINT_RADIUS = 6.0
POINT_CLEARANCE = 1.0
POINT_SEPARATION = 0.5

# Relative rounding floor under every reference comparison.
ROUNDING_FLOOR = 1e-12

LATTICES = {
    "A2": correlators.LatticeSpec(((2, -1), (-1, 2))),
    "A3": correlators.LatticeSpec(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    "D4": correlators.LatticeSpec(
        ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    ),
}

# The lattice workload keeps its moduli fixed and lets the run seed
# rotate each surface about the origin.  A rotation leaves the period
# matrix unchanged, so the seed moves coordinates and request order but
# not the theta sum's lattice-point count, which jumps with Im(Omega)
# (D4 at genus 3 takes about 4 s or 8 s on either side of one jump).  The
# moduli are surfaces of the perturbation stream with this seed: the
# first three, and number 8, the first on which the period-matrix path
# search of the initial code raises PathError (numbers 11 and 14 do too).
LATTICE_MODULI_SEED = 0
LATTICE_MODULI = (0, 1, 2, 8)


# ---------------------------------------------------------------------------
# Answers and their classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Answer:
    """A request's value and tail, plus the second route's when there is one."""

    value: complex
    tail: float
    route_value: complex | None = None
    route_tail: float = 0.0


@dataclass(frozen=True)
class Verdict:
    """Outcome of one request.

    ``reason`` is None for a pass.  ``silent`` marks a wrong value whose
    reported tails claimed the target accuracy: the library gave a wrong
    answer without saying so, which makes the run's ``correct`` false.
    """

    reason: str | None
    silent: bool = False

    @property
    def ok(self) -> bool:
        return self.reason is None


def agrees(a: complex, a_tail: float, b: complex, b_tail: float) -> bool:
    """True when two values differ by no more than their tails plus rounding."""
    floor = ROUNDING_FLOOR * max(abs(a), abs(b))
    return abs(a - b) <= a_tail + b_tail + floor


def classify(answer: Answer, target: float, fine: Answer | None = None) -> Verdict:
    """Pass or fail one answer against a relative accuracy target.

    A request fails when a reported tail exceeds ``target`` times its
    value, when its two routes disagree beyond their tails, or when it
    misses the finer-policy reference ``fine`` beyond both tails.
    """
    claims = answer.tail <= target * abs(answer.value)
    if answer.route_value is not None:
        claims = claims and answer.route_tail <= target * abs(answer.route_value)
    if answer.route_value is not None and not agrees(
        answer.value, answer.tail, answer.route_value, answer.route_tail
    ):
        return Verdict("routes disagree", silent=claims)
    if fine is not None and not agrees(answer.value, answer.tail, fine.value, fine.tail):
        return Verdict("misses finer-policy reference", silent=claims)
    if not claims:
        return Verdict("tail above target")
    return Verdict(None)


# ---------------------------------------------------------------------------
# Seeded input generation
# ---------------------------------------------------------------------------

def _jitter(rng: random.Random, scale: float) -> complex:
    """Uniform point of the disc of radius ``scale``."""
    r = scale * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def perturbed_surface(rng: random.Random) -> SchottkyParams:
    """The fixture with every centre and rho jittered by PERTURBATION relative.

    Draws again until the parameters pass ``validate`` and the origin is
    exterior to every disc; at this jitter the first draw nearly
    always does.
    """
    base = FIXTURE
    while True:
        sp = SchottkyParams(
            base.genus,
            tuple(w + abs(w) * _jitter(rng, PERTURBATION) for w in base.w_plus),
            tuple(w + abs(w) * _jitter(rng, PERTURBATION) for w in base.w_minus),
            tuple(r * (1.0 + _jitter(rng, PERTURBATION)) for r in base.rho),
        )
        if validate(sp).ok and in_fundamental_domain(sp, 0.0):
            return sp


def rotated(sp: SchottkyParams, angle: float) -> SchottkyParams:
    """The same surface in coordinates rotated by ``angle`` about the origin."""
    u = cmath.exp(1j * angle)
    return SchottkyParams(
        sp.genus,
        tuple(u * w for w in sp.w_plus),
        tuple(u * w for w in sp.w_minus),
        tuple(u * u * r for r in sp.rho),
    )


def draw_points(rng: random.Random, sp: SchottkyParams, n: int) -> tuple[complex, ...]:
    """n insertion points in the fundamental domain with a margin."""
    centres = [sp.center(a) for a in sp.signed_indices]
    pts: list[complex] = []
    while len(pts) < n:
        z = complex(rng.uniform(-POINT_RADIUS, POINT_RADIUS),
                    rng.uniform(-POINT_RADIUS, POINT_RADIUS))
        if abs(z) > POINT_RADIUS or abs(z) < POINT_SEPARATION:
            continue
        if any(abs(z - c) < POINT_CLEARANCE for c in centres):
            continue
        if any(abs(z - p) < POINT_SEPARATION for p in pts):
            continue
        pts.append(z)
    return tuple(pts)


# ---------------------------------------------------------------------------
# Requests and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One unit of closed-loop work: its kind and its generated inputs."""

    kind: str
    inputs: tuple


@dataclass
class Workload:
    """A named request mix with its accuracy target.

    ``build`` constructs the fixed surfaces (the part of set-up the
    library pays for).  ``rounds`` holds the pre-generated requests, one
    list per round.  ``call`` does a request's timed work; ``fine`` makes
    the same request at the finer policy (word length L+1, mode cutoff
    2M) and runs, after timing, on ``check_sample`` seeded requests.
    """

    name: str
    target: float
    build: Callable[[], None]
    rounds: list[list[Request]]
    call: Callable[[Request], Answer]
    fine: Callable[[Request], Answer]
    check_sample: int


@dataclass(frozen=True)
class Size:
    """Workload dimensions; ``FULL`` is the benchmark, ``TINY`` the tests'."""

    word_length: int
    modes: int
    lattice_word_length: int
    lattice_moduli: tuple[int, ...]
    lattices: tuple[str, ...]
    rounds: int
    lattice_rounds: int


# Pre-generated rounds: over ten times what a run uses at the seed.
FULL = Size(6, 20, 4, LATTICE_MODULI, ("A2", "A3", "D4"), 4000, 20)
TINY = Size(2, 4, 3, (0,), ("A2",), 40, 4)


def _fine_policy(policy: TruncationPolicy) -> TruncationPolicy:
    return TruncationPolicy(policy.max_word_length + 1, 2 * policy.mode_cutoff, policy.tol)


class _Surface:
    """SurfaceForms at the workload policy, and at the finer one on demand."""

    def __init__(self, sp: SchottkyParams, policy: TruncationPolicy):
        self.sp = sp
        self.policy = policy
        self.forms: forms.SurfaceForms | None = None
        self._fine: forms.SurfaceForms | None = None

    def build(self) -> None:
        self.forms = forms.SurfaceForms(self.sp, self.policy)

    def fine(self) -> forms.SurfaceForms:
        if self._fine is None:
            self._fine = forms.SurfaceForms(self.sp, _fine_policy(self.policy))
        return self._fine


def _value(result) -> Answer:
    return Answer(complex(result.value), float(result.tail))


def _pair(first, second) -> Answer:
    return Answer(complex(first.value), float(first.tail),
                  complex(second.value), float(second.tail))


CORRELATOR_KINDS = {
    "heisenberg2": 2, "heisenberg4": 4, "heisenberg6": 6,
    "virasoro1": 1, "virasoro2": 2, "kernel1": 2, "kernel2": 2,
}


def _correlate(kind: str, surface: forms.SurfaceForms, m: int, pts: tuple) -> Answer:
    """One correlator request on ``surface`` with mode cutoff ``m``.

    The kernel kinds pair the mode resolvent with the orbit sum for the
    same kernel; the pair is one request and its routes must agree.
    """
    if kind.startswith("heisenberg"):
        return _value(correlators.heisenberg_npoint(surface, pts, modes=m))
    if kind == "virasoro1":
        return _value(correlators.virasoro_one_point(surface, pts[0], modes=m))
    if kind == "virasoro2":
        return _value(correlators.virasoro_two_point(surface, pts[0], pts[1], modes=m))
    x, y = pts
    if kind == "kernel1":
        return _pair(modes.kernel_via_modes(surface.sp, 1, m, x, y),
                     surface.third_kind_form(x, y))
    if kind == "kernel2":
        return _pair(modes.kernel_via_modes(surface.sp, 2, m, x, y),
                     surface.recursion_kernel(x, y, 2))
    raise ValueError(f"unknown request kind {kind!r}")


def g3_correlators(seed: int, size: Size = FULL) -> Workload:
    """One fixed surface, fresh seeded points per request, every kind per round."""
    rng = random.Random(seed)
    surf = _Surface(FIXTURE, TruncationPolicy(size.word_length, size.modes, 1e-9))
    m = size.modes
    rounds = [
        [Request(kind, draw_points(rng, FIXTURE, n)) for kind, n in CORRELATOR_KINDS.items()]
        for _ in range(size.rounds)
    ]
    return Workload(
        "g3-correlators", 1e-9, surf.build, rounds,
        call=lambda r: _correlate(r.kind, surf.forms, m, r.inputs),
        fine=lambda r: _correlate(r.kind, surf.fine(), 2 * m, r.inputs),
        check_sample=2 * len(CORRELATOR_KINDS),
    )


def g3_sweep(seed: int, size: Size = FULL) -> Workload:
    """A fresh perturbed surface per request, built and used once."""
    rng = random.Random(seed)
    policy = TruncationPolicy(size.word_length, size.modes, 1e-9)

    def run(request: Request, pol: TruncationPolicy) -> Answer:
        sp, pts = request.inputs
        surface = forms.SurfaceForms(sp, pol)
        return _value(correlators.heisenberg_npoint(surface, pts, modes=pol.mode_cutoff))

    rounds = []
    for _ in range(size.rounds):
        sp = perturbed_surface(rng)
        rounds.append([Request("heisenberg2", (sp, draw_points(rng, sp, 2)))])
    return Workload(
        "g3-sweep", 1e-9, lambda: None, rounds,
        call=lambda r: run(r, policy),
        fine=lambda r: run(r, _fine_policy(policy)),
        # Each check builds a surface at L+1, about 1.7 s.
        check_sample=2,
    )


def g3_lattice(seed: int, size: Size = FULL) -> Workload:
    """Fixed moduli, seeded rotations; every lattice on every surface per round."""
    rng = random.Random(seed)
    stream = random.Random(LATTICE_MODULI_SEED)
    moduli = [perturbed_surface(stream) for _ in range(max(size.lattice_moduli) + 1)]
    policy = TruncationPolicy(size.lattice_word_length, size.modes, 1e-9)
    surfaces = [
        _Surface(rotated(moduli[k], 2.0 * math.pi * rng.random()), policy)
        for k in size.lattice_moduli
    ]
    m = size.modes

    def build() -> None:
        for surf in surfaces:
            surf.build()

    pairs = [(i, name) for i in range(len(surfaces)) for name in size.lattices]
    rounds = []
    for _ in range(size.lattice_rounds):
        order = pairs[:]
        rng.shuffle(order)
        rounds.append([Request(name, (i, name)) for i, name in order])
    return Workload(
        "g3-lattice", 1e-3, build, rounds,
        call=lambda r: _value(correlators.lattice_partition(
            surfaces[r.inputs[0]].forms, LATTICES[r.kind], modes=m)),
        fine=lambda r: _value(correlators.lattice_partition(
            surfaces[r.inputs[0]].fine(), LATTICES[r.kind], modes=2 * m)),
        # Each check recomputes a period matrix at L+1, about 3 s.
        check_sample=1,
    )


WORKLOADS = {
    "g3-correlators": g3_correlators,
    "g3-sweep": g3_sweep,
    "g3-lattice": g3_lattice,
}


# ---------------------------------------------------------------------------
# Genus-1 closed-form anchors
# ---------------------------------------------------------------------------

def torus() -> SchottkyParams:
    return params_from_classical(ClassicalParams((1.0,), (-1.0,), (TORUS_Q,)))


def anchors() -> dict[str, str | None]:
    """Genus-1 closed forms at q = TORUS_Q; maps each anchor to None or a reason.

    - Omega = log q / 2 pi i;
    - Z = prod (1 - q^n)^{-1};
    - the rank-1 lattice with Gram (2): theta Z = (sum_n q^{n^2}) Z;
    - the weight-1 kernel through the modes against the orbit sum.
    """
    q = TORUS_Q
    sp = torus()
    euler = 1.0 / math.prod(1.0 - q**n for n in range(1, 200))
    theta = sum(q ** (n * n) for n in range(-20, 21))
    out: dict[str, str | None] = {}

    def check(name: str, compute: Callable[[], Answer], ref: complex | None = None) -> None:
        try:
            got = compute()
        except Exception as exc:  # every library failure is a finding here
            out[name] = f"{type(exc).__name__}: {exc}"
            return
        if got.route_value is not None:
            ref = got.route_value
            ok = agrees(got.value, got.tail, ref, got.route_tail)
        else:
            ok = agrees(got.value, got.tail, ref, 0.0)
        out[name] = None if ok else f"value {got.value} vs reference {ref}, tail {got.tail:.3g}"

    surface = forms.SurfaceForms(sp, TruncationPolicy(8, 20, 1e-9))
    check("omega", lambda: _omega_entry(surface), cmath.log(q) / (2j * math.pi))
    check("partition", lambda: _value(modes.heisenberg_partition(sp, 20)), euler)
    check(
        "lattice",
        lambda: _value(correlators.lattice_partition(surface, correlators.LatticeSpec(((2,),)))),
        theta * euler,
    )
    x, y = 3.0 + 1.0j, -2.0 + 2.0j
    check(
        "kernel1",
        lambda: _pair(modes.kernel_via_modes(sp, 1, 20, x, y), surface.third_kind_form(x, y)),
    )
    return out


def _omega_entry(surface: forms.SurfaceForms) -> Answer:
    result = surface.period_matrix()
    return Answer(complex(result.omega[0, 0]), float(result.tail))
