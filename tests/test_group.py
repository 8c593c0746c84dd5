"""Core group machinery: conversions, generators, words, validity."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky import (
    INFINITY,
    ClassicalParams,
    DegenerateMapError,
    DomainExitError,
    IDENTITY_MAP,
    InvalidParameterError,
    MobiusMap,
    SchottkyParams,
    TruncationPolicy,
    apply_mobius,
    classical_from_params,
    enumerate_group,
    generator_map,
    in_fundamental_domain,
    mobius_act_on_params,
    params_from_classical,
    validate,
)
import schottky.group as group
from schottky.forms import SurfaceForms
from schottky.group import _word_count


# ---------------------------------------------------------------------------
# Coordinate conversions
# ---------------------------------------------------------------------------

def test_conversion_worked_example():
    # W = +/-1, q = 0.1 gives w = +/-11/9 and rho = -0.4/0.81 by direct
    # substitution into the closed formulas.
    cp = ClassicalParams((1.0,), (-1.0,), (0.1,))
    sp = params_from_classical(cp)
    assert sp.w_plus[0] == pytest.approx(11.0 / 9.0, abs=1e-14)
    assert sp.w_minus[0] == pytest.approx(-11.0 / 9.0, abs=1e-14)
    assert sp.rho[0] == pytest.approx(-0.4 / 0.81, abs=1e-14)


def test_conversion_satisfies_multiplier_relation():
    # Independent cross-check of the same example: the generator built from
    # the converted parameters must satisfy the classical two-point form
    # (z'-W_{-1})/(z'-W_1) * (z-W_1)/(z-W_{-1}) = q at a sample point.
    cp = ClassicalParams((1.0,), (-1.0,), (0.1,))
    sp = params_from_classical(cp)
    gamma = generator_map(sp, 1)
    z = 3.0 + 0.0j
    zp = gamma(z)
    assert zp == pytest.approx(-1.5, abs=1e-13)
    ratio = (zp + 1.0) / (zp - 1.0) * (z - 1.0) / (z + 1.0)
    assert ratio == pytest.approx(0.1, abs=1e-13)


def test_conversion_small_multiplier_limit():
    # As q -> 0 the disc centers approach the fixed points and rho -> 0
    # linearly in q.
    for q in (1e-4, 1e-6, 1e-8):
        sp = params_from_classical(ClassicalParams((1.0,), (-1.0,), (q,)))
        assert abs(sp.w_plus[0] - 1.0) <= 3.0 * q
        assert abs(sp.w_minus[0] + 1.0) <= 3.0 * q
        assert abs(sp.rho[0]) <= 5.0 * q


def test_conversion_fixed_point_swap_symmetry():
    cp = ClassicalParams((1.2 + 0.3j, -0.7j), (-0.9 + 0.1j, 2.0 + 0.0j), (0.05, 0.02 + 0.01j))
    swapped = ClassicalParams(cp.W_minus, cp.W_plus, cp.q)
    sp = params_from_classical(cp)
    sp_swapped = params_from_classical(swapped)
    for h in range(2):
        assert sp_swapped.w_plus[h] == pytest.approx(sp.w_minus[h], abs=1e-14)
        assert sp_swapped.w_minus[h] == pytest.approx(sp.w_plus[h], abs=1e-14)
        assert sp_swapped.rho[h] == pytest.approx(sp.rho[h], abs=1e-14)


def test_classical_roundtrip_worked_example():
    sp = params_from_classical(ClassicalParams((1.0,), (-1.0,), (0.1,)))
    cp = classical_from_params(sp)
    assert cp.W_plus[0] == pytest.approx(1.0, abs=1e-10)
    assert cp.W_minus[0] == pytest.approx(-1.0, abs=1e-10)
    assert cp.q[0] == pytest.approx(0.1, abs=1e-10)


def test_classical_from_real_negative_rho():
    # Real centers with small negative rho give a real hyperbolic handle:
    # real fixed points, real positive multiplier, and both fixed points
    # genuinely fixed by the generator.
    sp = SchottkyParams(1, (1.0,), (-1.0,), (-0.05,))
    cp = classical_from_params(sp)
    assert abs(cp.W_plus[0].imag) < 1e-14
    assert abs(cp.W_minus[0].imag) < 1e-14
    assert abs(cp.q[0].imag) < 1e-14
    assert cp.q[0].real > 0
    gamma = generator_map(sp, 1)
    for W in (cp.W_plus[0], cp.W_minus[0]):
        assert gamma(W) == pytest.approx(W, abs=1e-12)


def test_multiplier_is_conjugation_invariant(genus2_params):
    m = MobiusMap(1.0 + 0.02j, 0.03, -0.01 + 0.01j, 0.98)
    moved = mobius_act_on_params(genus2_params, m)
    q_before = classical_from_params(genus2_params).q
    q_after = classical_from_params(moved).q
    for qb, qa in zip(q_before, q_after):
        assert qa == pytest.approx(qb, rel=1e-10)


def test_parabolic_handle_rejected():
    # Zero discriminant: (w_1 - w_{-1})^2 + 4 rho = 0.
    sp = SchottkyParams(1, (1.0,), (-1.0,), (-1.0,))
    with pytest.raises(DegenerateMapError, match="parabolic"):
        classical_from_params(sp)
    # rho = -2 gives fixed points +-i, both of multiplier modulus 1 (elliptic).
    sp = SchottkyParams(1, (1.0,), (-1.0,), (-2.0,))
    with pytest.raises(DegenerateMapError, match="not loxodromic"):
        classical_from_params(sp)
    sp = SchottkyParams(1, (1.0,), (-1.0,), (0.0,))
    with pytest.raises(InvalidParameterError, match="rho = 0"):
        classical_from_params(sp)


def test_unit_multiplier_rejected_at_construction():
    with pytest.raises(InvalidParameterError):
        ClassicalParams((1.0,), (-1.0,), (1.0,))
    with pytest.raises(InvalidParameterError):
        ClassicalParams((1.0,), (-1.0,), (cmath.exp(0.3j),))
    with pytest.raises(InvalidParameterError, match="share a positive length"):
        ClassicalParams((1.0, 2.0), (-1.0,), (0.1,))
    with pytest.raises(InvalidParameterError, match="coincident fixed points"):
        ClassicalParams((1.0,), (1.0,), (0.1,))


@given(
    wp=st.complex_numbers(min_magnitude=0, max_magnitude=2, allow_infinity=False, allow_nan=False),
    delta=st.complex_numbers(min_magnitude=1.0, max_magnitude=3, allow_infinity=False, allow_nan=False),
    q=st.complex_numbers(min_magnitude=1e-3, max_magnitude=0.5, allow_infinity=False, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_conversion_roundtrip_property(wp, delta, q):
    # Round trip through disc coordinates recovers fixed points and
    # multiplier for any loxodromic handle, admissible or not.
    cp = ClassicalParams((wp,), (wp + delta,), (q,))
    back = classical_from_params(params_from_classical(cp))
    scale = max(1.0, abs(wp), abs(wp + delta))
    assert abs(back.W_plus[0] - cp.W_plus[0]) <= 1e-10 * scale
    assert abs(back.W_minus[0] - cp.W_minus[0]) <= 1e-10 * scale
    assert abs(back.q[0] - q) <= 1e-10


@pytest.mark.parametrize("method", ["center", "rho_signed", "radius"])
def test_signed_index_accessors_refuse_bools(genus2_params, method):
    # True and False would pass as 1 and 0: True read w_1 and rho_1.
    access = getattr(genus2_params, method)
    for bad in (True, False, 1.0, 0, 3, -3):
        with pytest.raises(InvalidParameterError):
            access(bad)
    for a in (np.int64(-2), np.int32(1)):
        assert access(a) == access(int(a))


# ---------------------------------------------------------------------------
# Generators and point evaluation
# ---------------------------------------------------------------------------

def test_generator_sends_infinity_to_opposite_center(genus2_params):
    for a in genus2_params.signed_indices:
        gamma = generator_map(genus2_params, a)
        assert gamma(INFINITY) == pytest.approx(genus2_params.center(-a), abs=1e-13)


def test_malformed_params_and_singular_maps_refused():
    with pytest.raises(InvalidParameterError, match="w_minus must have length 2, got 1"):
        SchottkyParams(2, (1.0, 2.0), (-1.0,), (0.01, 0.01))
    with pytest.raises(InvalidParameterError, match="rho = 0"):
        generator_map(SchottkyParams(1, (1.0,), (-1.0,), (0.0,)), -1)
    with pytest.raises(DegenerateMapError, match="zero determinant"):
        MobiusMap(1.0, 2.0, 2.0, 4.0).normalized()


@pytest.mark.parametrize("bad", ["3", True, None, [1]])
@pytest.mark.parametrize("make, field", [
    (lambda v: SchottkyParams(1, (v,), (-1.0,), (0.01,)), "w_plus[0]"),
    (lambda v: SchottkyParams(1, (1.0,), (v,), (0.01,)), "w_minus[0]"),
    (lambda v: SchottkyParams(1, (1.0,), (-1.0,), (v,)), "rho[0]"),
    (lambda v: ClassicalParams((v,), (-1.0,), (0.04,)), "W_plus[0]"),
    (lambda v: ClassicalParams((1.0,), (v,), (0.04,)), "W_minus[0]"),
    (lambda v: ClassicalParams((1.0,), (-1.0,), (v,)), "q[0]"),
    (lambda v: MobiusMap(v, 0.0, 0.0, 1.0), "a"),
    (lambda v: MobiusMap(1.0, v, 0.0, 1.0), "b"),
    (lambda v: MobiusMap(1.0, 0.0, v, 1.0), "c"),
    (lambda v: MobiusMap(1.0, 0.0, 0.0, v), "d"),
])
def test_constructors_refuse_non_numbers_by_field(make, field, bad):
    # The points' one number rule: a string or a bool is not "3" or 1,
    # and None or a list is refused typed, not by complex().
    with pytest.raises(InvalidParameterError, match=rf"^{re.escape(field)} = .* is not a number$"):
        make(bad)


def test_constructors_take_numbers_as_complex():
    values = (np.float64(1.5), Fraction(-3, 2), np.complex64(0.25 + 0.5j), 2, np.int64(-2))
    sp = SchottkyParams(1, values[:1], values[1:2], values[2:3])
    assert (sp.w_plus, sp.w_minus, sp.rho) == ((1.5 + 0j,), (-1.5 + 0j,), (complex(values[2]),))
    cp = ClassicalParams(values[3:4], values[4:5], (Fraction(1, 25),))
    assert (cp.W_plus, cp.W_minus, cp.q) == ((2 + 0j,), (-2 + 0j,), (0.04 + 0j,))
    m = MobiusMap(*values[1:])
    assert (m.a, m.b, m.c, m.d) == tuple(complex(v) for v in values[1:])
    assert all(type(z) is complex for z in (*sp.w_plus, *sp.rho, *cp.q, m.a, m.d))


def test_coordinate_fields_must_be_sequences():
    with pytest.raises(InvalidParameterError, match="^w_plus = 5 is not a sequence$"):
        SchottkyParams(1, 5, (1.0,), (0.1,))
    with pytest.raises(InvalidParameterError, match="^W_plus = 1 is not a sequence$"):
        ClassicalParams(1, 2, 3)


def test_non_finite_determinant_refused():
    # An infinite centre gives a generator of nan entries; normalized
    # refuses it as it refuses a zero determinant, and so the word table
    # is never grown from it.
    with pytest.raises(DegenerateMapError, match="non-finite determinant"):
        MobiusMap(math.inf, 1.0, 1.0, 0.0).normalized()
    sp = SchottkyParams(2, (math.inf, 3j), (-3.0, -3j), (0.01, 0.01))
    with pytest.raises(DegenerateMapError, match="non-finite determinant"):
        generator_map(sp, 1)
    with pytest.raises(DegenerateMapError, match="non-finite determinant"):
        enumerate_group(sp, 3)


def test_discs_list_every_signed_disc_in_generator_order(genus2_params):
    sp = genus2_params
    assert sp.discs == tuple((a, sp.center(a), sp.rho_signed(a), sp.radius(a)) for a in sp.signed_indices)
    assert [a for a, *_ in sp.discs] == [1, -1, 2, -2]


def test_discs_formed_once_outside_equality_and_hash(genus2_params):
    # The disc list is formed on first use and kept; equal parameters that
    # have or have not formed it stay equal, with one hash.
    fresh = SchottkyParams(2, genus2_params.w_plus, genus2_params.w_minus, genus2_params.rho)
    assert genus2_params.discs is genus2_params.discs
    assert fresh == genus2_params and hash(fresh) == hash(genus2_params)
    assert "discs" not in vars(fresh)


def test_generator_worked_value():
    sp = SchottkyParams(1, (1.0,), (-1.0,), (0.01,))
    gamma = generator_map(sp, 1)
    assert gamma(2.0) == pytest.approx(-0.99, abs=1e-14)


def test_generator_det_normalized(genus2_params):
    for a in genus2_params.signed_indices:
        gamma = generator_map(genus2_params, a)
        assert gamma.determinant() == pytest.approx(1.0, abs=1e-12)


def test_generator_inverse_is_opposite_index(genus2_params):
    for a in genus2_params.signed_indices:
        prod = generator_map(genus2_params, a).compose(generator_map(genus2_params, -a))
        # +1 and -1 times the identity matrix both act as the identity.
        entries = np.array([prod.a, prod.b, prod.c, prod.d])
        identity = np.array([1, 0, 0, 1])
        assert min(np.abs(entries - identity).max(), np.abs(entries + identity).max()) <= 1e-12


def test_apply_mobius_identity_and_infinity():
    assert apply_mobius(IDENTITY_MAP, 3.0 + 4.0j) == 3.0 + 4.0j
    m = MobiusMap(2.0, 1.0, 1.0, 1.0)  # det 1
    assert apply_mobius(m, INFINITY) == pytest.approx(2.0)
    assert apply_mobius(IDENTITY_MAP, INFINITY) == INFINITY
    # Pole of the map goes to infinity.
    assert apply_mobius(m, -1.0) == INFINITY


def test_apply_mobius_agrees_with_closed_form():
    sp = SchottkyParams(1, (1.0,), (-1.0,), (0.01,))
    m = generator_map(sp, 1)
    assert apply_mobius(m, 2.0) == pytest.approx(-0.99, abs=1e-14)


def test_generator_maps_exterior_into_interior(genus2_params):
    # On the isometric circle |gamma_a z - w_{-a}| |z - w_a| = |rho_a|, so
    # boundary goes to boundary and exterior points land strictly inside
    # the opposite disc.
    sp = genus2_params
    for a in sp.signed_indices:
        gamma = generator_map(sp, a)
        r = sp.radius(a)
        r_target = sp.radius(-a)
        for k in range(8):
            z_bdry = sp.center(a) + r * cmath.exp(2j * math.pi * k / 8)
            img = gamma(z_bdry)
            assert abs(img - sp.center(-a)) == pytest.approx(r_target, abs=1e-12)
            z_out = sp.center(a) + 1.7 * r * cmath.exp(2j * math.pi * (k + 0.3) / 8)
            img2 = gamma(z_out)
            assert abs(img2 - sp.center(-a)) < r_target


# ---------------------------------------------------------------------------
# Word enumeration
# ---------------------------------------------------------------------------

def test_enumerate_identity_only(genus2_params):
    words = enumerate_group(genus2_params, 0)
    assert len(words) == 1
    assert words.letters(0) == ()
    assert (words.a[0], words.b[0], words.c[0], words.d[0]) == (1, 0, 0, 1)


def test_enumerate_count_genus2_length2(genus2_params):
    words = enumerate_group(genus2_params, 2)
    assert len(words) == 17  # 1 + 4 + 12


def test_enumerate_rank_one_words(torus_params):
    words = enumerate_group(torus_params, 3)
    letters = [words.letters(i) for i in range(len(words))]
    assert letters == [
        (),
        (1,), (-1,),
        (1, 1), (-1, -1),
        (1, 1, 1), (-1, -1, -1),
    ]


def test_enumerate_order_is_length_then_lex(genus2_params):
    words = enumerate_group(genus2_params, 2)
    letters = [words.letters(i) for i in range(len(words))]
    assert letters == [
        (),
        (1,), (-1,), (2,), (-2,),
        (1, 1), (1, 2), (1, -2),
        (-1, -1), (-1, 2), (-1, -2),
        (2, 1), (2, -1), (2, 2),
        (-2, 1), (-2, -1), (-2, -2),
    ]


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6])
def test_enumerate_count_matches_closed_form(genus, length, torus_params, genus2_params, genus3_params):
    sp = {1: torus_params, 2: genus2_params, 3: genus3_params}[genus]
    assert len(enumerate_group(sp, length)) == _word_count(genus, length)


@pytest.mark.parametrize(
    "genus, length, count",
    [(3, 20, "143051147460937"), (3, 10**9, "8131516293641283255055"), (1, 10**12, "2000000000001")],
)
def test_oversize_table_refused_before_allocating(
    genus, length, count, torus_params, genus3_params
):
    # Past MAX_WORDS = 2^24 words the table is refused by name, in no time:
    # genus 3 at L = 20 would need 1.4e14 rows (numpy asked for 2 PiB), and
    # a cutoff past 64 is counted at 64.
    sp = {1: torus_params, 3: genus3_params}[genus]
    with pytest.raises(InvalidParameterError, match=f"at least {count}"):
        enumerate_group(sp, length)
    assert _word_count(3, 9) <= group.MAX_WORDS < _word_count(3, 20)


@pytest.mark.parametrize("length", [300, 1000])
def test_overflowing_table_refused_by_cutoff(length, torus_params):
    # On the torus (q = 0.04) the entries grow 5-fold per letter.  At
    # L = 1000 they reached inf and nan and the bidifferential returned
    # nan with no error; at L = 300 the table was finite but the orbit's
    # (c x + d)^2 overflowed.  Both cutoffs are refused by name, with no
    # RuntimeWarning on the way (the suite turns those into errors).
    with pytest.raises(InvalidParameterError, match=f"max_word_length = {length}:"):
        enumerate_group(torus_params, length)
    # SurfaceForms builds its table on the first sum and refuses there.
    F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=length))
    with pytest.raises(InvalidParameterError, match=f"max_word_length = {length}:"):
        F.bidifferential(2.0, -0.5 + 0.3j)
    # At the longest accepted cutoff the orbit and coset sums stay finite,
    # far out too: the largest power of an entry they form is (c x + d)^2,
    # which the entry limit keeps in range for |x| < 2**180.
    longest = 140
    while True:
        try:
            enumerate_group(torus_params, longest + 1)
        except InvalidParameterError:
            break
        longest += 1
    F = SurfaceForms(torus_params, TruncationPolicy(max_word_length=longest))
    for x in (2.0, 1000.0j, 1e4, 1e6, 1e6j):
        values = (
            F.bidifferential(x, -0.5 + 0.3j), F.projective_connection(x), F.holomorphic_form(1, x)
        )
        for value in values:
            assert math.isfinite(abs(value.value)) and math.isfinite(value.tail)


def compose_chain_table(sp, length):
    """The seven WordTable arrays built word by word in plain Python.

    Words are listed shell by shell, each shell extending the previous one
    in order by every letter but the inverse of the last; each matrix is
    the left-to-right compose product of its letters' generator maps.
    """
    gens = {a: generator_map(sp, a) for a in sp.signed_indices}
    words, shell = [()], [()]
    for _ in range(length):
        shell = [w + (a,) for w in shell for a in sp.signed_indices if not w or a != -w[-1]]
        words += shell
    row = {w: i for i, w in enumerate(words)}
    mats = {(): IDENTITY_MAP}
    for w in words[1:]:
        mats[w] = mats[w[:-1]].compose(gens[w[-1]])
    return {
        **{k: np.array([getattr(mats[w], k) for w in words]) for k in "abcd"},
        "length": np.array([len(w) for w in words]),
        "parent": np.array([row[w[:-1]] if w else 0 for w in words]),
        "last": np.array([w[-1] if w else 0 for w in words]),
    }


def test_enumerate_matrices_compose_like_words(torus_params, genus2_params, genus3_params):
    # The promise of enumerate_group: every matrix equals, bit for bit,
    # the left-to-right compose product of its letters' generator maps.
    # At genus 3, L = 6 the last frontier (3750 words) spans several
    # growth blocks; at genus 1 every word has exactly one child.
    assert _word_count(3, 5) - _word_count(3, 4) > 3 * group._GROW_BLOCK
    for sp, length in ((torus_params, 9), (genus2_params, 5), (genus3_params, 4), (genus3_params, 6)):
        table = enumerate_group(sp, length)
        expected = compose_chain_table(sp, length)
        assert len(table) == _word_count(sp.genus, length) == len(expected["a"])
        for name, arr in expected.items():
            got = getattr(table, name)
            assert got.dtype == arr.dtype
            assert got.tobytes() == arr.tobytes(), (sp.genus, length, name)
    # The product acts as the letters applied right to left.
    table = enumerate_group(genus2_params, 3)
    row = {table.letters(i): i for i in range(len(table))}
    z = 0.3 + 0.2j
    for letters in [(1, 2), (2, -1, 2), (-2, 1, 1)]:
        i = row[letters]
        m = MobiusMap(table.a[i], table.b[i], table.c[i], table.d[i])
        expected = z
        for a in reversed(letters):
            expected = generator_map(genus2_params, a)(expected)
        assert m(z) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_enumerate_is_independent_of_block_size(block, torus_params, genus2_params, genus3_params, monkeypatch):
    # Block boundaries fall everywhere in these tables; none may move a bit.
    tables = {sp: enumerate_group(sp, 5) for sp in (torus_params, genus2_params, genus3_params)}
    monkeypatch.setattr(group, "_GROW_BLOCK", block)
    for sp, reference in tables.items():
        table = enumerate_group(sp, 5)
        for name in ("a", "b", "c", "d", "length", "parent", "last"):
            assert getattr(table, name).tobytes() == getattr(reference, name).tobytes(), name


def test_word_table_layout(genus3_params):
    table = enumerate_group(genus3_params, 3)
    n = len(table)
    for name in ("a", "b", "c", "d", "length", "parent", "last"):
        arr = getattr(table, name)
        assert arr.shape == (n,)
        assert not arr.flags.writeable
    assert table.length[0] == 0 and table.parent[0] == 0 and table.last[0] == 0
    for i in range(1, n):
        letters = table.letters(i)
        assert len(letters) == table.length[i]
        assert letters[-1] == table.last[i]
        assert table.letters(int(table.parent[i])) == letters[:-1]
    assert table.letters(-1) == table.letters(n - 1) == (-3, -3, -3)
    with pytest.raises(IndexError):
        table.letters(n)


@pytest.mark.parametrize("length", range(8))
def test_first_letters_follow_from_the_row(length, torus_params, genus2_params, genus3_params):
    # The closed form against the parent chain on every row, and on a row
    # block that starts inside a shell.
    for sp in (torus_params, genus2_params, genus3_params):
        table = enumerate_group(sp, length)
        chain = table.last.copy()
        for i in range(len(table)):
            chain[i] = chain[table.parent[i]] if table.length[i] > 1 else table.last[i]
        assert np.array_equal(group._first_letters(sp.genus, 0, table.length), chain)
        s = len(table) // 3
        assert np.array_equal(group._first_letters(sp.genus, s, table.length[s:]), chain[s:])


def test_enumerate_is_deterministic(genus2_params):
    first = enumerate_group(genus2_params, 3)
    second = enumerate_group(genus2_params, 3)
    for name in ("a", "b", "c", "d", "length", "parent", "last"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

def test_validate_margin_worked_example():
    sp = SchottkyParams(1, (1.0,), (-1.0,), (0.01,))
    report = validate(sp)
    assert report.ok
    assert len(report.pairs) == 1
    assert report.pairs[0].margin == pytest.approx(1.8, abs=1e-12)


def test_validate_boundary_contact_fails():
    # Separation 0.2 equals the radius sum 0.2: the strict inequality fails.
    sp = SchottkyParams(1, (0.1,), (-0.1,), (0.01,))
    report = validate(sp)
    assert not report.ok
    assert len(report.violations) == 1


def test_validate_names_offending_pair():
    sp = SchottkyParams(
        2,
        (1.35, 0.2j),
        (-1.35, -0.2j),
        (0.018, 0.09),
    )
    report = validate(sp)
    assert not report.ok
    assert {(v.index_a, v.index_b) for v in report.violations} == {(2, -2)}


def test_validate_fixture_sets(torus_params, genus2_params, genus3_params):
    for sp in (torus_params, genus2_params, genus3_params):
        report = validate(sp)
        assert report.ok
        assert min(p.margin for p in report.pairs) > 1.0


def test_require_admissible_names_every_reason():
    group.require_admissible(SchottkyParams(1, (1.0,), (-1.0,), (0.01,)))
    overlap = SchottkyParams(2, (1.35, 0.2j), (-1.35, -0.2j), (0.018, 0.09))
    with pytest.raises(InvalidParameterError, match=r"admissible: pair \(2,-2\) margin -0\.2$"):
        group.require_admissible(overlap)
    no_rho = SchottkyParams(2, (1.35, 1.4j), (-1.35, -1.4j), (0.018, 0.0))
    with pytest.raises(InvalidParameterError, match="admissible: handle 2: rho = 0$"):
        group.require_admissible(no_rho)


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.inf), complex(0.0, -math.inf)])
@pytest.mark.parametrize("field", ["w_plus", "w_minus", "rho"])
def test_validate_names_non_finite_coordinates(genus2_params, field, bad):
    # |inf - w| beats every radius sum, so only the finiteness scan can
    # refuse an infinite centre.
    coordinates = {name: list(getattr(genus2_params, name)) for name in ("w_plus", "w_minus", "rho")}
    coordinates[field][1] = bad
    sp = SchottkyParams(2, **coordinates)
    report = validate(sp)
    assert not report.ok
    assert f"{field}[1] = {bad} is not finite" in report.issues
    with pytest.raises(InvalidParameterError, match=re.escape(f"{field}[1] = {bad} is not finite")):
        group.require_admissible(sp)


@pytest.mark.parametrize(
    "z", [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0), complex(1.0, math.nan)]
)
def test_require_in_domain_refuses_non_finite_points(genus2_params, z):
    with pytest.raises(InvalidParameterError, match="^y = .* is not finite$"):
        group.require_in_domain(genus2_params, z, "y")
    with pytest.raises(InvalidParameterError, match="^w = .* is not finite$"):
        group.require_finite(z, "w")


@pytest.mark.parametrize("z", ["3", "3+1j", "a", None, True, False, np.bool_(True), [1.0], (1.0,)])
def test_require_finite_refuses_non_numbers(genus2_params, z):
    # Like require_integer and require_positive: a typed error naming the
    # argument, and no bool passes as 0 or 1.
    with pytest.raises(InvalidParameterError, match="^w = .* is not a number$"):
        group.require_finite(z, "w")
    with pytest.raises(InvalidParameterError, match="^x = .* is not a number$"):
        group.require_in_domain(genus2_params, z, "x")


@pytest.mark.parametrize("z", ["3", "abc", None, True, np.bool_(False), [1], (1.0,)])
def test_point_at_infinity_test_refuses_non_numbers(genus2_params, z):
    # The sphere's point tests take numbers only, by require_finite's rule:
    # a string or a bool is not a point, and nothing escapes untyped.
    m = MobiusMap(1.0, 2.0, 0.0, 1.0)
    for call in (group.is_infinity, lambda z: in_fundamental_domain(genus2_params, z),
                 lambda z: apply_mobius(m, z)):
        with pytest.raises(InvalidParameterError, match="^z = .* is not a number$"):
            call(z)


def test_point_at_infinity_test_accepts_numbers(genus2_params):
    m = MobiusMap(1.0, 2.0, 0.0, 1.0)
    for z in (np.float64(3.0), np.int64(3), np.complex128(3.0)):
        assert in_fundamental_domain(genus2_params, z)
        assert apply_mobius(m, z) == 5.0
    for z in (INFINITY, np.complex128(complex(math.nan, 0.0)), -math.inf):
        assert group.is_infinity(z) and in_fundamental_domain(genus2_params, z)
        assert apply_mobius(m, z) == INFINITY


@pytest.mark.parametrize("z", [3, 2.5, 1 - 2j, np.int64(3), np.float32(2.5), np.complex128(1 - 2j)])
def test_require_finite_accepts_numbers(z):
    assert group.require_finite(z, "w") == complex(z)


def test_require_in_domain_slack(genus2_params):
    # One part in 1e12 of a radius inside the circle still counts as on it.
    sp = genus2_params
    edge = sp.center(-2) + sp.radius(-2) * (1.0 - 1e-13) * 1j
    assert group.require_in_domain(sp, edge, "x") == edge
    with pytest.raises(InvalidParameterError, match="^x = .* inside an isometric disc$"):
        group.require_in_domain(sp, sp.center(-2) + sp.radius(-2) * (1.0 - 1e-11), "x")


# ---------------------------------------------------------------------------
# Mobius action on parameters
# ---------------------------------------------------------------------------

def test_action_by_identity(genus2_params):
    out = mobius_act_on_params(genus2_params, IDENTITY_MAP)
    for x, y in zip(out.w_plus + out.w_minus + out.rho,
                    genus2_params.w_plus + genus2_params.w_minus + genus2_params.rho):
        assert x == pytest.approx(y, abs=1e-13)


def test_action_by_translation(genus2_params):
    shift = 0.4 - 0.3j
    out = mobius_act_on_params(genus2_params, MobiusMap(1.0, shift, 0.0, 1.0))
    for h in range(2):
        assert out.w_plus[h] == pytest.approx(genus2_params.w_plus[h] + shift, abs=1e-12)
        assert out.w_minus[h] == pytest.approx(genus2_params.w_minus[h] + shift, abs=1e-12)
        assert out.rho[h] == pytest.approx(genus2_params.rho[h], abs=1e-12)


def test_action_matches_conjugated_generator(genus2_params):
    # The transformed parameters must generate the conjugated group:
    # gamma'_a = m gamma_a m^{-1} as transformations.
    m = MobiusMap(1.1, 0.2j, 0.05, 0.9).normalized()
    out = mobius_act_on_params(genus2_params, m)
    for a in genus2_params.signed_indices:
        lhs = generator_map(out, a)
        rhs = m.compose(generator_map(genus2_params, a)).compose(m.inverse())
        z = 5.0 + 1.0j
        assert lhs(z) == pytest.approx(rhs(z), rel=1e-10)


def test_action_domain_exit_raises(genus2_params):
    # At genus 1 the disc condition is |trace| > 2, a conjugation
    # invariant, so no Mobius map can break it; cross-handle separations
    # are not invariant.  An inversion with pole just outside handle 1's
    # disc inflates that pair until it collides with handle 2.
    bad = MobiusMap(0.0, 1.0, 1.0, -1.25)
    with pytest.raises(DomainExitError) as err:
        mobius_act_on_params(genus2_params, bad)
    assert err.value.report is not None
    assert not err.value.report.ok
    assert err.value.report.violations


small = st.floats(-0.04, 0.04)


def test_action_sending_a_centre_to_infinity_raises():
    # (0, -1; 1, 1/2) sends -1/2 to infinity; with w = +-1 and rho = -3/4,
    # den = (1 + 1/2)(-1 + 1/2) + 3/4 is exactly 0.
    sp = SchottkyParams(1, (1.0,), (-1.0,), (-0.75,))
    assert validate(sp).ok
    with pytest.raises(DegenerateMapError, match="sent to infinity"):
        mobius_act_on_params(sp, MobiusMap(0.0, -1.0, 1.0, 0.5))


@given(a1=small, b1=small, c1=small, d1=small, a2=small, b2=small, c2=small, d2=small)
@settings(max_examples=60, deadline=None)
def test_action_composition_law(a1, b1, c1, d1, a2, b2, c2, d2, genus2_params):
    m1 = MobiusMap(1.0 + a1, b1, c1, 1.0 + d1)
    m2 = MobiusMap(1.0 + a2, b2, c2, 1.0 + d2)
    via_steps = mobius_act_on_params(mobius_act_on_params(genus2_params, m1), m2)
    at_once = mobius_act_on_params(genus2_params, m2.compose(m1))
    for x, y in zip(via_steps.w_plus + via_steps.w_minus + via_steps.rho,
                    at_once.w_plus + at_once.w_minus + at_once.rho):
        assert x == pytest.approx(y, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Fundamental domain membership
# ---------------------------------------------------------------------------

def test_fundamental_domain_membership(genus2_params):
    sp = genus2_params
    assert in_fundamental_domain(sp, 0.0)
    assert in_fundamental_domain(sp, INFINITY)
    assert not in_fundamental_domain(sp, sp.center(1))
    # Boundary counts as inside.
    z_bdry = sp.center(1) + sp.radius(1)
    assert in_fundamental_domain(sp, z_bdry)
    z_in = sp.center(1) + 0.5 * sp.radius(1)
    assert not in_fundamental_domain(sp, z_in)


# ---------------------------------------------------------------------------
# Truncation policy plumbing
# ---------------------------------------------------------------------------

def test_truncation_policy_validation():
    TruncationPolicy(max_word_length=0, mode_cutoff=1, tol=1e-12)
    with pytest.raises(InvalidParameterError):
        TruncationPolicy(max_word_length=-1)
    with pytest.raises(InvalidParameterError):
        TruncationPolicy(mode_cutoff=0)
    with pytest.raises(InvalidParameterError):
        TruncationPolicy(tol=0.0)


@pytest.mark.parametrize("tol", [True, np.bool_(True), "1e-9", 1e-9 + 0j, math.nan, -1e-9, 0])
def test_truncation_policy_refuses_non_positive_real_tol(tol):
    with pytest.raises(InvalidParameterError, match="tol"):
        TruncationPolicy(tol=tol)


def test_truncation_policy_tol_is_a_float():
    for tol in (1, np.float32(0.5), np.int64(2)):
        policy = TruncationPolicy(tol=tol)
        assert type(policy.tol) is float and policy.tol == float(tol)
