"""Exact cyclotomic arithmetic against floating-point (and mpmath) oracles."""

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybilliard.cyclo import CycloField, prime_power_factors
from polybilliard.errors import OutOfRange
from polybilliard.exactgeom import ExactFrame


def test_prime_power_factors():
    assert prime_power_factors(1) == []
    assert prime_power_factors(12) == [(2, 4), (3, 3)]
    assert prime_power_factors(4000) == [(2, 32), (5, 125)]
    assert prime_power_factors(97) == [(97, 97)]


def test_field_degree():
    assert CycloField(8).degree == 4
    assert CycloField(12).degree == 4
    assert CycloField(20).degree == 8
    assert CycloField(24).degree == 8
    assert CycloField(1).degree == 1
    assert CycloField(2).degree == 1


def test_field_instances_cached():
    assert CycloField(24) is CycloField(24)


def test_zeta_value_matches_exponential():
    for m in (1, 2, 3, 4, 8, 12, 20, 24, 60):
        f = CycloField(m)
        for j in range(m):
            want = cmath.exp(2j * cmath.pi * j / m)
            got = complex(f.zeta(j))
            assert abs(got - want) < 1e-12, (m, j)


def test_zeta_order():
    f = CycloField(24)
    z = f.zeta()
    assert z**24 == f.one()
    assert z**12 == -f.one()
    prod = f.one()
    for _ in range(24):
        prod = prod * z
    assert prod == f.one()


def test_full_root_sums_vanish():
    # the sum of all M-th roots of unity is exactly zero: a hard exercise for
    # the canonical-form reduction (no float tolerance involved)
    for m in (2, 3, 4, 6, 8, 12, 20, 24, 60, 100):
        f = CycloField(m)
        total = f.zero()
        for j in range(m):
            total = total + f.zeta(j)
        assert total.is_zero(), m


def test_minus_one_in_odd_field():
    # zeta_3 satisfies 1 + z + z^2 = 0
    f = CycloField(3)
    z = f.zeta()
    assert (f.one() + z + z * z).is_zero()


def test_i_and_quarter_turns():
    f = CycloField(8)
    i = f.i()
    assert i * i == -f.one()
    assert complex(i) == pytest.approx(1j)


def test_sqrt2_in_q_zeta8():
    f = CycloField(8)
    z = f.zeta()
    root2 = z + z.conjugate()  # 2 cos(pi/4)
    assert complex(root2) == pytest.approx(math.sqrt(2))
    assert (root2 * root2) == f.rational(2)
    assert not root2.is_rational()


def test_golden_ratio_in_q_zeta20():
    # 2 cos(pi/5) = zeta_20^2 + conj is the golden ratio: x^2 - x - 1 = 0
    f = CycloField(20)
    x = f.zeta(2) + f.zeta(2).conjugate()
    assert (x * x - x - f.one()).is_zero()
    assert complex(x) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_conj_re_im():
    f = CycloField(12)
    z = f.zeta(1) * Fraction(3, 7) + f.zeta(5) - f.rational(Fraction(1, 2))
    zc = complex(z)
    assert complex(z.conjugate()) == pytest.approx(zc.conjugate())
    assert complex(z.real) == pytest.approx(zc.real)
    assert complex(z.imag) == pytest.approx(zc.imag)
    assert (z.real + f.i() * z.imag) == z
    assert z.real.conjugate() == z.real  # real parts are self-conjugate


def test_im_requires_divisible_by_four():
    f = CycloField(6)
    with pytest.raises(OutOfRange):
        f.zeta().imag


def test_shift_is_rotation():
    f = CycloField(24)
    z = f.zeta(3) + f.rational(2)
    for j in (0, 1, 5, 23, -7):
        assert complex(z.shift(j)) == pytest.approx(complex(z) * cmath.exp(2j * cmath.pi * j / 24))


def test_inverse_exact():
    f = CycloField(24)
    rng = random.Random(7)
    for _ in range(12):
        z = f.zero()
        for _ in range(8):
            z = z + f.zeta(rng.randrange(24)) * Fraction(rng.randrange(-3, 4))
        if z.is_zero():
            continue
        w = z.inverse()
        assert (z * w) == f.one()
        assert z.inverse() is w  # solved once, then kept
        assert complex(z / z) == pytest.approx(1.0)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloField(8).zero().inverse()


def test_rational_predicates():
    f = CycloField(20)
    assert f.rational(Fraction(3, 4)).is_rational()
    assert f.rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert f.zero().as_fraction() == 0
    z = f.zeta(5)  # = i
    assert not z.is_rational()
    with pytest.raises(OutOfRange):
        z.as_fraction()
    assert (z * z * z * z).is_rational()
    assert (z * z * z * z).as_fraction() == 1


def test_float_guard_on_nonreal():
    f = CycloField(8)
    with pytest.raises(OutOfRange):
        float(f.zeta(1))
    assert float(f.rational(Fraction(5, 4))) == 1.25


def test_mpmath_oracle_high_precision():
    # spot-check canonical-form values against 50-digit arithmetic
    mpmath.mp.dps = 50
    f = CycloField(20)
    z = f.zeta(3) * Fraction(2, 3) - f.zeta(7) + f.rational(Fraction(1, 5))
    want = (
        mpmath.e ** (2j * mpmath.pi * 3 / 20) * mpmath.mpf(2) / 3
        - mpmath.e ** (2j * mpmath.pi * 7 / 20)
        + mpmath.mpf(1) / 5
    )
    got = complex(z)
    assert abs(got - complex(want)) < 1e-13


@st.composite
def element_pairs(draw):
    m = draw(st.sampled_from([4, 8, 12, 20, 24]))
    f = CycloField(m)

    def elt():
        z = f.zero()
        for _ in range(draw(st.integers(0, 4))):
            j = draw(st.integers(0, m - 1))
            num = draw(st.integers(-9, 9))
            den = draw(st.integers(1, 9))
            z = z + f.zeta(j) * Fraction(num, den)
        return z

    return elt(), elt()


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_ring_ops_match_complex(pair):
    a, b = pair
    za, zb = complex(a), complex(b)
    scale = 1.0 + abs(za) + abs(zb) + abs(za * zb)
    assert abs(complex(a + b) - (za + zb)) < 1e-12 * scale
    assert abs(complex(a - b) - (za - zb)) < 1e-12 * scale
    assert abs(complex(a * b) - (za * zb)) < 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_ring_axioms_exact(pair):
    a, b = pair
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + b) == a * b + a * b
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_canonical_zero_is_float_zero(pair):
    a, _ = pair
    if a.is_zero():
        assert abs(complex(a)) < 1e-12
    nrm = a * a.conjugate()
    assert complex(nrm).imag == pytest.approx(0.0, abs=1e-12)
    assert complex(nrm).real >= -1e-12


# The reduce-and-accumulate loops of zeta, *, shift and conj as they stood
# before they shared `CycloField._collect`: an oracle for the coefficient
# values and for their insertion order, which `complex()` sums in.


def _accumulate(f, raws):
    acc = {}
    for raw, c in raws:
        for key, sign in f._reduce_raw(raw):
            s = acc.get(key, Fraction(0)) + (c if sign > 0 else -c)
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return list(acc.items())


def oracle_zeta(f, j):
    acc = {}
    for key, sign in f._reduce_raw(f._raw_key(j)):
        acc[key] = acc.get(key, Fraction(0)) + sign
    return [(k, v) for k, v in acc.items() if v]


def oracle_mul(a, b):
    mods = a.field.moduli
    return _accumulate(a.field, (
        (tuple((x + y) % q for x, y, q in zip(ka, kb, mods)), va * vb)
        for ka, va in a.coeffs.items() for kb, vb in b.coeffs.items()
    ))


def oracle_shift(a, j):
    f = a.field
    kj = f._raw_key(j % f.order)
    return _accumulate(f, (
        (tuple((x + y) % q for x, y, q in zip(ka, kj, f.moduli)), va)
        for ka, va in a.coeffs.items()
    ))


def oracle_conj(a):
    mods = a.field.moduli
    return _accumulate(a.field, (
        (tuple((q - x) % q for x, q in zip(ka, mods)), va) for ka, va in a.coeffs.items()
    ))


@st.composite
def wide_element_pairs(draw):
    m = draw(st.sampled_from([4, 8, 12, 20, 24, 28, 36, 40, 60, 84]))
    f = CycloField(m)

    def elt():
        coeffs = {}
        for _ in range(draw(st.integers(0, 5))):
            key = tuple(draw(st.integers(0, ph - 1)) for ph in f.phis)
            coeffs[key] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        return f.element({k: v for k, v in coeffs.items() if v})

    return elt(), elt(), draw(st.integers(-2 * m, 2 * m))


@settings(max_examples=200, deadline=None)
@given(wide_element_pairs())
def test_collect_keeps_term_order(triple):
    a, b, j = triple
    f = a.field
    assert list(f.zeta(j).coeffs.items()) == oracle_zeta(f, j)
    assert list((a * b).coeffs.items()) == oracle_mul(a, b)
    assert list(a.shift(j).coeffs.items()) == oracle_shift(a, j)
    assert list(a.conjugate().coeffs.items()) == oracle_conj(a)


@pytest.mark.parametrize("m", [8, 12, 16, 20, 24, 40])
def test_every_monomial_map_sums_in_the_oracle_order(m):
    # signed permutations of the basis take a shortcut; the order must not move
    f = CycloField(m)
    rng = random.Random(m)
    for a in (k for k in range(m) if math.gcd(k, m) == 1):
        for b in range(m):
            keys = [tuple(rng.randrange(ph) for ph in f.phis) for _ in range(f.degree)]
            x = f.element({k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for k in keys})
            kb = f._raw_key(b)
            raws = ((tuple((a * e + y) % q for e, y, q in zip(ka, kb, f.moduli)), v)
                    for ka, v in x.coeffs.items())
            assert list(x._mapped(a, b).coeffs.items()) == _accumulate(f, raws), (a, b)
    signed = sum(table.signed for table in f._affine_cache.values())
    if m in (8, 16):  # a power of two: every map permutes the basis up to sign
        assert signed == len(f._affine_cache)
    else:
        assert 0 < signed < len(f._affine_cache)


_RATIONALS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
)


@settings(max_examples=300, deadline=None)
@given(wide_element_pairs(), _RATIONALS)
def test_rational_scaling_is_multiplication_by_the_rational_element(triple, r):
    x = triple[0]
    want = x * x.field.rational(r)
    for got in (x * r, r * x):
        assert (got.den, list(got.num.items())) == (want.den, list(want.num.items()))


# The inverse as it was solved before the norm identity: the matrix of
# w -> x*w on the tensor basis and a Fraction Gauss-Jordan solve of it
# against 1, read off in basis order.


def gauss_jordan_inverse(x):
    f = x.field
    basis = list(product(*(range(ph) for ph in f.phis)))
    index = {k: i for i, k in enumerate(basis)}
    n = len(basis)
    a = [[Fraction(0)] * n + [Fraction(int(k == f.zero_key))] for k in basis]
    for col, bk in enumerate(basis):
        for k, v in (x * f.element({bk: Fraction(1)})).coeffs.items():
            a[index[k]][col] = v
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [v - g * w for v, w in zip(a[r], a[col])]
    return [(k, row[n]) for k, row in zip(basis, a) if row[n]]


def _degree(m):
    return math.prod(q - q // p for p, q in prime_power_factors(m))


# every field order 4N of degree <= 32 (phi(m) >= sqrt(m/2) bounds the
# search), and two of degree 64
INVERSE_ORDERS = [m for m in range(4, 2 * 32**2 + 1, 4) if _degree(m) <= 32] + [128, 160]


@pytest.mark.parametrize("m", INVERSE_ORDERS)
def test_inverse_matches_gauss_jordan(m):
    frame = ExactFrame(m // 4)
    f = frame.field
    rng = random.Random(m)

    def side_chain():
        # a sum of sides along directions j*pi/N, as periods and diagonals are
        z = f.zero()
        for _ in range(rng.randrange(1, 4)):
            z = z + frame.unit(rng.randrange(2 * frame.N)) * Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        return z

    def random_element(terms):
        return f.element({
            tuple(rng.randrange(ph) for ph in f.phis): Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 6))
            for _ in range(terms)
        })

    u, v = side_chain(), side_chain()
    r = random_element(3 if f.degree <= 32 else 1)
    cases = [frame.cross(u, v), frame.dot(u, v), u.conjugate() * v, r, r + r.conjugate()]
    cases = [x for x in cases if x]
    assert any(x == x.conjugate() for x in cases) and any(x != x.conjugate() for x in cases)
    for x in cases:
        assert list(x.inverse().coeffs.items()) == gauss_jordan_inverse(x), x


@settings(max_examples=60, deadline=None)
@given(wide_element_pairs())
def test_inverse_times_self_is_one(triple):
    a, _, _ = triple
    if a:
        assert a * a.inverse() == 1


def test_element_drops_zero_coefficients():
    f = CycloField(12)
    z = f.element({(0, 0): Fraction(0)})
    assert z.is_zero() and z == f.zero() and repr(z) == "Cyclo(0)"
    half = f.element({(1, 0): Fraction(2, 4), (0, 1): 0, (0, 0): Fraction(-3, 6)})
    assert half == f.zeta(3) / 2 - Fraction(1, 2)
    assert list(half.coeffs.items()) == [((1, 0), Fraction(1, 2)), ((0, 0), Fraction(-1, 2))]
    assert (half.num, half.den) == ({(1, 0): 1, (0, 0): -1}, 2)


def test_equal_elements_built_by_different_routes_hash_equal():
    # the hash reads the normalized (den, num), so it needs no Fractions
    f = CycloField(24)
    z = f.zeta()
    a = (z + z.conjugate()) / 6 + Fraction(3, 4)
    b = f.element({k: Fraction(2 * v, 2) for k, v in a.coeffs.items()})
    c = (a * 4 - z) / 4 + z / 4
    d = (a * a) * a.inverse()
    assert a == b == c == d
    assert len({hash(a), hash(b), hash(c), hash(d)}) == 1
    assert hash(f.rational(Fraction(6, 4))) == hash(f.one() * 3 / 2)
    assert hash(f.zeta(6) * f.zeta(6)) == hash(f.i() * f.i()) == hash(-f.one())
    assert len({a: 1, b: 2, c: 3, d: 4}) == 1


# Fraction-dict arithmetic as it stood before the integer-numerator storage:
# one Fraction per coefficient, the same loops and the same insertion order.
# A reference for every operation's coefficient items and complex value.


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ref_neg(a):
    return {k: -v for k, v in a.items()}


def ref_mul(f, a, b):
    return dict(_accumulate(f, (
        (tuple((x + y) % q for x, y, q in zip(ka, kb, f.moduli)), va * vb)
        for ka, va in a.items() for kb, vb in b.items()
    )))


def ref_div(a, r):
    inv = Fraction(1, 1) / Fraction(r)
    return {k: v * inv for k, v in a.items()}


def ref_shift(f, a, j):
    kj = f._raw_key(j % f.order)
    return dict(_accumulate(f, (
        (tuple((x + y) % q for x, y, q in zip(ka, kj, f.moduli)), va) for ka, va in a.items()
    )))


def ref_galois(f, a, k):
    return dict(_accumulate(f, (
        (tuple((x * k) % q for x, q in zip(ka, f.moduli)), va) for ka, va in a.items()
    )))


def ref_inverse(f, x):
    conj = ref_galois(f, x, -1)
    real = x == conj
    y = x if real else ref_mul(f, x, conj)
    p = {f.zero_key: Fraction(1)}
    for k in range(2, (f.order + 1) // 2):
        if math.gcd(k, f.order) == 1:
            p = ref_mul(f, p, ref_galois(f, y, k))
    inv = ref_div(p, ref_mul(f, y, p)[f.zero_key])
    if not real:
        inv = ref_mul(f, inv, conj)
    return dict(sorted(inv.items()))


def assert_matches_reference(x, ref):
    f = x.field
    assert list(x.coeffs.items()) == list(ref.items())
    assert x.den > 0 and math.gcd(x.den, *x.num.values()) == 1
    assert all(type(v) is int and v for v in x.num.values())
    assert hash(x) == hash(f.element(ref))  # equal elements hash equal
    want = sum((float(v) * f._monomial_value(k) for k, v in ref.items()), complex(0))
    got = complex(x)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


KERNEL_ORDERS = [1, 3, 4, 8, 9, 12, 20, 24, 28, 36, 40, 60, 84]


@pytest.mark.parametrize("m", KERNEL_ORDERS)
def test_kernel_matches_fraction_reference(m):
    f = CycloField(m)
    rng = random.Random(1000 + m)

    def random_coeffs():
        # sparse or dense, small or wide denominators, sometimes rational
        terms = rng.randrange(0, 2 * f.degree + 1)
        keys = [tuple(rng.randrange(ph) for ph in f.phis) for _ in range(terms)]
        if rng.random() < 0.15:
            keys = [f.zero_key] * len(keys)
        dens = rng.choice(((1,), (1, 2), (3, 6, 9), tuple(range(1, 60))))
        return {k: Fraction(rng.randrange(-40, 41), rng.choice(dens)) for k in keys}

    for _ in range(12):
        ca, cb = random_coeffs(), random_coeffs()
        a, b = f.element(ca), f.element(cb)
        ra, rb = {k: v for k, v in ca.items() if v}, {k: v for k, v in cb.items() if v}
        assert_matches_reference(a, ra)
        r = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 30), rng.randrange(1, 30))
        j = rng.randrange(-2 * m, 2 * m)
        k = rng.choice([k for k in range(-m, m + 1) if math.gcd(k, m) == 1])
        cases = [
            (a + b, ref_add(ra, rb)),
            (a - b, ref_add(ra, ref_neg(rb))),
            (b - a, ref_add(rb, ref_neg(ra))),
            (a + a, ref_add(ra, ra)),
            (a - a, {}),
            (-a, ref_neg(ra)),
            (a * b, ref_mul(f, ra, rb)),
            (a / r, ref_div(ra, r)),
            (a * r, ref_mul(f, ra, {f.zero_key: r})),
            (a + r, ref_add(ra, {f.zero_key: r})),
            (a.shift(j), ref_shift(f, ra, j)),
            (a._galois(k), ref_galois(f, ra, k)),
            (a.conjugate(), ref_galois(f, ra, -1)),
            (a.real, ref_div(ref_add(ra, ref_galois(f, ra, -1)), 2)),
            (r * a, ref_mul(f, {f.zero_key: r}, ra)),
            (f.rational(r) * b, ref_mul(f, {f.zero_key: r}, rb)),
            # each map again on the same element: its terms now come from the cache
            (a.shift(j), ref_shift(f, ra, j)),
            (a._galois(k), ref_galois(f, ra, k)),
            (a.conjugate(), ref_galois(f, ra, -1)),
        ]
        if m % 4 == 0:
            half_diff = ref_div(ref_add(ra, ref_neg(ref_galois(f, ra, -1))), 2)
            cases.append((a.imag, ref_shift(f, half_diff, -(m // 4))))
        # a chain: every result feeds the next operation
        x, rx = a, ra
        for step in range(6):
            x, rx = (x * b + a / r).shift(j) - x, ref_add(
                ref_shift(f, ref_add(ref_mul(f, rx, rb), ref_div(ra, r)), j), ref_neg(rx)
            )
            cases.append((x, rx))
        if a and f.degree <= 12:
            cases.append((a.inverse(), ref_inverse(f, ra)))
        for got, ref in cases:
            first = complex(got)
            assert_matches_reference(got, ref)
            again = complex(got)  # kept from the first call
            assert (again.real.hex(), again.imag.hex()) == (first.real.hex(), first.imag.hex())
