"""Exact arithmetic in the cyclotomic field Q(zeta_M).

Elements are stored in the tensor basis coming from the prime-power
factorization M = q_1 * ... * q_r (q_i = p_i^e_i): a basis monomial is a
tuple (a_1, ..., a_r) with 0 <= a_i < phi(q_i), standing for the product of
zeta_{q_i}^{a_i}.  This basis is canonical — an element is zero if and only
if its coefficient dict is empty — which is what makes exact geometric
predicates (closure, collinearity, rationality of period ratios) decidable.

A planar vector is represented by a single field element z = x + i*y, so the
whole 2D geometry of the package reduces to field arithmetic; elements speak
Python's complex protocol (`complex(z)`, `z.conjugate()`, `z.real`, `z.imag`),
so that geometry runs unchanged on Python complex numbers.  The field order
used downstream is always M = 4N, which keeps i = zeta^{M/4} and all side
directions e^{i*pi*j/N} = zeta^{2j} exactly representable.

An element stores integer numerators (basis monomial -> nonzero int) over one
positive int denominator, normalized so that gcd(den, *numerators) == 1.
Equal elements therefore have equal representations, and ring operations
add and multiply plain ints, reducing once per result.

Rotation, conjugation and the Galois maps are monomial maps
zeta^e -> zeta^(a*e + b) with a coprime to M: (1, j) multiplies by zeta^j,
(k, 0) is zeta -> zeta^k and (-1, 0) is conjugation.  Each field caches,
per map and basis monomial, the reduced signed terms of the image, so
applying a map costs one dict lookup per monomial.  The terms are summed
in the element's key order exactly as `CycloField._collect` sums them, so
the result holds its monomials in the same order; that order matters,
because `complex()` sums in it.  A map that only permutes the basis up to
sign moves each numerator to its image's key in that same order.

The shortcuts keep that key-order rule too.  Multiplying by an int or a
Fraction scales the numerators in their key order, which is what the
product with the rational element gives; each field makes its roots of
unity zeta^j once and hands out the same immutable element after.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from operator import add, mod
from types import MappingProxyType

from .errors import OutOfRange

__all__ = ["CycloField", "Cyclo", "prime_power_factors"]


def prime_power_factors(m: int) -> list[tuple[int, int]]:
    """Factor m into prime powers: returns [(p, p^e), ...] in increasing p."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


class CycloField:
    """The field Q(zeta_M) with cached monomial tables.

    Instances are cached by M; arithmetic on elements of different fields is
    rejected rather than coerced.
    """

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, m: int):
        if m < 1:
            raise OutOfRange(f"field order must be >= 1, got {m}")
        inst = cls._instances.get(m)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(m)
            cls._instances[m] = inst
        return inst

    def _init(self, m: int) -> None:
        self.order = m
        facs = prime_power_factors(m)
        self.primes = [p for p, _ in facs]
        self.moduli = [q for _, q in facs]
        self.phis = [q - q // p for p, q in facs]
        self.degree = 1
        for ph in self.phis:
            self.degree *= ph
        # CRT weights: zeta_M^j  <->  prod_i zeta_{q_i}^{j * u_i mod q_i}
        self.crt_units = [pow(m // q, -1, q) for q in self.moduli]
        self._reduce_cache: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        # (a, b) -> the images of the basis monomials under zeta^e -> zeta^(a*e + b)
        self._affine_cache: dict[tuple[int, int], _MonomialMap] = {}
        self._value_cache: dict[tuple[int, ...], complex] = {}
        self._zeta_cache: dict[int, Cyclo] = {}  # j mod M -> zeta^j; elements are immutable
        self.zero_key = (0,) * len(self.moduli)

    # -- monomial plumbing ------------------------------------------------

    def _raw_key(self, j: int) -> tuple[int, ...]:
        return tuple((j * u) % q for q, u in zip(self.moduli, self.crt_units))

    def _expand_component(self, i: int, a: int) -> list[tuple[int, int]]:
        """Rewrite zeta_{q_i}^a on the basis exponents [0, phi(q_i))."""
        if a < self.phis[i]:
            return [(a, 1)]
        # zeta^(phi(q)+r) = -sum_t zeta^(t*q/p + r), t = 0..p-2
        p, q = self.primes[i], self.moduli[i]
        r = a - self.phis[i]
        return [(t * (q // p) + r, -1) for t in range(p - 1)]

    def _reduce_raw(self, key: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """Expand a raw monomial (components < q_i) over the canonical basis."""
        hit = self._reduce_cache.get(key)
        if hit is not None:
            return hit
        terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
        for i, a in enumerate(key):
            comp = self._expand_component(i, a)
            terms = [(prefix + (b,), s * t) for prefix, s in terms for b, t in comp]
        self._reduce_cache[key] = terms
        return terms

    def _collect(self, terms, den: int = 1) -> "Cyclo":
        """Sum (raw monomial, nonzero int numerator) pairs over `den` on the canonical basis.

        A key enters the result where it is first nonzero; one that cancels
        leaves and re-enters at the end, the order `Cyclo.__complex__` sums in.
        """
        acc: dict[tuple[int, ...], int] = {}
        reduced = self._reduce_cache
        for raw, c in terms:
            for key, sign in reduced.get(raw) or self._reduce_raw(raw):
                s = acc.get(key, 0) + c * sign
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return _normalized(self, acc, den)

    def _monomial_value(self, key: tuple[int, ...]) -> complex:
        v = self._value_cache.get(key)
        if v is None:
            phase = sum(Fraction(a, q) for a, q in zip(key, self.moduli))
            v = cmath.exp(2j * cmath.pi * float(phase))
            self._value_cache[key] = v
        return v

    # -- element constructors ---------------------------------------------

    def element(self, coeffs: dict[tuple[int, ...], Fraction]) -> "Cyclo":
        """The element with these rational coefficients on basis monomials; zeros are dropped."""
        values = {k: Fraction(v) for k, v in coeffs.items() if v}
        den = lcm(*(v.denominator for v in values.values()))
        num = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        return _normalized(self, num, den)

    def zero(self) -> "Cyclo":
        return Cyclo(self, {}, 1)

    def one(self) -> "Cyclo":
        return self.rational(1)

    def rational(self, q) -> "Cyclo":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        n = q.numerator
        return Cyclo(self, {self.zero_key: n} if n else {}, q.denominator)

    def zeta(self, j: int = 1) -> "Cyclo":
        """The root of unity zeta_M^j, made once per field and exponent mod M."""
        j %= self.order
        z = self._zeta_cache.get(j)
        if z is None:
            z = self._zeta_cache[j] = self._collect([(self._raw_key(j), 1)])
        return z

    def i(self) -> "Cyclo":
        if self.order % 4:
            raise OutOfRange(f"sqrt(-1) requires 4 | M, field has M={self.order}")
        return self.zeta(self.order // 4)

    def __repr__(self) -> str:
        return f"CycloField({self.order})"


class _MonomialMap:
    """The images of basis monomials e under zeta^e -> zeta^(a*e + b), made as read.

    `images` maps e to the reduced signed terms of zeta^(a*e + b), or, when
    the map is `signed`, to its one (monomial, sign) term.  The map is
    signed when no component with an odd prime leaves its basis exponents
    (a component with prime 2 always rewrites to one term).  Two basis
    monomials then never share an image monomial: zeta^x = -zeta^y puts
    the prime-2 components of x and y half their modulus apart, and the
    basis exponents span only half of it.
    """

    __slots__ = ("field", "a", "kb", "signed", "images")

    def __init__(self, field: CycloField, a: int, b: int):
        self.field, self.a, self.kb = field, a, field._raw_key(b)
        self.images: dict[tuple[int, ...], object] = {}
        self.signed = all(
            (a * x + y) % q < ph
            for p, q, ph, y in zip(field.primes, field.moduli, field.phis, self.kb)
            if p != 2
            for x in range(ph)
        )

    def fill(self, ka: tuple[int, ...]):
        """The image of basis monomial ka, entered in `images`."""
        f = self.field
        raw = tuple((self.a * x + y) % q for x, y, q in zip(ka, self.kb, f.moduli))
        terms = f._reduce_raw(raw)
        image = self.images[ka] = terms[0] if self.signed else terms
        return image


def _normalized(field: CycloField, num: dict[tuple[int, ...], int], den: int) -> "Cyclo":
    """The element num / den (den > 0), with the common factor of both divided out."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return Cyclo(field, num, den)


class Cyclo:
    """An element of Q(zeta_M); immutable, canonically normalized.

    `num` maps each basis monomial with a nonzero coefficient to its integer
    numerator over the one positive denominator `den`, and
    gcd(den, *num.values()) == 1, so the zero element is ({}, 1).  `coeffs`
    reads the same coefficients as Fractions, in the same order.
    """

    __slots__ = ("field", "num", "den", "_hash", "_inv", "_complex")

    def __init__(self, field: CycloField, num: dict[tuple[int, ...], int], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash: int | None = None
        self._inv: Cyclo | None = None
        self._complex: complex | None = None

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {basis monomial: Fraction coefficient}, in storage order."""
        den = self.den
        return MappingProxyType({k: Fraction(v, den) for k, v in self.num.items()})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Cyclo | None":
        if isinstance(other, Cyclo):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        if other.__class__ is Cyclo and other.field is self.field:
            return self._combine(other, 1)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.field, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        if other.__class__ is Cyclo and other.field is self.field:
            return self._combine(other, -1)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def _combine(self, o: "Cyclo", sign: int, halve: bool = False) -> "Cyclo":
        """self + sign*o, halved if `halve`, normalized once; o's new keys enter at the end."""
        den, oden = self.den, o.den
        if den == oden:
            out, scale = dict(self.num), sign
        else:
            g = gcd(den, oden)
            scale = sign * (den // g)
            out = {k: v * (oden // g) for k, v in self.num.items()}
            den *= oden // g
        for k, v in o.num.items():
            s = out.get(k, 0) + v * scale
            if s:
                out[k] = s
            else:
                del out[k]
        if halve:
            den *= 2
        if den == 1:
            return Cyclo(self.field, out, 1)
        return _normalized(self.field, out, den)

    def __mul__(self, other):
        if other.__class__ is not Cyclo:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a rational factor scales the numerators, kept in their key order
            if not other:
                return Cyclo(self.field, {}, 1)
            c, d = other.numerator, other.denominator
            return _normalized(self.field, {k: v * c for k, v in self.num.items()}, self.den * d)
        o = self._coerce(other)
        zero_key = self.field.zero_key
        if len(o.num) == 1 and zero_key in o.num:
            c = o.num[zero_key]
            num = {k: v * c for k, v in self.num.items()}
            return _normalized(self.field, num, self.den * o.den)
        if len(self.num) == 1 and zero_key in self.num:
            return o * self
        moduli = self.field.moduli
        return self.field._collect(
            (
                (tuple(map(mod, map(add, ka, kb), moduli)), va * vb)
                for ka, va in self.num.items()
                for kb, vb in o.num.items()
            ),
            self.den * o.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Cyclo:
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            # x / (a/b) = x * b / a, with the sign of a moved onto b
            a, b = (other, 1) if isinstance(other, int) else (other.numerator, other.denominator)
            if a < 0:
                a, b = -a, -b
            return _normalized(self.field, {k: v * b for k, v in self.num.items()}, self.den * a)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- field-specific operations ------------------------------------------

    def shift(self, j: int) -> "Cyclo":
        """Multiply by zeta_M^j (a rotation by 2*pi*j/M when read as a planar vector)."""
        return self._mapped(1, j)

    def _galois(self, k: int) -> "Cyclo":
        """The automorphism zeta -> zeta^k, for k coprime to M."""
        return self._mapped(k, 0)

    def conjugate(self) -> "Cyclo":
        """Complex conjugation: zeta -> zeta^(-1) componentwise."""
        return self._mapped(-1, 0)

    def _mapped(self, a: int, b: int) -> "Cyclo":
        """The image under the monomial map zeta^e -> zeta^(a*e + b), a coprime to M.

        The map is an automorphism of Z[zeta] times a unit, so it keeps the
        numerators' content and the result needs no normalizing.  A map
        that permutes the basis up to sign moves each numerator to its
        image's key, in the element's key order, as the sum would.
        """
        f = self.field
        m = f.order
        ab = (a % m, b % m)
        table = f._affine_cache.get(ab)
        if table is None:
            table = f._affine_cache[ab] = _MonomialMap(f, *ab)
        images = table.images
        acc: dict[tuple[int, ...], int] = {}
        if table.signed:
            for ka, c in self.num.items():
                key, sign = images.get(ka) or table.fill(ka)
                acc[key] = c * sign
            return Cyclo(f, acc, self.den)
        for ka, c in self.num.items():
            for key, sign in images.get(ka) or table.fill(ka):
                s = acc.get(key, 0) + c * sign
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return Cyclo(f, acc, self.den)

    @property
    def real(self) -> "Cyclo":
        # (z + conj z)/2, normalized once
        return self._combine(self.conjugate(), 1, halve=True)

    @property
    def imag(self) -> "Cyclo":
        # (z - conj z)/2 = i * Im z; multiply by -i = zeta^(-M/4)
        if self.field.order % 4:
            raise OutOfRange("imag requires 4 | M")
        return self._combine(self.conjugate(), -1, halve=True).shift(-(self.field.order // 4))

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return all(k == self.field.zero_key for k in self.num)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise OutOfRange(f"not a rational number: {self!r}")
        return Fraction(self.num.get(self.field.zero_key, 0), self.den)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float() of the Fraction v / den is
        if self._complex is None:
            den, value = self.den, self.field._monomial_value
            self._complex = sum((v / den * value(k) for k, v in self.num.items()), complex(0))
        return self._complex

    def __float__(self) -> float:
        z = complex(self)
        if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
            raise OutOfRange(f"float() of a non-real element: {self!r}")
        return z.real

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse by the norm identity, kept once computed.

        x^-1 = prod_{sigma != 1} sigma(x) / N(x) (Cohen 1993).  Applied to the
        real y = x * conj(x), or to x itself when it is real, the product runs
        over the automorphisms zeta -> zeta^k with 1 < k < M/2 coprime to M,
        and y times it is N(y), a rational.  The coefficients are kept in
        sorted key order, the order `__complex__` then sums them in.
        """
        if self._inv is not None:
            return self._inv
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        fld = self.field
        conj = self.conjugate()
        real = self == conj
        y = self if real else self * conj
        p = fld.one()
        for k in range(2, (fld.order + 1) // 2):
            if gcd(k, fld.order) == 1:
                p = p * y._galois(k)
        inv = p / (y * p).as_fraction()
        if not real:
            inv = inv * conj
        self._inv = Cyclo(fld, dict(sorted(inv.num.items())), inv.den)
        return self._inv

    # -- equality -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cyclo:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.rational(other)
        elif other.field is not self.field:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.num.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self.num:
            return "Cyclo(0)"
        parts = [f"{v}*z{k}" for k, v in sorted(self.coeffs.items())]
        return f"Cyclo[{self.field.order}](" + " + ".join(parts) + ")"
