"""Exact coefficient fields and quantum-integer arithmetic.

Three constructible families of pairs (F, q) are provided, enough to
realise every finite pair (e, p) of quantum characteristic and ordinary
characteristic that the homomorphism criteria need:

* ``PrimeField(p, q)``     -- F_p with q a nonzero residue,
* ``Cyclotomic(e)``        -- Q(zeta_e) realised as rational polynomials
                              reduced modulo the e-th cyclotomic polynomial,
                              with q the class of the indeterminate,
* ``PrimeExtension(p, g)`` -- F_p[x]/(g) with g irreducible, q a unit of
                              the quotient (by default the class of x for
                              g an irreducible factor of Phi_e over F_p).

Scalars are kept in a canonical form, so equality is exact and decidable,
and all values are immutable.  ``ZQ`` is the ring Z[q] that every field
is an image of, with the reps a generator action needs and a map to each
field.  The quotient fields share Z[q]'s arithmetic: ``_mulmod`` is the
one schoolbook product, exact for Z[q] and reduced modulo a monic
polynomial (and mod p) in the same call for Q[x]/(Phi_e) and F_p[x]/(g);
it also reduces the class of x, a given q and each conjugate a(x^k).
The module also houses the quantum
integers, factorials and Gaussian binomials (computed by the Pascal-type
recurrence, never by division, so they are valid at roots of unity), the
enumerative sum oracle for the Gaussian binomial, and the small
arithmetic helpers (ell_p, bstar, vanish_run, nu_ep) used by the
eligibility criteria.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import neg, sub


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient tuples, over the integers (p = 0)
# or over F_p

def _trim(coeffs, p=0):
    out = [c % p for c in coeffs] if p else list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _divmod(a, b, p=0):
    """Quotient and remainder of a by the monic b, over F_p, or over the
    integers for p = 0."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p if p else a[i]
        if c == 0:
            continue
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    return _trim(q, p), _trim(a[:db], p)


def _mulmod(a, b, tail=None, p=0):
    """The schoolbook product of the coefficient sequences a and b: exact
    over the integers, or, given tail, the lower coefficients of a monic g
    of degree d = len(tail) negated (x^d = tail modulo g), reduced modulo
    g, and then mod p if p, in the same call; the remainder has d
    coefficients when len(a) + len(b) > d."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    if tail is None:
        return tuple(out)
    d = len(tail)
    for i in range(len(out) - 1 - d, -1, -1):
        c = out.pop()
        if c:
            for j, t in enumerate(tail, i):
                if t:
                    out[j] += c * t
    if p:
        for i in range(d):
            out[i] %= p
    return tuple(out)


@lru_cache(maxsize=64)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, ascending, computed by exact division of
    x^e - 1 by the product of the Phi_d over proper divisors d."""
    if e < 1:
        raise ValueError("e must be positive")
    poly = tuple([-1] + [0] * (e - 1) + [1])
    for d in range(1, e):
        if e % d == 0:
            poly, rem = _divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ValueError("division is not exact")
    return poly


# trial divisors times dividend length, the order of q in a field (about a
# second to find by multiplication), or e * e for Phi_e (e = 840 builds in
# 0.045 s, e = 5040 in 1.8 s): a larger search is refused, not run for minutes
SEARCH_LIMIT = 1_000_000


def _check_order(e: int) -> None:
    """Refuse an order e below 2, or one whose Phi_e is past SEARCH_LIMIT
    to build or search (e * e above it), before any work."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if e * e > SEARCH_LIMIT:
        raise ValueError(f"e={e} exceeds the size limit: e * e > {SEARCH_LIMIT}")


def _first_monic_divisor(poly, p, degrees):
    """The first monic divisor of poly over F_p with a degree in degrees,
    smallest degree first and then lexicographically smallest, or None;
    trial division, so a search past SEARCH_LIMIT is refused."""
    for d in degrees:
        if p ** d * len(poly) > SEARCH_LIMIT:
            raise ValueError(f"too large to search: {p}^{d} trial divisors"
                             f" of a degree-{len(poly) - 1} polynomial over F_{p}")
        for tail in itertools.product(range(p), repeat=d):
            if not _divmod(poly, tail + (1,), p)[1]:
                return tail + (1,)
    return None


def poly_is_irreducible_mod_p(poly, p: int) -> bool:
    """Exhaustive trial-division irreducibility check, desk scale only."""
    poly = _trim(poly, p)
    deg = len(poly) - 1
    if deg <= 0:
        return False
    return _first_monic_divisor(poly, p, range(1, deg // 2 + 1)) is None


def _first_irreducible_factor(e: int, p: int):
    """First (lexicographically smallest) irreducible factor of Phi_e over
    F_p.  Requires p not dividing e; every factor then has degree d equal
    to the multiplicative order of p mod e, so the first monic degree-d
    divisor is irreducible."""
    _check_order(e)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e % p == 0:
        raise ValueError("p must not divide e for the automatic modulus")
    d = 1
    r = p % e
    while r != 1:
        r = (r * p) % e
        d += 1
    g = _first_monic_divisor(_trim(cyclotomic_polynomial(e), p), p, (d,))
    if g is None:
        raise ValueError(f"no degree-{d} factor of Phi_{e} over F_{p}")
    return g


def _is_prime(p: int) -> bool:
    """Trial division up to sqrt(p); refused past SEARCH_LIMIT^2."""
    if p < 2:
        return False
    if p > SEARCH_LIMIT ** 2:
        raise ValueError(f"{p} exceeds the primality search limit {SEARCH_LIMIT}^2")
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# profiles and scalars

class QuantumProfile:
    """The derived pair (e, p): e is minimal > 1 with 1+q+...+q^{e-1} = 0,
    None standing for infinite, and p is the field characteristic."""

    __slots__ = ("e", "p")

    def __init__(self, e, p):
        self.e = e
        self.p = p

    @property
    def finite(self) -> bool:
        return self.e is not None

    def __eq__(self, other):
        return isinstance(other, QuantumProfile) and (self.e, self.p) == (other.e, other.p)

    def __hash__(self):
        return hash((self.e, self.p))

    def __repr__(self):
        e = "inf" if self.e is None else self.e
        return f"QuantumProfile(e={e}, p={self.p})"


class Scalar:
    """An element of a FieldSpec, in canonical form."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("scalars from different fields")
            return other.rep
        if isinstance(other, int):
            return self.field.int_rep(other)
        return NotImplemented

    def __add__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.rep, rep))

    __radd__ = __add__

    def __sub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.rep, rep))

    def __rsub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(rep, self.rep))

    def __mul__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.rep, rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.rep, self.field.inv(rep)))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.rep))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return Scalar(self.field, self.field.power(self.rep, k))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.rep))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.rep)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, int):
            return self.rep == self.field.int_rep(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def __str__(self):
        return self.field.format_rep(self.rep)

    def __repr__(self):
        return f"Scalar({self.field.name}, {self})"


class FieldSpec:
    """Common plumbing for the three field families.

    Subclasses implement arithmetic directly on raw representations
    (ints or coefficient tuples); ``Scalar`` wraps a (field, rep) pair
    for the public API.  Hot paths work on reps; every family stores
    ``q_rep`` and ``qm1_rep`` (q - 1, used by each generator action).
    """

    name: str

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<field {self.name}>"

    # Scalar-level conveniences -------------------------------------------
    @property
    def zero(self) -> Scalar:
        return Scalar(self, self.zero_rep)

    @property
    def one(self) -> Scalar:
        return Scalar(self, self.one_rep)

    @property
    def q(self) -> Scalar:
        return Scalar(self, self.q_rep)

    def of(self, k: int) -> Scalar:
        return Scalar(self, self.int_rep(k))

    def scalar(self, rep) -> Scalar:
        return Scalar(self, rep)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def profile(self) -> QuantumProfile:
        """(e, p), e found as the multiplicative order of q (e = p when
        q = 1).  Cyclotomic fields preset the profile."""
        if self._profile is None:
            e = self.p if self.q_rep == self.one_rep else self._q_order()
            self._profile = QuantumProfile(e, self.p)
        return self._profile

    def _q_order(self) -> int:
        """The multiplicative order of q, by repeated multiplication;
        refused past SEARCH_LIMIT."""
        e, acc = 1, self.q_rep
        while acc != self.one_rep:
            if e == SEARCH_LIMIT:
                raise ValueError(f"the order of q exceeds the search limit {SEARCH_LIMIT}")
            acc = self.mul(acc, self.q_rep)
            e += 1
        return e

    def power(self, rep, k: int):
        """rep^k by square-and-multiply over the bits of |k| from the top,
        starting from rep itself: at most |k| - 1 multiplications, after
        one inversion when k < 0."""
        if k < 0:
            rep, k = self.inv(rep), -k
        if k == 0:
            return self.one_rep
        out = rep
        for bit in bin(k)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, rep)
        return out

    def q_power(self, k: int):
        """q^k: k is reduced modulo the order of q (1 when q = 1, else the
        profile's e), and each reduced exponent asked for is memoised, so
        the memo never holds more powers than were asked for."""
        order = self._qorder
        if order is None:
            order = self._qorder = 1 if self.q_rep == self.one_rep else self.profile().e
        k %= order
        rep = self._qpow.get(k)
        if rep is None:
            rep = self._qpow[k] = self.power(self.q_rep, k)
        return rep

    def parse_scalar(self, text: str) -> Scalar:
        return Scalar(self, self.parse_rep(text))


class PrimeField(FieldSpec):
    """F_p with q a nonzero residue; reps are canonical residues."""

    def __init__(self, p: int, q: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        q %= p
        if q == 0:
            raise ValueError("q must be invertible")
        self.p = p
        self.q_rep = q
        self.zero_rep = 0
        self.one_rep = 1 % p
        self.qm1_rep = self.sub(q, self.one_rep)
        self.name = f"p={p},q={q}"
        self._qpow = {}
        self._qorder = None
        self._profile = None

    def _q_order(self) -> int:
        """The order of q divides p - 1: start there and divide out each
        prime factor r of p - 1 while q^(e/r) = 1.  Refused past
        SEARCH_LIMIT, as the repeated multiplication is."""
        p, q = self.p, self.q_rep
        e = rest = p - 1
        r = 2
        while rest > 1:
            if r * r > rest:
                r = rest  # what is left is prime
            if rest % r == 0:
                while rest % r == 0:
                    rest //= r
                while e % r == 0 and pow(q, e // r, p) == 1:
                    e //= r
            r += 1
        if e > SEARCH_LIMIT:
            raise ValueError(f"the order of q exceeds the search limit {SEARCH_LIMIT}")
        return e

    def int_rep(self, k: int):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0

    def format_rep(self, a) -> str:
        return str(a)

    def parse_rep(self, text: str):
        return int(text.strip()) % self.p


class Cyclotomic(FieldSpec):
    """Q(zeta_e) as Q[x]/(Phi_e); reps are (numerator tuple, denominator)
    with integer numerators of fixed length deg(Phi_e), gcd-normalised."""

    def __init__(self, e: int):
        _check_order(e)
        self.e = e
        phi = cyclotomic_polynomial(e)
        self.degree = len(phi) - 1
        # x^degree = tail in the quotient
        self._neg_tail = tuple(-c for c in phi[:-1])
        self.zero_rep = self.int_rep(0)
        self.one_rep = self.int_rep(1)
        self.q_rep = (_mulmod(self.one_rep[0], (0, 1), self._neg_tail), 1)  # the class of x
        self.qm1_rep = self.sub(self.q_rep, self.one_rep)
        self.name = f"cyclotomic:e={e}"
        self._qpow = {}
        self._qorder = None
        self._profile = QuantumProfile(e, 0)

    def _norm(self, num, den):
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        return (tuple(num), den)

    def int_rep(self, k: int):
        num = [0] * self.degree
        num[0] = k
        return (tuple(num), 1)

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        if da == db:
            return self._norm([x + y for x, y in zip(na, nb)], da)
        return self._norm([x * db + y * da for x, y in zip(na, nb)], da * db)

    def mul(self, a, b):
        (na, da), (nb, db) = a, b
        return self._norm(_mulmod(na, nb, self._neg_tail), da * db)

    def neg(self, a):
        num, den = a
        return (tuple(-c for c in num), den)

    def is_zero(self, a):
        return not any(a[0])

    def inv(self, a):
        """1/a = (product of the other Galois conjugates of a) / N(a): the
        conjugates are a(q^k) for 1 < k < e prime to e, and the norm N(a),
        a times their product, is rational.  a(x^k) puts each coefficient
        c_i at x^(ik mod e), as x^e = 1, and the product by 1 reduces it."""
        num, den = a
        if not any(num):
            raise ZeroDivisionError("inverse of zero")
        e = self.e
        others = self.one_rep
        for k in range(2, e):
            if gcd(k, e) == 1:
                spread = [0] * e
                for i, c in enumerate(num):
                    spread[i * k % e] = c
                conj = _mulmod(spread, (1,), self._neg_tail)
                others = self.mul(others, self._norm(conj, den))
        norm_num, norm_den = self.mul(a, others)
        if any(norm_num[1:]):
            raise AssertionError(f"norm of {self.format_rep(a)} is not rational")
        onum, oden = others
        return self._norm([c * norm_den for c in onum], oden * norm_num[0])

    def format_rep(self, a) -> str:
        num, den = a
        return format_poly([Fraction(c, den) for c in num])

    def parse_rep(self, text: str):
        coeffs = parse_poly(text, self.degree)
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return self._norm([int(c * den) for c in coeffs], den)


class PrimeExtension(FieldSpec):
    """F_p[x]/(g) for g irreducible over F_p; reps are coefficient tuples
    of fixed length deg(g)."""

    def __init__(self, p: int, modulus, q=None, label: str | None = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        modulus = _trim(modulus, p)
        if len(modulus) < 2:
            raise ValueError("modulus must have positive degree")
        if modulus[-1] != 1:
            inv = pow(modulus[-1], -1, p)
            modulus = _trim([c * inv for c in modulus], p)
        if not poly_is_irreducible_mod_p(modulus, p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self._neg_tail = tuple((-c) % p for c in modulus[:-1])
        self.zero_rep = self.int_rep(0)
        self.one_rep = self.int_rep(1)
        # the class of x, and a given q's coefficients, reduced modulo g
        default_q = _mulmod(self.one_rep, (0, 1), self._neg_tail, p)
        q = default_q if q is None else _mulmod(self.one_rep, q, self._neg_tail, p)
        if not any(q):
            raise ValueError("q must be a unit")
        self.q_rep = q
        self.qm1_rep = self.sub(q, self.one_rep)
        if label is None:
            # fields compare and hash by name, so the name carries every
            # parameter that changes the arithmetic
            label = f"ext:p={p},mod={';'.join(str(c) for c in modulus)}"
            if q != default_q:
                label += f",q={';'.join(str(c) for c in q)}"
        self.name = label
        self._qpow = {}
        self._qorder = None
        self._profile = None

    def int_rep(self, k: int):
        out = [0] * self.degree
        out[0] = k % self.p
        return tuple(out)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        return _mulmod(a, b, self._neg_tail, self.p)

    def neg(self, a):
        p = self.p
        return tuple((-c) % p for c in a)

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        """a^(p^d - 2), by Fermat in the field of p^d elements."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.p ** self.degree - 2)

    def format_rep(self, a) -> str:
        return format_poly(list(a))

    def parse_rep(self, text: str):
        coeffs = parse_poly(text, self.degree)
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError(f"scalar {text!r} has a non-integer coefficient over F_{self.p}")
        return tuple(int(c) % self.p for c in coeffs)


class PolynomialRing:
    """Z[q], the ring the Hecke algebra is defined over (Dipper-James);
    reps are integer coefficient tuples, lowest degree first, with no
    trailing zero, so () is zero.

    It has the rep interface of a field that the generator action and the
    fold at the Specht generator use, and no inverse: every field is its
    image under q -> the field's q (``at``), q = -1 included."""

    zero_rep = ()
    one_rep = (1,)
    q_rep = (0, 1)
    qm1_rep = (-1, 1)

    def add(self, a, b):
        if len(a) == 1 == len(b):
            c = a[0] + b[0]
            return (c,) if c else ()
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _trim(out)

    def mul(self, a, b):
        # the leading coefficient of a product over Z is nonzero; every
        # generator action multiplies by q, a shift, and q - 1, a difference
        if not a or not b:
            return ()
        if a == (0, 1):
            return (0,) + b
        if a == (-1, 1):
            return (-b[0], *map(sub, b, b[1:]), b[-1])
        if len(a) == 1 == len(b):
            return (a[0] * b[0],)
        return _mulmod(a, b)

    def neg(self, a):
        return tuple(map(neg, a))

    def is_zero(self, a):
        return not a

    def q_power(self, k: int):
        if k < 0:
            raise ValueError("Z[q] has no negative powers of q")
        return (0,) * k + (1,)

    def at(self, field: FieldSpec, a):
        """The image of a in field: the sum of c_k q^k, read at its q."""
        out = field.zero_rep
        for k, c in enumerate(a):
            if c:
                out = field.add(out, field.mul(field.int_rep(c), field.q_power(k)))
        return out


ZQ = PolynomialRing()


@lru_cache(maxsize=64)
def prime_extension_auto(p: int, e: int) -> PrimeExtension:
    """F_p[x]/(g) for the first irreducible factor g of Phi_e over F_p,
    so q = x + (g) has multiplicative order e.  Each field is built once:
    its modulus search and irreducibility check are trial division."""
    g = _first_irreducible_factor(e, p)
    field = PrimeExtension(p, g, label=f"ext:p={p},e={e}")
    prof = field.profile()
    if prof.e != e:
        raise ValueError(f"automatic modulus gave e={prof.e}, expected {e}")
    return field


# ---------------------------------------------------------------------------
# polynomial scalar formatting ("z" is the generator)

def format_poly(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            z = "z" if k == 1 else f"z^{k}"
            a = abs(c)
            body = z if a == 1 else f"{a}*{z}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


# a denominator has a nonzero digit: "1/0" is no term
_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d*[1-9]\d*)?)?\s*\*?\s*(?P<z>z(?:\^(?P<pow>\d+))?)?$"
)


def parse_poly(text: str, degree: int):
    """Parse the canonical polynomial form back into Fraction coefficients."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    coeffs = [Fraction(0)] * max(degree, 1)
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("z") is None):
            raise ValueError(f"cannot parse scalar term {chunk!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("z"):
            power = int(m.group("pow") or 1)
        else:
            power = 0
        if power >= len(coeffs):
            raise ValueError(f"power {power} out of range for this field")
        coeffs[power] += sign * coeff
    return coeffs


# ---------------------------------------------------------------------------
# field spec parsing

def parse_field(text: str) -> FieldSpec:
    """Parse "p=7,q=2", "cyclotomic:e=3", "ext:p=2,e=3" or
    "ext:p=2,mod=1;1;1" (optionally with ",q=1;1", q's coefficients)."""
    text = text.strip()
    if text.startswith("cyclotomic:"):
        body = dict(_split_kv(text[len("cyclotomic:"):]))
        if set(body) != {"e"}:
            raise ValueError(f"cyclotomic field needs exactly e: {text!r}")
        return Cyclotomic(int(body["e"]))
    if text.startswith("ext:"):
        body = dict(_split_kv(text[len("ext:"):]))
        if set(body) == {"p", "e"}:
            return prime_extension_auto(int(body["p"]), int(body["e"]))
        if set(body) in ({"p", "mod"}, {"p", "mod", "q"}):
            coeffs = [int(c) for c in body["mod"].split(";")]
            q = [int(c) for c in body["q"].split(";")] if "q" in body else None
            return PrimeExtension(int(body["p"]), coeffs, q=q)
        raise ValueError(f"ext field needs p and e, or p and mod (and optionally q): {text!r}")
    body = dict(_split_kv(text))
    if set(body) != {"p", "q"}:
        raise ValueError(f"cannot parse field spec {text!r}")
    return PrimeField(int(body["p"]), int(body["q"]))


def _split_kv(text: str):
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        yield k.strip(), v.strip()


def spec_for_profile(e: int, p: int) -> FieldSpec:
    """A field spec realising quantum characteristic e in characteristic p.

    Raises ValueError for the unrealisable combinations (p dividing e with
    e different from p)."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if p == 0:
        return Cyclotomic(e)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e == p:
        return PrimeField(p, 1)
    if e % p == 0:
        raise ValueError(f"no field of characteristic {p} has e={e}")
    if (p - 1) % e == 0:
        for q in range(2, p):
            field = PrimeField(p, q)
            if field.profile().e == e:
                return field
    return prime_extension_auto(p, e)


# ---------------------------------------------------------------------------
# quantum integers, factorials, Gaussian binomials

def qint(spec: FieldSpec, alpha: int) -> Scalar:
    """[alpha] = 1 + q + ... + q^(alpha-1), with [0] = 0."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    out = spec.zero_rep
    for k in range(alpha):
        out = spec.add(out, spec.q_power(k))
    return Scalar(spec, out)


def qfact(spec: FieldSpec, alpha: int) -> Scalar:
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    out = spec.one_rep
    for k in range(1, alpha + 1):
        out = spec.mul(out, qint(spec, k).rep)
    return Scalar(spec, out)


def qbinom_rows(spec: FieldSpec, alpha: int, width: int):
    """Yield the rows a = 0..alpha of the Gaussian binomial triangle, each
    cut to the columns b <= min(a, width), as tuples of reps, by the
    recurrence [a, b] = [a-1, b] + q^(a-b) [a-1, b-1]; valid at roots of
    unity.

    One row is updated in place, from right to left so that [a-1, b-1]
    is still the old value when [a, b] is formed."""
    row = [spec.one_rep] + [spec.zero_rep] * width
    yield tuple(row[:1])
    for a in range(1, alpha + 1):
        for b in range(min(a, width), 0, -1):
            row[b] = spec.add(row[b], spec.mul(spec.q_power(a - b), row[b - 1]))
        yield tuple(row[:a + 1])


@lru_cache(maxsize=4096)
def qbinom(spec: FieldSpec, alpha: int, beta: int) -> Scalar:
    """Gaussian binomial [alpha, beta]: the last of the rows of the
    triangle cut to the columns b <= beta."""
    if beta < 0 or alpha < beta:
        raise ValueError("need 0 <= beta <= alpha")
    for row in qbinom_rows(spec, alpha, beta):
        pass
    return Scalar(spec, row[beta])


def qbinom_sum_oracle(spec: FieldSpec, alpha: int, beta: int) -> Scalar:
    """Sum of q^G(I) over increasing beta-tuples I from {1..alpha}, with
    G(I) = sum_j (alpha - i_j - beta + j).  Enumerative oracle for qbinom."""
    if beta < 0 or alpha < beta:
        raise ValueError("need 0 <= beta <= alpha")
    out = spec.zero_rep
    for comb in itertools.combinations(range(1, alpha + 1), beta):
        g = sum(alpha - i - beta + j for j, i in enumerate(comb, start=1))
        out = spec.add(out, spec.q_power(g))
    return Scalar(spec, out)


def ell_p(p: int, b: int) -> int:
    """Minimal l with b < p^l."""
    if p < 2 or not _is_prime(p):
        raise ValueError("p must be prime")
    if b < 0:
        raise ValueError("b must be nonnegative")
    l, power = 0, 1
    while b >= power:
        power *= p
        l += 1
    return l


def bstar(e: int, b: int) -> int:
    """The quotient in b = b* e + b' with 0 <= b' < e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if b < 0:
        raise ValueError("b must be nonnegative")
    return b // e


def vanish_run(profile: QuantumProfile, alpha: int, beta: int) -> bool:
    """Whether the Gaussian binomials [alpha+1, 1], ..., [alpha+beta, beta]
    all vanish, by the closed-form criterion."""
    if alpha < 0 or beta < 1:
        raise ValueError("need alpha >= 0 and beta >= 1")
    if not profile.finite:
        return False
    if profile.p == 0:
        return (alpha + 1) % profile.e == 0 and beta < profile.e
    modulus = profile.e * profile.p ** ell_p(profile.p, bstar(profile.e, beta))
    return (alpha + 1) % modulus == 0


def vanish_run_direct(spec: FieldSpec, alpha: int, beta: int) -> bool:
    """Direct evaluation of the same run of Gaussian binomials."""
    return all(qbinom(spec, alpha + g, g).is_zero() for g in range(1, beta + 1))


def nu_ep(profile: QuantumProfile, h: int) -> int:
    """0 if e does not divide h, else nu_p(h/e) + 1 (nu_p = 0 when p = 0)."""
    if h < 1:
        raise ValueError("h must be positive")
    if not profile.finite:
        return 0
    if h % profile.e:
        return 0
    if profile.p == 0:
        return 1
    k, v = h // profile.e, 0
    while k % profile.p == 0:
        k //= profile.p
        v += 1
    return v + 1
