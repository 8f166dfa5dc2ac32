import random

import pytest

from heckespecht import (
    Cyclotomic,
    PrimeField,
    QuantumProfile,
    bstar,
    ell_p,
    nu_ep,
    parse_field,
    prime_extension_auto,
    qbinom,
    qbinom_sum_oracle,
    qfact,
    qint,
    spec_for_profile,
    vanish_run,
    vanish_run_direct,
)
from heckespecht import qfield
from heckespecht.qfield import (
    FieldSpec,
    _is_prime,
    cyclotomic_polynomial,
    _divmod,
    _trim,
    poly_is_irreducible_mod_p,
    qbinom_rows,
)


def test_quantum_char_examples(cyclo3, f7q2):
    assert cyclo3.profile() == QuantumProfile(3, 0)
    assert PrimeField(5, 1).profile() == QuantumProfile(5, 5)
    assert f7q2.profile() == QuantumProfile(3, 7)


def test_quantum_char_extension(ext23):
    assert ext23.profile() == QuantumProfile(3, 2)
    assert prime_extension_auto(3, 4).profile() == QuantumProfile(4, 3)
    # each automatic extension is built once per process, by the spec too
    assert parse_field("ext:p=3,e=4") is prime_extension_auto(3, 4)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_irreducibility_check():
    assert poly_is_irreducible_mod_p((1, 1, 1), 2)
    assert not poly_is_irreducible_mod_p((1, 0, 1), 2)  # (x+1)^2 mod 2
    # a million trial divisors of a quadratic: refused, not searched
    with pytest.raises(ValueError, match="too large to search"):
        poly_is_irreducible_mod_p((2, 0, 1), 1000003)


def test_qint_and_qfact(cyclo3, f7q2):
    for spec in (cyclo3, f7q2):
        assert qint(spec, 0).is_zero()
        assert qint(spec, 2) == spec.one + spec.q
        assert qfact(spec, 3) == qint(spec, 1) * qint(spec, 2) * qint(spec, 3)


def test_qbinom_base_cases(cyclo3, f7q2, ext23):
    for spec in (cyclo3, f7q2, ext23):
        for a in range(7):
            assert qbinom(spec, a, 0) == spec.one
            assert qbinom(spec, a, a) == spec.one


def test_qbinom_at_minus_one():
    c2 = Cyclotomic(2)
    assert qbinom(c2, 4, 2) == c2.of(2)


def test_qbinom_rejects_bad_input(cyclo3):
    with pytest.raises(ValueError):
        qbinom(cyclo3, 2, 3)
    with pytest.raises(ValueError):
        qbinom(cyclo3, 2, -1)


def test_sum_oracle_small_cases(cyclo3):
    assert qbinom_sum_oracle(cyclo3, 3, 3) == cyclo3.one
    assert qbinom_sum_oracle(cyclo3, 2, 1) == cyclo3.one + cyclo3.q
    assert qbinom_sum_oracle(Cyclotomic(2), 4, 2) == Cyclotomic(2).of(2)


def test_qbinom_matches_sum_oracle(cyclo3, cyclo4, f7q2, ext23):
    for spec in (cyclo3, cyclo4, f7q2, ext23):
        for a in range(9):
            for b in range(a + 1):
                assert qbinom(spec, a, b) == qbinom_sum_oracle(spec, a, b), (spec.name, a, b)


def test_qbinom_symmetry(cyclo4, f7q2):
    for spec in (cyclo4, f7q2):
        for a in range(9):
            for b in range(a + 1):
                assert qbinom(spec, a, b) == qbinom(spec, a, a - b)


def test_ell_p_and_bstar():
    assert ell_p(7, 1) == 1
    assert ell_p(2, 4) == 3
    assert ell_p(3, 0) == 0
    assert bstar(3, 7) == 2
    with pytest.raises(ValueError):
        ell_p(0, 3)
    with pytest.raises(ValueError):
        ell_p(4, 3)


def test_vanish_run_examples():
    assert vanish_run(QuantumProfile(3, 0), 2, 2)
    assert not vanish_run(QuantumProfile(3, 0), 2, 3)
    assert vanish_run(QuantumProfile(3, 7), 20, 3)
    assert not vanish_run(QuantumProfile(None, 0), 5, 1)


def test_vanish_run_against_direct_evaluation():
    cases = [
        (e, p)
        for e in (2, 3, 4, 5)
        for p in (0, 2, 3, 7)
        if not (p and e != p and e % p == 0)
    ]
    for e, p in cases:
        spec = spec_for_profile(e, p)
        prof = spec.profile()
        for alpha in range(0, 41):
            for beta in range(1, 9):
                assert vanish_run(prof, alpha, beta) == vanish_run_direct(spec, alpha, beta), (
                    e, p, alpha, beta,
                )


def test_nu_ep():
    assert nu_ep(QuantumProfile(3, 2), 6) == 2
    assert nu_ep(QuantumProfile(3, 2), 5) == 0
    assert nu_ep(QuantumProfile(3, 0), 3) == 1
    assert nu_ep(QuantumProfile(2, 3), 18) == 3


def test_field_axioms_randomized(cyclo3, cyclo4, f7q2, ext23):
    rng = random.Random(20240801)
    for spec in (cyclo3, cyclo4, f7q2, ext23):
        elements = [spec.of(rng.randrange(-40, 40)) for _ in range(40)]
        elements += [spec.q ** k for k in range(-5, 6)]
        for _ in range(1000):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            if not a.is_zero():
                assert a * a.inverse() == spec.one
        assert spec.zero + spec.one == spec.one
        assert spec.scalar(spec.qm1_rep) == spec.q - spec.one


def test_unrealisable_profile_rejected():
    with pytest.raises(ValueError):
        spec_for_profile(4, 2)


def test_cyclotomic_order_is_bounded_before_phi_is_built(monkeypatch):
    # e * e past SEARCH_LIMIT (e > 1000) is refused before Phi_e is built
    # and before the order of p mod e is searched; e = 1000 still builds
    def refuse(e):
        raise AssertionError(f"Phi_{e} built")

    monkeypatch.setattr(qfield, "cyclotomic_polynomial", refuse)
    for build in (lambda: parse_field("cyclotomic:e=1000000000"),
                  lambda: parse_field("cyclotomic:e=1001"),
                  lambda: parse_field("ext:p=2,e=1000000001"),
                  lambda: spec_for_profile(1001, 0),
                  lambda: spec_for_profile(1001, 2)):
        with pytest.raises(ValueError, match=r"exceeds the size limit: e \* e > 1000000"):
            build()
    monkeypatch.undo()
    assert Cyclotomic(1000).profile() == QuantumProfile(1000, 0)


def test_parse_and_names():
    for text in ("p=7,q=2", "cyclotomic:e=3", "ext:p=2,e=3"):
        spec = parse_field(text)
        assert spec.name == text
        assert parse_field(spec.name) == spec
    with pytest.raises(ValueError):
        parse_field("p=6,q=2")
    with pytest.raises(ValueError):
        parse_field("nonsense")
    for stray in ("cyclotomic:", "cyclotomic:e=3,q=5", "ext:p=2", "ext:p=2,e=3,q=1;1"):
        with pytest.raises(ValueError):
            parse_field(stray)  # a missing key or one the field would ignore


def test_extension_identity_includes_q():
    from heckespecht.hecke import specht_generator
    from heckespecht.qfield import PrimeExtension

    a = PrimeExtension(2, (1, 1, 1))
    b = PrimeExtension(2, (1, 1, 1), q=(1, 1))
    assert a != b and a.name != b.name
    assert PrimeExtension(2, (1, 1, 1), q=(0, 1)) == a
    assert parse_field(b.name) == b and parse_field(b.name).q_rep == b.q_rep
    assert b.qm1_rep == (0, 1)  # q - 1 = z with q = 1 + z
    specht_generator(a, (2, 1))  # a's generator is cached first
    gen = specht_generator(b, (2, 1))
    assert sorted(str(b.scalar(c)) for c in gen.coeffs.values()) == ["1", "z"]


def test_parse_explicit_extension_modulus():
    spec = parse_field("ext:p=2,mod=1;1;1")
    assert spec.profile() == QuantumProfile(3, 2)
    assert parse_field(spec.name) == spec
    with pytest.raises(ValueError):
        parse_field("ext:p=2,mod=1;0;1")  # (x+1)^2 is reducible mod 2


def test_scalar_formatting_round_trip(cyclo3, ext23, f7q2):
    values = [
        cyclo3.zero,
        cyclo3.one,
        -cyclo3.q,
        (cyclo3.q ** 2) * 3 - cyclo3.of(1) / cyclo3.of(2),
        ext23.q + ext23.one,
        f7q2.of(5),
    ]
    for v in values:
        assert v.field.parse_scalar(str(v)) == v


def test_scalar_power_and_division(cyclo4):
    q = cyclo4.q
    assert q ** 4 == cyclo4.one
    assert q ** -1 == cyclo4.one / q
    assert (q ** 2) == -cyclo4.one


POWER_FIELDS = [f"cyclotomic:e={e}" for e in (2, 3, 4, 5, 6, 7, 8, 12)] + [
    "ext:p=2,e=5",
    "ext:p=2,e=7",
    "ext:p=2,mod=1;1;1,q=1;1",
    "p=7,q=2",
    "p=97,q=3",
]


def _sample_elements(spec):
    """Nonzero q^k + c, k up to the order of q, c in -3..3."""
    out = []
    for k in range(spec.profile().e + 1):
        for c in range(-3, 4):
            rep = spec.add(spec.q_power(k), spec.int_rep(c))
            if not spec.is_zero(rep):
                out.append(rep)
    return out


@pytest.mark.parametrize("name", POWER_FIELDS)
def test_inverse_and_power_by_multiplication(name):
    spec = parse_field(name)
    elements = _sample_elements(spec)
    for a in elements:
        assert spec.mul(a, spec.inv(a)) == spec.one_rep, (name, spec.format_rep(a))
    for a in elements[:12]:
        up, down = spec.one_rep, spec.one_rep
        a_inv = spec.inv(a)
        for k in range(41):
            assert spec.power(a, k) == up, (name, k)
            assert spec.scalar(a) ** k == spec.scalar(up)
            if k <= 6:
                assert spec.power(a, -k) == down, (name, -k)
                assert spec.scalar(a) ** -k == spec.scalar(down)
            up = spec.mul(up, a)
            down = spec.mul(down, a_inv)


@pytest.mark.parametrize("name", ["cyclotomic:e=5", "ext:p=2,e=5", "p=97,q=3"])
def test_power_makes_at_most_k_minus_one_multiplications(name, monkeypatch):
    spec = parse_field(name)
    a = spec.add(spec.q_rep, spec.int_rep(2))
    calls = [0]
    mul = spec.mul

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)

    monkeypatch.setattr(spec, "mul", counted)
    for k in range(1, 200):
        calls[0] = 0
        spec.power(a, k)
        assert calls[0] <= k - 1, (k, calls[0])
    calls[0] = 0
    spec.power(a, 0)
    assert calls[0] == 0


def test_qbinom_fills_only_the_needed_columns():
    spec = Cyclotomic(5)
    # the other q-Pascal rule, [a, b] = [a-1, b-1] + q^b [a-1, b]
    for a in range(2, 301):
        for b in (1, 2):
            if b < a:
                expect = qbinom(spec, a - 1, b - 1) + spec.q ** b * qbinom(spec, a - 1, b)
                assert qbinom(spec, a, b) == expect, (a, b)
    assert qbinom(spec, 9, 2) == qbinom_sum_oracle(spec, 9, 2)


def test_qbinom_keeps_q_table_within_the_order_of_q():
    spec = Cyclotomic(3)
    value = qbinom(spec, 100000, 2)
    assert len(spec._qpow) <= 3
    # by q-Lucas, [3m + 1, 2] = C(m, 0) [1, 2] = 0 at a primitive cube root of 1
    assert value.is_zero()


def test_q_power_memo_keeps_only_the_exponents_asked_for():
    # q = 5 has order 999982 mod 999983: a table of every power of q would
    # hold about 10^6 reps for a query that needs a dozen
    spec = PrimeField(999983, 5)
    assert spec.q_power(-1) == spec.inv(5)
    rows = list(qbinom_rows(spec, 12, 12))
    assert set(spec._qpow) == {999981, *range(12)}
    assert rows == [
        tuple(qbinom_sum_oracle(spec, a, b).rep for b in range(a + 1)) for a in range(13)
    ]


@pytest.mark.parametrize(
    "name, order",
    [("cyclotomic:e=3", 3), ("cyclotomic:e=4", 4), ("p=7,q=2", 3), ("p=97,q=3", 48),
     ("ext:p=2,e=3", 3), ("p=5,q=1", 1)],
)
def test_q_power_is_power_of_q(name, order):
    spec = parse_field(name)
    for k in range(-50, 51):
        assert spec.q_power(k) == spec.power(spec.q_rep, k), k
    assert len(spec._qpow) == order


def test_prime_field_order_matches_multiplication():
    for p in range(2, 200):
        if not _is_prime(p):
            continue
        assert PrimeField(p, 1).profile() == QuantumProfile(p, p)
        for q in range(2, p):
            field = PrimeField(p, q)
            assert field.profile() == QuantumProfile(FieldSpec._q_order(field), p), (p, q)


def test_order_of_q_near_the_search_limit(monkeypatch):
    assert PrimeField(999983, 5).profile() == QuantumProfile(999982, 999983)
    # 2 is a primitive root mod 1000003: order 1000002, past the limit
    with pytest.raises(ValueError, match="the order of q exceeds the search limit 1000000"):
        PrimeField(1000003, 2).profile()
    # q = 3 has order 48 mod 97: refused exactly past the limit, both ways
    for limit, refused in ((48, False), (47, True)):
        monkeypatch.setattr(qfield, "SEARCH_LIMIT", limit)
        field = PrimeField(97, 3)
        for order in (field._q_order, lambda: FieldSpec._q_order(field)):
            if refused:
                with pytest.raises(ValueError, match=f"exceeds the search limit {limit}"):
                    order()
            else:
                assert order() == 48


@pytest.mark.parametrize("spec", ["cyclotomic:e=2", "cyclotomic:e=3", "p=2,q=1", "p=7,q=2",
                                  "ext:p=2,e=3", "p=97,q=3",
                                  "ext:p=2,mod=1;1;1,q=1;1",  # q = 1 + x, not x
                                  "ext:p=7,e=3"])  # degree 1: x is the residue 2
def test_integer_polynomials_read_at_q_as_a_ring_map(spec):
    # Z[q] -> F, q -> the field's q, keeps sums, products, negatives, q,
    # q - 1 and the powers of q; the shortcuts for q, q - 1 and 1 agree
    # with the plain product; a zero sum is the trimmed ()
    field = parse_field(spec)
    ZQ = qfield.ZQ
    rng = random.Random(spec)
    polys = [(), (1,), (0, 1), (-1, 1), (3, 0, -2), (0, 0, 1)]
    polys += [tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5))) + (rng.choice((-2, 1, 5)),)
              for _ in range(20)]
    at = ZQ.at
    assert at(field, ZQ.q_rep) == field.q_rep and at(field, ZQ.qm1_rep) == field.qm1_rep
    for k in range(6):
        assert at(field, ZQ.q_power(k)) == field.q_power(k)
    for a in polys:
        assert ZQ.add(a, ZQ.neg(a)) == () and ZQ.is_zero(ZQ.add(ZQ.neg(a), a))
        for b in polys:
            assert at(field, ZQ.add(a, b)) == field.add(at(field, a), at(field, b))
            product = ZQ.mul(a, b)
            assert at(field, product) == field.mul(at(field, a), at(field, b))
            plain = [0] * (len(a) + len(b) - 1) if a and b else []
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    plain[i + j] += x * y
            assert product == tuple(plain) == ZQ.mul(b, a)
    with pytest.raises(ValueError):
        ZQ.q_power(-1)


@pytest.mark.parametrize("spec", [f"cyclotomic:e={e}" for e in range(2, 7)] + [
    "ext:p=2,e=3", "ext:p=3,e=4", "ext:p=5,e=6", "ext:p=7,e=3"])
def test_quotient_product_is_the_remainder_of_the_integer_product(spec):
    # a quotient field's mul is the Z[q] product of the numerators,
    # divided by the monic modulus with a remainder; q is the remainder of x
    field = parse_field(spec)
    cyclotomic = isinstance(field, Cyclotomic)
    g = cyclotomic_polynomial(field.e) if cyclotomic else field.modulus
    p = 0 if cyclotomic else field.p
    d = len(g) - 1

    def remainder(poly):
        rem = _divmod(poly, g, p)[1]
        return rem + (0,) * (d - len(rem))

    assert remainder((0, 1)) == (field.q_rep[0] if cyclotomic else field.q_rep)
    rng = random.Random(spec)
    elements = []
    for _ in range(30):
        num = [rng.randint(-6, 6) if cyclotomic else rng.randrange(p) for _ in range(d)]
        elements.append(field._norm(num, rng.choice((1, 2, 3))) if cyclotomic else tuple(num))
    elements += [field.q_rep, field.one_rep, field.zero_rep, field.qm1_rep]
    for a in elements:
        for b in elements:
            na, nb = (a[0], b[0]) if cyclotomic else (a, b)
            rem = remainder(qfield.ZQ.mul(_trim(na), _trim(nb)))
            want = field._norm(rem, a[1] * b[1]) if cyclotomic else rem
            assert field.mul(a, b) == want, (spec, a, b)


def test_over_long_q_is_reduced_modulo_the_modulus():
    # over F_2 modulo x^2 + x + 1: 1 + x^2 = x, and x^2 = 1 + x
    for long, short in (("q=1;0;1", None), ("q=0;0;1", "q=1;1"), ("q=1;1;0;0", "q=1;1")):
        got = parse_field(f"ext:p=2,mod=1;1;1,{long}")
        want = parse_field("ext:p=2,mod=1;1;1" + (f",{short}" if short else ""))
        assert (got.name, got.q_rep, got.profile()) == (want.name, want.q_rep, want.profile())
    assert parse_field("ext:p=2,mod=1;1;1,q=1;0;1").profile() == QuantumProfile(3, 2)
    with pytest.raises(ValueError, match="q must be a unit"):
        parse_field("ext:p=2,mod=1;1;1,q=1;1;1")  # 1 + x + x^2 = 0


@pytest.mark.parametrize("spec, text", [
    ("ext:p=3,e=4", "1/2"), ("ext:p=2,e=3", "1/2*z"), ("ext:p=2,e=3", "1 + 3/5*z"),
    ("p=7,q=2", "1/2"), ("cyclotomic:e=3", "1/0"), ("ext:p=2,e=3", "z + 2/0"),
])
def test_unreadable_scalars_are_value_errors(spec, text):
    # a fraction has no reading in F_p[x]/(g), and a zero denominator none anywhere
    with pytest.raises(ValueError):
        parse_field(spec).parse_rep(text)
