"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
elapsed time against the stated budget.  All comparisons are exact; run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

from heckespecht.carter_payne import (
    CPInstance,
    cp_eligible,
    one_node_map,
    trivial_hom_exists,
    verify_cp,
)
from heckespecht.hecke import (
    HeckeElement,
    ModuleVector,
    act_gen,
    apply_signed_stabilizer_sum,
    basis_vector,
    run_sum_identity_holds,
    spin_specht,
    x_element,
)
from heckespecht.homs import (
    _solved_dimension,
    compose_psi_theta,
    one_node_conditions_check,
    psi_dt,
    restriction_into_specht,
    theta_image_of_x,
)
from heckespecht.partitions import conjugate, partitions_of
from heckespecht.qfield import (
    Cyclotomic,
    PrimeField,
    QuantumProfile,
    qbinom,
    qbinom_sum_oracle,
    spec_for_profile,
)
from heckespecht.reducibility import is_ep_reducible
from heckespecht.tableaux import (
    coset_rep,
    coset_reps,
    enumerate_row_standard,
    standard_count,
    t_col,
)


@contextmanager
def criterion(number: int, limit_seconds: float, description: str):
    start = time.monotonic()
    state = {"detail": ""}
    try:
        yield state
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"criterion {number}: FAIL ({description}; {elapsed:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    detail = state["detail"] or description
    print(f"criterion {number}: PASS ({detail}; {elapsed:.1f}s / limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def one_node_instances(n):
    for xi in partitions_of(n):
        for a in range(1, len(xi) + 1):
            for b in range(a + 1, len(xi) + 1):
                try:
                    yield CPInstance(xi, a, b, 1)
                except ValueError:
                    continue


def test_criterion_1_gaussian_binomial_identity():
    with criterion(1, 5, "Gaussian binomial equals the enumerative sum oracle") as state:
        specs = [
            Cyclotomic(2),
            Cyclotomic(3),
            Cyclotomic(5),
            PrimeField(7, 2),
            spec_for_profile(3, 2),
        ]
        checked = 0
        for spec in specs:
            for alpha in range(9):
                for beta in range(alpha + 1):
                    assert qbinom(spec, alpha, beta) == qbinom_sum_oracle(spec, alpha, beta)
                    checked += 1
        state["detail"] = f"{checked} values over {len(specs)} fields"


def test_criterion_2_action_soundness():
    with criterion(2, 60, "coset action matches the group-algebra oracle") as state:
        checked = 0
        for field in (Cyclotomic(3), PrimeField(7, 2)):
            for n in range(2, 6):
                for lam in partitions_of(n):
                    x = x_element(field, lam)
                    for d in coset_reps(lam):
                        xd = x.times_word(d)
                        for i in range(1, n):
                            direct = xd.times_gen(i)
                            moved = act_gen(basis_vector(field, lam, d), i)
                            expanded = HeckeElement(field, n, {})
                            for key, c in moved.coeffs.items():
                                expanded = expanded.add(x.times_word(coset_rep(key)).scale(c))
                            assert direct == expanded, (field.name, lam, d, i)
                            checked += 1
        state["detail"] = f"{checked} products over 2 fields, n <= 5"


def test_criterion_3_specht_dimensions():
    with criterion(3, 300, "spun dimensions equal standard tableaux counts") as state:
        specs = []
        for e in (2, 3, 4):
            for p in (0, 2, 3):
                try:
                    specs.append(spec_for_profile(e, p))
                except ValueError:
                    continue  # no field of characteristic p has this e
        checked = 0
        for spec in specs:
            for n in range(1, 7):
                for lam in partitions_of(n):
                    assert spin_specht(spec, lam).dimension == standard_count(lam)
                    checked += 1
        state["detail"] = f"{checked} spins over {len(specs)} fields"


def test_criterion_4_symbolic_composition():
    with criterion(4, 600, "symbolic merge composition equals brute force") as state:
        plans = [(PrimeField(97, 3), 6), (Cyclotomic(3), 5)]
        checked = 0
        for field, nmax in plans:
            for n in range(2, nmax + 1):
                for lam in partitions_of(n):
                    for mu in partitions_of(n):
                        for tab in enumerate_row_standard(lam, mu):
                            base = theta_image_of_x(field, tab, mu)
                            for d in range(1, len(mu)):
                                for t in range(mu[d]):
                                    brute = psi_dt(base, d, t)
                                    sym = compose_psi_theta(field, tab, d, t)
                                    acc = ModuleVector(field, brute.shape, {})
                                    for s_tab, c in sym.coeffs.items():
                                        acc = acc.add(
                                            theta_image_of_x(field, s_tab, sym.target).scale(c)
                                        )
                                    assert acc == brute, (field.name, lam, mu, tab, d, t)
                                    checked += 1
        state["detail"] = f"{checked} compositions, full sweep n <= 6"


def test_criterion_5_trivial_submodules():
    with criterion(5, 600, "trivial-submodule criterion matches hom dimensions") as state:
        specs = [Cyclotomic(e) for e in (2, 3, 4, 5)]
        specs += [PrimeField(3, 1), PrimeField(5, 1), PrimeField(7, 2)]
        checked = 0
        for spec in specs:
            prof = spec.profile()
            for n in range(1, 9):
                for mu in partitions_of(n):
                    dim = _solved_dimension(spec, (n,), mu)
                    assert dim in (0, 1)
                    assert (dim == 1) == trivial_hom_exists(mu, prof), (spec.name, mu)
                    checked += 1
        state["detail"] = f"{checked} modules over {len(specs)} fields, n <= 8"


def test_criterion_6_one_node_maps_land():
    with criterion(6, 600, "eligible one-node maps are nonzero and land") as state:
        eligible = 0
        for e in (3, 4, 5):
            spec = Cyclotomic(e)
            prof = spec.profile()
            for n in range(2, 8):
                for inst in one_node_instances(n):
                    if not cp_eligible(inst, prof):
                        continue
                    hom = one_node_map(spec, inst.mu, inst.a, inst.b)
                    verdict = verify_cp(hom)
                    assert verdict.nonzero and verdict.lands_in_specht, (e, inst)
                    eligible += 1

        # the linear conditions agree with brute-force membership on the
        # normalised form of every one-node instance
        agreed = 0
        for e in (3, 4, 5):
            spec = Cyclotomic(e)
            seen = set()
            for n in range(2, 8):
                for inst in one_node_instances(n):
                    base = _normalised_base(inst)
                    if base is None or base in seen:
                        continue
                    seen.add(base)
                    hom = one_node_map(spec, base, 1, len(base))
                    symbolic = one_node_conditions_check(hom)
                    brute = restriction_into_specht(hom)
                    assert symbolic == brute, (e, base)
                    agreed += 1
        state["detail"] = f"{eligible} eligible maps verified, {agreed} condition checks"


def _normalised_base(inst):
    xi, a, b = inst.mu, inst.a, inst.b
    shift = xi[b - 1] - 1
    base = tuple(xi[i - 1] - shift for i in range(a, b + 1))
    if base[-1] != 1 or len(base) < 2:
        return None
    return base


def test_criterion_7_one_node_dimensions():
    with criterion(7, 900, "one-node hom dimensions are 1 when eligible else 0") as state:
        checked = 0
        for e in (3, 4, 5):
            spec = Cyclotomic(e)
            prof = spec.profile()
            for n in range(2, 7):
                for inst in one_node_instances(n):
                    dim = _solved_dimension(spec, inst.lam, inst.mu)
                    want = 1 if cp_eligible(inst, prof) else 0
                    assert dim == want, (e, inst, dim, want)
                    checked += 1
        state["detail"] = f"{checked} pairs over e in 3,4,5, n <= 6"


def test_criterion_8_adjacent_dimensions():
    with criterion(8, 900, "adjacent-rows eligibility matches hom dimensions") as state:
        checked = 0
        for e in (2, 3, 4):
            spec = Cyclotomic(e)
            prof = spec.profile()
            for n in range(2, 7):
                for mu in partitions_of(n):
                    for a in range(1, len(mu)):
                        for gamma in range(1, mu[a] + 1):
                            try:
                                inst = CPInstance(mu, a, a + 1, gamma)
                            except ValueError:
                                continue
                            if e == 2 and len(set(inst.lam)) != len(inst.lam):
                                continue
                            dim = _solved_dimension(spec, inst.lam, inst.mu)
                            eligible = cp_eligible(inst, prof)
                            assert (dim >= 1) == eligible, (e, inst, dim)
                            if e != 2:
                                assert dim == (1 if eligible else 0), (e, inst, dim)
                            checked += 1
        state["detail"] = f"{checked} adjacent pairs over e in 2,3,4, n <= 6"


def test_criterion_9_reducibility():
    with criterion(9, 120, "reducibility criterion matches the independent scan") as state:
        profiles = [(2, 0), (3, 0), (4, 0), (3, 2), (2, 3)]
        checked = 0
        for e, p in profiles:
            prof = QuantumProfile(e, p)
            for n in range(1, 11):
                for lam in partitions_of(n):
                    got = is_ep_reducible(lam, prof).reducible
                    assert got == _reference_reducible(lam, e, p), (lam, e, p)
                    checked += 1

        consistency = 0
        for e in (3, 4, 5):
            prof = QuantumProfile(e, 0)
            for n in range(1, 9):
                for mu in partitions_of(n):
                    if mu == (n,) or not trivial_hom_exists(mu, prof):
                        continue
                    if standard_count(mu) > 1:
                        assert is_ep_reducible(mu, prof).reducible, (e, mu)
                        consistency += 1
        state["detail"] = f"{checked} classifications, {consistency} consistency cases"


def _reference_reducible(parts, e, p):
    # deliberately self-contained: own hooks, own valuation, own scan
    rows = len(parts)
    width = parts[0] if rows else 0
    heights = [sum(1 for r in parts if r > c) for c in range(width)]

    def hook(i, j):
        return parts[i] - (i + 1) + heights[j] - (j + 1) + 1

    def val(h):
        if h % e:
            return 0
        k = h // e
        if p == 0:
            return 1
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        return v + 1

    for ai in range(rows):
        for ci in range(parts[ai]):
            v0 = val(hook(ai, ci))
            if v0 <= 0:
                continue
            if any(val(hook(ai, cj)) != v0 for cj in range(parts[ai]) if cj != ci) and any(
                val(hook(bi, ci)) != v0 for bi in range(heights[ci]) if bi != ai
            ):
                return True
    return False


def test_criterion_10_algebra_identities():
    with criterion(10, 120, "run-sum and column-pair identities hold") as state:
        f7 = PrimeField(7, 2)
        c3 = Cyclotomic(3)

        ladder = 0
        for field in (f7, c3):
            for n in range(3, 6):
                for mu in partitions_of(n):
                    if mu[-1] != 1 or len(mu) < 3:
                        continue
                    s = len(mu) - 1
                    for d in range(1, s):
                        y = sum(mu[:d + 1]) + 1
                        for z in range(y, n + 1):
                            assert run_sum_identity_holds(field, mu, d, z), (field.name, mu, d, z)
                            ladder += 1

        kills = 0
        for n in range(2, 6):
            shapes = list(partitions_of(n))
            compositions = [
                c
                for k in range(1, n + 1)
                for c in itertools.product(range(1, n + 1), repeat=k)
                if sum(c) == n
            ]
            for lam in shapes:
                columns = {}
                for row in t_col(lam).rows:
                    for j, value in enumerate(row):
                        columns.setdefault(j, set()).add(value)
                column_sets = list(columns.values())
                lam_conj = conjugate(lam)
                for nu in compositions:
                    for w in coset_reps(nu):
                        start, clash = 0, False
                        for part in nu:
                            row = set(w[start:start + part])
                            start += part
                            if any(len(row & col) >= 2 for col in column_sets):
                                clash = True
                                break
                        if not clash:
                            continue
                        v = basis_vector(f7, nu, w)
                        assert apply_signed_stabilizer_sum(v, lam_conj).is_zero(), (lam, nu, w)
                        kills += 1
        state["detail"] = f"{ladder} ladder identities, {kills} column-pair kills"
