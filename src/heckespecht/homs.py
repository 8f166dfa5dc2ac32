"""Homomorphisms between permutation and Specht modules.

A homomorphism out of a Specht module is stored as its coefficient
vector over row-standard (usually semistandard) source tableaux.  The
reading word of a tableau of type nu is the row word that keys a basis
vector of M^nu (``hecke.ModuleVector``), so the image of the generator
under a basis map sums the words joining one ordering of each row, with
no tableau built.  Since Specht modules are cyclic, evaluating at the
canonical generator z is faithful, and a value lies in the target Specht
module when every one-row-merge map psi_{d,t} kills it.

The symbolic composition rule writes psi_{d,t} o theta_T as basis maps
theta_S with coefficients q^k times Gaussian binomials [a, b], kept
factored (``_compose_terms``, keyed by (T.rows, d, t)), so one memo entry
serves ``compose_psi_theta`` and the landing solves at every q.  Those
solves read the value at z in M^nu off its column-canonical keys
(``hecke.generator_keys``) and form no vector of M^mu: the value of each
theta_S at z is computed once over Z[q] (``_z_value``, keyed by (lam,
S.rows), its oracle the field's ``generator_keys`` of the row-class sum)
and each polynomial read once per field (``_read``).  The field-free
memos are bounded by entries and by total stored terms.  Pushing a vector
through psi_{d,t} remains for membership and as the rule's oracle.
A hom-space dimension across blocks, where lam and mu have different
e-cores, is 0 with nothing solved.  Within a block it is solved for
(lam, mu) or its conjugate dual (mu', lam'), whichever is cheaper: over
the semistandard basis maps where the semistandard homomorphism theorem
holds, and otherwise by the cyclic route, for the value of a map at the
generator of the spun S^lam, dim S^mu unknowns, walking the rows of that
spin in the order it kept them.  The exact intertwiner system on the
spun generator matrices, sparse rows, dim S^lam * dim S^mu unknowns, is
both routes' oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .hecke import (
    ModuleVector,
    SparseEchelon,
    _acc,
    at_generator,
    generator_keys,
    push_through,
    spin_specht,
)
# bound here only for the benchmark tracer, which wraps each function in
# every module that imports it; nothing in this module calls them
from .hecke import act_word, specht_generator  # noqa: F401
from .tableaux import row_equiv_class  # noqa: F401
from .partitions import (
    check_composition,
    check_partition,
    conjugate,
    drop_trailing_zeros,
    e_core,
    is_2regular,
    nu_composition,
)
from .memo import sized_cache
from .qfield import ZQ, FieldSpec, QuantumProfile, Scalar, parse_field, qbinom, qint
from .tableaux import Tableau, _orderings, enumerate_semistandard, permutation_dim


class HomSpec:
    """A homomorphism from the Specht module of ``source`` into the
    permutation module of ``target``, as scalar coefficients over
    row-standard source tableaux of the target type."""

    __slots__ = ("field", "source", "target", "coeffs")

    def __init__(self, field: FieldSpec, source, target, coeffs):
        self.field = field
        self.source = check_partition(source)
        self.target = check_composition(target)
        # the sorted reading word of the target type, built once a tableau
        # of that size comes: content() would list every value up to the
        # largest entry, however large
        want = None
        clean = {}
        for tab, rep in coeffs.items():
            if hasattr(rep, "rep"):
                rep = rep.rep
            if field.is_zero(rep):
                continue
            if tab.shape != self.source:
                raise ValueError(f"tableau {tab} does not have shape {self.source}")
            if not tab.is_row_standard():
                raise ValueError(f"tableau {tab} is not row standard")
            word = sorted(tab.reading_word())
            if want is None and len(word) == sum(self.target):
                want = [v for v, part in enumerate(self.target, start=1) for _ in range(part)]
            if word != want:
                raise ValueError(f"tableau {tab} does not have type {self.target}")
            clean[tab] = rep
        self.coeffs = clean

    def is_zero_spec(self) -> bool:
        return not self.coeffs

    def coefficient(self, tab: Tableau) -> Scalar:
        rep = self.coeffs.get(tab)
        return self.field.scalar(self.field.zero_rep if rep is None else rep)

    def __eq__(self, other):
        return (
            isinstance(other, HomSpec)
            and self.field == other.field
            and self.source == other.source
            and self.target == other.target
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(f"{t}: {self.field.format_rep(c)}" for t, c in sorted(
            self.coeffs.items(), key=lambda item: item[0].reading_word()))
        return f"HomSpec({self.source} -> M^{self.target}; {{{body}}})"

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "fieldSpec": self.field.name,
            "coefficients": [
                {"tableau": tab.to_lists(), "scalar": self.field.format_rep(rep)}
                for tab, rep in sorted(
                    self.coeffs.items(), key=lambda item: item[0].reading_word()
                )
            ],
        }

    @classmethod
    def from_json(cls, data, field: FieldSpec | None = None) -> "HomSpec":
        """The homomorphism of its ``to_json`` form, over field if given;
        raises ValueError on a malformed payload or another field's."""
        if not isinstance(data, dict) or not all(
                isinstance(data.get(key), list) for key in ("source", "target", "coefficients")):
            raise ValueError("homomorphism JSON needs source, target and coefficients lists")
        stored = data.get("fieldSpec")
        if field is None:
            if not isinstance(stored, str):
                raise ValueError("homomorphism JSON needs a fieldSpec string")
            field = parse_field(stored)
        elif stored is not None and stored != field.name:
            raise ValueError(f"homomorphism JSON was written over {stored!r}, not {field.name!r}")
        coeffs = {}
        for item in data["coefficients"]:
            if not isinstance(item, dict) or not isinstance(item.get("scalar"), str):
                raise ValueError(f"a coefficient needs a tableau and a scalar string: {item!r}")
            coeffs[Tableau.from_json(item.get("tableau"))] = field.parse_rep(item["scalar"])
        return cls(field, tuple(data["source"]), tuple(data["target"]), coeffs)


# ---------------------------------------------------------------------------
# the basis homomorphisms and the merge maps

def _row_class_sum(field: FieldSpec, coeffs: dict, target) -> ModuleVector:
    """Image of the source cyclic generator under the combination of basis
    homomorphisms with the given coefficients over tableaux: each
    tableau's coefficient times the basis vectors of its row equivalence
    class, whose row words are the reading words of the class: one
    ordering of each row, joined, in ``row_equiv_class`` order."""
    out: dict = {}
    for tab, c in coeffs.items():
        for parts in itertools.product(*map(_orderings, tab.rows)):
            _acc(field, out, sum(parts, ()), c)
    return ModuleVector(field, tuple(target), out)


def theta_image_of_x(field: FieldSpec, tab: Tableau, target=None) -> ModuleVector:
    """Image of the source cyclic generator under the basis homomorphism
    attached to tab: the sum of the basis vectors over the row
    equivalence class."""
    if target is None:
        target = tab.content()
    elif drop_trailing_zeros(target) != drop_trailing_zeros(tab.content()):
        raise ValueError("target does not match the tableau type")
    return _row_class_sum(field, {tab: field.one_rep}, target)


@lru_cache(maxsize=4096)
def _psi_base(field: FieldSpec, mu, d: int, t: int) -> ModuleVector:
    mu = check_composition(mu)
    nu = nu_composition(mu, d, t)
    merged = mu[d] - t
    rows = []
    for i, part in enumerate(mu, start=1):
        if i == d + 1:
            rows.append((d,) * merged + (d + 1,) * t)
        else:
            rows.append((i,) * part)
    return theta_image_of_x(field, Tableau(rows), nu)


def psi_dt(v: ModuleVector, d: int, t: int) -> ModuleVector:
    """The one-row-merge homomorphism applied to a permutation module
    vector."""
    return push_through(_psi_base(v.field, v.shape, d, t), v)


def specht_membership(v: ModuleVector) -> bool:
    """Whether v lies in the Specht submodule of its permutation module:
    all one-row-merge maps send it to zero."""
    return _landing_solve(v.field, check_partition(v.shape), 1,
                          lambda d, t: [psi_dt(v, d, t).coeffs]) == 1


def _landing_solve(field: FieldSpec, mu, size: int, images) -> int:
    """Dimension of the combinations of size vectors of M^mu in the Specht
    submodule, which every psi_{d,t} kills; images(d, t) lists the
    coefficient dicts of the vectors' images under psi_{d,t}.  One
    equation per merge map and key of its images, eliminated at once, so
    the solve stops at the first merge map that brings the rank to size."""
    echelon = SparseEchelon(field)
    for d in range(1, len(mu)):
        for t in range(mu[d]):
            found = images(d, t)
            for k in dict.fromkeys(k for image in found for k in image):
                row = {j: image[k] for j, image in enumerate(found) if k in image}
                if echelon.insert(row) and len(echelon) == size:
                    return 0
    return size - len(echelon)


def _merged_value(field: FieldSpec, coeffs: dict, lam, mu, d: int, t: int) -> dict:
    """psi_{d,t} of the value at the Specht generator of lam of the
    combination of theta_T with the given coefficients, T of type mu: the
    value of the combination psi_{d,t} o theta_T of maps into M^nu, its
    factored terms (``_compose_terms``) read at the field's q."""
    merged: dict = {}
    one = field.one_rep
    for tab, c in coeffs.items():
        for other, factors in _compose_terms(tab.rows, d, t):
            rep = _coefficient(field, *factors)
            _acc(field, merged, other, rep if c == one else field.mul(c, rep))
    return _value_at_z(field, merged, lam)


def _value_at_z(field: FieldSpec, coeffs: dict, lam) -> dict:
    """``generator_keys`` of the combination of basis maps theta_S with the
    given coefficients: the sum of c_S times the value of theta_S over
    Z[q] (``_z_value``), read at the field's q."""
    out: dict = {}
    one = field.one_rep
    for tab, c in coeffs.items():
        for key, poly in _z_value(lam, tab.rows).items():
            rep = _read(field, poly)
            _acc(field, out, key, rep if c == one else field.mul(c, rep))
    return out


@lru_cache(maxsize=1 << 14)
def _read(field: FieldSpec, poly):
    """The polynomial poly over Z[q] read at the field's q, once per
    (field, poly)."""
    return ZQ.at(field, poly)


# one value of a long row holds up to dim M^nu keys: at most 2^15 keys are
# kept per value and 2^18 in all, and a larger value is read per call
@sized_cache(maxsize=8192, maxterms=1 << 18, maxentry=1 << 15)
def _z_value(lam, rows) -> dict:
    """``generator_keys`` over Z[q] of the basis map theta_S of the
    row-standard S with these rows, at the Specht generator of lam: every
    field's value is this one read at its q, so it is keyed by (lam, rows)
    alone and holds no field's results."""
    tab = Tableau(rows)
    return generator_keys(_row_class_sum(ZQ, {tab: ZQ.one_rep}, tab.content()), lam)


def compose_psi_theta(field: FieldSpec, tab: Tableau, d: int, t: int) -> HomSpec:
    """Symbolic composition of a one-row-merge map with a basis
    homomorphism, as a Gaussian-binomial combination of basis
    homomorphisms into the merged type."""
    if not tab.is_row_standard():
        raise ValueError("tableau must be row standard")
    nu = nu_composition(tab.content(), d, t)
    return HomSpec(field, tab.shape, nu, {
        other: _coefficient(field, *factors) for other, factors in _compose_terms(tab.rows, d, t)})


def _coefficient(field: FieldSpec, k: int, pairs):
    """q^k times the Gaussian binomials [a, b] of the pairs, in the field."""
    rep = field.q_power(k)
    for a, b in pairs:
        rep = field.mul(rep, qbinom(field, a, b).rep)
    return rep


# the terms of psi_{d,t} o theta_T serve every field: at most 2^12 terms are
# kept per (T, d, t) and 2^16 in all
@sized_cache(maxsize=8192, maxterms=1 << 16, maxentry=1 << 12)
def _compose_terms(rows, d: int, t: int) -> tuple:
    """The terms (S, (k, pairs)) of psi_{d,t} o theta_T, T row standard with
    these rows, unchecked: S's coefficient is q^k times the Gaussian
    binomials [a, b] of the pairs, which ``_coefficient`` reads in a field,
    where it may be zero."""
    counts = [row.count(d + 1) for row in rows]
    below = [0] * (len(rows) + 1)  # below[i]: the d's in rows i+1, ...
    for i in range(len(rows) - 1, -1, -1):
        below[i] = below[i + 1] + rows[i].count(d)
    out = []
    for combo in _bounded_compositions(sum(counts) - t, counts):
        new, k, pairs = [], 0, []
        for i, row in enumerate(rows):
            beta = combo[i]
            if beta:  # the leftmost d+1's turn into d's: the row stays weakly increasing
                first = row.index(d + 1)
                row = row[:first] + (d,) * beta + row[first + beta:]
                k += below[i + 1] * beta
                if row.count(d) != beta:  # [a, a] = 1
                    pairs.append((row.count(d), beta))
            new.append(row)
        out.append((Tableau(new), (k, tuple(pairs))))
    return tuple(out)


def compose_term_count(rows, d: int, t: int) -> int:
    """The number of ``_compose_terms`` of (rows, d, t), counted without
    listing them; a t out of range counts one, as nu_composition refuses it."""
    counts = [row.count(d + 1) for row in rows]
    total = sum(counts) - t if 0 <= t < sum(counts) else 0
    ways = [1] + [0] * total  # ways[s]: the tuples over the rows so far of sum s
    for bound in counts:
        below = [0, *itertools.accumulate(ways)]
        ways = [below[s + 1] - below[max(0, s - bound)] for s in range(total + 1)]
    return ways[-1]


def _bounded_compositions(total, bounds):
    """All tuples 0 <= c_i <= bounds[i] with sum equal to total, in
    decreasing lexicographic order, by a search with no recursion and no
    dead end: a prefix is kept only if the bounds after it can take the rest."""
    room = [*itertools.accumulate(reversed(bounds), initial=0)][::-1]  # room[i]: sum(bounds[i:])
    stack = [((), total)] if 0 <= total <= room[0] else []
    while stack:
        head, rest = stack.pop()
        k = len(head)
        if k == len(bounds):
            yield head
            continue
        # pushed in increasing order, so the largest c comes out first
        stack.extend((head + (c,), rest - c)
                     for c in range(max(0, rest - room[k + 1]), min(bounds[k], rest) + 1))


def evaluate_on_generator(hom: HomSpec) -> ModuleVector:
    """Value of the restricted homomorphism at the Specht generator of
    its source."""
    return at_generator(_row_class_sum(hom.field, hom.coeffs, hom.target), hom.source)


def restriction_is_zero(hom: HomSpec) -> bool:
    """Whether the restriction is zero: its value at the Specht generator
    has no column-canonical key (``generator_keys``)."""
    return not _value_at_z(hom.field, hom.coeffs, hom.source)


def restriction_into_specht(hom: HomSpec) -> bool:
    return restriction_verdicts(hom)[1]


def restriction_verdicts(hom: HomSpec) -> tuple[bool, bool]:
    """(is the restriction zero, does it land in the Specht submodule of
    the target), from a single evaluation at the generator; the landing
    equations come from the merge maps composed with hom symbolically."""
    target = check_partition(drop_trailing_zeros(hom.target))
    if restriction_is_zero(hom):
        return True, True
    return False, _landing_solve(hom.field, target, 1, lambda d, t: [
        _merged_value(hom.field, hom.coeffs, hom.source, target, d, t)]) == 1


# ---------------------------------------------------------------------------
# hom-space dimensions: semistandard basis maps, or the cyclic route, with
# the intertwiner system as its oracle

def semistandard_scope(profile: QuantumProfile, lam) -> bool:
    """Whether the semistandard homomorphism theorem (Dipper-James) holds
    for maps out of the Specht module of lam: q != -1, that is e != 2, or
    lam 2-regular.  Then the restricted basis maps of the semistandard
    tableaux of shape lam and type mu form a basis of the maps into the
    permutation module of mu, for every mu."""
    return profile.e != 2 or is_2regular(lam)


def same_block(profile: QuantumProfile, lam, mu) -> bool:
    """Whether lam and mu have the same e-core.  Otherwise their Specht
    modules lie in different blocks of the Hecke algebra (the Nakayama
    conjecture: Dipper-James 1987, James-Mathas 1997), and every map
    between them is zero.  With e None only lam = mu share a block."""
    return e_core(lam, profile.e) == e_core(mu, profile.e)


def hom_space_dim(field: FieldSpec, lam, mu) -> int:
    """Dimension of the space of module maps from the Specht module of
    lam to the Specht module of mu: 0 across blocks (``same_block``).

    It equals the dimension for the conjugates (mu', lam'): the dual of a
    Specht module is that of the conjugate shape twisted by # (Dipper-James;
    Mathas, ch. 3).  The cheaper side is solved."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partitions must have equal size")
    if not same_block(field.profile(), lam, mu):
        return 0
    dual = conjugate(mu), conjugate(lam)
    if _route_cost(field, *dual) < _route_cost(field, lam, mu):
        lam, mu = dual
    return _direct_dimension(field, lam, mu)


def _route_cost(field: FieldSpec, lam, mu):
    """Off the semistandard route last, then by dim M^mu."""
    return not semistandard_scope(field.profile(), lam), permutation_dim(mu)


def _direct_dimension(field: FieldSpec, lam, mu) -> int:
    """``hom_space_dim`` of (lam, mu) solved as given: within the
    semistandard scope over the semistandard basis maps, outside it by the
    cyclic route (``_cyclic_dimension``) on the spun modules, solved for
    the value at the generator of S^lam in S^mu."""
    if semistandard_scope(field.profile(), lam):
        return _semistandard_dimension(field, lam, mu)
    return _cyclic_dimension(field, spin_specht(field, lam), spin_specht(field, mu))


def _semistandard_dimension(field: FieldSpec, lam, mu) -> int:
    """Dimension of the maps from the Specht module of lam into that of
    mu, valid only within ``semistandard_scope``.

    The maps are the combinations of the restricted basis maps theta_T,
    T semistandard of shape lam and type mu, that land in the Specht
    submodule: the landing dimension of the values v_T = theta_T(z), each
    merge map applied to them through the composition rule."""
    tabs = enumerate_semistandard(lam, mu)
    return _landing_solve(field, mu, len(tabs), lambda d, t: [
        _merged_value(field, {tab: field.one_rep}, lam, mu, d, t) for tab in tabs])


def _cyclic_dimension(field, sa, sb) -> int:
    """Dimension of the module maps from the spun module sa to sb, solved
    for the value v of a map at sa's generator, row 0: dim sb unknowns.

    The map is fixed by v, since sa is cyclic on its generator.  Walking
    sa's rows in the order kept, row . T_i = sum_j A_i[row][j] row_j names
    only rows kept before it and, when it keeps one, row count, the number
    kept so far.  Then it gives that row's value from the values of the
    others; otherwise it is a linear condition, value at row . B_i =
    sum_j A_i[row][j] value_j, which cuts the candidates for v to a left
    kernel.  Each of the k candidates lists its value at every row kept so
    far; k at the end is the answer, 0 once none is left."""
    f = field
    m = sb.dimension
    candidates = [[{c: f.one_rep}] for c in range(m)]
    for row in range(sa.dimension):
        for A, B in zip(sa.matrices, sb.matrices):
            line = A[row]
            count = len(candidates[0])
            terms = [(j, f.neg(a)) for j, a in line.items() if j != count]
            images = []
            for values in candidates:
                image: dict = {}
                for c, x in values[row].items():
                    for k, rep in B[c].items():
                        _acc(f, image, k, f.mul(x, rep))
                for j, a in terms:
                    for k, rep in values[j].items():
                        _acc(f, image, k, f.mul(a, rep))
                images.append(image)
            if count in line:
                inv = f.inv(line[count])
                for values, image in zip(candidates, images):
                    values.append({k: f.mul(inv, rep) for k, rep in image.items()})
            elif any(images):
                candidates = _left_kernel(f, candidates, images, m)
                if not candidates:
                    return 0
    return len(candidates)


def _left_kernel(field, candidates, images, m: int) -> list:
    """The combinations of the candidates whose images (dicts over keys
    0..m-1) sum to zero, a basis of them: each image is eliminated with a
    marker key m + p after every column key, so an echelon row whose pivot
    is a marker has a zero image and names its combination."""
    f = field
    echelon = SparseEchelon(f)
    for p, image in enumerate(images):
        row = dict(image)
        row[m + p] = f.one_rep
        echelon.insert(row)
    out = []
    for pivot, row in echelon.rows:
        if pivot < m:
            continue
        combined = []
        for j in range(len(candidates[0])):
            value: dict = {}
            for key, w in row.items():
                for k, rep in candidates[key - m][j].items():
                    _acc(f, value, k, f.mul(w, rep))
            combined.append(value)
        out.append(combined)
    return out


def _intertwiner_dimension(field, mats_a, mats_b) -> int:
    """Dimension of the matrices X with A X = X B for every generator pair
    (A, B), X unrolled row-major into ma * mb unknowns: the tests' oracle
    for ``_cyclic_dimension``.  A matrix is a list of sparse rows, as
    ``SpechtModule.matrices`` holds them."""
    ma = len(mats_a[0])
    mb = len(mats_b[0])
    total = ma * mb
    echelon = SparseEchelon(field)
    f = field
    for A, B in zip(mats_a, mats_b):
        columns = [{} for _ in range(mb)]  # B's columns, {row index: entry}
        for k, line in enumerate(B):
            for c, v in line.items():
                columns[c][k] = v
        for r in range(ma):
            for c in range(mb):
                row: dict = {}
                for k, v in A[r].items():
                    _acc(f, row, k * mb + c, v)
                for k, v in columns[c].items():
                    _acc(f, row, r * mb + k, f.neg(v))
                if echelon.insert(row) and len(echelon) == total:
                    return 0
    return total - len(echelon)


# ---------------------------------------------------------------------------
# the linear conditions for one-node homomorphisms

def _merge_rewrite(field: FieldSpec, mu, entries, d: int):
    """Rewrite the image of a one-node basis homomorphism, given by the
    row ends of its tableau, under the d-th top merge map as (coefficient,
    row ends of a semistandard target tableau), or None when it vanishes."""
    s = len(mu) - 1
    lam_d = mu[0] + 1 if d == 1 else mu[d - 1]
    r = entries.index(d + 1) + 1
    if r < d:
        new = list(entries)
        new[r - 1] = d
        return field.q_power(mu[d - 1]), tuple(new)
    # after the rewrite, row d is constant; if row d-1 has the same length
    # and also ends in d, the target tableau has a column clash and the
    # image vanishes (rows 1 and 2 never clash: row 1 is one cell longer)
    clash = d >= 3 and mu[d - 2] == mu[d - 1] and entries[d - 2] == d
    if r == d:
        if clash:
            return None
        mu_next = mu[d]
        coeff = field.mul(
            field.q_power(mu_next - 1),
            qint(field, lam_d - mu_next + 1).rep,
        )
        new = list(entries)
        new[d - 1] = d
        return coeff, tuple(new)
    # the moved value d+1 sits just below the merge row
    if entries[d - 1] == d or clash:
        return None
    i_d = entries[d - 1]
    l = 1
    while d + l <= s and mu[d + l] == mu[d]:
        l += 1
    qexp = field.q_power(mu[d] - 1)
    if d + l == s + 1:
        tail = sorted((i_d,) + entries[d + 1:])
        new = entries[:d - 1] + (d,) + tuple(tail)
        sign = i_d - d - 1
    else:
        i_dl = entries[d + l - 1]
        run = tuple(range(d + 2, d + l + 1))
        if i_d < i_dl:
            new = entries[:d - 1] + (d,) + run + entries[d + l - 1:]
            sign = i_d - d - 1
        else:
            new = entries[:d - 1] + (d,) + run + (i_d,) + entries[d + l:]
            sign = l
    coeff = field.neg(qexp) if sign % 2 else qexp
    return coeff, new


def one_node_conditions_check(hom: HomSpec) -> bool:
    """Whether the one-node map hom satisfies the linear conditions
    equivalent to its restriction landing in the Specht submodule of the
    target.

    hom maps the Specht module of (mu_1 + 1, mu_2, ..., mu_s) into the
    permutation module of mu = (mu_1, ..., mu_s, 1), as
    ``one_node_map(field, mu, 1, len(mu))`` builds it, over semistandard
    tableaux.  Such a tableau holds only a in row a except for its last
    entry, so the conditions read it by its row ends."""
    field, mu = hom.field, check_partition(hom.target)
    if len(mu) < 2 or mu[-1] != 1 or hom.source != (mu[0] + 1,) + mu[1:-1]:
        raise ValueError(f"not a one-node map: {hom.source} -> M^{mu}")
    ends = {}
    for tab, rep in hom.coeffs.items():
        if not tab.is_semistandard():
            raise ValueError(f"tableau {tab} is not semistandard")
        ends[tuple(row[-1] for row in tab.rows)] = rep
    for d in range(1, len(mu)):
        groups: dict = {}
        for entries, rep in ends.items():
            rewritten = _merge_rewrite(field, mu, entries, d)
            if rewritten is None:
                continue
            coeff, target = rewritten
            _acc(field, groups, target, field.mul(coeff, rep))
        if groups:
            return False
    return True
