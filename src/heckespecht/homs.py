"""Homomorphisms between permutation and Specht modules.

A homomorphism out of a Specht module is stored as its coefficient
vector over row-standard (usually semistandard) source tableaux; since
Specht modules are cyclic, evaluating at the canonical generator is
faithful, and membership of the image in the target Specht module is
decided by pushing the value through every one-row-merge map and testing
for zero.

The symbolic composition rule rewrites a merge map composed with a basis
homomorphism as an explicit Gaussian-binomial combination of basis
homomorphisms; the brute-force evaluation path stays available as an
oracle for it.  Hom-space dimensions are solved for (lam, mu) or its
conjugate dual (mu', lam'), whichever is cheaper: over the semistandard
basis maps where the semistandard homomorphism theorem holds, and
otherwise from the exact intertwiner system on spun-out generator matrices.
"""

from __future__ import annotations

from functools import lru_cache

from .hecke import (
    ModuleVector,
    SparseEchelon,
    _acc,
    act_word,  # re-exported: the per-key oracle for push_through
    push_many,
    push_through,
    specht_generator,
    spin_specht,
)
from .partitions import (
    check_composition,
    check_partition,
    conjugate,
    drop_trailing_zeros,
    is_2regular,
    nu_composition,
)
from .qfield import FieldSpec, QuantumProfile, Scalar, parse_field, qbinom, qint
from .tableaux import (
    OneNodeCode,
    Tableau,
    coset_reps,
    enumerate_semistandard,
    perm_of_tableau,
    permutation_dim,
    row_equiv_class,
)


class HomSpec:
    """A homomorphism from the Specht module of ``source`` into the
    permutation module of ``target``, as scalar coefficients over
    row-standard source tableaux of the target type."""

    __slots__ = ("field", "source", "target", "coeffs")

    def __init__(self, field: FieldSpec, source, target, coeffs):
        self.field = field
        self.source = check_partition(source)
        self.target = check_composition(target)
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
            content = tab.content()
            if drop_trailing_zeros(content) != drop_trailing_zeros(self.target):
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
    def from_json(cls, data: dict, field: FieldSpec | None = None) -> "HomSpec":
        if field is None:
            field = parse_field(data["fieldSpec"])
        coeffs = {}
        for item in data["coefficients"]:
            tab = Tableau(item["tableau"])
            coeffs[tab] = field.parse_rep(item["scalar"])
        return cls(field, tuple(data["source"]), tuple(data["target"]), coeffs)


# ---------------------------------------------------------------------------
# the basis homomorphisms and the merge maps

def _row_class_sum(field: FieldSpec, coeffs: dict, target) -> ModuleVector:
    """Image of the source cyclic generator under the combination of basis
    homomorphisms with the given coefficients over tableaux: each
    tableau's coefficient times the coset basis vectors of its row
    equivalence class."""
    out: dict = {}
    for tab, c in coeffs.items():
        for other in row_equiv_class(tab):
            _acc(field, out, perm_of_tableau(other), c)
    return ModuleVector(field, tuple(target), out)


def theta_image_of_x(field: FieldSpec, tab: Tableau, target=None) -> ModuleVector:
    """Image of the source cyclic generator under the basis homomorphism
    attached to tab: the sum of coset basis vectors over the row
    equivalence class."""
    if target is None:
        target = tab.content()
    elif drop_trailing_zeros(target) != drop_trailing_zeros(tab.content()):
        raise ValueError("target does not match the tableau type")
    return _row_class_sum(field, {tab: field.one_rep}, target)


def theta_on_generator(field: FieldSpec, tab: Tableau) -> ModuleVector:
    """Value of the restricted basis homomorphism at the Specht generator
    of the tableau's shape."""
    lam = check_partition(tab.shape)
    return push_through(theta_image_of_x(field, tab), specht_generator(field, lam))


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
    return _landing_dimension(check_partition(v.shape), [v]) == 1


def _landing_dimension(mu, values) -> int:
    """Dimension of the combinations of the given vectors of the
    permutation module of mu that lie in its Specht submodule, that is
    (kernel intersection) that every merge map psi_{d,t} kills.

    One unknown per vector; one equation per merge map and per coset key
    of the images under it, formed in the order the keys first appear
    across the images and eliminated at once, so the solve stops at the
    first merge map that brings the rank to the number of vectors."""
    field = values[0].field
    push = push_many(values)
    echelon = SparseEchelon(field)
    for d in range(1, len(mu)):
        for t in range(mu[d]):
            images = push(_psi_base(field, mu, d, t))
            for k in dict.fromkeys(k for image in images for k in image):
                row = {j: image[k] for j, image in enumerate(images) if k in image}
                if echelon.insert(row) and len(echelon) == len(values):
                    return 0
    return len(values) - len(echelon)


def compose_psi_theta(field: FieldSpec, tab: Tableau, d: int, t: int) -> HomSpec:
    """Symbolic composition of a one-row-merge map with a basis
    homomorphism, as a Gaussian-binomial combination of basis
    homomorphisms into the merged type."""
    if not tab.is_row_standard():
        raise ValueError("tableau must be row standard")
    lam = tab.shape
    mu = tab.content()
    nu = nu_composition(mu, d, t)
    tbar = mu[d] - t
    # positions of the value d+1 in each row; replacements keep rows weakly
    # increasing only if the leftmost occurrences are replaced
    counts = [sum(1 for v in row if v == d + 1) for row in tab.rows]
    below = [0] * (len(tab.rows) + 1)
    for i in range(len(tab.rows) - 1, -1, -1):
        below[i] = below[i + 1] + sum(1 for v in tab.rows[i] if v == d)
    out: dict = {}
    for combo in _bounded_compositions(tbar, counts):
        rows = []
        coeff = field.one_rep
        for i, row in enumerate(tab.rows):
            beta = combo[i]
            if beta:
                first = row.index(d + 1)
                row = row[:first] + (d,) * beta + row[first + beta:]
            rows.append(row)
            y_i = sum(1 for v in row if v == d)
            if beta:
                x_i = below[i + 1]
                coeff = field.mul(coeff, field.q_power(x_i * beta))
                coeff = field.mul(coeff, qbinom(field, y_i, beta).rep)
        new_tab = Tableau(rows)
        _acc(field, out, new_tab, coeff)
    return HomSpec(field, lam, nu, out)


def _bounded_compositions(total, bounds):
    """All tuples 0 <= c_i <= bounds[i] with sum equal to total."""
    if total < 0:
        return
    if not bounds:
        if total == 0:
            yield ()
        return
    first = bounds[0]
    for c in range(min(first, total), -1, -1):
        for rest in _bounded_compositions(total - c, bounds[1:]):
            yield (c,) + rest


def evaluate_on_generator(hom: HomSpec) -> ModuleVector:
    """Value of the restricted homomorphism at the Specht generator of
    its source."""
    lam = check_partition(hom.source)
    base = _row_class_sum(hom.field, hom.coeffs, hom.target)
    return push_through(base, specht_generator(hom.field, lam))


def restriction_is_zero(hom: HomSpec) -> bool:
    return evaluate_on_generator(hom).is_zero()


def restriction_into_specht(hom: HomSpec) -> bool:
    return restriction_verdicts(hom)[1]


def restriction_verdicts(hom: HomSpec) -> tuple[bool, bool]:
    """(is the restriction zero, does it land in the Specht submodule of
    the target), from a single evaluation at the generator."""
    target = check_partition(drop_trailing_zeros(hom.target))
    value = evaluate_on_generator(hom)
    return value.is_zero(), specht_membership(ModuleVector(hom.field, target, value.coeffs))


# ---------------------------------------------------------------------------
# hom-space dimensions: semistandard basis maps, or the intertwiner system

def semistandard_scope(profile: QuantumProfile, lam) -> bool:
    """Whether the semistandard homomorphism theorem (Dipper-James) holds
    for maps out of the Specht module of lam: q != -1, that is e != 2, or
    lam 2-regular.  Then the restricted basis maps of the semistandard
    tableaux of shape lam and type mu form a basis of the maps into the
    permutation module of mu, for every mu."""
    return profile.e != 2 or is_2regular(lam)


def hom_space_dim(field: FieldSpec, lam, mu) -> int:
    """Dimension of the space of module maps from the Specht module of
    lam to the Specht module of mu.

    It equals the dimension for the conjugates (mu', lam'): the dual of a
    Specht module is that of the conjugate shape twisted by # (Dipper-James;
    Mathas, ch. 3).  Unless lam is one row, the cheaper side is solved."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partitions must have equal size")
    if lam != (sum(lam),):
        dual = conjugate(mu), conjugate(lam)
        if _route_cost(field, *dual) < _route_cost(field, lam, mu):
            lam, mu = dual
    return _direct_dimension(field, lam, mu)


def _route_cost(field: FieldSpec, lam, mu):
    """Off the one-row and semistandard routes last, then by dim M^mu."""
    cheap = lam == (sum(lam),) or semistandard_scope(field.profile(), lam)
    return not cheap, permutation_dim(mu)


def _direct_dimension(field: FieldSpec, lam, mu) -> int:
    """``hom_space_dim`` of (lam, mu) solved as given.

    Maps out of the trivial one-row module are special-cased: the
    q-symmetric vectors of the permutation module form a line, spanned by
    the all-ones vector, so the dimension is 1 or 0 according to whether
    that vector lies in the Specht submodule.  Within the semistandard
    scope the dimension is solved over the semistandard basis maps;
    outside it, from the exact intertwiner system on spun-out generator
    matrices."""
    if lam == (sum(mu),):
        ones = ModuleVector(
            field, mu, {d: field.one_rep for d in coset_reps(mu)}
        )
        return _landing_dimension(mu, [ones])
    if semistandard_scope(field.profile(), lam):
        return _semistandard_dimension(field, lam, mu)
    sa = spin_specht(field, lam)
    sb = spin_specht(field, mu)
    return _intertwiner_dimension(field, sa.matrices, sb.matrices)


def _semistandard_dimension(field: FieldSpec, lam, mu) -> int:
    """Dimension of the maps from the Specht module of lam into that of
    mu, valid only within ``semistandard_scope``.

    The maps are the combinations of the restricted basis maps theta_T,
    T semistandard of shape lam and type mu, that land in the Specht
    submodule: the landing dimension of the values
    v_T = theta_T(generator)."""
    tabs = enumerate_semistandard(lam, mu)
    if not tabs:
        return 0
    gen = specht_generator(field, lam)
    return _landing_dimension(
        mu, [push_through(theta_image_of_x(field, tab, mu), gen) for tab in tabs]
    )


def _intertwiner_dimension(field, mats_a, mats_b) -> int:
    """Dimension of the matrices X with A X = X B for every generator pair
    (A, B), X unrolled row-major into ma * mb unknowns."""
    ma = len(mats_a[0])
    mb = len(mats_b[0])
    total = ma * mb
    echelon = SparseEchelon(field)
    f = field
    for A, B in zip(mats_a, mats_b):
        for r in range(ma):
            for c in range(mb):
                row: dict = {}
                for k in range(ma):
                    v = A[r][k]
                    if not f.is_zero(v):
                        _acc(f, row, k * mb + c, v)
                for k in range(mb):
                    v = B[k][c]
                    if not f.is_zero(v):
                        _acc(f, row, r * mb + k, f.neg(v))
                if echelon.insert(row) and len(echelon) == total:
                    return 0
    return total - len(echelon)


# ---------------------------------------------------------------------------
# the linear conditions for one-node homomorphisms

def _merge_rewrite(field: FieldSpec, mu, entries, d: int):
    """Rewrite the image of a one-node basis homomorphism under the d-th
    top merge map as (coefficient, code of a semistandard target tableau),
    or None when it vanishes."""
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


def one_node_conditions_check(field: FieldSpec, mu, coeffs) -> bool:
    """Whether a coefficient assignment over one-node codes satisfies the
    linear conditions equivalent to the restricted map landing in the
    Specht submodule of the target.

    mu is the full base partition (last part 1); coeffs maps code entry
    tuples to scalars."""
    mu = check_partition(mu)
    if mu[-1] != 1:
        raise ValueError("base partition must end in 1")
    clean = {}
    for entries, rep in coeffs.items():
        code = OneNodeCode(mu, entries)
        if not code.is_semistandard():
            raise ValueError(f"code {code.entries} is not semistandard")
        if hasattr(rep, "rep"):
            rep = rep.rep
        clean[code.entries] = rep
    for d in range(1, len(mu)):
        groups: dict = {}
        for entries, rep in clean.items():
            rewritten = _merge_rewrite(field, mu, entries, d)
            if rewritten is None:
                continue
            coeff, target = rewritten
            _acc(field, groups, target, field.mul(coeff, rep))
        if groups:
            return False
    return True
