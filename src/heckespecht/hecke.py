"""The Hecke algebra action on permutation modules and Specht modules.

A permutation-module vector is a sparse map from minimal coset
representatives (one-line permutation tuples) to scalars.  The generator
action follows the three-case multiplication rule for x-generated
modules: absorb a q on a same-row pair, move to the swapped
representative when the rows increase, and produce the mixed two-term
combination otherwise.  Everything else (words, module maps evaluated
one reduced word per key, algebra elements, values at the Specht
generator x T_{w_lam} y_{lam'} with y factored into run sums, spinning
out a basis with exact Gaussian elimination) is built on it.

The full group-algebra ``HeckeElement`` and ``y_element`` are also
provided; module code never expands vectors over the n! basis, but the
tests use them as independent multiplication oracles.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache

from .partitions import check_composition, check_partition, conjugate
from .qfield import FieldSpec
from .tableaux import (
    perm_identity,
    perm_length,
    perm_times_s,
    reduced_word,
    shape_row_of_position,
    standard_count,
    t_row,
    w_lambda,
)


# ---------------------------------------------------------------------------
# sparse vectors over coset representatives

class ModuleVector:
    """Element of the permutation module of a composition shape."""

    __slots__ = ("field", "shape", "coeffs")

    def __init__(self, field: FieldSpec, shape, coeffs=None):
        self.field = field
        self.shape = tuple(shape)
        self.coeffs = {} if coeffs is None else coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "ModuleVector") -> "ModuleVector":
        self._check(other)
        out = dict(self.coeffs)
        f = self.field
        for k, rep in other.coeffs.items():
            _acc(f, out, k, rep)
        return ModuleVector(f, self.shape, out)

    def scale(self, scalar) -> "ModuleVector":
        f = self.field
        rep = scalar.rep if hasattr(scalar, "rep") else scalar
        if f.is_zero(rep):
            return ModuleVector(f, self.shape, {})
        return ModuleVector(f, self.shape, {k: f.mul(v, rep) for k, v in self.coeffs.items()})

    def _check(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("vectors live in different modules")

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.field == other.field
            and self.shape == other.shape
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        items = ", ".join(
            f"{d}: {self.field.format_rep(c)}" for d, c in sorted(self.coeffs.items())
        )
        return f"ModuleVector({self.shape}; {{{items}}})"

    def to_json(self) -> dict:
        """Keys rendered as the row-standard tableaux indexing the basis."""
        rows = []
        for d, c in sorted(self.coeffs.items()):
            start, tab = 0, []
            for part in self.shape:
                tab.append(list(d[start:start + part]))
                start += part
            rows.append({"tableau": tab, "scalar": self.field.format_rep(c)})
        return {"shape": list(self.shape), "coefficients": rows}


def basis_vector(field: FieldSpec, shape, d=None) -> ModuleVector:
    shape = check_composition(shape)
    n = sum(shape)
    d = perm_identity(n) if d is None else tuple(d)
    return ModuleVector(field, shape, {d: field.one_rep})


def _acc(field, coeffs: dict, key, rep):
    """coeffs[key] += rep, keeping only nonzero entries."""
    old = coeffs.get(key)
    if old is None:
        if not field.is_zero(rep):
            coeffs[key] = rep
        return
    new = field.add(old, rep)
    if field.is_zero(new):
        del coeffs[key]
    else:
        coeffs[key] = new


class SparseEchelon:
    """Row echelon form of sparse vectors (dicts from sortable keys to
    reps): rows sorted by pivot, the smallest key of the row, and each
    scaled to coefficient one at its pivot.

    The single elimination kernel behind spinning and the intertwiner
    solve.  Reducing against the rows in pivot order clears every pivot,
    because a row only has keys at or after its own pivot."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: list[tuple] = []  # (pivot, normalised coeff dict)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, coeffs: dict) -> dict:
        """Clear every pivot from coeffs in place; returns the multiple of
        each row taken away, by pivot (rows not used are left out)."""
        f = self.field
        taken = {}
        for pivot, row in self.rows:
            c = coeffs.get(pivot)
            if c is None:
                continue
            taken[pivot] = c
            nc = f.neg(c)
            for k, rep in row.items():
                _acc(f, coeffs, k, f.mul(nc, rep))
        return taken

    def insert(self, coeffs: dict) -> bool:
        """Reduce coeffs in place against the rows and keep the remainder
        as a new row; returns False when it reduces to zero."""
        self._reduce(coeffs)
        if not coeffs:
            return False
        f = self.field
        pivot = min(coeffs)
        inv = f.inv(coeffs[pivot])
        normal = {k: f.mul(inv, rep) for k, rep in coeffs.items()}
        insort(self.rows, (pivot, normal), key=lambda item: item[0])
        return True

    def coordinates(self, coeffs: dict) -> list:
        """Coefficients of coeffs over the rows, in pivot order; raises
        ValueError when coeffs lies outside their span."""
        coeffs = dict(coeffs)
        taken = self._reduce(coeffs)
        if coeffs:
            raise ValueError("vector lies outside the span of the rows")
        zero = self.field.zero_rep
        return [taken.get(pivot, zero) for pivot, _ in self.rows]


def _act_dict(field, rowpos, coeffs: dict, i: int) -> dict:
    """Right action of the i-th generator on a coefficient dict."""
    out: dict = {}
    q = field.q_rep
    qm1 = field.qm1_rep
    mul = field.mul
    for d, c in coeffs.items():
        pi = d.index(i)
        pj = d.index(i + 1)
        ri = rowpos[pi]
        rj = rowpos[pj]
        if ri == rj:
            _acc(field, out, d, mul(q, c))
        else:
            swapped = list(d)
            swapped[pi], swapped[pj] = i + 1, i
            swapped = tuple(swapped)
            if ri < rj:
                _acc(field, out, swapped, c)
            else:
                _acc(field, out, swapped, mul(q, c))
                _acc(field, out, d, mul(qm1, c))
    return out


def act_gen(v: ModuleVector, i: int) -> ModuleVector:
    """v . T_i for a single generator index 1 <= i < n."""
    n = sum(v.shape)
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    rowpos = shape_row_of_position(v.shape)
    return ModuleVector(v.field, v.shape, _act_dict(v.field, rowpos, v.coeffs, i))


def act_word(v: ModuleVector, w) -> ModuleVector:
    """v . T_w along a reduced word of w (the result is word independent)."""
    rowpos = shape_row_of_position(v.shape)
    coeffs = v.coeffs
    for i in reduced_word(tuple(w)):
        coeffs = _act_dict(v.field, rowpos, coeffs, i)
    return ModuleVector(v.field, v.shape, coeffs)


def push_through(base: ModuleVector, v) -> ModuleVector:
    """Image of v under the homomorphism sending the source generator to
    base: the sum over v's keys w of c_w . base . T_w, one ``act_word``
    per key.  v is anything with a field and a ``coeffs`` dict keyed by
    permutations, such as a ``ModuleVector`` or a ``HeckeElement`` (then
    the result is base . v)."""
    if base.field != v.field:
        raise ValueError("base and v over different fields")
    f = base.field
    out: dict = {}
    for w, c in v.coeffs.items():
        for k, rep in act_word(base, w).coeffs.items():
            _acc(f, out, k, f.mul(c, rep))
    return ModuleVector(f, base.shape, out)


# ---------------------------------------------------------------------------
# the group algebra, used as a multiplication oracle and for y-sums

class HeckeElement:
    """Sparse element of the Hecke algebra over the n! basis."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field: FieldSpec, n: int, coeffs=None):
        self.field = field
        self.n = n
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def from_perm(cls, field, w, scalar=None) -> "HeckeElement":
        w = tuple(w)
        rep = field.one_rep if scalar is None else (
            scalar.rep if hasattr(scalar, "rep") else scalar
        )
        return cls(field, len(w), {w: rep})

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.coeffs)
        for k, rep in other.coeffs.items():
            _acc(self.field, out, k, rep)
        return HeckeElement(self.field, self.n, out)

    def scale(self, scalar) -> "HeckeElement":
        f = self.field
        rep = scalar.rep if hasattr(scalar, "rep") else scalar
        if f.is_zero(rep):
            return HeckeElement(f, self.n, {})
        return HeckeElement(f, self.n, {k: f.mul(v, rep) for k, v in self.coeffs.items()})

    def times_gen(self, i: int) -> "HeckeElement":
        f = self.field
        q = f.q_rep
        qm1 = f.qm1_rep
        out: dict = {}
        for w, c in self.coeffs.items():
            ws = perm_times_s(w, i)
            if perm_length(ws) > perm_length(w):
                _acc(f, out, ws, c)
            else:
                _acc(f, out, ws, f.mul(q, c))
                _acc(f, out, w, f.mul(qm1, c))
        return HeckeElement(f, self.n, out)

    def times_word(self, w) -> "HeckeElement":
        out = self
        for i in reduced_word(tuple(w)):
            out = out.times_gen(i)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        items = ", ".join(
            f"T{d}*{self.field.format_rep(c)}" for d, c in sorted(self.coeffs.items())
        )
        return f"HeckeElement({items})"


def row_stabilizer(shape):
    """Yield (w, length) over the row stabiliser of the row filling of the
    shape."""
    blocks = (itertools.permutations(row) for row in t_row(shape).rows)
    for pieces in itertools.product(*blocks):
        yield tuple(itertools.chain.from_iterable(pieces)), sum(map(perm_length, pieces))


def x_element(field: FieldSpec, shape) -> HeckeElement:
    out: dict = {}
    for w, _ in row_stabilizer(shape):
        out[w] = field.one_rep
    return HeckeElement(field, sum(shape), out)


def y_element(field: FieldSpec, shape) -> HeckeElement:
    out: dict = {}
    for w, length in row_stabilizer(shape):
        rep = field.q_power(-length)
        if length % 2:
            rep = field.neg(rep)
        out[w] = rep
    return HeckeElement(field, sum(shape), out)


def _run_sum(field, rowpos, coeffs: dict, letters, step) -> dict:
    """coeffs . sum_k step^k T_{l_1} T_{l_2} ... T_{l_k} over the prefixes
    l_1..l_k of the letters, k = 0 (the identity) included."""
    out = dict(coeffs)
    power = field.one_rep
    for i in letters:
        coeffs = _act_dict(field, rowpos, coeffs, i)
        power = field.mul(power, step)
        for k, rep in coeffs.items():
            _acc(field, out, k, field.mul(power, rep))
    return out


def apply_signed_stabilizer_sum(v: ModuleVector, shape) -> ModuleVector:
    """v . y for the signed sum y = sum (-q^-1)^l(w) T_w over the row
    stabiliser of the shape.  Each w in S_{a..j+1} is u d, u in S_{a..j}
    and d = s_j s_{j-1} ... s_{j-i+1}, lengths adding; so for each row
    a..b of the row filling, y is the product over j = a..b-1, in turn,
    of the run sums sum_{i=0}^{j-a+1} (-q^-1)^i T_j T_{j-1} ... T_{j-i+1}."""
    f = v.field
    step = f.neg(f.q_power(-1))
    rowpos = shape_row_of_position(v.shape)
    coeffs = v.coeffs
    for row in t_row(shape).rows:
        for j in row[:-1]:
            coeffs = _run_sum(f, rowpos, coeffs, range(j, row[0] - 1, -1), step)
    return ModuleVector(f, v.shape, coeffs)


# ---------------------------------------------------------------------------
# the Specht generator and spinning

def at_generator(v: ModuleVector, lam) -> ModuleVector:
    """Value at the Specht generator z = x T_{w_lam} y_{lam'} of lam of
    the homomorphism out of the permutation module of lam that sends x to
    v: v . T_{w_lam} . y_{lam'}."""
    lam = check_partition(lam)
    return apply_signed_stabilizer_sum(act_word(v, w_lambda(lam)), conjugate(lam))


def specht_generator(field: FieldSpec, lam) -> ModuleVector:
    """The canonical generator of the Specht submodule, expanded over the
    coset basis of the permutation module."""
    v = at_generator(basis_vector(field, lam), lam)
    if v.is_zero():
        raise AssertionError("Specht generator vanished")
    return v


class SpechtModule:
    """An echelonised basis of the Specht submodule together with the
    exact matrices of the generator action on that basis."""

    __slots__ = ("field", "shape", "echelon", "matrices")

    def __init__(self, field, shape, echelon: SparseEchelon, matrices):
        self.field = field
        self.shape = shape
        self.echelon = echelon
        self.matrices = matrices

    @property
    def dimension(self) -> int:
        return len(self.echelon)

    def matrix(self, i: int):
        """Row-major matrix of the right action of the i-th generator."""
        return self.matrices[i - 1]


def _spin(v: ModuleVector) -> SparseEchelon:
    """Echelon basis of the submodule generated by v: insert v, then the
    generator images of each new row exactly once.

    The worklist holds each remainder that insert kept, a multiple of the
    row it became; together they span the rows, so acting on each once
    closes the span after 1 + dim * (n - 1) inserts."""
    n = sum(v.shape)
    rowpos = shape_row_of_position(v.shape)
    echelon = SparseEchelon(v.field)
    first = dict(v.coeffs)
    pending = [first] if echelon.insert(first) else []
    while pending:
        row = pending.pop()
        for i in range(1, n):
            image = _act_dict(v.field, rowpos, row, i)
            if echelon.insert(image):
                pending.append(image)
    return echelon


def spin_specht(field: FieldSpec, lam) -> SpechtModule:
    """Close the cyclic module generated by the Specht generator under the
    generator action; the echelonised result is cached per (field, shape)."""
    return _spin_specht(field, check_partition(lam))


@lru_cache(maxsize=128)
def _spin_specht(field: FieldSpec, lam) -> SpechtModule:
    module = SpechtModule(field, lam, _spin(specht_generator(field, lam)), [])
    expected = standard_count(lam)
    if module.dimension != expected:
        raise AssertionError(
            f"spun dimension {module.dimension} differs from standard count {expected} for {lam}"
        )
    rowpos = shape_row_of_position(lam)
    for i in range(1, sum(lam)):
        module.matrices.append([
            module.echelon.coordinates(_act_dict(field, rowpos, row, i))
            for _, row in module.echelon.rows
        ])
    return module


def cyclic_closure_dimension(v: ModuleVector) -> int:
    """Dimension of the submodule generated by v, by spinning v under the
    generator action with exact elimination."""
    return len(_spin(v))


# ---------------------------------------------------------------------------
# ascending/descending run-sum identity (test hook)

def run_sum_identity_holds(field: FieldSpec, mu, d: int, z: int) -> bool:
    """Direct check that pushing the ascending run sum across a descending
    ladder of generators equals the q-shifted descending run sum.

    mu must end in a part equal to 1; d picks the merged row pair and
    z ranges over the ladder top, y <= z <= n."""
    mu = check_partition(mu)
    if mu[-1] != 1:
        raise ValueError("base partition must end in 1")
    s = len(mu) - 1
    if not 1 <= d < s:
        raise ValueError(f"need 1 <= d < {s}")
    n = sum(mu)
    nu = list(mu)
    nu[d - 1] += 1
    nu[d] -= 1
    nu = tuple(nu)
    x = sum(mu[:d]) + 2
    y = sum(mu[:d + 1]) + 1
    if not y <= z <= n:
        raise ValueError(f"need {y} <= z <= {n}")

    rowpos = shape_row_of_position(nu)
    sides = []
    for top, letters in ((x, range(x, y)), (y, range(y - 1, x - 1, -1))):
        v = basis_vector(field, nu)
        for i in range(z - 1, top - 1, -1):
            v = act_gen(v, i)
        sides.append(_run_sum(field, rowpos, v.coeffs, letters, field.one_rep))
    lhs, rhs = sides
    return lhs == ModuleVector(field, nu, rhs).scale(field.q_power(y - x)).coeffs
