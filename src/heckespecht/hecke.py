"""The Hecke algebra action on permutation modules and Specht modules.

A permutation-module vector is a sparse map from minimal coset
representatives (one-line permutation tuples) to scalars.  The generator
action follows the three-case multiplication rule for x-generated
modules: absorb a q on a same-row pair, move to the swapped
representative when the rows increase, and produce the mixed two-term
combination otherwise.  Everything else (words, module maps evaluated
by a prefix walk over reduced words, algebra elements, the Specht
generator, spinning out a basis with exact Gaussian elimination) is
built on that single rule.

The full group-algebra ``HeckeElement`` is also provided; module code
never expands vectors over the n! basis, but the tests use it as an
independent multiplication oracle.
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

    def copy(self) -> "ModuleVector":
        return ModuleVector(self.field, self.shape, dict(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d):
        rep = self.coeffs.get(tuple(d))
        return self.field.scalar(self.field.zero_rep if rep is None else rep)

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

    def __hash__(self):
        raise TypeError("ModuleVector is not hashable")

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


def _act_dict(field, shape, rowpos, coeffs: dict, i: int) -> dict:
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
    return ModuleVector(v.field, v.shape, _act_dict(v.field, v.shape, rowpos, v.coeffs, i))


def act_word(v: ModuleVector, w) -> ModuleVector:
    """v . T_w along a reduced word of w (the result is word independent)."""
    rowpos = shape_row_of_position(v.shape)
    coeffs = v.coeffs
    for i in reduced_word(tuple(w)):
        coeffs = _act_dict(v.field, v.shape, rowpos, coeffs, i)
    return ModuleVector(v.field, v.shape, coeffs)


def act_element(v: ModuleVector, h: "HeckeElement") -> ModuleVector:
    if v.field != h.field:
        raise ValueError("vector and element over different fields")
    out: dict = {}
    f = v.field
    for w, c in h.coeffs.items():
        moved = act_word(v, w)
        for k, rep in moved.coeffs.items():
            _acc(f, out, k, f.mul(c, rep))
    return ModuleVector(f, v.shape, out)


def push_through(base: ModuleVector, v) -> ModuleVector:
    """Image of v under the homomorphism sending the source generator to
    base, by ``push_many`` of v alone.  v is anything with a ``coeffs``
    dict keyed by permutations, such as a ``ModuleVector`` or a
    ``HeckeElement`` (then the result is base . v)."""
    return ModuleVector(base.field, base.shape, push_many([v])(base)[0])


def push_many(vectors):
    """push(base) -> the coefficient dicts of the vectors' images under
    the homomorphism sending the source generator to base.

    The union of the vectors' keys is sorted once, by reduced word, and
    each push visits it in that order: a depth-first walk of the prefix
    tree of the words, holding the image of base under every prefix of
    the current word.  So each key w costs one generator action on the
    image of its parent w s_i, i the last letter of reduced_word(w),
    shared prefixes are acted out once, and one walk serves every
    vector; ``act_word`` and ``act_element`` remain the per-key oracles."""
    coeffs = [v.coeffs for v in vectors]
    order = sorted((reduced_word(w), w) for w in {w for c in coeffs for w in c})

    def push(base: ModuleVector) -> list:
        f = base.field
        rowpos = shape_row_of_position(base.shape)
        mul = f.mul
        outs = [{} for _ in coeffs]
        path = [base.coeffs]  # path[j]: base pushed by the first j letters
        prev = ()
        for word, key in order:
            keep = 0
            for a, b in zip(prev, word):
                if a != b:
                    break
                keep += 1
            del path[keep + 1:]
            for i in word[keep:]:
                path.append(_act_dict(f, base.shape, rowpos, path[-1], i))
            for vc, out in zip(coeffs, outs):
                c = vc.get(key)
                if c is not None:
                    for k, rep in path[-1].items():
                        _acc(f, out, k, mul(c, rep))
            prev = word
        return outs

    return push


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

    def __hash__(self):
        raise TypeError("HeckeElement is not hashable")

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


def apply_signed_stabilizer_sum(v: ModuleVector, shape) -> ModuleVector:
    """v . y for the signed sum y over the row stabiliser of the shape."""
    return push_through(v, y_element(v.field, shape))


# ---------------------------------------------------------------------------
# the Specht generator and spinning

def specht_generator(field: FieldSpec, lam) -> ModuleVector:
    """The canonical generator of the Specht submodule, expanded over the
    coset basis of the permutation module."""
    return _specht_generator(field, check_partition(lam)).copy()


@lru_cache(maxsize=1024)
def _specht_generator(field: FieldSpec, lam) -> ModuleVector:
    v = act_word(basis_vector(field, lam), w_lambda(lam))
    v = apply_signed_stabilizer_sum(v, conjugate(lam))
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

    def coordinates(self, v: ModuleVector):
        """Coordinates of v in the echelon basis; raises if v is outside."""
        return self.echelon.coordinates(v.coeffs)


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
            image = _act_dict(v.field, v.shape, rowpos, row, i)
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
            module.echelon.coordinates(_act_dict(field, lam, rowpos, row, i))
            for _, row in module.echelon.rows
        ])
    return module


def cyclic_closure_dimension(v: ModuleVector) -> int:
    """Dimension of the submodule generated by v, by spinning v under the
    generator action with exact elimination."""
    return len(_spin(v))


# ---------------------------------------------------------------------------
# ascending/descending run-sum identity (test hook)

def _prefix_run_sum(v: ModuleVector, lo: int, hi: int, ascending: bool) -> ModuleVector:
    """Sum over the telescoping words I, T_a, T_a T_b, ... between lo and hi."""
    acc = v.copy()
    t = v
    if ascending:
        letters = range(lo, hi)
    else:
        letters = range(hi - 1, lo - 1, -1)
    for i in letters:
        t = act_gen(t, i)
        acc = acc.add(t)
    return acc


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

    lhs = basis_vector(field, nu)
    for i in range(z - 1, x - 1, -1):
        lhs = act_gen(lhs, i)
    lhs = _prefix_run_sum(lhs, x, y, ascending=True)

    rhs = basis_vector(field, nu)
    for i in range(z - 1, y - 1, -1):
        rhs = act_gen(rhs, i)
    rhs = _prefix_run_sum(rhs, x, y, ascending=False)
    rhs = rhs.scale(field.q_power(y - x))
    return lhs == rhs
