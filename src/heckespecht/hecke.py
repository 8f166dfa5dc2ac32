"""The Hecke algebra action on permutation modules and Specht modules.

A permutation-module vector of M^nu is a sparse map from row words to
scalars: the basis vector x T_d, d a minimal coset representative, has
the key whose k-th letter is the row of nu that holds k in the
row-standard tableau of d (``tableaux.coset_rep`` goes back to d).  The
generator T_i reads letters i and i+1, by the three-case multiplication
rule for x-generated modules: absorb a q when they are equal, swap them
when they increase, and produce the mixed two-term combination
otherwise.  Everything else (words, module maps evaluated one reduced
word per key, algebra elements, values at the Specht generator, spinning
out a basis with exact Gaussian elimination) is built on it.

A value at the Specht generator z = x T_{w_lam} y_{lam'} is read off its
column-canonical keys (``generator_keys``) at every q: y factors through
1 + (-q)^-1 T_i for s_i inside a column block, so each key folds onto one
canonical key, with a sign, or drops out.  The whole value, y factored
into run sums (``at_generator``), is the oracle; it also makes z itself,
the signed column sum of one key.

The full group-algebra ``HeckeElement`` (with ``x_element``,
``y_element`` and ``row_stabilizer``) is also provided; no library code
expands vectors over the n! basis, but the tests use it as an independent
multiplication oracle, among others for z.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache

from .partitions import check_composition, check_partition, conjugate
from .qfield import FieldSpec
from .tableaux import (
    coset_rep,
    perm_length,
    perm_times_s,
    reduced_word,
    standard_count,
    t_row,
    w_lambda,
)


# ---------------------------------------------------------------------------
# sparse vectors over row words

class ModuleVector:
    """Element of the permutation module of a composition shape, keyed by
    row words: the basis vector x T_d has the key whose k-th letter is the
    row of the shape holding k in the row-standard tableau of d."""

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
        rep = f.rep_of(scalar)
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
        """Keys rendered as the row-standard tableaux indexing the basis,
        in the order of their coset representatives."""
        rows = []
        for d, c in sorted((coset_rep(w), c) for w, c in self.coeffs.items()):
            start, tab = 0, []
            for part in self.shape:
                tab.append(list(d[start:start + part]))
                start += part
            rows.append({"tableau": tab, "scalar": self.field.format_rep(c)})
        return {"shape": list(self.shape), "coefficients": rows}


def basis_vector(field: FieldSpec, shape, d=None) -> ModuleVector:
    """x T_d, the generator x when d is None; the basis vector of d when d
    is a minimal coset representative."""
    shape = check_composition(shape)
    word = tuple(r for r, part in enumerate(shape, start=1) for _ in range(part))
    x = ModuleVector(field, shape, {word: field.one_rep})
    return x if d is None else act_word(x, d)


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

    The single elimination kernel behind spinning (which indexes its rows
    in the order kept, not by pivot), the left kernels of
    ``homs._cyclic_dimension``, the intertwiner solve and the semistandard
    solve's ``homs._landing_solve``; a single map's landing verdict
    eliminates nothing.  Reducing against the rows in pivot order
    clears every pivot, since a row has no key before its own pivot."""

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
        if coeffs:
            self._keep(coeffs)
        return bool(coeffs)

    def _keep(self, coeffs: dict) -> tuple:
        """Keep coeffs, nonzero and reduced, as a new row, scaled to one at
        its pivot; returns the row, (pivot, normalised coeff dict)."""
        f = self.field
        pivot = min(coeffs)
        inv = f.inv(coeffs[pivot])
        row = (pivot, {k: f.mul(inv, rep) for k, rep in coeffs.items()})
        insort(self.rows, row, key=lambda item: item[0])
        return row


def _act_dict(field, coeffs: dict, i: int) -> dict:
    """Right action of the i-th generator on a coefficient dict, by the
    rows a, b holding i, i+1 in each key w: q w when a = b, w s_i when
    a < b, and q w s_i + (q - 1) w when a > b, w s_i swapping the two."""
    out: dict = {}
    q = field.q_rep
    qm1 = field.qm1_rep
    mul = field.mul
    for w, c in coeffs.items():
        a, b = w[i - 1], w[i]
        if a == b:
            _acc(field, out, w, mul(q, c))
        else:
            swapped = w[:i - 1] + (b, a) + w[i + 1:]
            if a < b:
                _acc(field, out, swapped, c)
            else:
                _acc(field, out, swapped, mul(q, c))
                _acc(field, out, w, mul(qm1, c))
    return out


def act_gen(v: ModuleVector, i: int) -> ModuleVector:
    """v . T_i for a single generator index 1 <= i < n."""
    n = sum(v.shape)
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return ModuleVector(v.field, v.shape, _act_dict(v.field, v.coeffs, i))


def act_word(v: ModuleVector, w) -> ModuleVector:
    """v . T_w along a reduced word of w (the result is word independent)."""
    coeffs = v.coeffs
    for i in reduced_word(tuple(w)):
        coeffs = _act_dict(v.field, coeffs, i)
    return ModuleVector(v.field, v.shape, coeffs)


def push_through(base: ModuleVector, v) -> ModuleVector:
    """Image of v under the homomorphism sending the source generator to
    base: the sum of c_d . base . T_d over v's basis elements, one
    ``act_word`` per key.  v is a ``ModuleVector``, whose row word w names
    x T_d with d = coset_rep(w), or a ``HeckeElement``, keyed by d itself
    (then the result is base . v)."""
    if base.field != v.field:
        raise ValueError("base and v over different fields")
    f = base.field
    words = isinstance(v, ModuleVector)
    out: dict = {}
    for w, c in v.coeffs.items():
        for k, rep in act_word(base, coset_rep(w) if words else w).coeffs.items():
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
        rep = field.one_rep if scalar is None else field.rep_of(scalar)
        return cls(field, len(w), {w: rep})

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "HeckeElement") -> "HeckeElement":
        if self.field != other.field or self.n != other.n:
            raise ValueError("elements live in different Hecke algebras")
        out = dict(self.coeffs)
        for k, rep in other.coeffs.items():
            _acc(self.field, out, k, rep)
        return HeckeElement(self.field, self.n, out)

    def scale(self, scalar) -> "HeckeElement":
        f = self.field
        rep = f.rep_of(scalar)
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
            and self.n == other.n
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


def _run_sum(field, coeffs: dict, letters, step) -> dict:
    """coeffs . sum_k step^k T_{l_1} T_{l_2} ... T_{l_k} over the prefixes
    l_1..l_k of the letters, k = 0 (the identity) included."""
    out = dict(coeffs)
    power = field.one_rep
    for i in letters:
        coeffs = _act_dict(field, coeffs, i)
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
    coeffs = v.coeffs
    for row in t_row(shape).rows:
        for j in row[:-1]:
            coeffs = _run_sum(f, coeffs, range(j, row[0] - 1, -1), step)
    return ModuleVector(f, v.shape, coeffs)


# ---------------------------------------------------------------------------
# the Specht generator and spinning

def at_generator(v: ModuleVector, lam) -> ModuleVector:
    """Value at the Specht generator z = x T_{w_lam} y_{lam'} of lam of
    the homomorphism out of the permutation module of lam that sends x to
    v: v . T_{w_lam} . y_{lam'}."""
    lam = check_partition(lam)
    return apply_signed_stabilizer_sum(act_word(v, w_lambda(lam)), conjugate(lam))


def generator_keys(v: ModuleVector, lam) -> dict:
    """The coefficients of ``at_generator(v, lam)`` at its column-canonical
    keys, those whose letters a..b strictly increase for each row a..b of
    the row filling of lam' (a column of lam).

    For s_i with i, i+1 in one such block, y = (1 + (-q)^-1 T_i) y'', the
    lengths adding, so T_i y = -y and e_w y = 0 when letters i and i+1 of
    a key w are equal (e_w T_i = q e_w), at every q; when they differ,
    e_{w s_i} y = -e_w y (w s_i swaps them).  So e_w y is 0 when a block
    repeats a letter, and otherwise the sign of the sort times e_W y, W
    the canonical key with each block sorted.  From W every step is an
    ascent, so e_W y is the sum of (-q^-1)^l(u) e_{W u}: disjoint supports
    for distinct W, with coefficient 1 at W.  The value is thus zero
    exactly when the returned dict is empty, and each of its other
    coefficients is a multiple of a returned one, so linear conditions on
    the values keep their span.

    Up to its first strict descent along w_lam (``_generator_plan``) a
    key only swaps or absorbs a q per step, so it is moved there at once,
    permuted and times q^(equal pairs), and acted on by the rest of the
    word; a key with no strict descent is folded at once, and the word is
    not run when no key has one."""
    lam = check_partition(lam)
    f = v.field
    word, pairs, perms, blocks = _generator_plan(lam)
    out: dict = {}
    starts: dict = {}  # step -> the keys whose first strict descent it is
    for w, c in v.coeffs.items():
        j = equal = 0
        for p, r in pairs:
            if w[p] > w[r]:
                break
            equal += w[p] == w[r]
            j += 1
        if equal:
            c = f.mul(f.q_power(equal), c)
        key = tuple(map(w.__getitem__, perms[j]))
        if j == len(word):
            _fold_key(f, out, blocks, key, c)
        else:
            starts.setdefault(j, {})[key] = c
    if starts:
        rest: dict = {}
        for j in range(min(starts), len(word)):
            for w, c in starts.get(j, {}).items():
                _acc(f, rest, w, c)
            rest = _act_dict(f, rest, word[j])
        for w, c in rest.items():
            _fold_key(f, out, blocks, w, c)
    return out


@lru_cache(maxsize=4096)
def _generator_plan(lam):
    """(reduced word of w_lam, the original positions (p, r) each step
    compares when every step swaps, the positions after each number of
    such steps, the column blocks)."""
    word = reduced_word(w_lambda(lam))
    pos = list(range(sum(lam)))
    pairs, perms = [], [tuple(pos)]
    for i in word:
        pairs.append((pos[i - 1], pos[i]))
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
        perms.append(tuple(pos))
    blocks = tuple(slice(row[0] - 1, row[-1]) for row in t_row(conjugate(lam)).rows if len(row) > 1)
    return word, tuple(pairs), tuple(perms), blocks


def _fold_key(f, out: dict, blocks, w, c) -> None:
    """Add c e_w y to out at the canonical key of w, each block sorted,
    times the sign of the sort; nothing when a block repeats a letter."""
    key = w
    odd = False
    for block in blocks:
        rows = w[block]
        if len(set(rows)) < len(rows):
            return
        ordered = tuple(sorted(rows))
        if rows != ordered:
            key = key[:block.start] + ordered + key[block.stop:]
            odd ^= sum(a > b for i, a in enumerate(rows) for b in rows[i + 1:]) % 2
    _acc(f, out, key, f.neg(c) if odd else c)


def specht_generator(field: FieldSpec, lam) -> ModuleVector:
    """The canonical generator z = x T_{w_lam} y_{lam'} of the Specht
    submodule, by run sums (``at_generator``): the signed column sum
    sum (-q^-1)^l(u) e_{W u} of the one column-canonical key W = x T_{w_lam}."""
    return at_generator(basis_vector(field, lam), lam)


class SpechtModule:
    """A basis of the Specht submodule and the exact action of each
    generator on it, as ``_spin`` keeps them: ``rows`` are the kept
    vectors, normalised, in the order kept, and ``matrices[i-1][r]`` is
    row r . T_i in those rows' coordinates, {row index: coefficient} with
    no zero stored."""

    __slots__ = ("field", "shape", "rows", "matrices")

    def __init__(self, field, shape, rows, matrices):
        self.field = field
        self.shape = shape
        self.rows = rows
        self.matrices = matrices

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _spin(v: ModuleVector) -> SpechtModule:
    """The submodule generated by v, its basis and generator matrices, in
    one breadth-first pass: keep v as row 0, then act on each kept row once,
    in the order kept.  Reducing row . T_i takes away a multiple of each row
    it meets, and a remainder is kept as the next row, at its leading
    coefficient; kept rows never change, so these are the coordinates of
    row . T_i.  They name only rows kept before it, and the row it keeps."""
    f = v.field
    n = sum(v.shape)
    echelon = SparseEchelon(f)
    rows = []
    index = {}  # pivot of a row -> its index in rows
    matrices = [[] for _ in range(n - 1)]

    def keep(coeffs):
        pivot, row = echelon._keep(coeffs)
        index[pivot] = len(rows)
        rows.append(row)

    if v.coeffs:
        keep(dict(v.coeffs))
    for row in rows:  # rows kept on the way are reached in turn
        for i in range(1, n):
            image = _act_dict(f, row, i)
            line = {index[p]: c for p, c in echelon._reduce(image).items()}
            if image:
                line[len(rows)] = image[min(image)]  # the lead, before keep scales it
                keep(image)
            matrices[i - 1].append(line)
    return SpechtModule(f, v.shape, rows, matrices)


def spin_specht(field: FieldSpec, lam) -> SpechtModule:
    """The Specht module of lam spun from its generator (``_spin``); cached
    per (field, shape)."""
    return _spin_specht(field, check_partition(lam))


@lru_cache(maxsize=128)
def _spin_specht(field: FieldSpec, lam) -> SpechtModule:
    module = _spin(specht_generator(field, lam))
    expected = standard_count(lam)
    if module.dimension != expected:
        raise AssertionError(
            f"spun dimension {module.dimension} differs from standard count {expected} for {lam}"
        )
    return module


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

    sides = []
    for top, letters in ((x, range(x, y)), (y, range(y - 1, x - 1, -1))):
        v = basis_vector(field, nu)
        for i in range(z - 1, top - 1, -1):
            v = act_gen(v, i)
        sides.append(_run_sum(field, v.coeffs, letters, field.one_rep))
    lhs, rhs = sides
    return lhs == ModuleVector(field, nu, rhs).scale(field.q_power(y - x)).coeffs
