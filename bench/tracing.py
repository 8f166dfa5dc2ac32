"""Spans and counters around the library's module boundaries.

The tracer replaces public functions with wrappers, in the defining
module and in every module that imported the name (``hecke.act_word``
and ``homs.act_word`` are two bindings of one function).  Layers come in
three weights:

* span layers record (name, start, end, parent) per call, kept in memory
  and written out at the end; a layer's self time is its span time minus
  the time its child spans cover;
* counted layers (``psi_dt``, ``cp_eligible``) only count calls;
* the hottest calls -- field ``mul``/``add``/``inv`` and ``act_word`` --
  record counts, not spans.  ``act_word`` also adds its duration to the
  enclosing span's child time, and field operations keep every
  ``SAMPLE_STRIDE``-th operand tuple, so their cost can be timed from
  outside after the run.

Counts depend only on the queries issued, so two traced runs of one seed
give identical counts (with ``PYTHONHASHSEED`` pinned).
"""

from __future__ import annotations

import statistics
from time import perf_counter

from heckespecht import carter_payne, cli, hecke, homs, qfield, reducibility, tableaux

SAMPLE_STRIDE = 101
SAMPLE_CAP = 2000
TIMING_REPEATS = 5

FAMILIES = (
    ("prime", qfield.PrimeField, "p=7,q=2"),
    ("cyclotomic", qfield.Cyclotomic, "cyclotomic:e=3"),
    ("ext", qfield.PrimeExtension, "ext:p=2,e=3"),
)
FIELD_OPS = (("mul", 2), ("add", 2), ("inv", 1))

# span layer -> every binding of the functions it covers
SPAN_LAYERS = {
    "cli.main": [(cli, "main")],
    "qfield.qbinom": [(qfield, "qbinom"), (cli, "qbinom"), (homs, "qbinom")],
    "tableaux.row_equiv_class": [(tableaux, "row_equiv_class"), (homs, "row_equiv_class")],
    "tableaux.enumerate_semistandard": [
        (tableaux, "enumerate_semistandard"), (carter_payne, "enumerate_semistandard")],
    "hecke.specht_generator": [(hecke, "specht_generator"), (homs, "specht_generator")],
    "hecke.spin_specht": [(hecke, "spin_specht"), (homs, "spin_specht")],
    "homs.push_through": [(homs, "push_through")],
    "homs.specht_membership": [(homs, "specht_membership")],
    "homs.evaluate_on_generator": [(homs, "evaluate_on_generator")],
    "homs.hom_space_dim": [(homs, "hom_space_dim"), (cli, "hom_space_dim")],
    "homs.intertwiner": [(homs, "_intertwiner_dimension")],
    "homs.compose_psi_theta": [(homs, "compose_psi_theta"), (cli, "compose_psi_theta")],
    "carter_payne.construct": [
        (carter_payne, "one_node_map"), (cli, "one_node_map"),
        (carter_payne, "adjacent_map"), (cli, "adjacent_map")],
    "carter_payne.verify_cp": [(carter_payne, "verify_cp"), (cli, "verify_cp")],
    "reducibility.is_ep_reducible": [(reducibility, "is_ep_reducible")],
}
COUNTED_LAYERS = {
    "homs.psi_dt": [(homs, "psi_dt")],
    "carter_payne.cp_eligible": [(carter_payne, "cp_eligible"), (cli, "cp_eligible")],
}
ACT_WORD = [(hecke, "act_word"), (homs, "act_word")]

# (field name, shape) keys of the cached constructors: a call whose key
# was seen before is a cache hit
KEYED_LAYERS = ("hecke.specht_generator", "hecke.spin_specht")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name id, start, end, parent index]
        self.light: list[float] = []     # per span: time of counted children
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.act_word_s = 0.0
        self.samples: dict[tuple, list] = {}
        self._field_calls: dict[tuple, list] = {}
        self._seen: dict[str, set] = {name: set() for name in KEYED_LAYERS}
        self._patches: list[tuple] = []

    # -- installing ---------------------------------------------------------
    def install(self):
        for name, bindings in SPAN_LAYERS.items():
            self._patch(bindings, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, bindings in COUNTED_LAYERS.items():
            self._patch(bindings, lambda fn, name=name: self._count_wrapper(name, fn))
        self._patch(ACT_WORD, self._act_word_wrapper)
        for family, cls, _ in FAMILIES:
            for op, arity in FIELD_OPS:
                original = cls.__dict__[op]
                self._patches.append((cls, op, original))
                setattr(cls, op, self._field_wrapper(family, op, arity, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, bindings, make):
        wrapped = {}
        for owner, attr in bindings:
            original = getattr(owner, attr)
            if original not in wrapped:
                wrapped[original] = make(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped[original])

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, light, stack, counts = self.spans, self.light, self.stack, self.counts
        seen = self._seen.get(name)
        key_hits = name + ".hits"
        if seen is not None:
            counts[key_hits] = 0
        extra_counter, extra_amount = _EXTRAS.get(name, (None, None))
        if extra_counter is not None:
            counts[extra_counter] = 0

        def wrapper(*args, **kwargs):
            if seen is not None:
                key = (args[0].name, tuple(args[1]))
                if key in seen:
                    counts[key_hits] += 1
                else:
                    seen.add(key)
            idx = len(spans)
            span = [nid, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            light.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra_counter is not None:
                counts[extra_counter] += extra_amount(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _act_word_wrapper(self, fn):
        counts, light, stack = self.counts, self.light, self.stack
        counts["hecke.act_word.calls"] = 0
        counts["hecke.act_word.terms_in"] = 0
        tracer = self

        def act_word(v, w):
            counts["hecke.act_word.calls"] += 1
            counts["hecke.act_word.terms_in"] += len(v.coeffs)
            start = perf_counter()
            try:
                return fn(v, w)
            finally:
                took = perf_counter() - start
                tracer.act_word_s += took
                if stack:
                    light[stack[-1]] += took

        return act_word

    def _field_wrapper(self, family, op, arity, fn):
        calls = self._field_calls.setdefault((family, op), [0])
        bucket = self.samples.setdefault((family, op), [])

        if arity == 2:
            def wrapper(field, a, b):
                result = fn(field, a, b)
                calls[0] += 1
                if calls[0] % SAMPLE_STRIDE == 0 and len(bucket) < SAMPLE_CAP:
                    bucket.append((field, (a, b)))
                return result
        else:
            def wrapper(field, a):
                result = fn(field, a)
                calls[0] += 1
                if calls[0] % SAMPLE_STRIDE == 0 and len(bucket) < SAMPLE_CAP:
                    bucket.append((field, (a,)))
                return result

        return wrapper

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; call after uninstall()."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx, (nid, start, end, _) in enumerate(self.spans):
            calls[nid] += 1
            self_s[nid] += (end - start) - child[idx] - self.light[idx]
        by_name: dict[str, list] = {}
        for nid, name in enumerate(self.names):
            agg = by_name.setdefault(name, [0, 0.0])
            agg[0] += calls[nid]
            agg[1] += self_s[nid]

        out = {}
        for name, (n, s) in by_name.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = s
        for name in KEYED_LAYERS:
            n = by_name[name][0]
            out[name + ".hit_ratio"] = self.counts[name + ".hits"] / n if n else 0.0
        for key, value in self.counts.items():
            if not key.endswith(".hits"):
                out[key] = value
        out["hecke.act_word.self_s"] = self.act_word_s
        for (family, op), cell in self._field_calls.items():
            out[f"qfield.{family}.{op}.calls"] = cell[0]
        for name, fn in (("reduced_word", tableaux.reduced_word),
                         ("coset_reps", tableaux.coset_reps)):
            info = fn.cache_info()
            total = info.hits + info.misses
            out[f"tableaux.{name}.hit_ratio"] = info.hits / total if total else 0.0
            out[f"tableaux.{name}.misses"] = info.misses
        out.update(self.field_op_ns())
        return out

    def field_op_ns(self) -> dict:
        """Nanoseconds per field operation, timed outside any span on the
        operands sampled during the run (or on powers of q in a default
        field of the family when the run made too few calls to sample)."""
        out = {}
        for family, cls, default_spec in FAMILIES:
            for op, arity in FIELD_OPS:
                fn = cls.__dict__[op]
                sample = self.samples.get((family, op)) or _default_sample(default_spec, arity)
                runs = []
                for _ in range(TIMING_REPEATS):
                    start = perf_counter()
                    for field, args in sample:
                        fn(field, *args)
                    runs.append((perf_counter() - start) / len(sample))
                out[f"qfield.{family}.{op}.ns"] = statistics.median(runs) * 1e9
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _default_sample(spec: str, arity: int):
    field = qfield.parse_field(spec)
    values = [field.q_power(k) for k in range(1, 9)]
    values += [field.add(v, field.one_rep) for v in values]
    values = [v for v in values if not field.is_zero(v)]
    if arity == 1:
        return [(field, (v,)) for v in values] * 25
    return [(field, (u, v)) for u in values for v in values] * 2


# span layer -> (counter, amount per call from its arguments and result)
_EXTRAS = {
    "hecke.spin_specht": ("hecke.spin_specht.dim_sum", lambda args, module: module.dimension),
    "homs.push_through": ("homs.push_through.terms_in", lambda args, _: len(args[1].coeffs)),
    "homs.intertwiner": ("homs.intertwiner.unknowns_sum",
                         lambda args, _: len(args[1][0]) * len(args[2][0])),
}
