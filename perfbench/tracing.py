"""Outside-in tracing of fflab: wrappers around its public entry points.

The tracer replaces a name where the program looks it up (a module
attribute or a class attribute) with a wrapper that records a span: name,
start, end and parent span.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Generators get one span per next() call.

Wrappers carry the attribute `__perfbench__`; `assert_unwrapped` checks that
none is left on any fflab module or class, so untraced timings never run
traced code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "HOOKS", "assert_unwrapped"]


def _prefixes(prob, alpha, box_list, m, *args, **kwargs):
    """Prefix tuples one approx_zero_count call walks (0 when vacuous)."""
    if m <= 0 or 0 in box_list:
        return 0
    return prob.spec.q ** (sum(sorted(box_list)[:-1]) * prob.n)


def _matrices(spec, mats, *args, **kwargs):
    return int(mats.shape[0])


def _tuples(spec, form, e, *args, **kwargs):
    return spec.q ** ((e + 1) * form.n)


# (owner, attribute, layer, kind, extra counter)
#   kind "call": one span per call, counted as <layer>_calls;
#   kind "gen": one span per next(), items counted under the extra name;
#   kind "count": no span, only the extra counter.
# The extra counter of a call is (name, function of the call's arguments).
# Owners are named where the program looks the attribute up: harness,
# weyl and circle import several of these names by value.
HOOKS = [
    ("fflab.harness", "run_task", "harness.run_task", "call", None),
    ("fflab.harness", "map_reduce", "work.map_reduce", "call", None),
    ("fflab.reporting", "write_report", "reporting.write", "call", None),
    ("fflab.fields.FieldSpec", "_build", "fields.tables", "call", None),
    ("fflab.circle.CountingProblem", "dissect", "circle.arc_gen", "gen",
     "circle.arcs"),
    ("fflab.circle.CountingProblem", "arc_atoms", "circle.atom_gen", "gen",
     "circle.atoms"),
    ("fflab.circle.CountingProblem", "integrate_arc", "circle.quadrature",
     "call", None),
    ("fflab.circle.CountingProblem", "phase_distribution",
     "circle.phase_distribution", "call", None),
    ("fflab.circle.CountingProblem", "sum_table", "circle.sum_table", "call",
     None),
    ("fflab.circle.CountingProblem", "brute_count", "circle.brute_count",
     "call", None),
    ("fflab.circle", "poly_gcd", "polys.poly_gcd", "call", None),
    ("fflab.circle", "expand_rational", "laurent.expand_rational", "call",
     None),
    ("fflab.harness", "check_weyl", "weyl.inequality", "call", None),
    ("fflab.harness", "check_shrink", "weyl.inequality", "call", None),
    ("fflab.weyl", "approx_zero_count", "weyl.approx_zero", "call",
     ("weyl.prefixes", _prefixes)),
    ("fflab.weyl", "batched_rank", "linalg.batched_rank", "call",
     ("linalg.matrices_ranked", _matrices)),
    ("fflab.weyl", "rank_mod_q", "linalg.rank_mod_q", "call", None),
    ("fflab.moduli", "rank_mod_q", "linalg.rank_mod_q", "call", None),
    ("fflab.latgon", "rank_mod_q", "linalg.rank_mod_q", "call", None),
    ("fflab.weyl", "compare_abs_power", "cyclotomic.compare_abs_power",
     "call", None),
    ("fflab.harness", "count_cone", "moduli.count_cone", "call", None),
    ("fflab.moduli", "count_cone", "moduli.count_cone", "call", None),
    ("fflab.harness", "count_morphisms", "moduli.count_morphisms", "call",
     None),
    ("fflab.moduli", "count_morphisms", "moduli.count_morphisms", "call",
     None),
    ("fflab.moduli", "total_solutions", "moduli.total_solutions", "call",
     None),
    ("fflab.moduli", "gcd_coprime", "moduli.gcd_coprime", "call", None),
    ("fflab.moduli", "_total_enumerate", "moduli.enumerate", "count",
     ("moduli.tuples_enumerated", _tuples)),
    ("fflab.moduli", "_morphisms_enumerate", "moduli.enumerate", "count",
     ("moduli.tuples_enumerated", _tuples)),
    ("fflab.latgon.SpecialLatticePair", "minima", "latgon.minima", "call",
     None),
    ("fflab.latgon.SpecialLatticePair", "check_duality", "latgon.duality",
     "call", None),
    ("fflab.harness", "check_ratio_lemma", "latgon.lemma", "call", None),
    ("fflab.harness", "check_sandwich", "latgon.lemma", "call", None),
    ("fflab.harness", "check_cape", "latgon.lemma", "call", None),
]


def _resolve(path: str):
    """'fflab.circle.CountingProblem' -> the class, via sys.modules."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is not None:
            obj = module
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{path} is not imported")


class _TracedIterator:
    def __init__(self, tracer, layer, items, inner):
        self._tracer = tracer
        self._layer = layer
        self._items = items
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.open()
        try:
            item = next(self._inner)
        finally:
            tracer.close(idx, self._layer)
        tracer.counts[self._items] += 1
        return item


class Tracer:
    """Spans and counters of one traced stretch of a run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._installed = []     # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self) -> int:
        idx = len(self.spans)
        self._stack.append(idx)
        self.spans.append((None, time.perf_counter(), None, -1))
        return idx

    def close(self, idx: int, name: str):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, self.spans[idx][1], end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self.open()
        try:
            yield
        finally:
            self.close(idx, name)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, kind, extra):
        tracer = self
        if kind == "gen":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TracedIterator(tracer, layer, extra,
                                       fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if extra is not None:
                    tracer.counts[extra[0]] += extra[1](*args, **kwargs)
                if kind == "count":
                    return fn(*args, **kwargs)
                tracer.counts[layer + "_calls"] += 1
                idx = tracer.open()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx, layer)
        wrapper.__perfbench__ = True
        return wrapper

    def install(self, hooks=HOOKS):
        """Wrap every hook; a hook whose owner or attribute is gone is
        listed in `missing` and its counters read 0."""
        for owner_path, attr, layer, kind, extra in hooks:
            try:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
            except (LookupError, AttributeError, KeyError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, layer, kind, extra))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path: str):
        """Spans as tab-separated rows: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def assert_unwrapped():
    """Raise if any benchmark wrapper sits on an fflab module or class."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fflab"
                                  or mod_name.startswith("fflab.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__perfbench__", False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__perfbench__", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    if found:
        raise AssertionError("benchmark wrappers installed: "
                             + ", ".join(sorted(found)))
