"""Span tracing of the program's layers, installed from outside the program.

A traced call records a span: name, op id, parent span, start and end.  The
wrappers are put in every namespace of the ``octaboson`` package that binds
a traced function, so calls between modules are seen too (``hl_polynomial``
is bound in ``hallittlewood``, ``qboson`` and the package itself).  Spans
stay in memory, in flat arrays, until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence


class Tracer:
    """Spans and per-op counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.current_op = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[(self.current_op, key)] += value

    def __len__(self) -> int:
        return len(self.name)

    def write_jsonl(self, path, ops: Sequence[dict]) -> None:
        """Gzipped JSON lines: one per op, then one per span as
        ``[span, op, parent, name, start_ns, end_ns]``, where ``name``
        indexes the ``names`` list of the first line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            columns = ["span", "op", "parent", "name", "start_ns", "end_ns"]
            handle.write(json.dumps({"names": self.names, "span_columns": columns}) + "\n")
            per_op: dict[int, dict[str, float]] = defaultdict(dict)
            for (op_id, key), value in self.counters.items():
                per_op[op_id][key] = value
            for op_id, info in enumerate(ops):
                handle.write(json.dumps({"op": op_id, **info, "counters": per_op[op_id]}) + "\n")
            rows = zip(self.op, self.parent, self.name, self.start, self.end)
            for sid, (op_id, parent, name, start, end) in enumerate(rows):
                handle.write(f"[{sid},{op_id},{parent},{name},{start},{end}]\n")


def self_times(
    parents: Sequence[int], starts: Sequence[int], ends: Sequence[int]
) -> array:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so nothing is counted twice and no result is negative.  Times
    must be nonnegative, as ``perf_counter_ns`` gives them.  One sweep in
    order of start time; spans as recorded are already in it.
    """
    count = len(parents)
    order: Iterable[int] = range(count)
    if any(starts[i] > starts[i + 1] for i in range(count - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("q", bytes(8 * count))
    run_lo = array("q", bytes(8 * count))
    run_hi = array("q", [-1]) * count
    for sid in order:
        parent = parents[sid]
        if parent < 0:
            continue
        lo = max(starts[sid], starts[parent])
        hi = min(ends[sid], ends[parent])
        if hi <= lo:
            continue
        if lo > run_hi[parent]:
            if run_hi[parent] >= 0:
                covered[parent] += run_hi[parent] - run_lo[parent]
            run_lo[parent], run_hi[parent] = lo, hi
        elif hi > run_hi[parent]:
            run_hi[parent] = hi
    for sid in range(count):
        if run_hi[sid] >= 0:
            covered[sid] += run_hi[sid] - run_lo[sid]
        covered[sid] = ends[sid] - starts[sid] - covered[sid]
    return covered


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _call_wrapper(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    functools.update_wrapper(wrapper, fn)
    return wrapper


def _cached_wrapper(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    """Span wrapper over an ``lru_cache`` function that also counts its hits
    and misses, reading ``cache_info()`` through the wrapper."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        before = wrapper.cache_info()
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        now = wrapper.cache_info()
        tracer.count(f"{name}.hits", now.hits - before.hits)
        tracer.count(f"{name}.misses", now.misses - before.misses)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    functools.update_wrapper(wrapper, fn)
    wrapper.cache_info = fn.cache_info
    wrapper.cache_clear = fn.cache_clear
    return wrapper


def _iter_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: each step of the iterator is one span, so
    the layer's time is the time spent inside the iterator."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            sid = tracer.open(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            tracer.count(f"{name}.elements", 1)
            yield item

    functools.update_wrapper(wrapper, fn)
    return wrapper


def _result_terms(tracer, args, kwargs, result):
    tracer.count("hallittlewood.hl_polynomial.result_terms", len(result.poly.terms))


def _quad_nodes(args, kwargs) -> int:
    for value in (*args, *kwargs.values()):
        if hasattr(value, "points_per_dim") and hasattr(value, "n"):
            return value.points_per_dim**value.n
    return 0


def _inner_product_evals(tracer, args, kwargs, result):
    tracer.count("torus.grid_point_evals", 2 * _quad_nodes(args, kwargs))


def _gram_matrix_evals(tracer, args, kwargs, result):
    basis = args[0] if args else kwargs.get("basis", ())
    tracer.count("torus.grid_point_evals", len(basis) * _quad_nodes(args, kwargs))


def _relation_cases(tracer, args, kwargs, result):
    tracer.count("qboson.verify_relation.cases", getattr(result, "cases", 0))


#: (module, attribute, wrapper kind, after-call hook); a dotted attribute
#: is a method, traced under the span name given in METHOD_SPANS
TARGETS = (
    ("partitions", "hyperoctahedral_group", "iter", None),
    ("partitions", "enumerate_partitions", "call", None),
    ("laurent", "apply_w", "call", None),
    ("laurent", "div_binomial_exact", "call", None),
    ("laurent", "LaurentPoly.__mul__", "call", None),
    ("laurent", "LaurentPoly.evaluate_exact", "call", None),
    ("qkernels", "quadratic_norm", "call", None),
    ("qkernels", "monic_normalizer", "call", None),
    ("qkernels", "principal_normalizer", "call", None),
    ("qkernels", "hop_coeff", "call", None),
    ("qkernels", "boundary_potential", "call", None),
    ("hallittlewood", "hl_polynomial", "cached", _result_terms),
    ("hallittlewood", "macdonald_formula", "cached", None),
    ("hallittlewood", "expand_in_monomials", "call", None),
    ("hallittlewood", "principal_specialization", "call", None),
    ("torus", "inner_product", "call", _inner_product_evals),
    ("torus", "gram_matrix", "call", _gram_matrix_evals),
    ("qboson", "create", "call", None),
    ("qboson", "annihilate", "call", None),
    ("qboson", "number_op", "call", None),
    ("qboson", "sector_inner_product", "call", None),
    ("qboson", "verify_relation", "call", _relation_cases),
    ("qboson", "apply_hamiltonian", "call", None),
    ("cli", "main", "call", None),
)

METHOD_SPANS = {"LaurentPoly.__mul__": "laurent.mul", "LaurentPoly.evaluate_exact": "laurent.evaluate_exact"}


def package_modules() -> dict[str, object]:
    """The loaded modules of the ``octaboson`` package, keyed by their short
    name; the package itself is ``""``."""
    return {
        name.removeprefix("octaboson").removeprefix("."): module
        for name, module in list(sys.modules.items())
        if name == "octaboson" or name.startswith("octaboson.")
    }


def _make_wrapper(tracer: Tracer, name: str, kind: str, fn: Callable, after) -> Callable:
    if kind == "iter":
        return _iter_wrapper(tracer, name, fn)
    if kind == "cached":
        return _cached_wrapper(tracer, name, fn, after)
    return _call_wrapper(tracer, name, fn, after)


@contextmanager
def installed(tracer: Tracer, modules: dict[str, object]):
    """Wrap every target in every namespace that binds it; restore on exit.

    Yields the targets that do not exist in this version of the program.
    """
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    namespaces: Iterable[object] = list(modules.values())
    try:
        for module_name, attribute, kind, after in TARGETS:
            module = modules.get(module_name)
            owner_name, _, leaf = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(leaf) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            span = METHOD_SPANS.get(attribute, f"{module_name}.{attribute}")
            wrapper = _make_wrapper(tracer, span, kind, original, after)
            # a method may be bound under several names (__rmul__ = __mul__)
            for space in [owner] if owner_name else namespaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, key, wrapper)
                        patches.append((space, key, original))
        yield missing
    finally:
        for space, key, original in reversed(patches):
            setattr(space, key, original)
