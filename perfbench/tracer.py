"""Span tracer that times tamemod's layers from outside the package.

`install(tracer)` replaces each traced function with a timing wrapper, both
on the module that defines it and wherever another tamemod module re-binds
the same object (`from .exactalg import syzygies` and the like), so calls
between layers and calls inside the kernel are intercepted alike.  Nothing in
the package itself changes; the returned `undo` puts every original back.

A span records name, layer, start, end, parent span id and the id of the
benchmark item that caused it.  Self time is a span's duration minus the time
its direct child spans cover; calls are single-threaded and strictly nested,
so the children's durations never overlap and their sum is the covered time.
Kernel calls (layer `core`) number in the millions, so they are timed and
aggregated on the same stack but not kept as span records.
"""

from __future__ import annotations

import heapq
import sys
import time
from functools import wraps

# (layer, module, function names).  The kernel functions are looked up on the
# active kernel module (`tamemod._core.impl`), whichever twin that is.
TRACED = (
    ("core", "tamemod._core.impl", ("canon", "neg", "scale", "mul_term", "add", "sub", "mul", "reduce", "spoly")),
    (
        "exactalg",
        "tamemod.exactalg",
        (
            "syzygies",
            "groebner",
            "radical_member",
            "saturate_by_ideal",
            "intersect_ideals",
            "normal_form",
            "reduce_with_expression",
            "ideal_contains_one",
            "_buchberger",
        ),
    ),
    (
        "gradedmod",
        "tamemod.gradedmod",
        (
            "kernel",
            "cokernel",
            "image",
            "pullback",
            "direct_sum",
            "torsion_data",
            "f0",
            "f1",
            "induced_map_f0",
            "induced_map_f1",
            "connecting_map",
            "same_submodule",
            "submodule_from_elements",
            "annihilator",
            "annihilator_ideal",
            "is_tame_support",
        ),
    ),
    ("serre", "tamemod.serre", ("transform", "verify", "random_certificate", "transform_roundtrip")),
    ("drivers", "tamemod.serre", ("transform_corpus", "harness")),
    ("cli", "tamemod.cli", ("main",)),
)

# The public L1 entry points whose calls make up exactalg.call_ms and the
# slowest-call list.
L1_PUBLIC = ("syzygies", "groebner", "radical_member", "saturate_by_ideal", "intersect_ideals")

# Functions whose returned presentations feed gradedmod.out_rank/out_relations.
PRESENTATION_OF = {
    "kernel": lambda r: r[0],
    "cokernel": lambda r: r[0],
    "image": lambda r: r.module,
    "pullback": lambda r: r.module,
    "torsion_data": lambda r: r.presentation,
}

OBSERVED = frozenset(("reduce", "_buchberger", *L1_PUBLIC, *PRESENTATION_OF))

SLOWEST_KEPT = 10


def _coeff_bits(terms) -> int:
    return max((max(abs(t[2]).bit_length(), t[3].bit_length()) for t in terms), default=0)


def _raw_terms(x):
    """Raw term tuples of a GradedPoly / FreeElement (or a sequence of them)."""
    if hasattr(x, "terms"):
        return [x.terms]
    if isinstance(x, (list, tuple)):
        return [t for y in x for t in _raw_terms(y)]
    return []


def l1_shape(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Input items, rank, variables, output size and coefficient bits of one L1 call."""
    if name == "radical_member":
        inputs = [args[0], *args[1]]
    elif name in ("saturate_by_ideal", "intersect_ideals"):
        inputs = [*args[0], *args[1]]
    else:
        inputs = list(args[0])
    first = inputs[0] if inputs else None
    return {
        "inputs": len(inputs),
        "rank": first.module.rank if hasattr(first, "module") else 1,
        "nvars": first.ring.nvars if first is not None else 0,
        "output_size": 1 if isinstance(result, bool) else len(result),
        "bits_in": max((_coeff_bits(t) for t in _raw_terms(inputs)), default=0),
        "bits_out": max((_coeff_bits(t) for t in _raw_terms(result)), default=0),
    }


class Tracer:
    """In-memory span store with per-name call counts, totals and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent, item)
        self.stack: list[list] = []  # [span id, time covered by child spans]
        self.item = None
        self.stats: dict[str, list] = {}  # name -> [layer, calls, outermost total, self]
        self.depth: dict[str, int] = {}
        self.l1_ms: list[float] = []
        self.slowest: list[tuple] = []  # min-heap of (seconds, seq, record)
        self.out_ranks: list[int] = []
        self.out_relations: list[int] = []
        self.reduce_zero = 0
        self.max_basis_len = 0
        self.max_coeff_bits = 0
        self.l1_peak = [0, 0]  # basis length and coefficient bits inside the current L1 call
        self._next_id = 0

    def call(self, layer: str, name: str, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        span_id = self._next_id
        self._next_id += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        if name in L1_PUBLIC:
            self.l1_peak = [0, 0]
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            dur = end - start
            if self.stack:
                self.stack[-1][1] += dur
            self.depth[name] -= 1
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [layer, 0, 0.0, 0.0]
            st[1] += 1
            if self.depth[name] == 0:
                st[2] += dur
            st[3] += dur - frame[1]
            if layer != "core":
                self.spans.append((span_id, name, layer, start, end, parent, self.item))
        if name in OBSERVED:
            self._observe(name, args, kwargs, result, dur)
        return result

    def _observe(self, name, args, kwargs, result, dur):
        if name == "reduce":
            if not result[0]:
                self.reduce_zero += 1
        elif name == "_buchberger":
            bits = max((_coeff_bits(f) for f in result), default=0)
            self.max_basis_len = max(self.max_basis_len, len(result))
            self.max_coeff_bits = max(self.max_coeff_bits, bits)
            self.l1_peak = [max(self.l1_peak[0], len(result)), max(self.l1_peak[1], bits)]
        elif name in L1_PUBLIC:
            self.l1_ms.append(dur * 1000.0)
            if len(self.slowest) < SLOWEST_KEPT or dur > self.slowest[0][0]:
                rec = {
                    "name": name,
                    "seconds": dur,
                    "item": self.item,
                    **l1_shape(name, args, kwargs, result),
                    "max_basis_len": self.l1_peak[0],
                    "max_coeff_bits": self.l1_peak[1],
                }
                entry = (dur, len(self.l1_ms), rec)
                if len(self.slowest) < SLOWEST_KEPT:
                    heapq.heappush(self.slowest, entry)
                else:
                    heapq.heapreplace(self.slowest, entry)
        elif name in PRESENTATION_OF:
            pres = PRESENTATION_OF[name](result)
            self.out_ranks.append(pres.rank)
            self.out_relations.append(len(pres.relations))

    # -- summaries -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][1] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][3] if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum((st[3] for st in self.stats.values() if st[0] == layer), 0.0)

    def slowest_calls(self) -> list[dict]:
        return [rec for _, _, rec in sorted(self.slowest, key=lambda e: -e[0])]


def _wrap(tracer: Tracer, layer: str, name: str, fn, name_of=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name_of(args, kwargs) if name_of else name, fn, args, kwargs)

    return traced


def install(tracer: Tracer, names=TRACED, name_of: dict | None = None):
    """Wrap every traced function for `tracer`; returns a callable that undoes it.

    `name_of` maps a function name to a callable giving the span name from the
    call's arguments (used to split driver spans per predicate)."""
    from tamemod import _core

    name_of = name_of or {}
    modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "tamemod" or n.startswith("tamemod."))]
    patched = []
    for layer, modname, fnames in names:
        home = _core.impl if modname == "tamemod._core.impl" else sys.modules[modname]
        for fname in fnames:
            orig = getattr(home, fname)
            wrapper = _wrap(tracer, layer, fname, orig, name_of.get(fname))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))

    def undo():
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)

    return undo
