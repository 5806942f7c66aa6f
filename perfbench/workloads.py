"""The benchmark's three workloads: a pool of rounds, an order, and checks.

`setup(pool_seed, seed, size, rounds)` builds a pool of `rounds` rounds of
work from `pool_seed` and puts them in an order drawn from `seed`;
`run_round(inputs, r)` runs the r-th round of that order and returns one
`Item` per unit of work (a certificate, a harness sample or a support
decision) with its time, the reference loop around it (see rest.py) and
whether its output check passed.  The caller
clears tamemod's lru caches before each round, so a round costs what it would
in a fresh process, wherever it falls in the order.

- transform: the acceptance suite's criterion-4 corpus generator at max level
  2, run end to end through `serre.transform_corpus`, two level-stratified
  slices per predicate per round.
- harness: O/Q/S/E property samples through the `tamemod harness` CLI on base
  {a,b,c,d,e} split at e, under max-blocks:2 with certificate level <= 2.
- support: `is_tame_support` decisions over the split graph of {a,b,c,d,e} on
  modules whose verdict is known by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass

from tamemod import cli, gradedmod, serre
from tamemod.gradedmod import PresentedModule, direct_sum
from tamemod.graphsplit import EdgeGraph, iter_partitions, predicate_from_config, split_edge, tame_partitions
from tamemod.partition import partition_module

from rest import REF_S, at_rest, reference_loop

TRANSFORM_PREDICATES = ("always-true", "max-blocks:2", "co-blocked:a,b", "discrete-only")
SUPPORT_PREDICATES = ("max-blocks:2", "max-blocks:3", "co-blocked:a,b")
HARNESS_ARGS = ("--graph", "a,b,c,d,e", "--split", "e", "--pred", "max-blocks:2", "--max-level", "2", "--jobs", "1")

# The acceptance corpus seed, and the sample of that corpus that holds the
# known heavy tail: one discrete-only certificate whose slowest syzygy call
# alone runs for seconds.  The traced transform run replays it (see run.py).
YARDSTICK_SEED = 20260810
TAIL_PROBE = ("discrete-only", 38)
TAIL_PROBE_LEVEL = 3

# Level-3 certificates have no bound on their cost (a seeded one ran for
# ~130 s), so the transform rounds stop at level 2 and the level-3 tail is
# shown by TAIL_PROBE in the traced run.
MAX_LEVEL = 2

# Work per round: corpus slices per predicate (MAX_LEVEL + 1 certificates
# each), harness samples, and support modules per (predicate, kind).
SIZES = {
    "full": {"transform": 2, "harness": 20, "support": 1},
    "tiny": {"transform": 1, "harness": 8, "support": 1},
}


@dataclass
class Item:
    key: str
    seconds: float
    ok: bool
    ref_s: float = REF_S  # mean reference loop just before and after the item

    @property
    def at_rest(self) -> float:
        return at_rest(self.seconds, self.ref_s)


def lru_caches() -> dict:
    """Every functools lru cache in the loaded tamemod modules, by function name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tamemod" or modname.startswith("tamemod.")):
            continue
        for val in vars(mod).values():
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                found.setdefault(val.__wrapped__.__name__, val)
    return dict(sorted(found.items()))


class CacheLedger:
    """Clears the lru caches between rounds, keeping their hit counts and peak size."""

    def __init__(self):
        self.caches = lru_caches()
        self.totals = {name: [0, 0, 0] for name in self.caches}  # hits, misses, max size

    def clear(self):
        for name, fn in self.caches.items():
            info = fn.cache_info()
            tot = self.totals[name]
            tot[0] += info.hits
            tot[1] += info.misses
            tot[2] = max(tot[2], info.currsize)
            fn.cache_clear()

    def reset(self):
        self.clear()
        self.totals = {name: [0, 0, 0] for name in self.caches}


class ItemClock:
    """Wraps a driver's per-item function to time each call and keep going
    when one raises (the item then counts as failed)."""

    def __init__(self, module, attr, key_of, ok_of, failed_result, tracer=None):
        self.module, self.attr = module, attr
        self.orig = getattr(module, attr)
        self.key_of, self.ok_of, self.failed_result = key_of, ok_of, failed_result
        self.tracer = tracer
        self.items: list[Item] = []
        self.last_ref = None  # the loop after one item is the loop before the next

    def __call__(self, task):
        key = self.key_of(task)
        if self.tracer is not None:
            self.tracer.item = key
        before = self.last_ref or reference_loop()
        t0 = time.perf_counter()
        try:
            result = self.orig(task)
            ok = self.ok_of(result)
        except Exception as exc:  # a crash inside one item must not stop the run
            result = self.failed_result(task, exc)
            ok = False
        seconds = time.perf_counter() - t0
        self.last_ref = reference_loop()
        self.items.append(Item(key, seconds, ok, (before + self.last_ref) / 2))
        return result

    def __enter__(self):
        setattr(self.module, self.attr, self)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.orig)


# ---------------------------------------------------------------------------
# transform


def stratified_corpus_seed(rng: random.Random) -> int:
    """A corpus seed whose first MAX_LEVEL + 1 certificates draw each level
    0..MAX_LEVEL exactly once.

    `random_certificate` draws the level as its first random number, from the
    stream `random.Random(f"{seed}:corpus:{idx}")` that `transform_corpus`
    gives sample idx.  Fixing the mix of levels in every slice removes the
    largest source of spread between pools (a level-2 certificate costs ~20x a
    level-0 one) without changing how any certificate is drawn.
    """
    while True:
        seed = rng.randrange(2**31)
        levels = {random.Random(f"{seed}:corpus:{idx}").randint(0, MAX_LEVEL) for idx in range(MAX_LEVEL + 1)}
        if len(levels) == MAX_LEVEL + 1:
            return seed


def _order(seed: int, n: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}:order").shuffle(order)
    return order


class Transform:
    name = "transform"
    # Measured seconds per full-size round, reference loops included, on the
    # reference machine under its usual load (the reference loop at about twice
    # its time at rest).
    round_s = 0.55

    def setup(self, pool_seed: int, seed: int, size: str, rounds: int):
        split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
        preds = [predicate_from_config(p) for p in TRANSFORM_PREDICATES]
        for pred in preds:
            tame_partitions(pred, split.split_graph)
            tame_partitions(pred, split.base_graph)
        rng = random.Random(f"{pool_seed}:transform")
        slices = SIZES[size]["transform"]
        # pool[r] holds the corpus seeds of round r's slices; every predicate
        # draws from its own seeds, so their costs are not correlated.
        pool = [[stratified_corpus_seed(rng) for _ in range(slices * len(preds))] for _ in range(rounds)]
        return {"split": split, "preds": preds, "pool": pool, "order": _order(seed, rounds), "slices": slices, "rows": {}}

    def run_round(self, inputs, r: int, tracer=None) -> list[Item]:
        k = inputs["order"][r]
        clock = ItemClock(
            serre,
            "_corpus_sample",
            key_of=lambda t: f"{k}:{t[3].describe()}:{t[1]}:{t[0]}",
            ok_of=lambda row: row["ok"],
            failed_result=lambda t, exc: {"sample": t[0], "predicate": t[3].describe(), "ok": False, "error": repr(exc)},
            tracer=tracer,
        )
        seeds = iter(inputs["pool"][k])
        rows = []
        with clock:
            for pred in inputs["preds"]:
                for _ in range(inputs["slices"]):
                    rows += serre.transform_corpus(
                        inputs["split"], pred, samples=MAX_LEVEL + 1, seed=next(seeds), max_level=MAX_LEVEL, jobs=1
                    )
        inputs["rows"][k] = rows
        return clock.items

    @staticmethod
    def rows_sha256(inputs) -> str:
        """Digest of the corpus rows, which hold only booleans, levels and
        predicate names and so must not drift across changes."""
        rows = [row for k in sorted(inputs["rows"]) for row in inputs["rows"][k]]
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    @staticmethod
    def run_tail_probe(tracer=None) -> Item:
        """The yardstick corpus's slowest certificate, run as transform_corpus runs it."""
        split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
        pred = predicate_from_config(TAIL_PROBE[0])
        if tracer is not None:
            tracer.item = "tail-probe"
        before = reference_loop()
        t0 = time.perf_counter()
        row = serre._corpus_sample((TAIL_PROBE[1], YARDSTICK_SEED, split, pred, TAIL_PROBE_LEVEL))
        seconds = time.perf_counter() - t0
        return Item("tail-probe", seconds, bool(row["ok"]), (before + reference_loop()) / 2)


# ---------------------------------------------------------------------------
# harness


class Harness:
    name = "harness"
    round_s = 1.15

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def setup(self, pool_seed: int, seed: int, size: str, rounds: int):
        # Round k runs the harness with its own sample seed.
        pool = [pool_seed * 1000 + k for k in range(rounds)]
        return {"pool": pool, "order": _order(seed, rounds), "samples": SIZES[size]["harness"]}

    def run_round(self, inputs, r: int, tracer=None) -> list[Item]:
        k = inputs["order"][r]
        samples = inputs["samples"]
        path = os.path.join(self.out_dir, f"harness-{os.getpid()}.json")
        clock = ItemClock(
            serre,
            "_harness_sample",
            key_of=lambda t: f"{k}:{t[0]}",
            ok_of=lambda rep: rep.passed,
            failed_result=lambda t, exc: serre.PropertyReport("?", 0, t[0], "raised", False, repr(exc)),
            tracer=tracer,
        )
        argv = ["harness", *HARNESS_ARGS, "--samples", str(samples), "--seed", str(inputs["pool"][k]), "--out", path]
        with clock:
            try:
                code = cli.main(argv)
                with open(path) as fh:
                    doc = json.load(fh)
            except Exception:
                code, doc = None, None
            finally:
                if os.path.exists(path):
                    os.remove(path)
        items = clock.items
        reports_ok = (
            doc is not None
            and doc["merge_closure"]["passed"]
            and doc["failures"] == 0
            and len(doc["reports"]) == samples == len(items)
            and all(rep["passed"] for rep in doc["reports"])
        )
        if code != 0 or not reports_ok:
            for it in items:
                it.ok = False
            items += [Item(f"{k}:missing{i}", 0.0, False) for i in range(samples - len(items))]
        return items


# ---------------------------------------------------------------------------
# support


def _fresh(m: PresentedModule) -> PresentedModule:
    """An equal module object with none of the per-object caches filled."""
    return PresentedModule(m.ring, m.gen_weights, m.relations)


class Support:
    name = "support"
    round_s = 0.6

    def setup(self, pool_seed: int, seed: int, size: str, rounds: int):
        """Modules whose tameness is known by construction: certified roots and
        sums of tame partition modules lie in the Serre subcategory; non-tame
        partition modules do not (every finer partition is non-tame too, for
        these predicates), nor does any sum with one as a summand."""
        rng = random.Random(f"{pool_seed}:support")
        split = split_edge(EdgeGraph(("a", "b", "c", "d", "e")), "e")
        parts = list(iter_partitions(split.split_graph.edges))
        per_kind = SIZES[size]["support"]
        tame_by_spec = {}
        pool = []
        for b in range(rounds):
            cases = []
            for spec in SUPPORT_PREDICATES:
                pred = predicate_from_config(spec)
                tame = tame_by_spec[spec] = tame_partitions(pred, split.split_graph)
                wild = [p for p in parts if not pred(p)]

                def gen(choices):
                    return partition_module(rng.choice(choices)).shift(rng.randint(0, 1))

                for j in range(per_kind):
                    cases.append((f"{b}:{spec}:root{j}", spec, serre.random_certificate(rng, tame, 2).root, True))
                    cases.append((f"{b}:{spec}:sum{j}", spec, direct_sum([gen(tame), gen(tame)])[0], True))
                    cases.append((f"{b}:{spec}:wild{j}", spec, gen(wild), False))
                    cases.append((f"{b}:{spec}:mixed{j}", spec, direct_sum([gen(tame), gen(wild)])[0], False))
            pool.append(cases)
        return {"pool": pool, "order": _order(seed, rounds), "tame": tame_by_spec}

    def run_round(self, inputs, r: int, tracer=None) -> list[Item]:
        items = []
        after = reference_loop()
        for key, spec, module, expected in inputs["pool"][inputs["order"][r]]:
            m = _fresh(module)
            if tracer is not None:
                tracer.item = key
            before = after
            t0 = time.perf_counter()
            try:
                ok = gradedmod.is_tame_support(m, inputs["tame"][spec]) == expected
            except Exception:
                ok = False
            seconds = time.perf_counter() - t0
            after = reference_loop()
            items.append(Item(key, seconds, ok, (before + after) / 2))
        return items


def make(name: str, out_dir: str):
    if name == "transform":
        return Transform()
    if name == "harness":
        return Harness(out_dir)
    if name == "support":
        return Support()
    raise KeyError(name)
