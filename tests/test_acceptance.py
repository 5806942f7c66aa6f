"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion is
property-based at desk scale with pinned tolerances (exact equality unless
stated) and wall-clock targets.
"""

import itertools
import json
import random
import time

import pytest
from test_serre import numerator_sum

from tamemod.exactalg import groebner, normal_form
from tamemod.gradedmod import (
    ModuleMap,
    PresentedModule,
    ShortExactSequence,
    annihilator,
    cokernel,
    cyclic_submodule,
    direct_sum,
    f0,
    f1,
    image,
    is_tame_support,
    kernel,
    six_term,
    submodule_from_elements,
)
from tamemod.graphsplit import (
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    check_merge_closure,
    iter_partitions,
    split_edge,
    tame_partitions,
)
from tamemod.partition import (
    make_partition,
    merge_edges,
    partition_ideal,
    partition_module,
    related,
)
from tamemod.serre import random_homogeneous_element, transform_corpus

SEED = 20260810
WEIGHT_BOUND = 6

BASE_GRAPH = EdgeGraph(("a", "b", "c", "e"))
SPLIT = split_edge(BASE_GRAPH, "e")

SHIPPED_PREDICATES = (
    AlwaysTame(),
    MaxBlockCount(2),
    CoBlocked(["a", "b"]),
    DiscreteOnly(),
)


def report(num, ok, elapsed, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line


def split_grounds():
    """Edge sets of size 2..5 containing the split pair."""
    extras = ("a", "b", "c")
    for k in range(4):
        yield ("e", "e'") + extras[:k]


# -- criterion 1: torsion functor case formula, exhaustively ---------------------------


def test_criterion_1_torsion_case_formula():
    t0 = time.time()
    checked = 0
    for ground in split_grounds():
        for p in iter_partitions(ground):
            m = partition_module(p)
            tor = f1(m, "e", "e'")
            if not related(p, "e", "e'"):
                assert tor.rank == 0, f"expected zero torsion for {p}"
            else:
                merged = partition_module(merge_edges(p, "e", "e'"))
                for w in range(WEIGHT_BOUND + 1):
                    assert tor.hilbert_function(w) == merged.hilbert_function(w), (p, w)
                # explicit isomorphism witness with zero kernel and cokernel
                iso = ModuleMap.from_matrix(tor, merged, ((merged.ring.one(),),), 0)
                assert kernel(iso)[0].is_zero(), p
                assert cokernel(iso)[0].is_zero(), p
            checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 10.0, elapsed, f"torsion case formula on {checked} partitions")


# -- criterion 2: contraction matches block merging, exhaustively ----------------------


def test_criterion_2_contraction_merges_blocks():
    t0 = time.time()
    checked = 0
    for ground in split_grounds():
        for p in iter_partitions(ground):
            out = f0(partition_module(p), "e", "e'")
            merged = partition_module(merge_edges(p, "e", "e'"))
            assert out.same_presentation(merged), p
            checked += 1
    elapsed = time.time() - t0
    report(2, elapsed < 10.0, elapsed, f"contraction = merge on {checked} partitions")


# -- criterion 3: annihilators of cyclic submodules -------------------------------------


def test_criterion_3_cyclic_submodules():
    t0 = time.time()
    rng = random.Random(f"{SEED}:cyclic")
    letters = ("a", "b", "c", "d", "e")
    done = 0
    while done < 100:
        n = rng.randint(1, 5)
        ground = letters[:n]
        parts = list(iter_partitions(ground))
        p = parts[rng.randrange(len(parts))]
        m = partition_module(p)
        x = random_homogeneous_element(rng, m, rng.randint(0, 4))
        if normal_form(x, m.relation_gb()).is_zero():
            continue
        ann = annihilator(m, x)
        ideal = partition_ideal(p)
        ideal_gb = groebner(list(ideal)) if ideal else ()
        # mutual normal-form membership
        for g in ann:
            assert normal_form(g, ideal_gb).is_zero() if ideal_gb else g.is_zero(), (p, x)
        ann_gb = groebner(list(ann)) if ann else ()
        for g in ideal:
            assert normal_form(g, ann_gb).is_zero() if ann_gb else g.is_zero(), (p, x)
        cs = cyclic_submodule(m, x)
        assert cs.shift == x.weight(), (p, x)
        done += 1
    elapsed = time.time() - t0
    report(3, elapsed < 30.0, elapsed, f"{done} random cyclic submodules")


# -- criteria 4, 5, 8: end-to-end certificate transformation -----------------------------


@pytest.fixture(scope="module")
def corpus():
    t0 = time.time()
    rows = {}
    for pred in SHIPPED_PREDICATES:
        rows[pred.describe()] = transform_corpus(
            SPLIT, pred, samples=100, seed=SEED, max_level=3, jobs=1
        )
    return rows, time.time() - t0


def test_criterion_4_transform_end_to_end(corpus):
    rows, elapsed = corpus
    total = 0
    for pred_name, pred_rows in rows.items():
        for row in pred_rows:
            assert row["input_verified"], (pred_name, row)
            for i in (0, 1):
                assert row[f"verified_{i}"], (pred_name, row)
                assert row[f"root_matches_{i}"], (pred_name, row)
                assert row[f"support_tame_{i}"], (pred_name, row)
            total += 1
    report(4, elapsed < 120.0, elapsed, f"{total} certificates x 2 degrees, 4 predicates")


def test_criterion_5_oracle_equivalence(corpus):
    rows, _ = corpus
    t0 = time.time()
    # (a) verification and the support oracle agree on the whole corpus
    for pred_rows in rows.values():
        for row in pred_rows:
            assert row["input_verified"] == row["input_support_tame"] == True  # noqa: E712
    # (b) non-tame modules are rejected under a restrictive predicate
    pred = MaxBlockCount(2)
    tame_split = list(tame_partitions(pred, SPLIT.split_graph))
    ring = partition_module(tame_split[0]).ring
    rng = random.Random(f"{SEED}:nontame")
    all_parts = list(iter_partitions(SPLIT.split_graph.edges))
    rejected = 0
    while rejected < 50:
        if rng.random() < 0.5:
            weights = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
            m = PresentedModule.free(ring, weights)
        else:
            p = all_parts[rng.randrange(len(all_parts))]
            if pred(p):
                continue
            m = partition_module(p)
        assert not is_tame_support(m, tame_split), m
        rejected += 1
    elapsed = time.time() - t0
    report(5, elapsed < 60.0, elapsed, f"corpus agreement + {rejected} non-tame rejections")


def test_criterion_8_determinism_across_workers(corpus):
    rows, _ = corpus
    t0 = time.time()
    baseline = json.dumps(rows, sort_keys=True)
    rerun = {}
    for pred in SHIPPED_PREDICATES:
        rerun[pred.describe()] = transform_corpus(
            SPLIT, pred, samples=100, seed=SEED, max_level=3, jobs=2
        )
    elapsed = time.time() - t0
    ok = json.dumps(rerun, sort_keys=True) == baseline
    report(8, ok, elapsed, "corpus report byte-identical with 2 workers")


# -- criterion 6: six-term exactness ------------------------------------------------------


def random_middle_module(rng, parts):
    """Module with interesting torsion: sums and shifts of partition modules."""
    p = parts[rng.randrange(len(parts))]
    m = partition_module(p).shift(rng.randint(0, 1))
    if rng.random() < 0.5:
        q = parts[rng.randrange(len(parts))]
        m = direct_sum([m, partition_module(q)])[0]
    return m


def six_term_sequences(count=50):
    """(middle module, six-term sequence) for count random short exact
    sequences 0 -> S -> M -> M/S -> 0 with S nonzero."""
    rng = random.Random(f"{SEED}:sixterm")
    parts = list(iter_partitions(SPLIT.split_graph.edges))
    done = 0
    while done < count:
        mid = random_middle_module(rng, parts)
        elems = [
            random_homogeneous_element(rng, mid, min(mid.gen_weights) + rng.randint(0, 2))
            for _ in range(rng.randint(1, 2))
        ]
        sub, incl = submodule_from_elements(mid, elems)
        if sub.rank == 0:
            continue
        ses = ShortExactSequence(incl, cokernel(incl)[1])
        yield mid, six_term(ses, "e", "e'")
        done += 1


def test_criterion_6_six_term_exactness():
    t0 = time.time()
    done = 0
    for mid, st in six_term_sequences():
        failures = st.exactness_failures()
        assert failures == [], (mid, failures)
        # image and kernel presentations agree weightwise through the bound
        f1i, f1p, delta, f0i, f0p = st.maps
        for fin, fout in ((f1i, f1p), (f1p, delta), (delta, f0i), (f0i, f0p)):
            img = image(fin).module
            ker = kernel(fout)[0]
            for w in range(WEIGHT_BOUND + 1):
                assert img.hilbert_function(w) == ker.hilbert_function(w)
        done += 1
    elapsed = time.time() - t0
    report(6, elapsed < 60.0, elapsed, f"{done} random short exact sequences")


def test_six_term_numerator_identity():
    # the alternating sum of the six Hilbert series is 0, the F0 terms moved
    # by the connecting map's degree; all six live over the base ring.  The
    # numerators come from plain relation bases, not from the syzygies that
    # build F1 and the maps
    torsion = 0
    for mid, st in six_term_sequences():
        shift = st.maps[2].degree
        assert shift == 1
        f1b, f1a, f1c, f0b, f0a, f0c = st.modules
        assert not numerator_sum(
            (1, shift, f1b), (-1, shift, f1a), (1, shift, f1c), (-1, 0, f0b), (1, 0, f0a), (-1, 0, f0c)
        ), mid
        torsion += not (f1a.is_zero() and f1c.is_zero())
    assert torsion > 10


# -- criterion 7: merge closure of the shipped predicates ----------------------------------


def test_criterion_7_merge_closure_exhaustive():
    t0 = time.time()
    letters = ("a", "b", "c", "d", "e")
    runs = 0
    for n in range(1, 6):
        graph = EdgeGraph(letters[:n])
        for target in graph.edges:
            split = split_edge(graph, target)
            for pred in (
                AlwaysTame(),
                MaxBlockCount(2),
                CoBlocked(letters[: min(2, n)]),
                DiscreteOnly(),
            ):
                rep = check_merge_closure(pred, pred, split)
                assert rep.passed, (n, target, pred.describe(), str(rep))
                runs += 1
    elapsed = time.time() - t0
    report(7, elapsed < 10.0, elapsed, f"{runs} exhaustive closure checks on graphs up to 5 edges")
