"""Certificates: levels, verification, the transformer, and the harness."""

import random

import pytest

import tamemod.exactalg as exactalg
import tamemod.gradedmod as gm
import tamemod.serre as serre
from tamemod.errors import CertificateError, ResourceCapError, StructuralError, ValidationError
from tamemod.exactalg import EdgeRing, FreeElement, FreeModule, groebner, normal_form, syzygies
from tamemod.gradedmod import (
    ModuleMap,
    PresentedModule,
    annihilator,
    cokernel,
    direct_sum,
    f0,
    f1,
    is_tame_support,
    submodule_from_elements,
    torsion_data,
)
from tamemod.graphsplit import (
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    split_edge,
    tame_partitions,
)
from tamemod.partition import make_partition, merge_edges, partition_module
from tamemod.serre import (
    MAX_LEVEL,
    ExtNode,
    GenNode,
    PropertyReport,
    QuotNode,
    SubNode,
    ZeroNode,
    _direct_sum_cert,
    harness,
    random_certificate,
    transform,
    transform_corpus,
    transform_roundtrip,
    verify,
)

PRED = AlwaysTame()


def ideal_sub_cert(p, weight_one_var="a"):
    """Sub(Gen(P,0), inclusion of the ideal generated by one weight-1 element)."""
    base = GenNode(p, 0)
    m = base.root
    x = m.ring.var(weight_one_var) * m.gen(0)
    sub, incl = submodule_from_elements(m, [x])
    return SubNode(base, incl)


# -- structure ----------------------------------------------------------------------


def test_type_levels(p_related):
    g = GenNode(p_related, 0)
    assert g.level == 0
    s = ideal_sub_cert(p_related)
    assert s.level == 1
    e = _direct_sum_cert(s, GenNode(p_related, 1))
    assert e.level == 2
    # the deeper child on either side
    assert _direct_sum_cert(GenNode(p_related, 1), s).level == 2


def test_zero_certificate_contract(p_related):
    ring = partition_module(p_related).ring
    z = ZeroNode(ring)
    assert verify(z, PRED)
    assert verify(z, DiscreteOnly())
    assert z.level == 0
    out = transform(z, "e", "e'", 0)
    assert isinstance(out, ZeroNode)


def test_witness_shape_enforced(p_related, p_unrelated):
    base = GenNode(p_related, 0)
    other = partition_module(p_unrelated).shift(3)
    with pytest.raises(StructuralError):
        SubNode(base, ModuleMap.zero_map(other, other))


def test_sub_and_quot_over_the_same_parts_differ(p_related):
    base = GenNode(p_related, 0)
    identity = ModuleMap.identity(base.root)
    sub, quot = SubNode(base, identity), QuotNode(base, identity)
    assert sub.root.same_presentation(quot.root)
    assert sub != quot and sub == SubNode(base, identity)


# -- verify ---------------------------------------------------------------------------


def test_verify_gen_respects_predicate(p_related):
    assert verify(GenNode(p_related, 0), PRED)
    res = verify(GenNode(p_related, 0), DiscreteOnly())
    assert not res and "not tame" in res.reason


def test_verify_sub_rejects_noninjective(p_related):
    base = GenNode(p_related, 0)
    m = base.root
    # "inclusion" hitting zero: source pretends to be free but maps onto a
    # torsion class, so the kernel is nonzero
    src = PresentedModule.free(m.ring, (1,))
    d = m.ring.var("e") - m.ring.var("e'")
    bad = ModuleMap.from_matrix(src, m, ((d,),), 0)
    res = verify(SubNode(base, bad), PRED)
    assert not res and res.reason == "sub witness is not injective"


def test_verify_quot_rejects_nonsurjective(p_related):
    base = GenNode(p_related, 0)
    m = base.root
    tgt = PresentedModule.free(m.ring, (0,))
    zero = ModuleMap.zero_map(m, tgt)
    res = verify(QuotNode(base, zero), PRED)
    assert not res and res.reason == "quot witness is not surjective"


def test_verify_reports_failing_path(p_related):
    inner = GenNode(p_related, 0)
    outer = _direct_sum_cert(GenNode(p_related, 0), ideal_sub_cert(p_related))
    res = verify(outer, DiscreteOnly())
    assert not res
    assert res.path and res.path[0] in ("left", "right")


def test_verify_ext_exactness(p_related):
    # a genuine extension assembled from kernel/cokernel of a surjection
    m = partition_module(p_related)
    x = m.ring.var("a") * m.gen(0)
    sub, incl = submodule_from_elements(m, [x])
    quot, proj = cokernel(incl)
    ext = ExtNode(ideal_sub_cert(p_related), QuotNode(GenNode(p_related, 0), proj), incl, proj)
    assert verify(ext, PRED)


def test_verify_ext_detects_broken_middle(p_related, p_unrelated):
    # direct sum witnesses wired to the wrong projection are not exact
    a, b = GenNode(p_related, 0), GenNode(p_unrelated, 0)
    total, injs, projs = direct_sum([a.root, b.root])
    broken = ExtNode(a, a, injs[0], projs[0])  # projection kills the image of inj
    res = verify(broken, PRED)
    assert not res and res.reason == "extension is not exact in the middle"


def test_verify_ext_names_the_failing_witness(p_related, p_unrelated):
    # the direct sum passes; a zero injection or a zero projection in its
    # place fails, named (exactness: test_verify_ext_detects_broken_middle)
    a, b = GenNode(p_related, 0), GenNode(p_unrelated, 0)
    total, injs, projs = direct_sum([a.root, b.root])
    cases = [
        (injs[0], projs[1], None),
        (ModuleMap.zero_map(a.root, total), projs[1], "extension injection is not injective"),
        (injs[0], ModuleMap.zero_map(total, b.root), "extension projection is not surjective"),
    ]
    for inj, proj, reason in cases:
        res = verify(ExtNode(a, b, inj, proj), PRED)
        assert bool(res) is (reason is None) and res.reason == reason


def test_ext_and_quot_nodes_reject_mismatched_witnesses(p_related, p_unrelated):
    a, b = GenNode(p_related, 0), GenNode(p_unrelated, 0)
    _, injs, projs = direct_sum([a.root, b.root])
    cases = [
        (lambda: ExtNode(b, b, injs[0], projs[1]), "injection does not start at the left root"),
        (lambda: ExtNode(a, a, injs[0], projs[1]), "projection does not end at the right root"),
        (lambda: ExtNode(a, a, injs[0], ModuleMap.identity(a.root)), "disagree on the middle module"),
        (lambda: QuotNode(b, ModuleMap.identity(a.root)), "quot witness does not start at the parent's root"),
    ]
    for build, message in cases:
        with pytest.raises(StructuralError, match=message):
            build()


# -- transform: base cases ---------------------------------------------------------------


def test_transform_gen_degree0(p_related):
    out = transform(GenNode(p_related, 0), "e", "e'", 0, pred_split=PRED, pred_base=PRED)
    assert out == GenNode(merge_edges(p_related, "e", "e'"), 0)


def test_transform_gen_degree1_related(p_related):
    out = transform(GenNode(p_related, 2), "e", "e'", 1, pred_split=PRED, pred_base=PRED)
    assert out == GenNode(merge_edges(p_related, "e", "e'"), 2)


def test_transform_gen_degree1_unrelated(p_unrelated):
    out = transform(GenNode(p_unrelated, 0), "e", "e'", 1, pred_split=PRED, pred_base=PRED)
    assert isinstance(out, ZeroNode)


def test_transform_sub_of_gen_is_quot_of_gen(p_related):
    cert = ideal_sub_cert(p_related)
    out = transform(cert, "e", "e'", 0, pred_split=PRED, pred_base=PRED)
    assert out.kind == "quot"
    assert out.parent.kind == "gen"
    assert out.parent.shift == 1
    assert out.root.same_presentation(f0(cert.root, "e", "e'"))
    assert is_tame_support(out.root, list(tame_partitions(PRED, EdgeGraph(("a", "e")))))


def test_transform_zero_checks_split_pair(p_related):
    ring = GenNode(p_related, 0).root.ring
    assert transform(ZeroNode(ring), "e", "e'", 1) == ZeroNode(EdgeRing(("a", "e")))
    for e, e_prime in (("e", "e"), ("e", "x")):
        with pytest.raises(ValidationError):
            transform(ZeroNode(ring), e, e_prime, 0)


def test_transform_rejects_a_degree_other_than_0_or_1(p_related):
    for degree in (2, -1):
        with pytest.raises(ValidationError, match="degree must be 0 or 1"):
            transform(GenNode(p_related, 0), "e", "e'", degree)


def test_transform_rejects_unverifiable_input(p_related):
    cert = GenNode(p_related, 0)
    with pytest.raises(CertificateError):
        transform(cert, "e", "e'", 0, pred_split=DiscreteOnly())


def test_transform_rejects_a_zero_witness_of_a_nonzero_sub(p_related):
    # a free S under a Zero and under a Gen node, by zero witnesses, which
    # verify rejects: F0(S) is not zero, so degree 0 raises rather than build
    # a certificate that fails verify; F1(S) = 0, so degree 1 certifies it
    base = GenNode(p_related, 0)
    src = PresentedModule.free(base.root.ring, (1,))
    for parent in (ZeroNode(base.root.ring), base):
        cert = SubNode(parent, ModuleMap.zero_map(src, parent.root))
        assert not verify(cert, PRED)
        with pytest.raises(CertificateError, match="cannot be valid"):
            transform(cert, "e", "e'", 0)
        out = transform(cert, "e", "e'", 1, pred_base=PRED)
        assert isinstance(out, ZeroNode) and verify(out, PRED)


def test_transform_rejects_torsion_inside_a_torsion_free_generator():
    # S = R/(e - e') is all torsion, Z[a,e | e'] has none, so F1 of a SubNode
    # of S under that generator cannot include into F1 of the generator
    p = make_partition(["a", "e", "e'"], [["a", "e"], ["e'"]])
    gen = GenNode(p, 0)
    ring = gen.root.ring
    s_mod = PresentedModule.from_ideal(ring, [ring.var("e") - ring.var("e'")])
    cert = SubNode(gen, ModuleMap.zero_map(s_mod, gen.root))
    with pytest.raises(CertificateError, match="nonzero torsion inside a torsion-free generator"):
        transform(cert, "e", "e'", 1)


def test_certificates_differ_in_any_part(p_related):
    # two nodes of one kind are equal only when every part is, and equal
    # nodes hash alike
    assert GenNode(p_related, 0) != GenNode(p_related, 1)
    assert GenNode(p_related, 1) == GenNode(p_related, 1)
    assert hash(GenNode(p_related, 1)) == hash(GenNode(p_related, 1))
    gen = GenNode(p_related, 0)
    ring = gen.root.ring
    src = PresentedModule.free(ring, (1,))
    a_incl = ModuleMap(src, gen.root, [ring.var("a") * gen.root.gen(0)], 0)
    zero = ModuleMap.zero_map(src, gen.root)
    assert SubNode(gen, a_incl) != SubNode(gen, zero)
    assert SubNode(gen, a_incl) == SubNode(GenNode(p_related, 0), a_incl)
    assert hash(SubNode(gen, a_incl)) == hash(SubNode(GenNode(p_related, 0), a_incl))


def test_gen_roots_share_one_module_that_stores_its_basis(p_related, monkeypatch):
    # a Gen root is partition_module(p, shift): every leaf of one partition
    # and shift has one root, and a shifted root's basis is stored with it,
    # so reading it makes no Groebner run
    assert GenNode(p_related, 1).root is GenNode(p_related, 1).root
    partition_module.cache_clear()
    exactalg._groebner_raw.cache_clear()
    runs = []
    run = exactalg._buchberger
    monkeypatch.setattr(exactalg, "_buchberger", lambda *args: runs.append(1) or run(*args))
    root = GenNode(p_related, 1).root
    gb = root.relation_gb()
    assert root.gen_weights == (1,)
    assert runs == []
    assert gb == groebner(list(root.relations), module=root.free_cover)


def record_transform(monkeypatch):
    """A list that gains (depth, degree, level) for every call of
    serre._transform, the root's at depth 0: each recursive call looks
    _transform up in the module, so the wrapper sees every one."""
    inner = serre._transform
    trace, open_calls = [], []

    def recorded(c, e, ep, i):
        trace.append((len(open_calls), i, c.level))
        open_calls.append(c)
        try:
            return inner(c, e, ep, i)
        finally:
            open_calls.pop()

    monkeypatch.setattr(serre, "_transform", recorded)
    return trace


def test_transform_trace_measure_decreases(p_related, monkeypatch):
    # Sub over Quot over Gen: exercises the pullback rewrite in degree 1
    base = GenNode(p_related, 0)
    _, proj = cokernel(ideal_sub_cert(p_related).witness)
    quot = QuotNode(base, proj)
    m = quot.root
    sub, incl = submodule_from_elements(m, [m.ring.var("e") * m.gen(0)])
    cert = SubNode(quot, incl)
    trace = record_transform(monkeypatch)
    transform(cert, "e", "e'", 1)
    last_at_depth = {}
    for depth, deg, lvl in trace:
        if depth > 0:
            _, pdeg, plvl = last_at_depth[depth - 1]
            assert (deg, lvl) < (pdeg, plvl)
        last_at_depth[depth] = (depth, deg, lvl)
    assert trace[0] == (0, 1, cert.level)
    assert len(trace) > 2


# Least recursion steps per (rule, degree) on the yardstick slice below: the
# coverage the recursion keeps once every zero output, at the root too, is
# certified directly.  Its counts are 92, 40, 95, 47, 14, 3, 131, 17, 28, 3,
# 31, 6.  Most sub-of-quot degree-1 roots have a zero output, so that rule
# keeps 3 steps here and 6 on the whole 400-certificate yardstick;
# test_transform_trace_measure_decreases runs a fixed nonzero case of it.
RULE_FLOORS = {
    ("ext", 0): 40, ("ext", 1): 30,
    ("quot", 0): 45, ("quot", 1): 35,
    ("sub-of-ext", 0): 8, ("sub-of-ext", 1): 2,
    ("sub-of-gen", 0): 70, ("sub-of-gen", 1): 14,
    ("sub-of-quot", 0): 27, ("sub-of-quot", 1): 2,
    ("sub-of-sub", 0): 18, ("sub-of-sub", 1): 3,
}


def test_recursion_keeps_every_rule_and_certifies_zero_outputs_directly(monkeypatch):
    # the criterion-4 corpus's first 50 certificates per predicate, both
    # degrees: a step of a rule is a call on an inner node with a nonzero
    # output; at any depth a zero output is certified with no recursion under
    # it, and its root presents f_i of the node's root
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    e, ep = split.e, split.e_prime
    trace = record_transform(monkeypatch)
    inner = serre._transform
    steps, direct = {}, {}

    def counted(c, e, ep, i):
        start = len(trace)
        out = inner(c, e, ep, i)
        assert trace[start][1:] == (i, c.level)
        if isinstance(c, (GenNode, ZeroNode)):
            return out
        rule = f"sub-of-{c.parent.kind}" if isinstance(c, SubNode) else c.kind
        if out.root.is_zero():
            assert len(trace) == start + 1, (rule, i)
            assert out.root.same_presentation((f0 if i == 0 else f1)(c.root, e, ep)), (rule, i)
            direct[rule, i] = direct.get((rule, i), 0) + 1
        else:
            steps[rule, i] = steps.get((rule, i), 0) + 1
        return out

    monkeypatch.setattr(serre, "_transform", counted)
    for pred in (AlwaysTame(), MaxBlockCount(2), CoBlocked(["a", "b"]), DiscreteOnly()):
        tame = tame_partitions(pred, split.split_graph)
        for idx in range(50):
            cert = random_certificate(random.Random(f"20260810:corpus:{idx}"), tame, 3)
            for i in (0, 1):
                transform(cert, e, ep, i)
    assert set(steps) == set(RULE_FLOORS)
    assert all(steps[k] >= n for k, n in RULE_FLOORS.items()), steps
    assert {i for _, i in direct} == {0, 1} and sum(direct.values()) > 60, direct


# -- transform: randomized soundness --------------------------------------------------------


@pytest.mark.parametrize("pred", [AlwaysTame(), MaxBlockCount(2)])
def test_transform_soundness_random(pred, split_abe):
    tame_split = tame_partitions(pred, split_abe.split_graph)
    tame_base = tame_partitions(pred, split_abe.base_graph)
    for idx in range(6):
        rng = random.Random(f"soundness:{pred.describe()}:{idx}")
        cert = random_certificate(rng, tame_split, max_level=3)
        assert verify(cert, pred)
        for i in (0, 1):
            out = transform(cert, split_abe.e, split_abe.e_prime, i, pred_base=pred)
            functor = (f0 if i == 0 else f1)(cert.root, split_abe.e, split_abe.e_prime)
            assert out.root.same_presentation(functor)
            assert is_tame_support(out.root, list(tame_base))


def test_certificate_roots_are_support_tame(split_abe):
    # soundness of verify itself against the independent support oracle
    pred = MaxBlockCount(2)
    tame_split = tame_partitions(pred, split_abe.split_graph)
    for idx in range(8):
        rng = random.Random(f"oracle:{idx}")
        cert = random_certificate(rng, tame_split, max_level=2)
        assert verify(cert, pred)
        assert is_tame_support(cert.root, list(tame_split))


def test_transform_roundtrip_at_level_five():
    # the corpus tests draw certificates of level 3 at most; these are the
    # first 11 draws of max level 5 from seed 1 on the criterion-4 split
    # graph, the fewest draws of that seed that hold every level 0..5
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    tame_split = tame_partitions(PRED, split.split_graph)
    tame_base = tame_partitions(PRED, split.base_graph)
    rng = random.Random(1)
    certs = [random_certificate(rng, tame_split, max_level=5) for _ in range(11)]
    assert {c.level for c in certs} == set(range(6))
    for k, cert in enumerate(certs):
        row = transform_roundtrip(cert, split.e, split.e_prime, PRED, tame_base)
        assert row["ok"], (k, row)


# -- harness ----------------------------------------------------------------------------------


def test_harness_empty():
    split = split_edge(EdgeGraph(("a", "e")), "e")
    assert harness(split, PRED, PRED, samples=0, seed=1) == ()


def test_harness_all_pass(split_abe):
    reports = harness(split_abe, PRED, PRED, samples=8, seed=3, max_level=2)
    assert len(reports) == 8
    assert all(r.passed for r in reports)
    assert {r.prop for r in reports} == {"O", "Q", "S", "E"}


def test_harness_adversarial_pair_fails(split_abe):
    # base predicate admitting only the single-block partition: most functor
    # outputs have support outside that one subspace
    reports = harness(split_abe, AlwaysTame(), MaxBlockCount(1), samples=8, seed=3, max_level=1)
    assert any(not r.passed for r in reports)
    bad = [r for r in reports if not r.passed]
    assert all(r.counterexample for r in bad)


def test_harness_deterministic_across_jobs(split_abe):
    one = harness(split_abe, PRED, PRED, samples=6, seed=9, max_level=1, jobs=1)
    two = harness(split_abe, PRED, PRED, samples=6, seed=9, max_level=1, jobs=2)
    assert one == two


class RecordingExecutor:
    """Stand-in for ProcessPoolExecutor: records max_workers and the start
    method of mp_context, runs in-process."""

    created = []
    methods = []

    def __init__(self, max_workers, mp_context):
        self.created.append(max_workers)
        self.methods.append(mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cores, samples, expected", [(2, 3, [2]), (8, 3, [3]), (8, 1, [])])
def test_jobs_clamped_to_cores_and_tasks(split_abe, monkeypatch, cores, samples, expected):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(RecordingExecutor, "methods", [])
    reports = harness(split_abe, PRED, PRED, samples=samples, seed=9, max_level=1, jobs=10**6)
    assert len(reports) == samples
    rows = transform_corpus(split_abe, PRED, samples=samples, seed=5, max_level=1, jobs=10**6)
    assert [r["sample"] for r in rows] == list(range(samples))
    assert RecordingExecutor.created == expected * 2
    assert RecordingExecutor.methods == ["spawn"] * len(expected) * 2


@pytest.mark.parametrize("samples, jobs", [(-1, 1), (2, 0)])
def test_transform_corpus_rejects_bad_counts(split_abe, samples, jobs):
    with pytest.raises(ValidationError):
        transform_corpus(split_abe, AlwaysTame(), samples=samples, seed=0, jobs=jobs)


def test_transform_corpus_rows(split_abe):
    rows = transform_corpus(split_abe, MaxBlockCount(2), samples=4, seed=5, max_level=2)
    assert [r["sample"] for r in rows] == [0, 1, 2, 3]
    assert all(r["ok"] for r in rows)


def test_max_level_past_the_cap_raises_before_any_draw(split_abe):
    tame = tame_partitions(PRED, split_abe.split_graph)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ResourceCapError):
        random_certificate(rng, tame, MAX_LEVEL + 1)
    assert rng.getstate() == state
    with pytest.raises(ResourceCapError):
        transform_corpus(split_abe, PRED, samples=1, seed=0, max_level=MAX_LEVEL + 1)


def _old_quotient(m, elems):
    """The route quotient_by_elements replaces: present the submodule, then
    take the cokernel of its inclusion."""
    return cokernel(submodule_from_elements(m, elems)[1])


def _syzygy_calls(monkeypatch, fn, *args):
    """fn(*args) and the number of syzygies runs it makes, from cold caches."""
    for cached in (gm.torsion_data, gm.f0, gm.annihilator_ideal):
        cached.cache_clear()
    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return syzygies(*a, **kw)

    monkeypatch.setattr(gm, "syzygies", counting)
    return fn(*args), len(calls)


def test_quot_step_runs_no_syzygies(split_abe, monkeypatch):
    # this seed draws a level-1 Quot over a Gen leaf whose element has a
    # nonzero class; presenting the submodule first took one syzygies run
    tame = tame_partitions(MaxBlockCount(2), split_abe.split_graph)
    cert, calls = _syzygy_calls(monkeypatch, random_certificate, random.Random("quot-work:2"), tame, 1)
    assert isinstance(cert, QuotNode) and isinstance(cert.parent, GenNode)
    assert len(cert.root.relations) > len(cert.parent.root.relations)
    assert calls == 0
    monkeypatch.setattr(serre, "quotient_by_elements", _old_quotient)
    old, old_calls = _syzygy_calls(monkeypatch, random_certificate, random.Random("quot-work:2"), tame, 1)
    assert old == cert and old_calls == 1


def test_q_sample_runs_one_syzygies_fewer(split_abe, monkeypatch):
    task = (2, 1, split_abe, MaxBlockCount(2), MaxBlockCount(2), 2)
    assert serre.PROPERTY_CYCLE[task[0]][0] == "Q"
    report, calls = _syzygy_calls(monkeypatch, serre._harness_sample, task)
    monkeypatch.setattr(serre, "quotient_by_elements", _old_quotient)
    old, old_calls = _syzygy_calls(monkeypatch, serre._harness_sample, task)
    assert report == old and calls == old_calls - 1


# -- syzygies modulo relations against the tracked-relations reference --------------


def _projected_syzygies(ambient, gens, weights):
    """Test-only reference: syzygies of gens with ambient's relations as
    tracked items, cut to the positions of gens."""
    free = FreeModule(ambient.ring, weights)
    out = []
    for s in syzygies(list(gens) + list(ambient.relations), module=ambient.free_cover):
        head = s.components()[: len(gens)]
        if any(not c.is_zero() for c in head):
            out.append(free.element(head))
    return out


def _reference_kgens(m, e, e_prime):
    d = m.ring.var(e) - m.ring.var(e_prime)
    raw = _projected_syzygies(m, [d * m.gen(j) for j in range(m.rank)], m.gen_weights)
    gb = m.relation_gb()
    return tuple(x for x in groebner(raw, module=m.free_cover) if not normal_form(x, gb).is_zero())


def _nodes(c):
    yield c
    for child in c.children():
        yield from _nodes(child)


def _modulo_corpus(per_pred=15):
    """(split, node) for per_pred random certificates per shipped predicate,
    max level 2, and their degree-0 and degree-1 transforms."""
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    e, ep = split.e, split.e_prime
    preds = (AlwaysTame(), MaxBlockCount(2), CoBlocked(["a", "b"]), DiscreteOnly())
    for pred in preds:
        tame = tame_partitions(pred, split.split_graph)
        rng = random.Random(f"modulo:{pred.describe()}")
        for _ in range(per_pred):
            cert = random_certificate(rng, tame, 2)
            nodes = list(_nodes(cert))
            nodes += [n for i in (0, 1) for n in _nodes(transform(cert, e, ep, i))]
            for node in nodes:
                yield split, node


def numerator_sum(*parts):
    """The sum of sign * t^shift * N(module) over (sign, shift, module) parts,
    as {exponent: nonzero coefficient}; {} when the series cancel."""
    out = {}
    for sign, shift, m in parts:
        for k, c in m.hilbert_numerator().items():
            out[k + shift] = out.get(k + shift, 0) + sign * c
    return {k: c for k, c in out.items() if c}


# The numerators below come from plain relation bases, a route that shares no
# syzygy code with f1, torsion_data or the transformed certificates they check.


def test_f0_f1_numerator_identity():
    # 0 -> F1(M) -> M --(e - e')--> M(1) -> F0(M)(1) -> 0 is exact and F0, F1
    # are modules in one variable fewer, so N(F0 M) - t N(F1 M) = N(M)
    checked = set()
    for split, node in _modulo_corpus():
        m = node.root
        if m.ring.variables != split.split_graph.edges or m in checked:
            continue
        checked.add(m)
        e, ep = split.e, split.e_prime
        assert not numerator_sum((1, 0, f0(m, e, ep)), (-1, 1, f1(m, e, ep)), (-1, 0, m)), m
    assert len(checked) > 80


def test_ext_numerator_identity():
    # 0 -> L -> M -> R -> 0 with witness degrees a and b:
    # HS(M) = t^a HS(L) + t^-b HS(R), over the split ring and the base ring
    rings = set()
    for _, node in _modulo_corpus():
        if isinstance(node, ExtNode):
            a, b = node.injection.degree, node.projection.degree
            assert not numerator_sum((1, 0, node.root), (-1, a, node.left.root), (-1, -b, node.right.root)), node
            rings.add(node.root.ring.nvars)
    assert rings == {4, 5}


def _walked_level(c):
    """The stack walk that once gave a node's level, kept as its oracle."""
    deepest = 0
    stack = [(c, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for child in node.children():
            stack.append((child, depth + 1))
    return deepest


def test_stored_level_matches_a_walk_of_the_tree():
    # every node of seeded random certificates and of their transforms
    kinds = set()
    for _, node in _modulo_corpus(per_pred=5):
        assert node.level == _walked_level(node), node
        kinds.add(node.kind)
    assert kinds == set(serre.KINDS)


def test_witness_maps_rebuild_from_their_matrix():
    # a map is stored as its columns; the matrix it derives gives the same map
    # back through ModuleMap.from_matrix, transformed witnesses included, and
    # the rebuilt map passes the well-definedness check
    maps = []
    for _, node in _modulo_corpus(per_pred=8):
        if isinstance(node, (SubNode, QuotNode)):
            maps.append(node.witness)
        elif isinstance(node, ExtNode):
            maps += [node.injection, node.projection]
    assert len(maps) > 80 and any(phi.degree == 1 for phi in maps)
    for phi in maps:
        again = ModuleMap.from_matrix(phi.source, phi.target, phi.matrix, phi.degree)
        assert again == phi and hash(again) == hash(phi)


def _values_of(node):
    """Every GradedPoly and FreeElement a certificate node holds: the
    relations and relation basis of its root and of its witness maps' source
    and target, and those maps' columns and matrix entries."""
    maps = []
    if isinstance(node, (SubNode, QuotNode)):
        maps = [node.witness]
    elif isinstance(node, ExtNode):
        maps = [node.injection, node.projection]
    for m in [node.root] + [m for phi in maps for m in (phi.source, phi.target)]:
        yield from m.relations
        yield from m.relation_gb()
    for phi in maps:
        yield from phi.columns
        yield from (x for row in phi.matrix for x in row)


def test_is_zero_matches_normal_forms():
    # is_zero reads the leads of relation_gb(); the oracle is the definition,
    # every generator's normal form zero.  Over every node root of the corpus,
    # its witness maps' ends and their cokernels, which are zero with
    # generators for an epi witness
    mods = set()
    for _, node in _modulo_corpus():
        maps = []
        if isinstance(node, (SubNode, QuotNode)):
            maps = [node.witness]
        elif isinstance(node, ExtNode):
            maps = [node.injection, node.projection]
        mods.add(node.root)
        for phi in maps:
            mods.update((phi.source, phi.target, cokernel(phi)[0]))
    verdicts = set()
    for m in mods:
        gb = m.relation_gb()
        expected = all(normal_form(m.gen(i), gb).is_zero() for i in range(m.rank))
        assert m.is_zero() == expected
        verdicts.add((expected, m.rank > 0))
    assert len(mods) > 300 and verdicts == {(True, False), (True, True), (False, True)}


def test_values_hold_terms_packed_in_their_own_order():
    # a value's terms are those its exponent tuples pack to under its own
    # ring's or free module's order, strictly descending; terms carried over
    # from an order whose bases differ would not be; transform prunes the
    # kernels and pullbacks it presents, so eight certificates per predicate
    # are drawn to reach the floor
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    checked = 0
    for pred in (AlwaysTame(), MaxBlockCount(2), CoBlocked(["a", "b"]), DiscreteOnly()):
        tame = tame_partitions(pred, split.split_graph)
        rng = random.Random(f"layout:{pred.describe()}")
        for _ in range(8):
            cert = random_certificate(rng, tame, 1)
            trees = [cert] + [transform(cert, split.e, split.e_prime, i) for i in (0, 1)]
            for x in (x for tree in trees for node in _nodes(tree) for x in _values_of(node)):
                pk = x.module.packing if isinstance(x, FreeElement) else x.ring.packing
                assert x.terms == pk.pack(pk.unpack(x.terms))
                keys = [t[0] for t in x.terms]
                assert keys == sorted(set(keys), reverse=True)
                checked += 1
    assert checked > 800


def test_modulo_path_matches_tracked_relations():
    # sub-node presentations, torsion generators and annihilators equal those
    # of the tracked-relations path
    checked = 0
    for split, node in _modulo_corpus():
        e, ep = split.e, split.e_prime
        m = node.root
        if isinstance(node, SubNode):
            w = node.witness
            cols = [w.columns[j] for j in range(m.rank)]
            rels = _projected_syzygies(w.target, cols, m.gen_weights)
            assert m.same_presentation(PresentedModule(m.ring, m.gen_weights, rels))
        if m.ring.variables != split.split_graph.edges:
            continue
        td = torsion_data(m, e, ep)
        assert td.kgens == _reference_kgens(m, e, ep)
        weights = tuple(x.weight() for x in td.kgens)
        ref_sub = PresentedModule(m.ring, weights, _projected_syzygies(m, td.kgens, weights))
        assert td.presentation.same_presentation(f0(ref_sub, e, ep))
        for i, w in enumerate(m.gen_weights):
            ref_ann = [s.component(0) for s in _projected_syzygies(m, [m.gen(i)], (w,))]
            assert annihilator(m, m.gen(i)) == (groebner(ref_ann) if ref_ann else ())
        checked += 1
    assert checked > 100


def test_skipped_groebner_passes_are_fixed_points(monkeypatch):
    # over the same corpus, every kernel span that skips its Groebner pass
    # and every seeded relation_gb equal what the pass would return; kernel
    # runs on each node's map (e - e') . : M -> M itself, as torsion_data
    # reads most of those kernels off a diagonal relation basis
    for fn in (gm.torsion_data, gm.f0, gm.annihilator_ideal):
        fn.cache_clear()
    spans = []
    counts = {"span": 0, "fixed": 0, "seeded": 0}
    span, kernel = gm._span, gm.kernel

    def checked_span(ambient, gens):
        sub, incl = span(ambient, gens)
        assert sub.relation_gb() == groebner(list(sub.relations), module=sub.free_cover)
        counts["seeded"] += bool(sub.relations)
        spans.append(tuple(gens))
        return sub, incl

    def checked_kernel(phi):
        out = kernel(phi)
        src = phi.source
        free = src.free_cover
        cols = [phi.apply_free(free.gen(j)) for j in range(src.rank)]
        syz = syzygies(cols, module=phi.target.free_cover, modulo=phi.target.relations)
        moved = tuple(free.element(s.components()) for s in syz)
        passed = groebner(list(moved), module=free)
        assert spans[-1] == passed
        counts["span"] += 1
        counts["fixed"] += spans[-1] == moved
        return out

    monkeypatch.setattr(gm, "_span", checked_span)
    monkeypatch.setattr(gm, "kernel", checked_kernel)
    monkeypatch.setattr("tamemod.serre.kernel", checked_kernel)
    for split, node in _modulo_corpus(per_pred=20):
        m = node.root
        if m.ring.variables == split.split_graph.edges:
            d = m.ring.var(split.e) - m.ring.var(split.e_prime)
            gm.kernel(ModuleMap(m, m, [d * m.gen(j) for j in range(m.rank)], 1, check=False))
    assert counts["span"] > 100 and counts["fixed"] > 100 and counts["seeded"] > 100


def _tracked_misses(c, degree):
    """transform(c, e, e', degree) and its _tracked_raw misses, from cold caches."""
    for cached in (gm.torsion_data, gm.f0, gm.annihilator_ideal, partition_module):
        cached.cache_clear()
    exactalg._groebner_raw.cache_clear()
    exactalg._tracked_raw.cache_clear()
    out = transform(c, "e", "e'", degree)
    return out, exactalg._tracked_raw.cache_info().misses


def test_unit_maps_read_their_syzygies_and_lifts_off_the_relation_basis(p_related):
    # the F0 image of a direct sum's injection is a span of bare generators,
    # and a Quot witness's kernel and the connecting map's lift through it are
    # taken at a cokernel projection: those runs are read off the basis
    # (gradedmod._syzygies, gradedmod._lift), where the tracked route makes 1 and 8
    p_other = make_partition(["a", "e", "e'"], [["a", "e"], ["e'"]])
    ext = _direct_sum_cert(ideal_sub_cert(p_related), GenNode(p_other, 1))
    out, misses = _tracked_misses(ext, 0)
    assert misses == 0
    assert out.root.same_presentation(f0(ext.root, "e", "e'"))
    parent = _direct_sum_cert(GenNode(p_related, 0), GenNode(p_related, 1))
    r = parent.root
    x = r.ring.var("e") * r.gen(0) - r.gen(1)
    quot = QuotNode(parent, cokernel(ModuleMap(PresentedModule.free(r.ring, [1]), r, [x]))[1])
    out, misses = _tracked_misses(quot, 1)
    assert misses == 4
    assert out.root.same_presentation(f1(quot.root, "e", "e'"))
