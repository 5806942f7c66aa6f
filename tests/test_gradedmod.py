"""Presented modules, maps, functors, homological toolbox, support criterion."""

import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exactalg import _clear_l1_caches

from tamemod import exactalg, gradedmod, serre
from tamemod._core._pure import FIELD
from tamemod.errors import ResourceCapError, StructuralError, ValidationError
from tamemod.exactalg import (
    EdgeRing,
    FreeModule,
    groebner,
    ideal_contains_one,
    intersect_ideals,
    normal_form,
    radical_member,
    reduce_with_expression,
    saturate_by_ideal,
    substitute,
    syzygies,
)
from tamemod.gradedmod import (
    CyclicSubmodule,
    ModuleMap,
    PresentedModule,
    ShortExactSequence,
    annihilator,
    annihilator_ideal,
    cokernel,
    connecting_map,
    cyclic_submodule,
    direct_sum,
    f0,
    f1,
    image,
    induced_map_f0,
    induced_map_f1,
    is_tame_support,
    kernel,
    pullback,
    quotient_by_elements,
    same_submodule,
    six_term,
    submodule_from_elements,
    torsion_data,
    _finest,
    _sweep_covers,
    _sweep_plan,
)
from tamemod.graphsplit import (
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    iter_partitions,
    split_edge,
    tame_partitions,
)
from tamemod.partition import make_partition, merge_edges, partition_ideal, partition_module
from tamemod.serre import random_certificate, random_homogeneous_element, transform


@pytest.fixture
def zp_related(p_related):
    return partition_module(p_related)


@pytest.fixture
def zp_unrelated(p_unrelated):
    return partition_module(p_unrelated)


# -- presentations ----------------------------------------------------------------


def test_zero_module_is_canonical():
    R = EdgeRing(("x",))
    z = PresentedModule.zero(R)
    assert z.rank == 0 and z.is_zero()


def test_inhomogeneous_relation_rejected():
    R = EdgeRing(("x",))
    free = PresentedModule.free(R, (0,)).free_cover
    bad = free.element([R.var("x") + R.one()])
    with pytest.raises(ValidationError):
        PresentedModule(R, (0,), [bad])


def test_shift_moves_weights(zp_related):
    s = zp_related.shift(2)
    assert s.gen_weights == (2,)
    for w in range(5):
        assert s.hilbert_function(w + 2) == zp_related.hilbert_function(w)


def test_free_module_hilbert():
    R = EdgeRing(("x", "y"))
    m = PresentedModule.free(R, (0,))
    assert m.hilbert_function(3) == 4


def test_hilbert_function_at_a_large_weight():
    # counted from the numerator: no monomial of the weight is listed, and a
    # pure power at the packed field limit is one factor (1 - t^top)
    R = EdgeRing(("a", "b", "c", "d", "x"))
    top = 32767
    a, b = R.var("a"), R.var("b")
    m = PresentedModule.from_ideal(R, [a**top, a * b], shift=3)
    w = 10**6
    start = time.perf_counter()
    value = m.hilbert_function(w)
    assert time.perf_counter() - start < 1
    # standard monomials: those free of a, and a^i (0 < i < top) times one free of a and b
    d = w - 3
    assert value == comb(d + 3, 3) + sum(comb(d - i + 2, 2) for i in range(1, top))
    assert m.hilbert_numerator() == {3: 1, 5: -1, top + 3: -1, top + 4: 1}


# -- maps ---------------------------------------------------------------------------


def test_map_weight_mismatch_rejected():
    R = EdgeRing(("x",))
    a = PresentedModule.free(R, (0,))
    with pytest.raises(StructuralError):
        ModuleMap.from_matrix(a, a, ((R.var("x"),),), 0)  # degree-1 entry in a degree-0 map



def test_from_columns_weight_mismatch_rejected():
    R = EdgeRing(("x",))
    a = PresentedModule.free(R, (0,))
    with pytest.raises(StructuralError, match=r"entry \(0,0\) has weight 1, expected 0"):
        ModuleMap(a, a, [R.var("x") * a.gen(0)], 0)


def test_from_columns_foreign_column_rejected():
    # x*g with g of weight 1 lies in another free module than the target's
    # cover, whose g has weight 0; it is refused, not read position by position
    R = EdgeRing(("x",))
    foreign = R.var("x") * FreeModule(R, (1,)).gen(0)
    src, tgt = PresentedModule.free(R, (1,)), PresentedModule.free(R, (0,))
    with pytest.raises(StructuralError, match="free cover"):
        ModuleMap(src, tgt, [foreign], 0)


def test_from_matrix_shape_rejected():
    # a wrong row count, and a ragged row under the right row count
    R = EdgeRing(("x",))
    one, zero = R.one(), R.zero()
    src = PresentedModule.free(R, (0, 0))
    cases = (
        (1, [[one, zero], [zero, one]], "matrix shape 2x2 does not match target rank 1 x source rank 2"),
        (2, [[one, zero], [one]], "matrix row 1 has 1 entries, not source rank 2"),
    )
    for tgt_rank, matrix, message in cases:
        tgt = PresentedModule.free(R, (0,) * tgt_rank)
        with pytest.raises(StructuralError, match=message):
            ModuleMap.from_matrix(src, tgt, matrix, 0)


def test_matrix_is_not_columns():
    # the constructor takes columns; a matrix is refused, even one whose shape
    # would pass for a list of columns
    R = EdgeRing(("x",))
    a = PresentedModule.free(R, (0,))
    with pytest.raises(StructuralError, match="column 0 is not in the target's free cover"):
        ModuleMap(a, a, ((R.one(),),), 0)


def test_map_escaping_relation_rejected():
    R = EdgeRing(("x",))
    a = PresentedModule.from_ideal(R, [R.var("x")])  # Q[x]/(x)
    b = PresentedModule.free(R, (0,))
    with pytest.raises(StructuralError):
        ModuleMap.from_matrix(a, b, ((R.one(),),), 0)  # x*1 must die in the target but does not


def test_identity_and_compose(zp_related):
    ident = ModuleMap.identity(zp_related)
    assert ident.compose(ident) == ident
    assert ident.is_mono() and ident.is_epi()


# -- kernel / cokernel / image / pullback ----------------------------------------------


def test_kernel_of_identity_is_zero(zp_related):
    k, _ = kernel(ModuleMap.identity(zp_related))
    assert k.is_zero()


def test_cokernel_of_multiplication():
    R = EdgeRing(("x",))
    a0 = PresentedModule.free(R, (0,))
    a1 = PresentedModule.free(R, (1,))
    mult = ModuleMap.from_matrix(a1, a0, ((R.var("x"),),), 0)
    ck, proj = cokernel(mult)
    assert [ck.hilbert_function(w) for w in range(3)] == [1, 0, 0]
    assert proj.is_epi()


def test_kernel_of_projection_to_quotient():
    # Q[x,y] -> Q[x,y]/(x-y): kernel is the ideal (x-y) with one weight-1 generator
    R = EdgeRing(("x", "y"))
    a = PresentedModule.free(R, (0,))
    c = PresentedModule.from_ideal(R, [R.var("x") - R.var("y")])
    proj = ModuleMap.from_matrix(a, c, ((R.one(),),), 0)
    k, incl = kernel(proj)
    assert k.gen_weights == (1,)
    assert incl.columns[0] == a.free_cover.element([R.var("x") - R.var("y")])


def test_kernel_of_zero_columns_in_source_order():
    # both columns are zero, so the syzygy basis g0, g1 is ordered with
    # weights (0, 0); the kernel's generators come in the source cover's
    # order, where g1 has weight 1 and comes first
    R = EdgeRing(("x",))
    src = PresentedModule.free(R, (0, 1))
    k, incl = kernel(ModuleMap.zero_map(src, PresentedModule.free(R, (0,))))
    assert k.gen_weights == (1, 0)
    assert (incl.columns[0], incl.columns[1]) == (src.gen(1), src.gen(0))
    assert k.relation_gb() == groebner(list(k.relations), module=k.free_cover)


def test_image_factors_map():
    R = EdgeRing(("x",))
    a1 = PresentedModule.free(R, (1,))
    a0 = PresentedModule.free(R, (0,))
    mult = ModuleMap.from_matrix(a1, a0, ((R.var("x"),),), 0)
    img = image(mult)
    assert img.inclusion.is_mono()
    assert img.projection.is_epi()
    assert img.inclusion.compose(img.projection) == mult


def test_image_projection_with_repeated_and_dead_columns():
    # columns x, x^2, x into Q[x]/(x^2): x^2 is a nonzero element of the
    # relations, so its class is zero, and both x columns go to the image
    # generator of the first
    R = EdgeRing(("x",))
    x = R.var("x")
    tgt = PresentedModule.from_ideal(R, [x * x])
    phi = ModuleMap.from_matrix(PresentedModule.free(R, (1, 2, 1)), tgt, ((x, x * x, x),), 0)
    img = image(phi)
    zero, one = R.zero(), R.one()
    assert img.module.rank == 2
    assert img.projection.matrix == ((one, zero, one), (zero, zero, zero))
    assert img.inclusion.compose(img.projection).matrix == ((x, zero, x),)


def test_pullback_of_identity(zp_related):
    ident = ModuleMap.identity(zp_related)
    pb = pullback(ident, ident)
    assert pb.to_first.is_mono() and pb.to_first.is_epi()


def test_pullback_ideal_example():
    # S = (x) in A = Q[x]; B = Q[x] --x--> A: the pullback covers S
    R = EdgeRing(("x",))
    a = PresentedModule.free(R, (0,))
    s, s_incl = submodule_from_elements(a, [R.var("x") * a.gen(0)])
    b1 = PresentedModule.free(R, (1,))
    mult = ModuleMap.from_matrix(b1, a, ((R.var("x"),),), 0)
    pb = pullback(s_incl, mult)
    assert pb.to_first.is_epi()
    assert pb.to_second.is_mono()


# -- pruning -----------------------------------------------------------------------


def _transform_prunes(monkeypatch, per_pred):
    """The modules that seeded transform runs hand to _prune: the kernels and
    pullbacks they present for themselves."""
    seen = []

    def record(m):
        seen.append(m)
        return gradedmod._prune(m)

    monkeypatch.setattr(serre, "_prune", record)
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    for pred in (AlwaysTame(), MaxBlockCount(2), CoBlocked(["a", "b"]), DiscreteOnly()):
        tame = tame_partitions(pred, split.split_graph)
        rng = random.Random(f"prune:{pred.describe()}")
        for _ in range(per_pred):
            cert = random_certificate(rng, tame, 2)
            for i in (0, 1):
                transform(cert, split.e, split.e_prime, i)
    return seen


def _disguised(rng, m):
    """m plus a generator h and the relation u = h - x, x a random element of
    m's cover of h's weight, with a random multiple of u added to each
    relation of m: m again, presented so that pruning must substitute."""
    w = min(m.gen_weights) + rng.randint(1, 2)
    ring_gen = PresentedModule.free(m.ring, (w,))
    total, (inj, _), _ = direct_sum([m, ring_gen])
    unit = total.gen(m.rank) - inj.apply_free(random_homogeneous_element(rng, m, w))
    rels = [unit]
    for r in map(inj.apply_free, m.relations):
        if r.weight() >= w:
            r += random_homogeneous_element(rng, ring_gen, r.weight()).component(0) * unit
        rels.append(r)
    return PresentedModule(m.ring, total.gen_weights, rels)


def _prune_cases(monkeypatch):
    split = split_edge(EdgeGraph(("a", "b", "e")), "e")
    tame = tame_partitions(AlwaysTame(), split.split_graph)
    rng = random.Random("prune-cases")
    cases = []
    for _ in range(12):
        m = random_certificate(rng, tame, 2).root
        if not m.rank:
            continue
        # a summand that its unit relation kills, and a disguised copy of m
        one = PresentedModule.free(m.ring, (1,))
        dead = PresentedModule(m.ring, (1,), [rng.choice((-2, 3)) * one.gen(0)])
        cases += [direct_sum([m, dead])[0], direct_sum([dead, m])[0], _disguised(rng, m)]
    kernels = [k for k in _transform_prunes(monkeypatch, 60) if gradedmod._prune(k)[0] is not k]
    assert len(kernels) > 20
    return cases + kernels


def test_prune_keeps_the_module(monkeypatch):
    for m in _prune_cases(monkeypatch):
        pm, kept = gradedmod._prune(m)
        assert pm.rank == len(kept) < m.rank
        assert pm.gen_weights == tuple(m.gen_weights[j] for j in kept)
        incl = ModuleMap(pm, m, [m.gen(j) for j in kept])
        assert incl.is_mono() and incl.is_epi()
        assert pm.hilbert_numerator() == m.hilbert_numerator()
        # no constant entry left: every term of every relation has a variable
        assert all(t[1] > gradedmod.FIELD for r in pm.relations for t in r.terms)
        assert pm.relation_gb() == groebner(list(pm.relations), module=pm.free_cover)


def test_prune_returns_a_module_with_no_constant_entry(zp_related):
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    free = PresentedModule.free(R, (0, 1))
    m = PresentedModule(R, (0, 1), [x * free.gen(1) - y * y * free.gen(0)])
    for mod in (m, free, zp_related, PresentedModule.zero(R)):
        pm, kept = gradedmod._prune(mod)
        assert pm is mod and kept == tuple(range(mod.rank))


def test_prune_of_a_fixed_kernel():
    # the kernel of Q[x,y] -> Q[x,y]/(x^2, xy + y^2) is presented on the
    # reduced basis y^3, x^2, xy + y^2; y^3 = y x^2 + (y - x)(xy + y^2), so
    # the last two suffice, with their Koszul relation
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    a = PresentedModule.free(R, (0,))
    _, pi = quotient_by_elements(a, [x * x * a.gen(0), (x * y + y * y) * a.gen(0)])
    k, incl = kernel(pi)
    pk, kept = gradedmod._prune(k)
    assert (k.rank, pk.rank, kept) == (3, 2, (1, 2))
    assert [incl.columns[j] for j in kept] == [x * x * a.gen(0), (x * y + y * y) * a.gen(0)]
    assert pk.relations == (x * x * pk.gen(1) - (x * y + y * y) * pk.gen(0),)


# -- functors --------------------------------------------------------------------------


def test_f0_of_free_module():
    R = EdgeRing(("a", "e", "e'"))
    m = PresentedModule.free(R, (0,))
    out = f0(m, "e", "e'")
    assert out.ring.variables == ("a", "e")
    assert out.relations == ()


def test_f0_merges_partition(p_unrelated):
    out = f0(partition_module(p_unrelated), "e", "e'")
    merged = partition_module(merge_edges(p_unrelated, "e", "e'"))
    assert out.same_presentation(merged)


def test_f0_with_companion_block():
    p = make_partition(["a", "e", "e'"], [["e", "a"], ["e'"]])
    out = f0(partition_module(p), "e", "e'")
    merged = partition_module(merge_edges(p, "e", "e'"))
    assert out.same_presentation(merged)
    for w in range(6):
        assert out.hilbert_function(w) == merged.hilbert_function(w)


def test_f1_related_is_merged_module(zp_related, p_related):
    out = f1(zp_related, "e", "e'")
    merged = partition_module(merge_edges(p_related, "e", "e'"))
    assert out.same_presentation(merged)


def test_f1_unrelated_is_zero(zp_unrelated):
    out = f1(zp_unrelated, "e", "e'")
    assert out.rank == 0


def test_f1_free_is_zero():
    R = EdgeRing(("a", "e", "e'"))
    assert f1(PresentedModule.free(R, (0, 2)), "e", "e'").rank == 0


def test_torsion_killed_by_difference(zp_related):
    td = torsion_data(zp_related, "e", "e'")
    d = zp_related.ring.var("e") - zp_related.ring.var("e'")
    gb = zp_related.relation_gb()
    for k in td.kgens:
        assert normal_form(d * k, gb).is_zero()


def test_induced_f0_of_identity(zp_related):
    ind = induced_map_f0(ModuleMap.identity(zp_related), "e", "e'")
    assert ind == ModuleMap.identity(f0(zp_related, "e", "e'"))


def test_induced_f0_kills_difference_multiplication(zp_unrelated):
    m = zp_unrelated
    d = m.ring.var("e") - m.ring.var("e'")
    shifted = m.shift(1)
    mult = ModuleMap.from_matrix(shifted, m, ((d,),), 0)
    ind = induced_map_f0(mult, "e", "e'")
    assert all(entry.is_zero() for row in ind.matrix for entry in row)


def test_induced_f1_of_torsion_inclusion_is_iso(zp_related):
    # Tor(M) inside M = Z[P] + free: the inclusion induces an isomorphism on torsion
    R = zp_related.ring
    total, injs, projs = direct_sum([zp_related, PresentedModule.free(R, (0,))])
    ind = induced_map_f1(injs[0], "e", "e'")
    assert ind.is_mono() and ind.is_epi()


def test_induced_f1_into_torsion_free_target():
    # M = R/(a, e - e') is all torsion and N = R/(a) has none, so the lift of
    # the image a * 1 has no torsion generators to use and must still reduce
    # against the relations of N
    R = EdgeRing(("a", "e", "e'"))
    a, e, ep = R.var("a"), R.var("e"), R.var("e'")
    m = PresentedModule.from_ideal(R, [a, e - ep])
    n = PresentedModule.from_ideal(R, [a])
    assert torsion_data(m, "e", "e'").kgens
    assert not torsion_data(n, "e", "e'").kgens
    ind = induced_map_f1(ModuleMap.from_matrix(m, n, ((a,),), 1), "e", "e'")
    assert (ind.source.rank, ind.target.rank) == (1, 0)


def test_f1_left_exact_on_monos(zp_related):
    rng = random.Random(31)
    m = zp_related
    for _ in range(6):
        elems = [random_homogeneous_element(rng, m, rng.randint(0, 2)) for _ in range(2)]
        sub, incl = submodule_from_elements(m, elems)
        ind = induced_map_f1(incl, "e", "e'")
        assert ind.is_mono()


def _quotient_cases():
    """(module, elements) over random certificate roots on {a, b, c, e, e'}:
    the empty list, lists of zero class (the zero element, relation basis
    elements and a multiple of one), random lists, and random lists with
    zero-class elements mixed in."""
    split = split_edge(EdgeGraph(("a", "b", "c", "e")), "e")
    rng = random.Random("quotient-by-elements")
    cases = []
    for pred in (AlwaysTame(), MaxBlockCount(2), CoBlocked(["a", "b"]), DiscreteOnly()):
        tame = tame_partitions(pred, split.split_graph)
        for _ in range(6):
            m = random_certificate(rng, tame, 2).root
            if m.rank == 0:
                continue
            gb = list(m.relation_gb())
            zero_class = [m.free_cover.zero()] + gb[:2] + [m.ring.var("a") * g for g in gb[:1]]
            base = min(m.gen_weights)
            elems = [random_homogeneous_element(rng, m, base + rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
            cases += [(m, []), (m, zero_class), (m, elems), (m, elems[:1] + zero_class + elems[1:])]
    return cases


def test_quotient_by_elements_matches_cokernel_of_the_submodule():
    # equal modules and maps with ==, not only the same relation submodule
    kinds = set()
    for m, elems in _quotient_cases():
        q, proj = quotient_by_elements(m, elems)
        ref, ref_proj = cokernel(submodule_from_elements(m, elems)[1])
        assert q == ref and proj.columns == ref_proj.columns and proj == ref_proj
        zero = tuple(normal_form(x, m.relation_gb()).is_zero() for x in elems)
        if all(zero):
            assert q == m
        kinds.add(zero)
    assert () in kinds and any(k and all(k) for k in kinds) and any(len(set(k)) == 2 for k in kinds)


@pytest.mark.parametrize("bad", ["foreign", "inhomogeneous", "inhomogeneous-zero-class"])
def test_quotient_by_elements_rejects_what_submodules_reject(zp_related, bad):
    # cyclic_submodule is the span of its one element, so it rejects the same
    # element with the same error, whether or not the element's class is zero
    m = zp_related
    a, e, ep = m.ring.var("a"), m.ring.var("e"), m.ring.var("e'")
    if bad == "foreign":
        x = PresentedModule.free(m.ring, (0, 1)).gen(1)
    elif bad == "inhomogeneous":
        x = (a + e * e) * m.gen(0)
    else:
        x = (e - ep) * (m.ring.one() + a) * m.gen(0)
        assert normal_form(x, m.relation_gb()).is_zero()
    errors = []
    for route in (quotient_by_elements, submodule_from_elements, lambda m, elems: cyclic_submodule(m, elems[-1])):
        with pytest.raises((StructuralError, ValidationError)) as info:
            route(m, [m.gen(0), x])
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][0] is (StructuralError if bad == "foreign" else ValidationError)


# -- six-term sequence ------------------------------------------------------------------


def build_ses(m, elems):
    sub, incl = submodule_from_elements(m, elems)
    _, proj = cokernel(incl)
    return ShortExactSequence(incl, proj)


def test_six_term_on_principal_ideal(zp_related):
    R = zp_related.ring
    a = PresentedModule.free(R, (0,))
    d = R.var("e") - R.var("e'")
    ses = build_ses(a, [d * a.gen(0)])
    assert ses.check() == []
    st = six_term(ses, "e", "e'")
    assert st.exactness_failures() == []
    # connecting map must be nonzero here: F1(C) = Z[P] flows into F0(B)
    delta = st.maps[2]
    assert any(not e.is_zero() for row in delta.matrix for e in row)


def test_six_term_hilbert_additivity(zp_related):
    R = zp_related.ring
    a = PresentedModule.free(R, (0,))
    d = R.var("e") - R.var("e'")
    ses = build_ses(a, [d * a.gen(0)])
    b, mid, c = ses.incl.source, ses.incl.target, ses.proj.target
    for w in range(6):
        assert mid.hilbert_function(w) == b.hilbert_function(w) + c.hilbert_function(w)


def test_connecting_map_degree(zp_related):
    R = zp_related.ring
    a = PresentedModule.free(R, (0,))
    d = R.var("e") - R.var("e'")
    ses = build_ses(a, [d * a.gen(0)])
    delta = connecting_map(ses, "e", "e'")
    assert delta.degree == 1


# -- witness checks by counting against their kernel definitions ------------------------


def _kernel_is_mono(phi):
    """Oracle: injective iff the kernel is zero."""
    return kernel(phi)[0].is_zero()


def _kernel_exact_at(fin, fout):
    """Oracle: the image of fin spans the kernel of fout."""
    return same_submodule(fin.target, fin.columns, kernel(fout)[1].columns)


def _witness_cases(seed):
    """(map, is_mono) and (fin, fout, exact_at) cases on a random middle
    module B and a submodule S: verdicts known by construction, or None."""
    rng = random.Random(seed)
    parts = list(iter_partitions(("a", "b", "e", "e'")))
    mid = partition_module(parts[rng.randrange(len(parts))]).shift(rng.randint(0, 1))
    if rng.random() < 0.5:
        mid = direct_sum([mid, partition_module(parts[rng.randrange(len(parts))])])[0]
    base = min(mid.gen_weights)
    elems = [random_homogeneous_element(rng, mid, base + rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
    sub, incl = submodule_from_elements(mid, elems)
    proj = cokernel(incl)[1]
    nonzero = not sub.is_zero()
    x = mid.ring.var(rng.choice(mid.ring.variables))
    y = mid.ring.var(rng.choice(mid.ring.variables))
    free = PresentedModule.free(mid.ring, [g.weight() or 0 for g in elems])
    times_y = ModuleMap(mid, mid, [y * mid.gen(j) for j in range(mid.rank)], 1)
    torsion, torsion_incl = kernel(times_y)
    maps = [
        (incl, True),
        (proj, not nonzero),
        (ModuleMap(free, mid, elems), None),
        (times_y, None),
        (ModuleMap(sub, mid, [x * c for c in incl.columns], 1), None),
    ]
    smaller, smaller_incl = submodule_from_elements(mid, elems[:-1])
    pairs = [
        (incl, proj, True),
        # x S lies in ker(B -> B/S), and is smaller when S is not zero
        (ModuleMap(sub, mid, [x * c for c in incl.columns], 1), proj, not nonzero),
        (incl, cokernel(smaller_incl)[1], None),
        (smaller_incl, proj, None),
        # degree-1 maps out of B: the kernel of y, and x times it
        (torsion_incl, times_y, True),
        (ModuleMap(torsion, mid, [x * c for c in torsion_incl.columns], 1), times_y, None),
        (incl, times_y, None),
        # x B and y B: the same series when x and y are nonzerodivisors on B
        (ModuleMap(mid, mid, [x * mid.gen(j) for j in range(mid.rank)], 1), cokernel(times_y)[1], None),
    ]
    return maps, pairs


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_counting_witness_checks_match_kernels(seed):
    maps, pairs = _witness_cases(seed)
    for phi, known in maps:
        verdict = phi.is_mono()
        assert verdict == _kernel_is_mono(phi)
        assert known is None or verdict == known
    for fin, fout, known in pairs:
        verdict = gradedmod.exact_at(fin, fout)
        assert verdict == _kernel_exact_at(fin, fout)
        assert known is None or verdict == known


def test_exact_at_needs_the_composite_to_vanish():
    # R(-1) --x--> R --> R/(y): image and kernel have one series, but differ
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    rank_one = PresentedModule.free(R, (0,))
    one = rank_one.gen(0)
    fin = ModuleMap(PresentedModule.free(R, (1,)), rank_one, [x * one])
    fout = cokernel(ModuleMap(PresentedModule.free(R, (1,)), rank_one, [y * one]))[1]
    assert not gradedmod.exact_at(fin, fout) and not _kernel_exact_at(fin, fout)
    # R(-1) --x--> R --> R/(x) is exact
    fout = cokernel(ModuleMap(rank_one, rank_one, [x * one], 1))[1]
    assert gradedmod.exact_at(fin, fout) and _kernel_exact_at(fin, fout)


def test_counting_witness_checks_see_both_verdicts():
    # the random cases above hold negatives of every kind, not only exact,
    # injective witnesses
    monos, exacts = set(), set()
    for seed in range(12):
        maps, pairs = _witness_cases(seed)
        monos.update(phi.is_mono() for phi, _ in maps)
        for fin, fout, _ in pairs:
            composite_zero = all(normal_form(fout.apply_free(c), fout.target.relation_gb()).is_zero() for c in fin.columns)
            exacts.add((gradedmod.exact_at(fin, fout), composite_zero))
    assert monos == {True, False}
    assert exacts == {(True, True), (False, True), (False, False)}


# -- annihilators and cyclic covers --------------------------------------------------------


def test_annihilator_of_free_generator():
    R = EdgeRing(("x",))
    m = PresentedModule.free(R, (0,))
    assert annihilator(m, m.gen(0)) == ()


def test_annihilator_in_truncated_ring():
    R = EdgeRing(("x",))
    x = R.var("x")
    m = PresentedModule.from_ideal(R, [x * x])
    assert annihilator(m, m.gen(0)) == (x * x,)
    assert annihilator(m, x * m.gen(0)) == (x,)


def test_annihilator_matches_partition_ideal(p_related):
    m = partition_module(p_related)
    rng = random.Random(41)
    ideal_gb = groebner(list(partition_ideal(p_related)))
    for _ in range(8):
        x = random_homogeneous_element(rng, m, rng.randint(0, 3))
        if normal_form(x, m.relation_gb()).is_zero():
            continue
        assert annihilator(m, x) == ideal_gb


def test_cyclic_submodule_is_shift(p_related):
    m = partition_module(p_related)
    x = m.ring.var("a") * m.ring.var("a") * m.gen(0)
    cs = cyclic_submodule(m, x)
    assert cs.shift == 2
    assert cs.module.same_presentation(m.shift(2))
    assert cs.inclusion.is_mono()


def test_cyclic_submodule_of_nilpotent():
    R = EdgeRing(("x",))
    x = R.var("x")
    m = PresentedModule.from_ideal(R, [x * x])
    cs = cyclic_submodule(m, x * m.gen(0))
    assert cs.shift == 1
    assert cs.module.same_presentation(PresentedModule.from_ideal(R, [x]).shift(1))


def test_cyclic_submodule_of_zero_element():
    R = EdgeRing(("x",))
    m = PresentedModule.from_ideal(R, [R.var("x")])
    cs = cyclic_submodule(m, R.var("x") * m.gen(0))
    assert cs.module.is_zero()


def _cyclic_by_annihilator(m, x):
    """The annihilator route cyclic_submodule once took, kept as its oracle:
    R/Ann(x) with its generator in weight(x) and a checked inclusion; the
    zero module with a zero map when x's class is zero."""
    if x.module != m.free_cover:
        raise StructuralError("element outside the module's free cover")
    if not normal_form(x, m.relation_gb()).is_zero():
        w = x.weight()
        ann = annihilator(m, x)
        cyc = PresentedModule.from_ideal(m.ring, ann, shift=w)
        incl = ModuleMap(cyc, m, [x], 0, check=True)
        return CyclicSubmodule(cyc, incl, w)
    zero_mod = PresentedModule.zero(m.ring)
    return CyclicSubmodule(zero_mod, ModuleMap.zero_map(zero_mod, m), 0)


def test_cyclic_submodule_matches_the_annihilator_route():
    # criterion 3's draws (a random partition of 1-5 edges, an element of
    # weight 0-4) with zero classes kept, a relation's multiple of zero class
    # for each, and every element of _quotient_cases over certificate roots
    rng = random.Random("cyclic-submodule")
    letters = ("a", "b", "c", "d", "e")
    cases = []
    for _ in range(60):
        ground = letters[: rng.randint(1, 5)]
        parts = list(iter_partitions(ground))
        m = partition_module(parts[rng.randrange(len(parts))])
        cases.append((m, random_homogeneous_element(rng, m, rng.randint(0, 4))))
        cases += [(m, m.ring.var(ground[0]) * g) for g in m.relation_gb()[:1]]
    cases += [(m, x) for m, elems in _quotient_cases() for x in elems]
    zero = []
    for m, x in cases:
        assert cyclic_submodule(m, x) == _cyclic_by_annihilator(m, x), (m, x)
        zero.append(normal_form(x, m.relation_gb()).is_zero())
    assert 0 < sum(zero) < len(zero)


# -- support criterion ------------------------------------------------------------------------


def test_tame_support_generator(p_related):
    m = partition_module(p_related)
    assert is_tame_support(m, [p_related])


def test_tame_support_empty_list(p_related):
    ring = partition_module(p_related).ring
    assert is_tame_support(PresentedModule.zero(ring), [])
    assert not is_tame_support(PresentedModule.free(ring, (0,)), [])


def test_tame_support_free_not_in_single_subspace(p_related):
    ring = partition_module(p_related).ring
    assert not is_tame_support(PresentedModule.free(ring, (0,)), [p_related])


def test_tame_support_discrete_covers_everything(p_related, p_unrelated):
    ring = partition_module(p_related).ring
    assert is_tame_support(PresentedModule.free(ring, (0,)), [p_unrelated, p_related])


def test_tame_support_union_of_two(p_related):
    # Ann(Z[P] + Z[Q]) needs the union of both subspaces
    q = make_partition(["a", "e", "e'"], [["a", "e"], ["e'"]])
    mp = partition_module(p_related)
    mq = partition_module(q)
    total = direct_sum([mp, mq])[0]
    assert is_tame_support(total, [p_related, q])
    assert not is_tame_support(total, [p_related])
    assert not is_tame_support(total, [q])


def _syzygy_annihilator(m, x):
    """annihilator's syzygy route, kept as the oracle of its read-off."""
    return tuple(s.component(0) for s in syzygies([x], module=m.free_cover, modulo=m.relations))


def _syzygy_annihilator_ideal(m):
    """Ann M by the syzygy route alone: the generators' annihilators,
    intersected."""
    if m.rank == 0:
        return (m.ring.one(),)
    acc = None
    for i in range(m.rank):
        ann = _syzygy_annihilator(m, m.gen(i))
        if not ann:
            return ()
        acc = ann if acc is None else intersect_ideals(acc, ann, m.ring)
        if not acc:
            return ()
    return acc


def _product_oracle(m, tame):
    """Literal support check: every product of one generator from each
    partition ideal lies in rad(Ann M)."""
    ann = _syzygy_annihilator_ideal(m)
    ideals = [partition_ideal(p) for p in tame]
    for combo in itertools.product(*ideals):
        g = m.ring.one()
        for f in combo:
            g = g * f
        if not radical_member(g, ann):
            return False
    return True


def test_tame_support_routes_agree(p_related):
    # the saturation sweep agrees with the literal product check on every
    # antichain of non-discrete partitions of {a, e, e'}
    ground = ["a", "e", "e'"]
    ring = partition_module(p_related).ring
    parts = list(iter_partitions(ground))
    nondiscrete = [p for p in parts if not p.is_discrete()]
    antichains = [
        list(c)
        for k in range(1, len(nondiscrete) + 1)
        for c in itertools.combinations(nondiscrete, k)
        if not any(p != q and p.refines(q) for p in c for q in c)
    ]
    assert len(antichains) == 8
    q = make_partition(ground, [["a", "e"], ["e'"]])
    modules = [partition_module(p) for p in parts]
    modules += [
        PresentedModule.free(ring, (0,)),
        direct_sum([partition_module(q), partition_module(p_related)])[0],
    ]
    for tame in antichains:
        for m in modules:
            assert is_tame_support(m, tame) == _product_oracle(m, tame), (tame, m)


@pytest.mark.parametrize("base", [("a", "b", "e"), ("a", "b", "c", "e"), ("a", "b", "c", "d", "e")])
def test_finest_matches_refines_oracle(base):
    def oracle(tame):
        return [p for p in tame if not any(q != p and q.refines(p) for q in tame)]

    split = split_edge(EdgeGraph(base), "e")
    preds = (AlwaysTame(), MaxBlockCount(2), MaxBlockCount(3), CoBlocked(["a", "b"]), DiscreteOnly())
    for g in (split.split_graph, split.base_graph):
        for pred in preds:
            tame = list(tame_partitions(pred, g))
            assert _finest(tuple(tame)) == tuple(oracle(tame)), pred
        # random subsets, so that the kept list is not always a single partition
        parts = list(iter_partitions(g.edges))
        rng = random.Random(len(parts))
        for _ in range(20):
            tame = rng.sample(parts, rng.randint(1, min(12, len(parts))))
            assert _finest(tuple(tame)) == tuple(oracle(tame))


def _reference_tame_support(m, tame):
    """Test-only oracle: the saturation sweep as it ran before the per-pair
    saturation table, one saturate_by_ideal call per partition and step, on
    Ann M by the syzygy route."""
    tame = tuple(dict.fromkeys(tame))
    if not tame:
        return m.is_zero()
    if m.is_zero():
        return True
    keep = _finest(tame)
    if any(p.is_discrete() for p in keep):
        return True
    ann = _syzygy_annihilator_ideal(m)
    if ann and ideal_contains_one(ann, m.ring):
        return True
    ideals = [partition_ideal(p) for p in keep]
    for gens in ideals:
        if all(radical_member(g, ann) for g in gens):
            return True
    if len(keep) == 1:
        return False
    order = sorted(range(len(keep)), key=lambda i: (-keep[i].block_count, keep[i].blocks))
    current = ann
    for i in order:
        current = saturate_by_ideal(current, ideals[i], m.ring)
        if ideal_contains_one(current, m.ring):
            return True
    return False


def _split_abce():
    return split_edge(EdgeGraph(("a", "b", "c", "e")), "e").split_graph


def _tame_sweep_cases():
    """(module, tame list) pairs on {a, b, c, e, e'}: wild partition modules,
    tame + wild sums and sums of tame modules from different subspaces, for
    three predicates and for random antichains, so that sweeps end both ways;
    then, for the same predicates, modules with support inside a single tame
    subspace and one-partition tame lists."""
    g = _split_abce()
    parts = list(iter_partitions(g.edges))
    rng = random.Random(77)

    def mod(p):
        return partition_module(p).shift(rng.randint(0, 1))

    cases = []
    preds = (MaxBlockCount(2), MaxBlockCount(3), CoBlocked(["a", "b"]))
    for pred in preds:
        tame = list(tame_partitions(pred, g))
        wild = [p for p in parts if not pred(p)]
        coarse = [p for p in tame if not p.is_discrete()]
        for _ in range(4):
            cases.append((mod(rng.choice(wild)), tame))
            cases.append((direct_sum([mod(rng.choice(tame)), mod(rng.choice(wild))])[0], tame))
            p, q = rng.sample(coarse, 2)
            cases.append((direct_sum([mod(p), mod(q)])[0], tame))
    nondiscrete = [p for p in parts if not p.is_discrete()]
    for _ in range(24):
        tame = list(_finest(tuple(rng.sample(nondiscrete, rng.randint(2, 8)))))
        pick = [rng.choice(tame if rng.random() < 0.6 else nondiscrete) for _ in range(rng.randint(1, 3))]
        cases.append((direct_sum([mod(p) for p in pick])[0], tame))
    for pred in preds:
        tame = list(tame_partitions(pred, g))
        coarse = [p for p in tame if not p.is_discrete()]
        p = rng.choice(coarse)
        cases.append((mod(p), tame))
        cases.append((direct_sum([mod(p), mod(p)])[0], tame))
        cases.append((random_certificate(rng, tame, 2).root, tame))
        cases.append((mod(p), [p]))
        cases.append((mod(rng.choice([q for q in parts if not p.refines(q)])), [p]))
    return cases


def test_tame_support_matches_reference_sweep():
    verdicts = []
    for m, tame in _tame_sweep_cases():
        got = is_tame_support(m, tame)
        assert got == _reference_tame_support(m, tame), (tame, m)
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(gradedmod, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(gradedmod, name, counting)
    return calls


def _tame_and_wild_abce():
    g = _split_abce()
    tame_p = make_partition(g.edges, [["a", "b", "e"], ["c", "e'"]])
    wild_p = make_partition(g.edges, [["a", "e"], ["b", "e'"], ["c"]])
    return tame_p, wild_p, list(tame_partitions(MaxBlockCount(2), g))


def test_tame_support_sweep_work(monkeypatch):
    # Z[abe|ce'] + Z[ae|be'|c] under max-blocks:2 (15 two-block subspaces).
    # The sweep runs once per generator, on an annihilator read off the
    # diagonal relation basis: 5 normal forms cover the tame summand, as in
    # test_tame_support_single_subspace_work, and 3 find every step a no-op
    # for the wild one, 8 in all.  Both annihilators are linear, so nothing
    # is saturated.
    tame_p, wild_p, tame = _tame_and_wild_abce()
    m = direct_sum([partition_module(tame_p), partition_module(wild_p)])[0]
    calls = _count_calls(monkeypatch, ("saturate_by_ideal", "normal_form", "syzygies"))
    assert not is_tame_support(m, tame)
    assert calls == {"saturate_by_ideal": 0, "normal_form": 8, "syzygies": 0}


def test_tame_support_wild_first_exits_early(monkeypatch):
    # the same sum with the wild summand first: its 3 normal forms decide,
    # and the tame generator is never swept
    tame_p, wild_p, tame = _tame_and_wild_abce()
    m = direct_sum([partition_module(wild_p), partition_module(tame_p)])[0]
    calls = _count_calls(monkeypatch, ("saturate_by_ideal", "annihilator", "normal_form"))
    assert not is_tame_support(m, tame)
    assert calls == {"saturate_by_ideal": 0, "annihilator": 1, "normal_form": 3}


def test_tame_support_single_subspace_work(monkeypatch):
    # Z[abe|ce'] alone under max-blocks:2: its support lies in one of the 15
    # subspaces, and the sweep reaches the unit ideal at that subspace's
    # step after 5 normal forms, with no saturation or intersection
    tame_p, _, tame = _tame_and_wild_abce()
    calls = _count_calls(monkeypatch, ("saturate_by_ideal", "normal_form", "intersect_ideals"))
    assert is_tame_support(partition_module(tame_p), tame)
    assert calls == {"saturate_by_ideal": 0, "normal_form": 5, "intersect_ideals": 0}


def test_tame_support_nonlinear_annihilator_work(monkeypatch):
    # R/((x_a - x_b)(x_c - x_e)): its annihilator is not linear, so the sweep
    # saturates.  Under max-blocks:2 it takes 6 saturations and 1
    # intersection to find the two hyperplanes uncovered.  Under the two
    # subspaces [ab|c|e|e'] and [a|b|ce|e'], one saturation by x_a - x_b
    # leaves the linear (x_c - x_e), and one normal form reaches (1).
    _, _, tame = _tame_and_wild_abce()
    g = _split_abce()
    ring = partition_module(tame[0]).ring
    xa, xb, xc, xe = (ring.var(v) for v in "abce")
    m = PresentedModule.from_ideal(ring, [(xa - xb) * (xc - xe)])
    names = ("saturate_by_ideal", "intersect_ideals", "normal_form", "syzygies")
    calls = _count_calls(monkeypatch, names)
    assert not is_tame_support(m, tame)
    assert calls == {"saturate_by_ideal": 6, "intersect_ideals": 1, "normal_form": 0, "syzygies": 0}
    pair = [make_partition(g.edges, [["a", "b"], ["c"], ["e"], ["e'"]]), make_partition(g.edges, [["a"], ["b"], ["c", "e"], ["e'"]])]
    calls.update(dict.fromkeys(names, 0))
    assert is_tame_support(m, pair)
    assert calls == {"saturate_by_ideal": 1, "intersect_ideals": 0, "normal_form": 1, "syzygies": 0}


def _read_off_cases():
    """(module, element, whether the read-off applies) pairs: direct sums of
    shifted partition modules, R/(x^2) + R/(xy), zero-class and free
    generators, 2*g_i and non-generators, certificate roots, and
    non-diagonal presentations, which fall through to the syzygies."""
    g = _split_abce()
    parts = list(iter_partitions(g.edges))
    rng = random.Random("read-off")
    cases = []
    for _ in range(6):
        pick = rng.sample(parts, rng.randint(1, 3))
        m = direct_sum([partition_module(p).shift(rng.randint(0, 2)) for p in pick])[0]
        for i in range(m.rank):
            cases += [(m, m.gen(i), True), (m, m.free_cover.gen(i, 2), True)]
        cases.append((m, m.ring.var("a") * m.gen(m.rank - 1), False))
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    m = direct_sum([PresentedModule.from_ideal(R, [x * x]), PresentedModule.from_ideal(R, [x * y], shift=1)])[0]
    cases += [(m, m.gen(0), True), (m, m.gen(1), True), (m, m.free_cover.gen(1, -3), True)]
    cases += [(m, x * m.gen(0), False), (m, y * m.gen(0) + m.gen(1), False)]
    free = FreeModule(R, (0, 1, 0))
    zero_class = PresentedModule(R, (0, 1, 0), [free.element([x * x, R.zero(), R.zero()]), free.gen(2)])
    cases += [(zero_class, zero_class.gen(i), True) for i in range(3)]
    free2 = FreeModule(R, (0, 0))
    mixed = PresentedModule(R, (0, 0), [free2.element([y, -x]), free2.element([x * x, R.zero()])])
    cases += [(mixed, mixed.gen(0), False), (mixed, mixed.gen(1), False)]
    tame = list(tame_partitions(MaxBlockCount(2), g))
    for _ in range(4):
        root = random_certificate(rng, tame, 2).root
        diagonal = all(len({t[1] & gradedmod.FIELD for t in r.terms}) == 1 for r in root.relation_gb())
        cases += [(root, root.gen(i), diagonal) for i in range(root.rank)]
    return cases


def test_annihilator_read_off_matches_syzygies(monkeypatch):
    cases = _read_off_cases()
    expected = [_syzygy_annihilator(m, x) for m, x, _ in cases]
    calls = _count_calls(monkeypatch, ("syzygies",))
    anns = set()
    for (m, x, read_off), want in zip(cases, expected):
        before = calls["syzygies"]
        got = annihilator(m, x)
        assert got == want, (m, x)
        assert calls["syzygies"] - before == (0 if read_off else 1), (m, x)
        anns.add((read_off, "zero" if not got else "unit" if got == (m.ring.one(),) else "proper"))
    # the read-off gives the zero, the unit and proper ideals; the syzygies proper ones
    assert anns == {(True, "zero"), (True, "unit"), (True, "proper"), (False, "proper")}


def _kernel_torsion(m, e, ep):
    """torsion_data's kernel route, kept as the oracle of its read-off:
    (kgens, the torsion submodule before contraction)."""
    d = m.ring.var(e) - m.ring.var(ep)
    sub, incl = kernel(ModuleMap(m, m, [d * m.gen(j) for j in range(m.rank)], 1, check=False))
    return incl.columns, sub


def _torsion_cases():
    """(module, whether torsion_data reads it off, None where a diagonal
    certificate root may go either way) on {a, b, c, e, e'}:
    partition modules with e and e' in one block and in two, direct sums of
    shifted partition modules with mixed weights, a zero-class generator, a
    free summand, R/I summands with I not linear and d = e - e' in I or not,
    certificate roots, and presentations not in single positions."""
    g = _split_abce()
    ring = EdgeRing(g.edges)
    a, b, e, ep = (ring.var(v) for v in ("a", "b", "e", "e'"))
    d = e - ep
    parts = list(iter_partitions(g.edges))
    joined = [p for p in parts if "e'" in p.block_of("e")]
    apart = [p for p in parts if "e'" not in p.block_of("e")]
    rng = random.Random("torsion read-off")
    cases = [(partition_module(rng.choice(joined)), True), (partition_module(rng.choice(apart)), True)]
    for _ in range(8):
        pick = rng.sample(joined, 2) + rng.sample(apart, 1) + rng.sample(parts, rng.randint(0, 2))
        rng.shuffle(pick)
        mods = [partition_module(p).shift(rng.randint(0, 2)) for p in pick]
        cases.append((direct_sum(mods)[0], True))
    free = FreeModule(ring, (1, 0, 0, 2))
    zero_class = PresentedModule(ring, free.weights, [free.gen(0), free.element([ring.zero(), d, ring.zero(), ring.zero()])])
    cases.append((zero_class, True))
    cases.append((direct_sum([partition_module(joined[0]), PresentedModule.free(ring, (1,))])[0], True))
    cases.append((PresentedModule.from_ideal(ring, [d, a * a]), True))
    cases.append((direct_sum([PresentedModule.from_ideal(ring, [a * a, d]), partition_module(joined[-1])])[0], True))
    for ideal in ([d * d], [a * a], [a * d]):
        cases.append((direct_sum([partition_module(joined[1]), PresentedModule.from_ideal(ring, ideal, shift=1)])[0], False))
    free2 = FreeModule(ring, (0, 0))
    cases.append((PresentedModule(ring, (0, 0), [free2.element([d, -a]), free2.element([b, ring.zero()])]), False))
    tame = list(tame_partitions(MaxBlockCount(2), g))
    for _ in range(4):
        root = random_certificate(rng, tame, 2).root
        diagonal = all(len({t[1] & gradedmod.FIELD for t in r.terms}) == 1 for r in root.relation_gb())
        cases.append((root, None if diagonal else False))
    return cases


def test_torsion_read_off_matches_kernel_route(monkeypatch):
    # kgens, the contracted presentation and the uncontracted torsion
    # submodule with its seeded relation_gb equal the kernel route's exactly;
    # the read-off runs no syzygies, and falls back to kernel when a summand
    # is neither killed by d nor linear
    e, ep = "e", "e'"
    cases = _torsion_cases()
    expected = [_kernel_torsion(m, e, ep) for m, _ in cases]
    subs = []
    f0 = gradedmod.f0

    def recording_f0(m, *args):
        subs.append(m)
        return f0(m, *args)

    monkeypatch.setattr(gradedmod, "f0", recording_f0)
    calls = _count_calls(monkeypatch, ("syzygies",))
    kinds = set()
    for (m, read_off), (kgens, ref) in zip(cases, expected):
        before = calls["syzygies"]
        td = torsion_data.__wrapped__(m, e, ep)
        sub = subs[-1]
        assert td.kgens == kgens, m
        assert sub.gen_weights == ref.gen_weights and sub.relations == ref.relations, m
        assert td.positions is None or "gb" in sub._cache, m
        assert sub.relation_gb() == ref.relation_gb() == groebner(list(ref.relations), module=ref.free_cover), m
        assert td.presentation == f0(ref, e, ep), m
        if read_off is not None:
            assert (td.positions is not None) == read_off, m
        # no syzygies exactly when read off or counted zero: an empty kernel
        # is always counted, so kernel runs only for a nonzero F1
        assert (calls["syzygies"] == before) == (td.positions is not None or not td.kgens), m
        if td.positions is not None:
            assert td.kgens == tuple(m.gen(j) for j in td.positions)
            kinds.add("sorted" if list(td.positions) != sorted(td.positions) else "kept" if td.kgens else "none")
    assert kinds == {"sorted", "kept", "none"}


def _counted_torsion_cases():
    """Modules on {a, b, c, e, e'} that torsion_data cannot read off: a
    summand R/I with I not linear and d = e - e' not in I, alone or beside a
    partition module with e, e' joined or apart, and presentations whose
    relation basis does not lie in single positions, among them certificate
    roots.  Some have torsion and some have none."""
    g = _split_abce()
    ring = EdgeRing(g.edges)
    a, b, e, ep = (ring.var(v) for v in ("a", "b", "e", "e'"))
    d = e - ep
    parts = list(iter_partitions(g.edges))
    joined = [p for p in parts if "e'" in p.block_of("e")]
    apart = [p for p in parts if "e'" not in p.block_of("e")]
    cases = []
    for ideal in ([d * d], [a * a], [a * d]):
        summand = PresentedModule.from_ideal(ring, ideal, shift=1)
        cases.append(summand)
        for p in (joined[1], apart[2]):
            cases.append(direct_sum([partition_module(p), summand])[0])
    free2 = FreeModule(ring, (0, 0))
    for rels in ([[d, -a], [b, ring.zero()]], [[d, -a]], [[a, -b]], [[a, -b], [d, ring.zero()]]):
        cases.append(PresentedModule(ring, (0, 0), [free2.element(r) for r in rels]))
    mixed = FreeModule(ring, (0, 1))
    cases.append(PresentedModule(ring, (0, 1), [mixed.element([a * a, -b])]))
    rng = random.Random("counted torsion")
    for pred in (MaxBlockCount(2), DiscreteOnly()):
        tame = list(tame_partitions(pred, g))
        roots = []
        while len(roots) < 6:
            root = random_certificate(rng, tame, 2).root
            if gradedmod._diagonal(root) is None:
                roots.append(root)
        cases += roots
    return cases


def test_counted_zero_torsion_matches_kernel_route(monkeypatch):
    # where the read-off does not apply, torsion_data decides F1(M) = 0 by
    # Hilbert numerators; its outputs equal kernel's exactly, and it runs no
    # syzygies exactly when the kernel is empty
    e, ep = "e", "e'"
    cases = _counted_torsion_cases()
    expected = [_kernel_torsion(m, e, ep) for m in cases]
    calls = _count_calls(monkeypatch, ("syzygies",))
    seen = set()
    for m, (kgens, ref) in zip(cases, expected):
        before = calls["syzygies"]
        td = torsion_data.__wrapped__(m, e, ep)
        assert td.positions is None, m
        assert td.kgens == kgens, m
        assert td.presentation == f0(ref, e, ep), m
        assert (calls["syzygies"] == before) == (not kgens), m
        seen.add((gradedmod._diagonal(m) is not None, bool(kgens)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _tracked_induced_f1(phi, e, ep):
    """induced_map_f1's cofactors by reduce_with_expression, kept as the
    oracle of the read-off."""
    td_s, td_t = torsion_data(phi.source, e, ep), torsion_data(phi.target, e, ep)
    src1, tgt1 = td_s.presentation, td_t.presentation
    if not td_s.kgens:
        return ModuleMap.zero_map(src1, tgt1, phi.degree)
    cols = []
    for x in td_s.kgens:
        rem, cofs = reduce_with_expression(phi.apply_free(x), td_t.kgens, modulo=phi.target.relations)
        if not rem.is_zero():
            raise StructuralError("image of a torsion element is not torsion")
        cols.append(tgt1.free_cover.element([substitute(c, tgt1.ring, {ep: e}) for c in cofs]))
    return ModuleMap(src1, tgt1, cols, phi.degree, check=True)


def _torsion_maps():
    """Maps between direct sums of shifted partition modules on {a, b, c, e,
    e'}, random entries wherever the source partition refines the target's,
    so that they are well defined, with the injections and projections of
    the sums; and maps with check=False whose source torsion lands outside
    the target's torsion."""
    g = _split_abce()
    ring = EdgeRing(g.edges)
    parts = list(iter_partitions(g.edges))
    joined = [p for p in parts if "e'" in p.block_of("e")]
    rng = random.Random("induced read-off")
    maps = []
    for _ in range(10):
        src_p = [rng.choice(joined) for _ in range(rng.randint(1, 2))]
        tgt_p = [rng.choice(parts) for _ in range(rng.randint(1, 3))] + [rng.choice([q for q in joined if src_p[0].refines(q)])]
        rng.shuffle(tgt_p)
        src, s_inj, _ = direct_sum([partition_module(p).shift(rng.randint(1, 2)) for p in src_p])
        tgt, _, t_proj = direct_sum([partition_module(p).shift(rng.randint(0, 1)) for p in tgt_p])
        deg = rng.randint(0, 1)
        cols = []
        for j, p in enumerate(src_p):
            entries = []
            for i, q in enumerate(tgt_p):
                w = src.gen_weights[j] + deg - tgt.gen_weights[i]
                ok = p.refines(q) and w >= 0 and rng.random() < 0.8
                entries.append(random_homogeneous_element(rng, PresentedModule.free(ring, (0,)), w).component(0) if ok else ring.zero())
            cols.append(tgt.free_cover.element(entries))
        maps += [ModuleMap(src, tgt, cols, deg), *s_inj, *t_proj]
    a, e, ep = (ring.var(v) for v in ("a", "e", "e'"))
    torsion = PresentedModule.from_ideal(ring, [e - ep])
    apart = direct_sum([PresentedModule.from_ideal(ring, [a]), torsion])[0]
    maps.append(ModuleMap(torsion, PresentedModule.free(ring, (0,)), [ring.rank_one.gen(0)], 0, check=False))
    maps.append(ModuleMap(torsion, apart, [apart.gen(0) + apart.gen(1)], 0, check=False))
    return maps


def test_induced_f1_read_off_matches_tracked_route(monkeypatch):
    e, ep = "e", "e'"
    maps = _torsion_maps()
    expected = []
    for phi in maps:
        try:
            expected.append(_tracked_induced_f1(phi, e, ep))
        except StructuralError as exc:
            expected.append(str(exc))
    calls = _count_calls(monkeypatch, ("reduce_with_expression",))
    nonzero = 0
    for phi, want in zip(maps, expected):
        assert torsion_data(phi.target, e, ep).positions is not None
        if isinstance(want, str):
            with pytest.raises(StructuralError, match=want):
                induced_map_f1(phi, e, ep)
            continue
        got = induced_map_f1(phi, e, ep)
        assert got == want, phi
        nonzero += any(not c.is_zero() for c in got.columns)
    assert calls["reduce_with_expression"] == 0
    assert sum(isinstance(w, str) for w in expected) == 2 and nonzero > 10


def test_torsion_of_partition_sums_runs_no_syzygies(monkeypatch):
    # Z[abee'|c] + Z[ae|be'|c](1) + Z[a|b|cee'](2): the first and last
    # summands are all torsion, the middle one has none, and each is read
    # off one normal form, with no syzygies; the torsion generators come
    # higher weight first
    g = _split_abce()
    blocks = ([["a", "b", "e", "e'"], ["c"]], [["a", "e"], ["b", "e'"], ["c"]], [["a"], ["b"], ["c", "e", "e'"]])
    mods = [partition_module(make_partition(g.edges, bl)).shift(k) for k, bl in enumerate(blocks)]
    m = direct_sum(mods)[0]
    calls = _count_calls(monkeypatch, ("syzygies", "kernel", "normal_form"))
    td = torsion_data.__wrapped__(m, "e", "e'")
    assert td.positions == (2, 0) and td.presentation.gen_weights == (2, 0)
    assert calls == {"syzygies": 0, "kernel": 0, "normal_form": 3}


def _saturating_sweep(current, steps, order, ring):
    """_sweep_covers as it ran before linear ideals were read off normal
    forms: every table entry is a saturate_by_ideal call."""
    sat = {}
    noop = set()
    for i in order:
        chain, pairs = steps[i]
        if not noop.isdisjoint(pairs):
            continue
        acc = None
        for pr, g in chain:
            if pr not in sat:
                sat[pr] = saturate_by_ideal(current, [g], ring)
                if sat[pr] == current:
                    noop.add(pr)
                    break
            acc = sat[pr] if acc is None else intersect_ideals(acc, sat[pr], ring)
        else:
            if acc != current:
                current, sat = acc, {}
                if current == (ring.one(),):
                    return True
    return False


def _sweep_ideals(rng, ring):
    """Proper homogeneous ideals as reduced bases: linear ones (differences
    of variables and random forms), products and squares of differences,
    and linear forms plus a quadric."""
    v = ring.variables

    def diff():
        a, b = rng.sample(v, 2)
        return ring.var(a) - ring.var(b)

    def form():
        return sum((rng.randint(-2, 2) * ring.var(x) for x in v), ring.zero())

    gens = [
        [diff() for _ in range(rng.randint(1, 3))],
        [diff() for _ in range(rng.randint(1, 2))] + [form()],
        [diff() * diff()],
        [diff() * diff(), diff() * diff()],
        [diff() ** 2],
        [diff() for _ in range(rng.randint(1, 2))] + [diff() * diff()],
        [diff(), form() * form()],
    ]
    out = []
    for gs in gens:
        gb = groebner([f for f in gs if not f.is_zero()])
        if gb and gb != (ring.one(),):
            out.append(gb)
    return out


def test_sweep_covers_matches_saturating_sweep():
    g = _split_abce()
    ring = EdgeRing(g.edges)
    parts = [p for p in iter_partitions(g.edges) if not p.is_discrete()]
    rng = random.Random("sweep-oracle")
    verdicts = []
    kinds = set()
    for _ in range(12):
        keep = _finest(tuple(rng.sample(parts, rng.randint(1, 10))))
        steps, order = _sweep_plan(keep, ring)
        for current in _sweep_ideals(rng, ring):
            got = _sweep_covers(current, steps, order, ring)
            assert got == _saturating_sweep(current, steps, order, ring), (keep, current)
            verdicts.append(got)
            kinds.add(gradedmod._is_linear(current, ring))
    assert set(verdicts) == {True, False}
    assert kinds == {True, False}


def _support_edge_cases():
    """(module, tame list, expected) on {a, b, c, e, e'} under max-blocks:2:
    a zero-class generator beside a tame one, a free generator beside a tame
    one, and rank-3 sums whose summands have different supports, with a wild
    summand in each position."""
    tame_p, wild_p, tame = _tame_and_wild_abce()
    g = _split_abce()
    other_p = make_partition(g.edges, [["a", "c"], ["b", "e", "e'"]])
    coarse_p = make_partition(g.edges, [["a", "b", "c", "e", "e'"]])
    ring = partition_module(tame_p).ring
    free = FreeModule(ring, (0, 1))
    rels = [free.element([f, ring.zero()]) for f in partition_ideal(tame_p)]
    zero_class = PresentedModule(ring, (0, 1), rels + [free.gen(1)])
    with_free = PresentedModule(ring, (0, 1), rels)
    mods = {p: partition_module(p) for p in (tame_p, wild_p, other_p, coarse_p)}
    cases = [(zero_class, tame, True), (with_free, tame, False)]
    cases.append((direct_sum([mods[tame_p], mods[other_p], mods[coarse_p].shift(1)])[0], tame, True))
    for k in range(3):
        parts = [tame_p, other_p]
        parts.insert(k, wild_p)
        cases.append((direct_sum([mods[p] for p in parts])[0], tame, False))
    # other_p alone covers other_p's and coarse_p's supports, not tame_p's
    cases.append((direct_sum([mods[other_p], mods[coarse_p], mods[other_p].shift(2)])[0], [other_p], True))
    cases.append((direct_sum([mods[other_p], mods[tame_p], mods[coarse_p]])[0], [other_p], False))
    return cases


def test_tame_support_edge_cases_match_reference():
    for m, tame, expected in _support_edge_cases():
        assert is_tame_support(m, tame) == expected, (tame, m)
        assert _reference_tame_support(m, tame) == expected, (tame, m)


def test_tame_support_partition_cap(monkeypatch):
    _, _, tame = _tame_and_wild_abce()
    ring = partition_module(tame[0]).ring
    monkeypatch.setattr(gradedmod, "MAX_TAME_SUBSPACES", 3)
    calls = _count_calls(monkeypatch, ("annihilator", "_sweep_plan", "saturate_by_ideal"))
    with pytest.raises(ResourceCapError):
        is_tame_support(PresentedModule.free(ring, (0,)), tame)
    assert is_tame_support(PresentedModule.zero(ring), tame)
    assert calls == {"annihilator": 0, "_sweep_plan": 0, "saturate_by_ideal": 0}


def test_rank_weights_of_annihilator_ideal(zp_related, p_related):
    assert annihilator_ideal(zp_related) == groebner(list(partition_ideal(p_related)))
    R = zp_related.ring
    assert annihilator_ideal(PresentedModule.zero(R)) == (R.one(),)
    assert annihilator_ideal(PresentedModule.free(R, (0,))) == ()


# -- relation bases known by construction ----------------------------------------


def _random_module(rng, ring, rank):
    """A module on rank generators of unequal weights whose relations mostly
    span several positions."""
    free = PresentedModule.free(ring, [rng.randint(0, 2) for _ in range(rank)])
    top = max(free.gen_weights, default=0)
    rels = [random_homogeneous_element(rng, free, top + rng.randint(1, 2)) for _ in range(rank + 1)]
    return PresentedModule(ring, free.gen_weights, rels)


def _constructed_bases():
    """(module, how it was built) for modules whose relation_gb construction
    fixes: direct sums, cokernels of surjections onto a module's generators,
    and shifts."""
    split = split_edge(EdgeGraph(("a", "b", "e")), "e")
    ring = EdgeRing(split.split_graph.edges)
    tame = tame_partitions(AlwaysTame(), split.split_graph)
    rng = random.Random("constructed-bases")
    out = []
    for k in range(12):
        roots = [random_certificate(rng, tame, 2).root for _ in range(2)]
        mods = [_random_module(rng, ring, rng.randint(1, 3)) for _ in range(2)] + roots
        parts = rng.sample(mods, rng.randint(2, 3))
        if k % 3 == 0:
            parts.insert(rng.randint(0, len(parts)), PresentedModule.zero(ring))
        total, _, projs = direct_sum(parts)
        out.append((total, "direct_sum"))
        for proj in projs:
            out.append((gradedmod._coker(proj), "direct_sum projection"))
            out.append((gradedmod._coker(induced_map_f0(proj, split.e, split.e_prime)), "f0 of a projection"))
        _, q_proj = cokernel(ModuleMap(PresentedModule.free(ring, [1]), total, [random_homogeneous_element(rng, total, 1)]))
        out.append((gradedmod._coker(q_proj), "cokernel projection"))
        out.append((gradedmod._coker(induced_map_f0(q_proj, split.e, split.e_prime)), "f0 of a projection"))
        for s in (1, 2, 3):
            out.append((parts[-1].shift(s), "shift"))
    return out


def test_seeded_relation_bases_match_a_groebner_run():
    cases = _constructed_bases()
    seeded = [m._cache.get("gb") for m, _ in cases]
    assert all(gb is not None for gb, (_, how) in zip(seeded, cases) if how != "shift")
    # most direct sums hold a basis element spread over several positions
    sums = [gb for gb, (_, how) in zip(seeded, cases) if how == "direct_sum"]
    assert sum(any(len({t[1] & FIELD for t in g.terms}) > 1 for g in gb) for gb in sums) > len(sums) // 2
    gbs = [m.relation_gb() for m, _ in cases]
    _clear_l1_caches()
    for (m, how), gb in zip(cases, gbs):
        fresh = PresentedModule(m.ring, m.gen_weights, m.relations)
        assert gb == groebner(list(fresh.relations), module=fresh.free_cover), how


def _counting_buchberger(monkeypatch):
    calls = []
    fn = exactalg._buchberger

    def counting(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(exactalg, "_buchberger", counting)
    return calls


def _summands():
    split = split_edge(EdgeGraph(("a", "b", "e")), "e")
    ring = EdgeRing(split.split_graph.edges)
    rng = random.Random("summands")
    one_block = make_partition(split.split_graph.edges, [split.split_graph.edges])
    parts = [_random_module(rng, ring, 2), partition_module(one_block).shift(1)]
    assert all(m.relations for m in parts)
    return parts


def test_direct_sum_basis_runs_no_groebner(monkeypatch):
    _clear_l1_caches()
    parts = _summands()
    for m in parts:
        m.relation_gb()
    calls = _counting_buchberger(monkeypatch)
    total = direct_sum(parts)[0]
    assert total.relation_gb() and not total.is_zero()
    assert calls == []


def test_cokernel_of_a_projection_runs_no_groebner(monkeypatch):
    _clear_l1_caches()
    _, _, projs = direct_sum(_summands())
    calls = _counting_buchberger(monkeypatch)
    assert all(gradedmod._coker(p).is_zero() and p.is_epi() for p in projs)
    assert calls == []


def test_a_shift_shares_the_groebner_run():
    _clear_l1_caches()
    m = _summands()[0]
    gb = m.relation_gb()
    shifted = m.shift(2)
    assert [g.terms for g in shifted.relation_gb()] == [g.terms for g in gb]
    info = exactalg._groebner_raw.cache_info()
    assert (info.misses, info.hits) == (1, 1)
