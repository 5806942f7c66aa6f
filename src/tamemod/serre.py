"""Tameness certificates and the certificate transformer.

A certificate is a derivation tree witnessing membership in the Serre
subcategory generated by shifted partition modules: Gen leaves are the
generators, Sub/Quot/Ext nodes carry explicit module-map witnesses, and a
distinguished Zero leaf certifies the zero module.  verify() checks every
witness locally; transform() compiles a certificate over the split edge set
into certificates for both functor outputs over the contracted edge set,
recursing along a measure (degree, type level) that decreases lexicographically
on every call.  A node whose functor output is zero, leaf or inner, root or
not, is certified directly: the zero module lies in every Serre subcategory,
so it needs no derivation.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import CertificateError, ResourceCapError, StructuralError, ValidationError
from .exactalg import EdgeRing, FreeElement, normal_form
from .gradedmod import (
    ModuleMap,
    PresentedModule,
    ShortExactSequence,
    _prune,
    cokernel,
    connecting_map,
    direct_sum,
    exact_at,
    f0,
    f1,
    image,
    induced_map_f0,
    induced_map_f1,
    is_tame_support,
    kernel,
    pullback,
    quotient_by_elements,
    submodule_from_elements,
)
from .graphsplit import SplitResult, TamenessPredicate, tame_partitions
from .partition import Partition, merge_edges, partition_module


class Certificate:
    """Base node of a derivation tree; root is the presented module it certifies.

    A node kind names its parts once, as class attributes: data_parts (leaf
    values), child_parts (subcertificates) and witness_parts (module maps).
    A leaf's constructor takes its data; any other takes its children, then
    its witnesses, each in the order named.  Equality, hashing, children(),
    witnesses(), verify's walk and the workspace JSON all read these names.

    level is the type level, stored when the node is built: 0 for a leaf,
    1 + the children's maximum otherwise.
    """

    kind = "abstract"
    data_parts: tuple[str, ...] = ()
    child_parts: tuple[str, ...] = ()
    witness_parts: tuple[str, ...] = ()
    root: PresentedModule
    level = 0

    def children(self) -> tuple["Certificate", ...]:
        return tuple(getattr(self, name) for name in self.child_parts)

    def witnesses(self) -> tuple[ModuleMap, ...]:
        return tuple(getattr(self, name) for name in self.witness_parts)

    def _parts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.data_parts + self.child_parts + self.witness_parts)

    def __eq__(self, other):
        # one part at a time with ==, which spends one level of the recursion
        # limit per level of a chain; comparing tuples or using != spends two
        if type(other) is not type(self):
            return False
        for mine, theirs in zip(self._parts(), other._parts()):
            if not mine == theirs:
                return False
        return True

    def __hash__(self):
        return hash((self.kind, self._parts()))

    def __repr__(self):
        return f"<{self.kind} certificate, level {self.level}, root rank {self.root.rank}>"


class GenNode(Certificate):
    """Leaf for a partition module shifted by shift.  Its root is
    partition_module(partition, shift), so every leaf of one partition and
    shift shares one module, with the relation basis stored at construction
    and the Hilbert numerator and diagonal read off it once."""

    kind = "gen"
    data_parts = ("partition", "shift")

    def __init__(self, partition: Partition, shift: int = 0):
        self.partition = partition
        self.shift = int(shift)
        self.root = partition_module(partition, self.shift)


class ZeroNode(Certificate):
    """Distinguished leaf for the zero module, valid under every predicate."""

    kind = "zero"
    data_parts = ("ring",)

    def __init__(self, ring: EdgeRing):
        self.ring = ring
        self.root = PresentedModule.zero(ring)


class SubNode(Certificate):
    kind = "sub"
    child_parts = ("parent",)
    witness_parts = ("witness",)

    def __init__(self, parent: Certificate, witness: ModuleMap):
        if not witness.target.same_presentation(parent.root):
            raise StructuralError("sub witness does not land in the parent's root")
        self.parent = parent
        self.witness = witness
        self.root = witness.source
        self.level = parent.level + 1


class QuotNode(Certificate):
    kind = "quot"
    child_parts = ("parent",)
    witness_parts = ("witness",)

    def __init__(self, parent: Certificate, witness: ModuleMap):
        if not witness.source.same_presentation(parent.root):
            raise StructuralError("quot witness does not start at the parent's root")
        self.parent = parent
        self.witness = witness
        self.root = witness.target
        self.level = parent.level + 1


class ExtNode(Certificate):
    """Extension 0 -> left -> root -> right -> 0 with both witness maps."""

    kind = "ext"
    child_parts = ("left", "right")
    witness_parts = ("injection", "projection")

    def __init__(self, left: Certificate, right: Certificate, injection: ModuleMap, projection: ModuleMap):
        if not injection.source.same_presentation(left.root):
            raise StructuralError("extension injection does not start at the left root")
        if not projection.target.same_presentation(right.root):
            raise StructuralError("extension projection does not end at the right root")
        if not projection.source.same_presentation(injection.target):
            raise StructuralError("extension witnesses disagree on the middle module")
        self.left = left
        self.right = right
        self.injection = injection
        self.projection = projection
        self.root = injection.target
        self.level = max(left.level, right.level) + 1


# Every node kind, by its JSON name; a Certificate subclass outside it is
# rejected by verify and by the workspace serializer.
KINDS: dict[str, type[Certificate]] = {cls.kind: cls for cls in (ZeroNode, GenNode, SubNode, QuotNode, ExtNode)}


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    path: tuple[str, ...] = ()
    reason: str | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass"
        where = "/".join(self.path) if self.path else "<root>"
        return f"fail at {where}: {self.reason}"


def verify(c: Certificate, pred: TamenessPredicate, _path: tuple = ()) -> VerifyResult:
    """Step-local verification of every node.

    Children are verified first, in the order of child_parts, and a failure
    is reported at the path of child part names that leads to it.  Gen needs
    a tame partition; Sub needs an injective witness; Quot a surjective one;
    Ext an exact pair.  Structural mismatches raise StructuralError (they are
    certificate construction bugs, not mathematical failures)."""
    if KINDS.get(c.kind) is not type(c):
        raise StructuralError(f"unknown certificate node {c!r}")
    for name in c.child_parts:
        inner = verify(getattr(c, name), pred, _path + (name,))
        if not inner:
            return inner
    if isinstance(c, GenNode) and not pred(c.partition):
        return VerifyResult(False, _path, f"partition {c.partition} is not tame")
    if isinstance(c, SubNode) and not c.witness.is_mono():
        return VerifyResult(False, _path, "sub witness is not injective")
    if isinstance(c, QuotNode) and not c.witness.is_epi():
        return VerifyResult(False, _path, "quot witness is not surjective")
    if isinstance(c, ExtNode):
        if not c.injection.is_mono():
            return VerifyResult(False, _path, "extension injection is not injective")
        if not c.projection.is_epi():
            return VerifyResult(False, _path, "extension projection is not surjective")
        if not exact_at(c.injection, c.projection):
            return VerifyResult(False, _path, "extension is not exact in the middle")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# The transformer


def transform(
    c: Certificate,
    e: str,
    e_prime: str,
    degree: int,
    pred_split: TamenessPredicate | None = None,
    pred_base: TamenessPredicate | None = None,
) -> Certificate:
    """Certificate for the degree-0 or degree-1 functor output of c's root.

    The result's root has the same presentation as f0/f1 of the input root and
    verifies under the base predicate whenever the input verifies under the
    split predicate and the pair satisfies merge closure.  The kernels and
    pullbacks the recursion builds for its internal nodes are pruned
    (gradedmod._prune), so they may have fewer generators than kernel and
    pullback give; roots are never pruned.  At every node, root and leaves
    included, a zero output is certified directly, with no recursion under
    it, as 0 lies in every Serre subcategory: F0(M) = 0 exactly when M = 0
    (graded Nakayama), and F1(M) = 0 exactly when f1 presents it on no
    generator (_zero_output).  The rules below a node therefore see only
    nonzero outputs; a zero witness of a nonzero submodule, which no valid
    input has, raises CertificateError.  The recursion terminates: the pair
    (degree, level) decreases lexicographically along each recursion
    edge.
    """
    if degree not in (0, 1):
        raise ValidationError("degree must be 0 or 1")
    if pred_split is not None:
        res = verify(c, pred_split)
        if not res:
            raise CertificateError(f"input certificate does not verify: {res}", res)
    out = _transform(c, e, e_prime, degree)
    if pred_base is not None:
        res = verify(out, pred_base)
        if not res:
            raise CertificateError(f"transformed certificate does not verify: {res}", res)
    return out


def _zero_cert_for(presentation: PresentedModule) -> Certificate:
    """Certificate for a zero module given by a possibly non-empty presentation."""
    if presentation.rank == 0:
        return ZeroNode(presentation.ring)
    zn = ZeroNode(presentation.ring)
    return QuotNode(zn, ModuleMap.zero_map(zn.root, presentation))


def _zero_output(m: PresentedModule, e, e_prime, i) -> Certificate | None:
    """A certificate for F_i(m) when it is the zero module, else None.

    _transform asks this first at every node, so one rule certifies every
    zero output: of a Zero leaf, of a Gen leaf in degree 1 whose e and e' lie
    in different blocks (e - e' is then a non-zero-divisor), and of any inner
    node.  The output root keeps f_i(m)'s presentation.

    F0(M) = M/(e - e')M is zero exactly when M is, by graded Nakayama, as
    e - e' has weight 1.  F1(M) is zero exactly when f1 presents it on no
    generator: torsion_data's kgens are nonzero classes, and it finds none
    by its read-off or by counting, with no syzygies.
    """
    if i == 0:
        return _zero_cert_for(f0(m, e, e_prime)) if m.is_zero() else None
    out = f1(m, e, e_prime)
    return None if out.rank else _zero_cert_for(out)


def _transform(c, e, e_prime, i) -> Certificate:
    if KINDS.get(c.kind) is not type(c):
        raise StructuralError(f"unknown certificate node {c!r}")
    zero = _zero_output(c.root, e, e_prime, i)
    if zero is not None:
        return zero
    if isinstance(c, GenNode):
        return GenNode(merge_edges(c.partition, e, e_prime), c.shift)
    if isinstance(c, QuotNode):
        return _via_quot(c.parent, c.witness, e, e_prime, i)
    if isinstance(c, ExtNode):
        return _via_ext(c.left, c.right, c.injection, c.projection, e, e_prime, i)
    return _via_sub(c, e, e_prime, i)


def _via_quot(parent: Certificate, pi: ModuleMap, e, e_prime, i) -> Certificate:
    # parent certifies B; pi : B ->> C.
    if i == 0:
        # F0 is right exact, so F0(C) is a quotient of F0(B) directly.
        cb0 = _transform(parent, e, e_prime, 0)
        return QuotNode(cb0, induced_map_f0(pi, e, e_prime))
    # F1(B) -> F1(C) -> F0(K) exact: F1(C) is an extension of a quotient of
    # F1(B) by a subobject of F0(K), where K = ker(pi) is itself a subobject
    # of B.  The recursion drops to (1, level-1) and (0, level).
    (kappa,) = _pruned_source(kernel(pi)[1])
    cb1 = _transform(parent, e, e_prime, 1)
    ck0 = _transform(SubNode(parent, kappa), e, e_prime, 0)
    pi1 = induced_map_f1(pi, e, e_prime)
    img = image(pi1)
    q2_mod, q2 = cokernel(img.inclusion)
    delta = connecting_map(ShortExactSequence(kappa, pi), e, e_prime)
    dbar = ModuleMap(q2_mod, delta.target, delta.columns, delta.degree, check=True)
    return ExtNode(QuotNode(cb1, img.projection), SubNode(ck0, dbar), img.inclusion, q2)


def _via_ext(left: Certificate, right: Certificate, inj: ModuleMap, proj: ModuleMap, e, e_prime, i) -> Certificate:
    if i == 0:
        cl0 = _transform(left, e, e_prime, 0)
        cr0 = _transform(right, e, e_prime, 0)
        inj0 = induced_map_f0(inj, e, e_prime)
        proj0 = induced_map_f0(proj, e, e_prime)
        img = image(inj0)
        return ExtNode(QuotNode(cl0, img.projection), cr0, img.inclusion, proj0)
    cl1 = _transform(left, e, e_prime, 1)
    cr1 = _transform(right, e, e_prime, 1)
    inj1 = induced_map_f1(inj, e, e_prime)
    proj1 = induced_map_f1(proj, e, e_prime)
    q_mod, q = cokernel(inj1)
    pbar = ModuleMap(q_mod, proj1.target, proj1.columns, proj1.degree, check=True)
    return ExtNode(cl1, SubNode(cr1, pbar), inj1, q)


def _via_sub(c: SubNode, e, e_prime, i) -> Certificate:
    parent = c.parent
    iota = c.witness
    if isinstance(parent, ZeroNode):
        # S is not zero here (_transform certified that case), and a nonzero
        # S has no injective witness into 0
        raise CertificateError("nonzero submodule of the zero module; the input certificate cannot be valid")
    if isinstance(parent, GenNode):
        return _sub_of_gen(c, e, e_prime, i)
    if isinstance(parent, SubNode):
        # S <= B <= B': recurse on the composite inclusion into B'
        composite = parent.witness.compose(iota)
        return _transform(SubNode(parent.parent, composite), e, e_prime, i)
    if isinstance(parent, QuotNode):
        # pull the subobject back along the surjection to a subobject of the
        # smaller-type module, then treat S as a quotient of the pullback
        to_first, to_second = _pruned_pullback(iota, parent.witness)
        inner = SubNode(parent.parent, to_second)
        return _via_quot(inner, to_first, e, e_prime, i)
    if isinstance(parent, ExtNode):
        # intersect with the left part and project to the right part:
        # 0 -> S&L -> S -> S/(S&L) -> 0 with S&L <= L and S/(S&L) <= R
        p_to_s, p_to_l = _pruned_pullback(iota, parent.injection)
        sp_mod, q = cokernel(p_to_s)
        through = parent.projection.compose(iota)
        jbar = ModuleMap(sp_mod, through.target, through.columns, through.degree, check=True)
        new_left = SubNode(parent.left, p_to_l)
        new_right = SubNode(parent.right, jbar)
        return _via_ext(new_left, new_right, p_to_s, q, e, e_prime, i)
    raise StructuralError(f"unknown parent node {parent!r}")


def _pruned_source(*maps: ModuleMap) -> tuple[ModuleMap, ...]:
    """The maps, all out of one module, restricted to the generators that
    gradedmod._prune keeps, so out of its pruned presentation."""
    m, kept = _prune(maps[0].source)
    if m is maps[0].source:
        return maps
    return tuple(ModuleMap(m, f.target, [f.columns[j] for j in kept], f.degree, check=False) for f in maps)


def _pruned_pullback(f: ModuleMap, g: ModuleMap) -> tuple[ModuleMap, ModuleMap]:
    """The pullback's maps to f's and g's sources, out of its pruned presentation."""
    pb = pullback(f, g)
    return _pruned_source(pb.to_first, pb.to_second)


def _direct_sum_cert(c1: Certificate, c2: Certificate) -> ExtNode:
    total, injs, projs = direct_sum([c1.root, c2.root])
    return ExtNode(c1, c2, injs[0], projs[1])


def _sub_of_gen(c: SubNode, e, e_prime, i) -> Certificate:
    parent: GenNode = c.parent
    iota = c.witness
    s_mod = c.root
    if i == 1:
        # F1 is left exact: F1(S) includes into F1(Z[P]), which the Gen rule
        # already handles.  F1(S) is not zero here (_transform certified that
        # case), so a zero F1(Z[P]) means the witness is not injective.
        c1 = _transform(parent, e, e_prime, 1)
        if isinstance(c1, ZeroNode):
            raise CertificateError(
                "nonzero torsion inside a torsion-free generator; "
                "the input certificate cannot be valid"
            )
        w1 = induced_map_f1(iota, e, e_prime)
        return SubNode(c1, w1)
    # i == 0: Noetherian cyclic decomposition.  Each generator x_j of S spans
    # a cyclic submodule isomorphic to a shift of Z[P], so F0(S) is a quotient
    # of a direct sum of shifted merged partition modules.
    merged = merge_edges(parent.partition, e, e_prime)
    gb = parent.root.relation_gb()
    kept = [j for j, col in enumerate(iota.columns) if not normal_form(col, gb).is_zero()]
    if not kept:
        # S is not zero here (_transform certified that case), and a zero
        # witness of a nonzero S is not injective
        raise CertificateError("zero witness of a nonzero submodule; the input certificate cannot be valid")
    f0s = f0(s_mod, e, e_prime)
    pieces = [GenNode(merged, s_mod.gen_weights[j]) for j in kept]
    dcert = pieces[0]
    for nxt in pieces[1:]:
        dcert = _direct_sum_cert(dcert, nxt)
    theta = ModuleMap(dcert.root, f0s, [f0s.gen(j) for j in kept], 0, check=True)
    return QuotNode(dcert, theta)


# ---------------------------------------------------------------------------
# Random certificates and the property harness


# Random certificates shift a generator by at most MAX_SHIFT, draw witness
# elements of weight at most the least generator weight plus EXTRA_WEIGHT, and
# have at most MAX_LEVEL levels: an Ext node builds both children, so the
# expected node count grows as (4/3)^level.
MAX_SHIFT = 1
EXTRA_WEIGHT = 2
MAX_LEVEL = 12


@lru_cache(maxsize=None)
def _monomials(total: int, n: int) -> tuple:
    """All exponent tuples of length n summing to total."""
    if n == 0:
        return ((),) if total == 0 else ()
    if n == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _monomials(total - first, n - 1):
            out.append((first,) + rest)
    return tuple(out)


def random_homogeneous_element(rng: random.Random, m: PresentedModule, weight: int) -> FreeElement:
    """Sparse random element of the free cover, homogeneous of the given weight."""
    free = m.free_cover
    raw = []
    for pos, w in enumerate(m.gen_weights):
        d = weight - w
        if d < 0:
            continue
        for expo in _monomials(d, m.ring.nvars):
            if rng.random() < 0.5:
                coeff = rng.choice((-2, -1, 1, 2))
                raw.append((pos, expo, coeff, 1))
    return FreeElement(free, free.packing.build(raw))


def _random_elements(rng, m, count):
    if m.rank == 0:
        return []
    base = min(m.gen_weights)
    return [
        random_homogeneous_element(rng, m, base + rng.randint(0, EXTRA_WEIGHT))
        for _ in range(count)
    ]


def random_certificate(
    rng: random.Random,
    tame_list: Sequence[Partition],
    max_level: int,
) -> Certificate:
    """Random certificate over the common ground set of tame_list.

    Bounded so the Groebner work stays interactive: levels <= max_level <=
    MAX_LEVEL (above it, ResourceCapError before any draw), witness elements
    of weight at most min generator weight + EXTRA_WEIGHT.  A Quot step
    presents no submodule, so it runs no syzygies.
    """
    if not tame_list:
        raise ValidationError("need at least one tame partition to seed certificates")
    if max_level < 0:
        raise ValidationError(f"max_level must be non-negative, got {max_level}")
    if max_level > MAX_LEVEL:
        raise ResourceCapError(f"max_level {max_level} exceeds the cap of {MAX_LEVEL}")
    ring = EdgeRing(tame_list[0].ground)

    def build(level: int) -> Certificate:
        if level <= 0:
            if rng.random() < 0.08:
                return ZeroNode(ring)
            return GenNode(rng.choice(list(tame_list)), rng.randint(0, MAX_SHIFT))
        kind = rng.choice(("sub", "quot", "ext"))
        if kind == "ext":
            return _direct_sum_cert(build(level - 1), build(level - 1))
        parent = build(level - 1)
        m = parent.root
        if m.rank == 0:
            return parent
        elems = _random_elements(rng, m, rng.randint(1, 2))
        if kind == "sub":
            return SubNode(parent, submodule_from_elements(m, elems)[1])
        return QuotNode(parent, quotient_by_elements(m, elems)[1])

    return build(rng.randint(0, max_level))


PROPERTY_CYCLE = (("O", 0), ("O", 1), ("Q", 0), ("Q", 1), ("S", 0), ("S", 1), ("E", 0), ("E", 1))


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one harness sample against one property clause."""

    prop: str
    degree: int
    sample: int
    description: str
    passed: bool
    counterexample: str | None = None

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "degree": self.degree,
            "sample": self.sample,
            "description": self.description,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _harness_sample(args) -> PropertyReport:
    idx, seed, split, pred_split, pred_base, max_level = args
    rng = random.Random(f"{seed}:{idx}")
    prop, deg = PROPERTY_CYCLE[idx % len(PROPERTY_CYCLE)]
    tame_split = tame_partitions(pred_split, split.split_graph)
    tame_base = tame_partitions(pred_base, split.base_graph)
    if not tame_split:
        return PropertyReport(prop, deg, idx, "no tame partitions on the split graph", True)
    cert = random_certificate(rng, tame_split, max_level)
    m = cert.root
    if prop == "Q":
        m = quotient_by_elements(m, _random_elements(rng, m, 1))[0]
        desc = "quotient of a certified module"
    elif prop == "S":
        elems = _random_elements(rng, m, 1)
        if m.rank:
            m, _ = submodule_from_elements(m, elems)
        desc = "submodule of a certified module"
    elif prop == "E":
        other = random_certificate(rng, tame_split, max_level)
        m = direct_sum([m, other.root])[0]
        desc = "extension of two certified modules"
    else:
        desc = "certified module"
    target = f0(m, split.e, split.e_prime) if deg == 0 else f1(m, split.e, split.e_prime)
    ok = is_tame_support(target, tame_base)
    counter = None if ok else f"{prop}({deg}) sample {idx}: {target!r}"
    return PropertyReport(prop, deg, idx, f"{prop}({deg}): {desc}", ok, counter)


def harness(
    split: SplitResult,
    pred_split: TamenessPredicate,
    pred_base: TamenessPredicate,
    samples: int,
    seed: int,
    max_level: int = 2,
    jobs: int = 1,
) -> tuple[PropertyReport, ...]:
    """Randomized check of the O/Q/S/E property clauses on functor outputs.

    Deterministic for a fixed seed regardless of jobs: each sample derives its
    own RNG stream from (seed, index) and results are merged in index order.
    """
    _check_counts(samples, jobs)
    tasks = [(i, seed, split, pred_split, pred_base, max_level) for i in range(samples)]
    return tuple(_map_tasks(_harness_sample, tasks, jobs))


def _check_counts(samples: int, jobs: int):
    if samples < 0:
        raise ValidationError(f"samples must be non-negative, got {samples}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over tasks, in order, on at most `jobs` worker processes.

    The pool never has more workers than cores or tasks; with one worker the
    tasks run in this process.  Workers are spawned, each a fresh interpreter
    that imports fn's module, since a fork of a process that has threads can
    deadlock.
    """
    jobs = min(jobs, os.cpu_count() or 1, len(tasks))
    if jobs <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# End-to-end transform corpus (soundness sweep over random certificates)


def transform_roundtrip(
    cert: Certificate,
    e: str,
    e_prime: str,
    pred_base: TamenessPredicate,
    tame_base: Sequence[Partition],
) -> dict:
    """Transform one certificate in both degrees and record every check:
    output verification, root-presentation agreement with the functor, and the
    support oracle on both outputs."""
    out = {"level": cert.level}
    for i in (0, 1):
        res = transform(cert, e, e_prime, i)
        ver = verify(res, pred_base)
        functor = f0(cert.root, e, e_prime) if i == 0 else f1(cert.root, e, e_prime)
        out[f"verified_{i}"] = bool(ver)
        out[f"root_matches_{i}"] = res.root.same_presentation(functor)
        out[f"support_tame_{i}"] = is_tame_support(res.root, list(tame_base))
    out["ok"] = all(v for k, v in out.items() if k != "level")
    return out


def _corpus_sample(args) -> dict:
    idx, seed, split, pred, max_level = args
    rng = random.Random(f"{seed}:corpus:{idx}")
    tame_split = tame_partitions(pred, split.split_graph)
    tame_base = tame_partitions(pred, split.base_graph)
    cert = random_certificate(rng, tame_split, max_level)
    row = {"sample": idx, "predicate": pred.describe()}
    ver_in = verify(cert, pred)
    row["input_verified"] = bool(ver_in)
    row["input_support_tame"] = is_tame_support(cert.root, list(tame_split))
    row.update(transform_roundtrip(cert, split.e, split.e_prime, pred, tame_base))
    row["ok"] = row["ok"] and row["input_verified"] and row["input_support_tame"]
    return row


def transform_corpus(
    split: SplitResult,
    pred: TamenessPredicate,
    samples: int,
    seed: int,
    max_level: int = 3,
    jobs: int = 1,
) -> list[dict]:
    """Seeded random-certificate corpus run end to end through the transformer.

    Row order and content are deterministic for a fixed seed regardless of the
    worker count."""
    _check_counts(samples, jobs)
    tasks = [(i, seed, split, pred, max_level) for i in range(samples)]
    return _map_tasks(_corpus_sample, tasks, jobs)
