"""JSON workspace format: graphs, predicates, partitions, modules, maps, and
certificates, cross-referenced by id.

Rationals are serialized as "num/den" strings (plain "num" when the
denominator is 1) so round-trips stay exact; terms are emitted in the
canonical monomial order, making serialization deterministic.  A coefficient
is read back from a JSON integer or from a string of an optional sign and
decimal digits, optionally followed by "/" and decimal digits; nothing else,
so no decimal point or exponent, is a rational here.

A map is written as the matrix that ModuleMap derives from its columns (entry
[i][j]: the coefficient of target generator i in the image of source generator
j) and read back through ModuleMap.from_matrix, which builds the columns.

A certificate is one object per node, tagged with its "kind", a key of
serre.KINDS.  A Gen node gives its partition id and shift, a Zero node its
ring's variables.  Every other node nests each child certificate under the
name of that child part, and gives each witness map by its map id under the
name of that witness part, as the node's class declares them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .exactalg import EdgeRing, FreeElement, FreeModule, GradedPoly
from .gradedmod import ModuleMap, PresentedModule
from .graphsplit import EdgeGraph, TamenessPredicate, predicate_from_config
from .partition import Partition, make_partition
from .serre import KINDS, Certificate, GenNode, ZeroNode


_REQUIRED = object()
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, kind, where):
    """value when it has the JSON type kind; ValidationError naming where otherwise.

    JSON booleans are never valid here, although Python counts them as ints.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{where} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _get(data, key, kind, where, default=_REQUIRED):
    """data[key] checked by _typed; a missing key is an error unless a default is given."""
    _typed(data, dict, where)
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError(f"{where} is missing {key!r}")
        return default
    return _typed(data[key], kind, f"{where}.{key}")


def _get_list(data, key, kind, where, default=_REQUIRED):
    """data[key] as an array whose items all have the JSON type kind."""
    items = _get(data, key, list, where, default)
    for i, item in enumerate(items):
        _typed(item, kind, f"{where}.{key}[{i}]")
    return items


def _coeff_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


# the strings _coeff_str writes; Fraction alone also takes decimal points and
# exponents, and expands "1e100000000" exactly, at a cost that grows with the exponent
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coeff_parse(s, where) -> tuple[int, int]:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValidationError(f"{where} must be a rational string, got {type(s).__name__}")
    try:
        if isinstance(s, str) and not _RATIONAL.fullmatch(s):
            raise ValueError(s)
        frac = Fraction(s)
    except (ValueError, ZeroDivisionError):
        # s is a string of any length, so only its head is quoted
        raise ValidationError(f"{where} is not a rational number: {s[:40]!r} ({len(s)} characters)") from None
    return frac.numerator, frac.denominator


def _term_to_json(ring: EdgeRing, pos, expo, num, den, with_gen: bool):
    mono = {v: e for v, e in zip(ring.variables, expo) if e}
    out = {"c": _coeff_str(num, den), "m": mono}
    if with_gen:
        out["g"] = pos
    return out


def _term_from_json(ring: EdgeRing, data, with_gen: bool, where: str):
    _typed(data, dict, where)
    if "c" not in data:
        raise ValidationError(f"{where} is missing 'c'")
    num, den = _coeff_parse(data["c"], f"{where}.c")
    expo = [0] * ring.nvars
    for v, e in _get(data, "m", dict, where, {}).items():
        if _typed(e, int, f"{where}.m.{v}") < 0:
            raise ValidationError(f"{where}.m.{v} must not be negative, got {e}")
        expo[ring.index(v)] = e
    pos = _get(data, "g", int, where, 0) if with_gen else 0
    return (pos, tuple(expo), num, den)


def poly_to_json(p: GradedPoly) -> list:
    return [_term_to_json(p.ring, *t, with_gen=False) for t in p.ring.packing.unpack(p.terms)]


def poly_from_json(ring: EdgeRing, data, where: str = "poly") -> GradedPoly:
    raw = [_term_from_json(ring, t, False, f"{where}[{i}]") for i, t in enumerate(_typed(data, list, where))]
    return GradedPoly(ring, ring.packing.build(raw))


def free_to_json(x: FreeElement) -> list:
    return [_term_to_json(x.ring, *t, with_gen=True) for t in x.module.packing.unpack(x.terms)]


def free_from_json(module: FreeModule, data, where: str = "element") -> FreeElement:
    raw = []
    for i, t in enumerate(_typed(data, list, where)):
        term = _term_from_json(module.ring, t, True, f"{where}[{i}]")
        if not 0 <= term[0] < module.rank:
            raise ValidationError(f"generator index {term[0]} out of range")
        raw.append(term)
    return FreeElement(module, module.packing.build(raw))


def module_to_json(m: PresentedModule) -> dict:
    return {
        "ring": list(m.ring.variables),
        "gen_weights": list(m.gen_weights),
        "relations": [free_to_json(r) for r in m.relations],
    }


def module_from_json(data) -> PresentedModule:
    where = "module"
    ring = EdgeRing(tuple(_get_list(data, "ring", str, where)))
    weights = tuple(_get_list(data, "gen_weights", int, where))
    free = FreeModule(ring, weights)
    relations = _get(data, "relations", list, where, [])
    rels = [free_from_json(free, r, f"{where}.relations[{i}]") for i, r in enumerate(relations)]
    return PresentedModule(ring, weights, rels)


def partition_to_json(p: Partition) -> dict:
    return {"ground": list(p.ground), "blocks": [list(b) for b in p.blocks]}


def partition_from_json(data, where: str = "partition") -> Partition:
    ground = _get_list(data, "ground", str, where)
    blocks = _get_list(data, "blocks", list, where)
    for i, block in enumerate(blocks):
        for j, edge in enumerate(block):
            _typed(edge, str, f"{where}.blocks[{i}][{j}]")
    return make_partition(ground, blocks)


def map_to_json(phi: ModuleMap, module_ids: dict) -> dict:
    return {
        "source": module_ids[phi.source],
        "target": module_ids[phi.target],
        "degree": phi.degree,
        "matrix": [[poly_to_json(entry) for entry in row] for row in phi.matrix],
    }


def map_from_json(data, modules: dict, map_id: str) -> ModuleMap:
    where = f"map {map_id!r}"
    ends = {}
    for key in ("source", "target"):
        mid = _get(data, key, str, where)
        if mid not in modules:
            raise ValidationError(f"{where} references unknown module {mid!r}")
        ends[key] = modules[mid]
    target = ends["target"]
    matrix = [
        [poly_from_json(target.ring, entry, f"{where}.matrix[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(_get_list(data, "matrix", list, where))
    ]
    degree = _get(data, "degree", int, where, 0)
    return ModuleMap.from_matrix(ends["source"], target, matrix, degree)


def cert_to_json(cert: Certificate, partition_ids: dict, map_ids: dict) -> dict:
    if KINDS.get(cert.kind) is not type(cert):
        raise ValidationError(f"cannot serialize certificate node {cert!r}")
    if isinstance(cert, GenNode):
        return {
            "kind": "gen",
            "partition": partition_ids[cert.partition],
            "shift": cert.shift,
        }
    if isinstance(cert, ZeroNode):
        return {"kind": "zero", "ring": list(cert.ring.variables)}
    out = {"kind": cert.kind}
    for name in cert.child_parts:
        out[name] = cert_to_json(getattr(cert, name), partition_ids, map_ids)
    for name in cert.witness_parts:
        out[name] = map_ids[getattr(cert, name)]
    return out


def cert_from_json(data, partitions: dict, maps: dict, cert_id: str) -> Certificate:
    where = f"certificate {cert_id!r}"
    kind = _get(data, "kind", str, where)
    if kind == "gen":
        pid = _get(data, "partition", str, where)
        if pid not in partitions:
            raise ValidationError(f"{where} references unknown partition {pid!r}")
        return GenNode(partitions[pid], _get(data, "shift", int, where, 0))
    if kind == "zero":
        return ZeroNode(EdgeRing(tuple(_get_list(data, "ring", str, where))))
    if kind not in KINDS:
        raise ValidationError(f"{where} has unknown kind {kind!r}")
    node = KINDS[kind]
    # witness ids are checked before any child is parsed
    witnesses = []
    for key in node.witness_parts:
        wid = _get(data, key, str, where)
        if wid not in maps:
            raise ValidationError(f"{where} references unknown map {wid!r}")
        witnesses.append(maps[wid])
    children = []
    for key in node.child_parts:
        children.append(cert_from_json(_get(data, key, dict, where), partitions, maps, cert_id))
    return node(*children, *witnesses)


@dataclass
class Workspace:
    """In-memory view of a workspace file."""

    graph: EdgeGraph | None = None
    split: str | None = None
    predicate: TamenessPredicate | None = None
    partitions: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    # the set of each table's values, by id prefix, kept by _intern
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- access with validation ----------------------------------------

    def module(self, mid: str) -> PresentedModule:
        if mid not in self.modules:
            raise ValidationError(f"unknown module id {mid!r}")
        return self.modules[mid]

    def certificate(self, cid: str) -> Certificate:
        if cid not in self.certificates:
            raise ValidationError(f"unknown certificate id {cid!r}")
        return self.certificates[cid]

    # -- building -------------------------------------------------------

    def intern_certificate(self, cid: str, cert: Certificate):
        """Add a certificate, interning its partitions, modules and maps."""
        self.certificates[cid] = cert
        self._intern_nodes(cert)

    def _intern_nodes(self, cert: Certificate):
        if isinstance(cert, GenNode):
            self._intern(self.partitions, "P", cert.partition)
        for phi in cert.witnesses():
            self._intern(self.modules, "M", phi.source)
            self._intern(self.modules, "M", phi.target)
            self._intern(self.maps, "w", phi)
        for child in cert.children():
            self._intern_nodes(child)

    def _intern(self, table: dict, prefix: str, value) -> None:
        """Add value to table, unless it is there, under the id prefix + n,
        n the first index at or above the table's count whose id is free.

        A table with the ids prefix0 .. prefix(count - 1) gets the next one,
        and a table holding other ids keeps every entry it has.  Membership
        is looked up in a set of the table's values, so n values cost O(n)
        hashes, not O(n^2) comparisons.  The set is built from the table when
        it is first needed, and again when the table's size has changed
        other than here."""
        values = self._values.get(prefix)
        if values is None or len(values) != len(table):
            values = self._values[prefix] = set(table.values())
        if value not in values:
            values.add(value)
            n = len(table)
            while f"{prefix}{n}" in table:
                n += 1
            table[f"{prefix}{n}"] = value

    # -- (de)serialization ----------------------------------------------

    def to_json(self) -> dict:
        out: dict = {}
        if self.graph is not None:
            out["graph"] = list(self.graph.edges)
        if self.split is not None:
            out["split"] = self.split
        if self.predicate is not None:
            out["predicate"] = {"name": self.predicate.name, **self.predicate.params()}
        out["partitions"] = {k: partition_to_json(p) for k, p in self.partitions.items()}
        out["modules"] = {k: module_to_json(m) for k, m in self.modules.items()}
        module_ids = {m: k for k, m in self.modules.items()}
        out["maps"] = {k: map_to_json(f, module_ids) for k, f in self.maps.items()}
        partition_ids = {p: k for k, p in self.partitions.items()}
        map_ids = {f: k for k, f in self.maps.items()}
        out["certificates"] = {
            k: cert_to_json(c, partition_ids, map_ids) for k, c in self.certificates.items()
        }
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Workspace":
        ws = cls()
        where = "workspace"
        _typed(data, dict, where)
        if "graph" in data:
            ws.graph = EdgeGraph(tuple(_get_list(data, "graph", str, where)))
        ws.split = _get(data, "split", str, where, None)
        if "predicate" in data:
            ws.predicate = predicate_from_config(data["predicate"])
        for k, p in _get(data, "partitions", dict, where, {}).items():
            ws.partitions[k] = partition_from_json(p, f"partition {k!r}")
        for k, m in _get(data, "modules", dict, where, {}).items():
            try:
                ws.modules[k] = module_from_json(m)
            except ValidationError as exc:
                raise ValidationError(f"module {k!r}: {exc}") from exc
        for k, f in _get(data, "maps", dict, where, {}).items():
            ws.maps[k] = map_from_json(f, ws.modules, k)
        for k, c in _get(data, "certificates", dict, where, {}).items():
            ws.certificates[k] = cert_from_json(c, ws.partitions, ws.maps, k)
        return ws

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Workspace":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                # JSONDecodeError, bytes that are not UTF-8, and an integer
                # past the interpreter's digit limit
                raise ValidationError(f"not valid JSON: {exc}") from exc
        return cls.from_json(data)
