"""Command-line surface: functor computations, certificate operations, and the
randomized property harness.

Exit codes: 0 success, 1 mathematical verification failure, 2 validation
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CertificateError, ResourceCapError, ValidationError
from .gradedmod import f0, f1
from .graphsplit import EdgeGraph, check_enum_size, check_merge_closure, predicate_from_config, split_edge
from .serre import MAX_LEVEL, harness, transform, verify
from .workspace import Workspace, module_to_json

# Most rows a functor's Hilbert table may hold: the output's size.
MAX_HILBERT_ROWS = 1 << 16


def _weight_bound(args, module) -> int:
    bound = args.weight_bound
    if bound is None:
        return max(module.gen_weights, default=0) + 5
    if bound < 0:
        raise ValidationError(f"the weight bound must not be negative, got {bound}")
    return bound


def _split_edges(ws: Workspace, args, ring) -> tuple[str, str]:
    e = args.split or ws.split
    if not e:
        raise ValidationError("no split edge: pass --split or set \"split\" in the workspace")
    e_prime = e + "'"
    for name in (e, e_prime):
        if name not in ring.variables:
            raise ValidationError(f"split edge {name!r} is not a variable of the module ring")
    return e, e_prime


def _predicate(ws: Workspace, spec: str | None):
    if spec:
        return predicate_from_config(spec)
    if ws.predicate is not None:
        return ws.predicate
    raise ValidationError("no predicate: pass --pred or set \"predicate\" in the workspace")


def cmd_functor(args) -> int:
    ws = Workspace.load(args.infile)
    module = ws.module(args.module)
    e, e_prime = _split_edges(ws, args, module.ring)
    out_mod = f0(module, e, e_prime) if args.degree == 0 else f1(module, e, e_prime)
    bound = _weight_bound(args, out_mod)
    if bound >= MAX_HILBERT_ROWS:
        raise ResourceCapError(
            f"a Hilbert table to weight {bound} has {bound + 1} rows, over the cap of {MAX_HILBERT_ROWS}"
        )
    doc = {
        "degree": args.degree,
        "module": module_to_json(out_mod),
        "hilbert": {str(w): out_mod.hilbert_function(w) for w in range(bound + 1)},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote degree-{args.degree} presentation of {args.module} to {args.out}")
    return 0


def cmd_cert(args) -> int:
    ws = Workspace.load(args.infile)
    cert = ws.certificate(args.cert)
    if args.action == "level":
        print(cert.level)
        return 0
    if args.action == "verify":
        pred = _predicate(ws, args.pred)
        result = verify(cert, pred)
        print(f"certificate {args.cert}: {result}")
        return 0 if result else 1
    # transform
    pred_split = _predicate(ws, args.pred)
    pred_base = predicate_from_config(args.base_pred) if args.base_pred else pred_split
    e, e_prime = _split_edges(ws, args, cert.root.ring)
    out_cert = transform(cert, e, e_prime, args.degree, pred_split=pred_split, pred_base=pred_base)
    out_ws = Workspace(graph=ws.graph, split=ws.split, predicate=pred_base)
    out_id = f"{args.cert}_f{args.degree}"
    out_ws.intern_certificate(out_id, out_cert)
    out_ws.dump(args.out)
    print(
        f"transformed {args.cert} (degree {args.degree}) -> {out_id}; "
        f"output verifies under {pred_base.describe()}; wrote {args.out}"
    )
    return 0


def _harness_graph(args) -> EdgeGraph:
    if args.graph:
        return EdgeGraph(tuple(args.graph.split(",")))
    n = args.edges
    if n is None:
        raise ValidationError("harness needs --edges or --graph")
    if n < 1:
        raise ValidationError("harness needs at least one edge")
    check_enum_size(n + 1)  # the split graph's partitions, before any name is built
    names = [chr(ord("a") + i) for i in range(min(n, 26))]
    names += [f"x{i}" for i in range(max(0, n - 26))]
    return EdgeGraph(tuple(names))


def cmd_harness(args) -> int:
    pred_split = predicate_from_config(args.pred)
    pred_base = predicate_from_config(args.base_pred) if args.base_pred else pred_split
    graph = _harness_graph(args)
    target = args.split or graph.edges[0]
    split = split_edge(graph, target)
    closure = check_merge_closure(pred_split, pred_base, split)
    reports = harness(
        split,
        pred_split,
        pred_base,
        samples=args.samples,
        seed=args.seed,
        max_level=args.max_level,
        jobs=args.jobs,
    )
    failed = [r for r in reports if not r.passed]
    doc = {
        "graph": list(graph.edges),
        "split": target,
        "predicate": pred_split.describe(),
        "base_predicate": pred_base.describe(),
        "seed": args.seed,
        "samples": args.samples,
        "merge_closure": {
            "passed": closure.passed,
            "checked": closure.checked,
            "counterexample": None
            if closure.counterexample is None
            else {
                "partition": [list(b) for b in closure.counterexample.blocks],
                "merged": [list(b) for b in closure.merged.blocks],
            },
        },
        "failures": len(failed),
        "reports": [r.to_json() for r in reports],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed or not closure.passed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamemod",
        description="Exact-arithmetic engine for graded edge-ring modules, "
        "edge-contraction functors, and tameness certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fun = sub.add_parser("functor", help="compute a degree-0 or degree-1 functor presentation")
    p_fun.add_argument("--in", dest="infile", required=True, help="workspace JSON file")
    p_fun.add_argument("--module", required=True, help="module id in the workspace")
    p_fun.add_argument("--split", help="split edge name (defaults to the workspace's)")
    p_fun.add_argument("--degree", type=int, choices=(0, 1), required=True)
    p_fun.add_argument("--out", required=True, help="output JSON file")
    p_fun.add_argument("--weight-bound", type=int, help=f"Hilbert table bound: the table holds weights 0..bound, at most {MAX_HILBERT_ROWS} rows (default: the output's highest generator weight + 5)")
    p_fun.set_defaults(func=cmd_functor)

    p_cert = sub.add_parser("cert", help="verify, transform, or measure certificates")
    p_cert.add_argument("action", choices=("verify", "transform", "level"))
    p_cert.add_argument("--in", dest="infile", required=True)
    p_cert.add_argument("--cert", required=True, help="certificate id in the workspace")
    p_cert.add_argument("--degree", type=int, choices=(0, 1), default=0)
    p_cert.add_argument("--split", help="split edge name (defaults to the workspace's)")
    p_cert.add_argument("--pred", help="predicate override, e.g. max-blocks:2")
    p_cert.add_argument("--base-pred", help="base-graph predicate override")
    p_cert.add_argument("--out", help="output workspace (transform only)")
    p_cert.set_defaults(func=cmd_cert)

    p_h = sub.add_parser("harness", help="randomized O/Q/S/E property checks")
    p_h.add_argument("--edges", type=int, help="number of edges of the base graph")
    p_h.add_argument("--graph", help="explicit comma-separated edge names")
    p_h.add_argument("--split", help="edge to split (defaults to the first)")
    p_h.add_argument("--pred", required=True, help="predicate, e.g. always-true or max-blocks:2")
    p_h.add_argument("--base-pred", help="base predicate if different (adversarial pairs)")
    p_h.add_argument("--samples", type=int, default=16)
    p_h.add_argument("--seed", type=int, default=0)
    p_h.add_argument("--jobs", type=int, default=1)
    p_h.add_argument("--max-level", type=int, default=2, help=f"deepest random certificate, at most {MAX_LEVEL} (exit 3 above it)")
    p_h.add_argument("--out", help="write the JSON report here instead of stdout")
    p_h.set_defaults(func=cmd_harness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cert" and args.action == "transform" and not args.out:
        print("error: cert transform needs --out", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ResourceCapError, RecursionError) as exc:
        # a RecursionError is an input nested deeper than the interpreter's stack
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
