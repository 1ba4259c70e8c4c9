"""Command-line front end.

Every subcommand produces a Report (a plain dict): the command, an input
digest, the results with witnesses as RREF row lists, the timing, and the
seed/guard settings.  Witnesses re-verify through the library.  Exit
codes: 0 ok, 2 parse error (malformed file or argument), 3 guard exceeded,
4 verification failure, 5 input error (well-formed input outside a
command's domain, such as a disconnected graph for `quantum`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import io as formats
from .altspace import (is_isotropic, max_rank_bruteforce, nondegenerate_part,
                       radical_space, degree)
from .bipartite import (adjoint_algebra, alpha_bipartite,
                        block_space_from_bipartite,
                        decomposition_from_hyperbolic,
                        hyperbolic_idempotent_search, ncrk_brute,
                        ncrk_pad_square, two_decomposition_via_adjoint)
from .errors import (DEFAULT_GUARD, Guard, GuardExceeded, ParseError,
                     VerificationError)
from .ffield import PrimeField, Subspace, all_vectors, gaussian_binomial
from .gadgets import (baer_generators, dim2_gadget, group_closure,
                      right_degree_min, singular_exists_brute)
from .graphs import (coloring_from_decomposition,
                     independent_set_from_isotropic, is_bipartite_bfs,
                     space_from_graph)
from .isotropic import (alpha_exact, chi_brute, chi_lawler, chi_maxcover,
                        enumerate_maximal_branch, enumerate_maximal_filter,
                        greedy_deg_decomposition, greedy_maximal,
                        has_isotropic_dim2, isotropic_count_formula,
                        validate_decomposition)
from .quantum import (channel_from_graph, decide_iso_2_decomposition,
                      fidelity_pure, period)


def _read(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(sub: Subspace):
    return [list(r) for r in sub.basis_rows()]


def _field(p) -> PrimeField:
    try:
        return PrimeField(p)
    except (TypeError, ValueError) as e:
        raise ParseError(str(e))


def _subspace(field, n, rows) -> Subspace:
    """The span of witness rows from the command line or a report."""
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == n and all(isinstance(x, int) for x in r)
            for r in rows):
        raise ParseError(f"witness rows {rows!r} are not lists of {n} integers")
    return Subspace.from_vectors(field, n, rows)


def _parse_rows(text: str, field, n) -> Subspace:
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            try:
                rows.append([int(x) for x in part.split()])
            except ValueError:
                raise ParseError(f"witness row {part!r} is not a list of integers")
    return _subspace(field, n, rows)


def _load_space(args):
    text = _read(args.file)
    return formats.parse_space(text), _digest(text)


def _load_graph(args):
    text = _read(args.file)
    return formats.parse_graph(text), _digest(text)


def _load_mats(args):
    text = _read(args.file)
    return formats.parse_mats(text), _digest(text)


def cmd_alpha(args, guard):
    space, dig = _load_space(args)
    a, wit = alpha_exact(space, guard=guard)
    if not is_isotropic(space, wit) or wit.dim != a:
        raise VerificationError("alpha witness failed re-verification")
    return dig, {"alpha": a, "witness": _rows(wit), "field": space.field.p,
                 "n": space.n, "method": args.method}


def cmd_chi(args, guard):
    space, dig = _load_space(args)
    if args.method == "brute":
        c, parts = chi_brute(space, guard=guard)
    elif args.method == "lawler":
        c, parts = chi_lawler(space, guard=guard)
    else:
        c = chi_maxcover(space, guard=guard)
        parts = None
    res = {"chi": c, "field": space.field.p, "n": space.n, "method": args.method}
    if parts is not None:
        validate_decomposition(space, parts)
        res["parts"] = [_rows(u) for u in parts]
    return dig, res


def cmd_maximal(args, guard):
    space, dig = _load_space(args)
    if args.method == "filter":
        out = enumerate_maximal_filter(space, guard=guard)
    else:
        out = enumerate_maximal_branch(space, guard=guard)
    res = {"count": len(out), "field": space.field.p, "n": space.n,
           "method": args.method,
           "dimensions": sorted(u.dim for u in out)}
    if args.list:
        res["spaces"] = sorted((_rows(u) for u in out))
    return dig, res


def cmd_decompose(args, guard):
    space, dig = _load_space(args)
    if args.method == "greedy-deg":
        parts = greedy_deg_decomposition(space)
    else:
        _, parts = chi_lawler(space, guard=guard)
    validate_decomposition(space, parts)
    return dig, {"parts": [_rows(u) for u in parts], "count": len(parts),
                 "field": space.field.p, "n": space.n, "method": args.method}


def cmd_from_graph(args, guard):
    g, dig = _load_graph(args)
    field = _field(args.field)
    space = space_from_graph(g, field)
    return dig, {"space": formats.emit_space(space), "dim": space.dim,
                 "field": field.p, "n": space.n}


def cmd_to_graph_witness(args, guard):
    g, dig = _load_graph(args)
    text = _read(args.report)
    try:
        report = json.loads(text)
    except ValueError as e:
        raise ParseError(f"report {args.report} is not JSON: {e}")
    results = report.get("results", {}) if isinstance(report, dict) else None
    if not isinstance(results, dict):
        raise ParseError("report carries no 'results' object")
    field = _field(results.get("field", args.field))
    if "parts" in results:
        parts = results["parts"]
        if not isinstance(parts, list):
            raise ParseError("report 'parts' is not a list")
        parts = [_subspace(field, g.n, rows) for rows in parts]
        blocks = coloring_from_decomposition(g, parts)
        return dig, {"coloring": [[v + 1 for v in b] for b in blocks],
                     "count": len(blocks), "field": field.p}
    if "witness" in results:
        u = _subspace(field, g.n, results["witness"])
        verts = independent_set_from_isotropic(g, u)
        return dig, {"independent_set": [v + 1 for v in verts],
                     "size": len(verts), "field": field.p}
    raise ParseError("report carries neither 'witness' nor 'parts'")


def cmd_ncrk(args, guard):
    b, dig = _load_mats(args)
    res = {"ncrk": ncrk_brute(b, guard=guard), "s": b.s, "t": b.t,
           "dim": b.dim, "field": b.field.p}
    if args.pad:
        if b.s >= b.t:
            raise ParseError("--pad needs s < t")
        c = ncrk_pad_square(b)
        res["padded_ncrk"] = ncrk_brute(c, guard=guard)
        res["padded_dim"] = c.dim
    return dig, res


def cmd_alpha_bipartite(args, guard):
    space, dig = _load_space(args)
    if args.u1 and args.u2:
        u1 = _parse_rows(args.u1, space.field, space.n)
        u2 = _parse_rows(args.u2, space.field, space.n)
    else:
        pair = two_decomposition_via_adjoint(space, guard=guard)
        if pair is None:
            raise VerificationError("space is not bipartite (no isotropic "
                                    "2-decomposition found); give --u1/--u2")
        u1, u2 = pair
    a, wit = alpha_bipartite(space, u1, u2, guard=guard)
    b = block_space_from_bipartite(space, u1, u2)
    return dig, {"alpha": a, "witness": _rows(wit), "ncrk": space.n - a,
                 "block_shape": [b.s, b.t], "field": space.field.p, "n": space.n}


def cmd_adjoint(args, guard):
    space, dig = _load_space(args)
    rad = radical_space(space)
    reduced = nondegenerate_part(space)[0] if rad.dim else space
    adj = adjoint_algebra(reduced)
    res = {"dim": adj.dim, "ambient": adj.n, "field": space.field.p,
           "reduced_from_radical_dim": rad.dim}
    if args.find_hyperbolic:
        p = hyperbolic_idempotent_search(adj, guard=guard)
        if p is None:
            res["hyperbolic_idempotent"] = None
        else:
            res["hyperbolic_idempotent"] = p.row_list()
            pair = decomposition_from_hyperbolic(space, p)
            res["decomposition"] = None if pair is None else [_rows(u) for u in pair]
    return dig, res


def cmd_dim2(args, guard):
    space, dig = _load_space(args)
    ok, wit = has_isotropic_dim2(space, guard=guard)
    res = {"has_isotropic_dim2": ok, "field": space.field.p, "n": space.n}
    if ok:
        v, w = wit
        u = Subspace.from_vectors(space.field, space.n, [v, w])
        if u.dim != 2 or not is_isotropic(space, u):
            raise VerificationError("dim-2 witness failed re-verification")
        res["witness"] = _rows(u)
    return dig, res


def cmd_gadget_dim2(args, guard):
    text = _read(args.file)
    field, mats = formats.parse_mats_tuple(text)
    dig = _digest(text)
    if not mats or mats[0].rows != len(mats):
        raise ParseError("gadget input must be n matrices of shape n x m")
    gadget = dim2_gadget(mats)
    rdeg = right_degree_min(mats, guard=guard)
    ok, _ = has_isotropic_dim2(gadget, guard=guard)
    n = len(mats)
    if (rdeg < n) != ok:
        raise VerificationError("gadget equivalence failed")
    return dig, {"right_degree_min": rdeg, "slice_count": n,
                 "gadget_ambient": gadget.n, "gadget_dim": gadget.dim,
                 "has_isotropic_dim2": ok, "field": field.p}


def cmd_singular_exists(args, guard):
    b, dig = _load_mats(args)
    wit = singular_exists_brute(b, guard=guard)
    res = {"exists": wit is not None, "s": b.s, "t": b.t, "field": b.field.p}
    if wit is not None:
        res["witness"] = wit.row_list()
        res["witness_rank"] = wit.rank()
    return dig, res


def cmd_baer(args, guard):
    space, dig = _load_space(args)
    gens = baer_generators(space.basis)
    res = {"generator_count": len(gens), "degree": 1 + space.n + space.dim,
           "field": space.field.p}
    if args.verify:
        closure = group_closure(gens, guard=guard)
        comm = closure.commutator_subgroup(guard=guard)
        res["order"] = closure.order
        res["expected_order"] = space.field.p ** (space.n + space.dim)
        res["abelian"] = closure.is_abelian()
        res["commutator_order"] = comm.order
        res["max_abelian_order"] = closure.max_abelian_order_brute(guard=guard)
    return dig, res


def cmd_quantum(args, guard):
    g, dig = _load_graph(args)
    ch = channel_from_graph(g)
    if args.what == "period":
        return dig, {"period": period(ch), "n": ch.n, "kraus": len(ch.kraus)}
    if args.what == "decide2":
        return dig, {"iso_2_decomposition": decide_iso_2_decomposition(ch),
                     "period": period(ch), "n": ch.n}
    try:
        state = [float(x) for x in args.state.split()]
    except ValueError:
        raise ParseError(f"--state {args.state!r} is not a list of numbers")
    if len(state) != ch.n:
        raise ParseError(f"--state has {len(state)} entries, the graph has {ch.n} vertices")
    import math
    norm = math.sqrt(sum(x * x for x in state))
    if norm == 0:
        raise ParseError("--state must be nonzero")
    state = [x / norm for x in state]
    return dig, {"fidelity": fidelity_pure(ch, state), "n": ch.n,
                 "state": state}


def cmd_count(args, guard):
    if args.q < 2:
        raise ParseError(f"need q >= 2, got q={args.q}")
    count = gaussian_binomial if args.what == "gaussian" else isotropic_count_formula
    val = count(args.n, args.d, args.q)
    return "-", {"value": str(val), "n": args.n, "d": args.d, "q": args.q,
                 "what": args.what}


def cmd_stats(args, guard):
    space, dig = _load_space(args)
    degs = {}
    for v in all_vectors(space.field, space.n, guard=guard, nonzero=True):
        d = degree(space, v)
        degs[d] = degs.get(d, 0) + 1
    gm = greedy_maximal(space)
    return dig, {"n": space.n, "dim": space.dim, "field": space.field.p,
                 "radical_dim": radical_space(space).dim,
                 "max_degree": max(degs, default=0),
                 "degree_histogram": {str(k): v for k, v in sorted(degs.items())},
                 "max_rank": max_rank_bruteforce(space, guard=guard),
                 "greedy_maximal_dim": gm.dim}


def _global_options(ap, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument("--seed", type=int,
                    default=d if suppress else 0,
                    help="seed recorded in reports")
    ap.add_argument("--guard", type=int,
                    default=d if suppress else DEFAULT_GUARD,
                    help="iteration budget for enumerations")
    ap.add_argument("--field", type=int,
                    default=d if suppress else 2,
                    help="prime p for commands that build spaces from graphs")
    ap.add_argument("--json", action="store_true",
                    default=d if suppress else False,
                    help="emit the full JSON report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isospace",
        description="Exact computations with isotropic spaces of alternating "
                    "matrix spaces over prime fields")
    _global_options(ap, suppress=False)
    # the same options are accepted after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("alpha", cmd_alpha, help="isotropic number with witness")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--method", choices=["lattice"], default="lattice")

    sp = add("chi", cmd_chi, help="isotropic decomposition number")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--method", choices=["brute", "lawler", "maxcover"],
                    default="maxcover")

    sp = add("maximal", cmd_maximal, help="enumerate maximal isotropic spaces")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--method", choices=["filter", "branch"], default="filter")
    sp.add_argument("--list", action="store_true")

    sp = add("decompose", cmd_decompose, help="produce an isotropic decomposition")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--method", choices=["greedy-deg", "lawler"],
                    default="greedy-deg")

    sp = add("from-graph", cmd_from_graph, help="build A_G from a graph file")
    sp.add_argument("-f", "--file", required=True)

    sp = add("to-graph-witness", cmd_to_graph_witness,
             help="recover an independent set or coloring from a report")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--report", required=True)

    sp = add("ncrk", cmd_ncrk, help="non-commutative rank (brute force)")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--pad", action="store_true",
                    help="also pad to square and re-compute")

    sp = add("alpha-bipartite", cmd_alpha_bipartite,
             help="alpha via the non-commutative rank of the block space")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--u1", help="semicolon-separated basis rows")
    sp.add_argument("--u2", help="semicolon-separated basis rows")

    sp = add("adjoint", cmd_adjoint, help="adjoint algebra dimension")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--find-hyperbolic", action="store_true")

    sp = add("dim2", cmd_dim2, help="decide an isotropic space of dimension 2")
    sp.add_argument("-f", "--file", required=True)

    sp = add("gadget-dim2", cmd_gadget_dim2,
             help="right-degree gadget and its dim-2 question")
    sp.add_argument("-f", "--file", required=True)

    sp = add("singular-exists", cmd_singular_exists,
             help="nonzero singular member of a square matrix space")
    sp.add_argument("-f", "--file", required=True)

    sp = add("baer", cmd_baer, help="Baer group generators from a space")
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--verify", action="store_true",
                    help="close the group and verify orders")

    sp = add("quantum", cmd_quantum, help="graph channel computations")
    sp.add_argument("what", choices=["period", "decide2", "fidelity"])
    sp.add_argument("-f", "--file", required=True)
    sp.add_argument("--state", default="", help="state vector for fidelity")

    sp = add("count", cmd_count, help="exact counting formulas")
    sp.add_argument("what", choices=["gaussian", "iso-formula"])
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("q", type=int)

    sp = add("stats", cmd_stats, help="radical, degrees, max degree, max rank")
    sp.add_argument("-f", "--file", required=True)

    return ap


def run_command(argv) -> dict:
    """Execute one CLI invocation and return the Report dict."""
    ap = build_parser()
    args = ap.parse_args(argv)
    guard = Guard(args.guard)
    t0 = time.time()
    digest, results = args.fn(args, guard)
    report = {
        "command": args.command,
        "inputs": {"digest": digest},
        "results": results,
        "seed": args.seed,
        "guard": args.guard,
        "timing_ms": round((time.time() - t0) * 1000.0, 3),
    }
    return report


def _wants_json(argv) -> bool:
    return "--json" in argv


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        report = run_command(argv)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 5
    if _wants_json(argv):
        print(json.dumps(report, sort_keys=True))
    else:
        res = report["results"]
        if "space" in res:
            sys.stdout.write(res["space"])
        else:
            for k in sorted(res):
                print(f"{k}: {res[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
