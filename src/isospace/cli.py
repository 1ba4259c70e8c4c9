"""Command-line front end.

Every subcommand produces a Report (a plain dict): the command, an input
digest, the results with witnesses as RREF row lists, the timing, and the
seed/guard settings.  Witnesses re-verify through the library.  Exit
codes: 0 ok, 2 parse error (malformed file or argument), 3 guard exceeded,
4 verification failure, 5 input error (well-formed input outside a
command's domain, such as a disconnected graph for `quantum`), 6 output
error (stdout closed before the report was written), 7 memory error (the
process ran out of memory before the guard stopped the work).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import io as formats
from .altspace import (form_rows, is_isotropic, max_rank_bruteforce, nondegenerate_part,
                       rad_of, radical_space, validate_decomposition)
from .bipartite import (adjoint_algebra, alpha_bipartite,
                        decomposition_from_hyperbolic,
                        hyperbolic_idempotent_search, ncrk_brute,
                        ncrk_pad_square, two_decomposition_via_adjoint)
from .errors import (DEFAULT_GUARD, DecompositionError, Guard, GuardExceeded,
                     ParseError, VerificationError)
from .ffield import Matrix, PrimeField, Subspace, gaussian_binomial, projective_rows
from .gadgets import (baer_generators, dim2_gadget, group_closure,
                      right_degree_min, singular_exists_brute)
from .graphs import (coloring_from_decomposition,
                     independent_set_from_isotropic, space_from_graph)
from .isotropic import (alpha_exact, chi_brute, chi_lawler, chi_maxcover,
                        enumerate_maximal_branch, enumerate_maximal_filter,
                        greedy_deg_decomposition, greedy_maximal,
                        has_isotropic_dim2, isotropic_count_formula)
from .quantum import channel_from_graph, fidelity_pure, period


def _read(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(sub: Subspace):
    return [list(r) for r in sub.basis_rows()]


def _field(p) -> PrimeField:
    # a report's JSON may hold 3.7, "3" or true, which PrimeField would take
    if type(p) is not int:
        raise ParseError(f"field {p!r} is not an integer")
    try:
        return PrimeField(p)
    except ValueError as e:
        raise ParseError(str(e))


def _subspace(field, n, rows) -> Subspace:
    """The span of witness rows from the command line or a report, whose
    entries lie in [0, p) as a file's do."""
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == n and all(type(x) is int for x in r)
            for r in rows):
        raise ParseError(f"witness rows {rows!r} are not lists of {n} integers")
    bad = [x for r in rows for x in r if not 0 <= x < field.p]
    if bad:
        raise ParseError(f"witness entry {bad[0]} out of range [0, {field.p})")
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


def cmd_alpha(args, space, guard):
    a, wit = alpha_exact(space, guard=guard)
    if not is_isotropic(space, wit) or wit.dim != a:
        raise VerificationError("alpha witness failed re-verification")
    return {"alpha": a, "witness": _rows(wit), "field": space.field.p,
            "n": space.n, "method": args.method}


def cmd_chi(args, space, guard):
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
    return res


def cmd_maximal(args, space, guard):
    if args.method == "filter":
        out = enumerate_maximal_filter(space, guard=guard)
    else:
        out = enumerate_maximal_branch(space, guard=guard)
    for u in out:
        if not is_isotropic(space, u) or rad_of(space, u) != u:
            raise VerificationError("maximal space failed re-verification")
    res = {"count": len(out), "field": space.field.p, "n": space.n,
           "method": args.method,
           "dimensions": sorted(u.dim for u in out)}
    if args.list:
        res["spaces"] = sorted((_rows(u) for u in out))
    return res


def cmd_decompose(args, space, guard):
    if args.method == "greedy-deg":
        # the greedy passes take no guard, so their n^3 is required first
        guard.require(space.n ** 3)
        parts = greedy_deg_decomposition(space)
    else:
        _, parts = chi_lawler(space, guard=guard)
    validate_decomposition(space, parts)
    return {"parts": [_rows(u) for u in parts], "count": len(parts),
            "field": space.field.p, "n": space.n, "method": args.method}


def cmd_from_graph(args, g, guard):
    field = _field(args.field)
    # the space file holds one n x n block of residues per edge
    guard.require(len(g.edges) * g.n * g.n)
    space = space_from_graph(g, field)
    return {"space": formats.emit_space(space), "dim": space.dim,
            "field": field.p, "n": space.n}


def cmd_to_graph_witness(args, g, guard):
    text = _read(args.report)
    try:
        report = json.loads(text)
    except (ValueError, RecursionError) as e:   # RecursionError: nested too deep
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
        blocks = coloring_from_decomposition(g, parts, guard=guard)
        return {"coloring": [[v + 1 for v in b] for b in blocks],
                "count": len(blocks), "field": field.p}
    if "witness" in results:
        u = _subspace(field, g.n, results["witness"])
        verts = independent_set_from_isotropic(g, u)
        return {"independent_set": [v + 1 for v in verts],
                "size": len(verts), "field": field.p}
    raise ParseError("report carries neither 'witness' nor 'parts'")


def cmd_ncrk(args, b, guard):
    if args.pad and b.s >= b.t:
        raise ParseError("--pad needs s < t")
    res = {"ncrk": ncrk_brute(b, guard=guard), "s": b.s, "t": b.t,
           "dim": b.dim, "field": b.field.p}
    if args.pad:
        c = ncrk_pad_square(b)
        res["padded_ncrk"] = ncrk_brute(c, guard=guard)
        res["padded_dim"] = c.dim
    return res


def cmd_alpha_bipartite(args, space, guard):
    if bool(args.u1) != bool(args.u2):
        raise ParseError("--u1 and --u2 must be given together")
    if args.u1:
        u1 = _parse_rows(args.u1, space.field, space.n)
        u2 = _parse_rows(args.u2, space.field, space.n)
    else:
        pair = two_decomposition_via_adjoint(space, guard=guard)
        if pair is None:
            raise ValueError("space is not bipartite (no isotropic "
                             "2-decomposition found); give --u1/--u2")
        u1, u2 = pair
    try:
        a, wit = alpha_bipartite(space, u1, u2, guard=guard)
    except DecompositionError as e:
        # blocks that are no isotropic 2-decomposition are input outside the
        # command's domain; alpha_bipartite validates the pair before its scan
        raise ValueError(str(e)) from None
    return {"alpha": a, "witness": _rows(wit), "ncrk": space.n - a,
            "block_shape": [u1.dim, u2.dim], "field": space.field.p,
            "n": space.n}


def cmd_adjoint(args, space, guard):
    part, comp, rad = nondegenerate_part(space)
    adj = adjoint_algebra(part, guard=guard)
    res = {"dim": adj.dim, "ambient": adj.n, "field": space.field.p,
           "reduced_from_radical_dim": rad.dim}
    if args.find_hyperbolic:
        p = hyperbolic_idempotent_search(adj, guard=guard)
        if p is None:
            res["hyperbolic_idempotent"] = None
        else:
            res["hyperbolic_idempotent"] = p.row_list()
            pair = decomposition_from_hyperbolic(space, p, comp, rad)
            res["decomposition"] = None if pair is None else [_rows(u) for u in pair]
    return res


def cmd_dim2(args, space, guard):
    ok, wit = has_isotropic_dim2(space, guard=guard)
    res = {"has_isotropic_dim2": ok, "field": space.field.p, "n": space.n}
    if ok:
        v, w = wit
        u = Subspace.from_vectors(space.field, space.n, [v, w])
        if u.dim != 2 or not is_isotropic(space, u):
            raise VerificationError("dim-2 witness failed re-verification")
        res["witness"] = _rows(u)
    return res


def cmd_gadget_dim2(args, blocks, guard):
    field, mats = blocks
    if not mats or mats[0].rows != len(mats):
        raise ParseError("gadget input must be n matrices of shape n x m")
    gadget = dim2_gadget(mats)
    rdeg = right_degree_min(mats, guard=guard)
    ok, _ = has_isotropic_dim2(gadget, guard=guard)
    n = len(mats)
    if (rdeg < n) != ok:
        raise VerificationError("gadget equivalence failed")
    return {"right_degree_min": rdeg, "slice_count": n,
            "gadget_ambient": gadget.n, "gadget_dim": gadget.dim,
            "has_isotropic_dim2": ok, "field": field.p}


def cmd_singular_exists(args, b, guard):
    wit = singular_exists_brute(b, guard=guard)
    res = {"exists": wit is not None, "s": b.s, "t": b.t, "field": b.field.p}
    if wit is not None:
        res["witness"] = wit.row_list()
        res["witness_rank"] = wit.rank()
    return res


def cmd_baer(args, space, guard):
    gens = baer_generators(space.field, space.n, space.basis)
    res = {"generator_count": len(gens), "degree": 1 + space.n + space.dim,
           "field": space.field.p}
    if args.verify:
        # on F^0 there are no generators: the identity generates the same,
        # trivial, group
        closure = group_closure(gens or [Matrix.identity(space.field, res["degree"])],
                                guard=guard)
        comm = closure.commutator_subgroup(guard=guard)
        res["order"] = closure.order
        res["expected_order"] = space.field.p ** (space.n + space.dim)
        res["abelian"] = closure.is_abelian()
        res["commutator_order"] = comm.order
        res["max_abelian_order"] = closure.max_abelian_order_brute(guard=guard)
    return res


def cmd_quantum(args, g, guard):
    # 2|E| dense n x n Kraus operators; a fidelity is one batched product
    # over them, while a period builds the n^2 x n^2 channel matrix, one
    # product of 2|E| x n^2 operands (2|E| n^4 flops), and one dense
    # eigendecomposition of it, (n^2)^3 flops
    kraus = 2 * len(g.edges)
    if args.what == "fidelity":
        guard.require(2 * kraus * g.n**2)
    else:
        guard.require(kraus * g.n**2 + g.n**4 + (kraus * g.n**4 + g.n**6) // 10**3)
    ch = channel_from_graph(g)
    if args.what == "period":
        return {"period": period(ch), "n": ch.n, "kraus": len(ch.kraus)}
    if args.what == "decide2":
        per = period(ch)
        return {"iso_2_decomposition": per % 2 == 0, "period": per, "n": ch.n}
    try:
        state = [float(x) for x in args.state.split()]
    except ValueError:
        raise ParseError(f"--state {args.state!r} is not a list of numbers")
    if not all(map(math.isfinite, state)):
        raise ParseError(f"--state {args.state!r} has a non-finite entry")
    if len(state) != ch.n:
        raise ParseError(f"--state has {len(state)} entries, the graph has {ch.n} vertices")
    top = max(map(abs, state), default=0.0)
    if top == 0:
        raise ParseError("--state must be nonzero")
    state = [x / top for x in state]        # first, so that the norm cannot overflow
    norm = math.hypot(*state)
    state = [x / norm for x in state]
    return {"fidelity": fidelity_pure(ch, state), "n": ch.n,
            "state": state}


def _decimal(n: int) -> str:
    """The exact decimal digits of n >= 0, converted 1000 digits at a time,
    so that no conversion reaches the interpreter's limit on int-to-str
    digits."""
    block = 10**1000
    parts = []
    while n >= block:
        n, r = divmod(n, block)
        parts.append(str(r).zfill(1000))
    return str(n) + "".join(reversed(parts))


def cmd_count(args, _, guard):
    n, d, q = args.n, args.d, args.q
    if q < 2:
        raise ParseError(f"need q >= 2, got q={q}")
    gaussian = args.what == "gaussian"
    # The product loop and the decimal conversion both take time quadratic
    # in the size of the numerator, rounds * n * log2 q bits, where rounds
    # counts the factors that the formula multiplies (none outside its
    # domain, which stays an input error): one guard unit per (1000 bits)^2,
    # about a microsecond.
    top = n if gaussian else n // 2 if n % 2 == 0 else -1
    rounds = d if 0 <= d <= top else 0
    bits = rounds * n * q.bit_length()
    guard.require(bits * bits // 10**6)
    val = (gaussian_binomial if gaussian else isotropic_count_formula)(n, d, q)
    return {"value": _decimal(val), "n": n, "d": d, "q": q, "what": args.what}


def cmd_stats(args, space, guard):
    forms = form_rows(space)
    degs = {}
    # deg_A is constant on each line, which holds q - 1 nonzero vectors
    for v in projective_rows(space.field, space.n, guard=guard):
        d = forms.rank([v])
        degs[d] = degs.get(d, 0) + space.field.p - 1
    gm = greedy_maximal(space)
    return {"n": space.n, "dim": space.dim, "field": space.field.p,
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

    def add(name, fn, parse, **kw):
        """The subcommand's parser; parse reads its -f/--file (None: no file)."""
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(fn=fn, parse=parse)
        if parse is not None:
            sp.add_argument("-f", "--file", required=True)
        return sp

    sp = add("alpha", cmd_alpha, formats.parse_space, help="isotropic number with witness")
    sp.add_argument("--method", choices=["lattice"], default="lattice")

    sp = add("chi", cmd_chi, formats.parse_space, help="isotropic decomposition number")
    sp.add_argument("--method", choices=["brute", "lawler", "maxcover"],
                    default="maxcover")

    sp = add("maximal", cmd_maximal, formats.parse_space,
             help="enumerate maximal isotropic spaces")
    sp.add_argument("--method", choices=["filter", "branch"], default="filter")
    sp.add_argument("--list", action="store_true")

    sp = add("decompose", cmd_decompose, formats.parse_space,
             help="produce an isotropic decomposition")
    sp.add_argument("--method", choices=["greedy-deg", "lawler"],
                    default="greedy-deg")

    add("from-graph", cmd_from_graph, formats.parse_graph, help="build A_G from a graph file")

    sp = add("to-graph-witness", cmd_to_graph_witness, formats.parse_graph,
             help="recover an independent set or coloring from a report")
    sp.add_argument("--report", required=True)

    sp = add("ncrk", cmd_ncrk, formats.parse_mats, help="non-commutative rank (brute force)")
    sp.add_argument("--pad", action="store_true",
                    help="also pad to square and re-compute")

    sp = add("alpha-bipartite", cmd_alpha_bipartite, formats.parse_space,
             help="alpha via the non-commutative rank of the block space")
    sp.add_argument("--u1", help="semicolon-separated basis rows")
    sp.add_argument("--u2", help="semicolon-separated basis rows")

    sp = add("adjoint", cmd_adjoint, formats.parse_space, help="adjoint algebra dimension")
    sp.add_argument("--find-hyperbolic", action="store_true")

    add("dim2", cmd_dim2, formats.parse_space,
        help="decide an isotropic space of dimension 2")

    add("gadget-dim2", cmd_gadget_dim2, formats.parse_mats_tuple,
        help="right-degree gadget and its dim-2 question")

    add("singular-exists", cmd_singular_exists, formats.parse_mats,
        help="nonzero singular member of a square matrix space")

    sp = add("baer", cmd_baer, formats.parse_space, help="Baer group generators from a space")
    sp.add_argument("--verify", action="store_true",
                    help="close the group and verify orders")

    sp = add("quantum", cmd_quantum, formats.parse_graph, help="graph channel computations")
    sp.add_argument("what", choices=["period", "decide2", "fidelity"])
    sp.add_argument("--state", default="", help="state vector for fidelity")

    sp = add("count", cmd_count, None, help="exact counting formulas")
    sp.add_argument("what", choices=["gaussian", "iso-formula"])
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("q", type=int)

    add("stats", cmd_stats, formats.parse_space,
        help="radical, degrees, max degree, max rank")

    return ap


def run_command(argv) -> dict:
    """Execute one CLI invocation and return the Report dict."""
    return _report(build_parser().parse_args(argv))


def _report(args) -> dict:
    """Run the subcommand of parsed arguments and return the Report dict."""
    if args.guard < 0:
        raise ParseError(f"--guard must be >= 0, got {args.guard}")
    guard = Guard(args.guard)
    t0 = time.time()
    if args.parse is None:
        data, digest = None, "-"
    else:
        text = _read(args.file)
        data, digest = args.parse(text), _digest(text)
    results = args.fn(args, data, guard)
    report = {
        "command": args.command,
        "inputs": {"digest": digest},
        "results": results,
        "seed": args.seed,
        "guard": args.guard,
        "timing_ms": round((time.time() - t0) * 1000.0, 3),
    }
    return report


def _release(e: BaseException) -> str:
    """Drop the tracebacks of e and of the exceptions it chains, and with
    them the frames of the work and the memory they hold; returns e's
    message."""
    err = e
    while err is not None and err.__traceback__ is not None:
        err.__traceback__ = None
        err = err.__context__
    return str(e) or "out of memory"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = _report(args)
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
    except MemoryError as e:
        message = _release(e)
        print(f"memory error: {message} (try a lower --guard)", file=sys.stderr)
        return 7
    try:
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            res = report["results"]
            if "space" in res:
                sys.stdout.write(res["space"])
            else:
                for k in sorted(res):
                    print(f"{k}: {res[k]}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left in its buffer goes to
        # devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the report was written",
              file=sys.stderr)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
