"""The four benchmark workloads.

Each workload turns a seeded random.Random into blocks of instances.  A
block holds a fixed count of every stratum, so the work in a block barely
depends on the seed; the seed only picks the members.  `run` is the timed
part of one instance, `check` compares its answers with independent oracles
outside the timing and returns (ok, answer values for the digest).
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache


@dataclass
class Instance:
    q: int           # the field, for f2_inst_per_s / f3_inst_per_s
    stratum: str
    data: tuple


def fresh_import():
    """Import the isospace package anew, so set-up pays its import cost.

    numpy stays loaded: a C extension cannot be initialised twice.
    """
    for name in [m for m in sys.modules if m == "isospace" or m.startswith("isospace.")]:
        del sys.modules[name]
    iso = importlib.import_module("isospace")
    importlib.import_module("isospace.io")
    importlib.import_module("isospace.cli")
    return iso


# --------------------------------------------------------------- generators

def random_alternating(iso, rng, field, n):
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(field.p)
            ent[i][j] = v
            ent[j][i] = (-v) % field.p
    return iso.Matrix.from_rows(field, ent)


def random_space(iso, rng, field, n, dim):
    """A uniformly drawn alternating space of exactly the given dimension."""
    while True:
        sp = iso.AltMatrixSpace.from_generators(
            field, n, [random_alternating(iso, rng, field, n) for _ in range(dim)])
        if sp.dim == dim:
            return sp


def random_matrix_space(iso, rng, field, s, t, dim):
    while True:
        mats = [iso.Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(t)]
                                            for _ in range(s)]) for _ in range(dim)]
        b = iso.bipartite.MatrixSpace.from_generators(field, s, t, mats)
        if b.dim == dim:
            return b


def random_graph(iso, rng, n, m):
    """A graph on n vertices with exactly m edges, uniformly drawn."""
    return iso.Graph(n, rng.sample(list(itertools.combinations(range(n), 2)), m))


@lru_cache(maxsize=None)
def graph_classes(n):
    """One edge list per isomorphism class of graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, out = set(), []
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        canon = min(tuple(sorted(tuple(sorted((pm[a], pm[b]))) for a, b in edges))
                    for pm in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def relabel(iso, rng, n, edges):
    perm = rng.sample(range(n), n)
    return iso.Graph(n, [(perm[a], perm[b]) for a, b in edges])


def coordinate_split(iso, field, s, t):
    n = s + t
    unit = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    return (iso.Subspace.from_vectors(field, n, unit[:s]),
            iso.Subspace.from_vectors(field, n, unit[s:]))


def is_independent(g, verts):
    edges = set(g.edges)
    return all((a, b) not in edges and (b, a) not in edges
               for a, b in itertools.combinations(verts, 2))


# Row reduction of four fixed 8x10 matrices over F_3: the same kind of
# pure-Python work as the library's (list comprehensions mod p, tuples, a
# dict), so a busy host slows both alike; a tight integer loop tracked the
# library only half as well.
REF_MATRICES = [[[(i * 7 + j * 5 + k) % 3 for j in range(10)] for i in range(8)]
                for k in range(4)]


def reference_slice_ms():
    t0 = time.perf_counter()
    seen = {}
    for rep in range(20):
        for m in REF_MATRICES:
            rows = [r[:] for r in m]
            r = 0
            for c in range(10):
                piv = next((i for i in range(r, 8) if rows[i][c]), -1)
                if piv < 0:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                if rows[r][c] != 1:
                    rows[r] = [(2 * x) % 3 for x in rows[r]]
                prow = rows[r]
                for i in range(8):
                    if i != r and rows[i][c]:
                        f = rows[i][c]
                        rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], prow)]
                r += 1
            seen[tuple(map(tuple, rows)), rep] = r
    return (time.perf_counter() - t0) * 1000.0


class Workload:
    name = ""
    # the host reference (run.HostClock): its time on the reference host,
    # and how many are timed per second of a timed call
    REF_NOMINAL_MS = 3.0
    REF_PER_S = 10

    def reference_ms(self):
        return reference_slice_ms()

    def bind(self, iso):
        self.iso = iso
        self.F = {2: iso.PrimeField(2), 3: iso.PrimeField(3)}

    def block(self, rng, k):
        raise NotImplementedError

    def warm_up(self, block):
        """Run one small instance of the block untimed (the WARM stratum)."""
        inst = next(i for i in block if i.stratum == self.WARM)
        self.check(inst, self.run(inst, self.iso.Guard()))

    def in_process(self, inst, guard):
        """The timed call as the traced run makes it: in this process."""
        return self.run(inst, guard)

    def trace_extra(self):
        """Per-layer metrics that do not come from spans."""
        return {}


# ------------------------------------------------------------- graph-bridge

class GraphBridge(Workload):
    """Criterion 01: alpha(A_G) = alpha(G) and chi(A_G) = chi(G)."""

    name = "graph-bridge"
    WARM = "F2 n=3 m=1"
    # edge counts per vertex count: the central values of G(n, 1/2); the edge
    # count, not only n, sets the size of the isotropic lattice
    EDGES = {2: (0, 1), 3: (1, 2), 4: (2, 3, 4), 5: (3, 4, 5, 6, 7),
             6: (5, 6, 7, 8, 9, 10)}
    # F_3 stops at n = 5: on 6 vertices chi_brute takes 0.3 to 4.5 s for the
    # one graph in twenty with chi(G) = 4, so their count would set the result
    MAX_N = {2: 6, 3: 5}

    def block(self, rng, k):
        out = [Instance(q, f"F{q} n={n} m={m}", (random_graph(self.iso, rng, n, m),))
               for q in (2, 3) for n, ms in self.EDGES.items() if n <= self.MAX_N[q]
               for m in ms]
        rng.shuffle(out)
        return out

    def run(self, inst, guard):
        iso = self.iso
        (g,) = inst.data
        sp = iso.space_from_graph(g, self.F[inst.q])
        a, wit = iso.alpha_exact(sp, guard=guard)
        c, parts = iso.chi_brute(sp, guard=guard)
        iset = iso.independent_set_from_isotropic(g, wit)
        coloring = iso.coloring_from_decomposition(g, parts)
        return a, c, iset, coloring

    def check(self, inst, res):
        (g,) = inst.data
        a, c, iset, coloring = res
        ok = (a == self.iso.graph_alpha_brute(g) and c == self.iso.graph_chi_brute(g)
              and len(iset) == a and is_independent(g, iset)
              and len(coloring) == c and all(is_independent(g, b) for b in coloring)
              and sorted(v for b in coloring for v in b) == list(range(g.n)))
        return ok, (a, c)


# ------------------------------------------------------------ chi-decompose

class ChiDecompose(Workload):
    """Criteria 04 and 05: the chi oracles and the two maximal enumerations."""

    name = "chi-decompose"
    WARM = "F2 graph n=3"
    # (q, n, dimensions) of the random alternating spaces
    SPACES = ((2, 4, (1, 2, 3, 4)), (3, 4, (1, 2, 3, 4)), (2, 5, (1, 2, 3, 4, 5, 6)))
    # (q, n): every isomorphism class once per block, randomly labelled.
    # F_3 stops at n = 4: F_3 graph spaces on 5 vertices cost 20 ms to 5 s
    # each by class, more than one run can average.
    GRAPHS = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4))

    def block(self, rng, k):
        iso = self.iso
        out = [Instance(q, f"F{q} Lambda({n}) dim={d}",
                        (random_space(iso, rng, self.F[q], n, d), None))
               for q, n, dims in self.SPACES for d in dims]
        for q, n in self.GRAPHS:
            for edges in graph_classes(n):
                g = relabel(iso, rng, n, edges)
                out.append(Instance(q, f"F{q} graph n={n}",
                                    (iso.space_from_graph(g, self.F[q]), g)))
        rng.shuffle(out)
        return out

    def run(self, inst, guard):
        iso = self.iso
        sp, _ = inst.data
        c, parts = iso.chi_lawler(sp, guard=guard)
        branch = iso.enumerate_maximal_branch(sp, guard=guard)
        cm = iso.chi_maxcover(sp, guard=guard, mi=branch)
        return c, parts, branch, cm

    def check(self, inst, res):
        iso = self.iso
        sp, g = inst.data
        c, parts, branch, cm = res
        iso.validate_decomposition(sp, parts)
        ok = (c == cm == len(parts)
              and {u.key() for u in branch}
              == {u.key() for u in iso.enumerate_maximal_filter(sp)})
        if g is not None:
            ok = ok and c == iso.graph_chi_brute(g)
        return ok, (c,)


# ----------------------------------------------------------- bipartite-ncrk

class BipartiteNcrk(Workload):
    """Criteria 07, 08 and 09: alpha = n - ncrk, padding, 2-decomposition."""

    name = "bipartite-ncrk"
    WARM = "F3 B 2x3 dim=3"
    # (q, s, t, dim B); the cost of a scan is set by (q, t, dim B).  The
    # shapes stop below the caps (t = 6 over F_2, 5 over F_3): one such
    # instance takes seconds, and a run's time would rest on a handful.
    BLOCKS = ((2, 1, 3, 2), (2, 2, 3, 3), (2, 1, 4, 2), (2, 2, 4, 4), (2, 3, 4, 6),
              (2, 1, 5, 3), (2, 2, 5, 5), (2, 3, 5, 7),
              (3, 1, 3, 2), (3, 2, 3, 3), (3, 1, 4, 2), (3, 2, 4, 4), (3, 3, 4, 6))
    # (q, n, dim A) of non-degenerate spaces for the adjoint route.  These
    # take a few ms; with three of each n = 4 stratum they are over half the
    # instances, so inst_p50_ms falls inside their cluster, not at its edge.
    NONDEG = ((3, 4, 2), (3, 4, 3), (3, 4, 4), (2, 4, 2), (2, 4, 3), (2, 4, 4)) * 3 + ((2, 6, 5),)

    def block(self, rng, k):
        iso = self.iso
        out = []
        for q, s, t, d in self.BLOCKS:
            f = self.F[q]
            b = random_matrix_space(iso, rng, f, s, t, d)
            sp = iso.bipartite_space_from_blocks(b)
            out.append(Instance(q, f"F{q} B {s}x{t} dim={d}",
                                ("ncrk", b, sp) + coordinate_split(iso, f, s, t)))
        for q, n, d in self.NONDEG:
            f = self.F[q]
            while True:
                sp = random_space(iso, rng, f, n, d)
                if (iso.radical_space(sp).dim == 0
                        and q ** iso.adjoint_algebra(sp).dim <= iso.DEFAULT_GUARD):
                    break
            out.append(Instance(q, f"F{q} nondegenerate n={n} dim={d}", ("adjoint", sp)))
        rng.shuffle(out)
        return out

    def run(self, inst, guard):
        iso = self.iso
        if inst.data[0] == "adjoint":
            return (iso.two_decomposition_via_adjoint(inst.data[1], guard=guard),)
        _, b, sp, u1, u2 = inst.data
        a, wit = iso.alpha_bipartite(sp, u1, u2, guard=guard)
        padded = iso.ncrk_brute(iso.ncrk_pad_square(b), guard=guard) if b.s < b.t else None
        return a, wit, padded

    def check(self, inst, res):
        iso = self.iso
        if inst.data[0] == "adjoint":
            sp = inst.data[1]
            (pair,) = res
            ok = (pair is None) == (iso.two_decomposition_brute(sp) is None)
            if pair is not None:
                u1, u2 = pair
                ok = ok and (iso.is_isotropic(sp, u1) and iso.is_isotropic(sp, u2)
                             and u1.sum(u2).dim == sp.n == u1.dim + u2.dim)
            return ok, (pair is not None,)
        _, b, sp, _, _ = inst.data
        a, wit, padded = res
        n = b.s + b.t
        ok = (a == iso.alpha_exact(sp)[0] and wit.dim == a and iso.is_isotropic(sp, wit)
              and (padded is None or padded == n - a + (b.t - b.s)))
        return ok, (a, n - a, padded)


# ---------------------------------------------------------------- cli-calls

class CliCalls(Workload):
    """One `python -m isospace ... --json` process per call."""

    name = "cli-calls"
    WARM = "count"
    # A call is mostly process start and import, which the host's noisy
    # neighbours slow unlike Python compute; its reference is a bare
    # interpreter start (in 10 s windows: spread 0.185 raw, 0.036 scaled).
    REF_NOMINAL_MS = 70.0
    REF_PER_S = 0

    def reference_ms(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
        return (time.perf_counter() - t0) * 1000.0
    # q of each call; every subcommand once per block, two malformed files
    # (exit 2) and two `--guard 1` runs (exit 3)
    CALLS = (("alpha", 2), ("chi-brute", 3), ("chi-lawler", 2), ("chi-maxcover", 3),
             ("maximal-filter", 2), ("maximal-branch", 3), ("decompose-greedy", 2),
             ("decompose-lawler", 3), ("from-graph", 3), ("to-graph-witness", 2),
             ("ncrk", 2), ("alpha-bipartite", 3), ("adjoint", 3), ("dim2", 2),
             ("gadget-dim2", 3), ("singular-exists", 2), ("baer", 3), ("quantum", 2),
             ("count", 3), ("stats", 3), ("bad-ams", 2), ("bad-graph", 3),
             ("guard-alpha", 2), ("guard-stats", 3))
    # the calls on one seeded alternating space
    SPACE_ARGS = {"alpha": ["alpha"], "chi-brute": ["chi", "--method", "brute"],
                  "chi-lawler": ["chi", "--method", "lawler"],
                  "chi-maxcover": ["chi", "--method", "maxcover"],
                  "maximal-filter": ["maximal", "--method", "filter"],
                  "maximal-branch": ["maximal", "--method", "branch", "--list"],
                  "decompose-greedy": ["decompose", "--method", "greedy-deg"],
                  "decompose-lawler": ["decompose", "--method", "lawler"],
                  "dim2": ["dim2"], "stats": ["stats"],
                  "guard-alpha": ["alpha", "--guard", "1"],
                  "guard-stats": ["stats", "--guard", "1"]}

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

    def block(self, rng, k):
        iso = self.iso
        emit_space, emit_graph, emit_mats = iso.io.emit_space, iso.io.emit_graph, iso.io.emit_mats
        d = os.path.join(self.workdir, f"b{k}")
        os.makedirs(d, exist_ok=True)

        def write(fname, text):
            path = os.path.join(d, fname)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        def space(q, n, dim):
            sp = random_space(iso, rng, self.F[q], n, dim)
            return sp, write(f"s{len(out)}.ams", emit_space(sp))

        def connected_graph(n):
            while True:
                g = random_graph(iso, rng, n, rng.randint(n - 1, n * (n - 1) // 2))
                if g.is_connected():
                    return g

        out = []
        for kind, q in self.CALLS:
            f = self.F[q]
            if kind in self.SPACE_ARGS:
                sp, fn = space(q, 4 if q == 2 else 3, rng.randint(1, 3))
                argv, data = self.SPACE_ARGS[kind] + ["-f", fn], (sp,)
            elif kind in ("from-graph", "to-graph-witness", "quantum"):
                n = rng.randint(3, 5)
                g = connected_graph(n) if kind == "quantum" else \
                    random_graph(iso, rng, n, rng.randint(1, n * (n - 1) // 2))
                fn = write(f"g{len(out)}.graph", emit_graph(g))
                if kind == "from-graph":
                    argv = ["from-graph", "-f", fn, "--field", str(q)]
                elif kind == "quantum":
                    what = rng.choice(["period", "decide2", "fidelity"])
                    argv = ["quantum", what, "-f", fn]
                    state = [rng.randint(0, 2) + (i == 0) for i in range(n)]
                    if what == "fidelity":
                        argv += ["--state", " ".join(map(str, state))]
                else:
                    wit = iso.alpha_exact(iso.space_from_graph(g, f))[1]
                    rep = write(f"r{len(out)}.json", json.dumps(
                        {"results": {"field": q, "witness": [list(r) for r in wit.basis_rows()]}}))
                    argv = ["to-graph-witness", "-f", fn, "--report", rep]
                data = (g, state) if kind == "quantum" else (g,)
            elif kind == "ncrk":
                b = random_matrix_space(iso, rng, f, 2, 3, rng.randint(1, 3))
                argv = ["ncrk", "-f", write(f"m{len(out)}.mats", emit_mats(b)), "--pad"]
                data = (b,)
            elif kind == "alpha-bipartite":
                b = random_matrix_space(iso, rng, f, 2, 2, rng.randint(1, 3))
                sp = iso.bipartite_space_from_blocks(b)
                u1, u2 = coordinate_split(iso, f, 2, 2)
                rows = [";".join(" ".join(map(str, r)) for r in u.basis_rows()) for u in (u1, u2)]
                argv = ["alpha-bipartite", "-f", write(f"s{len(out)}.ams", emit_space(sp)),
                        "--u1", rows[0], "--u2", rows[1]]
                data = (sp,)
            elif kind == "adjoint":
                sp, fn = space(q, 2, 1)
                argv, data = ["adjoint", "-f", fn, "--find-hyperbolic"], (sp,)
            elif kind in ("gadget-dim2", "singular-exists"):
                r = 2
                mats = [iso.Matrix.from_rows(f, [[rng.randrange(q) for _ in range(2)]
                                                 for _ in range(r)]) for _ in range(2)]
                text = f"mats {q} {r} 2 2\n" + "".join(
                    " ".join(map(str, m.row(i))) + "\n" for m in mats for i in range(r))
                argv = [kind, "-f", write(f"m{len(out)}.mats", text)]
                data = (mats,)
            elif kind == "baer":
                sp, fn = space(q, 2, 1)
                argv, data = ["baer", "-f", fn, "--verify"], (sp,)
            elif kind == "count":
                n = 2 * rng.randint(1, 3)       # the isotropic formula needs n even
                what = rng.choice(["gaussian", "iso-formula"])
                dd = rng.randint(0, n // 2)
                argv, data = ["count", what, str(n), str(dd), str(q)], (what, n, dd)
            elif kind == "bad-ams":
                argv, data = ["alpha", "-f", write(f"x{len(out)}.ams",
                                                    f"ams {q} 3 1\n0 1 0\n{q} 0 0\n0 0 0\n")], ()
            else:  # bad-graph: a vertex out of range
                argv, data = ["from-graph", "-f", write(f"x{len(out)}.graph", "graph 3\n1 4\n")], ()
            out.append(Instance(q, kind, (d, argv + ["--json"]) + data))
        rng.shuffle(out)
        return out

    def run(self, inst, guard):
        proc = subprocess.run([sys.executable, "-m", "isospace"] + inst.data[1],
                              env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def in_process(self, inst, guard):
        """Replay the call through `cli.main`, with the given guard."""
        cli = self.iso.cli

        def make_guard(limit):
            guard.limit = int(limit)
            return guard

        out = io.StringIO()
        cli.Guard = make_guard
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(inst.data[1])
        except SystemExit as e:     # argparse rejects the arguments
            code = e.code
        finally:
            cli.Guard = self.iso.Guard
        return code, out.getvalue()

    def trace_extra(self):
        """A fresh interpreter importing isospace.cli, and a bare one."""
        def start(code):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                               timeout=120)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)
        bare = start("pass")
        return {"cli.interp_start_s": bare, "cli.import_s": start("import isospace.cli") - bare}

    def check(self, inst, res):
        code, stdout = res
        kind = inst.stratum
        if kind.startswith("bad-"):
            return code == 2, (kind, code)
        if kind.startswith("guard-"):
            return code == 3, (kind, code)
        if code != 0:
            return False, (kind, code)
        r = json.loads(stdout)["results"]
        value = self.expected(kind, inst.data[2:], r)
        return value is not None, (kind, code, value)

    def expected(self, kind, data, r):
        """The answer value if the report agrees with the library, else None."""
        iso = self.iso
        if kind in ("count",):
            what, n, d = data
            fn = iso.gaussian_binomial if what == "gaussian" else iso.isotropic_count_formula
            want = str(fn(n, d, int(r["q"])))
            return want if r["value"] == want else None
        if kind in ("gadget-dim2", "singular-exists"):
            (mats,) = data
            if kind == "gadget-dim2":
                want = iso.right_degree_min(mats)
                return want if r["right_degree_min"] == want else None
            b = iso.bipartite.MatrixSpace.from_generators(mats[0].field, 2, 2, mats)
            want = iso.singular_exists_brute(b) is not None
            return want if r["exists"] == want else None
        if kind == "ncrk":
            (b,) = data
            want = iso.ncrk_brute(b)
            ok = r["ncrk"] == want and r["padded_ncrk"] == want + b.t - b.s
            return want if ok else None
        if kind in ("from-graph", "to-graph-witness", "quantum"):
            g = data[0]
            if kind == "from-graph":
                sp = iso.space_from_graph(g, self.F[int(r["field"])])
                ok = r["space"] == iso.io.emit_space(sp) and r["dim"] == len(g.edges)
                return r["dim"] if ok else None
            if kind == "to-graph-witness":
                verts = [v - 1 for v in r["independent_set"]]
                ok = len(verts) == iso.graph_alpha_brute(g) and is_independent(g, verts)
                return len(verts) if ok else None
            ch = iso.channel_from_graph(g)
            if "fidelity" in r:
                norm = sum(x * x for x in data[1]) ** 0.5
                want = iso.fidelity_pure(ch, [x / norm for x in data[1]])
                return round(want, 6) if abs(r["fidelity"] - want) <= 1e-9 else None
            want = iso.period(ch)
            ok = r["period"] == want and r.get(
                "iso_2_decomposition", None) in (None, iso.decide_iso_2_decomposition(ch))
            return want if ok else None
        (sp,) = data
        sub = iso.Subspace
        if kind == "alpha" or kind == "alpha-bipartite":
            want = iso.alpha_exact(sp)[0]
            wit = sub.from_vectors(sp.field, sp.n, r["witness"])
            ok = (r["alpha"] == want == wit.dim and iso.is_isotropic(sp, wit)
                  and r.get("ncrk", sp.n - want) == sp.n - want)
            return want if ok else None
        if kind.startswith("chi") or kind == "decompose-lawler":
            want = iso.chi_maxcover(sp) if kind != "chi-maxcover" else iso.chi_lawler(sp)[0]
            got = r["chi"] if "chi" in r else r["count"]
            if "parts" in r:
                iso.validate_decomposition(sp, [sub.from_vectors(sp.field, sp.n, p)
                                                for p in r["parts"]])
            return want if got == want else None
        if kind == "decompose-greedy":
            iso.validate_decomposition(sp, [sub.from_vectors(sp.field, sp.n, p)
                                            for p in r["parts"]])
            return r["count"]
        if kind.startswith("maximal"):
            other = iso.enumerate_maximal_branch(sp) if kind == "maximal-filter" \
                else iso.enumerate_maximal_filter(sp)
            ok = r["count"] == len(other)
            if "spaces" in r:
                ok = ok and sorted(r["spaces"]) == sorted(
                    [list(x) for x in u.basis_rows()] for u in other)
            return len(other) if ok else None
        if kind == "adjoint":
            want = iso.adjoint_algebra(sp).dim
            found = r["hyperbolic_idempotent"] is not None
            ok = r["dim"] == want and found == (iso.two_decomposition_brute(sp) is not None)
            return (want, found) if ok else None
        if kind == "dim2":
            want = iso.alpha_exact(sp)[0] >= 2
            return want if r["has_isotropic_dim2"] == want else None
        if kind == "baer":
            ok = r["order"] == r["expected_order"] == sp.field.p ** (sp.n + sp.dim)
            return r["order"] if ok else None
        # stats
        want = iso.max_degree(sp)
        return want if r["max_degree"] == want else None


WORKLOADS = {w.name: w for w in (GraphBridge, ChiDecompose, BipartiteNcrk, CliCalls)}
