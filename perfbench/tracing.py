"""Per-layer tracing from outside the library.

`Tracer.install` wraps every function and method that the isospace modules
define, at every module binding that refers to it (so `isotropic.rad_of`
is caught as well as `altspace.rad_of`), and on the classes themselves.
While `active` is set, each call, and each `next()` of a generator, records
a span: name, start, end, parent span and instance id.  Spans stay in
memory in flat arrays; `per_layer` derives self times, counts and
`.distinct_frac` from them, and `write` dumps them at the end.  The library
source is untouched; `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("ffield", "altspace", "graphs", "isotropic", "bipartite", "gadgets",
          "quantum", "io", "cli")

# Accessors that cost less than a span would; their time stays with the caller.
UNTRACED = {"PrimeField.inv", "Matrix.row", "Matrix.col", "Matrix.__getitem__",
            "Matrix._reduced", "Subspace.__init__", "Subspace.basis_rows", "Subspace.key"}


def space_key(space):
    return space.field.p, space.n, tuple(m.entries for m in space.basis)


def _restricted_key(space, u, guard):
    """The work of _maximal_of_restriction is set by the space A|_U alone."""
    return space_key(sys.modules["isospace.altspace"].restrict(space, u))


# functions whose canonical inputs are collected for `.distinct_frac`
KEYED = {
    "altspace.restrict": lambda space, u: (space_key(space), u.key()),
    "isotropic._maximal_of_restriction": _restricted_key,
}


def _f(layer, name, *stats):
    return [(f"{layer}.{name}.{s}", s) for s in stats]


# (metric name, statistic) of the per-layer metrics; layer totals use "layer.stat"
PER_LAYER = (
    [("ffield.self_s", "self_s"), ("ffield.calls", "calls")]
    + [m for fn in ("_rref_rows", "kernel", "Subspace.extend_by_vector",
                    "Subspace.from_vectors", "Subspace.reduce_vector", "Matrix.apply",
                    "Matrix.__matmul__", "Matrix.__init__")
       for m in _f("ffield", fn, "calls", "self_s")]
    + [m for fn in ("enumerate_subspaces", "enumerate_complements", "projective_vectors")
       for m in _f("ffield", fn, "yields", "self_s")]
    + [("altspace.self_s", "self_s")]
    + [m for fn in ("rad_of", "restrict", "radical_space", "is_isotropic",
                    "nondegenerate_part") for m in _f("altspace", fn, "calls", "self_s")]
    + _f("altspace", "restrict", "distinct_frac")
    + [("isotropic.self_s", "self_s")]
    + _f("isotropic", "enumerate_isotropic_lattice", "calls", "self_s", "total_s", "spaces")
    + _f("isotropic", "_hyperplanes", "yields", "self_s")
    + _f("isotropic", "enumerate_maximal_branch", "calls", "self_s")
    + _f("isotropic", "_maximal_of_restriction", "calls", "distinct_frac")
    + _f("isotropic", "_complements_inside", "yields")
    + [m for fn in ("chi_lawler", "chi_maxcover", "chi_brute")
       for m in _f("isotropic", fn, "self_s")]
    + _f("isotropic", "_vector_mask", "calls")
    + [("bipartite.self_s", "self_s")]
    + [m for fn in ("ncrk_brute", "ncrk_witness_pair", "adjoint_algebra",
                    "hyperbolic_idempotent_search") for m in _f("bipartite", fn, "self_s")]
    + _f("bipartite", "image_of_subspace", "calls", "self_s")
    + _f("bipartite", "AdjointAlgebra.element", "calls")
    + [("graphs.self_s", "self_s")]
    + [m for fn in ("independent_set_from_isotropic", "coloring_from_decomposition")
       for m in _f("graphs", fn, "self_s")]
    + [("io.self_s", "self_s")]
    + [m for fn in ("parse_space", "parse_graph", "parse_mats") for m in _f("io", fn, "self_s")]
    + [("cli.import_s", "import_s"), ("cli.interp_start_s", "interp_start_s")]
    + [m for fn in ("build_parser", "run_command") for m in _f("cli", fn, "self_s")]
    + [("gadgets.self_s", "self_s"), ("quantum.self_s", "self_s"),
       ("errors.guard_ticks", "guard_ticks"), ("host.ref_loop_ms", "ref_loop_ms"),
       ("trace.overhead_frac", "overhead_frac")]
)

UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "yields": "count", "spaces": "count",
         "distinct_frac": "ratio", "import_s": "s", "interp_start_s": "s",
         "guard_ticks": "count", "ref_loop_ms": "ms", "overhead_frac": "ratio"}


class Tracer:
    def __init__(self):
        self.active = False
        self.instance = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_inst = array("i")
        self.stack: list[int] = []
        self.gen_calls = Counter()
        self.yields = Counter()
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.lattice_spaces = 0
        self._undo: list = []
        self.t0 = time.perf_counter()

    # ---------------------------------------------------------------- spans

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_inst.append(self.instance)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        keyfn = KEYED.get(name)
        keys = self.keys.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    return (yield from gen)
                tracer.gen_calls[nid] += 1
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.yields[nid] += 1
                    yield item
            return gen_wrapper

        lattice = name == "isotropic.enumerate_isotropic_lattice"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if keyfn is not None:       # untraced: the key is not the call's work
                tracer.active = False
                try:
                    keys.add(keyfn(*args, **kwargs))
                finally:
                    tracer.active = True
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if lattice:
                tracer.lattice_spaces += out.count()
            return out
        return wrapper

    # ------------------------------------------------------- install/undo

    def install(self, iso):
        """Wrap the functions of every layer module of the imported package."""
        modules = [sys.modules[f"isospace.{layer}"] for layer in LAYERS]
        wrapped = {}                      # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        for mod in modules + [iso, sys.modules["isospace.errors"]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def _install_class(self, layer, cls):
        for attr, desc in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if qual in UNTRACED or attr in ("__eq__", "__hash__", "__repr__"):
                continue
            name = f"{layer}.{qual}"
            if isinstance(desc, classmethod):
                new = classmethod(self._wrap(name, desc.__func__))
            elif isinstance(desc, staticmethod):
                new = staticmethod(self._wrap(name, desc.__func__))
            elif inspect.isfunction(desc):
                new = self._wrap(name, desc)
            else:
                continue
            self._undo.append((cls, attr, desc))
            setattr(cls, attr, new)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -------------------------------------------------------------- metrics

    def per_layer(self, extra, factor):
        """Every per-layer metric; `extra` supplies the ones not from spans.
        Self times are divided by the host factor (see run.HostClock)."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        self_by, total_by, calls_by = Counter(), Counter(), Counter()
        for i in range(n):
            nm = self.span_name[i]
            self_by[nm] += dur[i] - child[i]
            total_by[nm] += dur[i]
            calls_by[nm] += 1
        stats = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            calls = self.gen_calls[nid] if nid in self.gen_calls else calls_by[nid]
            for key, val in (("self_s", self_by[nid] / factor), ("calls", calls),
                             ("yields", self.yields[nid]), ("total_s", total_by[nid] / factor)):
                stats[f"{name}.{key}"] = stats.get(f"{name}.{key}", 0) + val
                stats[f"{layer}.{key}"] = stats.get(f"{layer}.{key}", 0) + val
        for name, keys in self.keys.items():
            calls = stats.get(f"{name}.calls", 0)
            stats[f"{name}.distinct_frac"] = len(keys) / calls if calls else 1.0
        stats["isotropic.enumerate_isotropic_lattice.spaces"] = self.lattice_spaces
        stats.update(extra)
        return {metric: {"value": stats.get(metric, 0), "unit": UNITS[stat]}
                for metric, stat in PER_LAYER}

    def write(self, path):
        """Dump the spans as tab-separated lines: id name start end parent instance."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tinstance\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - self.t0:.7f}\t{self.span_end[i] - self.t0:.7f}\t"
                         f"{self.span_parent[i]}\t{self.span_inst[i]}\n")
