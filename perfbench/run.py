"""Benchmark harness for isospace; standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload graph-bridge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run measures a whole number of blocks of seeded instances (see
workloads.py), one instance at a time in one thread.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs a fixed set of
instances twice, untraced and then traced, and reports the per-layer
metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record (host,
tail percentile, answer digest, failures) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Seconds one block takes on the reference host (2 cores, Python 3.11.7):
# a run measures round(--seconds / NOMINAL_BLOCK_S) blocks, at least one, so
# one seed always measures the same instances whatever the speed.
NOMINAL_BLOCK_S = {"graph-bridge": 1.0, "chi-decompose": 5.0, "bipartite-ncrk": 4.0,
                   "cli-calls": 8.0}
# a traced run makes its blocks twice, the second time several times slower
TRACE_SHARE = 3
SETUP_REPS = 5
END_TO_END = (("inst_per_s", "1/s"), ("inst_p50_ms", "ms"), ("inst_tail_ms", "ms"),
              ("f2_inst_per_s", "1/s"), ("f3_inst_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class HostClock:
    """The speed of a shared host, sampled around timed calls.

    Other tenants slow this host by up to half, switching within seconds.
    The workload's reference (Workload.reference_ms) is timed once right
    before each timed call of d seconds and 1 + d * REF_PER_S times right
    after it; the instance's time is divided by its host factor, the mean
    of the two over the reference's time on the reference host
    (REF_NOMINAL_MS).  So times read as on the reference host, and drift
    of the host cancels.
    """

    def __init__(self, wl):
        self.wl = wl
        self.slices = []

    def sample(self, busy_s):
        """Time the reference for a call of busy_s seconds; the mean in ms."""
        new = [self.wl.reference_ms() for _ in range(1 + int(busy_s * self.wl.REF_PER_S))]
        self.slices += new
        return statistics.mean(new)

    def factor(self):
        return statistics.mean(self.slices) / self.wl.REF_NOMINAL_MS

    def loop_ms(self):
        """host.ref_loop_ms: the mean reference time."""
        return statistics.mean(self.slices)


def tail(latencies):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least 10 samples above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50, xs[math.ceil(n / 2) - 1], n - math.ceil(n / 2)   # fewer than 20 samples


def run_one(wl, inst, guard, clock, call=None):
    """Time one instance, sample the host, check.

    Returns (q, seconds, ok, answer values, reference slice in ms)."""
    before = clock.sample(0)
    t0 = time.perf_counter()
    try:
        res = (call or wl.run)(inst, guard)
    except Exception as e:          # a library failure fails the instance
        dt = time.perf_counter() - t0
        return (inst.q, dt, False, ("error", inst.stratum, type(e).__name__, str(e)[:200]),
                (before + clock.sample(dt)) / 2)
    dt = time.perf_counter() - t0
    ref = (before + clock.sample(dt)) / 2
    try:
        ok, values = wl.check(inst, res)
    except Exception as e:          # so does a re-verification that raises
        return inst.q, dt, False, ("check-error", inst.stratum, type(e).__name__, str(e)[:200]), ref
    return inst.q, dt, ok, values, ref


def scaled(wl, recs):
    """Each instance's seconds divided by its host factor (HostClock)."""
    return [r[1] * wl.REF_NOMINAL_MS / r[4] for r in recs]


def make_workload(name, seed):
    from workloads import WORKLOADS, CliCalls
    if name == CliCalls.name:
        return CliCalls(os.path.join(OUT, f"cli-files-{seed}"))
    return WORKLOADS[name]()


def setup(wl, seed):
    """Import, first block, warm-up, SETUP_REPS times; returns the median
    at reference speed, the raw median, and the seeded state."""
    import random
    from workloads import fresh_import
    times, clock = [], HostClock(wl)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.bind(fresh_import())
        rng = random.Random(seed)
        first = wl.block(rng, 0)
        wl.warm_up(first)
        times.append(time.perf_counter() - t0)
        clock.sample(times[-1])
    raw = statistics.median(times)
    return raw / clock.factor(), raw, rng, first


def measure(wl, rng, first, nblocks, cap, clock):
    """Run nblocks blocks (or the first `cap` instances)."""
    recs = []
    block = first
    for k in range(nblocks):
        if k:
            block = wl.block(rng, k)
        for inst in block[:cap - len(recs)] if cap else block:
            recs.append(run_one(wl, inst, wl.iso.Guard(), clock))
        if cap and len(recs) >= cap:
            break
    return recs


def end_to_end(recs, secs, setup_s, children):
    """The end-to-end metrics from the instances and their times `secs`."""
    lat = [dt * 1000.0 for dt in secs]
    p, tail_ms, beyond = tail(lat)
    p50 = sorted(lat)[math.ceil(len(lat) / 2) - 1]

    def rate(sel):
        xs = [dt for r, dt in zip(recs, secs) if sel(r[0])]
        return len(xs) / sum(xs) if xs else 0.0

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    vals = {"inst_per_s": rate(lambda q: True),
            "inst_p50_ms": p50,
            "inst_tail_ms": tail_ms,
            "f2_inst_per_s": rate(lambda q: q == 2),
            "f3_inst_per_s": rate(lambda q: q == 3),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    return ({k: {"value": vals[k], "unit": u} for k, u in END_TO_END},
            {"tail_percentile": p, "tail_samples_beyond": beyond, "instances": len(lat)})


def digest(recs):
    return hashlib.sha256(json.dumps([r[3] for r in recs]).encode()).hexdigest()[:16]


def host_record():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def traced(wl, rng, first, nblocks, cap):
    """Untraced then traced pass over the first nblocks blocks, in process."""
    from tracing import Tracer
    blocks = [first] + [wl.block(rng, k) for k in range(1, nblocks)]
    insts = [inst for b in blocks for inst in b][:cap or None]
    plain_clock = HostClock(wl)
    plain = scaled(wl, [run_one(wl, inst, wl.iso.Guard(), plain_clock, wl.in_process)
                        for inst in insts])
    tracer = Tracer()

    def call(inst, guard):          # spans only inside the timed call
        tracer.active = True
        try:
            return wl.in_process(inst, guard)
        finally:
            tracer.active = False

    tracer.install(wl.iso)
    clock, recs, ticks = HostClock(wl), [], 0
    try:
        for i, inst in enumerate(insts):
            guard = wl.iso.Guard()
            tracer.instance = i
            recs.append(run_one(wl, inst, guard, clock, call))
            ticks += guard.used
    finally:
        tracer.uninstall()
    extra = dict(wl.trace_extra(), **{
        "errors.guard_ticks": ticks, "host.ref_loop_ms": clock.loop_ms(),
        "trace.overhead_frac": sum(scaled(wl, recs)) / sum(plain) - 1.0})
    return tracer, recs, tracer.per_layer(extra, clock.factor())


def run_workload(args):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "isospace", "__init__.py")):
        print(f"error: no isospace package under {src}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = make_workload(args.workload, args.seed)
    setup_s, setup_raw, rng, first = setup(wl, args.seed)
    nblocks = args.seconds / NOMINAL_BLOCK_S[args.workload]
    if args.trace:
        tracer, recs, metrics = traced(wl, rng, first, max(1, round(nblocks / TRACE_SHARE)),
                                       args.instances)
        extra = {}
    else:
        clock = HostClock(wl)
        recs = measure(wl, rng, first, max(1, round(nblocks)), args.instances, clock)
        secs = [r[1] for r in recs]
        metrics, extra = end_to_end(recs, scaled(wl, recs),
                                    setup_s, wl.name == "cli-calls")
        raw, _ = end_to_end(recs, secs, setup_raw, wl.name == "cli-calls")
        extra.update({"host.ref_loop_ms": clock.loop_ms(), "host.factor": clock.factor(),
                      "raw": {k: m["value"] for k, m in raw.items()}})
    failed = [r[3] for r in recs if not r[2]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(), "digest": digest(recs),
              "attempted": len(recs), "failed": len(failed), "failures": failed[:20],
              **extra, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        tracer.write(os.path.join(OUT, f"{tag}-spans.tsv.gz"))
    h = record["host"]
    print(f"# {args.workload} seed={args.seed} nproc={h['nproc']} python={h['python']} "
          f"numpy={h['numpy']} digest={record['digest']}"
          + "".join(f" {k}={v:.4g}" for k, v in extra.items() if k != "raw"))
    if "raw" in extra:
        print("# as timed, before the host factor: " + " ".join(
            f"{k}={v:.4g}" for k, v in extra["raw"].items()))
    print(f"fail_frac {len(failed) / max(1, len(recs)):.4f} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for f in failed[:5]:
        print(f"# failed: {f}")
    print(json.dumps({"correct": not failed, "attempted": len(recs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; a table of the end-to-end metrics."""
    rows, ok = {}, True
    for name in NOMINAL_BLOCK_S:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)] +
                              (["--instances", str(args.instances)] if args.instances else []),
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        rows[name] = dict({k: (m["value"], m["unit"]) for k, m in res["metrics"].items()},
                          fail_frac=(res["failed"] / res["attempted"], "ratio"))
    names = list(next(iter(rows.values())))
    print(f"{'metric':<28} {'unit':<6}" + "".join(f"{w:>16}" for w in rows))
    for m in names:
        print(f"{m:<28} {rows[next(iter(rows))][m][1]:<6}"
              + "".join(f"{r[m][0]:>16.5g}" for r in rows.values()))
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=0,
                    help="stop after this many instances (smoke runs)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
