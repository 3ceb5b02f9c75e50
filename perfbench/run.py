#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md and BENCHMARK.json).

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bench.exe with
dune, then drives it: every repetition is a fresh process, so peak RSS
and GC state are per repetition. Untraced (--trace 0), repetitions run
back to back for about S seconds and every end-to-end metric is reported
as the median over repetitions. Traced (--trace 1), rounds of one untraced and
one traced repetition (plus, on star-churn, three subtraction cells) run
for about S seconds and each per-layer metric is the median over rounds.

Human-readable lines go first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Output checks feed
attempted/failed (error_rate = failed / attempted). A crashed worker or
a failed build exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ["star-churn", "link-overload", "link-lqd", "paper"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("perfbench", "out")
MIN_REPS = 3
MAX_REPS = 100
MAX_ROUNDS = 8
REP_TIMEOUT_S = 120
# Runtime_events ring of 2^19 words: large enough that polling between
# experiments loses no GC events (larger rings crash OCaml 5.1.1).
TRACE_ENV = {"OCAMLRUNPARAM": "e=19"}

PAPER_IDS = [
    "example-1", "example-2", "fig-1b", "table-1", "fig-2a", "fig-2b",
    "scfq-gap", "fig-3b", "hier-sharing", "delay-shift", "bounds", "e2e",
    "fair-airport", "residual", "tie-break", "gsfq", "e2e-ebf", "busy-rule",
    "fig-1-topology",
]

E2E_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "minor_words_per_item": "words",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("not a source checkout: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed")


def rep(workload, seed, *extra, env=None):
    """One repetition in a fresh process. setup_s runs from the spawn to
    the instant the worker opened its timed window."""
    spawned = time.time()
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), *extra],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        env=dict(os.environ, **(env or {})),
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError(f"worker exited with {r.returncode}: {workload} {' '.join(extra)}")
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"worker printed no result: {e}")
    out["setup_s"] = out["opened_at"] - spawned
    return out


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def add_rep(self, tag, r):
        for name, ok in r["checks"].items():
            self.add(f"{tag}:{name}", ok)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, reps, ocaml):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none"
    except OSError:
        sha = "none"
    log(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds} repetitions={reps}")
    log(f"# git={sha} source={source_digest()} host={socket.gethostname()} "
        f"nproc={os.cpu_count()} ocaml={ocaml} domains=1")


def print_metrics(rows):
    log(f"{'metric':<32} {'unit':<8} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, unit, xs in rows:
        q1, med, q3 = quartiles(xs)
        log(f"{name:<32} {unit:<8} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}")


def untraced(args, checks):
    start = time.time()
    reps = []
    while True:
        extra = ["--crosscheck"] if not reps and args.workload.startswith("link-") else []
        reps.append(rep(args.workload, args.seed, *extra))
        elapsed = time.time() - start
        est = statistics.median(r["wall_s"] + r["setup_s"] for r in reps)
        if len(reps) >= MAX_REPS or (len(reps) >= MIN_REPS and elapsed + est > args.seconds):
            break
    first = reps[0]
    for i, r in enumerate(reps):
        checks.add_rep(f"rep{i}", r)
        if i > 0:
            checks.add(f"rep{i}:digest-repeats", r["digest"] == first["digest"])
    series = {
        "wall_s": [r["wall_s"] for r in reps],
        "items_per_s": [r["items"] / r["wall_s"] for r in reps],
        "minor_words_per_item": [r["minor_words"] / r["items"] for r in reps],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    provenance(args, len(reps), first["ocaml"])
    log(f"# items = {'experiments' if args.workload == 'paper' else 'packets'}; "
        f"minor words repeat exactly across repetitions: "
        f"{len(set(r['minor_words'] for r in reps)) == 1}")
    print_metrics([(k, E2E_UNITS[k], v) for k, v in series.items()])
    return {k: (E2E_UNITS[k], statistics.median(v)) for k, v in series.items()}


def traced(args, checks):
    """Rounds of (untraced, traced[, cells]) repetitions, interleaved so
    that slow drift in host speed hits both sides of every difference;
    each per-layer metric is the median over rounds."""
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    env = dict(TRACE_ENV, OCAML_RUNTIME_EVENTS_DIR=OUT)
    start = time.time()
    rounds = []
    lost = 0
    while True:
        u = rep(args.workload, args.seed)
        t = rep(args.workload, args.seed, "--trace", trace_file, env=env)
        checks.add_rep("untraced", u)
        checks.add_rep("traced", t)
        checks.add("traced-digest-equals-untraced", t["digest"] == u["digest"])
        cells = {}
        if args.workload == "star-churn":
            for c in ("sfq-r0", "fifo", "fifo-r0"):
                cells[c] = rep(args.workload, args.seed, "--cell", c)
                checks.add_rep(c, cells[c])
        rounds.append(layer_metrics(u, t, cells))
        lost += t["layers"]["gc.lost_events"]
        elapsed = time.time() - start
        if len(rounds) >= MAX_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    provenance(args, f"{len(rounds)} rounds", u["ocaml"])
    log(f"# spans of the last traced repetition: {trace_file}")
    if lost:
        log(f"# warning: {lost} GC events lost; gc.pause_s is a lower bound")
    m = {k: (unit, [r[k][1] for r in rounds]) for k, (unit, _) in rounds[0].items()}
    print_metrics([(k, unit, xs) for k, (unit, xs) in m.items()])
    return {k: (unit, statistics.median(xs)) for k, (unit, xs) in m.items()}


def layer_metrics(u, t, cells):
    """Per-layer metrics of one round: untraced repetition u, traced
    repetition t, and on star-churn the subtraction cells."""
    L = t["layers"]
    clock = L["trace.clock_ns"]
    items = t["items"]
    wall = t["wall_s"]
    m = {}

    def per_call(total, calls):
        return total / calls - clock if calls else 0.0

    sched_ns = 0.0
    sched_calls = 0
    for op in ("enqueue", "dequeue", "evict", "close"):
        calls, total = L[f"sched.{op}_calls"], L[f"sched.{op}_total_ns"]
        m[f"sched.{op}_ns"] = ("ns", per_call(total, calls))
        m[f"sched.{op}_calls"] = ("count", calls)
        sched_ns += total - calls * clock
        sched_calls += calls
    m["sched.self_s"] = ("s", sched_ns / 1e9)
    m["sched.share"] = ("ratio", sched_ns / 1e9 / wall)
    m["sched.max_depth"] = ("pkts", L["sched.max_depth"])

    b_calls = L["buffered.calls"]
    drops = L.get("buffered.drops", 0)
    b_self = (L["buffered.total_ns"] - b_calls * clock
              - L["sched.nested_ns"] - L["sched.nested_calls"] * clock)
    m["buffered.self_s"] = ("s", b_self / 1e9 if b_calls else 0.0)
    m["buffered.enqueue_ns"] = ("ns", per_call(L["buffered.total_ns"], b_calls))
    m["buffered.drops"] = ("count", drops)
    m["buffered.drop_frac"] = ("ratio", drops / items if b_calls else 0.0)
    m["buffered.minor_words_per_drop"] = (
        "words", L["buffered.drop_words"] / drops if drops else 0.0)

    if cells:
        # The oracle is on in u (SFQ links, reserved flows) and off in the
        # three cells. u - sfq-r0 is the oracle plus the reserved traffic;
        # fifo - fifo-r0 is that traffic alone (FIFO links run no oracle).
        oracle_s = ((u["wall_s"] - cells["sfq-r0"]["wall_s"])
                    - (cells["fifo"]["wall_s"] - cells["fifo-r0"]["wall_s"]))
        # each timed call reads the clock twice; both reads land in the
        # caller's interval or the callee's
        overhead_s = 2 * sched_calls * clock / 1e9
        netsim_self = wall - sched_ns / 1e9 - oracle_s - overhead_s
        m["netsim.self_s"] = ("s", netsim_self)
        m["netsim.us_per_pkt"] = ("us", netsim_self / items * 1e6)
        base = cells["fifo-r0"]
        m["netsim.base_us_per_pkt"] = ("us", base["wall_s"] / base["items"] * 1e6)
        m["oracle.us_per_pkt"] = ("us", oracle_s / items * 1e6)
    else:
        for k, unit in (("netsim.self_s", "s"), ("netsim.us_per_pkt", "us"),
                        ("netsim.base_us_per_pkt", "us"), ("oracle.us_per_pkt", "us")):
            m[k] = (unit, 0.0)
    m["oracle.checked"] = ("count", L.get("oracle.checked", 0))
    m["registry.high_water"] = ("ids", L.get("registry.high_water", 0))
    m["registry.peak_live"] = ("flows", L.get("registry.peak_live", 0))
    m["sched.state_kb_per_link"] = (
        "kB", L.get("sched.state_kb", 0.0) / L.get("links", 1))

    m["gc.minor_collections"] = ("count", L["gc.minor_collections"])
    m["gc.major_collections"] = ("count", L["gc.major_collections"])
    m["gc.promoted_words_per_item"] = ("words", L["gc.promoted_words"] / items)
    m["gc.top_heap_mb"] = ("MB", L["gc.top_heap_words"] * 8 / 2**20)
    m["gc.pause_s"] = ("s", L["gc.pause_ns"] / 1e9)

    for pid in PAPER_IDS:
        m[f"paper.{pid}_s"] = ("s", L.get(f"paper.{pid}_ns", 0) / 1e9)
    m["trace.clock_ns"] = ("ns", clock)
    m["trace.overhead_frac"] = ("ratio", wall / u["wall_s"] - 1.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="'all' runs every workload in turn; its metrics are "
                         "keyed <workload>/<metric>")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    checks = Checks()
    metrics = {}
    try:
        build()
        for name in names:
            args.workload = name
            for k, v in (traced if args.trace else untraced)(args, checks).items():
                metrics[k if len(names) == 1 else f"{name}/{k}"] = v
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    failed = len(checks.failed)
    log(f"error_rate {failed / checks.attempted:.6g} ({failed} failed of "
        f"{checks.attempted} output checks){': ' + ', '.join(checks.failed) if failed else ''}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
