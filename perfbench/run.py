#!/usr/bin/env python3
"""The repository benchmark: three simulator workloads, timed end to end,
with a correctness gate on every run and a separate traced pass.

    python3 perfbench/run.py --workload counting-cp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload btree-sm --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --make-reference 0-127

Run from the root of the repository.  The script builds
perfbench/bench.exe with dune, then starts one measuring process per
repetition until --seconds have passed, so each repetition measures one
workload alone.  See perfbench/README.md for the metrics.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["counting-cp", "btree-sm", "dht-zipf-rpc"]
MIN_REPS = 3  # in the traced pass: one untraced, one traced, one ladder
CHILD_TIMEOUT_S = 60

# The traced run's timed per-layer metrics (medians over traced
# repetitions), and the exact simulated counts (identical in every
# repetition of one seed).
TRACE_TIMES = ["setup.machine_s", "setup.apps_s", "setup.preload_s", "setup.gc_s",
               "run.driver_s", "run.issue_s", "run.complete_s", "run.gc_s", "run.loop_self_s"]
TRACE_EXACT = ["run.issues", "sim.latency_mean_cyc", "sim.latency_p50_cyc",
               "sim.latency_p99_cyc", "sim.latency_max_cyc"]
EXACT = ["sim.events", "sim.ops", "sim.events_per_op", "sim.throughput",
         "network.messages_per_op", "network.words_per_op", "transport.delivered",
         "runtime.migrations", "runtime.rpc_calls", "runtime.local_calls",
         "memory.cache_hit_rate", "memory.cache_misses",
         "processor.max_util", "processor.mean_util"]
GC = ["gc.minor_words_per_op", "gc.promoted_words_per_op", "gc.minor_collections",
      "gc.major_collections", "gc.top_heap_mb"]
RUNGS = ["sim_event", "net_message", "xport_call", "xport_migrate", "rt_local",
         "rt_site_migrate", "rt_msite_rpc", "shmem_read_hit", "shmem_read_miss",
         "shmem_write_inval", "dht_get"]
LAYERS = ["engine", "network", "transport", "runtime", "memory", "apps", "gc"]


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./perfbench/bench.exe"],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def child(args, env=None):
    """Run bench.exe once; its last output line parsed, plus peak RSS."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, out
    rep = json.loads(lines[-1])
    rep["peak_mem_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return rep, out


def run_rep(workload, seed, extra=(), env=None):
    rep, out = child(["run", workload, str(seed)] + list(extra), env)
    if rep is None:
        sys.stderr.write(out)
        return {"ok": False, "why": "bench.exe failed"}
    return rep


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


OUTCOME = ["digest", "ops", "events", "cycles"]


class Gate:
    """Counts attempted and failed runs of one workload and seed: a run
    fails on an app invariant, on an outcome other than the reference's,
    or on simulated counts other than those of the first run."""

    def __init__(self, reference):
        self.reference = reference
        self.exact = None
        self.attempted = 0
        self.failed = 0

    def check(self, rep):
        self.attempted += 1
        why = None
        if not rep.get("ok"):
            why = rep.get("why", "failed")
        else:
            for key in OUTCOME:
                if rep[key] != self.reference[key]:
                    why = "%s %s, reference %s" % (key, rep[key], self.reference[key])
                    break
            if why is None:
                if self.exact is None:
                    self.exact = rep["exact"]
                elif rep["exact"] != self.exact:
                    why = "simulated counts differ between repetitions"
        if why is not None:
            self.failed += 1
            sys.stderr.write("perfbench: run failed: %s\n" % why)


def open_gate(workload, seed):
    """The gate for one run.  The reference outcome is recorded in
    reference.json for the seeds it covers; otherwise it is the run on the
    reference thread engine (CPS, which shares no suspension code with the
    frames engine).  A reference run that fails its own checks leaves no
    reference, so every run fails.  One untimed repetition then adds the
    whole-table checks."""
    rec = load_reference().get(workload, {}).get(str(seed))
    if rec is not None:
        gate = Gate(dict(zip(OUTCOME, rec)))
    else:
        print("no recorded reference for seed %d: using the CPS engine's run" % seed)
        rep = run_rep(workload, seed, ["--cps"])
        if not rep.get("ok"):
            sys.stderr.write("perfbench: reference run failed: %s\n" % rep.get("why"))
            rep = {}
        gate = Gate({k: rep.get(k) for k in OUTCOME})
    gate.check(run_rep(workload, seed, ["--full-check"]))
    return gate


def median(xs):
    return statistics.median(xs) if xs else 0.0


def timed_loop(deadline, body):
    n = 0
    while n < MIN_REPS or time.monotonic() < deadline:
        body(n)
        n += 1


def attribution(ladder, exact, trace):
    """Each layer's share of run.driver_s: ladder marginal cost per
    operation times the workload's exact count of that operation.  GC is
    measured directly.  The rest stays visible as unattributed."""
    sim = ladder["sim_event"]["ns"]
    net = ladder["net_message"]["ns"] - sim

    def own(rung, below=0.0):
        r = ladder[rung]
        return r["ns"] - r["events_per_op"] * sim - r["msgs_per_op"] * net - below

    xcall, xmig = own("xport_call"), own("xport_migrate")
    rt_rpc = own("rt_msite_rpc", xcall)
    c = {k: exact[k] for k in exact if k.startswith("count.")}
    ns = {
        "engine": exact["sim.events"] * sim,
        "network": c["count.messages"] * net,
        "transport": c["count.rpc_calls"] * xcall
        + (c["count.migrations"] + c["count.scope_returns"]) * xmig / 2,
        "runtime": c["count.local_calls"] * own("rt_local")
        + c["count.migrations"] * own("rt_site_migrate", xmig)
        + c["count.rpc_calls"] * rt_rpc,
        "memory": c["count.cache_hits"] * own("shmem_read_hit")
        + c["count.read_misses"] * own("shmem_read_miss")
        + (c["count.write_misses"] + c["count.upgrades"]) * own("shmem_write_inval"),
        "apps": c["count.rpc_calls"] * own("dht_get", xcall + rt_rpc),
        "gc": trace["run.gc_s"] * 1e9,
    }
    driver_ns = trace["run.driver_s"] * 1e9
    frac = {"attr.%s_frac" % k: ns[k] / driver_ns + 0.0 for k in LAYERS}
    frac["attr.unattributed_frac"] = 1.0 - sum(frac.values())
    return frac


def unit(name):
    for suffix, u in [("_s", "s"), ("_cyc", "cyc"), ("_ns", "ns"), ("_mb", "MB"),
                      ("words_per_op", "words/op"), ("events_per_op", "events/op"),
                      ("messages_per_op", "msgs/op"), ("throughput", "ops/kcyc"),
                      ("_frac", "1"), ("_rate", "1"), ("_util", "1")]:
        if name.endswith(suffix):
            return u
    return "count"


def metric(name, value, unit_=None):
    return {name: {"value": value, "unit": unit_ or unit(name)}}


def measure(workload, seed, seconds):
    gate = open_gate(workload, seed)
    reps = []
    deadline = time.monotonic() + seconds

    def body(_):
        rep = run_rep(workload, seed)
        gate.check(rep)
        if "wall_s" in rep:
            reps.append(rep)

    timed_loop(deadline, body)
    if not reps:
        return gate, {}, None
    m = {}
    m.update(metric("wall_s", median([r["wall_s"] for r in reps])))
    m.update(metric("setup_s", median([r["setup_s"] for r in reps])))
    m.update(metric("events_per_s", median([r["events"] / r["run_s"] for r in reps]), "1/s"))
    m.update(metric("peak_mem_mb", median([r["peak_mem_mb"] for r in reps])))
    print("%s seed %d: %d timed repetitions" % (workload, seed, len(reps)))
    return gate, m, reps[0]


def measure_traced(workload, seed, seconds):
    gate = open_gate(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-%d.tsv" % (workload, seed))
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    plain, traced, ladders = [], [], []
    deadline = time.monotonic() + seconds

    def body(i):
        # Rotate, so all three see the same background load.
        if i % 3 == 0:
            rep = run_rep(workload, seed)
            gate.check(rep)
            if "wall_s" in rep:
                plain.append(rep)
        elif i % 3 == 1:
            rep = run_rep(workload, seed, ["--trace", "--spans", spans], env)
            gate.check(rep)
            if "trace" in rep:
                if rep["trace"]["trace.lost_gc_events"]:
                    sys.stderr.write("perfbench: GC events lost; run.gc_s is low\n")
                traced.append(rep)
        else:
            rep, out = child(["ladder"])
            if rep is None:
                sys.stderr.write(out)
                fail("ladder failed")
            if not ladders:
                print(out.strip().rsplit("\n", 1)[0])
            ladders.append(rep)

    timed_loop(deadline, body)
    if not plain or not traced:
        return gate, {}, None
    ladder = {k: {"ns": median([l[k]["ns"] for l in ladders]),
                  "events_per_op": ladders[0][k]["events_per_op"],
                  "msgs_per_op": ladders[0][k]["msgs_per_op"]} for k in RUNGS}
    t = {k: median([r["trace"][k] for r in traced]) for k in TRACE_TIMES}
    for k in TRACE_EXACT:
        values = {r["trace"][k] for r in traced}
        if len(values) != 1:
            gate.failed += 1
            sys.stderr.write("perfbench: %s differs between traced runs\n" % k)
        t[k] = traced[0]["trace"][k]
    exact = plain[0]["exact"]
    m = {}
    for k in TRACE_TIMES + TRACE_EXACT:
        m.update(metric(k, t[k]))
    for k in EXACT:
        m.update(metric(k, exact[k]))
    for k in GC:
        m.update(metric(k, median([r["gc"][k] for r in plain])))
    for k in RUNGS:
        m.update(metric("ladder.%s_ns" % k, ladder[k]["ns"]))
    for k, v in attribution(ladder, exact, t).items():
        m.update(metric(k, v))
    overhead = median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1
    m.update(metric("trace.overhead_frac", overhead))
    print("%s seed %d: %d untraced and %d traced repetitions, %d ladders; spans in %s"
          % (workload, seed, len(plain), len(traced), len(ladders),
             os.path.relpath(spans, ROOT)))
    return gate, m, plain[0]


def make_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ref = load_reference()
    for workload in WORKLOADS:
        table = ref.setdefault(workload, {})
        for seed in seeds:
            rep = run_rep(workload, seed, ["--full-check"])
            if not rep.get("ok"):
                fail("%s seed %d fails its invariants: %s" % (workload, seed, rep.get("why")))
            table[str(seed)] = [rep[k] for k in OUTCOME]
        print("%s: %d seeds recorded" % (workload, len(seeds)))
    write_reference(ref)


def write_reference(ref):
    """One line per seed: [digest, ops, events, cycles]."""
    tables = []
    for workload in sorted(ref):
        rows = sorted(ref[workload].items(), key=lambda kv: int(kv[0]))
        tables.append('"%s": {\n%s\n}' % (workload, ",\n".join(
            '"%s": %s' % (seed, json.dumps(rec)) for seed, rec in rows)))
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join(tables) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--make-reference", metavar="LO-HI",
                    help="record the reference outcome of every workload for these seeds")
    a = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("run from a checkout of the repository (no dune-project at %s)" % ROOT)
    build()
    if a.make_reference:
        make_reference(a.make_reference)
        return
    if a.workload is None:
        ap.error("--workload is required")
    run = measure_traced if a.trace else measure
    gate, metrics, first = run(a.workload, a.seed, a.seconds)
    if first is not None:
        print("model: " + first["model"])
    for name, v in metrics.items():
        print("%-28s %.6g %s" % (name, v["value"], v["unit"]))
    correct = gate.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
