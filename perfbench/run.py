#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark programs from source
(into .bench_build), runs the benchmark's self-check, runs the workload
and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set; anything else is refused.  Exit status: 0 on a correct
run, 1 when an output was wrong (checksum, response body, or layers
that do not sum to the end-to-end time), 2 when the benchmark could not
run at all (no result line is printed then).

Workloads (the seed only shapes inputs; the programs see the inputs):
  mapreduce_fetch  Figure 11 of the paper on the real runtime: a 2-worker
                   lhws pool computes sum(fetch(key) + fib(20)) over 40 000
                   keys fetched over two pipelined Rpc connections from a
                   delta = 5 ms remote.  The seed picks the key range.
                   Figure 11 jobs alternate with fetch-only jobs (fib 0).
  http_mixed       two keep-alive pipelined connections to a 1-worker lhws
                   server: an open loop at 6 000 req/s alternating with a
                   closed loop at 32 outstanding requests per connection,
                   a round of each per 5 s of run.  The seed draws the
                   arrival jitter and the request mix: 40% GET /plaintext,
                   40% POST /echo (64 B to 16 KiB bodies), 20% GET /fib/:n
                   (n in 20..22).

End-to-end metrics (--trace 0; every workload reports all of them).
Every figure is taken over all the samples of the run, never as a
median of per-window figures, so a stall or a failure anywhere counts:
  items_per_s   mapreduce: keys summed correctly per second of Figure 11
                job time; http: correct open-loop responses per second
                (first to last receipt of each segment, after warm-up)
  capacity_rps  mapreduce: the same over the fetch-only jobs; http:
                correct closed-loop completions per second, after warm-up
  p50_ms/p90_ms mapreduce: every fetch of every Figure 11 job, call to
                value held (a fetch of a failed job counts as the 30 s
                read timeout); http: every open-loop request after
                warm-up, from its due time (a request not answered
                correctly counts as the longest latency the phase could
                observe).  Both on the monotonic clock.  The tail
                gated is p90, not p99: see e2e.p99_ms below
  ok_share      operations answered correctly / operations attempted
  setup_s       child spawned and pool created until the first connection
                is up (median of 15 set-ups)

Per-layer metrics (--trace 1: an untraced pass gives the counters, a
traced pass the spans), with the end-to-end metric each should move:
  lhws_pool.*           steals per 1000 items, steals / steal attempts,
                        suspensions per operation, worker busy share
                        (traced Task_run time / workers x wall): items_per_s
                        on mapreduce_fetch, no change expected on http_mixed
  rpc.fetch_lag_us.*    delta remote's send stamp to the map function
                        holding the value (reactor wake, resume,
                        scheduling): items_per_s
  http.*_us.*           due -> dispatch enqueue (ingress), enqueue ->
                        handler start (queue), handler run, handler end ->
                        generator receipt (egress): p50_ms / p90_ms
  reactor.syscalls_per_op, gc.alloc_words_per_op, proc.cpu_us_per_op
                        in the measured process (http: over the closed
                        loop): capacity_rps on http_mixed, items_per_s on
                        mapreduce_fetch
  e2e.p99_ms            p99 over the same samples as p90_ms, from the
                        untraced pass.  Reported, not gated: on a shared
                        2-vCPU virtual machine the host takes a few
                        percent of the time in multi-millisecond stalls,
                        so an HTTP p99 ranged 0.85-6.8 ms over eleven
                        runs of one program
  compute.fib_us.p50, gen.late_us.p99
                        controls that no change to lhws should move; when
                        they move, the run measured the host
  trace.overhead_share  mapreduce: untraced / traced items_per_s - 1;
                        http: traced / untraced open-loop p50 - 1
  trace.layer_sum_err_us, tracing.dropped
                        checks: worst |sum of layers - latency|, and events
                        the tracer lost (a run with any fails)
Metrics a workload does not exercise read 0.

The layer check.  Layers are gaps between consecutive wall-clock stamps
(the clock the processes share), so they always sum to last stamp -
first stamp.  The latency they are checked against is timed apart, on
the monotonic clock of the process that owns the operation.  A run
fails when any operation has a stamp missing, a stamp out of order (a
span joined to the wrong request or key), or a chain whose ends differ
from its latency by more than 5 us (a wall-clock step, or a chain that
does not start and end where the latency does).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE_DIR = os.path.join(BUILD_DIR, "default", os.path.basename(HERE))
WORK_DIR = os.path.join(BUILD_DIR, "perfbench-work")
TARGETS = ["bench.exe", "gen.exe", "selfcheck.exe"]

# The HTTP generator and its 1-worker server each get a CPU of their own
# when there are two, so that they never contend for one and the
# kernel's placement does not change from run to run.
_CPUS = sorted(os.sched_getaffinity(0))
GEN_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)

# Hard limits: a run, build excluded, ends within 150 s; a first build
# from a clean tree may take up to 700 s more.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 700


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_bounded(cmd, timeout, capture, cpu=None):
    """Runs [cmd] in its own process group, pinned to [cpu] if given; on
    timeout kills the group and waits for it, so no process outlives the
    run."""
    p = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
    )
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    finally:
        # Children of the program (remote, server) share its group.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out.decode() if capture else None


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    rel = os.path.relpath(HERE, ROOT)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--display", "quiet"] + ["./" + os.path.join(rel, t) for t in TARGETS]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return r.returncode == 0 and all(os.path.exists(os.path.join(EXE_DIR, t)) for t in TARGETS)


def workload_cmd(name, seed, seconds, trace):
    bench = os.path.join(EXE_DIR, "bench.exe")
    gen = os.path.join(EXE_DIR, "gen.exe")
    common = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if name == "mapreduce_fetch":
        return [bench, "mapreduce", "--remote", gen] + common
    if name == "http_mixed":
        return [gen, "http", "--server", bench, "--work-dir", WORK_DIR,
                "--server-cpu", str(SERVER_CPU if SERVER_CPU is not None else -1)] + common
    return None


def check_result(res, spec):
    """The result's shape against BENCHMARK.json: exactly the keys, every
    expected metric present with its unit and a finite value."""
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            return f"{k} is not a whole number"
    if res["attempted"] < 1:
        return "nothing attempted"
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, " \
               f"unexpected {sorted(set(got) - set(want))}"
    for name, unit in want.items():
        v = got[name]
        if v.get("unit") != unit:
            return f"{name} has unit {v.get('unit')}, BENCHMARK.json says {unit}"
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            return f"{name} has no finite value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {a.workload}")
        return 2
    if not build():
        return 2
    started = time.time()
    rc, _ = run_bounded([os.path.join(EXE_DIR, "selfcheck.exe")], 60, capture=False)
    if rc != 0:
        log("the benchmark's self-check failed")
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = workload_cmd(a.workload, a.seed, a.seconds, a.trace)
    rc, out = run_bounded(cmd, RUN_TIMEOUT_S - (time.time() - started), capture=True,
                          cpu=None if a.workload == "mapreduce_fetch" else GEN_CPU)
    if rc is None:
        return 2
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        log(l)
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{a.workload} printed no result (exit {rc})")
        return 2
    err = check_result(res, bench["per_layer" if a.trace else "end_to_end"])
    if err:
        log(f"bad result: {err}")
        return 2
    print(json.dumps(res))
    if not res["correct"] or rc != 0:
        log(f"{a.workload}: incorrect output (exit {rc})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
