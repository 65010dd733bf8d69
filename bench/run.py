"""The liebialg benchmark: one command for every workload and metric.

Run from the root of a checkout (stdlib only; nothing to build):

    python3 bench/run.py --workload verify-o4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, traced and not
    python3 bench/run.py --repeat 10 --record bench/records/NAME.json

With `--workload` it makes one run: it measures set-up in fresh
interpreters, runs the workload in one more fresh interpreter for
`--seconds`, checks every output against the reference, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, the
per-layer metrics (and the tracing overhead) with `--trace 1`.  Times are
CPU seconds scaled to a reference speed by a probe (see bench/README.md).  Without `--workload` it runs
every workload `--repeat` times with seeds `--seed`, `--seed`+1, ..., then
once traced, prints each metric with its unit, sample count, median and
quartiles, and can write the whole result as a record.

The exit code is nonzero when a job fails on `verify-o4` or `hopf-o6`, or
when a job of `classical-cli` other than a known defect fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402
import reference  # noqa: E402

RUN_SECONDS = 35
# Fresh interpreters that only set up, half before and half after the
# workload, so that set-up is sampled across the whole run.
SETUP_SAMPLES = 6
RUN_LIMIT_S = 175          # a run must end within this many seconds
# Times are scaled to a machine on which worker.probe() takes this many CPU
# seconds; see bench/README.md.
PROBE_REF_S = 0.2

END_TO_END = (
    ("job_p50_s", "s"), ("job_p90_s", "s"), ("jobs_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
# The end-to-end metrics of BENCHMARK.json, printed by single runs.
# job_p90_s is left out: only classical-cli has ten jobs beyond its p90 in
# a run; on verify-o4 it is the slowest of about six jobs.
GATED = ("job_p50_s", "jobs_per_s", "setup_s", "peak_rss_mb")
KNOWN = {reference.command_id(c) for c in KNOWN_DEFECTS}


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LIEBIALG_ORDER", None)
    return env


def _worker(args, deadline):
    """Run bench/worker.py in a fresh interpreter; its last line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills and waits for the child
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_run(workload, seed, seconds, trace):
    """One run: set-up samples, then the workload.  Returns a result dict."""
    deadline = time.monotonic() + RUN_LIMIT_S

    def set_up_only():
        return [_worker(["--setup-only"], deadline)
                for _ in range(SETUP_SAMPLES // 2)]

    setups = set_up_only()
    res = _worker(["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
                  deadline)
    setups += [res] + set_up_only()

    jobs = res["jobs"]
    failures = [j["failure"] for j in jobs if j["failure"]]
    unexpected = [j["failure"] for j in jobs
                  if j["failure"] and not set(j["commands"]) <= KNOWN]

    def normalized(traced):
        return [j["cpu"] * PROBE_REF_S / j["probe"] for j in jobs
                if j["traced"] == traced]

    timed = normalized(False)
    out = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": len(jobs), "failed": len(failures),
        "unexpected_failures": sorted(set(unexpected)),
        "failures": sorted(set(failures)),
        "samples": {"job": len(timed), "setup": len(setups)},
        "raw": {
            "probe_s": statistics.median(j["probe"] for j in jobs),
            "job_cpu_p50_s": statistics.median(
                j["cpu"] for j in jobs if not j["traced"]),
            "job_wall_p50_s": statistics.median(
                j["wall"] for j in jobs if not j["traced"]),
            "setup_cpu_s": statistics.median(x["setup_s"] for x in setups),
            "setup_samples": [[x["setup_s"], x["probe"]] for x in setups],
        },
    }
    out["correct"] = not out["unexpected_failures"]
    if trace:
        traced = normalized(True)
        metrics = dict(res["layers"])
        metrics["trace.job_p50_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(timed))
        out["samples"]["traced_job"] = len(traced)
        out["sidecar"] = res["sidecar"]
    else:
        metrics = {
            "job_p50_s": statistics.median(timed),
            "job_p90_s": (statistics.quantiles(timed, n=10,
                                               method="inclusive")[8]
                          if len(timed) > 1 else timed[0]),
            "jobs_per_s": len(timed) / sum(timed),
            "setup_s": statistics.median(x["setup_s"] * PROBE_REF_S / x["probe"]
                                         for x in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    out["metrics"] = metrics
    return out


def _units(trace):
    if not trace:
        return {k: u for k, u in END_TO_END if k in GATED}
    units = {}
    for name in layer_metric_names():
        units[name] = ("s" if name.endswith("_s") or name.endswith(".s")
                       else "ratio" if name.endswith("_ratio")
                       else "cells" if name.endswith("max_cells")
                       else "count")
    return units


def layer_metric_names():
    """Every per-layer metric name, in BENCHMARK.json order."""
    from tracer import SPANS, TOTALS
    names = []
    for prefix, _, _ in SPANS:
        for stat in ("calls", "self_s"):
            if f"{prefix}.{stat}" not in names:
                names.append(f"{prefix}.{stat}")
    names += [f"{p}.s" for p, _, _ in TOTALS]
    names += ["symkernel.rref.max_cells", "symkernel.polyexpr_mul.calls",
              "symkernel.truncate.terms_in", "symkernel.truncate.kept_ratio",
              "hopfdeform.nf_word.hit_ratio", "hopfdeform.nf_cache.entries",
              "trace.job_p50_s", "trace.overhead_s"]
    return names


def machine(cpu=True):
    """Where the figures come from.  The CPU model is read from
    /proc/cpuinfo, outside the checkout, so single runs leave it out."""
    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "revision": git_revision()}
    if cpu:
        out["cpu"] = "unknown"
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        out["cpu"] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return out


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(res):
    units = _units(res["trace"])
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]}
                    for k in units}})


def _summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0,
            "runs": len(values)}


def all_workloads(args):
    record = {"machine": machine(), "seconds": args.seconds,
              "probe_ref_s": PROBE_REF_S,
              "setup_samples_per_run": SETUP_SAMPLES + 1,
              "known_defects": sorted(KNOWN), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        runs = []
        for i in range(args.repeat):
            res = one_run(name, args.seed + i, args.seconds, 0)
            runs.append(res)
            print(f"# {name} seed {res['seed']}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in res["metrics"].items()),
                file=sys.stderr)
        traced = one_run(name, args.seed, args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "why": WORKLOADS[name].why, "roadmap": WORKLOADS[name].roadmap,
            "noise": WORKLOADS[name].noise,
            "seeds": [r["seed"] for r in runs],
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "failures": sorted({f for r in runs for f in r["failures"]}),
            "end_to_end": {k: dict(_summary([r["metrics"][k] for r in runs]),
                                   unit=u, samples_per_run=[
                                       1 if k == "peak_rss_mb"
                                       else r["samples"]["setup" if k == "setup_s"
                                                         else "job"]
                                       for r in runs])
                           for k, u in END_TO_END},
            "runs": [{k: r[k] for k in ("seed", "attempted", "failed",
                                        "metrics", "raw")} for r in runs],
            "per_layer": traced["metrics"],
            "traced_samples": traced["samples"],
            "sidecar": traced["sidecar"],
        }
        record["workloads"][name] = entry
        ok = all(r["correct"] for r in runs + [traced])
        if not ok or (name != "classical-cli" and failed):
            status = 1
        print(f"\n{name}  ({WORKLOADS[name].why})")
        print(f"  fail_ratio  {failed}/{attempted} = {failed / attempted:.4f}"
              + (f"  [{'; '.join(entry['failures'])}]" if failed else ""))
        for k, u in END_TO_END:
            s = entry["end_to_end"][k]
            n = s["samples_per_run"]
            print(f"  {k:12s} {s['median']:.4f} {u:4s} median of "
                  f"{s['runs']} run(s), q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
                  f"spread {s['spread']:.3f}; samples per run "
                  f"{min(n)}-{max(n)}")
        print(f"  traced run: {traced['samples']}, overhead "
              f"{traced['metrics']['trace.overhead_s']:.4f} s per job, "
              f"spans in {traced['sidecar']}")
        for k, v in traced["metrics"].items():
            print(f"    {k} = {v:.6g}")
    print(f"\nmachine: {record['machine']}")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload without --workload")
    ap.add_argument("--record", help="write the result record to this path")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "liebialg", "cli.py")):
        print("error: no liebialg sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return all_workloads(args)
        res = one_run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    m = machine(cpu=False)
    print(f"# {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['attempted']} jobs, {res['failed']} failed "
          f"({', '.join(res['failures']) or 'none'}); samples "
          f"{res['samples']}; nproc {m['nproc']}, python {m['python']}, "
          f"revision {m['revision']}")
    print(result_line(res))
    return 0 if res["correct"] and (res["workload"] == "classical-cli"
                                    or not res["failed"]) else 1


if __name__ == "__main__":
    sys.exit(main())
