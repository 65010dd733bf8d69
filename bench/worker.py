"""One workload in one fresh interpreter: set up, then a closed loop of jobs.

Run by `bench/run.py`; prints one JSON object as its last stdout line.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The loop runs one client with no threads: it starts the next unit only after
the previous one ended, and starts none after `--seconds`.  With `--trace 1`
untraced and traced units alternate (at least one of each), so the tracing
overhead is measured in the same process.  Every command goes through
`liebialg.cli.main`, the path users take, with stdout captured and a `--json`
report written under `.bench_out/`; after the clock stops, both are checked
against the reference.  Trace spans go to a sidecar file there as well.
A speed probe runs after set-up, before every unit and after the last one,
so that `run.py` can scale each job's CPU time to a reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def set_up():
    """Import the program, build the Schrodinger algebra and parse every
    packaged table once.  Returns (cli module, CPU seconds it took)."""
    t0 = time.process_time()
    sys.path.insert(0, SRC)
    import liebialg
    from liebialg import cli, formats, schrodinger
    if os.path.dirname(os.path.abspath(liebialg.__file__)) != \
            os.path.join(SRC, "liebialg"):
        raise SystemExit(f"liebialg imported from {liebialg.__file__}, "
                         f"not from {SRC}")
    L = schrodinger.algebra()
    names = sorted(os.listdir(os.path.join(SRC, "liebialg", "tables")))
    texts = {name: formats.load_table(name) for name in names}
    algebras = {name: formats.parse_algebra(text)
                for name, text in texts.items() if name.endswith(".alg")}
    for name, text in texts.items():
        kind = name.rsplit(".", 1)[-1]
        if kind == "rmat":
            formats.parse_rmatrix(text, L)
        elif kind == "delta":
            # target families are self-contained: they embed their algebra
            formats.parse_delta(text, None if "generators:" in text else L)
        elif kind == "eqs":
            formats.parse_eqs(text)
        elif kind == "subs":
            formats.parse_subs(text)
        elif kind == "ptable":
            formats.parse_ptable(text)
        elif kind == "map":
            source = (algebras["twophoton.alg"] if name == "twophoton_iso.map"
                      else L)
            formats.parse_map(text, source)
    return cli, time.process_time() - t0


def run_command(cli, argv, json_path):
    """Run one command through `cli.main`; returns its outcome."""
    buf = io.StringIO()
    err = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv) + ["--json", json_path])
    except Exception as exc:       # a raising command is a failed job
        code, err = None, f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    report = b""
    if err is None:
        with open(json_path, "rb") as fh:
            report = fh.read()
    return {"cpu": cpu, "wall": wall, "code": code, "stdout": buf.getvalue(),
            "report": report, "error": err}


def probe():
    """CPU seconds of a fixed stdlib-only computation that gauges the
    machine's current speed: two sparse products of 144-term polynomials
    with Fraction coefficients, the kind of arithmetic the program does.  It
    uses nothing from the program, so its time changes only with the
    machine, and it allocates too little to move the peak RSS."""
    t0 = time.process_time()
    for _ in range(2):
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
        out = {}
        for (i, j), c in a.items():
            for (k, l), d in a.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
    return time.process_time() - t0


def closed_loop(cli, workload, args, tracer, json_path, before):
    """Run units until `--seconds` of wall time have passed.

    A probe runs before every unit (`before` is the first) and after the
    last one; each job records the mean of the two probes around its unit.
    Returns (jobs, tracer stats of the traced units).
    """
    ref = reference.load()
    pristine = tracing.bindings()
    jobs = []
    traced_stats = []
    unit_iter = workload.units(args.seed)
    wall0 = time.perf_counter()
    n = 0
    while True:
        traced = bool(tracer) and n % 2 == 1
        if traced:
            tracer.reset_stats()
            tracer.install()
        elif not tracing.same_bindings(pristine, tracing.bindings()):
            raise SystemExit("a wrapper outlived its traced unit")
        first = len(jobs)
        try:
            for job in next(unit_iter):
                if tracer:
                    tracer.job = len(jobs)
                outcomes = [(cmd, run_command(cli, cmd, json_path))
                            for cmd in job]
                failure = next((f for f in (reference.check(ref, cmd, o)
                                            for cmd, o in outcomes) if f),
                               None)
                jobs.append({
                    "traced": traced,
                    "cpu": sum(o["cpu"] for _, o in outcomes),
                    "wall": sum(o["wall"] for _, o in outcomes),
                    "failure": failure,
                    "commands": [reference.command_id(c) for c, _ in outcomes],
                })
        finally:
            if traced:
                tracer.restore()
        if traced:
            traced_stats.append(tracer.stats())
        after = probe()
        for job in jobs[first:]:
            job["probe"] = (before + after) / 2
        before = after
        n += 1
        done = time.perf_counter() - wall0 >= args.seconds
        if done and (not tracer or n >= 2):
            return jobs, traced_stats


def run(args):
    cli, setup_s = set_up()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    json_path = os.path.join(OUT, f"report-{os.getpid()}.json")
    tracer = tracing.Tracer() if args.trace else None
    first_probe = probe()
    try:
        jobs, per_unit = closed_loop(cli, workload, args, tracer, json_path,
                                     first_probe)
    finally:
        if os.path.exists(json_path):
            os.remove(json_path)

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "probe": first_probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "jobs": jobs,
    }
    if tracer:
        result["layers"] = layer_summary(per_unit)
        sidecar = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_sidecar(sidecar, {
            "workload": args.workload, "seed": args.seed,
            "jobs": result["jobs"], "per_unit": per_unit})
        result["sidecar"] = os.path.relpath(sidecar, ROOT)
    print(json.dumps(result))


def layer_summary(per_unit):
    """Per-layer figures of one traced unit.  Counts and ratios must repeat
    exactly from unit to unit; times are the median over traced units."""
    out = {}
    for key in per_unit[0]:
        values = [u[key] for u in per_unit]
        if key.endswith("_s") or key.endswith(".s"):
            out[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                raise SystemExit(f"{key} differs between traced units: {values}")
            out[key] = values[0]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.setup_only:
        _, setup_s = set_up()
        print(json.dumps({"setup_s": setup_s, "probe": probe()}))
        return
    if not args.workload:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
