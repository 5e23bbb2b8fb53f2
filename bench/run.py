#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload wave|xi|stphase --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``src/``.  Every
op is checked; failures are counted and the run goes on.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``failed`` counts ops that failed and
are not listed in ``known_failures.json``; the listed ones still lower
``passed_frac``.  A fuller record of the run (environment, every op, and for
traced runs every span) is written under ``bench/out/``.

A run executes passes over the seed's op grid until the next pass would end
after ``--seconds``; it always makes at least one.  A traced run makes one
untraced pass, then one traced pass on freshly built objects, and checks that
both wrote byte-identical op outputs.
"""

import os
import sys
import time

# one thread everywhere, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SYMPWAVE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MEMORY_CAP = 2 << 30     # address-space cap of the workload process, bytes
SETUP_SAMPLES = 9

USAGE = ("usage: bench/run.py --workload wave|xi|stphase --seed N --seconds S "
         "--trace 0|1 [--size full|smoke]")


class BenchError(Exception):
    """The benchmark cannot run here (bad arguments, program missing)."""


def parse_args(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0",
            "--size": "full", "--setup-child": None}
    it = iter(argv)
    for arg in it:
        if arg not in opts:
            raise BenchError(f"unknown argument {arg!r}\n{USAGE}")
        opts[arg] = next(it, None)
        if opts[arg] is None:
            raise BenchError(f"{arg} needs a value\n{USAGE}")
    if opts["--setup-child"] is not None:
        return opts
    try:
        args = {"workload": opts["--workload"], "seed": int(opts["--seed"]),
                "seconds": float(opts["--seconds"]), "trace": int(opts["--trace"]),
                "size": opts["--size"]}
    except (TypeError, ValueError):
        raise BenchError(USAGE) from None
    if (args["workload"] not in ("wave", "xi", "stphase") or args["trace"] not in (0, 1)
            or args["size"] not in ("full", "smoke") or args["seconds"] <= 0):
        raise BenchError(USAGE)
    return args


def import_program():
    """Import sympwave from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import sympwave
    except ImportError as exc:
        raise BenchError(f"cannot import sympwave from {SRC}: {exc}") from None
    if not os.path.abspath(sympwave.__file__).startswith(SRC + os.sep):
        raise BenchError(f"sympwave imported from {sympwave.__file__}, not {SRC}")
    return sympwave


def setup_child(workload):
    """One set-up sample: import plus shared objects, timed from a fresh interpreter."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    workloads.setup(workload)
    print(repr(time.perf_counter() - t0))


def setup_samples(workload, count):
    import subprocess
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-child", workload],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args):
    import platform
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args["seed"],
        "workload": args["workload"],
        "seconds": args["seconds"],
        "size": args["size"],
        "memory_cap_bytes": MEMORY_CAP,
        "loadavg_start": list(os.getloadavg()),
    }


def run_pass(ops, csv_path):
    """Time every op once, check it, and emit the outputs; returns (wall, records)."""
    import numpy as np
    import sympwave as sw
    from workloads import flat

    wall = 0.0
    results = []
    rows = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:   # a failed op is counted, never fatal
            dt = time.perf_counter() - t0
            wall += dt
            results.append({"op": op.name, "seconds": dt, "status": "raised",
                            "error": f"{type(exc).__name__}: {exc}"[:200]})
            rows.append(sw.SweepRecord(inputs=(("op", i), ("k", 0)),
                                       outputs=(("value", complex(np.nan, np.nan)),)))
            continue
        dt = time.perf_counter() - t0
        wall += dt
        vals = op.values(value) if op.values else flat(value)
        rows.extend(sw.SweepRecord(inputs=(("op", i), ("k", k)), outputs=(("value", complex(v)),))
                    for k, v in enumerate(vals))
        rec = {"op": op.name, "seconds": dt}
        if not np.all(np.isfinite(vals)):
            rec["status"] = "nonfinite"
        else:
            check = op.check(value)
            rec.update(err=check.err, tol=check.tol, digits=check.digits,
                       status="passed" if check.passed else "missed")
        results.append(rec)
    t0 = time.perf_counter()
    sw.emit(rows, "csv", csv_path)
    wall += time.perf_counter() - t0
    return wall, results


def main(argv):
    args = parse_args(argv)
    if args.get("--setup-child") is not None:
        setup_child(args["--setup-child"])
        return 0
    import_program()
    import json
    import math
    import resource
    import statistics

    import workloads
    from tracing import LAYER_METRICS, Tracer, WarningCounter

    workload, seed = args["workload"], args["seed"]
    env = environment(args)
    setup = setup_samples(workload, SETUP_SAMPLES) if not args["trace"] else []
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    known = {k["op"] for k in workloads.load_json("known_failures.json")["ops"].get(workload, [])}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{args['trace']}")
    walls, passes = [], []
    with WarningCounter() as warn:
        objs = workloads.setup(workload)
        ops = workloads.build_ops(workload, seed, objs, args["size"])
        start = time.perf_counter()
        while True:
            wall, results = run_pass(ops, stem + "-untraced.csv")
            walls.append(wall)
            passes.append(results)
            elapsed = time.perf_counter() - start
            if args["trace"] or elapsed + wall > args["seconds"]:
                break
        warnings_untraced = warn.total
        if args["trace"]:
            tracer = Tracer()
            warn.tracer = tracer
            tracer.install()
            try:
                traced_objs = workloads.setup(workload)
                traced_ops = workloads.build_ops(workload, seed, traced_objs, args["size"])
                traced_wall, traced_results = run_pass(traced_ops, stem + "-traced.csv")
            finally:
                tracer.uninstall()
                warn.tracer = None
            passes.append(traced_results)

    attempted = sum(len(p) for p in passes)
    passed = sum(r["status"] == "passed" for p in passes for r in p)
    unexpected = [r for p in passes for r in p
                  if r["status"] != "passed" and r["op"] not in known]
    digits = [r["digits"] for p in passes for r in p if "digits" in r]
    correct = not unexpected
    for r in passes[0]:
        if r["status"] != "passed":
            tag = "known" if r["op"] in known else "UNEXPECTED"
            detail = r.get("error") or f"err {r.get('err', math.nan):.3g}, tol {r.get('tol', math.nan):.3g}"
            print(f"# failed ({tag}) {r['op']}: {r['status']}: {detail}")

    if args["trace"]:
        with open(stem + "-untraced.csv", "rb") as a, open(stem + "-traced.csv", "rb") as b:
            identical = a.read() == b.read()
        if not identical:
            correct = False
            print("# traced and untraced op outputs differ")
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = traced_wall / walls[0] - 1.0
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        tracer.save(stem + "-spans.npz")
        extra = {"layers": layer, "accuracy_warnings_by_layer": tracer.warnings,
                 "outputs_identical": identical}
    else:
        total_wall = sum(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": passed / total_wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "passed_frac": {"value": passed / attempted, "unit": "ratio"},
            "accuracy_digits": {"value": statistics.median(digits), "unit": "decades"},
        }
        extra = {"setup_samples": setup, "pass_walls": walls}

    env["loadavg_end"] = list(os.getloadavg())
    result = {"correct": correct, "attempted": attempted, "failed": len(unexpected),
              "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "result": result, "accuracy_warnings_untraced": warnings_untraced,
                   "ops": passes[0], **extra}, fh, indent=1)
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(2)
