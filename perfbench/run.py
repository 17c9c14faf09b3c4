"""Benchmark of the idarr command line: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {fredholm,deblur,timing,solve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout of the repository. Each workload instance
runs in a fresh, single Python process (perfbench/child.py) that calls
``idarr.cli.main``, one caller at a time (closed loop), with one BLAS thread
and IDARR_THREADS unset. Instances repeat until the next one would end past
``--seconds``, with at least MIN_INSTANCES of them; timings are medians.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics declared in BENCHMARK.json. With ``--trace 1``,
untraced and traced instances alternate: the traced ones give the per-layer
metrics, and ``trace.overhead_s`` is the traced minus the untraced median
wall time. Every instance's outputs are checked; the exit code is 1 when a
check fails and 2 when the checkout lacks the program. Each run's record
(versions, core count, BLAS setting, seed, samples) is stored under
``.perfbench_out/results``; the last traced run's spans of each workload
under ``.perfbench_out/<workload>.trace.jsonl``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("IDARR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_INSTANCES = 3           # untraced run
MIN_TRACED_INSTANCES = 2    # traced run: one untraced, one traced
HARD_LIMIT_S = 170.0        # the whole run must end within 180 s
P90_MIN_SAMPLES = 100       # a p90 needs at least ten samples beyond it


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_record(workload, seed, seconds, trace):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "blas": blas, "numpy": np.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(spec, path, timeout):
    """Run one instance in a fresh process; returns (result, None) or (None, error)."""
    with open(path + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), path + ".spec.json"],
                              cwd=os.path.dirname(path), env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None, f"instance timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None, f"instance process exited {proc.returncode}: {proc.stderr[-500:]}"
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), None


def measure(workload, args, workdir):
    """Run instances for the time budget; returns the list of checked instances."""
    instances = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(instances) % 2 == 1
        idir = os.path.join(workdir, f"i{len(instances)}")
        os.makedirs(idir)
        spec = {
            "argvs": workload.argvs(idir), "trace": traced, "capture": workload.capture,
            "result": os.path.join(idir, "result.json"),
            "trace_out": os.path.join(idir, "trace.jsonl") if traced else None,
        }
        t0 = time.perf_counter()
        remaining = HARD_LIMIT_S - (t0 - START)
        result, error = run_child(spec, os.path.join(idir, "instance"), remaining)
        duration = time.perf_counter() - t0
        if result is None:
            instances.append({"traced": traced, "duration": duration, "error": error})
            break
        if not result["idarr_file"].startswith(SRC + os.sep):
            raise SystemExit(f"instance imported idarr from {result['idarr_file']}, not {SRC}")
        outcome = workload.check(idir, result["commands"], result["solutions"])
        instances.append({"traced": traced, "duration": duration, "result": result,
                          "outcome": outcome})
        if traced:
            os.replace(spec["trace_out"], os.path.join(OUT, f"{workload.name}.trace.jsonl"))
        shutil.rmtree(idir)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(i["duration"] for i in instances)
        needed = MIN_TRACED_INSTANCES if args.trace else MIN_INSTANCES
        if len(instances) >= needed and elapsed + typical > args.seconds:
            break
        if time.perf_counter() - START + 1.5 * max(i["duration"] for i in instances) > HARD_LIMIT_S:
            break
    return instances


def end_to_end(instances):
    """Every end-to-end metric plus the extras that apply only to some workloads."""
    done = [i for i in instances if "result" in i]
    iter_ms = [v for i in done for v in i["outcome"].iter_ms]
    direct_ms = [v for i in done for v in i["outcome"].direct_ms]
    rel = [v for i in done for v in i["outcome"].rel_errors]
    metrics = {
        "wall_s": statistics.median(i["result"]["wall_s"] for i in done),
        "setup_s": statistics.median(i["result"]["setup_s"] for i in done),
        "solves_per_s": statistics.median(i["outcome"].solves / i["result"]["wall_s"]
                                          for i in done),
        "iter_solve_ms_p50": statistics.median(iter_ms),
        "peak_rss_mb": statistics.median(i["result"]["peak_rss_mb"] for i in done),
        "rel_error_median": statistics.median(rel),
    }
    extras = {"instances": (len(done), "count"), "iter_solves": (len(iter_ms), "count"),
              "direct_solves": (len(direct_ms), "count")}
    if len(iter_ms) >= P90_MIN_SAMPLES:
        extras["iter_solve_ms_p90"] = (float(np.percentile(iter_ms, 90)), "ms")
    if direct_ms:
        extras["direct_solve_ms_p50"] = (statistics.median(direct_ms), "ms")
    if len(direct_ms) >= P90_MIN_SAMPLES:
        extras["direct_solve_ms_p90"] = (float(np.percentile(direct_ms, 90)), "ms")
    return metrics, extras


def per_layer(instances):
    """Median over traced instances of every layer metric, and the tracing overhead."""
    traced = [i["result"] for i in instances if i["traced"] and "result" in i]
    plain = [i["result"] for i in instances if not i["traced"] and "result" in i]
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.exists(os.path.join(SRC, "idarr", "cli.py")):
        print(f"error: no idarr sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    e2e_units, layer_units = declared_metrics()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](ROOT)
        workload.prepare(workdir, args.seed)
        instances = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    attempted = sum(i["outcome"].attempted for i in instances if "outcome" in i)
    failed = sum(i["outcome"].failed for i in instances if "outcome" in i)
    problems = [p for i in instances for p in (i["outcome"].problems if "outcome" in i
                                               else [i["error"]])]
    if any("error" in i for i in instances):
        attempted, failed = attempted + 1, failed + 1
    correct = failed == 0 and bool(attempted)
    extras = {"fail_frac": (failed / max(attempted, 1), "ratio")}
    metrics = {}
    if correct:
        if args.trace:
            values, units = per_layer(instances), layer_units
        else:
            values, more = end_to_end(instances)
            extras.update(more)
            units = e2e_units
        missing = sorted(set(units) - set(values))
        if missing:
            raise SystemExit(f"metrics declared but not measured: {missing}")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    with open(os.path.join(OUT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics,
                   "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                   "problems": problems,
                   "instances": [{"traced": i["traced"], "duration": i["duration"],
                                  "wall_s": i["result"]["wall_s"] if "result" in i else None}
                                 for i in instances]}, fh, indent=1)

    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extras.items():
        print(f"{name:<32} {value:.6g} {unit}  (not gated)")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
