"""One workload process: set up, time passes, check them, report one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``ready`` as soon as the workload's inputs exist (run.py times the
set-up from process start to that line), then, unless ``--setup-only``,
runs passes until ``--seconds`` have elapsed and prints the result as one
JSON line.  With ``--trace 0`` it also times ``SETUP_SAMPLES - 1`` fresh
``--setup-only`` processes, spread between the passes so that the
``setup_s`` median sees the machine over the whole run, not at one moment.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the denominator of ``trace.overhead``, the traced ones the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import torusbayes

import metrics
import tracer
import workloads

SETUP_SAMPLES = 10      # set-up timings per run, the worker's own included


def _fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _time_setup(args) -> float:
    """Seconds from starting a ``--setup-only`` worker until it prints ``ready``."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", args.workdir, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or first.strip() != "ready":
        raise RuntimeError(f"set-up-only process exited with code {code}")
    return ready_s


def _one_pass(wl, passdir, traced: bool) -> dict:
    plan = wl.prepare(passdir)
    rec = {"traced": traced}
    tr = tracer.Tracer() if traced else None
    try:
        if traced:
            with tracer.instrument(tr) as missing:
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                root = tr.open(tracer.ROOT)
                try:
                    out = wl.run(plan)
                finally:
                    tr.close(root)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            rec["layers"] = metrics.layer_metrics(tracer.summarize(tr.spans, root), wall, cpu)
            rec["missing"] = missing
        else:
            t0 = time.perf_counter()
            out = wl.run(plan)
            wall = time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
        rec.update(wall=None, digest=None, problems=[traceback.format_exc(limit=3)])
        return rec
    rec["wall"] = wall
    rec["digest"], rec["problems"] = wl.check(passdir, out)
    return rec


def _layer_summary(traced: list[dict], untraced_walls: list[float]) -> dict:
    names = traced[0]["layers"].keys()
    out = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    iters = [r["layers"]["posterior.pcg_iters"] for r in traced]
    out["posterior.pcg_iters_spread"] = max(iters) - min(iters)
    walls = [r["layers"]["trace.wall_s"] for r in traced]
    out["trace.overhead"] = statistics.median(walls) / statistics.median(untraced_walls) - 1.0
    for target in traced[0]["missing"]:
        for n in metrics.FED_BY[tracer.KEY_OF[target]]:
            out.pop(n, None)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(torusbayes.__file__).startswith(src + os.sep):
        print(f"torusbayes imported from {torusbayes.__file__}, not from {src}", file=sys.stderr)
        return 2
    leaked = [k for k in os.environ if k.startswith("TORUSBAYES_")]
    if leaked:
        print(f"environment overrides leaked into the workload: {leaked}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        records = []
        setup = []
        want = 0 if args.trace else SETUP_SAMPLES - 1
        start = time.perf_counter()
        min_passes = 2 if args.trace else 1
        while len(records) < min_passes or time.perf_counter() - start < args.seconds:
            passdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(_one_pass(wl, passdir, traced))
            shutil.rmtree(passdir, ignore_errors=True)
            elapsed = time.perf_counter() - start
            due = want if elapsed >= args.seconds else int(want * elapsed / args.seconds)
            while len(setup) < due:
                setup.append(_time_setup(args))
        while len(setup) < want:
            setup.append(_time_setup(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            final = wl.final_check()
        except Exception:  # noqa: BLE001 - reported as a failed check
            final = [traceback.format_exc(limit=3)]
        first = records[0]["digest"]
        for rec in records:
            if rec["digest"] is not None and rec["digest"] != first:
                rec["problems"].append("outputs differ from the first pass")
            rec["problems"].extend(final)
        failed = [r for r in records if r["problems"]]
        untraced = [r for r in records if not r["traced"] and r["wall"] is not None]
        passing = [r["wall"] for r in untraced if not r["problems"]]
        run_walls = passing or [r["wall"] for r in untraced]

        result = {
            "correct": not failed and first is not None,
            "attempted": len(records),
            "failed": len(failed),
            "run_s_samples": [r["wall"] for r in untraced],
            "setup_samples": setup,
            "missing": next((r["missing"] for r in records if "missing" in r), []),
            "problems": sorted({msg for r in failed for msg in r["problems"]}),
            "report": wl.report(),
            "fingerprint": _fingerprint(),
        }
        if args.trace:
            traced = [r for r in records if r["traced"] and r["wall"] is not None]
            if traced and run_walls:
                result["layers"] = _layer_summary(traced, run_walls)
        else:
            result["run_s"] = statistics.median(run_walls) if run_walls else None
            result["peak_rss_mb"] = peak_rss_mb
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
