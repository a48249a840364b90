"""torusbayes benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map-sweep --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

One workload prints an information line and then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (``run_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones from a separate traced run.  See perfbench/README.md.

Each workload runs in its own process, started with every ``TORUSBAYES_*``
variable removed and ``PYTHONPATH`` set to the checkout's ``src``, so no
environment override reaches ``config.apply_env``.  ``setup_s`` is the
median over several fresh processes, spread over the run, of the time from
process start until the workload's inputs are ready.  Temporary files go to
``.bench_work`` inside the checkout and are removed afterwards.  CPU
governor, pinning and page cache are left as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("map-sweep", "contraction", "dense-vc")
TIME_MARGIN_S = 140.0   # allowed beyond --seconds: set-up, the last pass, final checks

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER  # noqa: E402  (stdlib-only module chain)


class BenchError(RuntimeError):
    pass


def _child_env(root: str, workroot: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TORUSBAYES_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workroot
    return env


def _spawn(argv, env, cwd, limit_s):
    """Run one worker; returns (seconds until its 'ready' line, last stdout line).

    The worker gets a session of its own, so killing it at the time limit
    also stops the set-up processes it starts.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(limit_s, kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"workload process exited with code {code}")
    return ready_s, (rest[-1] if rest else "")


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workroot = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_work"))
    try:
        env = _child_env(root, workroot)
        argv = ["--workload", name, "--seed", str(seed), "--workdir", workroot,
                "--seconds", str(seconds), "--trace", str(trace)]
        ready_s, line = _spawn(argv, env, root, seconds + TIME_MARGIN_S)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass  # another run is still using it
    try:
        res = json.loads(line)
    except ValueError as exc:
        raise BenchError(f"workload printed no result: {exc}") from exc
    res["setup_samples"].insert(0, ready_s)
    if trace:
        values = res.get("layers", {})
        units = PER_LAYER
    else:
        values = {"run_s": res["run_s"], "setup_s": statistics.median(res["setup_samples"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
    res["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    return res


def _print_summary(name, res):
    print(f"== {name}: {res['failed']}/{res['attempted']} passes failed "
          f"(failure share {res['failed'] / res['attempted']:.3g})")
    for k, m in res["metrics"].items():
        extra = f"  (median of {len(res['run_s_samples'])} passes)" if k == "run_s" else ""
        print(f"   {k:30s} {m['value']:>14.6g} {m['unit']}{extra}")
    if res["missing"]:
        print(f"   NOT TRACED (metrics absent): {', '.join(res['missing'])}")
    for problem in res["problems"]:
        print(f"   FAILED CHECK: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torusbayes", "__init__.py")):
        print("error: src/torusbayes not found; run from the root of a torusbayes checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            res = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
            info = {k: res[k] for k in ("run_s_samples", "setup_samples", "problems",
                                        "missing", "report", "fingerprint")}
            info["failure_share"] = res["failed"] / res["attempted"]
            print(json.dumps({"info": info}))
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        fingerprint = None
        for name in WORKLOADS:
            for trace in (0, 1):
                res = run_workload(root, name, args.seed, args.seconds, trace)
                fingerprint = res["fingerprint"]
                _print_summary(f"{name} (trace {trace})", res)
                if res["report"]:
                    print(f"   slopes (reported, not gated): {json.dumps(res['report'])}")
        print(f"machine: {json.dumps(fingerprint)}")
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
