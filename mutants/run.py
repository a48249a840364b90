"""Mutation run: apply each catalogue mutant to a copy of the checkout, run Tier-1 on it.

Run from the root of a checkout:

    python3 mutants/run.py           # every mutant of catalogue.py
    python3 mutants/run.py --list    # the catalogue only

The checkout (without .git, caches and the harness) is copied once to a temporary
directory.  Tier-1 (``python -m pytest -q -x``, with ``PYTHONPATH`` at the
copy's ``src``) must first pass there unmutated, else no mutant can be scored.
Then each mutant in turn rewrites its one line in the copy, Tier-1 runs, and
the line is restored.  A mutant is killed when Tier-1 fails or runs past
``LIMIT_S`` seconds, and survives when it passes.  One line per mutant is printed,
then the survivors.  Exit status: 0 if every survivor has an equivalence
reason in the catalogue, 1 if one has none, 2 if the baseline fails or a
mutant's text does not occur exactly once.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from catalogue import MUTANTS, Mutant  # noqa: E402  (stdlib-only module next to this one)

# not copied: the harness itself, and its catalogue test, which fails on any mutated
# source (the mutant's text no longer occurs) and would count every mutant as killed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_work", "mutants",
                              "test_mutants.py")
LIMIT_S = 900.0  # seconds per Tier-1 run; a mutant that hangs it counts as killed


class CatalogueError(RuntimeError):
    pass


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's one-line change; CatalogueError unless it applies once."""
    if "\n" in mutant.old or mutant.old == mutant.new:
        raise CatalogueError(f"{mutant.name}: old text must be one line and differ from new")
    count = text.count(mutant.old)
    if count != 1:
        raise CatalogueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def tier1(copy: str) -> tuple[str, float, str]:
    """Run Tier-1 in ``copy``: ("passed" | "failed" | "timeout", seconds, first failure line)."""
    # no bytecode caches: a mutant of the same length as its line, written within the
    # second of the last import, would otherwise run from the stale cache
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", time.perf_counter() - t0, ""
    seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return "passed", seconds, ""
    first = next((line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))),
                 out.strip().splitlines()[-1] if out.strip() else f"exit {proc.returncode}")
    return "failed", seconds, first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--list", action="store_true", help="list the catalogue and exit")
    args = p.parse_args(argv)

    if args.list:
        for m in MUTANTS:
            print(f"{m.name:28s} {m.path}: {m.old!r} -> {m.new!r}")
        return 0
    try:
        texts = {m.name: mutated(m, open(os.path.join(ROOT, m.path)).read()) for m in MUTANTS}
    except CatalogueError as exc:
        print(exc, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        status, seconds, first = tier1(copy)
        print(f"baseline  {status:8s} {seconds:6.1f} s", flush=True)
        if status != "passed":
            print(f"the unmutated copy does not pass Tier-1: {first}", file=sys.stderr)
            return 2
        survivors = []
        for m in MUTANTS:
            path = os.path.join(copy, m.path)
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(texts[m.name])
            try:
                status, seconds, first = tier1(copy)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            verdict = "survived" if status == "passed" else "killed"
            print(f"{verdict:9s} {m.name:28s} {seconds:6.1f} s  {first}", flush=True)
            if status == "passed":
                survivors.append(m)
    unexplained = [m for m in survivors if not m.equivalent.strip()]
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; "
          f"{len(survivors)} survived, {len(unexplained)} without an equivalence reason")
    for m in survivors:
        print(f"  {m.name}: {m.equivalent or 'NO EQUIVALENCE REASON'}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
