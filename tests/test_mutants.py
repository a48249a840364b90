"""The mutant catalogue of mutants/ stays applicable to the source it mutates."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module(name, file):
    """Load mutants/<file> as ``name``, registered first (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "mutants", file))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catalogue = _module("catalogue", "catalogue.py")  # the name run.py imports it by
run = _module("mutants_run", "run.py")


def test_names_are_unique():
    names = [m.name for m in catalogue.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", catalogue.MUTANTS, ids=lambda m: m.name)
def test_mutant_changes_one_line_once(mutant):
    with open(os.path.join(ROOT, mutant.path)) as fh:
        text = fh.read()
    out = run.mutated(mutant, text)
    changed = [(a, b) for a, b in zip(text.splitlines(), out.splitlines()) if a != b]
    assert len(changed) == 1 and len(out.splitlines()) == len(text.splitlines())


def test_text_found_twice_is_refused():
    mutant = catalogue.Mutant("twice", "x.py", "a = 1", "a = 2")
    with pytest.raises(run.CatalogueError, match="2 times"):
        run.mutated(mutant, "a = 1\na = 1\n")


def test_copy_leaves_out_the_harness_and_its_test():
    # the catalogue test fails on every mutated source, so it must not run in the copy
    names = ["mutants", "test_mutants.py", "src", "tests", "test_posterior.py"]
    assert run.SKIP("", names) == {"mutants", "test_mutants.py"}
