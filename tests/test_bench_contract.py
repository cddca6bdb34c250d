"""The names the benchmark in `bench/` wraps or calls still exist in the package.

`bench/tracer.py` wraps functions by module and name, and `bench/workloads.py`
calls the library through `lib.tf`, `lib.serialize` and `lib.groups`.  A
rename or deletion in `src/` breaks the benchmark without failing any other
test; these checks catch it.  The bench files are read, never modified.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import traceforms
from traceforms.algebra import RationalPoly

BENCH = Path(__file__).resolve().parent.parent / "bench"

# what `bench/run.py`'s load_library binds to each `lib.<namespace>`
LIB_MODULES = {"tf": "traceforms", "serialize": "traceforms.serialize", "groups": "traceforms.groups"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespace(node):
    """`<namespace>` when node is `lib.<namespace>`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lib":
        return node.attr
    return None


def _lib_names():
    """(namespace, name) for every `lib.<namespace>.<name>` in workloads.py,
    also through local aliases such as `ser = lib.serialize`."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = {
        node.targets[0].id: _namespace(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and _namespace(node.value)
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        namespace = _namespace(node.value)
        if namespace is None and isinstance(node.value, ast.Name):
            namespace = aliases.get(node.value.id)
        if namespace is not None:
            found.add((namespace, node.attr))
    return found


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for prefix, module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), prefix
        else:
            assert callable(getattr(owner, attr)), prefix


def test_workload_library_names_exist():
    names = _lib_names()
    assert {("tf", "generic_experiment"), ("serialize", "rational_to_str")} <= names  # calls and aliases found
    for namespace, name in sorted(names):
        assert namespace in LIB_MODULES, namespace
        assert hasattr(importlib.import_module(LIB_MODULES[namespace]), name), f"lib.{namespace}.{name}"


def test_workload_call_shapes():
    x = RationalPoly((0, 1))
    sample = traceforms.CycleTypeSample(x, {(1,): 2}, 2, 1)
    assert (sample.f, sample.counts, sample.primes_used, sample.primes_skipped) == (x, {(1,): 2}, 2, 1)
    assert issubclass(traceforms.BadPrime, Exception)
    # workloads.py compares verdicts with these literals
    assert (traceforms.CERTIFIED, traceforms.INCONCLUSIVE) == ("certified", "inconclusive")
