"""Guard for the benchmark's traced run and its pinned cells.

``perfbench/tracer.py`` replaces gatemem functions at the module
attributes their callers look them up through, and its attribute readers
bind call arguments by name.  A refactor that drops one of those import
sites, or renames a parameter a reader binds, must fail here rather than
in the benchmark.  The same holds for the arguments the benchmark's
workloads pass to gatemem's functions, and for the reconstructions and
CP violations that ``perfbench/reference.json`` pins.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name: str, **imports):
    """``perfbench/<name>.py`` as a module, loaded read-only; ``imports``
    are the modules its own ``import`` statements find by those names."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    added = {spec.name: module, **imports}
    sys.modules.update(added)  # dataclasses resolve the defining module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        for key in added:
            del sys.modules[key]
    return module


tracer = _load("tracer")


def _bound_names(reader) -> set[str]:
    """Argument names an attribute reader looks up on the bound call."""
    if reader is None:
        return set()
    return set(re.findall(r'arguments\["(\w+)"\]', inspect.getsource(reader)))


@pytest.mark.parametrize("module_name, attr, span, reader", tracer.SITES,
                         ids=[f"{m}.{a}" for m, a, _, _ in tracer.SITES])
def test_traced_site_exists_with_bound_parameters(module_name, attr, span, reader):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} is gone"
    names = _bound_names(reader)
    if span == "errprop.propagate_statistics":  # the wrapper swaps in a per-trial closure
        names |= _bound_names(tracer.Tracer._wrap)
    assert names <= set(inspect.signature(target).parameters)


def test_readers_bind_the_expected_names():
    # the guard above is only as strong as the name extraction
    readers = {attr: reader for _, attr, _, reader in tracer.SITES}
    assert _bound_names(readers["mle_estimate"]) == {"records"}
    assert _bound_names(readers["avg_trace_distance"]) == {"m_samples"}
    assert _bound_names(readers["dump_json"]) == {"path"}
    assert _bound_names(tracer.Tracer._wrap) == {"pipeline"}


def _workload_calls():
    """(module, function, positional count, keyword names, line) of each
    ``nonmarkov.*``, ``pipeline.*`` or ``errprop.*`` call in the
    benchmark's workloads, read from the source without importing it."""
    with open(os.path.join(PERFBENCH, "workloads.py")) as handle:
        tree = ast.parse(handle.read())
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("nonmarkov", "pipeline", "errprop")):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            calls.append((func.value.id, func.attr, len(node.args),
                          [k.arg for k in node.keywords], node.lineno))
    return calls


WORKLOAD_CALLS = _workload_calls()


@pytest.mark.parametrize("module_name, attr, n_positional, keywords, line", WORKLOAD_CALLS,
                         ids=[f"{m}.{a}:{line}" for m, a, _, _, line in WORKLOAD_CALLS])
def test_workload_call_binds_to_signature(module_name, attr, n_positional, keywords, line):
    target = getattr(importlib.import_module(f"gatemem.{module_name}"), attr, None)
    assert callable(target), f"{module_name}.{attr} (workloads.py:{line}) is gone"
    # raises TypeError for a removed keyword or one positional argument too many
    inspect.signature(target).bind_partial(*[None] * n_positional, **dict.fromkeys(keywords))


def test_workload_scan_finds_the_keyword_calls():
    # the guard above is only as strong as the call extraction
    found = {(m, a): kws for m, a, _, kws, _ in WORKLOAD_CALLS}
    assert found[("nonmarkov", "memory_scan")] == ["metrics", "m_samples", "rng"]
    assert found[("nonmarkov", "conditional_vs_marginal_matrix")] == [
        "metric", "m_samples", "rng"]
    assert found[("errprop", "propagate_statistics")] == ["metric_name"]


def test_pinned_reconstructions_pass_the_benchmark_checks(tmp_path):
    # grid-avg's reconstruct+cp prelude and cx-target's reconstruction
    # passes at the README seed, checked as a benchmark run checks them
    checks = _load("checks")
    workloads = _load("workloads", checks=checks)
    run = _load("run")
    reference = run.load_reference(run.README_SEED)
    outcomes = []
    for workload, passes in ((workloads.GridAvg, lambda wl: [wl._prelude()]),
                             (workloads.CxTarget, lambda wl: wl.cycle()[:len(wl.sequences)])):
        wl = workload(run.README_SEED, reference, str(tmp_path))
        wl.setup()
        outcomes += [run.Outcome(p, 0.0, p.run(), 0.0, 0.0) for p in passes(wl)]
    kinds = [op.key.split(":")[0] for out in outcomes for op in out.ops]
    assert (kinds.count("chan"), kinds.count("cp")) == (55 + 14, 36)
    report = run.evaluate(outcomes)
    assert (report["failed"], report["problems"]) == (0, [])
