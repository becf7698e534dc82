"""The benchmark's span tracer patches the program from outside; a rename or
removal of a name it reaches for breaks ``perfbench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

import bforage
from bforage import bfa, cli, engines, experiment, metrics, problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (bforage, bfa, cli, engines, experiment, metrics, problem)
# what the tracer reaches by a string or on an instance, which the scan cannot see
INDIRECT = [(engines.StochasticEngine, "sample_unit"), (experiment, "_sweep_task"),
            (experiment, "ProcessPoolExecutor"), (problem.WeightVector, "as_tuple")]


def benchmark_names() -> set[tuple[str, str]]:
    """Each ``(module, name)`` that ``perfbench/*.py`` reads as ``module.name`` on a
    bforage module, or imports with ``from bforage... import name``."""
    modules = {module.__name__.rsplit(".", 1)[-1] for module in MODULES}
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = "bforage" if node.value.id == "bforage" else f"bforage.{node.value.id}"
                names.add((module, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bforage":
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_every_name_the_benchmark_reaches_exists():
    # perfbench/ is the benchmark's own code and does not change with the
    # package: a name it reads must outlive any refactor of the package
    names = benchmark_names()
    assert {("bforage.bfa", "run_bfa"), ("bforage.bfa", "chemotaxis_move"),
            ("bforage.problem", "WeightVector")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    missing += [f"{owner.__name__}.{name}" for owner, name in INDIRECT if not hasattr(owner, name)]
    assert missing == []


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = MODULES + (engines.StochasticEngine,)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:  # a failed install still puts back what it had patched
        tracer.install()
        assert bfa.run_bfa is not before[1]["run_bfa"]
        assert bfa.chemotaxis_move is not before[1]["chemotaxis_move"]
        assert engines.StochasticEngine.sample_unit is not before[-1]["sample_unit"]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner
