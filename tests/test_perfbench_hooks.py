"""The benchmark's span tracer patches the program from outside; a rename or
removal of a name it reaches for breaks ``perfbench/run.py --trace 1``."""

from pathlib import Path

import bforage
from bforage import bfa, cli, engines, experiment, metrics, problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (bforage, bfa, cli, engines, experiment, metrics, problem)


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
