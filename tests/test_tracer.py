"""The benchmark's tracer still finds every library name it wraps.

perfbench/tracer.py patches mdzeta functions and methods by name, so a
rename or removal in the library breaks traced benchmark runs.  The tracer
is loaded from its file, as the benchmark loads it, and nothing under
perfbench/ is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import mdzeta.cli  # noqa: F401  (every module the tracer wraps is loaded here)

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "evaluator", "exact", "genfun", "model", "mpseries")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(monkeypatch, capsys):
    # fresh copies of the modules, as the benchmark imports them; the copies
    # loaded by the rest of the suite come back at teardown
    for name in [m for m in sys.modules if m == "mdzeta" or m.startswith("mdzeta.")]:
        monkeypatch.delitem(sys.modules, name)
    mdz = SimpleNamespace(**{n: importlib.import_module(f"mdzeta.{n}") for n in MODULES})
    tracer = _load_tracer().Tracer()
    tracer.install(mdz)
    patched = list(tracer._patches)
    try:
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        spec = str(ROOT / "specs" / "root_a2.json")
        argv = ["verify", "--spec", spec, "--M", "40", "--M-outer", "20", "--output", "json"]
        assert mdz.cli.main(argv) in (0, 1, 3)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    # the singular assembly divides through the wrapped module attribute
    assert tracer.counts["genfun.G_singular_calls"] > 0
    assert tracer.counts["mpseries.divide_linear_calls"] > 0
    # plans are built through the wrapped constructor, and the coset count
    # reads CosetSet.representatives
    assert tracer.counts["genfun.plan_builds"] > 0
    assert tracer.counts["exact.coset_reps"] > 0
