"""The benchmark's traced run (perfbench/run.py --trace 1) replaces package
functions by module attribute, as listed in perfbench/layers.py.  A hooked name
that moves or goes breaks that run, so its install and uninstall run here."""
import sys
from pathlib import Path

from zerosum import char3, extractor, gen, sumfull

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import layers
    import tracer
finally:
    sys.path.pop(0)


def _namespaces():
    """Every module of the package, and the one class the hooks patch."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "zerosum" or name.startswith("zerosum.")]
    return modules + [sumfull.InputSet]


def _changed(before):
    return {(ns.__name__, attr) for ns, saved in before
            for attr in set(vars(ns)) | set(saved)
            if vars(ns).get(attr) is not saved.get(attr)}


def test_hooks_install_and_uninstall_restores_every_attribute():
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tr = tracer.Tracer()
    layers.install(tr)
    try:
        patched = _changed(before)
    finally:
        tr.uninstall()
    assert ("zerosum.gen", "prune_to_sumfull") in patched
    for module in (gen, extractor, char3):
        assert (module.__name__, "check_sum_full") in patched
    assert ("InputSet", "from_elements") in patched
    assert _changed(before) == set()
