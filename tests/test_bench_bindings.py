"""The benchmark's traced mode (`bench/run_bench.py --trace 1`) wraps `ffg`
functions by module and attribute name, and patches every module that
imports one by name.  A rename, a move or a changed import breaks it; this
catches that in the test suite, without starting a run."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import ffg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_layer_binds():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import selftest
    import tracing
    # a function imported by name is patched only in modules already loaded
    for module in pkgutil.iter_modules(ffg.__path__):
        importlib.import_module(f"ffg.{module.name}")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        unbound = [layer for layer, _module, _attr in tracing.SPANS + tracing.COUNTERS
                   if tracer.bindings.get(layer, 0) < 1]
        assert not unbound
        single = [layer for layer in selftest.IMPORTED_BY_NAME
                  if tracer.bindings[layer] < 2]
        assert not single
    finally:
        tracer.uninstall()


def test_benchmark_selftest_passes():
    """`bench/selftest.py` runs traced and untraced samples of every
    workload: it fails when a traced layer is no longer called or a traced
    run's digest differs from the untraced one."""
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=BENCH.parent, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
