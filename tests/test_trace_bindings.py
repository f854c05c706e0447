"""The benchmark's layer tracer (perfbench/layers.py) binds closurelab names
from outside the package.  A renamed or deleted name makes its layer read 0,
and a deleted cached builder crashes every traced op in
``Tracer.cache_stats``; these tests catch both before the benchmark runs."""

import importlib
import types
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# callables the package no longer has; their layers read 0 under tracing
KNOWN_UNBOUND = {
    "PrimeFieldElem.__mul__",
    "PrimeFieldElem.__rmul__",
    "BlockElimination.key",
    # residues mod p^N are plain ints: no coefficient class to wrap
    "TruncatedPadic.__mul__",
    "TruncatedPadic.__rmul__",
}


def _layers():
    # compiled from source so that no bytecode is written next to it
    mod = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), mod.__dict__)
    return mod


def test_every_cached_builder_exists():
    for modname, names in _layers().CACHES.values():
        mod = importlib.import_module(f"closurelab.{modname}")
        for name in names:
            assert hasattr(getattr(mod, name, None), "cache_info"), f"{modname}.{name}"


def test_only_known_layer_bindings_are_unresolvable():
    unbound = set()
    for _, modname, owner, attrs, _, _ in _layers().LAYERS:
        mod = importlib.import_module(f"closurelab.{modname}")
        for attr in attrs:
            if owner is None:
                if getattr(mod, attr, None) is None:
                    unbound.add(f"{modname}.{attr}")
            else:
                cls = getattr(mod, owner, None)
                if not isinstance(cls, type) or attr not in vars(cls):
                    unbound.add(f"{owner}.{attr}")
    assert unbound <= KNOWN_UNBOUND
