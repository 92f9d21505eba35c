"""The benchmark's trace targets resolve against the library.

``perfbench/spans.py`` wraps certbit functions and methods by module and
attribute name, and a name that does not resolve stops its traced runs.
This loads that file by path, without changing it, and resolves every
target the way its tracer does, so a rename in ``src/`` that would break
the benchmark fails here first.  The tracer replaces a method through its
class's own ``__dict__``, so a method a class only inherits does not
resolve.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, path) for _, module, path in spans.SPANNED + spans.COUNTED]
    assert targets
    missing = []
    for module, path in targets:
        try:
            owner, attr = spans._resolve(module, path)
            if isinstance(owner, type):
                owner.__dict__[attr]
            else:
                getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
    assert missing == []
