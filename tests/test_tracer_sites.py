"""Every name bench/tracer.py wraps still exists in the library.

The tracer replaces each (module, attribute) of its SITES table by
getattr/setattr, so a name the library drops makes a traced benchmark
worker die with AttributeError.  SITES is read from the file's source,
without importing the benchmark package.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_sites():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no SITES table in %s" % TRACER)


def test_every_traced_site_resolves():
    sites = traced_sites()
    assert sites
    for module_name, attr, _layer in sites:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
