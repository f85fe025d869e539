"""Every name a module imports is used in that module.

Covers the library modules (the package's __init__ re-exports what it
imports), the scripts and the tests.  A name counts as used when it
appears as an identifier anywhere in the module's syntax tree, so a name
only passed along, such as the step `chain` hands to `FlipChain.states`,
counts; one that is only imported does not.  Read from the sources with
ast, importing nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "dresschain").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    assert len(MODULES) > 20
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                   for name, line in imported_names(tree) if name not in used]
    assert not unused, unused
