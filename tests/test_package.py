"""Packaging contracts that no behavioural test would notice breaking."""

import ast
import sys
from pathlib import Path

import partinfo

SOURCES = sorted(Path(partinfo.__file__).parent.glob("*.py"))


def test_the_runtime_imports_only_the_standard_library():
    # numpy and scipy may be installed alongside, but the package must not
    # import them or anything else outside the standard library
    assert len(SOURCES) >= 8
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside
