"""Every name a tschmm module imports is used in that module.

No linter ships with the project, so this test stands in for the unused-
import check. Package `__init__.py` files re-export what they import and
`from __future__` imports change the compiler, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import tschmm

MODULES = sorted(
    p for p in Path(tschmm.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom c import d as e\na.b\n"
    assert _unused_imports(source) == ["line 2: os", "line 4: e"]
