"""Every name a tschmm module imports is used in that module, every
top-level private name a module defines is used somewhere in the package,
every name a module exports in `__all__` is defined in that module, no
module imports scipy in any form, and the commands run with scipy blocked,
no `np.einsum` call passes `optimize`, `gaussian._log_density`, the
per-state density that prediction's stacked kernel replaced, stays gone,
each input rule's message is raised by the one function that holds the rule,
each CSV row message is written in one function, so one reader holds the row
rules, and only the E-step renormalizes the forward-backward passes less than
every step or runs the backward pass.

No linter ships with the project, so these tests stand in for the unused-
import and dead-code checks. Package `__init__.py` files re-export what they
import and `from __future__` imports change the compiler, so both are
exempt from the import check.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tschmm

PACKAGE = Path(tschmm.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _private_definitions(tree: ast.Module):
    """The module's top-level `_private` functions, classes and constants,
    each with the node that defines it; dunder names are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST, skip: ast.AST):
    """Names read, attributes taken and names imported under `node`,
    leaving out the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each top-level private name that nothing in the
    sources refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in _references(other, node) for other in trees.values()):
                dead.append(f"{module}: {name}")
    return dead


def test_package_uses_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _dead_private_names(sources) == []


def test_the_check_finds_a_dead_private_name():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n\n"
                "_K = 1\n_TABLE: dict = {}\n__all__ = []\n\nclass _Box:\n    pass\n",
        "b.py": "from a import _used\nimport a\n\nx = a._TABLE\n",
    }
    assert _dead_private_names(sources) == ["a.py: _recursive", "a.py: _K", "a.py: _Box"]


def _exported_but_not_defined(source: str) -> list[str]:
    """Names in the module's `__all__` that no top-level def, class or
    assignment of the module binds: re-exports and stale entries."""
    tree = ast.parse(source)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_defines_every_name_it_exports(path):
    assert _exported_but_not_defined(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_exported_name_the_module_does_not_define():
    source = ("from a import B\n__all__ = ['B', 'C', 'f', 'K', 'gone']\n"
              "class C:\n    pass\n\ndef f():\n    pass\n\nK: int = 1\n")
    assert _exported_but_not_defined(source) == ["B", "gone"]


def _scipy_imports(source: str) -> list[str]:
    """Lines that import scipy or any of its modules: numpy is the
    package's only runtime dependency."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_no_scipy(path):
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_each_way_to_import_scipy():
    source = ('"""Docs may say scipy."""\nimport scipy\nimport scipy.linalg as la\n'
              "from scipy import linalg\nfrom scipy.linalg import cho_factor\n"
              "import numpy, scipy.special\nfrom .scipy import x\nimport scipyx\n"
              "from numpy import scipy\n")
    assert _scipy_imports(source) == ["line 2", "line 3", "line 4", "line 5", "line 6"]


# one small run of each command, with paths relative to the run's directory
CLI_RUN = (
    ("synth", "--kind", "handshake", "--n", "6", "--out", "d.csv"),
    ("train", "--data", "d.csv", "--states", "2", "--tsc-states", "2", "--out", "m.json"),
    ("predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"),
    ("segment", "--model", "m.json", "--data", "d.csv", "--out", "s.csv"),
    ("eval", "--data", "d.csv", "--states", "2", "--tsc-states", "2", "--batch", "3",
     "--seeds", "1", "--out", "r.csv"),
)
# a None entry in sys.modules makes every import of scipy or of any of its
# modules raise ImportError, whether tschmm makes it or a module it imports
BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None\n'
RUN_TSCHMM = 'import runpy; runpy.run_module("tschmm", run_name="__main__")'


def _run_commands(cwd: Path, interpreter: list[str]) -> tuple[list[bytes], dict[str, bytes]]:
    """Each command's stdout, run in order in `cwd`, and the files they wrote."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    stdouts = []
    for argv in CLI_RUN:
        proc = subprocess.run([*interpreter, *argv], cwd=cwd, capture_output=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr.decode())
        stdouts.append(proc.stdout)
    return stdouts, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


def test_commands_write_the_same_bytes_with_scipy_blocked(tmp_path):
    blocked = subprocess.run([sys.executable, "-c", BLOCK_SCIPY + "import scipy.linalg"],
                             capture_output=True, timeout=60)
    assert blocked.returncode == 1 and b"scipy" in blocked.stderr.splitlines()[-1]
    (tmp_path / "blocked").mkdir()
    (tmp_path / "ordinary").mkdir()
    got = _run_commands(tmp_path / "blocked", [sys.executable, "-c", BLOCK_SCIPY + RUN_TSCHMM])
    want = _run_commands(tmp_path / "ordinary", [sys.executable, "-m", "tschmm"])
    assert sorted(got[1]) == ["d.boundaries.csv", "d.csv", "m.json", "p.csv", "r.csv", "s.csv"]
    assert got == want


def _einsum_optimize_uses(source: str) -> list[str]:
    """Lines of einsum calls that pass `optimize`, or keywords that could
    carry it: an optimized einsum may route the product through BLAS,
    whose rounding depends on how many rows share the call, and prediction
    promises rows that depend on their own frame alone."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum" and any(k.arg in ("optimize", None) for k in node.keywords):
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_einsum_call_passes_optimize(path):
    assert _einsum_optimize_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_optimized_einsum():
    source = ('np.einsum("th,rh->tr", x, g)\nnp.einsum("th,rh->tr", x, g, optimize=True)\n'
              "einsum(s, x, optimize=False)\nnp.einsum(s, x, out=y)\nnp.einsum(s, x, **opts)\n")
    assert _einsum_optimize_uses(source) == ["line 2", "line 3", "line 5"]


def _log_density_uses(source: str) -> list[str]:
    """Lines that define, import or name `_log_density`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "_log_density" in names:
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_the_per_state_prediction_density_stays_gone(path):
    assert _log_density_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_each_way_to_bring_back_log_density():
    source = ('"""Docs may say _log_density."""\ndef _log_density(x):\n    pass\n'
              "from .gaussian import _log_density\ngaussian._log_density(x)\n"
              "_log_densities(x)\n")
    assert _log_density_uses(source) == ["line 2", "line 4", "line 5"]


# a fragment of each input rule's message: finite arrays (`data._float_array`),
# integer, increasing index lists (`data._index_tuple`), lists of inputs
# (`data._sequence`) and frame matrices (`hmm._frames_of`)
RULE_FRAGMENTS = ("must be finite", "must hold integers", "must be strictly increasing",
                  "must be a sequence of", "must be a non-empty (T, D) matrix")


def _rule_raisers(sources: dict[str, str]) -> dict[str, set[str]]:
    """Per rule fragment, `module: function` for each function (a method
    as `Class.method`) with a `raise ValueError(...)` whose text holds it."""
    found = {fragment: set() for fragment in RULE_FRAGMENTS}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"):
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            for fragment, functions in found.items():
                if fragment in text:
                    functions.add(f"{module}: {'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, ())
    return found


def test_each_input_rule_is_raised_by_one_function():
    raisers = _rule_raisers({p.name: p.read_text(encoding="utf-8") for p in SOURCES})
    assert all(len(functions) == 1 for functions in raisers.values()), raisers


def test_the_check_finds_a_rule_message_raised_in_two_functions():
    sources = {
        "a.py": 'def f(x):\n    raise ValueError(f"{x} must be finite")\n\n'
                'class C:\n    def g(self):\n'
                '        raise ValueError("y must be finite and positive")\n',
        "b.py": 'def h(n):\n    if n:\n        raise ValueError(n + " must hold integers")\n'
                '    raise TypeError("z must be strictly increasing")\n',
    }
    assert _rule_raisers(sources) == {"must be finite": {"a.py: f", "a.py: C.g"},
                                      "must hold integers": {"b.py: h"},
                                      "must be strictly increasing": set(),
                                      "must be a sequence of": set(),
                                      "must be a non-empty (T, D) matrix": set()}


# the text of each row message of `data.load_csv`: one reader holds the row rules
CSV_ROW_TEXTS = ("non-finite coordinate", "rows not sorted by (demo_id, t)",
                 "has fewer than 2 frames", "no data rows", "fields")


def _text_holders(sources: dict[str, str]) -> dict[str, set[str]]:
    """Per CSV row text, `module: function` for each function (a method as
    `Class.method`, a nested function as `outer.inner`, module level as
    `module: `) with a string other than a docstring that holds the text."""
    found = {text: set() for text in CSV_ROW_TEXTS}

    def visit(node, module, scope):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for text, functions in found.items():
                if text in node.value:
                    functions.add(f"{module}: {'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, ())
    return found


def test_each_csv_row_message_is_written_in_one_function():
    holders = _text_holders({p.name: p.read_text(encoding="utf-8") for p in SOURCES})
    assert all(len(functions) == 1 for functions in holders.values()), holders


def test_the_check_finds_a_csv_row_message_written_twice():
    sources = {
        "a.py": '"""Rows that are not sorted: no data rows."""\n'
                'def read(p):\n    """Docs may say non-finite coordinate."""\n'
                '    raise ValueError(f"{p}: line 1: rows not sorted by (demo_id, t)")\n\n'
                'class R:\n    def rows(self, n):\n'
                '        def fault():\n            return f"expected {n} fields"\n'
                '        return fault, "rows not sorted by (demo_id, t)"\n',
        "b.py": 'EMPTY = "no data rows"\n\ndef close(d):\n'
                '    message = f"demo {d} has fewer than 2 frames"\n    return message\n',
    }
    assert _text_holders(sources) == {
        "non-finite coordinate": set(),
        "rows not sorted by (demo_id, t)": {"a.py: read", "a.py: R.rows"},
        "has fewer than 2 frames": {"b.py: close"},
        "no data rows": {"b.py: "},
        "fields": {"a.py: R.rows.fault"},
    }


def _option_callers(source: str, option: str, position: int) -> list[str]:
    """`function: line` for each call of `_forward_backward` that may pass
    `option`: a positional argument at index `position`, the keyword,
    `*args` or `**kwargs`. Prediction and labelling promise rows equal bit
    for bit to a per-step normalized pass of a batch of one, so only the
    E-step, whose statistics do not depend on each row's scale or rounding,
    may renormalize less often (`interval`) or run the backward pass, which
    takes the forward rows from one product over the whole batch
    (`backward`)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_forward_backward" and (
                    len(node.args) > position or any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg in (option, None) for k in node.keywords)):
                found.append(f"{scope}: line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def _package_callers(option: str, position: int) -> list[str]:
    return [c.split(":")[0] for p in SOURCES
            for c in _option_callers(p.read_text(encoding="utf-8"), option, position)]


def test_only_the_e_step_passes_a_renormalization_interval():
    assert _package_callers("interval", 5) == ["_e_step"]


def test_only_the_e_step_runs_the_backward_pass():
    # the kernel passes `backward` on where it reruns itself at interval 1
    assert set(_package_callers("backward", 4)) == {"_e_step", "_forward_backward"}


def test_the_check_finds_each_way_to_pass_an_interval():
    source = ("def _e_step(m):\n    return _forward_backward(p, t, b, n, backward=True, interval=8)\n"
              "\ndef _gmr(m):\n    h = hmm._forward_backward(p, t, b, n, False, 8)\n"
              "    return _forward_backward(p, t, b, n, backward=False)\n"
              "\ndef predict(m):\n    _forward_backward(*args)\n"
              "    return _forward_backward(p, t, b, n, **opts)\n"
              "\ndef labels(m):\n    return _forward_backward(p, t, b, n, True)\n")
    assert _option_callers(source, "interval", 5) == ["_e_step: line 2", "_gmr: line 5",
                                                      "predict: line 9", "predict: line 10"]
    assert _option_callers(source, "backward", 4) == [
        "_e_step: line 2", "_gmr: line 5", "_gmr: line 6", "predict: line 9", "predict: line 10",
        "labels: line 13"]
