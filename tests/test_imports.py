"""Every imported name in the package, the tests and the benchmark is used, every
private helper of the package has a caller in the package, and only
``errors.py`` reads integers by ``operator.index`` or writes a finiteness or
positivity rule.

No linter runs on this repository, so these tests are the guard.  They parse
each module with ``ast``:

* an unused import is a name that an ``import`` binds but no other
  statement reads; a name listed in the module's ``__all__`` counts as used;
* an unused helper is a ``_``-prefixed module-level function or class of
  ``src/escobar`` that no other top-level statement of the package names,
  as a name or an attribute, or a ``_``-prefixed method, property or cached
  property of a package class that no other top-level statement and no
  other member of a class names.  Its own body does not count, and neither
  do the tests: a helper that only tests call belongs in the tests;
* a module that reads ``operator.index``, as an attribute or by a
  ``from operator import``, writes its own integer rule: every count of the
  package goes through ``errors._integer``;
* a module that raises ``InvalidParameterError`` with a "must be finite"
  or "must be positive" message writes its own finiteness or positivity
  rule: every finite real of the package goes through ``errors._finite``,
  and every positive real through ``errors._positive``;
* a ``:func:``, ``:meth:``, ``:class:`` or ``:attr:`` reference in a
  package docstring names a module-level name of some package module, or a
  member of the class whose docstring or method holds it, so a deleted
  helper does not live on in the docs.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/escobar/*.py"))
FILES = PACKAGE + [
    path
    for pattern in ("tests/*.py", "perfbench/*.py", "perfbench/tests/*.py")
    for path in sorted(ROOT.glob(pattern))
]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import`` statements that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = _exported(tree)
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_the_scan_sees_an_unused_import():
    src = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(src) == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize(
    "path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/")
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(node: ast.AST) -> bool:
    return (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    )


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` reads or binds."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level function or class in
    ``sources`` (module name to source) that no other top-level statement
    of any of them names, and ``module.Class.name`` of each private method
    of a module-level class that no statement names but its own and its
    class (the class's other members do count)."""
    helpers = []  # (qualified name, node, the class holding it or None)
    statements = []  # (node, names, the class holding it or None)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append((node, _names(node), None))
            if _private(node):
                helpers.append((f"{module}.{node.name}", node, None))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    statements.append((member, _names(member), node))
                    if _private(member) and not isinstance(member, ast.ClassDef):
                        helpers.append((f"{module}.{node.name}.{member.name}", member, node))
    return [
        name
        for name, node, owner in helpers
        if not any(
            node.name in names
            for other, names, holder in statements
            if other is not node and other is not owner and holder is not node
        )
    ]


def test_the_scan_sees_an_unused_helper():
    sources = {
        "a": "def _kept(): return 1\ndef _rec(): return _rec()\nclass _Box: pass\n",
        "b": "from .a import _kept\nimport a\ndef f(): return _kept(), a._helper\n"
             "def _helper(): return 'def _gone(): pass'\n",
    }
    assert unused_helpers(sources) == ["a._rec", "a._Box"]


def test_the_scan_sees_an_unused_method():
    sources = {
        "a": "class _Self:\n    def make(self): return _Self()\n",
        "b": "import functools\n"
             "class Grid:\n"
             "    def run(self): return self._step() + self._cache\n"
             "    def _step(self): return self._step()\n"
             "    @functools.cached_property\n"
             "    def _cache(self): return 1\n"
             "    def _lost(self): return self._lost()\n"
             "    @property\n"
             "    def _gone(self): return 2\n"
             "    def __len__(self): return 0\n"
             "def use(g): return g._outside()\n"
             "class Other:\n"
             "    def _outside(self): return 3\n",
    }
    assert unused_helpers(sources) == ["a._Self", "b.Grid._lost", "b.Grid._gone"]


def test_no_unused_helpers():
    assert unused_helpers({p.stem: p.read_text() for p in PACKAGE}) == []


def index_reads(source: str) -> list[int]:
    """Lines of ``source`` that read ``operator.index``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "index" and (
            isinstance(node.value, ast.Name) and node.value.id == "operator"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "operator" and any(
            alias.name == "index" for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_an_integer_rule():
    src = ("import operator\nfrom operator import add, index as ix\n"
           "n = operator.index(3)\nm = operator.add(1, 2)\nxs = [1].index(1)\n")
    assert index_reads(src) == [2, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_errors_reads_integers_by_index(path):
    assert bool(index_reads(path.read_text())) == (path.name == "errors.py")


def rules_saying(source: str, phrase: str) -> list[int]:
    """Lines of ``source`` that raise ``InvalidParameterError``, by name or
    as an attribute, with a message holding ``phrase`` in a string literal
    or in a literal part of an f-string."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "InvalidParameterError" and any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and phrase in sub.value
            for sub in ast.walk(node.exc)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_a_finite_rule():
    src = ("from .errors import InvalidParameterError\nfrom . import errors\n"
           "raise InvalidParameterError(f'x must be finite, got {x}')\n"
           "raise errors.InvalidParameterError('y must be finite and small')\n"
           "raise InvalidParameterError(f'z must be positive, got {z}')\n"
           "raise ValueError('w must be finite')\nmsg = 'v must be finite'\n")
    assert rules_saying(src, "must be finite") == [3, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_errors_writes_a_finiteness_rule(path):
    assert bool(rules_saying(path.read_text(), "must be finite")) == (path.name == "errors.py")


def test_the_scan_sees_a_positive_rule():
    src = ("from .errors import InvalidParameterError\nfrom . import errors\n"
           "raise InvalidParameterError(f'x must be positive, got {x}')\n"
           "raise errors.InvalidParameterError('y must be positive and small')\n"
           "raise InvalidParameterError(f'z must be finite, got {z}')\n"
           "raise ValueError('w must be positive')\nmsg = 'v must be positive'\n")
    assert rules_saying(src, "must be positive") == [3, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_errors_writes_a_positivity_rule(path):
    assert bool(rules_saying(path.read_text(), "must be positive")) == (path.name == "errors.py")


_REFERENCE = re.compile(r":(func|meth|class|attr):`([^`]+)`")


def _bound(node: ast.AST) -> set[str]:
    """The names a module-level or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _definitions(sources: dict[str, str]) -> dict[str, dict[str, set[str]]]:
    """Module name to its module-level names, each with its members if it
    is a class."""
    modules = {}
    for module, source in sources.items():
        names = modules[module] = {}
        for node in ast.parse(source).body:
            for name in _bound(node):
                names[name] = set()
            if isinstance(node, ast.ClassDef):
                names[node.name] = set().union(*map(_bound, node.body))
    return modules


def _names_something(modules, target: str, members: set[str]) -> bool:
    """Whether ``target``, less a leading ``~`` and ``escobar.``, is a
    module-level name of some module, or ``Class.member`` of a module-level
    class, or either of these in the named module (``regions.max_eta``), or
    one of ``members``."""
    parts = target.lstrip("~").removeprefix("escobar.").split(".")
    scopes = list(modules.values())
    if len(parts) > 1 and parts[0] in modules:
        scopes = [modules[parts.pop(0)]]
    if len(parts) == 1 and parts[0] in members:
        return True
    head, *rest = parts
    return any(
        head in names and (not rest or len(rest) == 1 and rest[0] in names[head])
        for names in scopes
    )


def broken_references(sources: dict[str, str]) -> list[str]:
    """``module.holder role:`target``` for each docstring reference in
    ``sources`` (module name to source) that names nothing
    (:func:`_names_something`, with the members of the enclosing class)."""
    modules = _definitions(sources)
    broken = []

    def visit(node: ast.AST, where: str, members: set[str]) -> None:
        doc = ast.get_docstring(node, clean=False) if hasattr(node, "body") else None
        for role, target in _REFERENCE.findall(doc or ""):
            if not _names_something(modules, target, members):
                broken.append(f"{where} :{role}:`{target}`")
        for child in getattr(node, "body", []):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{where}.{child.name}", set().union(*map(_bound, child.body)))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}", members)

    for module, source in sources.items():
        visit(ast.parse(source), module, set())
    return broken


def test_the_scan_sees_a_broken_reference():
    sources = {
        "a": 'def f():\n'
             '    """:func:`g`, :meth:`Box.size`, :func:`~escobar.b.h`, :func:`b.g`,\n'
             '    :func:`gone`, :meth:`Box.lost` and :func:`a.h`."""\n'
             'class Box:\n'
             '    """:meth:`size` and :attr:`width`, not :meth:`shape`."""\n'
             '    width: int\n'
             '    def size(self):\n'
             '        """:meth:`size` again; not :attr:`height`."""\n',
        "b": "def h(): pass\ng = h\n",
    }
    assert broken_references(sources) == [
        "a.f :func:`gone`", "a.f :meth:`Box.lost`", "a.f :func:`a.h`",
        "a.Box :meth:`shape`", "a.Box.size :attr:`height`",
    ]


def test_docstring_references_name_what_exists():
    assert broken_references({p.stem: p.read_text() for p in PACKAGE}) == []


_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def readme_references(text: str, modules) -> list[str]:
    """Each backticked dotted name in ``text`` that points into ``modules``
    (:func:`_definitions`): its head, less ``escobar.``, is a module or a
    module-level name of one."""
    return [
        target
        for target in _DOTTED.findall(text)
        if (head := target.removeprefix("escobar.").split(".")[0]) in modules
        or any(head in names for names in modules.values())
    ]


def broken_readme_references(text: str, sources: dict[str, str]) -> list[str]:
    """The :func:`readme_references` of ``text`` into ``sources`` (module
    name to source) that name nothing."""
    modules = _definitions(sources)
    return [t for t in readme_references(text, modules) if not _names_something(modules, t, set())]


def test_the_scan_sees_a_broken_readme_reference():
    sources = {"a": "def f(): pass\nclass Box:\n    def size(self): pass\n"}
    text = ("`a.f`, `a.gone`, `Box.size`, `Box.lost`, `escobar.a.f`, `escobar.a.lost`,\n"
            "`os.path`, `report.value`, `pyproject.toml`, `f`, `a.f()` and `a.Box.size`.")
    assert readme_references(text, _definitions(sources)) == [
        "a.f", "a.gone", "Box.size", "Box.lost", "escobar.a.f", "escobar.a.lost", "a.Box.size",
    ]
    assert broken_readme_references(text, sources) == ["a.gone", "Box.lost", "escobar.a.lost"]


def test_readme_references_name_what_exists():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    text = (ROOT / "README.md").read_text()
    assert {"PlanarDomain._pair_clear", "errors._integer", "errors._positive",
            "regions.max_eta", "regions.validate_tuple"} <= set(
        readme_references(text, _definitions(sources))
    )
    assert broken_readme_references(text, sources) == []
