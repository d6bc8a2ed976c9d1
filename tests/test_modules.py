"""The package's module graph, read from the source with ``ast``: the imports
within ``tmkit`` form no cycle, and no module imports or reads a name another
tmkit module keeps to itself (one that starts with ``_``), so each module
hides its own decisions (Parnas, "On the criteria to be used in decomposing
systems into modules", 1972)."""
import ast
from pathlib import Path

import tmkit

PACKAGE = Path(tmkit.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def imports(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The tmkit modules a module imports, at its top, its foot or inside a function,
    and each private name of theirs it imports or reads, as 'module.name'."""
    imported: set[str] = set()
    bound: dict[str, str] = {}  # local name -> the tmkit module it stands for
    private: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").split(".")[0] == "tmkit"):
            module = (node.module or "").removeprefix("tmkit").lstrip(".")
            if not module:  # from . import x: x is a module, or a name the package itself defines
                for alias in node.names:
                    target = alias.name if alias.name in MODULES else "__init__"
                    imported.add(target)
                    if target == alias.name:
                        bound[alias.asname or alias.name] = target
                continue
            imported.add(module)
            private += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tmkit."):
                    imported.add(alias.name.split(".")[1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            if node.attr.startswith("_"):
                private.append(f"{bound[node.value.id]}.{node.attr}")
    return imported, private


GRAPH = {name: imports(tree) for name, tree in MODULES.items()}


def test_the_imports_within_the_package_form_no_cycle():
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            for other in sorted(GRAPH[name][0]):
                visit(other, path + [name])
            done.add(name)

    for name in GRAPH:
        visit(name, [])


def test_no_module_reaches_into_another_modules_private_names():
    assert {name: private for name, (_, private) in GRAPH.items() if private} == {}


def test_the_graph_sees_every_kind_of_import():
    tree = ast.parse("from . import syntax as s\nfrom .model import _X, Y\nimport tmkit.cli\ndef f():\n    from . import dot\n    s._SKIP\n")
    assert imports(tree) == ({"syntax", "model", "cli", "dot"}, ["model._X", "syntax._SKIP"])
