"""The package keeps only what its command line runs.

Every public top-level function and class, and every public method or
property, of ``src/trailkit`` must be reachable by name from the CLI entry
point or from the keep-list below.  Reachability is read off the source
with ``ast``: a definition is live once a live body names it, a function
or class by a plain name, an import or an attribute (``module.name``), a
method by an attribute (``obj.name``).  Module-level statements outside
definitions run on import and are live; so are the dunder methods of a
live class.  ``__init__`` re-exports names and is not a caller.  Names are
matched without types, so a method that shares its name with another
live attribute passes; the check catches names that nothing uses.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import trailkit

SRC = Path(trailkit.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# The roots of the search, each with why it stays.
KEEP = {
    ("cli", "main"): "the console script entry point",
    ("sgraph", "extremal_functions"): "bench/tracer.py wraps it by name",
    ("cartan_core", "reduced_words_of_w0"):
        "ROADMAP item 3: the w0 word families of the sweeps come from it",
}


class _Def:
    def __init__(self, module: str, qualname: str, node, owner=None):
        self.key = (module, qualname)
        self.node = node
        self.name = node.name
        self.owner = owner      # (module, class name) of a method
        self.public = not self.name.startswith("_")

    def named(self, live, names, attrs) -> bool:
        """Whether live code names this definition."""
        if self.owner is None:
            return self.name in names or self.name in attrs
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return self.owner in live and (dunder or self.name in attrs)


def _uses(nodes) -> tuple[set[str], set[str]]:
    """(plain names, attribute names) that the statements ``nodes`` use,
    imported names counted as plain."""
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attrs


def _own_statements(node) -> list:
    """What a definition runs: a function's whole node; a class's
    decorators, bases and statements other than its methods."""
    if isinstance(node, ast.FunctionDef):
        return [node]
    return (node.decorator_list + node.bases
            + [s for s in node.body if not isinstance(s, ast.FunctionDef)])


def _scan():
    """(definitions, root statements) of every module but ``__init__``."""
    defs, roots = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(_Def(module, node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs.extend(_Def(module, f"{node.name}.{sub.name}", sub,
                                     owner=(module, node.name))
                                for sub in node.body
                                if isinstance(sub, ast.FunctionDef))
            else:
                roots.append(node)
    return defs, roots


def _unreachable() -> list[str]:
    defs, roots = _scan()
    live: set[tuple[str, str]] = set()
    names, attrs = _uses(roots)
    frontier = [d for d in defs if d.key in KEEP]
    while frontier:
        for d in frontier:
            live.add(d.key)
            n, a = _uses(_own_statements(d.node))
            names |= n
            attrs |= a
        frontier = [d for d in defs
                    if d.key not in live and d.named(live, names, attrs)]
    return [".".join(d.key) for d in defs if d.public and d.key not in live]


def test_keep_list_names_exist():
    defs, _ = _scan()
    keys = {d.key for d in defs}
    assert set(KEEP) <= keys, sorted(set(KEEP) - keys)


def test_every_public_name_is_reached_from_the_cli_or_the_keep_list():
    assert _unreachable() == []


def _tracer_binds() -> set[tuple[str, str]]:
    """The (module, name) pairs that ``tracer.install`` reads off the
    package as ``module.name``, from the source of ``bench/tracer.py``."""
    tree = ast.parse(TRACER.read_text())
    (install,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "install"]
    return {(node.value.id, node.attr) for node in ast.walk(install)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)}


def test_keep_list_reasons_citing_the_tracer_hold():
    cited = {key for key, why in KEEP.items() if "bench/tracer.py" in why}
    assert cited, "no keep-list entry cites bench/tracer.py"
    assert cited <= _tracer_binds(), sorted(cited - _tracer_binds())


def test_every_exported_name_resolves():
    assert len(trailkit.__all__) == len(set(trailkit.__all__))
    for name in trailkit.__all__:
        obj = getattr(trailkit, name)
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name


def test_the_package_has_no_assert_statement():
    # python -O strips asserts, so a check must raise a typed error instead
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_public_function_takes_a_value_and_its_owner():
    # a WordJ holds its Cartan matrix, and a module its matrix and its t:
    # a function takes the word or the module, and reads the value there
    pairs = ({"cartan", "word"}, {"M", "t"})
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args
                          + a.kwonlyargs}
                found += [f"{path.name}:{node.name}({', '.join(sorted(p))})"
                          for p in pairs if p <= params]
    assert not found, found
