"""The oracles in ``tests/helpers.py`` borrow no private engine code.

An oracle that runs through the engine's own closure or firing rule agrees
with the engine by construction. So ``helpers.py`` may import the public API
of ``chipfire.engine`` and ``chipfire.coloured``, and read their module
constants (``coloured._STABILIZE_CAP``), but no underscore-prefixed function
or class, neither by name nor as a module attribute. Nor may it hand an
order its own covers or up-sets through the private constructor keywords
``_covers`` and ``_up``: the order would then store the oracle's answer.
"""

import ast
import importlib
import inspect
from pathlib import Path

GUARDED = ("chipfire.engine", "chipfire.coloured")
STORE_KEYWORDS = ("_covers", "_up")  # what an order stores as handed over


def private_code_uses(source: str) -> list[str]:
    """Each underscore-prefixed function or class of a guarded module that
    ``source`` imports by name or reads off the module, as ``module.name``,
    and each call that passes a store keyword, as ``callee(keyword=)``."""
    found, aliases = [], {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in GUARDED:  # from chipfire import coloured
                    aliases[alias.asname or alias.name] = full
                elif node.module in GUARDED and alias.name.startswith("_"):
                    found.append(full)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in GUARDED and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            module = importlib.import_module(aliases[node.value.id])
            member = getattr(module, node.attr, None)
            if inspect.isroutine(member) or inspect.isclass(member):
                found.append(f"{aliases[node.value.id]}.{node.attr}")
        if isinstance(node, ast.Call):
            found += [
                f"{ast.unparse(node.func)}({kw.arg}=)"
                for kw in node.keywords
                if kw.arg in STORE_KEYWORDS
            ]
    return sorted(set(found))


def test_helpers_import_no_private_engine_code():
    source = (Path(__file__).parent / "helpers.py").read_text()
    assert private_code_uses(source) == []


def test_the_guard_names_each_private_import():
    source = (
        "from chipfire import coloured\n"
        "from chipfire.engine import Cfg, _closure, _fire_in_place\n"
        "from chipfire.lattice import _refine_pair\n"
        "cap = coloured._STABILIZE_CAP\n"
        "block = coloured._block\n"
        "order = Poset(leq, _checked=True, _covers=ups)\n"
        "lattice = lattice.Lattice(labels=names, _up=masks)\n"
    )
    assert private_code_uses(source) == [
        "Poset(_covers=)",
        "chipfire.coloured._block",
        "chipfire.engine._closure",
        "chipfire.engine._fire_in_place",
        "lattice.Lattice(_up=)",
    ]
