"""No orphan code in `src/nkoszul/`: every function and method defined
there, dunders aside, is named somewhere in `src/`, `tests/` or
`perfbench/` other than its own `def`.  A refactor that stops calling a
helper leaves it named only by its definition, and this test names it.
Likewise every name a module there imports is read in that module."""
import ast
import glob
import os
import re
from collections import Counter

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def defined_names(root: str) -> set:
    names = set()
    for path in glob.glob(os.path.join(root, "src", "nkoszul", "*.py")):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        names |= {node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))}
    return names


def orphans(root: str) -> list:
    """The names defined in src/nkoszul that occur only in `def` lines."""
    text = []
    for sub in ("src", "tests", "perfbench"):
        for path in glob.glob(os.path.join(root, sub, "**", "*.py"),
                              recursive=True):
            with open(path) as f:
                text.append(f.read())
    text = "\n".join(text)
    uses = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef\s+(\w+)", text))
    return sorted(name for name in defined_names(root)
                  if uses[name] <= defs[name])


def test_every_function_in_src_is_named_beyond_its_def():
    assert len(defined_names(HERE)) > 100
    assert orphans(HERE) == []


def unused_imports(root: str) -> list:
    """(module, name) per name a module in src/nkoszul imports and never
    reads: no `Name` node of it outside the import itself."""
    out = []
    for path in sorted(glob.glob(os.path.join(root, "src", "nkoszul",
                                              "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        out += [(os.path.basename(path), name) for name in bound
                if name not in read]
    return out


def test_every_import_in_src_is_read():
    assert unused_imports(HERE) == []
