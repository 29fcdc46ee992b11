"""No orphan code in `src/nkoszul/`: every function and method defined
there, dunders aside, is named somewhere in `src/`, `tests/` or
`perfbench/` other than its own `def`.  A refactor that stops calling a
helper leaves it named only by its definition, and this test names it."""
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
