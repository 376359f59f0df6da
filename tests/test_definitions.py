"""Every function, class, method and property defined in src/hz is named
somewhere besides its definition, in src/, tests/ or perfbench/ (stdlib
only; a name that occurs nowhere else is dead code).  Dunder names are
exempt: Python calls them."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source):
    """(line, name) of each module-level function or class and each method
    or property of a module-level class, dunders excluded."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCS + (ast.ClassDef,)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((n.lineno, n.name) for n in node.body
                         if isinstance(n, FUNCS))
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def dead_definitions(modules, others=()):
    """(module, line, name) of each definition in `modules` (module name ->
    source) whose name occurs as a word in the modules and in the `others`
    sources only at its definitions."""
    words = Counter()
    for text in list(modules.values()) + list(others):
        words.update(re.findall(r"\w+", text))
    defs = [(mod, line, name) for mod, text in modules.items()
            for line, name in definitions(text)]
    def_count = Counter(name for _, _, name in defs)
    return sorted(d for d in defs if words[d[2]] <= def_count[d[2]])


def test_no_dead_definitions():
    modules = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "hz").glob("*.py"))}
    others = [p.read_text() for sub in ("tests", "perfbench")
              for p in sorted((ROOT / sub).rglob("*.py"))]
    assert dead_definitions(modules, others) == []


def test_detector_sees_dead_and_live_definitions():
    modules = {
        "a.py": ("def used():\n"
                 "    return helper()\n"
                 "def helper():\n"
                 "    pass\n"
                 "def unused():\n"
                 "    '''mentions used, not itself'''\n"
                 "class K:\n"
                 "    def __repr__(self):\n"
                 "        return 'K'\n"
                 "    @property\n"
                 "    def prop(self):\n"
                 "        def nested():\n"
                 "            pass\n"
                 "    def twice(self):\n"
                 "        pass\n"
                 "class L:\n"
                 "    def twice(self):\n"
                 "        pass\n"),
        "b.py": "from a import used\n",
    }
    others = ["K().prop\n"]
    assert dead_definitions(modules, others) == [
        ("a.py", 5, "unused"), ("a.py", 14, "twice"), ("a.py", 16, "L"),
        ("a.py", 17, "twice")]
