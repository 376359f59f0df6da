"""Every function, class, method and property defined in src/hz is reached
from what the program runs, every defaulted parameter is passed by some
call in it, and every option of an `hz` subcommand is read (stdlib only).

Reachability is a static name graph built with `ast`.  The roots are
`hz.cli.main`, the names read by module-level statements of src/hz (except
`__all__`), the names read by the acceptance criteria and the fixtures they
import, the names read by the benchmark harness, and the names its tracer
wraps.  A reached definition reaches every name its body reads; a `Name` or
`Attribute` is a read, a string (a docstring included) is not.  A reached
class reaches its dunder methods, which Python calls, and a method is
reached when its class and its name are.  Names resolve by spelling alone,
so two methods of one name are reached together: the guard errs towards
keeping dead code.
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
ROOT_FILES = ("tests/test_acceptance.py", "tests/pipeline_fixtures.py",
              "perfbench/run.py", "perfbench/workloads.py",
              "perfbench/tracing.py")

# Definitions that only the unit tests reach and that stay: name -> reason.
KEPT = {
    "HilbertQExp.coefficient":
        "the by-element read the Hilbert operator tests check oracles with",
    "HilbertQExp.domain":
        "the elements that `coefficient` reads, in coefficient order",
    "RealQuadraticField.from_sqrt_basis":
        "builds test elements as a + b sqrt(d), apart from the omega basis",
    "ideal_divisor_sigma":
        "the element-by-element oracle of the Eisenstein coefficients",
    "eigensystem_to_json":
        "codec pair of eigensystem_from_json; test_cli writes inputs with it",
}


def reads(nodes):
    """The identifiers that `nodes` read: each Name and Attribute below
    them."""
    found = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
    return found


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def dead_definitions(modules, roots):
    """(module, line, name) of each module-level function or class, and each
    method or property of a module-level class ("Class.method"), in
    `modules` (module name -> source) that the names in `roots` and the
    module-level statements of `modules` do not reach."""
    live = set(roots)
    defs = []  # (module, line, class or None, name, names read)
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCS):
                defs.append((mod, node.lineno, None, node.name,
                             reads([node])))
            elif isinstance(node, ast.ClassDef):
                head = node.bases + node.keywords + node.decorator_list
                head += [n for n in node.body if not isinstance(n, FUNCS)]
                defs.append((mod, node.lineno, None, node.name, reads(head)))
                defs.extend((mod, n.lineno, node.name, n.name, reads([n]))
                            for n in node.body if isinstance(n, FUNCS))
            elif not _is_all(node):
                live |= reads([node])
    dead = list(defs)
    changed = True
    while changed:
        changed = False
        for d in list(dead):
            _, _, owner, name, body = d
            if (owner in live and (name in live or _is_dunder(name))
                    if owner else name in live):
                dead.remove(d)
                live |= body
                changed = True
    return sorted((mod, line, owner + "." + name if owner else name)
                  for mod, line, owner, name, _ in dead)


def program_roots():
    """`main` and the names read or wrapped by the acceptance criteria and
    the benchmark harness."""
    roots = {"main"}
    for rel in ROOT_FILES:
        tree = ast.parse((ROOT / rel).read_text())
        roots |= reads([tree])
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("LAYERS", "COUNTED")
                    for t in stmt.targets)):
                for n in ast.walk(stmt.value):
                    if isinstance(n, ast.Constant) and isinstance(n.value,
                                                                   str):
                        roots.update(n.value.split("."))
    return roots


def test_no_dead_definitions():
    modules = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "hz").glob("*.py"))}
    roots = program_roots()
    kept = {part for name in KEPT for part in name.split(".")}
    assert dead_definitions(modules, roots | kept) == []
    # each kept name is still unreached without its entry
    unreached = {name for _, _, name in dead_definitions(modules, roots)}
    assert sorted(set(KEPT) - unreached) == []


def test_detector_sees_dead_and_live_definitions():
    modules = {
        "a.py": ("def used():\n"
                 "    '''calls helper, not ghost'''\n"
                 "    return helper()\n"
                 "def helper():\n"
                 "    return K().prop\n"
                 "def ghost():\n"
                 "    pass\n"
                 "def ping():\n"
                 "    return pong()\n"
                 "def pong():\n"
                 "    return ping()\n"
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
                 "    def __init__(self):\n"
                 "        pass\n"
                 "    def prop(self):\n"
                 "        pass\n"),
        "b.py": ("from a import used, ghost\n"
                 "__all__ = ['ghost']\n"
                 "VALUE = used()\n"),
    }
    assert dead_definitions(modules, roots=()) == [
        ("a.py", 6, "ghost"), ("a.py", 8, "ping"), ("a.py", 10, "pong"),
        ("a.py", 19, "K.twice"), ("a.py", 21, "L"), ("a.py", 22, "L.__init__"),
        ("a.py", 24, "L.prop")]
    assert dead_definitions(modules, roots=("L",)) == [
        ("a.py", 6, "ghost"), ("a.py", 8, "ping"), ("a.py", 10, "pong"),
        ("a.py", 19, "K.twice")]


# Defaulted parameters that only the unit tests pass and that stay:
# "function.parameter" or "Class.method.parameter" -> reason.
PARAM_KEPT = {
    "EllipticQExp.__init__.character":
        "elliptic expansions carry characters (from_json builds them through "
        "_make), and the public constructor takes one too",
    "make_field.h_plus":
        "ignored; kept only because perfbench/test_perfbench.py passes it",
}


def _callee(call):
    """The name a call is made through: `f(...)` and `obj.f(...)` give f."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted(fn, is_method):
    """(position or None, name) of each defaulted parameter of `fn`;
    positions count call arguments, so a method's self or cls is skipped."""
    a = fn.args
    positional = a.posonlyargs + a.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(a.defaults)
    out = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
    out += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def unset_parameters(modules, callers=()):
    """(module, line, "function.parameter") of each defaulted parameter of a
    module-level function or a method ("Class.method.parameter") in
    `modules` (module name -> source) that no call in `modules` or in the
    sources `callers` passes, by keyword or by position.  A call matches
    every definition of its name, and a call of a class name matches that
    class's `__init__`.  A call with `*args` or `**kwargs` passes
    everything."""
    defs = []  # (module, line, qualified name, call names, defaulted)
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCS):
                defs.append((mod, node.lineno, node.name, {node.name},
                             _defaulted(node, False)))
            elif isinstance(node, ast.ClassDef):
                for n in node.body:
                    if isinstance(n, FUNCS):
                        names = {n.name}
                        if n.name == "__init__":
                            names.add(node.name)
                        defs.append((mod, n.lineno, node.name + "." + n.name,
                                     names, _defaulted(n, True)))
    passed = {}  # call name -> (positional count, keyword names or None
    #               for a call that spreads *args or **kwargs) per call
    for source in list(modules.values()) + list(callers):
        for call in ast.walk(ast.parse(source)):
            name = isinstance(call, ast.Call) and _callee(call)
            if name:
                spread = (any(isinstance(a, ast.Starred) for a in call.args)
                          or any(k.arg is None for k in call.keywords))
                passed.setdefault(name, []).append(
                    (len(call.args), None if spread else
                     {k.arg for k in call.keywords}))
    unset = []
    for mod, line, qualname, names, params in defs:
        calls = [c for name in names for c in passed.get(name, ())]
        for pos, param in params:
            if not any(kw is None or param in kw
                       or (pos is not None and pos < n) for n, kw in calls):
                unset.append((mod, line, qualname + "." + param))
    return sorted(unset)


def test_no_unset_parameters():
    modules = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "hz").glob("*.py"))}
    callers = [(ROOT / rel).read_text() for rel in ROOT_FILES]
    unset = {name for _, _, name in unset_parameters(modules, callers)}
    assert sorted(unset - set(PARAM_KEPT)) == []
    # each kept parameter is still unset
    assert sorted(set(PARAM_KEPT) - unset) == []


def test_detector_sees_unset_parameters():
    modules = {
        "a.py": ("def f(x, unset=0, by_name=0, by_place=0):\n"
                 "    pass\n"
                 "def g(x, *, only_kw=None):\n"
                 "    pass\n"
                 "def h(x, spread=0):\n"
                 "    pass\n"
                 "class C:\n"
                 "    def __init__(self, a, b=1):\n"
                 "        pass\n"
                 "    def m(self, c=2):\n"
                 "        pass\n"
                 "    @staticmethod\n"
                 "    def s(c=3):\n"
                 "        pass\n"
                 "f(1, by_name=2)\n"
                 "h(*args)\n"
                 "C(1, 2).m()\n"),
        "b.py": "from a import f\nf(1, 2, 3, 4)\n",
    }
    assert unset_parameters({"a.py": modules["a.py"]}) == [
        ("a.py", 1, "f.by_place"), ("a.py", 1, "f.unset"),
        ("a.py", 3, "g.only_kw"), ("a.py", 10, "C.m.c"),
        ("a.py", 13, "C.s.c")]
    assert unset_parameters(modules) == [
        ("a.py", 3, "g.only_kw"), ("a.py", 10, "C.m.c"),
        ("a.py", 13, "C.s.c")]
    assert unset_parameters({"a.py": modules["a.py"]},
                            callers=["g(0, only_kw=1)\nx.m(5)\nC.s(4)\n"]) == [
        ("a.py", 1, "f.by_place"), ("a.py", 1, "f.unset")]


def unread_options(parser, source):
    """(subcommand, dest) of each option of `parser`'s subcommands that its
    `func`, a module-level function of `source`, does not read as
    `args.<dest>`, in its own body or in a module-level function it passes
    `args` to (by position)."""
    funcs = {n.name: n for n in ast.parse(source).body if isinstance(n, FUNCS)}

    def read(name, param, seen):
        found = set()
        for n in ast.walk(funcs[name]):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == param):
                found.add(n.attr)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in funcs and n.func.id not in seen):
                for i, a in enumerate(n.args):
                    if isinstance(a, ast.Name) and a.id == param:
                        seen.add(n.func.id)
                        callee = funcs[n.func.id]
                        found |= read(n.func.id, callee.args.args[i].arg, seen)
        return found

    unread = []
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        name = sub.get_default("func").__name__
        used = read(name, funcs[name].args.args[0].arg, {name})
        unread += [(command, a.dest) for a in sub._actions
                   if a.dest != "help" and a.dest not in used]
    return sorted(unread)


def test_every_subcommand_option_is_read():
    from hz import cli
    source = (ROOT / "src" / "hz" / "cli.py").read_text()
    assert unread_options(cli.build_parser(), source) == []


def test_detector_sees_unread_options():
    source = ("def cmd_a(args):\n"
              "    return helper(1, args) + args.x\n"
              "def helper(n, opts):\n"
              "    return opts.y\n"
              "def cmd_b(args):\n"
              "    return args.x\n")
    namespace = {}
    exec(source, namespace)
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for name, func in (("a", "cmd_a"), ("b", "cmd_b")):
        p = sub.add_parser(name)
        for flag in ("--x", "--y", "--z"):
            p.add_argument(flag)
        p.set_defaults(func=namespace[func])
    assert unread_options(parser, source) == [
        ("a", "z"), ("b", "y"), ("b", "z")]
