"""Every public function and class of the package has a caller, every
option of a public function or dataclass has a setter, and every parameter
of a public function is read.

A public top-level function or class of `src/dcollapse` stays only if a CLI
command, a `verify` check or a script in `scripts/` reaches it.  The test
parses the sources with `ast` and walks references from the roots: every
top-level definition of `cli.py`, and every package name a script refers
to.  A reference is a name or an attribute in code (`ge.spreads`), never a
mention in a docstring, so a function that only tests call is reported
even when the module docs still name it.

The same walk covers parameters: a defaulted parameter of a public function
outside `cli.py` stays only if some call in the reached code passes it, by
position or by keyword: an option that no caller sets is a constant.
`cli.py`'s own definitions are exempt, since the console script calls
`main()` with its defaults.  A public dataclass is a function too, its
generated `__init__`: a defaulted field stays only if some reached
construction sets it, and `cls(...)` in one of the class's own
classmethods constructs the class.  A call that unpacks `*args` or
`**kwargs` sets every parameter or field.

Every parameter of a public function, or of a public method of a public
class, is read in its body: a parameter that nothing reads is an option
that changes nothing.  A leading underscore (`_t`) marks a parameter that
a callback signature needs but the body does not.

A public method of a public class stays only if the reached code
uses its name as an attribute (`comp.passed`, `cfg.grid`).  The walk
cannot tell an object's class, so any attribute of that name counts.  For
this rule the benchmark in `perfbench/` is a root as well, since its
gate calls a method the CLI does not.

Last, `cli.py` writes every output file, all through `_write_text`: no
other code of the package calls `open` with a mode that writes, or makes
a directory.
"""

import ast
import os
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "dcollapse"
SRC = os.path.join(ROOT, "src", PACKAGE)
SCRIPTS = os.path.join(ROOT, "scripts")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), filename=path)


def _module_of(node: ast.ImportFrom):
    """Package module named by a `from ... import` statement, or None when
    it imports from outside the package."""
    if node.level:
        base = node.module or ""
    elif node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
        base = node.module[len(PACKAGE) + 1:]
    else:
        return None
    return base or "__init__"


class Module:
    """Top-level definitions of one source file and the names it binds by
    import: `aliases` maps a local name to a package module, `imported`
    maps a local name to the (module, name) it stands for."""

    def __init__(self, tree: ast.Module):
        self.defs = {}
        self.public = set()
        self.aliases = {}
        self.imported = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
                if not node.name.startswith("_"):
                    self.public.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for tgt in targets:
                    for leaf in ast.walk(tgt):
                        if isinstance(leaf, ast.Name):
                            self.defs[leaf.id] = node
            elif isinstance(node, ast.ImportFrom):
                src = _module_of(node)
                if src is None:
                    continue
                for a in node.names:
                    local = a.asname or a.name
                    if src == "__init__" and os.path.exists(
                            os.path.join(SRC, a.name + ".py")):
                        self.aliases[local] = a.name
                    else:
                        self.imported[local] = (src, a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith(PACKAGE + "."):
                        sub = a.name[len(PACKAGE) + 1:]
                        self.aliases[a.asname or a.name] = sub

    def target(self, expr):
        """The (module, name) that a name or attribute expression stands
        for, or None; the module is None for a name of this file."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in self.aliases:
            return self.aliases[expr.value.id], expr.attr
        if isinstance(expr, ast.Name):
            if expr.id in self.imported:
                return self.imported[expr.id]
            if expr.id in self.defs:
                return None, expr.id
        return None

    def references(self, node):
        """(module, name) pairs that the code of `node` refers to."""
        return {ref for sub in ast.walk(node)
                if (ref := self.target(sub)) is not None}


def _load_package():
    return {fn[:-3]: Module(_parse(os.path.join(SRC, fn)))
            for fn in sorted(os.listdir(SRC)) if fn.endswith(".py")}


def _load_scripts(directory=SCRIPTS):
    return [_parse(os.path.join(directory, fn))
            for fn in sorted(os.listdir(directory)) if fn.endswith(".py")]


def _resolve(modules, mod, name):
    """Follow re-exports (`from .x import y` in __init__) to the module
    that defines `name`."""
    while mod in modules and name not in modules[mod].defs \
            and name in modules[mod].imported:
        mod, name = modules[mod].imported[name]
    return mod, name


def reachable(modules, roots):
    todo = [_resolve(modules, m, n) for m, n in roots]
    seen = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or mod not in modules:
            continue
        seen.add((mod, name))
        m = modules[mod]
        node = m.defs.get(name)
        if node is None:
            continue
        for ref_mod, ref in m.references(node):
            todo.append(_resolve(modules, ref_mod or mod, ref))
    return seen


def roots(modules, scripts):
    out = {("cli", name) for name in modules["cli"].defs}
    for tree in scripts:
        out |= {ref for ref in Module(tree).references(tree) if ref[0]}
    return out


def unreached(modules, scripts):
    seen = reachable(modules, roots(modules, scripts))
    return sorted((mod, name) for mod, m in modules.items()
                  for name in m.public
                  if (mod, name) not in seen)


def _parameters(fn: ast.FunctionDef):
    """The positional parameter names of fn in order, and the names of
    its parameters that have a default."""
    a = fn.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [x.arg for x, default in zip(a.kwonlyargs, a.kw_defaults)
                  if default is not None]
    return positional, defaulted


def _is_dataclass(node):
    """Whether node is a class definition under `@dataclass`, bare or
    called, by name or as `dataclasses.dataclass`."""
    if not isinstance(node, ast.ClassDef):
        return False
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef):
    """The field names of a dataclass in order, and the names of its
    fields that have a default: the parameters of its `__init__`."""
    fields = [n for n in cls.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return ([n.target.id for n in fields],
            [n.target.id for n in fields if n.value is not None])


def _signature(node):
    """_parameters of a function, _fields of a dataclass, else None."""
    if isinstance(node, ast.FunctionDef):
        return _parameters(node)
    if _is_dataclass(node):
        return _fields(node)
    return None


def _calls(mod, m, node):
    """(call, (module, name)) for every call in node to a package
    definition: a name or attribute that stands for one, or the first
    parameter of a classmethod, which stands for its class."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) \
                and (ref := m.target(sub.func)) is not None:
            yield sub, (ref[0] or mod, ref[1])
        elif isinstance(sub, ast.ClassDef):
            for fn in sub.body:
                if not isinstance(fn, ast.FunctionDef) or not fn.args.args \
                        or not any(getattr(d, "id", None) == "classmethod"
                                   for d in fn.decorator_list):
                    continue
                cls = fn.args.args[0].arg
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call) \
                            and getattr(call.func, "id", None) == cls:
                        yield call, (mod, sub.name)


def passed_parameters(modules, scripts):
    """(module, function or dataclass) -> the names of the parameters or
    fields that some call in the code the roots reach passes; a call that
    unpacks `*args` or `**kwargs` passes them all."""
    sources = [(mod, modules[mod], modules[mod].defs[name])
               for mod, name in reachable(modules, roots(modules, scripts))
               if name in modules[mod].defs]
    sources += [(None, Module(tree), tree) for tree in scripts]
    passed = defaultdict(set)
    for mod, m, node in sources:
        for call, ref in _calls(mod, m, node):
            callee = _resolve(modules, *ref)
            sig = _signature(modules[callee[0]].defs.get(callee[1])) \
                if callee[0] in modules else None
            if sig is None:
                continue
            positional, defaulted = sig
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                passed[callee] |= set(positional + defaulted)
            passed[callee] |= set(positional[:len(call.args)])
            passed[callee] |= {k.arg for k in call.keywords}
    return passed


def unpassed_defaults(modules, scripts):
    """(module, function, parameter) for every defaulted parameter of a
    public function outside cli.py that no reached call passes."""
    passed = passed_parameters(modules, scripts)
    return sorted((mod, name, param)
                  for mod, m in modules.items() if mod != "cli"
                  for name in m.public
                  if isinstance(m.defs[name], ast.FunctionDef)
                  for param in _parameters(m.defs[name])[1]
                  if param not in passed[(mod, name)])


def unset_fields(modules, scripts):
    """(module, class, field) for every defaulted field of a public
    dataclass that no reached construction sets."""
    passed = passed_parameters(modules, scripts)
    return sorted((mod, name, field)
                  for mod, m in modules.items()
                  for name in m.public if _is_dataclass(m.defs[name])
                  for field in _fields(m.defs[name])[1]
                  if field not in passed[(mod, name)])


def _public_functions(m: Module):
    """(name, node) for every public function of a module and every public
    method of its public classes, a method named `Class.method`."""
    for name in sorted(m.public):
        node = m.defs[name]
        if isinstance(node, ast.FunctionDef):
            yield name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) \
                        and not fn.name.startswith("_"):
                    yield f"{name}.{fn.name}", fn


def unread_parameters(modules):
    """(module, function, parameter) for every parameter of a public
    function or method that its body never reads, leaving out names that
    start with an underscore."""
    out = []
    for mod, m in modules.items():
        for name, fn in _public_functions(m):
            a = fn.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            read = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            out += [(mod, name, param) for param in params
                    if not param.startswith("_") and param not in read]
    return sorted(out)


def unused_methods(modules, scripts):
    """(module, Class.method) for every public method of a public class
    whose name neither the code the roots reach nor a script uses as an
    attribute."""
    reached = [modules[mod].defs[name]
               for mod, name in reachable(modules, roots(modules, scripts))
               if name in modules[mod].defs]
    used = {sub.attr for node in reached + scripts for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)}
    return sorted((mod, name) for mod, m in modules.items()
                  for name, _ in _public_functions(m)
                  if "." in name and name.split(".")[1] not in used)


def file_writes(tree):
    """Line numbers of the calls in tree that make a directory
    (`os.makedirs`, `os.mkdir`) or open a file with a mode that writes; a
    mode that is not a string literal counts as writing."""
    lines = []
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call):
            continue
        name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
        if name == "open":
            modes = sub.args[1:2] + [k.value for k in sub.keywords
                                     if k.arg == "mode"]
            if not any(not isinstance(m, ast.Constant)
                       or set("wax+") & set(str(m.value)) for m in modes):
                continue
        elif name not in ("makedirs", "mkdir"):
            continue
        lines.append(sub.lineno)
    return sorted(lines)


def test_only_the_cli_writes_files():
    writes = {fn: file_writes(_parse(os.path.join(SRC, fn)))
              for fn in sorted(os.listdir(SRC))
              if fn.endswith(".py") and fn != "cli.py"}
    found = [f"{fn}:{line}" for fn, lines in writes.items() for line in lines]
    assert not found, (
        "files written or directories made outside cli.py: "
        + ", ".join(found))
    # and inside it, one helper writes
    cli = _parse(os.path.join(SRC, "cli.py"))
    writer = Module(cli).defs["_write_text"]
    assert file_writes(cli) == file_writes(writer)


def test_write_walk_flags_write_modes_and_directories():
    tree = ast.parse(
        "import os\n"
        "def save(path, mode):\n"
        "    os.makedirs(path)\n"
        "    open(path, 'w').write('x')\n"
        "    open(path, mode='a')\n"
        "    open(path, mode)\n"
        "    open(path).read(), open(path, 'rb').read(), box.open()\n"
        "    with open(path, 'r+') as f:\n"
        "        return f\n")
    # the reads on line 7 are not flagged; a mode held in a name is
    assert file_writes(tree) == [3, 4, 5, 6, 8]


def test_every_public_definition_has_a_caller():
    missing = unreached(_load_package(), _load_scripts())
    assert not missing, (
        "public definitions that no CLI command, verify check or script "
        "reaches: " + ", ".join(f"{m}.{n}" for m, n in missing))


def test_every_option_has_a_setter():
    unset = unpassed_defaults(_load_package(), _load_scripts())
    assert not unset, (
        "defaulted parameters that no call from the CLI, a verify check or "
        "a script passes: "
        + ", ".join(f"{m}.{n}({p}=)" for m, n, p in unset))


def test_every_dataclass_field_has_a_setter():
    unset = unset_fields(_load_package(), _load_scripts())
    assert not unset, (
        "defaulted dataclass fields that no construction from the CLI, a "
        "verify check or a script sets: "
        + ", ".join(f"{m}.{c}.{f}" for m, c, f in unset))


def test_every_parameter_is_read():
    unread = unread_parameters(_load_package())
    assert not unread, (
        "parameters that their function never reads: "
        + ", ".join(f"{m}.{n}({p})" for m, n, p in unread))


def test_every_method_has_a_caller():
    unused = unused_methods(_load_package(),
                            _load_scripts() + _load_scripts(PERFBENCH))
    assert not unused, (
        "public methods that no CLI command, verify check, script or "
        "benchmark uses: " + ", ".join(f"{m}.{n}" for m, n in unused))


def test_numerics_exports_the_divided_kernels():
    # gamma, f2 and k1 divided by their leading power of u; the undivided
    # kernels are gone, so a leftover import of one fails at collection
    from dcollapse import numerics
    assert numerics.__all__ == ["G", "F", "K"]
    assert all(callable(getattr(numerics, name)) for name in numerics.__all__)
    assert not any(hasattr(numerics, name)
                   for name in ("one_minus_exp", "f2", "k1"))


def test_walk_follows_aliases_and_ignores_docstrings():
    src = (
        '"""Mentions helper() only in prose."""\n'
        "from dcollapse import master as me\n"
        "from dcollapse.gaussian import spreads\n"
        "def run():\n"
        "    return me.coeff_flow, spreads\n"
    )
    tree = ast.parse(src)
    refs = Module(tree).references(tree)
    assert refs == {("master", "coeff_flow"), ("gaussian", "spreads")}


def test_parameter_walk_counts_positional_and_keyword_passes():
    lib = ast.parse(
        "def scale(x, factor=2.0, offset=0.0, clip=None, *, mode='a'):\n"
        "    return x\n")
    cli = ast.parse(
        "from .lib import scale\n"
        "def main(verbose=False):\n"
        "    return scale(1.0, 3.0), scale(2.0, offset=1.0)\n")
    script = ast.parse(
        "from dcollapse.lib import scale\n"
        "scale(0.0, mode='b')\n")
    modules = {"lib": Module(lib), "cli": Module(cli)}
    # factor is passed by position, offset and mode by keyword; main's
    # verbose is exempt as a cli.py definition
    assert unpassed_defaults(modules, [script]) == [("lib", "scale", "clip")]
    assert unpassed_defaults(modules, []) == [("lib", "scale", "clip"),
                                              ("lib", "scale", "mode")]


FIELDS_LIB = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class Box:\n"
    "    size: float\n"
    "    depth: float = 1.0\n"
    "    label: str = ''\n"
    "    @classmethod\n"
    "    def from_dict(cls, d):\n"
    "        return cls(**d)\n"
    "@dataclass(frozen=True)\n"
    "class Lid:\n"
    "    colour: str = 'red'\n"
    "    shape: str = 'round'\n")


@pytest.mark.parametrize("body, unset", [
    # built with no arguments: every defaulted field is a constant
    ("Lid()", [("lib", "Lid", "colour"), ("lib", "Lid", "shape")]),
    ("Lid('blue')", [("lib", "Lid", "shape")]),
    ("Lid(shape='square')", [("lib", "Lid", "colour")]),
    ("Lid(**kw)", []),
    ("Lid(*args)", []),
])
def test_field_walk_counts_positional_keyword_and_unpacked_sets(body, unset):
    lib = ast.parse(FIELDS_LIB)
    cli = ast.parse(
        "from .lib import Lid\n"
        f"def main(kw=None, args=()):\n    return {body}\n")
    modules = {"lib": Module(lib), "cli": Module(cli)}
    # Box is never constructed, so neither of its fields is set
    assert unset_fields(modules, []) == sorted(
        unset + [("lib", "Box", "depth"), ("lib", "Box", "label")])


def test_field_walk_counts_cls_in_a_classmethod_as_the_class():
    lib = ast.parse(FIELDS_LIB)
    cli = ast.parse(
        "from .lib import Box, Lid\n"
        "def main():\n"
        "    return Box.from_dict({}), Lid('blue', 'square')\n")
    modules = {"lib": Module(lib), "cli": Module(cli)}
    assert unset_fields(modules, []) == []


def test_read_walk_flags_a_parameter_the_body_never_reads():
    lib = ast.parse(
        "def shade(colour, p, _t, *extra, scale=1.0, **opts):\n"
        "    p = 2.0\n"
        "    return [colour for _ in extra], opts\n"
        "class Lid:\n"
        "    def paint(self, colour):\n"
        "        return self\n"
        "    def _hidden(self, unused):\n"
        "        return self\n")
    # p is only assigned, _t is unused on purpose, and a private method is
    # not scanned
    assert unread_parameters({"lib": Module(lib)}) == [
        ("lib", "Lid.paint", "colour"), ("lib", "shade", "p"),
        ("lib", "shade", "scale")]


def test_method_walk_matches_attribute_names():
    lib = ast.parse(
        "class Box:\n"
        '    """Box.seal() is named here only in prose."""\n'
        "    def open(self):\n"
        "        return self\n"
        "    def seal(self):\n"
        "        return self\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'box'\n"
        "    def _wipe(self):\n"
        "        return self\n")
    cli = ast.parse(
        "from .lib import Box\n"
        "def main():\n"
        "    return Box().open(), Box().label\n")
    script = ast.parse("lid.seal()\n")
    modules = {"lib": Module(lib), "cli": Module(cli)}
    # a property is an attribute too; a private method is not scanned; the
    # script's `lid` may be any object, and its `.seal` counts
    assert unused_methods(modules, []) == [("lib", "Box.seal")]
    assert unused_methods(modules, [script]) == []
