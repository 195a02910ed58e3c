"""Every public function and class of the package has a caller.

A public top-level function or class of `src/dcollapse` stays only if a CLI
command, a `verify` check or a script in `scripts/` reaches it.  The test
parses the sources with `ast` and walks references from the roots: every
top-level definition of `cli.py`, and every package name a script refers
to.  A reference is a name or an attribute in code (`ge.spreads`), never a
mention in a docstring, so a function that only tests call is reported
even when the module docs still name it.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "dcollapse"
SRC = os.path.join(ROOT, "src", PACKAGE)
SCRIPTS = os.path.join(ROOT, "scripts")

# suggest_dt is kept for the `dt` pre-flight of ROADMAP item 2, which will
# call it from the ensemble runner
ALLOWED_WITHOUT_CALLER = {("grid", "suggest_dt")}


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

    def references(self, node):
        """(module, name) pairs that the code of `node` refers to; the
        module is None for a name of this file."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id in self.aliases:
                out.add((self.aliases[sub.value.id], sub.attr))
            elif isinstance(sub, ast.Name):
                if sub.id in self.imported:
                    out.add(self.imported[sub.id])
                elif sub.id in self.defs:
                    out.add((None, sub.id))
        return out


def _load_package():
    return {fn[:-3]: Module(_parse(os.path.join(SRC, fn)))
            for fn in sorted(os.listdir(SRC)) if fn.endswith(".py")}


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


def roots(modules):
    out = {("cli", name) for name in modules["cli"].defs}
    for fn in sorted(os.listdir(SCRIPTS)):
        if fn.endswith(".py"):
            tree = _parse(os.path.join(SCRIPTS, fn))
            out |= {ref for ref in Module(tree).references(tree) if ref[0]}
    return out


def unreached(modules):
    seen = reachable(modules, roots(modules))
    return sorted((mod, name) for mod, m in modules.items()
                  for name in m.public
                  if (mod, name) not in seen
                  and (mod, name) not in ALLOWED_WITHOUT_CALLER)


def test_every_public_definition_has_a_caller():
    missing = unreached(_load_package())
    assert not missing, (
        "public definitions that no CLI command, verify check or script "
        "reaches: " + ", ".join(f"{m}.{n}" for m, n in missing))


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
