"""Package layout: every top-level definition in `src/cvpqc` is reached from an
entry point.

The entry points are every definition in `cli`, `config` and `experiments`,
plus `fock.squeezed_coherent_closed_form`, which the benchmark's honesty screen
imports.  A definition reached only from tests belongs in `tests/oracles.py`.
The walk follows names through the AST: a bare name resolves to a definition
of the same module or to a `from .module import name`, and `module.name`
resolves through `from . import module`.  Methods ride along with their class
in that walk; a second check asks of every public method and property that
its name is read as an attribute somewhere in `src` outside its own body.
That check goes by name only, so it can miss an unused member whose name
another object's attribute shares, but it never flags a used one.  A third
check asks of every name an import binds, in `src/cvpqc` and in `tests/`,
that its module reads it somewhere.  A fourth asks that `src/cvpqc` import
nothing beyond numpy, the standard library and its own modules, a fifth
that every parameter of a `src/cvpqc` function is read in its body, unless its
name starts with an underscore: a parameter that a calling convention passes
and this function does not need, and a sixth that `config` imports no package
module but `experiments`, where every per-experiment rule lives.
"""
import ast
import sys
from pathlib import Path

import cvpqc

PACKAGE = Path(cvpqc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT_MODULES = ("cli", "config", "experiments")
EXTRA_ROOTS = ("fock.squeezed_coherent_closed_form",)


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _module_graph(modules):
    """(definition -> the definitions it references,
    module -> [(names a top-level statement defines, what it references)])."""
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in modules}
    local, imported, submodules = {}, {}, {}
    for m, tree in trees.items():
        local[m] = {n for stmt in tree.body for n in _defined_names(stmt)}
        imported[m], submodules[m] = {}, {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    if stmt.module is None and alias.name in modules:
                        submodules[m][bound] = alias.name
                    else:
                        imported[m][bound] = f"{stmt.module or '__init__'}.{alias.name}"

    def resolve(m, node):
        if isinstance(node, ast.Name):
            if node.id in local[m]:
                return f"{m}.{node.id}"
            return imported[m].get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in submodules[m]):
            return f"{submodules[m][node.value.id]}.{node.attr}"
        return None

    edges, statements = {}, {}
    for m, tree in trees.items():
        statements[m] = []
        for stmt in tree.body:
            refs = {r for n in ast.walk(stmt) if (r := resolve(m, n))}
            names = _defined_names(stmt)
            statements[m].append((names, refs))
            for name in names:
                edges.setdefault(f"{m}.{name}", set()).update(refs)
    return edges, statements


def unreached_definitions():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    edges, statements = _module_graph(modules)
    roots = set(EXTRA_ROOTS)
    for m in modules:
        for names, refs in statements[m]:
            if m in ROOT_MODULES:
                roots.update(f"{m}.{n}" for n in names)
            if not names:
                roots.update(refs)  # module-level code runs on import
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges.get(name, ()))
    return sorted(set(edges) - seen)


def test_every_definition_is_reached_from_an_entry_point():
    assert unreached_definitions() == []


def unread_members():
    """Public methods and properties of `src` classes whose name no attribute
    read in `src` uses, apart from reads inside the member's own body."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    reads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for tree in trees:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    own = {id(n) for n in ast.walk(member)}
                    if not any(r.attr == member.name and id(r) not in own for r in reads):
                        unread.append(f"{cls.name}.{member.name}")
    return sorted(unread)


def test_every_public_member_is_read_in_src():
    assert unread_members() == []


def unused_imports():
    """`dir/file:line name` for every name an import binds (`from __future__`
    aside) that no expression of its module reads."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import) or (isinstance(stmt, ast.ImportFrom)
                                                and stmt.module != "__future__"):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.parent.name}/{path.name}:{stmt.lineno} {bound}")
    return unused


def test_every_imported_name_is_read():
    assert unused_imports() == []


def foreign_imports():
    """`file:line module` for every absolute import in `src/cvpqc` of a module
    that is neither numpy nor in the standard library."""
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
                names = [stmt.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{stmt.lineno} {name}")
    return foreign


def test_src_imports_only_numpy_and_the_standard_library():
    assert foreign_imports() == []


def unread_parameters():
    """`module.function(parameter)` for every parameter of a `src/cvpqc` function,
    nested ones included, that its body never reads and whose name does not
    start with an underscore."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                a = fn.args
                params = (a.posonlyargs + a.args + a.kwonlyargs
                          + [p for p in (a.vararg, a.kwarg) if p])
                read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread += [f"{path.stem}.{fn.name}({p.arg})" for p in params
                           if p.arg not in read and not p.arg.startswith("_")]
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == []


def package_imports(module):
    """The `src/cvpqc` modules that ``module`` imports (relatively: the fourth check
    rejects an absolute import of the package)."""
    found = set()
    for stmt in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            found.update([stmt.module] if stmt.module else [a.name for a in stmt.names])
    return sorted(found)


def test_config_imports_only_experiments():
    assert package_imports("config") == ["experiments"]
