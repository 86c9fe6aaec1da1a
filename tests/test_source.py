"""Static checks over the package source, read with ast (no linter needed)."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentcert"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = PACKAGE.parent.parent / "bench"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree):
    """The names listed in a module-level __all__, or ()."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    return ()


def unused_imports(tree):
    """Names a module imports but never reads or re-exports through __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import x as y" binds y
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom e import f\n"
                     "__all__ = ['f']\nprint(os.sep, d)\n")
    assert unused_imports(tree) == [(2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(_tree(path)) == []


def unread_functions(defining, reading, exported=()):
    """The functions and methods of defining that nothing reads by name.

    defining maps a module name to its tree; a top-level function or a
    class's method counts as read when some tree in reading loads its name,
    bare or as an attribute.  Exempt are the exported names, dunder methods
    (called by the language) and cli's _cmd_* handlers (dispatched by
    name).  Returns sorted "module.qualname" strings.
    """
    read = set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for mod, tree in defining.items():
        for node in tree.body:
            owner, defs = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, defs = f"{node.name}.", node.body
            for item in defs:
                if not isinstance(item, ast.FunctionDef) or item.name in read:
                    continue
                if item.name in exported or item.name.startswith("__"):
                    continue
                if mod == "cli" and item.name.startswith("_cmd_"):
                    continue
                unread.append(f"{mod}.{owner}{item.name}")
    return sorted(unread)


def test_unread_functions_are_found():
    tree = ast.parse("def used(): pass\ndef unused(): pass\ndef shown(): pass\n"
                     "def _cmd_run(): pass\nclass C:\n    def read(self): pass\n"
                     "    def stale(self): pass\n    def __repr__(self): pass\n"
                     "used(); C().read\n")
    assert unread_functions({"cli": tree}, [tree], exported=("shown",)) == [
        "cli.C.stale", "cli.unused"]
    assert unread_functions({"m": tree}, [tree], exported=("shown",)) == [
        "m.C.stale", "m._cmd_run", "m.unused"]


def test_every_function_has_a_reader():
    """Every function and method of the package is read by the package or
    the benchmark, or exported through momentcert.__all__."""
    trees = {path.stem: _tree(path) for path in MODULES}
    bench = [_tree(path) for path in sorted(BENCH.glob("*.py"))]
    exported = _dunder_all(trees["__init__"])
    assert unread_functions(trees, [*trees.values(), *bench], exported) == []


def error_uses(tree):
    """The class names a tree raises, catches or subclasses, bare or as an attribute."""
    def names(node):
        if isinstance(node, ast.Call):
            return names(node.func)
        if isinstance(node, ast.Tuple):
            return {name for elt in node.elts for name in names(elt)}
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        return set()

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            used |= names(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            used |= names(node.type)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                used |= names(base)
    return used


def test_error_uses_are_found():
    tree = ast.parse("class B(errors.A): pass\ntry:\n    raise C('x')\n"
                     "except (D, m.E):\n    raise\nexcept F as exc:\n    raise G from exc\n"
                     "H()\n")
    assert error_uses(tree) == {"A", "C", "D", "E", "F", "G"}


def test_every_error_type_is_used():
    """Every class in errors.py is raised, caught or subclassed by the
    package, so a retired error type cannot linger."""
    trees = [_tree(path) for path in MODULES]
    defined = {node.name for node in _tree(PACKAGE / "errors.py").body
               if isinstance(node, ast.ClassDef)}
    used = set().union(*map(error_uses, trees))
    assert sorted(defined - used) == []


EXPORTING = [p for p in MODULES if _dunder_all(_tree(p))]


def test_the_package_declares_its_exports():
    assert PACKAGE / "__init__.py" in EXPORTING


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_all_entry_resolves(path):
    """Every module imports without side effects, and its __all__ resolves."""
    names = _dunder_all(_tree(path))
    name = "momentcert" if path.stem == "__init__" else f"momentcert.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in names if not hasattr(module, n)] == []


# -- the trusted base of verify ------------------------------------------------------


def _index():
    """(functions, methods by name, module scopes) for the whole package.

    functions maps "module.func" and "module.Class.method" to their defs;
    a scope maps each top-level name of a module to ("func", qualname),
    ("class", qualname), ("module", name) or ("from", module, name).
    """
    functions, methods, scopes = {}, {}, {}
    for path in MODULES:
        mod = path.stem
        scope = scopes.setdefault(mod, {})
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{mod}.{node.name}"] = node
                scope[node.name] = ("func", f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                scope[node.name] = ("class", f"{mod}.{node.name}")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qualname = f"{mod}.{node.name}.{item.name}"
                        functions[qualname] = item
                        methods.setdefault(item.name, []).append(qualname)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        scope[bound] = ("module", alias.name)
                    else:
                        scope[bound] = ("from", node.module, alias.name)
    return functions, methods, scopes


def reachable(start):
    """The package functions and methods that start can reach, by name.

    A bare name resolves through its module's definitions and relative
    imports, module.attr through the imported module, and any other
    obj.attr to every package method or property of that name.  Reaching a
    method of a class also reaches the class's __post_init__.
    """
    functions, methods, scopes = _index()

    def resolve(mod, name):
        target = scopes[mod].get(name)
        if target and target[0] == "from":
            return resolve(target[1], target[2])
        return target

    todo, seen = [start], set()
    while todo:
        qualname = todo.pop()
        if qualname in seen or qualname not in functions:
            continue
        seen.add(qualname)
        mod, *owner, _ = qualname.split(".")
        if owner:
            todo.append(f"{mod}.{owner[0]}.__post_init__")
        for node in ast.walk(functions[qualname]):
            if isinstance(node, ast.Name):
                target = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                base = isinstance(node.value, ast.Name) and resolve(mod, node.value.id)
                if base and base[0] == "module":
                    target = resolve(base[1], node.attr)
                else:
                    todo.extend(methods.get(node.attr, ()))
                    continue
            else:
                continue
            if target and target[0] == "func":
                todo.append(target[1])
    return seen


TRUSTED_BASE = (
    "certificate._check_regular_level",
    "certificate._check_target",
    "certificate._describe",
    "certificate._merge",
    "certificate._model_and_bound",
    "certificate._verify_leaf",
    "certificate._verify_node",
    "certificate._verify_product",
    "certificate._verify_reduction",
    "certificate.verify",
    "lattice._eliminate",
    "lattice.as_fractions",
    "lattice.format_vec",
    "lattice.identity",
    "lattice.integer_rows",
    "lattice.is_primitive",
    "lattice.smith_normal_form",
    "lattice.solve_exact",
    "lattice.transpose",
    "lattice.vec_gcd",
    "lattice.vsub",
    "polytope.Polytope.__post_init__",
    "polytope.Polytope.canonical_form",
    "polytope._check_facet_count",
    "polytope._coordinate_blocks",
    "polytope._facet_rows",
    "polytope._interior_nonempty",
    "polytope._on_hyperplane",
    "polytope._prune_block",
    "polytope._prune_facet_list",
    "polytope._ray_witnessed",
    "polytope._split",
    "polytope._tightest",
    "polytope._unvalidated",
    "polytope.feasible",
    "polytope.product",
    "reduction.AffineReduction.__post_init__",
    "reduction.AffineReduction.ambient_dim",
    "reduction.AffineReduction.preimage",
    "reduction.AffineReduction.reduced_dim",
    "reduction.reduce_with_sources",
    "reduction.weighted_projective_normals",
)
# the lines of those definitions, from def to last line, docstrings included
TRUSTED_BASE_LINES = 677


def test_the_trusted_base_of_verify_is_pinned():
    """Everything verify's verdict depends on; growing it needs a reason."""
    base = reachable("certificate.verify")
    assert tuple(sorted(base)) == TRUSTED_BASE
    functions, _, _ = _index()
    lines = sum(functions[q].end_lineno - functions[q].lineno + 1 for q in base)
    assert lines == TRUSTED_BASE_LINES
    outside = {"certificate.auto_certify_monotone", "reduction.monotone_weights",
               "polytope.Polytope.vertices", "polytope.polytope", "reduction.simplex",
               "reduction.weighted_projective", "reduction.cp1", "reduction.o_minus_one"}
    assert not base & outside
    assert not [q for q in base if q.split(".")[0] in ("floer", "probes", "cli")]


def test_leaves_read_their_center_off_the_table():
    """A leaf's center is the closed form on its model's table: the leaf
    rule runs no solve, neither the exact kernel nor the equidistant one."""
    reached = reachable("certificate._verify_leaf")
    assert not {"lattice.solve_exact", "polytope.equidistant_point"} & reached


def test_delzant_scans_blocks_not_the_product_vertices():
    """is_delzant decides on each coordinate block's own vertex scan and
    never builds the product's vertex set."""
    reached = reachable("polytope.Polytope.is_delzant")
    assert {"polytope._blocks", "polytope._vertex_scan", "polytope._delzant_at"} <= reached
    assert "polytope.Polytope.vertices" not in reached


def test_one_routine_decides_the_coordinate_split():
    """_split is the only polytope function that reads _coordinate_blocks,
    and both the product split (_blocks) and pruning reach it, so a change
    to how systems split lands in one place."""
    functions, _, _ = _index()
    readers = {q for q, node in functions.items() if q.startswith("polytope.")
               and any(isinstance(n, ast.Name) and n.id == "_coordinate_blocks"
                       for n in ast.walk(node))}
    assert readers == {"polytope._split"}
    for caller in ("polytope._blocks", "polytope._prune_facet_list"):
        assert "polytope._split" in reachable(caller), caller


def test_pruning_runs_on_integer_rows():
    """_prune_facet_list and the helpers it calls, Fourier-Motzkin included,
    never name Fraction or float: the rows are scaled to integers once and
    every redundancy question is built from them, down to FM's bounds on
    its last variable, compared by cross-multiplying.  FM takes integer rows
    as they come and scales nothing itself.  Its two callers scale over one
    denominator and call no integer_rows: prune_redundant builds no
    Fraction, and reduce_with_sources builds one only for the facets it
    returns and for an error message."""
    functions, _, _ = _index()

    def named(qualnames):
        nodes = [node for q in qualnames for node in ast.walk(functions[q])]
        return ({node.id for node in nodes if isinstance(node, ast.Name)}
                | {node.attr for node in nodes if isinstance(node, ast.Attribute)})

    own = {q for q in reachable("polytope._prune_facet_list") if q.startswith("polytope.")}
    fm = {"polytope.feasible", "polytope._tightest"}
    assert own == {"polytope._prune_facet_list", "polytope._prune_block", "polytope._split",
                   "polytope._coordinate_blocks", "polytope._on_hyperplane",
                   "polytope._ray_witnessed"} | fm
    assert not {"Fraction", "float"} & named(own)
    assert "integer_rows" not in named(fm)
    scaling = ("polytope.prune_redundant", "polytope._facet_rows", "reduction.reduce_with_sources")
    assert "integer_rows" not in named(scaling)
    assert not {"Fraction", "as_fractions"} & named(scaling[:2])
    reduce = functions["reduction.reduce_with_sources"]
    assert "Fraction" in named_outside_raise(reduce)
    assert "Fraction" not in named_outside_raise(reduce, calls=("Facet",))


def named_outside_raise(node, calls=()):
    """The names and attributes node reads, except inside raise statements
    and inside calls to the functions that calls names."""
    if isinstance(node, ast.Raise):
        return set()
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in calls:
        return set()
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    for child in ast.iter_child_nodes(node):
        names |= named_outside_raise(child, calls)
    return names


def test_named_outside_raise_skips_error_messages():
    tree = ast.parse("def f(x):\n    y = lattice.as_fractions(x)\n"
                     "    raise E(Fraction(y))\n")
    assert named_outside_raise(tree) == {"y", "lattice", "as_fractions", "x"}
    tree = ast.parse("def f(x):\n    y = Facet(x, Fraction(x))\n    return y\n")
    assert named_outside_raise(tree) == {"y", "Facet", "x", "Fraction"}
    assert named_outside_raise(tree, calls=("Facet",)) == {"y"}


def test_the_exact_kernels_run_on_integer_points():
    """The elimination, the solve, rank and determinant, the vertex and
    compactness scans and the weight lemma build no Fraction: solve_exact
    returns numerators over one denominator, rank and determinant return
    ints, the scans dedupe and test signs on those integers, and only the
    callers that return rational values (vertices, equidistant_point,
    preimage) turn them into Fractions, once each.  A Fraction for an
    error message is allowed."""
    functions, _, _ = _index()
    lattice_kernels = ("lattice._eliminate", "lattice.solve_exact", "lattice.det_exact",
                       "lattice.rank_exact")
    kernels = lattice_kernels + ("polytope._vertex_scan", "polytope._compact_scan",
                                 "reduction._vertex_cone_coords")
    for qualname in kernels:
        named = named_outside_raise(functions[qualname])
        assert not {"Fraction", "as_fractions"} & named, qualname
    # integer rows in, so the lattice kernels scale nothing themselves
    for qualname in lattice_kernels:
        assert "integer_rows" not in named_outside_raise(functions[qualname]), qualname


def truncating_int_calls(tree):
    """The lines of the int(...) calls in tree that do not take one comparison.

    int(i == j) turns a bool into 0 or 1; any other int() may truncate a
    float or a Fraction into a wrong exact value."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int"
            and not (len(node.args) == 1 and not node.keywords
                     and isinstance(node.args[0], ast.Compare))]


def test_truncating_int_calls_are_found():
    tree = ast.parse("a = int(i == j)\nb = int(w)\nc = int(x, 2)\nd = int(i < j, base=2)\n"
                     "e = index(w)\n")
    assert truncating_int_calls(tree) == [2, 3, 4]


def test_the_trusted_base_reads_exact_numbers_only():
    """No function verify reaches names float, holds a float literal or
    calls int() on anything but a comparison, and integer_rows builds no
    Fraction: it reads ints and Fractions through numerator and
    denominator, and anything else fails there instead of being converted."""
    functions, _, _ = _index()
    for qualname in reachable("certificate.verify"):
        for node in ast.walk(functions[qualname]):
            assert not (isinstance(node, ast.Name) and node.id == "float"), qualname
            assert not (isinstance(node, ast.Constant) and type(node.value) is float), qualname
        assert truncating_int_calls(functions[qualname]) == [], qualname
    names = {node.id for node in ast.walk(functions["lattice.integer_rows"])
             if isinstance(node, ast.Name)}
    assert "Fraction" not in names
