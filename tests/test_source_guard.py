"""Dead code guard for the library modules, read with ast only.

Every module of src/hombench other than __init__ must use every name it
imports, and every module-level _private function must be referenced
somewhere in src/ besides its own definition. No module rebuilds a map,
tensor or bilinear form from another object's entries, no validator records
an instance summed as a list of per-row dot products, and no function takes a
boolean switch.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hombench"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """The names an import statement binds in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _loaded(tree):
    """The names read anywhere in the module: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        loaded = _loaded(tree)
        unused += ["%s: %s" % (name, imported) for imported in _imported(tree) if imported not in loaded]
    assert unused == []


def test_every_private_function_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _loaded(tree)
        referenced |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    unreferenced = ["%s: %s" % (name, node.name) for name, tree in modules.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__") and node.name not in referenced]
    assert unreferenced == []


def test_no_map_or_tensor_is_rebuilt_from_entries():
    """LinearMap, Tensor2 and Tensor3 share one integer row store, so a call
    such as LinearMap(x.entries) only divides x's form into Fractions and
    coerces them back: use x, or a method that keeps the form. BilinearForm
    coerces its matrix into a Tensor2, so BilinearForm(x.entries, ...) is the
    same round trip."""
    builders = {"LinearMap", "Tensor2", "Tensor3", "BilinearForm"}
    rebuilt = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            first = node.args[0]
            if called in builders and isinstance(first, ast.Attribute) and first.attr == "entries":
                rebuilt.append("%s:%d" % (name, node.lineno))
    assert rebuilt == []


def _is_dot(node):
    """Is the node a call sum(map(mul, ...))?"""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum" and node.args
            and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "map"
            and node.args[0].args and getattr(node.args[0].args[0], "id", None) == "mul")


def test_no_instance_is_recorded_as_a_list_of_row_dots():
    """An identity instance is one packed int (foundation._packed_operators and
    _slot_bits), unpacked only when it fails. Passing _record a comprehension
    whose elements are sum(map(mul, ...)) dots, one per output row, brings back
    the per-row summing that packing replaced."""
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record"):
                continue
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)) and any(
                        _is_dot(inner) for inner in ast.walk(arg.elt)):
                    found.append("%s:%d" % (name, node.lineno))
    assert found == []


# The map-tuple views of the action-family containers: HomLieRep.maps and the
# four families of the matched pairs, and HomPreLieRep.left/right. A
# dendriform's left/right are tables, so left/right count as views only when
# read from an object named as a representation (rep, r or a name ending in
# _rep), the names src/hombench gives a HomPreLieRep.
_FAMILY_VIEWS = {"maps", "first_action", "second_action", "first_left", "first_right", "second_left",
                 "second_right"}
_REP_VIEWS = {"left", "right"}
# The callers that take an action family and store or combine it as a table.
_FAMILY_TAKERS = {"action_table", "from_left_maps", "_action_family", "star_maps", "_dual_actions",
                  "HomLieRep", "HomPreLieRep", "LieMatchedPair", "PreLieMatchedPair"}


def _is_rep_name(node):
    name = getattr(node, "id", getattr(node, "attr", ""))
    return name in ("rep", "r") or name.endswith("_rep")


def _is_maps_of_a_table(node):
    """Is the node a .left_maps()/.right_maps() call or a container's map view?"""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr in ("left_maps", "right_maps")
    return isinstance(node, ast.Attribute) and (
        node.attr in _FAMILY_VIEWS or node.attr in _REP_VIEWS and _is_rep_name(node.value))


def test_no_action_family_goes_table_to_maps_to_table():
    """An action family is stored as its action table (representations.
    _action_family), and the containers' map tuples are views derived from it.
    Handing a table's left_maps()/right_maps() or such a view to action_table,
    Tensor3.from_left_maps, a container or the twisted dual rebuilds the table
    it came from: pass the table, its swapped() form for a right-multiplication
    family, or the container's stored table."""
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in _FAMILY_TAKERS and any(_is_maps_of_a_table(arg) for arg in node.args):
                found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_no_function_takes_a_boolean_switch():
    """A parameter that defaults to True or False forks a function into two
    code paths behind a private knob: give each caller the one path it needs,
    or split the function."""
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
                if any(isinstance(d, ast.Constant) and type(d.value) is bool for d in defaults):
                    found.append("%s:%d" % (name, node.lineno))
    assert found == []
