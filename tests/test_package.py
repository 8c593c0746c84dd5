"""The package's own description matches what is installed."""

import ast
import importlib
import re
from pathlib import Path

import schottky


def test_modules_named_in_package_docstring_import():
    names = re.findall(r":mod:`(schottky\.\w+)`", schottky.__doc__)
    assert len(names) >= 4
    for name in names:
        importlib.import_module(name)


def test_every_exported_name_resolves():
    names = re.findall(r":mod:`(schottky\.\w+)`", schottky.__doc__)
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_no_unused_module_imports():
    # Every name a module imports at its top level is used in it or named
    # in its __all__.  The package __init__ imports only to re-export.
    for path in sorted(Path(schottky.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= set(getattr(importlib.import_module(f"schottky.{path.stem}"), "__all__", ()))
        assert not sorted(imported - used), (path.name, sorted(imported - used))


def test_cache_inventory():
    # The module-level functions cached with functools.cache or lru_cache
    # are exactly the mode route's: its per-surface state lives in these
    # bounded caches, the Poincare route's on SurfaceForms, and a new
    # hidden cache is a deliberate change to this list.
    def cached(node):
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("cache", "lru_cache"):
                return True
        return False

    found = {
        f"{path.stem}.{node.name}"
        for path in sorted(Path(schottky.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cached(node)
    }
    assert found == {"forms._surface", "modes._system", "modes._binomials"}


def test_private_imports_between_modules():
    # The private names each module imports from a sibling, as
    # "importer <- sibling.name".  The mode systems' cache stays inside
    # modes: the correlators read Z through heisenberg_partition, a name
    # the benchmark's tracer wraps.  A new reach into a sibling's
    # internals is a deliberate change to this list.
    found = {
        f"{path.stem} <- {node.module.rpartition('.')[2]}.{alias.name}"
        for path in sorted(Path(schottky.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schottky.")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == {
        "correlators <- forms._TAIL_UP",
        "correlators <- forms._UNDERFLOW",
        "correlators <- modes._insertion_points",
        "correlators <- modes._omega_matrix",
        "correlators <- modes._require_cutoff",
        "forms <- group._first_letters",
        "modes <- forms._Surface",
        "modes <- forms._orbit_ulps",
        "modes <- forms._origin_exterior",
        "modes <- forms._pole_error",
        "modes <- forms._surface",
    }


# Public API that nothing in the library or the benchmark calls, kept as an
# oracle of the tests: name -> why it stays.
ORACLES = {
    "holomorphic_form": "nu_a, which the normalization tests integrate and the b-cycle "
    "quadrature check of period_matrix sums",
    "power_bidifferential": "the reference for the third y-derivative of the weight-2 "
    "recursion_kernel",
    "quasiperiod_coefficients": "the holomorphic N-forms theta_a(x; l), checked against contour "
    "integrals of the recursion kernel",
    "compose": "MobiusMap.compose, enumerate_group's bit-identity oracle, which builds every "
    "word as a product of generator maps",
    "inverse": "MobiusMap.inverse, with which the Mobius-covariance tests conjugate the "
    "generators",
    "derivative": "MobiusMap.derivative, the gamma'(x) of the Mobius-covariance tests and of "
    "the mode route's shell oracles",
    "mobius_act_on_params": "the Mobius-covariance tests move whole surfaces with it, and "
    "SurfaceForms' origin guidance names it",
    "bidifferential_via_modes": "the mode route's omega and s behind their own cutoff gate, "
    "checked against the Poincare sums; the correlators call its core with the cutoff they "
    "checked",
}


def test_public_api_inventory():
    # Every public function of group, modes and correlators is referenced
    # (as a name, an attribute or a string, __all__ aside) from the
    # library or the benchmark, and so is every public method of
    # SurfaceForms and of group's classes, counted only as an attribute or
    # a string: a local variable that shares a method's name does not call
    # it.  Else it is a listed oracle.  A function written for a consumer
    # that does not exist fails here, and so does a stale oracle entry.
    package = Path(schottky.__file__).parent
    bench = package.parents[1] / "perfbench"
    trees = {
        path: ast.parse(path.read_text())
        for path in [*sorted(package.glob("*.py")), *sorted(bench.glob("*.py"))]
    }

    def body(module):
        return trees[package / f"{module}.py"].body

    def public(nodes):
        return {
            n.name for n in nodes if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
        }

    functions = set().union(*(public(body(m)) for m in ("group", "modes", "correlators")))
    classes = [n for n in body("forms") if isinstance(n, ast.ClassDef) and n.name == "SurfaceForms"]
    classes += [
        n for n in body("group") if isinstance(n, ast.ClassDef) and not n.name.startswith("_")
    ]
    methods = set().union(*(public(c.body) for c in classes))
    names, attributes = set(), set()
    for tree in trees.values():
        exported = {
            id(const)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for const in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in exported:
                    attributes.add(node.value)
    assert {"kernel_via_modes", "heisenberg_npoint", "enumerate_group"} <= functions
    assert {"recursion_kernel", "compose", "center"} <= methods
    unreferenced = (functions - names - attributes) | (methods - attributes)
    assert sorted(unreferenced - set(ORACLES)) == []
    assert set(ORACLES) <= functions | methods


# Every public call that returns an Estimate, or a result that holds one or
# carries a tail, -> the tests that refine its cutoff (a longer word length,
# a doubled mode cutoff or a tighter tol) and find that the value moves by
# less than the coarse tail: a tail is a bound, and these tests hold it to one.
_EVALUATORS = ("tests/test_forms.py::TestTruncationDiscipline::test_every_evaluator_within_reported_tail",
               "tests/test_forms.py::TestTruncationDiscipline::test_doubling_within_reported_tail")
_MODE_CORRELATORS = ("tests/test_correlators.py::test_mode_route_correlators_within_tail_of_the_doubled_cutoff",)
REFINEMENT_CHECKS = {
    "forms.SurfaceForms.third_kind_form": _EVALUATORS,
    "forms.SurfaceForms.recursion_kernel": _EVALUATORS,
    "forms.SurfaceForms.bidifferential": _EVALUATORS,
    "forms.SurfaceForms.power_bidifferential": _EVALUATORS[:1],
    "forms.SurfaceForms.projective_connection": _EVALUATORS,
    "forms.SurfaceForms.holomorphic_form": _EVALUATORS + (
        "tests/test_forms.py::TestTruncationDiscipline::test_coset_series_within_reported_tail",
        "tests/test_forms.py::TestTruncationDiscipline::test_holomorphic_form_within_reported_tail_from_one_letter",
    ),
    "forms.SurfaceForms.quasiperiod_coefficients": _EVALUATORS[:1],
    "forms.SurfaceForms.period_matrix": (
        "tests/test_forms.py::TestTruncationDiscipline::test_coset_series_within_reported_tail",
    ),
    "modes.kernel_via_modes": (
        "tests/test_modes.py::TestKernelViaModes::test_mode_doubling_within_reported_tail",
        "tests/test_modes.py::TestTruncationBounds::test_tail_bounds_the_doubling",
        "tests/test_modes.py::TestCertifiedRegion::test_certified_kernel_within_tail",
    ),
    "modes.bidifferential_via_modes": (
        "tests/test_modes.py::TestModeRoute::test_mode_doubling_within_reported_tail",
    ),
    "modes.heisenberg_partition": (
        "tests/test_modes.py::TestKernelViaModes::test_mode_doubling_within_reported_tail",
        "tests/test_modes.py::TestTruncationBounds::test_tail_bounds_the_doubling",
        "tests/test_modes.py::TestCertifiedRegion::test_certified_surface_within_tail",
    ),
    "correlators.heisenberg_npoint": _MODE_CORRELATORS,
    "correlators.virasoro_one_point": _MODE_CORRELATORS,
    "correlators.virasoro_two_point": _MODE_CORRELATORS,
    "correlators.lattice_partition": (
        "tests/test_correlators.py::TestTruncationDiscipline::test_lattice_partition_within_reported_tail",
    ),
    "correlators.siegel_theta": (
        "tests/test_correlators.py::TestTruncationDiscipline::test_siegel_theta_within_reported_tail",
    ),
}


def test_cutoff_refinement_registry():
    # The calls are found from the source: public functions, and public
    # methods of public classes (properties aside), whose return annotation
    # names a class with a tail field or a subclass of one.  Each must have
    # an entry, and each entry must name tests that exist.
    package = Path(schottky.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    classes = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    tailed = set()
    for _ in classes:  # a fixed point over subclasses
        tailed |= {
            c.name for c in classes
            if any(isinstance(s, ast.AnnAssign) and getattr(s.target, "id", "") == "tail" for s in c.body)
            or any(getattr(b, "id", "") in tailed for b in c.bases)
        }
    assert {"Estimate", "PartitionValue", "PeriodMatrixResult"} <= tailed

    def calls(module, prefix, nodes):
        for node in nodes:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and not any(
                getattr(d, "id", getattr(d, "attr", "")) in ("property", "cached_property")
                for d in node.decorator_list
            ) and node.returns is not None and {
                n.id for n in ast.walk(node.returns) if isinstance(n, ast.Name)
            } & tailed:
                yield f"{module}.{prefix}{node.name}"
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from calls(module, f"{node.name}.", node.body)

    found = {call for module, tree in trees.items() for call in calls(module, "", tree.body)}
    assert "modes.heisenberg_partition" in found and "forms.SurfaceForms.period_matrix" in found
    assert sorted(found - set(REFINEMENT_CHECKS)) == []
    assert sorted(set(REFINEMENT_CHECKS) - found) == []
    tests = Path(__file__).parent
    for call, ids in REFINEMENT_CHECKS.items():
        assert ids, call
        for test_id in ids:
            path, *scope = test_id.split("::")
            nodes = ast.parse((tests.parent / path).read_text()).body
            for name in scope:
                node = next((n for n in nodes if getattr(n, "name", None) == name), None)
                assert node is not None, (call, test_id)
                nodes = node.body
