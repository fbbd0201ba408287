"""The package's shape: one public surface, built from the modules' own
export lists, the guards of that surface, no unused import, and a source size
kept within the ROADMAP's line budget."""

import ast
from pathlib import Path

import pytest

import qvirial
from qvirial import errors, exact, perturb, series, structfn, thermo

SRC = Path(qvirial.__file__).resolve().parent

# ROADMAP.md: src/qvirial stays within 2,400 lines (wc -l src/qvirial/*.py).
LOC_BUDGET = 2400

PUBLIC = [
    "DecimalBackend", "DescriptorError", "Interpolated",
    "MixedBackendError", "NonzeroConstantTermError", "NumberPoly", "PowerSeries", "QBasic",
    "QBasicOfQuadratic", "QBasicSeries", "QVirialError", "Quadratic", "QuadraticOfQBasic",
    "SURD", "SurdBackend", "SurdRational", "TruncPoly", "TruncPolyBackend",
    "UNDEFORMED", "UnboundVariableError", "UnsupportedBackendError", "UnsupportedOrderError",
    "VirialTable", "ZeroLinearCoefficientError", "__version__",
    "closed_form_virial", "compose", "euler_inverse", "eval_eps", "eval_structure",
    "fugacity_of_density", "hamiltonian_split", "jackson_apply",
    "log_partition_series", "monomial_expansion", "parse_descriptor", "particle_series",
    "pressure_series", "radical_normalize", "revert",
    "second_virial_deviation", "to_decimal", "two_param_split",
    "virial_coefficients",
]


def test_package_surface_is_pinned():
    assert len(PUBLIC) == 44
    assert sorted(qvirial.__all__) == PUBLIC
    assert len(set(qvirial.__all__)) == len(qvirial.__all__)
    for name in qvirial.__all__:
        assert hasattr(qvirial, name), name


@pytest.mark.parametrize("module", [errors, exact, perturb, series, structfn, thermo],
                         ids=lambda module: module.__name__)
def test_module_exports_exist(module):
    for name in module.__all__:
        assert hasattr(module, name), (module.__name__, name)
        assert getattr(qvirial, name) is getattr(module, name), name


def test_errors_exports_exactly_the_exception_classes():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.QVirialError)}
    assert sorted(errors.__all__) == sorted(classes)
    assert len(classes) == 8


_X = qvirial.particle_series(qvirial.UNDEFORMED, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: qvirial.compose(_X, qvirial.particle_series(qvirial.UNDEFORMED, 3, qvirial.DecimalBackend(12))),
     errors.MixedBackendError, "cannot compose exact with decimal:12 series"),
    (lambda: _X * 3, TypeError, "expected a PowerSeries, got int"),
    (lambda: qvirial.virial_coefficients(_X).coefficient(0), IndexError, "k must be in 1..3"),
    (lambda: qvirial.virial_coefficients(_X).coefficient(4), IndexError, "k must be in 1..3"),
    (lambda: qvirial.revert(qvirial.PowerSeries(qvirial.SURD, [0, 2, 1])),
     errors.ZeroLinearCoefficientError, "revert needs the linear coefficient 1"),
    (lambda: qvirial.to_decimal(object(), 3), TypeError, "unsupported scalar type object"),
    (lambda: qvirial.eval_structure(object(), 3, qvirial.SURD), TypeError, "unknown structure function object"),
], ids=["compose-backends", "series-times-int", "V_0", "V_K+1", "revert-non-monic", "to-decimal", "eval-structure"])
def test_public_guards_raise_their_own_errors(call, error, message):
    # the exact type and message, so that a deleted guard fails here rather than later
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_source_is_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= LOC_BUDGET, f"src/qvirial is {lines} lines, over the {LOC_BUDGET}-line budget"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in its __all__
    (star imports and __future__ features are skipped)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_only_unused_names():
    source = "from __future__ import annotations\nimport os, os.path\nfrom math import *\n" \
             "from fractions import Fraction\nfrom json import dumps as d, loads\n" \
             "__all__ = ['loads']\nos.getcwd()\n"
    assert unused_imports(source) == ["Fraction", "d"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def unloaded_exports(sources: dict[str, str]) -> list[str]:
    """`module.name` for each name in a module's __all__ that no module loads,
    as a bare name or as an attribute: an export only tests would read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unloaded = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unloaded += [f"{module}.{elt.value}" for elt in ast.walk(node.value)
                             if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                             and elt.value not in loaded]
    return unloaded


def test_unloaded_export_check_flags_a_planted_export():
    sources = {
        "a": "__all__ = ['used', 'Kind', 'unused']\ndef used(): pass\nclass Kind: pass\ndef unused(): pass\n",
        "b": "from .a import used\nimport a\nused()\na.Kind()\n",
    }
    assert unloaded_exports(sources) == ["a.unused"]


def test_every_export_is_loaded_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unloaded_exports(sources) == []
