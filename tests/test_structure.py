"""Source structure: each rule lives in one place.

Only make_model knows which law has which constants: the sampler and the
oracle read every law through its (atom, mu, weights) mixture, and a
per-law branch in either module would let the law table drift from the one
in kernels.make_model. The constants themselves come from one
Gauss-Legendre rule, built nowhere but make_model. Only the group kernel
transports histories: a second caller of the sampler or of the Philox
blocks in the engine would be a second copy of the lane roles. The
oracles are a closed form and a direct solve, so importing the package
loads no adaptive quadrature.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonclassical_mc

PACKAGE = Path(nonclassical_mc.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
LAW_MEMBERS = {"DIFFUSION", "SP2", "SP3"}


def tree_of(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@pytest.mark.parametrize("module", ["sampler", "reference"])
def test_no_per_law_dispatch(module):
    named = {node.attr for node in ast.walk(tree_of(module))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ModelKind"}
    assert not named & LAW_MEMBERS


def leggauss_uses(tree):
    return [node for node in ast.walk(tree)
            if "leggauss" in (getattr(node, "attr", None), getattr(node, "id", None))
            or (isinstance(node, ast.alias) and node.name.endswith("leggauss"))]


@pytest.mark.parametrize("module", MODULES)
def test_gauss_legendre_only_in_make_model(module):
    tree = tree_of(module)
    in_make_model = [node for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef) and func.name == "make_model"
                     for node in leggauss_uses(func)]
    assert len(leggauss_uses(tree)) == len(in_make_model)
    assert bool(in_make_model) == (module == "kernels")


def test_every_export_resolves():
    missing = [name for name in nonclassical_mc.__all__ if not hasattr(nonclassical_mc, name)]
    assert not missing


@pytest.mark.parametrize("callee", ["sample_path", "uniforms_at"])
def test_one_transport_implementation(callee):
    callers = {func.name for func in ast.walk(tree_of("engine"))
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == callee}
    assert callers == {"_transport_group"}


def test_import_loads_no_scipy_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonclassical_mc; print(sorted(m for m in sys.modules"
         " if m.startswith('scipy.integrate')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
