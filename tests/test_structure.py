"""Source structure: each rule lives in one place.

Only make_model knows which law has which constants: the sampler and the
oracle read every law through its (atom, mu, weights) mixture, and a
per-law branch or a law constant in either module would let the law table
drift from the one in kernels.make_model. Only the group kernel transports
histories: a second caller of the sampler or of the Philox blocks in the
engine would be a second copy of the lane roles. The oracles are a closed
form and a direct solve, so importing the package loads no adaptive
quadrature.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonclassical_mc

PACKAGE = Path(nonclassical_mc.__file__).parent
LAW_MEMBERS = {"DIFFUSION", "SP2", "SP3"}
LAW_CONSTANTS = {"SQRT3", "SP2_LAMBDA", "SP2_ATOM", "solve_sp3_constants"}


def tree_of(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@pytest.mark.parametrize("module", ["sampler", "reference"])
def test_no_per_law_dispatch(module):
    named = {node.attr for node in ast.walk(tree_of(module))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ModelKind"}
    assert not named & LAW_MEMBERS


@pytest.mark.parametrize("module", ["sampler", "reference"])
def test_no_law_constants_imported(module):
    imported = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr in LAW_CONSTANTS:
            imported.add(node.attr)
    assert not imported & LAW_CONSTANTS


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
