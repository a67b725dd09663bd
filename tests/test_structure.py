"""Source structure: each rule lives in one place.

Only make_model knows which law has which constants: the sampler and the
oracle read every law through its (atom, mu, weights) mixture, and a
per-law branch in either module would let the law table drift from the one
in kernels.make_model. The constants themselves come from one
Gauss-Legendre rule, built nowhere but make_model; the only other rule is
the classical closed form's quadrature of its continuum. Only the group
kernel transports histories: a second caller of the sampler or of the
random streams in the engine would be a second copy of the lane roles. The
oracles are a closed form and a direct solve, and compare scores against the
closed form alone: only the reference command runs the solver. The package
runs on numpy alone: neither importing it nor running any command loads
scipy, which only the tests and a demo use, as an oracle, nor OpenSSL's
hashlib beyond what numpy.random loads itself, nor multiprocessing, since
the engine forks its workers itself. For the same reason, imported before
numpy the package loads numpy's OpenBLAS with no thread pool, and leaves
the environment as it found it. And src holds
only what a command runs: every function in it is called by some command,
apart from a short allowlist that gives each entry's reason.
"""

import ast
import json
import re
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
    """The sampler may single out the classical law; the oracle tells it
    apart by its empty mixture (not model.mu) and names no law at all."""
    named = {node.attr for node in ast.walk(tree_of(module))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ModelKind"}
    assert not named & LAW_MEMBERS
    if module == "reference":
        assert not named


def leggauss_uses(tree):
    return [node for node in ast.walk(tree)
            if "leggauss" in (getattr(node, "attr", None), getattr(node, "id", None))
            or (isinstance(node, ast.alias) and node.name.endswith("leggauss"))]


GAUSS_LEGENDRE_SITES = {"kernels": "make_model", "reference": "_continuum_rule"}


@pytest.mark.parametrize("module", MODULES)
def test_gauss_legendre_only_in_make_model(module):
    """leggauss is called in two places: kernels.make_model, which yields the
    law constants, and the classical branch of reference.closed_form, whose
    continuum needs a quadrature of its own. A call anywhere else would be
    a second copy of one of them."""
    tree = tree_of(module)
    at_site = [node for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == GAUSS_LEGENDRE_SITES.get(module)
               for node in leggauss_uses(func)]
    assert len(leggauss_uses(tree)) == len(at_site)
    assert bool(at_site) == (module in GAUSS_LEGENDRE_SITES)


def test_only_reference_command_runs_the_solver():
    callers = {func.name for func in ast.walk(tree_of("cli"))
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "solve_integral_equation"}
    assert callers == {"cmd_reference"}


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


def test_import_loads_no_scipy_integrate(subprocess_env):
    env = subprocess_env()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonclassical_mc; print(sorted(m for m in sys.modules"
         " if m.startswith('scipy.integrate')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


COMMANDS = [
    pytest.param([], id="import"),
    pytest.param(["curves", "--points", "11"], id="curves"),
    pytest.param(["simulate", "--model", "sp3", "--histories", "200", "--batches", "10"],
                 id="simulate"),
    pytest.param(["compare", "--model", "sp2", "--histories", "200", "--batches", "10"],
                 id="compare"),
    *(pytest.param(["reference", "--model", law, "--oracle-nodes", "256"], id=f"reference-{law}")
      for law in ("classical", "diffusion", "sp2", "sp3")),
]


@pytest.mark.parametrize("argv", COMMANDS)
def test_no_command_loads_scipy(argv, tmp_path, subprocess_env):
    env = subprocess_env(NONCLASSICAL_MC_WORKERS="1")
    script = ("import json, sys\n"
              "from nonclassical_mc import cli\n"
              "argv = json.loads(sys.argv[1])\n"
              "code = cli.main(argv) if argv else 0\n"
              "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    args = argv + ["--out", str(tmp_path)] if argv else []
    done = subprocess.run([sys.executable, "-c", script, json.dumps(args)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code in (0, 2)  # a compare FAIL still ran the command
    assert loaded == []


def test_commands_load_no_openssl(tmp_path, subprocess_env):
    """A fresh import of the cli, then a reference run, load none of hashlib,
    _hashlib, ssl or scipy; a one-worker simulate after them loads only
    those that a bare import of numpy.random loads too (its bit generators
    import secrets, and with it hashlib). Hashing rng's keys through hashlib
    would load OpenSSL into every process: 3.6 MB more peak RSS on a
    3,072-node reference."""
    env = subprocess_env(NONCLASSICAL_MC_WORKERS="1")
    guarded = ("hashlib", "_hashlib", "ssl", "scipy")
    loaded = f"sorted(m for m in sys.modules if m.split('.')[0] in {guarded!r})"
    out = ["--out", str(tmp_path)]
    script = ("import json, sys\n"
              "from nonclassical_mc import cli\n"
              f"seen = [{loaded}]\n"
              f"cli.main(['reference', '--model', 'sp3', '--oracle-nodes', '256'] + {out!r})\n"
              f"seen.append({loaded})\n"
              "cli.main(['simulate', '--model', 'sp3', '--histories', '200', '--batches', '10']"
              f" + {out!r})\n"
              f"seen.append({loaded})\n"
              "print(json.dumps(seen))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    after_import, after_reference, after_simulate = json.loads(done.stdout.splitlines()[-1])
    bare = subprocess.run([sys.executable, "-c", f"import json, sys, numpy.random\n"
                                                 f"print(json.dumps({loaded}))"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert after_import == after_reference == []
    assert set(after_simulate) <= set(json.loads(bare.stdout))


def test_no_multiprocessing_import(tmp_path, subprocess_env):
    """Neither importing the package nor a two-worker simulate loads
    multiprocessing: the engine forks its workers itself (twice here)."""
    env = subprocess_env(NONCLASSICAL_MC_WORKERS="2")
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')"
    script = ("import json, os, sys\n"
              "import nonclassical_mc\n"
              f"seen = [{loaded}]\n"
              "from nonclassical_mc import cli\n"
              "forks, fork = [], os.fork\n"
              "os.fork = lambda: forks.append(1) or fork()\n"
              "code = cli.main(['simulate', '--model', 'sp3', '--histories', '200',"
              f" '--batches', '10', '--out', {str(tmp_path)!r}])\n"
              f"seen.append({loaded})\n"
              "print(json.dumps([code, len(forks), seen]))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    code, forks, (after_import, after_simulate) = json.loads(done.stdout.splitlines()[-1])
    assert (code, forks) == (0, 2)
    assert after_import == after_simulate == []


ENVIRON_PROBE = ("import json, os\n"
                 "before = dict(os.environ)\n"
                 "{imports}\n"
                 "tasks = '/proc/self/task'\n"
                 "print(json.dumps([len(os.listdir(tasks)) if os.path.isdir(tasks) else None,"
                 " dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS')]))")


def probe_environ(subprocess_env, imports, preset=None):
    """[OS threads (None without /proc), os.environ unchanged,
    OPENBLAS_NUM_THREADS] after imports, in a fresh interpreter whose
    OPENBLAS_NUM_THREADS is preset (None: unset)."""
    done = subprocess.run([sys.executable, "-c", ENVIRON_PROBE.format(imports=imports)],
                          env=subprocess_env(OPENBLAS_NUM_THREADS=preset),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_starts_no_blas_pool(subprocess_env):
    """Imported first, the package loads OpenBLAS with one thread, so no
    idle pool spins beside the forked workers; on a host with 2 or more CPUs
    a bare import of numpy starts one pool thread per extra CPU."""
    threads, unchanged, pinned = probe_environ(subprocess_env, "import nonclassical_mc")
    if threads is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert (threads, unchanged, pinned) == (1, True, None)


@pytest.mark.parametrize("imports, preset", [
    pytest.param("import nonclassical_mc", None, id="package-first"),
    pytest.param("import nonclassical_mc", "2", id="user-set"),
    pytest.param("import numpy; import nonclassical_mc", None, id="numpy-first"),
])
def test_import_leaves_the_environment(subprocess_env, imports, preset):
    """The pin is gone from os.environ after the import, so subprocesses
    started later are unaffected, and a user's own value wins."""
    assert probe_environ(subprocess_env, imports, preset)[1:] == [True, preset]


def defined_functions():
    """(module, qualified name) -> (file, first line) of every def in src.

    The first line is that of the code object: the first decorator's, if
    the function has any.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path.stem, prefix + child.name)] = (str(path), first)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


UNCALLED_BY_COMMANDS = {
    ("rng", "philox4x64_block"): "numpy emulation of the Philox block, read only by its own "
                                 "tests and the benchmark's rng.blocks_per_s micro",
    ("rng", "_mulhilo"): "part of philox4x64_block",
    ("kernels", "PathLengthModel.survival"): "public law quantity, the tests' oracle for the "
                                             "sampler's tail; cdf is summed from the "
                                             "parts' own CDFs, not taken as 1 - survival",
}


def test_every_function_is_run_by_a_command(tmp_path, monkeypatch):
    """src holds only what a command runs: curves, simulate (analog and
    implicit, one through --config), compare for every law, and reference,
    a pure absorber for three laws and a supercritical refusal, together
    call every function but the few listed, each with its reason."""
    from nonclassical_mc import cli, reference, rng, sampler

    monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", "1")
    sampler._quantile_table.cache_clear()  # earlier tests may have built the tables
    reference._continuum_rule.cache_clear()  # the classical rule
    rng._start.cache_clear()  # and the streams' start states
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": "sp2", "capture": "implicit", "histories": 200,
                                  "batches": 10}))
    small = ["--histories", "200", "--batches", "10"]
    runs = [["curves", "--points", "11"],
            ["simulate", "--model", "sp3", *small],
            ["simulate", "--config", str(config)],
            *(["compare", "--model", law, *small]
              for law in ("classical", "diffusion", "sp2", "sp3")),
            *(["reference", "--model", law, "--sigma-s", "0"]
              for law in ("classical", "sp2", "sp3")),
            ["reference", "--model", "classical", "--sigma-s", "0.9999",
             "--oracle-rmax", "60", "--oracle-nodes", "3072"]]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in runs:
            codes.append(cli.main(argv + ["--out", str(tmp_path)]))
    finally:
        sys.setprofile(previous)
    assert codes[-1] == 3  # the supercritical oracle is refused
    assert all(code in (0, 2) for code in codes[:-1])  # a compare FAIL still ran
    uncalled = {name for name, site in defined_functions().items() if site not in called}
    assert uncalled == set(UNCALLED_BY_COMMANDS)
