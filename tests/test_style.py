"""Source style: lines fit in 79 columns, every imported name is used,
every module-level private name is read in its module, each module
imports only earlier layers of the package, the continuation layer
makes no dense linear-algebra call and reads its Newton settings and
watched events from the problem rather than from parameters, and every
defaulted parameter of a module-level function is passed by some call
in the sources, tests or benchmark, importing the command line
loads no SciPy subpackage that only a rarely called function needs,
and every SuperLU factorization keeps the order it is given."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "aseries").glob("*.py"))
MAX_COLUMNS = 79
#: Dense calls the sparse-only continuation layer must not make.
DENSE_CALLS = {"np.linalg.solve", "np.linalg.svd", "np.vstack"}
DENSE_METHODS = {"toarray", "todense"}
#: Parameters that no continuation function but the problem's builder
#: declares: a ContinuationProblem carries its Newton settings, and the
#: events a run watches follow from the problem.
CARRIED = {"newton_tol", "max_newton", "monitor_names", "fold_parameter"}
CARRIER_BUILDER = "augmented_continuation_problem"
#: Files whose calls may set a package function's defaulted parameters.
CALLERS = sorted(path for part in ("src", "tests", "bench")
                 for path in (SOURCES[0].parents[2] / part).rglob("*.py"))
#: SciPy subpackages that only a rarely called function imports, inside
#: that function: loaded with the package they would pull scipy.optimize
#: into every run.
LAZY_SUBPACKAGES = ("scipy.integrate", "scipy.interpolate")
#: The only column ordering a `splu` call in the sources may ask for:
#: each matrix comes already permuted by an augmented.Ordering, so
#: SuperLU must not reorder it.
SPLU_ORDERING = "NATURAL"
#: Package modules in layer order; each imports only earlier ones.
LAYERS = ("bell", "poisson", "classifier", "augmented", "continuation",
          "harness", "cli")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unused_private_names(source: str) -> list:
    """Module-level names with one leading underscore never read there.

    Functions, classes and assignment targets count; dunders such as
    __version__ do not.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [leaf.id for target in targets
                     for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in read)


def layer_violations(module: str, source: str) -> list:
    """Package imports of `module` from itself or from a later layer."""
    earlier = set(LAYERS[:LAYERS.index(module)])
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            dotted = [node.module]
        elif isinstance(node, ast.ImportFrom):  # relative to the package
            dotted = ["aseries." + (node.module or alias.name)
                      for alias in node.names]
        else:
            continue
        layers = {d.split(".")[1] for d in dotted if d.startswith("aseries.")}
        found.extend((node.lineno, name) for name in layers
                     if name not in earlier)
    return sorted(found)


def dense_calls(source: str) -> list:
    """Calls of dense solves, SVDs, stacks or densifying conversions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if name in DENSE_CALLS or node.func.attr in DENSE_METHODS:
                found.append((node.lineno, name))
    return sorted(found)


def splu_orderings(source: str) -> list:
    """(line, permc_spec) of each `splu` call whose permc_spec, by
    keyword or second position, is not the literal SPLU_ORDERING; None
    when the call leaves SuperLU's default, else the source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(
                ".")[-1] == "splu"):
            continue
        specs = node.args[1:2] + [k.value for k in node.keywords
                                  if k.arg == "permc_spec"]
        spec = specs[0] if specs else None
        if spec is None:
            found.append((node.lineno, None))
        elif not (isinstance(spec, ast.Constant)
                  and spec.value == SPLU_ORDERING):
            found.append((node.lineno, getattr(spec, "value",
                                               ast.unparse(spec))))
    return sorted(found)


def carried_parameters(source: str) -> list:
    """(line, function, parameter) of each CARRIED parameter declared by a
    function other than CARRIER_BUILDER (nested functions included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name == CARRIER_BUILDER:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        found.extend((node.lineno, node.name, a.arg) for a in params
                     if a.arg in CARRIED)
    return sorted(found)


def unset_defaults(source: str, callers) -> list:
    """(line, function, parameter) of each defaulted parameter of a
    module-level function in `source` that no call of that name in the
    `callers` sources passes, by position or by keyword.

    A call with *args or **kwargs passes everything; an imported name is
    resolved through its `as` alias.  Methods and nested functions are
    not scanned.
    """
    passed = {}  # function name -> [positions passed, keywords passed]
    for caller in callers:
        tree = ast.parse(caller)
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            seen = passed.setdefault(aliases.get(name, name), [0, set()])
            seen[0] = max(seen[0], len(node.args))
            seen[1].update(k.arg for k in node.keywords)  # None: **kwargs
            if any(isinstance(a, ast.Starred) for a in node.args):
                seen[1].add(None)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                      if d is not None]
        count, keywords = passed.get(node.name, [0, set()])
        found.extend(
            (a.lineno, node.name, a.arg) for i, a in defaulted
            if not (i is not None and i < count or a.arg in keywords
                    or None in keywords))
    return sorted(found)


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_fit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [i for i, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert not long, f"{path.name}: lines over {MAX_COLUMNS} columns: {long}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: imported but unused (line, name): " \
                       f"{unused}"


def test_scan_catches_unused_and_spares_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "x = np.zeros(1)\n"
              "y = os.path.join('a')\n"
              "@dataclass\n"
              "class A:\n"
              "    b: int = 0\n")
    assert unused_imports(source) == [(3, "field")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    unread = unused_private_names(path.read_text(encoding="utf-8"))
    assert not unread, f"{path.name}: private names never read " \
                       f"(line, name): {unread}"


def test_private_scan_catches_unread_and_spares_read():
    source = ("__version__ = '1'\n"
              "_LIMIT = 3\n"
              "_stale: int = 0\n"
              "public = 1\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _orphan():\n"
              "    _local = 2\n"
              "    return _local\n"
              "class _Unused:\n"
              "    pass\n"
              "print(_helper())\n")
    assert unused_private_names(source) == [(3, "_stale"), (7, "_orphan"),
                                            (10, "_Unused")]


def test_layers_cover_the_package():
    assert {p.stem for p in SOURCES} == set(LAYERS) | {"__init__"}


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_layers(module):
    path = SOURCES[0].parent / f"{module}.py"
    wrong = layer_violations(module, path.read_text(encoding="utf-8"))
    assert not wrong, f"{module}.py imports a later layer (line, module): " \
                      f"{wrong}"


def test_layer_scan_catches_later_and_spares_earlier():
    source = ("import numpy as np\n"
              "from .bell import bell_value\n"
              "from .classifier import DerivativeOracle\n"
              "from . import harness\n"
              "import aseries.cli\n"
              "from aseries.augmented import Problem\n"
              "def f():\n"
              "    from .poisson import Grid\n")
    assert layer_violations("poisson", source) == [
        (3, "classifier"), (4, "harness"), (5, "cli"), (6, "augmented"),
        (8, "poisson")]


def test_continuation_is_sparse_only():
    path = SOURCES[0].parent / "continuation.py"
    dense = dense_calls(path.read_text(encoding="utf-8"))
    assert not dense, f"continuation.py: dense calls (line, name): {dense}"


def test_dense_scan_catches_dense_calls_and_spares_norm():
    source = ("import numpy as np\n"
              "x = np.linalg.solve(a, b)\n"
              "u, s, vt = np.linalg.svd(a)\n"
              "n = np.linalg.norm(x)\n"
              "m = np.vstack([a, b])\n"
              "d = jac.toarray()\n"
              "e = jac.T.todense()\n"
              "f = sp.vstack([a, b])\n")
    assert dense_calls(source) == [(2, "np.linalg.solve"),
                                   (3, "np.linalg.svd"), (5, "np.vstack"),
                                   (6, "jac.toarray"), (7, "jac.T.todense")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_superlu_keeps_the_given_order(path):
    other = splu_orderings(path.read_text(encoding="utf-8"))
    assert not other, f"{path.name}: splu calls with a permc_spec other " \
                      f"than {SPLU_ORDERING!r} (line, permc_spec): {other}"


def test_splu_scan_catches_other_orderings_and_spares_natural():
    source = ("from scipy.sparse.linalg import splu\n"
              "a = splu(m, permc_spec='NATURAL', diag_pivot_thresh=0.1)\n"
              "b = splu(m)\n"
              "c = splu(m, permc_spec='COLAMD')\n"
              "d = scipy.sparse.linalg.splu(m, 'MMD_AT_PLUS_A')\n"
              "e = splu(m, permc_spec=spec)\n"
              "f = spsolve(m, rhs, permc_spec='COLAMD')\n"
              "g = splu(m, 'NATURAL', options={'SymmetricMode': True})\n")
    assert splu_orderings(source) == [(3, None), (4, "COLAMD"),
                                      (5, "MMD_AT_PLUS_A"), (6, "spec")]


def test_continuation_reads_settings_from_the_problem():
    path = SOURCES[0].parent / "continuation.py"
    carried = carried_parameters(path.read_text(encoding="utf-8"))
    assert not carried, f"continuation.py: parameters the problem carries " \
                        f"(line, function, name): {carried}"


def test_carried_scan_catches_parameters_and_spares_the_builder():
    source = ("def augmented_continuation_problem(t, newton_tol=1e-9,\n"
              "                                   max_newton=25):\n"
              "    def system(z, max_newton=1):\n"
              "        return z\n"
              "def step(problem, point, ds, newton_tol=1e-9):\n"
              "    return problem.newton_tol\n"
              "def run_branch(problem, *, monitor_names=(), **kw):\n"
              "    pass\n"
              "async def f(fold_parameter, /, *max_newton):\n"
              "    pass\n"
              "def newton_solve(system, z0, tol_inf=1e-9, max_iter=25):\n"
              "    pass\n"
              "class P:\n"
              "    newton_tol: float = 1e-9\n")
    assert carried_parameters(source) == [
        (3, "system", "max_newton"), (5, "step", "newton_tol"),
        (7, "run_branch", "monitor_names"), (9, "f", "fold_parameter"),
        (9, "f", "max_newton")]


def test_every_default_is_set_by_some_call():
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    unset = [(path.name,) + item for path in SOURCES for item in
             unset_defaults(path.read_text(encoding="utf-8"), callers)]
    assert not unset, f"defaulted parameters no call passes (file, line, " \
                      f"function, name): {unset}"


def test_default_scan_catches_unset_and_spares_passed():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
              "    def inner(z=0):\n"
              "        return z\n"
              "    return inner()\n"
              "class K:\n"
              "    def method(self, m=0):\n"
              "        pass\n"
              "def g(x=0, y=1):\n"
              "    pass\n"
              "def h(w=0):\n"
              "    pass\n"
              "def unused(q=0):\n"
              "    pass\n")
    callers = ["f(1, 2, e=5)\n"
               "mod.g(*args)\n",
               "from mod import h as alias\n"
               "alias(w=1)\n"
               "h()\n"]
    assert unset_defaults(source, callers) == [
        (1, "f", "c"), (1, "f", "d"), (12, "unused", "q")]


def test_cli_import_leaves_lazy_subpackages_unloaded():
    code = ("import sys, aseries.cli\n"
            f"print([m for m in {LAZY_SUBPACKAGES!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n", f"importing aseries.cli loaded {out.strip()}"
