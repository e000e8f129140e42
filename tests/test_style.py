"""Source style: lines fit in 79 columns, every imported name is used,
every module-level private name is read in its module, each module
imports only earlier layers of the package, the continuation layer
makes no dense linear-algebra call, the augmented layer densifies no
sparse matrix, the continuation layer reads its Newton settings and
watched events from the problem rather than from parameters, and every
defaulted parameter of a module-level function is passed by some call
in the sources, tests or benchmark, importing the command line
loads no SciPy subpackage that only a rarely called function needs,
every SuperLU factorization keeps the order it is given, but for the
one ordering pass that computes that order, and takes the package's
one supernode relaxation and panel size, every public module-level
function and class is read by some package code but its own, or kept
for a stated reason, no grid matrix is built by SciPy's sparse
products, sums or stacks, and the command line opens a file for writing
in one helper only."""

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
#: each matrix comes already permuted by an augmented.BorderedOrder, so
#: SuperLU must not reorder it.
SPLU_ORDERING = "NATURAL"
#: The one `splu` call that may ask for another ordering, as (module
#: file, enclosing function, permc_spec): the ordering pass that gives
#: every grid factor its order.  It factors the Laplacian only to read
#: the minimum-degree permutation.
ORDERING_PASS = ("augmented.py", "Problem.bordered_order", "MMD_AT_PLUS_A")
#: The names that every `splu` call in the sources must pass as its
#: relax and panel_size, by keyword or position (3 and 4): the shared
#: constants of augmented, so that no factor is blocked differently.
SPLU_BLOCKING = (("relax", 3, "SPLU_RELAX"), ("panel_size", 4, "SPLU_PANEL"))
#: Public module-level names that no package code reads, each kept for
#: the reason its docstring states too.
UNREAD_PUBLIC = {
    "laplacian_eigenvector": "the benchmark's scaling probe imports it",
    "laplacian_eigenvalue": "its pair: the analytic fold of criteria 4, 9",
    "discrete_functional": "the paper's functional S, G's reference",
    "closed_form_tests": "criterion 9's independent reference",
    "verify_swallowtail_geometry": "criterion 8's workflow",
}
#: scipy.sparse functions that build a matrix from other sparse matrices
#: or diagonals.  The package calls none: every grid matrix is written
#: on the Laplacian's CSR pattern, and every factor's input is gathered.
SPARSE_BUILDERS = {"diags", "kron", "identity", "eye", "bmat", "hstack",
                   "vstack", "block_diag"}
#: The one function of cli.py that opens a file for writing: every
#: output goes through it, so that an OSError is a usage error.
OUTPUT_WRITER = "_write_output"
#: Characters of a file mode that only reads.
READ_MODE = set("rbt")
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


def unread_public_names(sources: dict, allowed=()) -> list:
    """(module, line, name) of each public module-level function or class
    of `sources`, a map of module name to source, that no code of the
    sources reads outside its own definition, as a name, an attribute or
    an imported name; the `allowed` names are spared."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = []  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads.extend((module, node.lineno, alias.name)
                             for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in allowed:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name
                       and not (where == module and line in inside)
                       for where, line, name in reads):
                found.append((module, node.lineno, node.name))
    return sorted(found)


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


def sparse_builder_calls(source: str) -> list:
    """(line, call) of each call of a SPARSE_BUILDERS function of
    scipy.sparse: through the module, under any name it is imported as,
    or by a name imported from it."""
    tree = ast.parse(source)
    modules, names = {"scipy.sparse"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "scipy.sparse" and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "sparse")
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "scipy.sparse":
            names.update((alias.asname or alias.name, alias.name)
                         for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and ast.unparse(func.value) in modules:
            name = func.attr
        elif isinstance(func, ast.Name):
            name = names.get(func.id)
        else:
            continue
        if name in SPARSE_BUILDERS:
            found.append((node.lineno, ast.unparse(func)))
    return sorted(found)


def splu_calls(source: str) -> list:
    """(enclosing scope, call) of every call of a function named `splu`,
    however it is imported; the scope is the dotted names of the
    classes and functions around the call, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and \
                    ast.unparse(child.func).split(".")[-1] == "splu":
                found.append((".".join(scope), child))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def stray_writes(source: str) -> list:
    """(line, scope) of each call outside OUTPUT_WRITER that opens a
    file for writing: `write_text`, `write_bytes`, or an `open` (the
    builtin or a method) whose mode is not a literal of READ_MODE; a
    mode that is not a literal counts as writing.  The scope is the
    dotted names of the classes and functions around the call."""
    found = []

    def writes(call):
        name = ast.unparse(call.func).split(".")[-1]
        if name in ("write_text", "write_bytes"):
            return True
        position = 1 if isinstance(call.func, ast.Name) else 0
        mode = call.args[position : position + 1] + [
            k.value for k in call.keywords if k.arg == "mode"]
        return name == "open" and bool(mode) and not (
            isinstance(mode[0], ast.Constant)
            and set(str(mode[0].value)) <= READ_MODE)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and writes(child) \
                    and scope != (OUTPUT_WRITER,):
                found.append((child.lineno, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def splu_argument(call: ast.Call, name: str, position: int):
    """The expression a `splu` call passes as parameter `name`, by
    keyword or at `position`; None when it leaves the default."""
    given = call.args[position : position + 1] + [
        k.value for k in call.keywords if k.arg == name]
    return given[0] if given else None


def splu_orderings(source: str, allowed=None) -> list:
    """(line, scope, permc_spec) of each `splu` call whose permc_spec, by
    keyword or second position, is not the literal SPLU_ORDERING; None
    when the call leaves SuperLU's default, else the source text.
    allowed, a (scope, permc_spec) pair, spares one call, the first
    that matches it: a second such call is found."""
    found = []
    for scope, node in splu_calls(source):
        spec = splu_argument(node, "permc_spec", 1)
        if spec is None:
            found.append((node.lineno, scope, None))
        elif not (isinstance(spec, ast.Constant)
                  and spec.value == SPLU_ORDERING):
            found.append((node.lineno, scope,
                          getattr(spec, "value", ast.unparse(spec))))
    found.sort()
    spared = [f for f in found if f[1:] == allowed][:1]
    return [f for f in found if f not in spared]


def splu_blockings(source: str) -> list:
    """(line, parameter, source text) of each relax or panel_size of a
    `splu` call that is not the SPLU_BLOCKING name; None as the text
    when the call leaves SuperLU's default."""
    found = []
    for _, node in splu_calls(source):
        for name, position, constant in SPLU_BLOCKING:
            value = splu_argument(node, name, position)
            if not (isinstance(value, ast.Name) and value.id == constant):
                found.append((node.lineno, name, value and ast.unparse(value)))
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


def test_every_public_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SOURCES}
    unread = unread_public_names(sources, UNREAD_PUBLIC)
    assert not unread, f"public names no package code reads (module, " \
                       f"line, name): {unread}"
    # the allow-list holds only names that are defined and unread
    kept = {name for _, _, name in unread_public_names(sources)}
    assert kept == set(UNREAD_PUBLIC)


def test_public_scan_catches_unread_and_spares_read():
    sources = {
        "first": ("def unread():\n"
                  "    return unread()\n"
                  "def imported():\n"
                  "    pass\n"
                  "class Attribute:\n"
                  "    pass\n"
                  "def kept():\n"
                  "    pass\n"
                  "def _private():\n"
                  "    pass\n"),
        "second": ("from . import first\n"
                   "from .first import imported\n"
                   "x = first.Attribute\n"),
    }
    assert unread_public_names(sources, {"kept"}) == [("first", 1, "unread")]
    assert unread_public_names(sources) == [("first", 1, "unread"),
                                            ("first", 7, "kept")]


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


def test_augmented_densifies_no_sparse_matrix():
    # its small dense solves (the block capacitance) stay allowed
    path = SOURCES[0].parent / "augmented.py"
    dense = [(line, call) for line, call in
             dense_calls(path.read_text(encoding="utf-8"))
             if call.rsplit(".", 1)[-1] in DENSE_METHODS]
    assert not dense, f"augmented.py: densifying calls (line, name): {dense}"


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
def test_no_sparse_arithmetic_builds(path):
    found = sparse_builder_calls(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name}: grid matrices built by scipy.sparse " \
                      f"arithmetic (line, call): {found}"


def test_sparse_builder_scan_catches_each_builder_and_spares_csr():
    source = ("import numpy as np\n"
              "import scipy.sparse as sp\n"
              "from scipy import sparse\n"
              "from scipy.sparse import kron as k, csr_matrix\n"
              "a = sp.diags(d)\n"
              "b = sp.kron(x, y)\n"
              "c = sp.identity(3)\n"
              "d = sp.eye(3)\n"
              "e = sp.bmat([[x, None], [None, y]])\n"
              "f = sp.hstack([x, y])\n"
              "g = sp.vstack([x, y])\n"
              "h = sp.block_diag([x, y])\n"
              "i = k(x, y)\n"
              "j = scipy.sparse.eye(2)\n"
              "l = sparse.diags(d)\n"
              "m = sp.csr_matrix((data, indices, indptr))\n"
              "n = csr_matrix((data, indices, indptr), shape=(2, 2))\n"
              "o = np.eye(3) + np.hstack([x, y]) + np.kron(x, y)\n")
    assert sparse_builder_calls(source) == [
        (5, "sp.diags"), (6, "sp.kron"), (7, "sp.identity"), (8, "sp.eye"),
        (9, "sp.bmat"), (10, "sp.hstack"), (11, "sp.vstack"),
        (12, "sp.block_diag"), (13, "k"), (14, "scipy.sparse.eye"),
        (15, "sparse.diags")]


def test_cli_writes_through_one_helper():
    source = (SOURCES[0].parent / "cli.py").read_text(encoding="utf-8")
    found = stray_writes(source)
    assert not found, f"cli.py opens files for writing outside " \
                      f"{OUTPUT_WRITER} (line, scope): {found}"
    helper = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef)
              and node.name == OUTPUT_WRITER]
    assert len(helper) == 1  # the helper is there, so the scan is not moot


def test_write_scan_catches_stray_opens_and_spares_the_helper():
    source = ("def _write_output(flag, path, text):\n"
              "    with open(path, 'w') as fh:\n"
              "        fh.write(text)\n"
              "def read(path):\n"
              "    with open(path) as fh, path.open('rb') as raw:\n"
              "        return open(path, mode='rt'), fh, raw\n"
              "def stray(p, mode):\n"
              "    open(p, 'w')\n"
              "    open(p, mode='a')\n"
              "    p.open('x')\n"
              "    p.write_text('t')\n"
              "    open(p, 'r+')\n"
              "    open(p, mode)\n"
              "class Writer:\n"
              "    def _write_output(self, p):\n"
              "        open(p, 'wb')\n")
    assert stray_writes(source) == [
        (8, "stray"), (9, "stray"), (10, "stray"), (11, "stray"),
        (12, "stray"), (13, "stray"), (16, "Writer._write_output")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_superlu_keeps_the_given_order(path):
    source = path.read_text(encoding="utf-8")
    allowed = ORDERING_PASS[1:] if path.name == ORDERING_PASS[0] else None
    other = splu_orderings(source, allowed)
    assert not other, f"{path.name}: splu calls with a permc_spec other " \
                      f"than {SPLU_ORDERING!r} (line, scope, permc_spec): " \
                      f"{other}"
    if allowed:  # the ordering pass is there, once
        assert len(splu_orderings(source)) == 1


def test_splu_scan_catches_other_orderings_and_spares_natural():
    source = ("from scipy.sparse.linalg import splu\n"
              "a = splu(m, permc_spec='NATURAL', diag_pivot_thresh=0.1)\n"
              "b = splu(m)\n"
              "c = splu(m, permc_spec='COLAMD')\n"
              "d = scipy.sparse.linalg.splu(m, 'MMD_AT_PLUS_A')\n"
              "e = splu(m, permc_spec=spec)\n"
              "f = spsolve(m, rhs, permc_spec='COLAMD')\n"
              "g = splu(m, 'NATURAL', options={'SymmetricMode': True})\n")
    assert splu_orderings(source) == [
        (3, "", None), (4, "", "COLAMD"), (5, "", "MMD_AT_PLUS_A"),
        (6, "", "spec")]


def test_splu_scan_spares_only_the_ordering_pass():
    # the one minimum-degree call in Problem.bordered_order is spared; a
    # second one there, the same call in another function and another
    # ordering in that function are still found
    allowed = ORDERING_PASS[1:]
    one = ("class Problem:\n"
           "    def bordered_order(self):\n"
           "        lu = splu(lap, permc_spec='MMD_AT_PLUS_A')\n"
           "        return lu\n")
    assert splu_orderings(one, allowed) == []
    second = one.replace("        return lu\n",
                         "        return splu(lap, 'MMD_AT_PLUS_A')\n")
    assert splu_orderings(second, allowed) == [
        (4, "Problem.bordered_order", "MMD_AT_PLUS_A")]
    elsewhere = one + ("def order(lap):\n"
                       "    return splu(lap, permc_spec='MMD_AT_PLUS_A')\n"
                       "class Other:\n"
                       "    def bordered_order(self):\n"
                       "        return splu(lap, 'MMD_AT_PLUS_A')\n")
    assert splu_orderings(elsewhere, allowed) == [
        (6, "order", "MMD_AT_PLUS_A"),
        (9, "Other.bordered_order", "MMD_AT_PLUS_A")]
    colamd = one.replace("MMD_AT_PLUS_A", "COLAMD")
    assert splu_orderings(colamd, allowed) == [
        (3, "Problem.bordered_order", "COLAMD")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_superlu_takes_the_shared_blocking(path):
    other = splu_blockings(path.read_text(encoding="utf-8"))
    assert not other, f"{path.name}: splu calls without the shared " \
                      f"relax and panel size (line, parameter, value): " \
                      f"{other}"


def test_blocking_constants_are_defined_once():
    # augmented names them, every other module imports them
    defined = {(path.stem, node.targets[0].id)
               for path in SOURCES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Name)
               and node.targets[0].id in {c for *_, c in SPLU_BLOCKING}}
    assert defined == {("augmented", c) for *_, c in SPLU_BLOCKING}


def test_splu_blocking_scan_catches_other_settings_and_spares_constants():
    source = ("from scipy.sparse.linalg import splu\n"
              "a = splu(m, 'NATURAL', relax=SPLU_RELAX,\n"
              "         panel_size=SPLU_PANEL)\n"
              "b = splu(m, 'NATURAL', 0.1, SPLU_RELAX, SPLU_PANEL)\n"
              "c = splu(m, permc_spec='NATURAL')\n"
              "d = scipy.sparse.linalg.splu(m, relax=1, panel_size=1)\n"
              "e = splu(m, relax=SPLU_PANEL, panel_size=augmented."
              "SPLU_PANEL)\n"
              "f = splu(m, 'NATURAL', 0.1, SPLU_RELAX)\n"
              "g = spsolve(m, rhs, relax=4)\n")
    assert splu_blockings(source) == [
        (5, "panel_size", None), (5, "relax", None),
        (6, "panel_size", "1"), (6, "relax", "1"),
        (7, "panel_size", "augmented.SPLU_PANEL"),
        (7, "relax", "SPLU_PANEL"), (8, "panel_size", None)]


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
