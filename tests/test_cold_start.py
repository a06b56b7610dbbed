"""The library loads scipy's compiled kernels without importing scipy's subpackages.

Importing a package runs its ``__init__`` first, and those of
``scipy.optimize`` and ``scipy.linalg`` cost most of the library's cold
start, so ``_kernels`` loads the extensions ``scipy.optimize._highspy._core``
and ``scipy.linalg._flapack`` from their files under their own names.
Nothing of ``scipy.sparse`` is loaded at all, nor scipy's BLAS extension
``scipy.linalg._fblas``.  Each test runs in a fresh interpreter, because the
import order is the thing under test.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUBPACKAGES = {"scipy.linalg", "scipy.sparse", "scipy.optimize"}
# the modules ``import minimax_fold`` loads; ``harness``, ``cli`` and
# ``svgplot`` load only when imported themselves
PACKAGE_MODULES = {"minimax_fold", "minimax_fold._kernels", "minimax_fold.mesh_fem",
                   "minimax_fold.minimax_solver", "minimax_fold.model",
                   "minimax_fold.perturbation", "minimax_fold.rayleigh",
                   "minimax_fold.verification"}

# one warm-startable LP, solved and printed as the hex of its bits
SOLVE_ONE_LP = """
import numpy as np
from minimax_fold.minimax_solver import WarmLP
x, dual = WarmLP().solve(np.array([-1.0, -1.0]),
                         (np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                          np.array([1.0, 2.0, 3.0, 1.0])),
                         np.array([4.0, 6.0]), np.zeros(2), np.full(2, np.inf))
print(x.tobytes().hex(), dual.tobytes().hex())
"""


def run_fresh(code: str, cwd=None) -> str:
    """Standard output of ``code`` run by a new interpreter with ``src`` on its path."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_library_and_cli_import_no_scipy_subpackage(tmp_path):
    run_fresh(f"""
        import sys
        import minimax_fold
        assert {{name for name in sys.modules
                 if name.split(".")[0] == "minimax_fold"}} == {PACKAGE_MODULES!r}
        assert not {SUBPACKAGES!r} & set(sys.modules)
        assert not [name for name in sys.modules if name.startswith("scipy.sparse")]
        from minimax_fold import cli
        assert cli.main(["solve", "--n", "16", "--out", {str(tmp_path / "solve")!r}]) == 0
        assert cli.main(["refine", "--sizes", "8", "16", "32",
                         "--out", {str(tmp_path / "refine")!r}]) == 0
        assert cli.main(["perturb", "--q", "0.5", "--gamma", "2", "--gamma1", "3",
                         "--kappa", "0.1", "--n", "16",
                         "--out", {str(tmp_path / "perturb")!r}]) == 0
        assert cli.main(["oracle", "--problem", "scalar_power", "--n", "16",
                         "--out", {str(tmp_path / "oracle")!r}]) == 0
        assert not {SUBPACKAGES!r} & set(sys.modules)
        assert not [name for name in sys.modules if name.startswith("scipy.sparse")]
        assert "scipy.linalg._fblas" not in sys.modules
    """)


def test_only_kernels_imports_scipy():
    importers = []
    for path in sorted((SRC / "minimax_fold").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert set(importers) == {"_kernels.py"}


DENSE_NAMES = re.compile(r"band_to_dense|eval_jacobian"
                         r"|np\.linalg\.(solve|svd|eig|eigh|eigvalsh|inv)\b")


def test_dense_paths_stay_in_model():
    """Dense Jacobians and dense factorizations appear only in ``model.py``,
    which keeps them as the tests' references, and in the package's
    re-export of ``eval_jacobian``."""
    found = []
    for path in sorted((SRC / "minimax_fold").glob("*.py")):
        if path.name != "model.py":
            found += [(path.name, line.strip()) for line in path.read_text().splitlines()
                      if DENSE_NAMES.search(line)]
    assert found == [("__init__.py", "eval_jacobian,")]


def test_polish_and_certificate_run_only_in_the_multistart_and_the_carry():
    """``_fold_polish`` and ``_certificate`` are called from ``_multistart``,
    on a mesh of its own, and from ``_carry``, which carries a certificate to
    finer meshes or a nearby problem; any other carry path would be a second one."""
    callers = {"_fold_polish": set(), "_certificate": set()}
    for path in sorted((SRC / "minimax_fold").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers:
                        callers[name].add((path.name, getattr(top, "name", None)))
    expected = {("minimax_solver.py", "_multistart"), ("minimax_solver.py", "_carry")}
    assert callers == {"_fold_polish": expected, "_certificate": expected}


def test_only_model_reads_the_diagnostic_flag():
    """``ProblemSpec.diagnostic`` selects the linear mode's validation and its
    hypothesis rows in ``model``; the solver, the studies and the diagnostics
    take one path for every problem."""
    readers = set()
    for path in sorted((SRC / "minimax_fold").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "diagnostic":
                readers.add(path.name)
    assert readers == {"model.py"}


# public entry points that users, the benchmark and its tracer call, and no
# library module; the tracer also reads the dense ``JacobianParts.stiffness``
ENTRY_POINTS = {"harness.load_certificate", "verification.verify_certificate",
                "model.eval_jacobian", "model.JacobianParts.stiffness"}


def test_every_public_name_has_a_production_caller():
    """Each public top-level function and class of the library, and each
    public method and property of those classes, is referenced by some
    library module other than ``__init__.py``, the entry points aside.  A
    method or property is referenced as an attribute (``x.name``).  A
    function or class is referenced as an attribute, as a name imported from
    its own module, or by name in that module, where no variable or argument
    of the same name shadows it.  Code that only the tests call belongs in
    ``tests/references.py``."""
    defined, attributes, imported, own = {}, set(), set(), set()
    for path in sorted((SRC / "minimax_fold").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined[f"{path.stem}.{top.name}"] = (path.stem, top.name, False)
                for item in top.body if isinstance(top, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{top.name}.{item.name}"] = (path.stem, item.name,
                                                                          True)
        loaded, bound = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.update((node.module.split(".")[-1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Name):
                (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
        own.update((path.stem, name) for name in loaded - bound)

    def referenced(module, name, method):
        return name in attributes or not method and ((module, name) in imported
                                                     or (module, name) in own)

    assert {key for key, ref in defined.items() if not referenced(*ref)} == ENTRY_POINTS


# the library's types, the only names the independent audit may import from it
AUDIT_IMPORTS = {("mesh_fem", "Mesh1D"), ("minimax_solver", "MinimaxCertificate"),
                 ("model", "FEField"), ("model", "ProblemSpec")}


def test_the_audit_imports_only_types_from_the_library():
    """``verification.py`` recomputes the certificate on its own loops: it may
    take the library's types, and nothing of its assembly, its kernels, its
    quotients or scipy."""
    imports = set()  # (module, name), relative imports taken within the package
    for node in ast.walk(ast.parse((SRC / "minimax_fold" / "verification.py").read_text())):
        if isinstance(node, ast.Import):
            imports.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("minimax_fold." if node.level else "") + (node.module or "")
            imports.update((module, alias.name) for alias in node.names)
    library = {(module.removeprefix("minimax_fold."), name) for module, name in imports
               if module.startswith("minimax_fold")}
    assert library == AUDIT_IMPORTS
    assert {module for module, _ in imports if not module.startswith("minimax_fold")} == {
        "__future__", "dataclasses", "numpy"}


def test_scipy_optimize_after_the_library_reuses_its_core():
    run_fresh("""
        import sys
        from minimax_fold import minimax_solver
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert sys.modules["scipy.optimize._highspy._core"] is minimax_solver._highs
        assert _core is minimax_solver._highs
        result = scipy.optimize.linprog([-1.0, -1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                                        b_ub=[4.0, 6.0], method="highs")
        assert result.success and abs(result.fun + 2.8) <= 1e-12
    """)


def test_library_after_scipy_optimize_reuses_its_core():
    run_fresh("""
        import sys
        import scipy.optimize
        core = sys.modules["scipy.optimize._highspy._core"]
        from minimax_fold import minimax_solver
        assert minimax_solver._highs is core
    """)


def test_warm_lp_bits_do_not_depend_on_import_order():
    library_first = run_fresh(SOLVE_ONE_LP + "import scipy.optimize\n")
    optimize_first = run_fresh("import scipy.optimize\n" + SOLVE_ONE_LP)
    assert library_first == optimize_first
    assert len(library_first.split()) == 2


def test_missing_core_raises_import_error_naming_it(tmp_path):
    run_fresh(f"""
        import scipy, scipy.linalg
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import minimax_fold
        except ImportError as exc:
            assert exc.name == "scipy.optimize._highspy._core", exc
        else:
            raise AssertionError("imported without the HiGHS core")
    """)


# the library's LAPACK extension, the one scipy's own modules hold, and a
# call through each of scipy's public functions
SAME_KERNELS = """
import sys
import numpy as np
import scipy.linalg
from minimax_fold import _kernels
assert scipy.linalg.lapack._flapack is _kernels._flapack
assert sys.modules["scipy.linalg._flapack"] is _kernels._flapack
band = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
assert np.allclose(scipy.linalg.eig_banded(band, eigvals_only=True),
                   2.0 + np.sqrt(2.0) * np.array([-1.0, 0.0, 1.0]))
# tridiag(1, 2, 1) of order 5 as a band with two sub- and two superdiagonals
general = np.array([[0.0] * 5, [0.0] + [1.0] * 4, [2.0] * 5, [1.0] * 4 + [0.0], [0.0] * 5])
product = np.array([3.0, 4.0, 4.0, 4.0, 3.0])
assert np.allclose(scipy.linalg.solve_banded((2, 2), general, product), np.ones(5))
"""


def test_scipy_subpackages_and_the_library_share_their_kernels():
    for first in ("import minimax_fold", "import scipy.linalg"):
        run_fresh(first + "\n" + SAME_KERNELS)


def test_missing_flapack_raises_import_error_naming_it(tmp_path):
    run_fresh(f"""
        import sys
        import scipy, scipy.optimize
        del sys.modules["scipy.linalg._flapack"]
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import minimax_fold
        except ImportError as exc:
            assert exc.name == "scipy.linalg._flapack", exc
        else:
            raise AssertionError("imported without scipy's LAPACK extension")
    """)
