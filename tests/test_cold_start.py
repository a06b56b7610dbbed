"""The library loads scipy's HiGHS core without importing ``scipy.optimize``.

Importing a package runs its ``__init__`` first, and ``scipy.optimize``'s
costs a third of the library's cold start, so ``minimax_solver`` loads the
extension ``scipy.optimize._highspy._core`` from its file under its own name.
Each test runs in a fresh interpreter, because the import order is the thing
under test.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_library_and_cli_never_import_scipy_optimize(tmp_path):
    run_fresh(f"""
        import sys
        import minimax_fold
        assert "scipy.optimize" not in sys.modules
        from minimax_fold import cli
        assert cli.main(["solve", "--n", "16", "--out", {str(tmp_path / "solve")!r}]) == 0
        assert cli.main(["refine", "--sizes", "8", "16", "32",
                         "--out", {str(tmp_path / "refine")!r}]) == 0
        assert "scipy.optimize" not in sys.modules
    """)


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
        import scipy, scipy.linalg, scipy.sparse.linalg
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import minimax_fold
        except ImportError as exc:
            assert exc.name == "scipy.optimize._highspy._core", exc
        else:
            raise AssertionError("imported without the HiGHS core")
    """)
