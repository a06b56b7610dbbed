"""Workloads of the fold-solver benchmark: fixed op lists and their output checks.

An op is one unit of user-visible work: a CLI study run in-process through
``cli.main``, or one library call of the continuation and Newton oracles.
``run`` is the timed part; ``check`` runs afterwards, outside the timed
region, and returns a digest (compared across passes for determinism) and
the list of reasons the op failed (empty when it succeeded).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from minimax_fold import build_mesh, cli, harness, minimax_solver, verification
from minimax_fold.model import builtin_problem

# Relative tolerance of every lambda check.  The measured minimax/fold gap is
# at most 4e-10, also where the fold polish fails.
REL_TOL = 1e-8

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Failure reasons that mean a wrong result, not an honestly reported failure.
# Any of them makes the run's ``correct`` false.
WRONG_RESULT = frozenset({
    "lambda_off_reference",
    "fold_off_reference",
    "audit_rejects_valid_certificate",
    "newton_contradiction",
    "nondeterministic",
})

SP = ("scalar_power", {"q": 0.5, "gamma": 2.0})
SP_Q03 = ("scalar_power", {"q": 0.3, "gamma": 3.0})
CP2 = ("cooperative_product", {"m": 2})
CP3 = ("cooperative_product", {"m": 3})
LIN1 = ("linear_diagnostic", {"m": 1})

PROBE_N = 256


def ref_key(problem: str, params: dict, n: int) -> str:
    inner = ",".join(f"{k}={float(v) if k != 'm' else int(v)}" for k, v in sorted(params.items()))
    return f"{problem}({inner})/n={n}"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _rel_off(value: float, ref: float) -> bool:
    return not abs(value - ref) <= REL_TOL * abs(ref)


def _sha(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _problem_flags(problem: str, params: dict) -> list:
    flags = ["--problem", problem]
    for key in ("q", "gamma", "m"):
        if key in params:
            flags += [f"--{key}", str(params[key])]
    return flags


def _certificate_reasons(path: Path) -> list:
    """Status and independent-audit reasons for a written certificate.json."""
    if not path.is_file():
        return ["missing_certificate"]
    data = json.loads(path.read_text())
    reasons = []
    if not data["valid"]:
        reasons.append(data["status"] if data["status"] not in ("polished", "converged")
                       else "invalid_certificate")
    spec, mesh, cert = harness.load_certificate(path)
    if not verification.verify_certificate(spec, mesh, cert).valid:
        reasons.append("audit_rejects_valid_certificate" if data["valid"] else "audit_not_valid")
    return reasons


def _read_table(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class CliOp:
    """One ``minimax-fold <study>`` invocation through ``cli.main``."""

    name: str
    argv: list
    study: str
    problem: tuple
    n: int
    seed: int

    def run(self, out: Path, ref: dict):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv + ["--seed", str(self.seed), "--out", str(out)])

    def check(self, out: Path, code, ref: dict):
        cert_path, table_path = out / "certificate.json", out / "table.csv"
        digest = (code, _sha(cert_path), _sha(table_path))
        reasons = [] if code == 0 else [f"exit_{code}"]
        failure = out / "failure.txt"
        if failure.is_file():
            # the harness caught a solver exception: "<ExceptionType>: message"
            reasons.append("solver_" + failure.read_text().split(":", 1)[0].strip())
        if not table_path.is_file():
            return digest, reasons + ["missing_table"]
        problem, params = self.problem
        rows = _read_table(table_path)
        if self.study == "oracle":
            row = rows[0]
            if row["fold_status"] != "fold_found":
                reasons.append("no_fold")
            key = ref_key(problem, params, self.n)
            if _rel_off(float(row["lambda_minimax"]), ref[key]["fold"]):
                reasons.append("lambda_off_reference")
            if row["lambda_fold"] and _rel_off(float(row["lambda_fold"]), ref[key]["minimax"]):
                reasons.append("fold_off_reference")
            return digest, reasons
        reasons += _certificate_reasons(cert_path)
        if self.study == "refine":
            pairs = [(int(r["n"]), float(r["lambda_star"])) for r in rows]
        else:
            pairs = [(self.n, json.loads(cert_path.read_text())["lambda_star"])]
        for n, lam in pairs:
            entry = ref[ref_key(problem, params, n)]
            if _rel_off(lam, entry["eig"] if "eig" in entry else entry["fold"]):
                reasons.append("lambda_off_reference")
                break
        return digest, reasons


@dataclass
class ContinuationOp:
    """``continuation_sweep`` with ``lambda_max_guess`` from the reference table."""

    name: str
    problem: tuple
    n: int
    spec: object = field(init=False)
    mesh: object = field(init=False)

    def __post_init__(self):
        self.spec = builtin_problem(*self.problem)
        self.mesh = build_mesh(self.n)

    def run(self, out: Path, ref: dict):
        guess = ref[ref_key(*self.problem, self.n)]["minimax"]
        return minimax_solver.continuation_sweep(self.spec, self.mesh, lambda_max_guess=guess)

    def check(self, out: Path, sweep, ref: dict):
        digest = (sweep.status, repr(sweep.fold_lambda), len(sweep.points))
        if sweep.fold_lambda is None:
            return digest, ["no_fold"]
        if _rel_off(sweep.fold_lambda, ref[ref_key(*self.problem, self.n)]["minimax"]):
            return digest, ["fold_off_reference"]
        return digest, []


@dataclass
class ProbeOp:
    """``newton_multistart`` at lambda = fraction * lambda*: a solution must
    exist below the fold and must not be found above it."""

    name: str
    fraction: float
    start_seed: int
    spec: object = field(init=False)
    mesh: object = field(init=False)

    def __post_init__(self):
        self.spec = builtin_problem(*SP)
        self.mesh = build_mesh(PROBE_N)

    def run(self, out: Path, ref: dict):
        lam = self.fraction * ref[ref_key(*SP, PROBE_N)]["fold"]
        return minimax_solver.newton_multistart(self.spec, self.mesh, lam, seed=self.start_seed)

    def check(self, out: Path, result, ref: dict):
        digest = (result.converged, repr(result.residual_norm), result.iterations, result.reason)
        exists = self.fraction < 1.0
        if result.converged != exists or (result.converged and not result.u.interior):
            return digest, ["newton_contradiction"]
        return digest, []


def _cli(name, study, problem, n, seed, extra=()):
    argv = [study] + _problem_flags(*problem) + list(extra)
    if study != "refine":
        argv += ["--n", str(n)]
    return CliOp(name, argv, study, problem, n, seed)


def _solve(problem, n, seed):
    params = ",".join(f"{k}={v}" for k, v in problem[1].items())
    return _cli(f"solve {problem[0]}({params}) n={n}", "solve", problem, n, seed)


def solve_cold(seed: int) -> list:
    return [
        _solve(SP, 64, seed),
        _solve(SP, 128, seed),
        _solve(SP_Q03, 64, seed),
        _solve(CP2, 64, seed),
        _solve(CP3, 64, seed),
        _solve(LIN1, 32, seed),
    ]


def branch_oracle(seed: int) -> list:
    ops = [
        ContinuationOp("continuation scalar_power n=128", SP, 128),
        ContinuationOp("continuation scalar_power n=256", SP, 256),
        ContinuationOp("continuation cooperative_product(m=2) n=128", CP2, 128),
    ]
    # Stratified draws: one fraction from each quarter of [0.05, 0.95] and of
    # [1.05, 2.0], so every seed probes near the fold and far from it alike
    # (a probe just above the fold takes several times longer than one far above).
    rng = np.random.default_rng(seed)
    quarters = (np.arange(4) + rng.uniform(size=(2, 4))) / 4.0
    below = 0.05 + 0.9 * quarters[0]
    above = 1.05 + 0.95 * quarters[1]
    for lo, hi in zip(below, above[::-1]):
        for frac in (lo, hi):
            start = int(rng.integers(2**31))
            ops.append(ProbeOp(f"newton probe n={PROBE_N} lambda={frac:.4f}*lambda*",
                               float(frac), start))
    return ops


def study_chain(seed: int) -> list:
    sizes = [8, 16, 32, 64, 128]
    return [
        _cli("refine scalar_power sizes 8..128", "refine", SP, sizes[-1], seed,
             ["--sizes"] + [str(s) for s in sizes]),
        _cli("perturb kappa 0.1 0.01 n=64", "perturb", SP, 64, seed,
             ["--gamma1", "3", "--kappa", "0.1", "0.01"]),
        _cli("oracle scalar_power n=64", "oracle", SP, 64, seed),
    ]


WORKLOADS = {
    "solve-cold": solve_cold,
    "branch-oracle": branch_oracle,
    "study-chain": study_chain,
}


@dataclass
class WarmUp:
    """Untimed warm-up: a cheap solve at n = 128, large enough for threaded
    BLAS (whose first call can take most of a second), then one small op of
    the workload's own kind."""

    name: str
    op: object

    def run(self, out: Path, ref: dict):
        options = minimax_solver.SolverOptions(n_starts=1, tol_kkt=1e-3)
        minimax_solver.maximize(builtin_problem(*SP), build_mesh(128), options=options)
        return self.op.run(out, ref)


WARMUP = {
    "solve-cold": lambda seed: WarmUp("warm-up", _solve(SP, 16, seed)),
    "branch-oracle": lambda seed: WarmUp("warm-up", ContinuationOp("warm-up", SP, 16)),
    "study-chain": lambda seed: WarmUp("warm-up", _solve(SP, 16, seed)),
}

# Typical pass time on the reference machine (2-core x86-64, see README.md).
# A run makes max(2, seconds // NOMINAL_PASS_S) passes: a fixed function of
# --seconds, so parent and child commits collect the same number of samples.
NOMINAL_PASS_S = {"solve-cold": 12.0, "branch-oracle": 6.0, "study-chain": 13.0}


def reference_points() -> list:
    """Every (problem, params, n) the workloads and warm-ups check against."""
    points = [SP + (n,) for n in (8, 16, 32, 64, 128, 256)]
    return points + [problem + (n,) for problem, n in
                     ((SP_Q03, 64), (CP2, 64), (CP2, 128), (CP3, 64), (LIN1, 32))]
