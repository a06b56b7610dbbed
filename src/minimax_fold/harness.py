"""Run configurations, convergence studies and artifact emission.

Artifacts are deterministic for a fixed seed: ``certificate.json`` and
``table.csv`` are byte-identical across reruns.  Wall-clock timings are
written to a separate ``timings.csv`` that is excluded from the determinism
contract.  CSV numbers use 17 significant digits in scientific notation with
a '.' decimal separator, and a text field holding a comma is quoted.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import model, rayleigh, svgplot
from .mesh_fem import Mesh1D, build_mesh, mesh_from_nodes
from .minimax_solver import (
    ContinuationResult,
    MinimaxCertificate,
    SolverOptions,
    continuation_sweep,
    continue_certificate,
    maximize,
)
from .model import FEField, ProblemSpec, builtin_problem
from .perturbation import kappa_samples, two_sided_example

STUDIES = ("solve", "refine", "perturb", "check", "oracle")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_HYPOTHESES = 4


class ConfigError(ValueError):
    """The run configuration is malformed."""


def _number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind`` number and not a bool, as ``SolverOptions`` reads them."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17e")


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [list(header)] + [[_fmt(v) for v in row] for row in rows])


@dataclass(frozen=True)
class RunConfig:
    """One harness invocation (problem + study + solver options + outputs)."""

    problem_name: str = "scalar_power"
    problem_params: dict = field(default_factory=dict)
    study: str = "solve"
    mesh_sizes: tuple = (64,)
    grading: str = "uniform"
    ratio: Optional[float] = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    out_dir: str = "out"
    strict: bool = False
    svg: bool = False
    lambda_window: Optional[tuple] = None
    perturb_kappas: tuple = (0.1,)
    perturb_gamma1: float = 3.0

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if self.problem_name not in model.CATALOG:
            raise ConfigError(f"unknown problem {self.problem_name!r}")
        sizes = tuple(self.mesh_sizes)
        if not all(_number(n, numbers.Integral) for n in sizes):
            raise ConfigError(f"mesh sizes must be integers, not {list(sizes)!r}")
        sizes = tuple(int(n) for n in sizes)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("mesh sizes must be nonempty and strictly increasing")
        if any(n < 2 for n in sizes):
            raise ConfigError("mesh sizes must be >= 2")
        object.__setattr__(self, "mesh_sizes", sizes)
        if self.study == "refine" and len(sizes) < 3:
            raise ConfigError("the refine study needs at least 3 mesh sizes")
        if self.lambda_window is not None:
            window = self.lambda_window
            if not (isinstance(window, (list, tuple)) and len(window) == 2
                    and all(_number(x) and math.isfinite(x) for x in window)
                    and window[0] < window[1]):
                raise ConfigError("lambda_window must be two finite numbers lo < hi, "
                                  f"not {window!r}")
            object.__setattr__(self, "lambda_window", (float(window[0]), float(window[1])))
        if self.study == "perturb":
            # the two-sided example perturbs scalar_power(q, gamma) by kappa u^gamma1
            if self.problem_name != "scalar_power":
                raise ConfigError("the perturb study solves scalar_power only, "
                                  f"not {self.problem_name!r}")
            if not self.perturb_kappas:
                raise ConfigError("the perturb study needs at least one kappa")
            dropped = sorted(set(self.problem_params) - {"q", "gamma"})
            if dropped:
                raise ConfigError("the perturb study takes the parameters q and gamma only, "
                                  f"not {', '.join(dropped)}")
        # the catalog's own checks decide which parameters are admissible
        try:
            spec = builtin_problem(self.problem_name, self.problem_params)
            if self.study == "perturb":
                for kappa in self.perturb_kappas:
                    model.perturbed_scalar(spec.q, spec.params["gamma"],
                                           self.perturb_gamma1, kappa)
                    kappa_samples(kappa)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "_spec", spec)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        data = dict(data)
        solver_map = data.pop("solver", {})
        known = {f.name for f in fields(SolverOptions)}
        unknown = set(solver_map) - known
        if unknown:
            raise ConfigError(f"unknown solver options: {sorted(unknown)}")
        solver = SolverOptions(**solver_map)
        if "seed" in data:
            solver = replace(solver, seed=data.pop("seed"))
        problem = data.pop("problem", {})
        if not (isinstance(problem, dict) and isinstance(problem.get("params", {}), dict)):
            raise ConfigError(f"problem must be an object with name and params, not {problem!r}")
        try:
            return RunConfig(
                problem_name=problem.get("name", data.pop("problem_name", "scalar_power")),
                problem_params=dict(problem.get("params", {})),
                solver=solver,
                **data,
            )
        except TypeError as exc:
            raise ConfigError(f"bad configuration key: {exc}") from exc

    def spec(self) -> ProblemSpec:
        return self._spec

    def mesh(self, n: int) -> Mesh1D:
        return build_mesh(n, grading=self.grading, ratio=self.ratio)


# ---------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class RefinementRow:
    n: int
    h: float
    lambda_star: float
    delta_prev: Optional[float]
    u_diff_sup: Optional[float]
    sigma_min: float
    in_window: Optional[bool]
    start: str


@dataclass(frozen=True)
class RefinementTable:
    """Per-size minimax values with successive differences, ordered by n."""

    rows: tuple
    certificates: tuple

    @property
    def fitted_order(self) -> Optional[float]:
        """Convergence order p of delta ~ h^p from the last two usable
        differences: the log of their ratio over the log of the ratio of the
        ``h`` of the rows they belong to, exact for geometric mesh sizes."""
        rows = [r for r in self.rows if r.delta_prev not in (None, 0.0)]
        if len(rows) < 2:
            return None
        a, b = rows[-2:]
        return float(np.log2(abs(a.delta_prev) / abs(b.delta_prev)) / np.log2(a.h / b.h))


def refinement_study(config: RunConfig) -> RefinementTable:
    """Solve per mesh size by nested iteration: one ``maximize``, then continuation.

    The first size, and any size after an invalid certificate, runs
    ``maximize``.  Every other size continues the previous certificate
    (``continue_certificate``): its field, interpolated onto the finer mesh,
    starts the fold polish.  Each row records its certificate's ``start``:
    ``multistart`` or ``nested`` (from ``maximize``), ``continued`` or
    ``fallback``.
    """
    spec = config.spec()
    rows = []
    certs = []
    prev_cert: Optional[MinimaxCertificate] = None
    for n in config.mesh_sizes:
        mesh = config.mesh(n)
        coarse_on_fine = None if prev_cert is None else prev_cert.u_star.transfer_to(mesh)
        if prev_cert is not None and prev_cert.valid:
            cert = continue_certificate(spec, mesh, prev_cert, config.solver)
        else:
            cert = maximize(spec, mesh, options=config.solver)
        delta = None if prev_cert is None else abs(cert.lambda_star - prev_cert.lambda_star)
        u_diff = None
        if coarse_on_fine is not None:
            u_diff = float(np.abs(coarse_on_fine.values - cert.u_star.values).max())
        in_window = None
        if config.lambda_window is not None:
            lo, hi = config.lambda_window
            in_window = bool(lo < cert.lambda_star < hi)
        rows.append(RefinementRow(n=n, h=mesh.h_max, lambda_star=cert.lambda_star,
                                  delta_prev=delta, u_diff_sup=u_diff,
                                  sigma_min=cert.sigma_min, in_window=in_window,
                                  start=cert.start))
        certs.append(cert)
        prev_cert = cert
    return RefinementTable(rows=tuple(rows), certificates=tuple(certs))


@dataclass(frozen=True)
class OracleComparison:
    lambda_minimax: float
    minimax_valid: bool
    lambda_fold: Optional[float]
    rel_gap: Optional[float]
    fold_status: str
    runtime_minimax: float
    runtime_fold: float

    @property
    def expected_divergence(self) -> bool:
        """True when continuation found no fold (e.g. the linear diagnostic)."""
        return self.lambda_fold is None


def oracle_compare(spec: ProblemSpec, mesh: Mesh1D,
                   options: SolverOptions | None = None,
                   ) -> tuple[OracleComparison, ContinuationResult]:
    """Minimax value against the fold located by pseudo-arclength continuation.

    Returns the comparison and the continuation sweep it was taken from.
    """
    t0 = time.perf_counter()
    cert = maximize(spec, mesh, options=options)
    t1 = time.perf_counter()
    sweep = continuation_sweep(spec, mesh, lambda_max_guess=abs(cert.lambda_star) or 1.0)
    t2 = time.perf_counter()
    gap = None
    if sweep.fold_lambda is not None and sweep.fold_lambda != 0.0:
        gap = abs(cert.lambda_star - sweep.fold_lambda) / abs(sweep.fold_lambda)
    return OracleComparison(
        lambda_minimax=cert.lambda_star,
        minimax_valid=cert.valid,
        lambda_fold=sweep.fold_lambda,
        rel_gap=gap,
        fold_status=sweep.status,
        runtime_minimax=t1 - t0,
        runtime_fold=t2 - t1,
    ), sweep


# ---------------------------------------------------------------------------
# artifact emission


def write_certificate(path, cert: MinimaxCertificate) -> None:
    Path(path).write_text(json.dumps(cert.to_dict(), indent=1, sort_keys=True) + "\n")


def load_certificate(path):
    """Reload a certificate.json; returns (spec, mesh, certificate)."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "mf-cert/1":
        raise ConfigError(f"unsupported certificate schema {data.get('schema')!r}")
    params = data["problem"]["params"]
    functions = sorted(key for key, value in params.items() if value == "callable")
    if functions:
        raise ConfigError("the certificate's problem has function coefficients "
                          f"({', '.join(functions)}), which a file cannot restore")
    spec = builtin_problem(data["problem"]["name"], params)
    if "nodes" in data["mesh"]:
        mesh = mesh_from_nodes(np.asarray(data["mesh"]["nodes"], dtype=float))
    else:
        mesh = build_mesh(int(data["mesh"]["n_elements"]))
    u = FEField(mesh, np.asarray(data["u_star"], dtype=float))
    v = FEField(mesh, np.asarray(data["v_star"], dtype=float))
    res = data["residuals"]
    cert = MinimaxCertificate(
        lambda_star=float(data["lambda_star"]),
        u_star=u, v_star=v,
        mu=np.asarray(data["mu"], dtype=float),
        kappa=np.asarray(data["kappa"], dtype=float),
        active_set=np.asarray(data["active_set"], dtype=int),
        primal_residual=res["primal"], adjoint_residual=res["adjoint"],
        stationarity_residual=res["stationarity"],
        complementarity_residual=res["complementarity"],
        sigma_min=float(data["sigma_min"]), jac_norm=float(data["jac_norm"]),
        valid=bool(data["valid"]), status=data["status"],
        iterations=int(data["iterations"]),
        polish_iterations=int(data["polish_iterations"]),
        starts_agree=bool(data["starts_agree"]),
        lambda_spread_starts=float(data["lambda_spread_starts"]),
        distance_to_boundary=float(data["distance_to_boundary"]),
        problem=data["problem"], mesh_info=data["mesh"],
        options=None,
        start=data.get("start", "multistart"),  # older files predate the field
    )
    return spec, mesh, cert


def run(config: RunConfig) -> int:
    """Execute one study and write artifacts; returns the process exit code.

    ``timings.csv`` is written on every exit path, solver and hypothesis
    failures included.  ``check`` and ``strict`` check the hypotheses once,
    and ``check`` and a failed ``strict`` run (exit 4) write the check table.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plot_dir = out / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    spec = config.spec()
    timings = []
    started = time.perf_counter()

    try:
        if config.study == "check" or config.strict:
            report = model.check_hypotheses(spec)
            failed = config.strict and not report.all_passed
            if config.study == "check" or failed:
                write_csv(out / "table.csv",
                          ["hypothesis", "description", "passed", "margin", "worst_x"],
                          [(c.key, c.description, c.passed, c.margin, c.worst_x)
                           for c in report.checks])
            if failed:
                return EXIT_HYPOTHESES

        if config.study == "solve":
            mesh = config.mesh(config.mesh_sizes[-1])
            cert = maximize(spec, mesh, options=config.solver)
            write_certificate(out / "certificate.json", cert)
            write_csv(out / "table.csv",
                      ["n", "h", "lambda_star", "primal", "adjoint", "stationarity",
                       "complementarity", "sigma_min", "jac_norm", "valid", "status", "start"],
                      [(mesh.n_elements, mesh.h_max, cert.lambda_star,
                        cert.primal_residual, cert.adjoint_residual,
                        cert.stationarity_residual, cert.complementarity_residual,
                        cert.sigma_min, cert.jac_norm, cert.valid, cert.status,
                        cert.start)])
            quotients = rayleigh.inner_min(spec, mesh, cert.u_star).quotients
            write_csv(plot_dir / "quotients.csv", ["direction", "quotient"],
                      list(enumerate(quotients)))
            if config.svg:
                svgplot.svg_line_chart(out / "chart.svg",
                                       [("quotients", list(range(quotients.size)),
                                         quotients.tolist())],
                                       title="per-direction quotients at the maximizer",
                                       x_label="direction", y_label="R(u*, eta_i)")
            if not cert.valid:
                return EXIT_SOLVER

        elif config.study == "refine":
            table = refinement_study(config)
            write_csv(out / "table.csv",
                      ["n", "h", "lambda_star", "delta_prev", "u_diff_sup",
                       "sigma_min", "in_window", "start"],
                      [(r.n, r.h, r.lambda_star, r.delta_prev, r.u_diff_sup,
                        r.sigma_min, r.in_window, r.start) for r in table.rows])
            write_certificate(out / "certificate.json", table.certificates[-1])
            write_csv(plot_dir / "convergence.csv",
                      ["h", "lambda_star", "delta_prev"],
                      [(r.h, r.lambda_star, r.delta_prev) for r in table.rows])
            order = table.fitted_order
            write_csv(out / "convergence_order.csv", ["fitted_order"],
                      [(order,)] if order is not None else [("",)])
            if config.svg:
                rows = [r for r in table.rows if r.delta_prev]
                svgplot.svg_line_chart(out / "chart.svg",
                                       [("delta_lambda", [r.h for r in rows],
                                         [r.delta_prev for r in rows])],
                                       title="minimax value differences under refinement",
                                       x_label="h", y_label="|delta lambda|",
                                       logx=True, logy=True)
            if any(not c.valid for c in table.certificates):
                return EXIT_SOLVER

        elif config.study == "perturb":
            mesh = config.mesh(config.mesh_sizes[-1])
            reports = two_sided_example(float(spec.q), float(spec.params["gamma"]),
                                        config.perturb_gamma1, config.perturb_kappas, mesh,
                                        options=config.solver)
            write_csv(out / "table.csv",
                      ["kappa", "lambda_base", "lambda_pert", "shift",
                       "lower_shift", "upper_shift", "analytic_cap", "bounds_hold", "start"],
                      [(r.kappa_norm, r.lambda_base, r.lambda_pert,
                        r.lambda_pert - r.lambda_base, r.lower_shift, r.upper_shift,
                        r.analytic_cap, r.bounds_hold, r.start) for r in reports])
            write_certificate(out / "certificate.json", reports[0].base_cert)
            write_csv(plot_dir / "shift_vs_kappa.csv", ["kappa", "shift"],
                      [(r.kappa_norm, r.lambda_base - r.lambda_pert) for r in reports])
            if config.svg:
                svgplot.svg_line_chart(out / "chart.svg",
                                       [("shift", [r.kappa_norm for r in reports],
                                         [max(r.lambda_base - r.lambda_pert, 1e-300)
                                          for r in reports])],
                                       title="extreme-value shift vs perturbation size",
                                       x_label="kappa", y_label="shift",
                                       logx=True, logy=True)

        elif config.study == "oracle":
            mesh = config.mesh(config.mesh_sizes[-1])
            comparison, sweep = oracle_compare(spec, mesh, options=config.solver)
            write_csv(out / "table.csv",
                      ["lambda_minimax", "lambda_fold", "rel_gap", "fold_status",
                       "expected_divergence"],
                      [(comparison.lambda_minimax, comparison.lambda_fold,
                        comparison.rel_gap, comparison.fold_status,
                        comparison.expected_divergence)])
            write_csv(plot_dir / "branch.csv",
                      ["arclength", "lambda", "sup_u", "stability"],
                      [(p.arclength, p.lam, p.u.sup_norm, p.stability)
                       for p in sweep.points])
            if config.svg and sweep.points:
                svgplot.svg_line_chart(out / "chart.svg",
                                       [("branch", [p.lam for p in sweep.points],
                                         [p.u.sup_norm for p in sweep.points])],
                                       title="solution branch",
                                       x_label="lambda", y_label="sup |u|")
            timings.append(("minimax", comparison.runtime_minimax))
            timings.append(("continuation", comparison.runtime_fold))
            if not comparison.minimax_valid:
                return EXIT_SOLVER
    except (model.ConeError, rayleigh.DenominatorError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        (out / "failure.txt").write_text(f"{type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER
    finally:
        timings.append(("total", time.perf_counter() - started))
        write_csv(out / "timings.csv", ["stage", "seconds"], timings)
    return EXIT_OK
