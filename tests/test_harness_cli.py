import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minimax_fold import cli, harness, minimax_solver, model, perturbation
from minimax_fold.harness import (
    ConfigError,
    RunConfig,
    load_certificate,
    oracle_compare,
    refinement_study,
)
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.minimax_solver import SolverOptions
from minimax_fold.model import scalar_power
from minimax_fold.verification import verify_certificate
from tests.references import condition_u_check
from tests.test_rayleigh import closed_form_eigenvalue

FAST_SOLVER = {"n_starts": 2}


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a pass-through that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fast_config(**kw):
    base = dict(problem_name="scalar_power", problem_params={"q": 0.5, "gamma": 2.0},
                study="solve", mesh_sizes=(16,), solver=SolverOptions(n_starts=2))
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_rejects_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            RunConfig(problem_name="mystery")

    def test_rejects_nonincreasing_sizes(self):
        with pytest.raises(ConfigError, match="increasing"):
            RunConfig(mesh_sizes=(16, 8))

    def test_rejects_unknown_study(self):
        with pytest.raises(ConfigError, match="study"):
            RunConfig(study="explore")

    def test_from_dict_solver_options(self):
        config = RunConfig.from_dict({
            "problem": {"name": "scalar_power", "params": {"q": 0.4, "gamma": 2.5}},
            "study": "solve", "mesh_sizes": [8, 16], "solver": {"n_starts": 2},
            "seed": 7,
        })
        assert config.solver.seed == 7
        assert config.spec().q == 0.4

    def test_from_dict_rejects_unknown_solver_key(self):
        with pytest.raises(ConfigError, match="solver"):
            RunConfig.from_dict({"solver": {"warp_speed": True}})


class TestRunSolve:
    def test_writes_valid_certificate_and_table(self, tmp_path):
        config = fast_config(out_dir=str(tmp_path))
        assert harness.run(config) == 0
        cert_path = tmp_path / "certificate.json"
        data = json.loads(cert_path.read_text())
        assert data["schema"] == "mf-cert/1"
        assert data["valid"] is True
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0].startswith("n,h,lambda_star")
        assert (tmp_path / "plotdata" / "quotients.csv").exists()

    def test_roundtrip_certificate_reverifies(self, tmp_path):
        config = fast_config(out_dir=str(tmp_path))
        harness.run(config)
        spec, mesh, cert = load_certificate(tmp_path / "certificate.json")
        audit = verify_certificate(spec, mesh, cert)
        assert audit.valid
        assert audit.max_stored_discrepancy <= 1e-14 * (1.0 + audit.jac_norm)

    def test_emitted_lambda_matches_inner_min_of_stored_field(self, tmp_path):
        from minimax_fold import rayleigh

        config = fast_config(out_dir=str(tmp_path))
        harness.run(config)
        spec, mesh, cert = load_certificate(tmp_path / "certificate.json")
        recomputed = rayleigh.inner_min(spec, mesh, cert.u_star).value
        assert abs(recomputed - cert.lambda_star) <= 1e-10 * (1.0 + abs(cert.lambda_star))

    def test_perturb_study_solves_base_once(self, tmp_path, monkeypatch):
        # one base multistart shared by both kappas; each perturbed solve
        # continues the base certificate instead of running its own multistart
        calls = count_calls(monkeypatch, perturbation, "maximize")
        config = fast_config(study="perturb", out_dir=str(tmp_path),
                             perturb_kappas=(0.1, 0.01))
        assert harness.run(config) == 0
        assert len(calls) == 1
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert len(lines) == 3
        assert [row["start"] for row in read_table(tmp_path / "table.csv")] \
            == ["continued", "continued"]

    def test_byte_identical_reruns(self, tmp_path):
        for study, sizes in (("solve", (16,)), ("solve", (64,)), ("refine", (8, 16, 32)),
                             ("perturb", (16,))):
            runs = [tmp_path / f"{study}{sizes[-1]}" / rerun for rerun in ("a", "b")]
            for out in runs:
                assert harness.run(fast_config(study=study, mesh_sizes=sizes,
                                               out_dir=str(out))) == 0
            for name in ("certificate.json", "table.csv"):
                assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), \
                    (study, name)

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # threaded OpenBLAS changes the last bits of a banded product on a
        # system this large, so the solver takes no BLAS product
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for threads in ("1", "2"):
            runs.append(tmp_path / threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src] + [p for p in
                                                           [os.environ.get("PYTHONPATH")] if p]))
            proc = subprocess.run(
                [sys.executable, "-m", "minimax_fold.cli", "solve", "--problem",
                 "cooperative_product", "--m", "3", "--n", "512", "--seed", "1",
                 "--out", str(runs[-1])], env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr[-2000:]
        for name in ("certificate.json", "table.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_start_column_names_the_path(self, tmp_path):
        for n, start in ((16, "multistart"), (64, "nested")):
            out = tmp_path / str(n)
            assert harness.run(fast_config(mesh_sizes=(n,), out_dir=str(out))) == 0
            assert [row["start"] for row in read_table(out / "table.csv")] == [start]
            assert json.loads((out / "certificate.json").read_text())["start"] == start
            assert load_certificate(out / "certificate.json")[2].start == start

    def test_certificate_without_start_loads_as_multistart(self, tmp_path):
        harness.run(fast_config(out_dir=str(tmp_path)))
        path = tmp_path / "certificate.json"
        data = json.loads(path.read_text())
        del data["start"]  # written before the field existed
        path.write_text(json.dumps(data))
        spec, mesh, cert = load_certificate(path)
        assert cert.start == "multistart"
        assert verify_certificate(spec, mesh, cert).valid

    def test_solve_at_n1024_is_certified(self, tmp_path):
        argv = ["solve", "--problem", "scalar_power", "--q", "0.5", "--gamma", "2",
                "--n", "1024", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        spec, mesh, cert = load_certificate(tmp_path / "certificate.json")
        assert cert.valid and cert.status == "polished" and cert.start == "nested"
        assert verify_certificate(spec, mesh, cert).valid

    def test_svg_emission(self, tmp_path):
        config = fast_config(out_dir=str(tmp_path), svg=True)
        harness.run(config)
        text = (tmp_path / "chart.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestCertificateRoundTrip:
    """A certificate reloads as the problem it certifies."""

    @pytest.mark.parametrize("name, params", [
        ("scalar_power", {"q": 0.5, "gamma": 2.0, "a": 2.0}),
        ("scalar_power", {"q": 0.5, "gamma": 2.0, "theta": 1.25}),
        ("cooperative_product", {"m": 2, "a": 2.0}),
        ("cooperative_product", {"m": 2, "b": [1.0, 1.5]}),
        ("cooperative_product", {"m": 2, "theta": 1.25}),
        ("linear_diagnostic", {"m": 1, "a": 2.0}),
        ("linear_diagnostic", {"m": 2, "a": [2.0, 2.0]}),
        ("perturbed_scalar", {"theta": 1.25}),
    ], ids=["scalar_power-a", "scalar_power-theta", "cooperative_product-a",
            "cooperative_product-b", "cooperative_product-theta", "linear_diagnostic-a",
            "linear_diagnostic-a-per-component", "perturbed_scalar-theta"])
    def test_reloads_as_the_same_problem(self, tmp_path, name, params):
        config = fast_config(problem_name=name, problem_params=params, mesh_sizes=(8,),
                             out_dir=str(tmp_path))
        assert harness.run(config) == 0
        spec, mesh, cert = load_certificate(tmp_path / "certificate.json")
        original = config.spec()
        assert (spec.params, spec.theta, spec.a_bounds) \
            == (original.params, original.theta, original.a_bounds)
        assert verify_certificate(spec, mesh, cert).valid

    def test_function_coefficient_is_refused_on_reload(self, tmp_path):
        cert = minimax_solver.maximize(scalar_power(a=lambda x: 1.0 + x), build_mesh(8),
                                       SolverOptions(n_starts=2))
        path = tmp_path / "certificate.json"
        harness.write_certificate(path, cert)
        assert json.loads(path.read_text())["problem"]["params"]["a"] == "callable"
        with pytest.raises(ConfigError, match=r"\(a\)"):
            load_certificate(path)


class TestRefinementStudy:
    def test_linear_diagnostic_rates(self):
        config = RunConfig(problem_name="linear_diagnostic", study="refine",
                           mesh_sizes=(8, 16, 32), solver=SolverOptions(n_starts=2))
        table = refinement_study(config)
        assert all(c.valid for c in table.certificates)
        for row in table.rows:
            assert abs(row.lambda_star - closed_form_eigenvalue(row.n)) \
                <= 1e-8 * row.lambda_star
        deltas = [r.delta_prev for r in table.rows if r.delta_prev]
        assert deltas[-1] < deltas[0]
        assert 1.6 <= table.fitted_order <= 2.4

    def test_needs_three_sizes(self):
        with pytest.raises(ConfigError, match="3 mesh sizes"):
            RunConfig(study="refine", mesh_sizes=(8, 16))

    @pytest.mark.parametrize("flags", [["--sizes", "8", "16"], ["--n", "64"]])
    def test_fewer_than_three_sizes_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert cli.main(["refine"] + flags + ["--out", str(out)]) == harness.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_scalar_power_cauchy_by_n128(self):
        config = fast_config(study="refine", mesh_sizes=(32, 64, 128))
        table = refinement_study(config)
        assert all(c.valid for c in table.certificates)
        deltas = [r.delta_prev for r in table.rows if r.delta_prev is not None]
        assert deltas[-1] < deltas[0]
        lam = table.rows[-1].lambda_star
        assert deltas[-1] <= 1e-3 * lam  # Cauchy at the finest pair, relative

    def test_lambda_window_flag(self):
        config = RunConfig(problem_name="linear_diagnostic", study="refine",
                           mesh_sizes=(4, 8, 16), solver=SolverOptions(n_starts=2),
                           lambda_window=(9.0, 11.0))
        table = refinement_study(config)
        assert all(r.in_window for r in table.rows)


def hand_built_table(sizes, zero_delta_at=None):
    """Refinement rows of lambda_h = 10 + 3 h^2 on uniform meshes of ``sizes``,
    optionally with one difference recorded as exactly zero."""
    rows, prev = [], None
    for i, n in enumerate(sizes):
        h = 1.0 / n
        lam = 10.0 + 3.0 * h * h
        delta = None if prev is None else (0.0 if i == zero_delta_at else abs(lam - prev))
        rows.append(harness.RefinementRow(n=n, h=h, lambda_star=lam, delta_prev=delta,
                                          u_diff_sup=None, sigma_min=0.0, in_window=None,
                                          start="multistart"))
        prev = lam
    return harness.RefinementTable(rows=tuple(rows), certificates=())


class TestFittedOrder:
    @pytest.mark.parametrize("sizes", [(8, 16, 32, 64), (8, 12, 18, 27)])
    def test_recovers_order_two(self, sizes):
        assert abs(hand_built_table(sizes).fitted_order - 2.0) <= 1e-12

    def test_doubling_sizes_keep_the_log2_ratio_bits(self):
        table = hand_built_table((8, 16, 32, 64))
        deltas = [r.delta_prev for r in table.rows[1:]]
        assert table.fitted_order == float(np.log2(deltas[-2] / deltas[-1]))

    def test_pairs_each_difference_with_its_own_rows(self):
        # the zero difference drops out; the two left are two ratios apart
        table = hand_built_table((16, 24, 36, 54, 81), zero_delta_at=3)
        assert abs(table.fitted_order - 2.0) <= 1e-12

    def test_needs_two_usable_differences(self):
        assert hand_built_table((8, 16, 32), zero_delta_at=2).fitted_order is None


class TestNestedRefinement:
    """One multistart on the coarsest mesh, then continuation at every finer size."""

    @pytest.mark.parametrize("name, params, sizes", [
        ("scalar_power", {"q": 0.5, "gamma": 2.0}, (8, 16, 32, 64)),
        ("cooperative_product", {"m": 3}, (16, 32, 64)),
    ])
    def test_chain_matches_independent_multistart(self, monkeypatch, name, params, sizes):
        calls = count_calls(monkeypatch, harness, "maximize")
        config = RunConfig(problem_name=name, problem_params=params, study="refine",
                           mesh_sizes=sizes)
        table = refinement_study(config)
        assert len(calls) == 1
        assert [r.start for r in table.rows] == ["multistart"] + ["continued"] * (len(sizes) - 1)
        spec = config.spec()
        for row, cert in zip(table.rows, table.certificates):
            mesh = config.mesh(row.n)
            assert cert.valid and cert.status == "polished"
            assert verify_certificate(spec, mesh, cert).valid
            full = minimax_solver.maximize(spec, mesh, options=config.solver)
            assert full.valid
            assert abs(cert.lambda_star - full.lambda_star) <= 1e-12 * full.lambda_star

    def test_failed_polish_falls_back_to_multistart(self, monkeypatch):
        real_polish = minimax_solver._fold_polish
        failed = []

        def fail_first_at_n16(spec, mesh, *args, **kwargs):
            results = real_polish(spec, mesh, *args, **kwargs)
            if mesh.n_elements == 16 and not failed:
                failed.append(results[0])
                results[0] = dataclasses.replace(results[0], reason="no_decrease")
            return results

        monkeypatch.setattr(minimax_solver, "_fold_polish", fail_first_at_n16)
        config = fast_config(study="refine", mesh_sizes=(8, 16, 32))
        table = refinement_study(config)
        assert len(failed) == 1
        assert [r.start for r in table.rows] == ["multistart", "fallback", "continued"]
        plain = minimax_solver.maximize(config.spec(), config.mesh(16), options=config.solver)
        # the certificate records its path; every other field is the plain multistart's
        assert json.dumps(table.certificates[1].to_dict()) \
            == json.dumps(dataclasses.replace(plain, start="fallback").to_dict())

    def test_linear_diagnostic_continues_at_every_finer_size(self, monkeypatch):
        calls = count_calls(monkeypatch, harness, "maximize")
        config = RunConfig(problem_name="linear_diagnostic", study="refine",
                           mesh_sizes=(8, 16, 32), solver=SolverOptions(n_starts=2))
        table = refinement_study(config)
        assert len(calls) == 1
        assert [r.start for r in table.rows] == ["multistart", "continued", "continued"]
        # the linear multistart hands over to the polish like any other
        assert [c.status for c in table.certificates] == ["polished"] * 3
        for row, cert in zip(table.rows, table.certificates):
            assert cert.valid
            assert verify_certificate(config.spec(), config.mesh(row.n), cert).valid

    def test_start_column_in_table(self, tmp_path):
        config = fast_config(study="refine", mesh_sizes=(8, 16, 32), out_dir=str(tmp_path))
        assert harness.run(config) == 0
        assert [row["start"] for row in read_table(tmp_path / "table.csv")] \
            == ["multistart", "continued", "continued"]


class TestConditionU:
    def test_unit_source_probe_decays(self):
        spec = scalar_power(0.5, 2.0)
        report = condition_u_check(spec, (8, 16, 32))
        assert report.slope("unit_source_profile") >= 1.3
        rows = sorted((r for r in report.rows), key=lambda r: r.n)
        assert rows[-1].r_sup_diff <= rows[0].r_sup_diff * 1.1

    def test_piecewise_linear_probe_reproduced(self):
        from minimax_fold import mesh_fem

        spec = scalar_power(0.5, 2.0)
        coarse = build_mesh(8)
        coeffs = np.sin(np.pi * coarse.interior_nodes)

        def probe(x):
            return mesh_fem.interpolant_values(coarse, coeffs, x)

        report = condition_u_check(spec, (16, 32), probes=[("pl_probe", probe, None)])
        for row in report.rows:
            # refinements containing the coarse nodes reproduce the function
            assert row.rel_interp_error <= 1e-12


class TestOracleStudy:
    def test_linear_diagnostic_reports_no_fold(self, tmp_path):
        config = RunConfig(problem_name="linear_diagnostic", study="oracle",
                           mesh_sizes=(8,), solver=SolverOptions(n_starts=2),
                           out_dir=str(tmp_path))
        assert harness.run(config) == 0
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert "true" in table[1]  # expected_divergence flag

    def test_comparison_object(self):
        comparison, sweep = oracle_compare(model.linear_diagnostic(), build_mesh(8),
                                           options=SolverOptions(n_starts=2))
        assert comparison.expected_divergence
        assert comparison.lambda_fold is None
        assert sweep.status == comparison.fold_status

    def test_invalid_minimax_certificate_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", 1)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"solver": {"n_starts": 1}}))
        out = tmp_path / "out"
        code = cli.main(["oracle", "--config", str(cfg), "--n", "16", "--out", str(out)])
        assert code == harness.EXIT_SOLVER
        assert len((out / "table.csv").read_text().splitlines()) == 2

    def test_oracle_study_sweeps_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, harness, "continuation_sweep")
        assert harness.run(fast_config(study="oracle", out_dir=str(tmp_path))) == 0
        assert len(calls) == 1
        assert len((tmp_path / "plotdata" / "branch.csv").read_text().splitlines()) > 1

    def test_oracle_branch_keeps_enough_points_to_plot(self, tmp_path):
        assert cli.main(["oracle", "--n", "64", "--out", str(tmp_path)]) == 0
        assert len(read_table(tmp_path / "plotdata" / "branch.csv")) >= 10


class TestTimingsOnEveryExit:
    def test_invalid_certificate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", 1)
        config = fast_config(out_dir=str(tmp_path), solver=SolverOptions(n_starts=1))
        assert harness.run(config) == harness.EXIT_SOLVER
        assert not json.loads((tmp_path / "certificate.json").read_text())["valid"]
        assert (tmp_path / "timings.csv").read_text().startswith("stage,seconds\ntotal,")

    def test_caught_solver_exception(self, tmp_path, monkeypatch):
        def broken_maximize(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness, "maximize", broken_maximize)
        assert harness.run(fast_config(out_dir=str(tmp_path))) == harness.EXIT_SOLVER
        assert (tmp_path / "failure.txt").read_text() == "RuntimeError: injected\n"
        assert (tmp_path / "timings.csv").read_text().startswith("stage,seconds\ntotal,")

    def test_strict_hypothesis_failure(self, tmp_path, monkeypatch):
        def bad_problem():
            return dataclasses.replace(scalar_power(0.5, 2.0),
                                       f=lambda x, t: -np.power(t, 2.0),
                                       name="bad_test_problem")

        monkeypatch.setitem(model.CATALOG, "bad_test_problem", bad_problem)
        config = fast_config(problem_name="bad_test_problem", problem_params={},
                             strict=True, out_dir=str(tmp_path))
        assert harness.run(config) == harness.EXIT_HYPOTHESES
        assert (tmp_path / "timings.csv").read_text().startswith("stage,seconds\ntotal,")


class TestCLI:
    @pytest.mark.parametrize("args", [
        "solve --n 16",
        "refine --sizes 8 16 32",
        "perturb --gamma1 3 --kappa 0.1 --n 16",
        "check --problem scalar_power",
        "check --problem linear_diagnostic",
        "oracle --problem scalar_power --n 16",
    ])
    def test_every_table_has_the_fields_of_its_header(self, tmp_path, args):
        # check descriptions hold commas, which an unquoted field would split
        out = tmp_path / "out"
        assert cli.main(args.split() + ["--out", str(out)]) == 0
        tables = sorted(out.rglob("*.csv"))
        assert {out / "table.csv", out / "timings.csv"} <= set(tables)
        for path in tables:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), path
        if args.startswith("check"):
            assert {row["passed"] for row in read_table(out / "table.csv")} == {"true"}

    @pytest.mark.parametrize("problem", ["cooperative_product", "linear_diagnostic"])
    def test_zero_component_count_is_named(self, tmp_path, capsys, problem):
        out = tmp_path / "out"
        assert cli.main(["solve", "--problem", problem, "--m", "0", "--n", "8",
                         "--out", str(out)]) == 2
        assert ("configuration error: component count m must be >= 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_subcommand(self, tmp_path):
        code = cli.main(["solve", "--problem", "scalar_power", "--q", "0.5",
                         "--gamma", "2", "--n", "12", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "certificate.json").exists()

    def test_check_subcommand(self, tmp_path):
        code = cli.main(["check", "--problem", "cooperative_product",
                         "--out", str(tmp_path)])
        assert code == 0
        table = (tmp_path / "table.csv").read_text()
        assert "h5" in table

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["not-json", "not-object"])
    def test_malformed_config_exits_2_without_artifacts(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"problem": "cooperative_product"}, "problem must be an object"),
        ({"problem": {"name": "scalar_power", "params": 5}}, "problem must be an object"),
        ({"lambda_window": [1]}, "lambda_window"),
        ({"lambda_window": [1, 2, 3]}, "lambda_window"),
        ({"lambda_window": [30, 1]}, "lambda_window"),
        ({"lambda_window": [1, float("inf")]}, "lambda_window"),
        ({"lambda_window": [False, True]}, "lambda_window"),
        ({"mesh_sizes": [8.7, 16, 32]}, "integers"),
        ({"mesh_sizes": [16.0]}, "integers"),
    ], ids=["problem-string", "params-number", "window-one", "window-three", "window-reversed",
            "window-inf", "window-bool", "sizes-float", "sizes-integral-float"])
    def test_malformed_config_value_exits_2_without_artifacts(self, tmp_path, capsys, config,
                                                               message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(config)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("problem", [
        "cooperative_product",
        {"name": "cooperative_product", "params": [2]},
    ], ids=["problem-string", "params-list"])
    def test_malformed_problem_with_a_parameter_flag_is_named(self, tmp_path, capsys, problem):
        # the flag is merged only into an object, so the file's fault is named
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": problem}))
        out = tmp_path / "out"
        argv = ["solve", "--config", str(cfg), "--q", "0.4", "--n", "8", "--out", str(out)]
        assert cli.main(argv) == 2
        assert ("configuration error: problem must be an object with name and params"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("args, library_call", [
        ("solve --q 1.5", lambda: model.scalar_power(q=1.5)),
        ("solve --gamma 0.5", lambda: model.scalar_power(gamma=0.5)),
        ("solve --problem cooperative_product --m 0", lambda: model.cooperative_product(m=0)),
        ("check --problem cooperative_product --q 2", lambda: model.cooperative_product(q=2.0)),
        ("perturb --gamma1 0.5", lambda: model.perturbed_scalar(gamma1=0.5)),
        ("perturb --kappa nan", lambda: model.perturbed_scalar(kappa=float("nan"))),
        ("perturb --kappa -0.01 --n 64",
         lambda: perturbation.two_sided_example(0.5, 2.0, 3.0, (-0.01,), build_mesh(64))),
        ("perturb --kappa -0.1 --n 16",
         lambda: perturbation.two_sided_example(0.5, 2.0, 3.0, (-0.1,), build_mesh(16))),
    ], ids=lambda v: v if isinstance(v, str) else "library")
    def test_bad_problem_parameters_exit_2_without_artifacts(self, args, library_call,
                                                              tmp_path, capsys):
        # the message is the catalog's own, from the same parameters
        with pytest.raises(ValueError) as rejected:
            library_call()
        out = tmp_path / "out"
        assert cli.main(args.split() + ["--out", str(out)]) == 2
        assert f"configuration error: {rejected.value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_problem_exits_2(self, tmp_path):
        code = cli.main(["solve", "--problem", "mystery", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"name": "scalar_power", "params": {"q": 0.5, "gamma": 2.0}},
            "study": "solve", "mesh_sizes": [8], "solver": {"n_starts": 2},
        }))
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", str(cfg), "--n", "12",
                         "--out", str(out)])
        assert code == 0
        data = json.loads((out / "certificate.json").read_text())
        assert data["mesh"]["n_elements"] == 12

    @pytest.mark.parametrize("keys, problem", [
        ({"study": "refine", "mesh_sizes": [64]}, "scalar_power"),
        ({"study": "perturb", "problem": {"name": "cooperative_product", "params": {"m": 2}}},
         "cooperative_product"),
    ], ids=["refine-sizes", "perturb-problem"])
    def test_flags_override_the_file_before_it_is_validated(self, tmp_path, keys, problem):
        # the file alone is an invalid configuration; the flags make it a valid solve
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**keys, "solver": FAST_SOLVER}))
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", str(cfg), "--n", "16", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "certificate.json").read_text())
        assert data["mesh"]["n_elements"] == 16 and data["problem"]["name"] == problem

    def test_file_keys_no_flag_names_still_apply(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem_name": "cooperative_product", "problem": {"params": {"q": 0.25}},
            "mesh_sizes": [8, 16], "solver": {"n_starts": 2, "seed": 4}, "svg": True,
            "perturb_gamma1": 2.5}))
        parser = cli.build_parser()
        config = cli.config_from_args(parser.parse_args(
            ["solve", "--config", str(cfg), "--m", "3", "--out", str(tmp_path / "out")]))
        assert (config.problem_name, config.problem_params) \
            == ("cooperative_product", {"q": 0.25, "m": 3})
        assert config.mesh_sizes == (8, 16) and config.svg and config.perturb_gamma1 == 2.5
        assert (config.solver.n_starts, config.solver.seed) == (2, 4)
        assert config.out_dir == str(tmp_path / "out")

    def test_perturb_with_empty_kappas_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"perturb_kappas": [], "solver": FAST_SOLVER}))
        out = tmp_path / "out"
        code = cli.main(["perturb", "--config", str(cfg), "--n", "8", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_perturb_with_other_parameters_exits_2(self, tmp_path, capsys):
        # the base problem would otherwise be solved with a = 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"name": "scalar_power", "params": {"q": 0.5, "gamma": 2.0, "a": 2.0}},
            "perturb_kappas": [0.01], "solver": FAST_SOLVER}))
        out = tmp_path / "out"
        code = cli.main(["perturb", "--config", str(cfg), "--n", "16", "--out", str(out)])
        assert code == 2
        assert "not a" in capsys.readouterr().err
        assert not out.exists()

    def test_perturb_of_other_problem_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["perturb", "--problem", "cooperative_product", "--m", "2",
                         "--n", "8", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags,config,named", [
        (["--seed", "-1"], None, "solver option seed must"),
        ([], {"seed": 2.5}, "solver option seed must"),
        ([], {"solver": {"seed": True}}, "solver option seed must"),
        ([], {"solver": {"n_starts": "8"}}, "solver option n_starts must"),
        ([], {"solver": {"n_starts": 0}}, "solver option n_starts must"),
        # keys that are no solver options any more are refused by name
        ([], {"solver": {"max_iters": 2.5}}, "unknown solver options: ['max_iters']"),
        ([], {"solver": {"trust_radius_init": -0.25}},
         "unknown solver options: ['trust_radius_init']"),
        ([], {"solver": {"tol_cert": float("nan")}}, "unknown solver options: ['tol_cert']"),
        ([], {"solver": {"growth_threshold": float("inf")}},
         "unknown solver options: ['growth_threshold']"),
        ([], {"solver": {"collapse_threshold": 1e-8}},
         "unknown solver options: ['collapse_threshold']"),
        ([], {"solver": {"multistart_rel_tol": 0.0}},
         "unknown solver options: ['multistart_rel_tol']"),
        ([], {"solver": {"polish": 1}}, "unknown solver options: ['polish']"),
        ([], {"solver": {"tol_kkt": 1e-9}}, "unknown solver options: ['tol_kkt']"),
    ], ids=["seed-flag-negative", "seed-key-float", "seed-bool", "n_starts-string",
            "n_starts-zero", "max_iters-float", "trust_radius-negative", "tol_cert-nan",
            "growth-inf", "collapse-default", "rel_tol-zero", "polish-int", "tol_kkt"])
    def test_bad_solver_option_exits_2(self, tmp_path, capsys, flags, config, named):
        out = tmp_path / "out"
        argv = ["solve", "--n", "16", "--out", str(out)] + flags
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not out.exists()

    def test_loosened_certificate_bar_is_refused(self, tmp_path, capsys):
        # with an SLP-only path and a settable bar, this run certified a
        # point whose adjoint residual (1.6e-6) the audit rejects
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"solver": {"polish": False, "tol_kkt": 1e-6,
                                              "tol_cert": 1e-3}}))
        out = tmp_path / "out"
        assert cli.main(["solve", "--n", "16", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown solver options: ['polish', 'tol_cert', 'tol_kkt']" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_solver_seed_is_kept(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"solver": {"seed": 5}}))
        parser = cli.build_parser()
        config = cli.config_from_args(parser.parse_args(["solve", "--config", str(cfg)]))
        assert config.solver.seed == 5
        config = cli.config_from_args(parser.parse_args(
            ["solve", "--config", str(cfg), "--seed", "3"]))
        assert config.solver.seed == 3

    @pytest.mark.parametrize("args, code", [
        (["check", "--config", "{cfg}", "--strict"], 4),
        (["solve", "--config", "{cfg}", "--strict"], 4),
        (["check", "--config", "{cfg}"], 0),
        (["check", "--problem", "cooperative_product", "--strict"], 0),
    ], ids=["check-strict-fails", "solve-strict-fails", "check-fails", "check-strict-passes"])
    def test_one_hypothesis_check_and_one_table(self, tmp_path, monkeypatch, args, code):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"problem": {"name": "perturbed_scalar", "params": {"kappa": -1.0}}}))
        calls = count_calls(monkeypatch, model, "check_hypotheses")
        out = tmp_path / "out"
        argv = [str(cfg) if a == "{cfg}" else a for a in args] + ["--n", "8", "--out", str(out)]
        assert cli.main(argv) == code
        assert len(calls) == 1
        table = (out / "table.csv").read_text().splitlines()
        assert table[0] == "hypothesis,description,passed,margin,worst_x"
        assert [row.split(",")[0] for row in table[1:]] == ["h1", "h2", "h3", "h4", "h5"]

    def test_strict_linear_diagnostic_checks_and_solves(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, model, "check_hypotheses")
        out = tmp_path / "out"
        assert cli.main(["solve", "--problem", "linear_diagnostic", "--strict", "--n", "32",
                         "--out", str(out)]) == 0
        assert len(calls) == 1
        # the passed check writes no table: table.csv is the solve table
        row, = read_table(out / "table.csv")
        assert row["valid"] == "true" and row["status"] == "polished"

    def test_reducible_linear_system_fails_fast(self, tmp_path, monkeypatch):
        # f = 0 with unequal a: the components decouple, the smaller eigenvalue
        # belongs to the second alone, and no positive eigenvector exists
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"problem": {"name": "linear_diagnostic", "params": {"m": 2, "a": [1.0, 2.0]}}}))
        lps = count_calls(monkeypatch, minimax_solver.WarmLP, "solve")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--n", "256",
                         "--out", str(out)]) == harness.EXIT_SOLVER
        cert = json.loads((out / "certificate.json").read_text())
        assert not cert["valid"] and cert["status"] == "polish_failed"
        assert len(lps) <= 200

    def test_strict_hypothesis_failure_exits_4(self, tmp_path, monkeypatch):
        def bad_problem():
            import dataclasses

            spec = scalar_power(0.5, 2.0)
            return dataclasses.replace(spec, f=lambda x, t: -np.power(t, 2.0),
                                       name="bad_test_problem")

        monkeypatch.setitem(model.CATALOG, "bad_test_problem", bad_problem)
        code = cli.main(["check", "--problem", "bad_test_problem", "--strict",
                         "--out", str(tmp_path)])
        assert code == 4
