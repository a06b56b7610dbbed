"""Fold-solver benchmark: times one workload end to end, or per layer when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 40 --trace 0

``--trace 0`` runs ``max(2, seconds // nominal pass time)`` passes over the
workload's fixed op list and reports the end-to-end metrics.  ``--trace 1``
runs one untraced pass and one traced pass and reports the per-layer
metrics.  Every op's output is checked outside the
timed region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
with the environment, per-op results and failure reasons, is written to
``perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("solve-cold", "branch-oracle", "study-chain")
EXTRA_SETUPS = 2
SETUP_TIMEOUT_S = 120

# ``MF_THREADS`` caps the perturb study's thread pool; the benchmark always
# measures the library default.
MF_THREADS_GIVEN = os.environ.pop("MF_THREADS", None)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeat set-ups)")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Imports, spec/mesh construction and one untimed warm-up op."""
    if not (SRC / "minimax_fold" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'minimax_fold'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    import minimax_fold

    if Path(minimax_fold.__file__).resolve().parent != SRC / "minimax_fold":
        raise SystemExit(f"error: minimax_fold imported from {minimax_fold.__file__}, not {SRC}")
    ref = workloads.load_reference()
    ops = workloads.WORKLOADS[workload](seed)
    work = HERE / "_work" / str(os.getpid())
    workloads.WARMUP[workload](seed).run(work / "warmup", ref)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    return workloads, ref, ops, work


def repeat_setups(args) -> list:
    """Set-up times of fresh processes, each waited for before the next starts."""
    times = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_pass(ops, ref, work, tracer, first):
    """One pass over the op list; returns per-op (seconds, digest, reasons)."""
    records = []
    for i, op in enumerate(ops):
        out = work / f"op{i}"
        out.mkdir(parents=True, exist_ok=True)
        traced = tracer is not None and tracer.enabled
        with tracer.op_span(i, op.name) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result, error = op.run(out, ref), None
            except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
                traceback.print_exc()
                result, error = None, exc
            seconds = time.perf_counter() - t0
            if error is None:
                digest, reasons = op.check(out, result, ref)
            else:
                digest = ("exception", type(error).__name__)
                reasons = [f"exception_{type(error).__name__}"]
        if first is not None and digest != first[i][1]:
            reasons = reasons + ["nondeterministic"]
        shutil.rmtree(out, ignore_errors=True)
        records.append((seconds, digest, reasons))
    return records


def tail(samples):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref_file = ROOT / ".git" / text[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
        return "unknown"
    return text


def blas_threads():
    """Thread count of the OpenBLAS that numpy.linalg calls, or None if unknown."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "MF_THREADS": "unset" if MF_THREADS_GIVEN is None
        else f"unset (was {MF_THREADS_GIVEN!r}, removed)",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, ref, ops, work = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    n_passes = 2 if args.trace else max(
        2, int(args.seconds // workloads.NOMINAL_PASS_S[args.workload]))
    passes = []
    try:
        for k in range(n_passes):
            if tracer is not None:
                tracer.enabled = k == 1
            passes.append(run_pass(ops, ref, work, tracer, passes[0] if passes else None))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = passes[:1] if args.trace else passes
    pass_times = [sum(r[0] for r in p) for p in timed]
    latencies = [r[0] for p in timed for r in p]
    executions = [r for p in passes for r in p]
    failed = sum(1 for r in executions if r[2])
    reason_counts = Counter(reason for r in executions for reason in set(r[2]))
    correct = not any(reason in workloads.WRONG_RESULT for reason in reason_counts)
    tail_s, tail_pct, tail_beyond = tail(latencies)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "pass_s_all": pass_times,
        "failed_share": {"value": failed / len(executions), "unit": "ratio",
                         "failed": failed, "attempted": len(executions),
                         "reasons": dict(sorted(reason_counts.items()))},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                      "samples": len(latencies), "samples_beyond": tail_beyond},
        "ops": [{"op": op.name, "seconds": [p[i][0] for p in passes],
                 "reasons": sorted(set().union(*(p[i][2] for p in passes)))}
                for i, op in enumerate(ops)],
    }
    if tracer is None:
        setup_all = [setup_s] + repeat_setups(args)
        report["setup_s_all"] = setup_all
        metrics = {
            "setup_s": {"value": statistics.median(setup_all), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced_pass_s = sum(r[0] for r in passes[1])
        metrics, bases = tracer.layer_metrics(len(ops), traced_pass_s, pass_times[0])
        report["ratio_bases"] = bases
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)
    report["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl.gz")

    print_report(report)
    print(json.dumps({"correct": correct, "attempted": len(executions), "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  trace {report['trace']}  passes {report['passes']}")
    for key, value in report["environment"].items():
        print(f"  env {key}: {value}")
    for op in report["ops"]:
        secs = " ".join(f"{s:.3f}" for s in op["seconds"])
        print(f"  op {op['op']}: {secs} s  {','.join(op['reasons']) or 'ok'}")
    fs = report["failed_share"]
    print(f"  failed_share: {fs['value']:.4f} ratio ({fs['failed']}/{fs['attempted']}) "
          f"reasons {fs['reasons']}")
    print(f"  op_p50_s: {report['op_p50_s']['value']:.6g} s")
    tail_s = report["op_tail_s"]
    print(f"  op_tail_s: {tail_s['value']:.6g} s at p{tail_s['percentile']:.1f} of "
          f"{tail_s['samples']} samples, {tail_s['samples_beyond']} beyond")
    for name, bases in report.get("ratio_bases", {}).items():
        print(f"  {name} = {report['metrics'].get(name, {}).get('value')} from {bases}")
    for label, note in report.get("absent", {}).items():
        print(f"  absent {label}: {note}")
    for name, metric in report["metrics"].items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
