#!/usr/bin/env python3
"""Benchmark of the aseries pipeline: three workloads, answers checked.

    python3 bench/run.py --workload hunt15 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload hunt15 --seed 0 --seconds 30 --trace 1

Each workload runs as one client in a closed loop: one process starts
the next run when the previous one ends, for --seconds seconds (a run
that would end past that is not started; the first always runs).  Every
run's answer is checked against the frozen answers in reference.json.

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb; fail_frac is failed / attempted).  --trace 1 is a separate
run: it alternates untraced and traced runs, reports the per-layer
metrics of the traced ones, checks that both give bit-identical answers,
reports the tracing overhead, and then times the layers alone across
grid sizes.  The last line of standard output is one JSON object; a
full report is written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

#: Set-ups per untraced run; setup_s is the median imports plus the
#: median set-up.
SETUP_REPEATS = 3
#: The tests' ROBUST_CONFIG hunt settings, shared by the hunt workloads.
ROBUST = dict(lam0=(0.0, 0.15, 2.0), lam2_direction=1, lam3_direction=-1,
              stage3_window=(3.0, 0.25, 2.5))
LADDER = (10, 15, 20, 25, 30)

#: Per-layer metrics printed on the last line of a traced run.  Times are
#: limited to layers that every workload calls; the full report holds
#: every layer metric, including times that are zero on some workloads.
PER_LAYER = (
    "poisson.derivative.calls", "poisson.derivative.self_s",
    "poisson.lambda_derivative.calls", "poisson.lambda_derivative.self_s",
    "bell.bell_monomials.calls", "bell.bell_value.self_s",
    "augmented.assemble.L0.calls", "augmented.assemble.L1.calls",
    "augmented.assemble.L2.calls", "augmented.assemble.L3.calls",
    "augmented.jac_nnz.L3", "augmented.solve_v.calls",
    "augmented.signature.calls", "augmented.signature.dense_fallbacks",
    "augmented.factor.calls", "continuation.newton.calls",
    "continuation.newton.iters", "continuation.newton.failed",
    "continuation.factor.calls", "continuation.factor.self_s",
    "continuation.factor.fill_nnz", "continuation.rank_check.calls",
    "continuation.rank_check.dense_mb", "continuation.tangent.calls",
    "continuation.step.calls", "continuation.step.failed",
    "continuation.refine.trials", "continuation.refine.approximate",
    "harness.locate.calls", "harness.locate.iters",
    "layer.poisson.self_s", "layer.augmented.self_s",
    "layer.continuation.self_s", "trace.overhead_s",
    "scaling.assemble_L1.slope", "scaling.assemble_L3.slope",
    "scaling.jac_nnz_L3.slope", "scaling.factor_L3.slope",
    "scaling.rank_check.slope",
)


#: The imports of import_package, timed in a fresh interpreter.
IMPORTS = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
import numpy, scipy, aseries
from aseries import augmented, cli, harness, poisson
print(time.perf_counter() - t0)
"""


class SetupError(RuntimeError):
    """A workload's set-up did not produce its inputs."""


# ------------------------------------------------------------ package

def import_package() -> tuple[dict, float]:
    """Import numpy, scipy and aseries from this checkout's src/."""
    if not (SRC / "aseries" / "__init__.py").is_file():
        sys.exit(f"error: no aseries package under {SRC}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy
    import scipy
    import aseries
    from aseries import augmented, cli, harness, poisson  # as in IMPORTS
    seconds = time.perf_counter() - t0
    if Path(aseries.__file__).resolve().parent != SRC / "aseries":
        sys.exit(f"error: imported aseries from {aseries.__file__}, "
                 f"not from {SRC}")
    return {"numpy": numpy, "scipy": scipy, "augmented": augmented,
            "cli": cli, "harness": harness, "poisson": poisson}, seconds


def fresh_import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def _close(actual, expected, tol) -> bool:
    return len(actual) == len(expected) and all(
        abs(a - e) <= tol for a, e in zip(actual, expected))


def _state_digest(state) -> str:
    digest = hashlib.sha256()
    for part in (state.u, state.alpha, state.vbar, state.lam):
        if part is not None:
            digest.update(part.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------- workloads

class Hunt15:
    """harness.hunt_swallowtail on Grid(15, 15) with ROBUST_CONFIG."""

    name = "hunt15"

    def setup(self, pkg, seed):
        poisson, harness = pkg["poisson"], pkg["harness"]
        nl = poisson.ExpSineNonlinearity()
        # the hunt builds its own Problem; this times that construction
        pkg["augmented"].Problem(poisson.Grid(15, 15), nl)
        return {"pkg": pkg, "nl": nl, "grid": poisson.Grid(15, 15),
                "config": harness.HuntConfig(seed=seed, **ROBUST)}

    def run(self, ctx):
        report = ctx["pkg"]["harness"].hunt_swallowtail(
            ctx["nl"], ctx["grid"], ctx["config"])
        sw = report.swallowtail
        return {"stage": report.stage_reached,
                "lam": [float(v) for v in sw.lam] if sw else None,
                "newton_iters": sw.newton_iters if sw else None,
                "approximate": [bool(e["approximate"]) for e in report.events],
                "timings": dict(report.timings),
                "state_sha256": _state_digest(sw.state) if sw else None}

    @staticmethod
    def fingerprint(answer):
        return json.dumps({k: answer[k] for k in
                           ("stage", "lam", "newton_iters", "approximate",
                            "state_sha256")})

    @staticmethod
    def check(answer, ref, tol):
        problems = []
        if answer["stage"] != ref["stage"]:
            problems.append(f"stage {answer['stage']!r} != {ref['stage']!r}")
        elif not _close(answer["lam"], ref["lam"], tol):
            problems.append(f"swallowtail lam {answer['lam']} != {ref['lam']}")
        if any(answer["approximate"]):
            problems.append("an approximate event on the chain")
        return problems

    @staticmethod
    def perturbations(ref, tol):
        out = [("stage", dict(ref, stage="cusp"))]
        for i in range(3):
            lam = list(ref["lam"])
            lam[i] += 10 * tol
            out.append((f"lam[{i}]", dict(ref, lam=lam)))
        return out


class Ladder:
    """harness.convergence_study over N = 10..30 from the 10 x 10 hunt."""

    name = "ladder10-30"

    def setup(self, pkg, seed):
        poisson, harness = pkg["poisson"], pkg["harness"]
        nl = poisson.ExpSineNonlinearity()
        report = harness.hunt_swallowtail(
            nl, poisson.Grid(LADDER[0], LADDER[0]),
            harness.HuntConfig(seed=seed, **ROBUST))
        if report.swallowtail is None:
            raise SetupError(f"seed hunt stopped at {report.stage_reached}: "
                             f"{report.note}")
        return {"pkg": pkg, "nl": nl, "seed_state": report.swallowtail.state}

    def run(self, ctx):
        table = ctx["pkg"]["harness"].convergence_study(
            ctx["nl"], LADDER, ctx["seed_state"])
        return {"rows": [[row.n] + [float(v) for v in row.lam]
                         for row in table.rows],
                "distances": [float(row.distance) for row in table.rows],
                "newton_iters": [row.newton_iters for row in table.rows],
                "note": table.note,
                "state_sha256": _state_digest(table.states[-1])}

    @staticmethod
    def fingerprint(answer):
        return json.dumps(answer)

    @staticmethod
    def check(answer, ref, tol):
        rows = {row[0]: row[1:] for row in answer["rows"]}
        problems = []
        if [row[0] for row in answer["rows"]] != ref["sizes"]:
            problems.append(f"rows {sorted(rows)} != {ref['sizes']} "
                            f"({answer['note']})")
            return problems
        dist = answer["distances"]
        if not all(a > b for a, b in zip(dist, dist[1:])):
            problems.append(f"distances not strictly decreasing: {dist}")
        for n, key in ((15, "lam15"), (30, "lam30")):
            if not _close(rows[n], ref[key], tol):
                problems.append(f"N = {n} lam {rows[n]} != {ref[key]}")
        step = dist[-2]
        if not step < ref["final_step_max"]:
            problems.append(f"final step {step:.3e} >= {ref['final_step_max']}")
        return problems

    @staticmethod
    def perturbations(ref, tol):
        out = []
        for key in ("lam15", "lam30"):
            for i in range(3):
                lam = list(ref[key])
                lam[i] += 10 * tol
                out.append((f"{key}[{i}]", dict(ref, **{key: lam})))
        out.append(("final_step_max", dict(ref, final_step_max=1e-4)))
        out.append(("sizes", dict(ref, sizes=ref["sizes"] + [35])))
        return out


class Continue30:
    """aseries continue on the 30 x 30 Bratu problem to its first fold."""

    name = "continue30"

    def setup(self, pkg, seed):
        poisson = pkg["poisson"]
        # the CLI builds its own Problem; this times that construction
        pkg["augmented"].Problem(poisson.Grid(30, 30),
                                 poisson.ExpSineNonlinearity())
        directory = OUT / "continue30"
        directory.mkdir(parents=True, exist_ok=True)
        csv, events = directory / "branch.csv", directory / "branch.events.json"
        argv = ["continue", "--problem", "bratu", "--grid", "30x30",
                "--level", "0", "--active", "l1", "--stop-at", "fold",
                "--seed", str(seed), "--out", str(csv),
                "--events", str(events)]
        return {"pkg": pkg, "argv": argv, "csv": csv, "events": events}

    def run(self, ctx):
        for path in (ctx["csv"], ctx["events"]):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ctx["pkg"]["cli"].main(ctx["argv"])
        answer = {"rc": rc, "stopped_on": None, "fold_lam1": None,
                  "points": None, "csv_sha256": None, "events_sha256": None,
                  "output_bytes": 0}
        if ctx["csv"].is_file() and ctx["events"].is_file():
            csv, events = ctx["csv"].read_bytes(), ctx["events"].read_bytes()
            doc = json.loads(events)
            folds = [e for e in doc["events"] if e["kind"] == "fold"]
            answer.update(
                stopped_on=doc["stopped_on"], points=doc["points"],
                fold_lam1=folds[0]["lam"][0] if folds else None,
                csv_sha256=hashlib.sha256(csv).hexdigest(),
                events_sha256=hashlib.sha256(events).hexdigest(),
                output_bytes=len(csv) + len(events))
        return answer

    @staticmethod
    def fingerprint(answer):
        return json.dumps(answer)

    @staticmethod
    def check(answer, ref, tol):
        problems = []
        if answer["rc"] != 0:
            problems.append(f"exit code {answer['rc']}")
        if answer["stopped_on"] != ref["stopped_on"]:
            problems.append(f"stopped on {answer['stopped_on']!r}")
        if answer["fold_lam1"] is None or \
                not abs(answer["fold_lam1"] - ref["fold_lam1"]) <= tol:
            problems.append(f"fold lam1 {answer['fold_lam1']} != "
                            f"{ref['fold_lam1']}")
        return problems

    @staticmethod
    def perturbations(ref, tol):
        return [("fold_lam1", dict(ref, fold_lam1=ref["fold_lam1"] + 10 * tol)),
                ("stopped_on", dict(ref, stopped_on="event:cusp"))]


WORKLOADS = {w.name: w for w in (Hunt15(), Ladder(), Continue30())}


# -------------------------------------------------------- measurement

def one_sample(workload, ctx, ref, tol, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        answer, error = workload.run(ctx), None
    except Exception as exc:  # a failed run is counted, and the loop goes on
        answer, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    problems = [error] if error else workload.check(answer, ref, tol)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "problems": problems, "answer": answer,
            "fingerprint": workload.fingerprint(answer) if answer else None}


def closed_loop(workload, ctx, ref, tol, seconds, tracer=None) -> list:
    """Rounds of one run (or an untraced plus a traced run) until time is up.

    A round is started only if it should end within `seconds`, judged by
    the median length of the rounds so far; the first round always runs.
    With a tracer, every other round runs the traced run first, so that
    drift over the loop does not load the overhead onto one side.
    """
    samples, rounds = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        order = (None,) if tracer is None else \
            (None, tracer) if len(rounds) % 2 == 0 else (tracer, None)
        for tr in order:
            if tr is not None:
                tr.run = len(samples)
            samples.append(one_sample(workload, ctx, ref, tol, tr))
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return samples


def mark_mismatches(samples) -> None:
    """Every run must give the bytes the first run gave (traced or not)."""
    first = samples[0]["fingerprint"]
    for index, sample in enumerate(samples[1:], start=1):
        if sample["fingerprint"] != first:
            sample["problems"].append(
                f"answer of run {index} differs from run 0 bit for bit")


def self_check(workload, samples, ref, tol) -> list:
    """Perturbed references that the check failed to catch (should be [])."""
    answer = next((s["answer"] for s in samples
                   if s["answer"] is not None and not s["problems"]), None)
    if answer is None:
        return ["no correct run to self-check against"]
    return [what for what, bad in workload.perturbations(ref, tol)
            if not workload.check(answer, bad, tol)]


def tail_percentile(values) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g} = {cut[int(p * 10) - 1]:.4f} s"
    return f"none (needs >= 20 runs, have {n})"


# ---------------------------------------------------------- run record

def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    threads = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_record(pkg, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = pkg["numpy"].show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": pkg["numpy"].__version__, "scipy": pkg["scipy"].__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def traced_metrics(samples, tracer) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced runs) and their status."""
    traced = [s for s in samples if s["traced"]]
    per_run = [tracing.layer_metrics(tracing.aggregate(tracer, run))
               for run, s in enumerate(samples) if s["traced"]]
    absent = tracer.absent_spans()
    metrics, status = {}, {}
    for name, (_, unit, span) in per_run[0].items():
        values = [m[name][0] for m in per_run if m[name][0] is not None]
        metrics[name] = {"value": statistics.median(values) if values else None,
                         "unit": unit}
        if span in absent:
            status[name] = "absent: " + "; ".join(
                r for r in tracer.absent.values() if f"(span {span})" in r)
        elif not values:
            status[name] = "undefined: no calls"
    bytes_out = [s["answer"].get("output_bytes", 0) for s in traced
                 if s["answer"]]
    metrics["cli.output_bytes"] = {
        "value": statistics.median(bytes_out) if bytes_out else 0,
        "unit": "bytes"}
    walls = {flag: [s["wall_s"] for s in samples if s["traced"] is flag]
             for flag in (False, True)}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls[True]) - statistics.median(walls[False]),
        "unit": "s"}
    return metrics, status


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg, import_s = import_package()
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    ref, tol = reference[workload.name], reference["tolerance"]
    OUT.mkdir(exist_ok=True)
    record = run_record(pkg, args)

    # set up several times; the imports are repeated in fresh interpreters
    repeats = 1 if args.trace else SETUP_REPEATS
    imports = [import_s] + [fresh_import_seconds() for _ in range(repeats - 1)]
    setups = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = workload.setup(pkg, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    tracer = tracing.Tracer() if args.trace else None
    samples = closed_loop(workload, ctx, ref, tol, args.seconds, tracer)
    mark_mismatches(samples)
    uncaught = self_check(workload, samples, ref, tol)
    failed = sum(bool(s["problems"]) for s in samples)
    correct = failed == 0 and not uncaught

    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {"record": record, "imports_s": imports, "setup_runs_s": setups,
              "samples": [{k: v for k, v in s.items() if k != "fingerprint"}
                          for s in samples],
              "self_check_uncaught": uncaught}
    untraced = [s for s in samples if not s["traced"]]
    walls = [s["wall_s"] for s in untraced]
    print(f"{workload.name}: seed {args.seed}, {len(untraced)} untraced "
          f"run(s) in a closed loop of one client; {record['blas']}, "
          f"threads {record['blas_threads']}, nproc {record['nproc']}")
    for s in samples:
        if s["problems"]:
            print(f"  FAILED run: {'; '.join(s['problems'])}")
    if uncaught:
        print(f"  self-check: perturbed reference not caught: {uncaught}")

    if args.trace:
        metrics, status = traced_metrics(samples, tracer)
        from scaling import scaling_table  # imports aseries from src/
        table = scaling_table()
        for layer, entry in table.items():
            metrics[f"scaling.{layer}.slope"] = {"value": entry["slope"],
                                                 "unit": "log/log"}
            if entry["slope"] is None:
                status[f"scaling.{layer}.slope"] = "undefined: < 2 sizes"
        report.update(layer_metrics=metrics, status=status, scaling=table,
                      absent=tracer.absent)
        tracer.write(stem.with_suffix(".spans.jsonl"))
        spans = sorted(((k[:-7], v["value"]) for k, v in metrics.items()
                        if k.endswith(".self_s") and not k.startswith("layer.")
                        and v["value"]), key=lambda kv: -kv[1])
        print("  largest self times: " + ", ".join(
            f"{name} {value:.3f} s" for name, value in spans[:4]))
        print(f"  tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s "
              f"on a median untraced wall of {statistics.median(walls):.4f} s")
        for name, value in sorted(metrics.items()):
            note = f"  [{status[name]}]" if name in status else ""
            print(f"  {name} = {value['value']} {value['unit']}{note}")
        for layer, entry in table.items():
            cells = [f"N={r['N']}: " + (f"{r['seconds']:.4g} s" if "seconds" in r
                     else f"{r['nnz']}" if "nnz" in r
                     else r.get("skipped") or r.get("error"))
                     for r in entry["rows"]]
            print(f"  scaling {layer}: " + "; ".join(cells))
        # the last line carries numbers only; the report keeps the status
        out = {name: {"value": metrics[name]["value"] or 0,
                      "unit": metrics[name]["unit"]} for name in PER_LAYER}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
               "cpu_s": {"value": statistics.median(
                   [s["cpu_s"] for s in untraced]), "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        print(f"  wall_s      median {out['wall_s']['value']:.4f} s over "
              f"{len(walls)} run(s); tail: {tail_percentile(walls)}")
        print(f"  cpu_s       median {out['cpu_s']['value']:.4f} s per run")
        print(f"  setup_s     {setup_s:.4f} s (median of {repeats} imports "
              f"{statistics.median(imports):.4f} s + median of {repeats} "
              f"set-ups {statistics.median(setups):.4f} s)")
        print(f"  peak_rss_mb {rss_mb:.1f} MB")
        print(f"  fail_frac   {failed}/{len(samples)} = "
              f"{failed / len(samples):g}")
        if workload.name == "continue30" and samples[0]["answer"]:
            csv_hash = samples[0]["answer"]["csv_sha256"]
            same = csv_hash == ref["csv_sha256"]
            print(f"  csv sha256 {csv_hash} "
                  f"({'same as' if same else 'differs from'} the reference "
                  f"commit); events sha256 "
                  f"{samples[0]['answer']['events_sha256']}")
        report["metrics"] = out
    report["correct"] = correct
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1,
                                                    default=str))
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
