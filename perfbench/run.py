"""saddleprec benchmark: time to a converged solution on the paper's wave grids.

    python3 perfbench/run.py --workload grid-l3 --seed 0 --seconds 30 --trace 0

Each workload runs in this one process, closed loop: one caller, and each
solve starts after the previous one ends. The BLAS/OpenMP thread variables are
set to --threads (default 1), and numpy's huge-page advice is turned off,
before numpy is imported. One untimed level-2 warm-up solve precedes timing;
then whole passes of the workload run until --seconds would be exceeded (at
least MIN_PASSES untraced). Every solve and
instrument call is checked; the last stdout line is the JSON result. With
--trace 1 the passes alternate untraced and traced, the metrics are the
per-layer ones, and one traced pass is repeated in a child process at one BLAS
thread per usable core (nproc) and reported beside. A detail record
(environment, per-pass figures, spans) is written to .bench_out/ in the
checkout.

The program is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy asks the kernel for transparent huge pages on large arrays by default;
# whether it gets them depends on the host's free memory, and it moved the
# level-3 grid's peak RSS between about 390 and 530 MB from run to run
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
# untraced passes a solve workload runs at least, so that every cell's
# iteration count is compared across passes; verify-l2 solves nothing
MIN_PASSES = {"grid-l3": 2, "solve-l4": 2, "verify-l2": 1}

TOL = 1e-8
GRID_ALPHAS = ("1", "1e-3", "1e-6", "1e-9")
BREZZI_ALPHAS = (1e-3, 1e-6)
KAPPA_ALPHA = 1e-6
# unknowns per (degree, level) of the wave system (acceptance criterion 1)
DOFS = {(2, 2): 3604, (2, 3): 28452, (3, 3): 32343, (2, 4): 226372}
# reference iterations of the cells acceptance criterion 2 pins (wave, p=2);
# a count must lie within +-50% and, for alpha < 1, at most ITER_CAP
PINNED = {(2, 2, 1e-3): 36, (2, 2, 1e-6): 51, (2, 2, 1e-9): 21,
          (2, 3, 1e-3): 38, (2, 3, 1e-6): 48, (2, 3, 1e-9): 33}
ITER_CAP = 80
# dense kappa of wave p=2 level 2 alpha=1e-6, full precision, and its tolerance
KAPPA_REF = 3.935855891093608
KAPPA_RTOL = 1e-6
EXTRA_TOL = 1e-8  # slack on the Brezzi bounds c_A <= 1, c_B <= sqrt(2)

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("bench", "cli", "assembly", "splines", "kron", "precond", "krylov", "verify")
LAYER_UNITS = {
    "splines.univariate_matrix_calls": "count", "splines.univariate_matrix_s": "s",
    "kron.materialize_calls": "count", "kron.materialize_s": "s",
    "kron.solve_calls": "count", "kron.solve_s": "s",
    "assembly.assemble_system_calls": "count", "assembly.assemble_system_s": "s",
    "assembly.A_nnz": "count",
    "precond.build_s": "s", "precond.P_y_nnz": "count",
    "precond.apply_inverse_calls": "count", "precond.apply_inverse_s": "s",
    "precond.sparse_direct_s": "s",
    "krylov.minres_s": "s", "krylov.A_apply_calls": "count", "krylov.A_apply_s": "s",
    "krylov.iterations": "count", "krylov.iterations_per_A_apply": "ratio",
    "krylov.recurrence_self_s": "s",
    "verify.measure_brezzi_s": "s", "verify.condition_number_estimate_s": "s",
    "cli.memory_estimate_gb": "GB", "cli.estimate_over_peak": "ratio",
    "trace.spans": "count", "trace.overhead_s": "s", "gc_unforced.peak_rss_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
# figures of the reference run at nproc BLAS threads, reported as nproc.<name>
NPROC_METRICS = ("wall_s", "setup_s", "solve_s", "kron.solve_s", "krylov.A_apply_s",
                 "precond.apply_inverse_s")
LAYER_UNITS.update({f"nproc.{k}": "s" for k in NPROC_METRICS})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-l3", "solve-l4", "verify-l2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads of the measured passes (default 1)")
    # one traced pass and its figures only: the nproc reference of a traced run
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        parser.error("--seed must be nonnegative, --seconds and --threads positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    os.environ[HUGEPAGE_VAR] = "0"
    if not (SRC / "saddleprec" / "__init__.py").is_file():
        print(f"error: saddleprec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import saddleprec  # after the thread variables: numpy reads them on import

    if Path(saddleprec.__file__).resolve().parent != SRC / "saddleprec":
        print(f"error: imported saddleprec from {saddleprec.__file__}",
              file=sys.stderr)
        return 2
    bench = Bench(args, nproc)
    result = bench.run()
    print(json.dumps(result))
    return 0


def summary(values):
    """Median and the highest percentile with ten samples beyond it, with n."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None,
           "p_hi": None, "p_hi_quantile": None}
    if n >= 11:
        out["p_hi"] = vals[n - 11]
        out["p_hi_quantile"] = (n - 10) / n
    return out


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Bench:
    """One benchmark process: warm-up, timed passes, checks and the result."""

    def __init__(self, args, nproc):
        import numpy as np
        import scipy

        from saddleprec import assembly, cli, precond, verify
        from probes import Probe

        self.assembly, self.cli, self.precond, self.verify = assembly, cli, precond, verify
        self.args, self.nproc = args, nproc
        self.env = {
            "nproc": nproc,
            "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
            HUGEPAGE_VAR: os.environ[HUGEPAGE_VAR],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas_numpy": blas_version(np),
            "openblas_scipy": blas_version(scipy),
            "git_commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        # the gated (untraced) runs collect garbage before each pass and solve;
        # traced runs leave the collector to the program
        self.probe = Probe(collect=not (args.trace or args.reference))
        self.first_iterations = {}

    # -- workload bodies: one pass each, returning (exit code, attempts) ----

    def _cli(self, argv):
        with self.probe.region("cli.main"), redirect_stdout(io.StringIO()):
            try:
                return self.cli.main(argv)
            except Exception:  # a crashing command fails its pass's solves
                traceback.print_exc()
                return 1

    def grid_l3(self):
        code = self._cli(["table", "--problem", "wave", "--degrees", "2", "3",
                          "--levels", "3", "--alphas", *GRID_ALPHAS,
                          "--tol", repr(TOL), "--seed", str(self.args.seed)])
        return code, 2 * len(GRID_ALPHAS)

    def solve_l4(self):
        code = self._cli(["run", "--problem", "wave", "--degree", "2",
                          "--level", "4", "--alpha", "1e-6", "--tol", repr(TOL),
                          "--seed", str(self.args.seed), "--max-memory-gb", "4"])
        return code, 1

    def verify_l2(self):
        # the Brezzi pair shares one system, as `verify --suite brezzi` does;
        # kappa needs the system of its own alpha and its preconditioner
        assembly, precond, verify = self.assembly, self.precond, self.verify
        spec = assembly.ProblemSpec("wave", 2, 2, BREZZI_ALPHAS[0], seed=self.args.seed)
        system = assembly.assemble_system(spec, assembly.build_spaces(spec))
        for alpha in BREZZI_ALPHAS:
            self._instrument("verify.measure_brezzi", alpha, verify.measure_brezzi,
                             system, alpha)
        spec = assembly.ProblemSpec("wave", 2, 2, KAPPA_ALPHA, seed=self.args.seed)
        spaces = assembly.build_spaces(spec)
        system = assembly.assemble_system(spec, spaces)
        precon = precond.build_preconditioner(spec, spaces, system.blocks)
        self._instrument("verify.condition_number_estimate", KAPPA_ALPHA,
                         verify.condition_number_estimate, system, precon)
        return 0, len(BREZZI_ALPHAS) + 1

    def _instrument(self, name, alpha, fn, *args):
        record = {"instrument": name, "alpha": alpha}
        self.probe.new_solve(record)
        t0 = time.perf_counter()
        try:
            record["report"] = self.probe.call(name, fn, *args).as_dict()
        except Exception as exc:  # a failing instrument is a failed attempt
            record["error"] = repr(exc)
        finally:
            record["seconds"] = time.perf_counter() - t0
            self.probe.end_solve()

    # -- checks --------------------------------------------------------------

    def failures(self, record):
        """Reasons one solve or instrument call fails the benchmark's checks."""
        if "error" in record:
            return [record["error"]]
        if "instrument" in record:
            rep = record["report"]
            if record["instrument"] == "verify.measure_brezzi":
                bad = []
                if not rep["c_a"] <= 1 + EXTRA_TOL:
                    bad.append(f"c_A={rep['c_a']!r} > 1")
                if not rep["c_b"] <= math.sqrt(2) + EXTRA_TOL:
                    bad.append(f"c_B={rep['c_b']!r} > sqrt(2)")
                return bad
            if not abs(rep["kappa"] - KAPPA_REF) <= KAPPA_RTOL * KAPPA_REF:
                return [f"kappa={rep['kappa']!r} differs from {KAPPA_REF!r}"]
            return []
        if "iterations" not in record:
            return ["solve raised or never reached MINRES"]
        key = (record["p"], record["level"], record["alpha"])
        bad = []
        if not record["converged"]:
            bad.append("MINRES did not converge")
        if not record["true_relres"] <= record["tol"]:
            bad.append(f"true relative residual {record['true_relres']:.3e} > tol")
        if record["dim"] != DOFS.get(key[:2]):
            bad.append(f"{record['dim']} unknowns, expected {DOFS.get(key[:2])}")
        its = record["iterations"]
        ref = PINNED.get(key)
        if ref is not None and not (0.5 * ref <= its <= 1.5 * ref
                                    and its <= ITER_CAP):
            bad.append(f"{its} iterations outside the band of reference {ref}")
        first = self.first_iterations.setdefault(key, its)
        if its != first:
            bad.append(f"{its} iterations, {first} in the first pass")
        return bad

    # -- passes --------------------------------------------------------------

    def one_pass(self, body, traced):
        probe = self.probe
        if probe.collect:
            gc.collect()
        probe.reset()
        if traced:
            probe.start_tracing()
        t0 = time.perf_counter()
        try:
            with probe.region("bench.pass"):
                code, expected = body()
        finally:
            wall = time.perf_counter() - t0 - probe.untimed_s
            probe.stop_tracing()
        records = probe.solves
        solve = sum(r.get("minres_s", r.get("seconds", 0.0)) for r in records)
        checked = [(r, self.failures(r)) for r in records]
        reasons = [f"{self._label(r)}: {why}" for r, whys in checked for why in whys]
        if code != 0:
            reasons.append(f"command exited with status {code}")
        if len(records) != expected:
            reasons.append(f"{len(records)} solves recorded, {expected} expected")
        failed = expected if code != 0 else min(
            expected, sum(1 for _, whys in checked if whys)
            + max(0, expected - len(records)))
        out = {
            "traced": traced, "wall_s": wall, "setup_s": wall - solve,
            "solve_s": solve, "attempted": expected, "failed": failed,
            "failures": reasons,
            "iterations": sum(r.get("iterations", 0) for r in records),
            "memory_estimate_gb": max(probe.estimates, default=None),
            "solves": records,
        }
        if traced:
            out["spans"] = probe.take_spans()
            out["layers"] = self.layer_metrics(out)
        return out

    @staticmethod
    def _label(record):
        name = record.get("instrument", f"p={record.get('p')} l={record.get('level')}")
        return f"{name} alpha={record['alpha']:g}"

    def layer_metrics(self, pas):
        from probes import layer_summary, nested_seconds

        spans = pas["spans"]
        calls, secs, self_s = layer_summary(spans)
        a_s = nested_seconds(spans, "krylov.A_apply", "krylov.minres")
        pinv_s = nested_seconds(spans, "precond.apply_inverse", "krylov.minres")
        kron_in_pinv = nested_seconds(spans, "kron.solve", "precond.apply_inverse")
        a_calls = calls.get("krylov.A_apply", 0)
        m = {
            "splines.univariate_matrix_calls": calls.get("splines.univariate_matrix", 0),
            "splines.univariate_matrix_s": secs.get("splines.univariate_matrix", 0.0),
            "kron.materialize_calls": calls.get("kron.materialize", 0),
            "kron.materialize_s": secs.get("kron.materialize", 0.0),
            "kron.solve_calls": calls.get("kron.solve", 0),
            "kron.solve_s": secs.get("kron.solve", 0.0),
            "assembly.assemble_system_calls": calls.get("assembly.assemble_system", 0),
            "assembly.assemble_system_s": secs.get("assembly.assemble_system", 0.0),
            "assembly.A_nnz": self.probe.counters.get("assembly.A_nnz", 0),
            "precond.build_s": secs.get("precond.build_preconditioner", 0.0),
            "precond.P_y_nnz": self.probe.counters.get("precond.P_y_nnz", 0),
            "precond.apply_inverse_calls": calls.get("precond.apply_inverse", 0),
            "precond.apply_inverse_s": secs.get("precond.apply_inverse", 0.0),
            "precond.sparse_direct_s": pinv_s - kron_in_pinv,
            "krylov.minres_s": secs.get("krylov.minres", 0.0),
            "krylov.A_apply_calls": a_calls,
            "krylov.A_apply_s": secs.get("krylov.A_apply", 0.0),
            "krylov.iterations": pas["iterations"],
            "krylov.iterations_per_A_apply": pas["iterations"] / a_calls if a_calls else 0.0,
            "krylov.recurrence_self_s": secs.get("krylov.minres", 0.0) - a_s - pinv_s,
            "verify.measure_brezzi_s": secs.get("verify.measure_brezzi", 0.0),
            "verify.condition_number_estimate_s":
                secs.get("verify.condition_number_estimate", 0.0),
            "cli.memory_estimate_gb": pas["memory_estimate_gb"] or 0.0,
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return m

    def run(self):
        print("# environment " + json.dumps(self.env), file=sys.stderr)
        body = {"grid-l3": self.grid_l3, "solve-l4": self.solve_l4,
                "verify-l2": self.verify_l2}[self.args.workload]
        # untimed warm-up: imports, first-call paths, allocator
        with redirect_stdout(io.StringIO()):
            self.cli.main(["run", "--problem", "wave", "--degree", "2",
                           "--level", "2", "--alpha", "1e-6", "--tol", repr(TOL),
                           "--seed", str(self.args.seed)])
        self.probe.reset()
        gc.collect()  # the warm-up's garbage, in traced runs too
        reference = self.args.reference
        trace = bool(self.args.trace) or reference
        min_plain = 0 if reference else 1 if trace else MIN_PASSES[self.args.workload]
        passes = []
        t_start = time.perf_counter()
        while True:
            traced = reference or (trace and len(passes) % 2 == 1)
            passes.append(self.one_pass(body, traced=traced))
            p = passes[-1]
            print(f"# pass {len(passes)} traced={p['traced']} wall={p['wall_s']:.3f}s "
                  f"setup={p['setup_s']:.3f}s solve={p['solve_s']:.3f}s "
                  f"iterations={p['iterations']} failed={p['failed']}",
                  file=sys.stderr)
            elapsed = time.perf_counter() - t_start
            if reference:
                break
            if sum(not p["traced"] for p in passes) < min_plain:
                continue
            if trace and len(passes) < 2:
                continue
            if elapsed + elapsed / len(passes) > self.args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        detail = {
            "environment": self.env,
            "peak_rss_mb": peak_rss_mb,
            "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
            "per_pass": {k: summary([p[k] for p in plain])
                         for k in ("wall_s", "setup_s", "solve_s")},
            "per_solve_s": summary([r.get("minres_s", r.get("seconds"))
                                    for p in plain for r in p["solves"]]),
            "failures": [why for p in passes for why in p["failures"]],
        }
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        if trace:
            layers = {k: statistics.median(p["layers"][k] for p in traced)
                      for k in traced[0]["layers"]}
            detail["spans"] = [p["spans"] for p in traced]
            # what a traced run reports as nproc.<name> when this run is its reference
            figures = {**layers, **{k: traced[0][k] for k in ("wall_s", "setup_s", "solve_s")}}
        if reference:
            metrics = {k: {"value": figures[k], "unit": "s"} for k in NPROC_METRICS}
        elif trace:
            layers["trace.overhead_s"] = (
                statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
            layers["gc_unforced.peak_rss_mb"] = peak_rss_mb
            est = layers["cli.memory_estimate_gb"]
            layers["cli.estimate_over_peak"] = 1024.0 * est / peak_rss_mb if est else 0.0
            if self.args.threads == self.nproc:
                detail["nproc_reference"] = {"same_as_measured": True}
            else:
                child = self.nproc_reference()
                figures = {k: v["value"] for k, v in child["metrics"].items()}
                attempted += child["attempted"]
                failed += child["failed"]
                detail["nproc_reference"] = child
            layers.update({f"nproc.{k}": figures[k] for k in NPROC_METRICS})
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        else:
            values = {k: statistics.median(p[k] for p in passes)
                      for k in ("wall_s", "setup_s", "solve_s")}
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()}
        detail["metrics"] = metrics
        for key, stats in [*detail["per_pass"].items(), ("per_solve_s", detail["per_solve_s"])]:
            print(f"# {key}: median={stats['median']} p_hi={stats['p_hi']} n={stats['n']}",
                  file=sys.stderr)
        self.write_detail(detail)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def nproc_reference(self):
        """One traced pass at nproc BLAS threads, in a child process.

        The child gets four times the parent's --seconds; a child that
        fails, or is stopped for overrunning, fails the run.
        """
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--trace", "1",
                "--threads", str(self.nproc), "--reference"]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=4 * self.args.seconds, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"nproc reference exited with status {done.returncode}:"
                               f"\n{done.stderr[-2000:]}")
        child = json.loads(lines[-1])
        print("# nproc reference: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in child["metrics"].items()), file=sys.stderr)
        return {"threads": self.nproc, **child}

    def write_detail(self, detail):
        OUT.mkdir(exist_ok=True)
        a = self.args
        kind = "reference" if a.reference else f"trace{a.trace}"
        path = OUT / f"{a.workload}-seed{a.seed}-{kind}-threads{a.threads}.json"
        path.write_text(json.dumps(detail, default=float))
        print(f"# detail record: {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
