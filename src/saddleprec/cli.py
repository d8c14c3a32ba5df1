"""Command-line harness: single solves, iteration tables, verification suites, export.

    saddleprec run --problem wave --degree 2 --level 2 --alpha 1e-6
    saddleprec table --problem wave --degrees 2 3 --levels 2 3 --alphas 1 1e-6

Exit status is 0 when every assertion holds; 1 on an assertion failure, an
unconverged `run`, or a `table` cell that did not converge or raised (shown as
`fail`, its row still written to --output); and 2 on configuration errors
(including refused over-budget instances).
"""

import argparse
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blocksys, matrixio, spectral, verify
from .assembly import (
    BLOCK_FACTORS,
    ProblemSpec,
    assemble_system,
    build_spaces,
    dof_count,
)
from .krylov import MinresConfig, minres, random_start
from .precond import build_preconditioner
# univariate_matrix is imported here only so the benchmark probes can rebind it
from .splines import univariate_matrix  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

DESK_LEVEL_MAX = 3
DEFAULT_MEMORY_GB = 2.0
SUITES = ("appendix", "theorem22", "brezzi", "inclusion", "lemma51", "all")
CSV_COLUMNS = ("problem", "p", "level", "alpha", "dofs", "iterations",
               "converged", "final_relres", "runtime_ms")


# bytes per stored nonzero: a float64 value and an index of up to 8 bytes
BYTES_PER_NNZ = 16
# (L + U) nnz over matrix nnz of the sparse LUs. Measured on the state block
# at p=2: 1.6, 3.4, 11.2 and 24.2 at levels 2-5; at p=3: 2.8 at level 3 and
# 7.3 at level 4. It grows with the level; this covers every measured case.
LU_FILL = 25.0
# length-dofs float64 vectors alive at once: the MINRES recurrence, the
# true-residual checks, the block applies and the preconditioner solve
WORK_VECTORS = 20
# resident size of the interpreter with numpy and scipy loaded
BASE_GB = 0.1


def solve_nnz(spec: ProblemSpec) -> dict:
    """Exact nonzero counts of the blocks a solve factorizes: P_Y and the r1 Gram.

    These are the only blocks a solve materializes. The nnz of a Kronecker
    product is the product of its factors' nnz, and every state-space factor
    has the support of the state mass, so P_Y has the 3-D and the r1 Gram
    the 2-D mass pattern.
    """
    spaces = build_spaces(spec)
    n_t, n_x, n_y = (int(np.count_nonzero(spaces.factor(name, name)))
                     for name in BLOCK_FACTORS["y"])
    return {"P_Y": n_t * n_x * n_y, "r1_gram": n_x * n_y}


def estimate_memory_gb(spec: ProblemSpec) -> float:
    """Peak memory of a solve from the exact nonzero counts of what it holds.

    A solve holds each block of `solve_nnz` as a sparse matrix, a CSC copy
    and its LU, and the work vectors. Assembling P_Y peaks earlier at about
    six copies of it (measured), below its LU charge. Every other block is
    applied or inverted from its univariate Kronecker factors, whose size is
    negligible.
    """
    held = (2 + LU_FILL) * sum(solve_nnz(spec).values())
    bytes_total = BYTES_PER_NNZ * held + 8.0 * WORK_VECTORS * dof_count(spec)
    return BASE_GB + bytes_total / 1e9


class ConfigError(Exception):
    pass


def _check_budget(spec: ProblemSpec, max_memory_gb: float | None) -> None:
    cap = DEFAULT_MEMORY_GB if max_memory_gb is None else max_memory_gb
    if not cap > 0:  # also refuses NaN
        raise ConfigError(f"--max-memory-gb must be positive, got {cap}")
    estimate = estimate_memory_gb(spec)
    if spec.level > DESK_LEVEL_MAX and max_memory_gb is None:
        raise ConfigError(
            f"level {spec.level} is beyond desk scale (estimated "
            f"{estimate:.2f} GB); opt in with --max-memory-gb")
    if estimate > cap:
        raise ConfigError(
            f"estimated memory {estimate:.2f} GB exceeds the configured cap "
            f"{cap:.2f} GB; raise --max-memory-gb to proceed")
    if spec.level > DESK_LEVEL_MAX:
        print(f"# level {spec.level}: estimated memory {estimate:.2f} GB "
              f"(cap {cap:.2f} GB)")


def solve_once(spec: ProblemSpec, tol: float) -> dict:
    """Assemble, precondition, and solve one homogeneous-data instance."""
    t0 = time.perf_counter()
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    precon = build_preconditioner(spec, spaces, system.blocks)
    x0 = random_start(system.dim, spec.seed)
    config = MinresConfig(rel_tol=tol, seed=spec.seed)
    _, report = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                       config=config)
    runtime_ms = 1e3 * (time.perf_counter() - t0)
    return {
        "problem": spec.kind,
        "p": spec.degree,
        "level": spec.level,
        "alpha": spec.alpha,
        "dofs": system.dim,
        "iterations": report.iterations,
        "converged": report.converged,
        "final_relres": report.final_true_relres,
        "runtime_ms": runtime_ms,
    }


def _write_rows(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _format_alpha(alpha: float) -> str:
    return f"{alpha:.0e}" if alpha < 1 else f"{alpha:g}"


def render_table(levels, alphas, dofs, cells, fmt: str) -> str:
    """Grid with one row per level, one column per alpha, and a DoFs column."""
    header = ["level"] + [f"alpha={_format_alpha(a)}" for a in alphas] + ["dofs"]
    rows = []
    for lev in levels:
        row = [str(lev)]
        for a in alphas:
            val = cells.get((lev, a))
            row.append(str(val) if val is not None else "fail")
        row.append(str(dofs[lev]))
        rows.append(row)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(header)]
    lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    MinresConfig(rel_tol=args.tol)  # refuses a bad tolerance before any work
    spec = ProblemSpec(args.problem, args.degree, args.level, args.alpha,
                       seed=args.seed)
    _check_budget(spec, args.max_memory_gb)
    row = solve_once(spec, args.tol)
    print(",".join(CSV_COLUMNS))
    print(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                   for c in CSV_COLUMNS))
    if args.output:
        _write_rows([row], args.output)
    return EXIT_OK if row["converged"] else EXIT_FAIL


def cmd_table(args) -> int:
    # the tolerance and every cell's spec are validated up front; the memory
    # estimate does not depend on alpha: checked once per (degree, level)
    MinresConfig(rel_tol=args.tol)
    for p in args.degrees:
        for lev in args.levels:
            specs = [ProblemSpec(args.problem, p, lev, a, seed=args.seed)
                     for a in args.alphas]
            _check_budget(specs[0], args.max_memory_gb)

    all_rows = []
    chunks = []
    all_ok = True
    for p in args.degrees:
        dofs = {
            lev: dof_count(ProblemSpec(args.problem, p, lev, args.alphas[0]))
            for lev in args.levels
        }
        cells = {}

        def run_cell(cell):
            lev, a = cell
            spec = ProblemSpec(args.problem, p, lev, a, seed=args.seed)
            try:
                return solve_once(spec, args.tol)
            except Exception as exc:  # cell failure is recorded, table still emitted
                print(f"# cell level={lev} alpha={a:g} failed: {exc}",
                      file=sys.stderr)
                return None

        grid = [(lev, a) for lev in args.levels for a in args.alphas]
        if args.workers == 1:
            # in the calling thread: repeated tables grew the heap of a pool
            # thread's malloc arena by about 2 MB each (wave level 3)
            results = [run_cell(cell) for cell in grid]
        else:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(run_cell, grid))
        for cell, row in zip(grid, results):
            if row is not None:
                all_rows.append(row)
            if row is not None and row["converged"]:
                cells[cell] = row["iterations"]
            else:
                all_ok = False
        text = render_table(args.levels, args.alphas, dofs, cells, args.format)
        chunks.append(f"# problem={args.problem} p={p}\n" + text)
    output = "\n".join(chunks)
    print(output, end="")
    if args.output:
        if args.output.endswith(".csv"):
            _write_rows(all_rows, args.output)
        else:
            with open(args.output, "w") as fh:
                fh.write(output)
    return EXIT_OK if all_ok else EXIT_FAIL


def _suite_appendix(args):
    rng = np.random.default_rng(args.seed)
    lines, ok = [], True
    worst = 0.0
    for _ in range(100):
        nv, nq = rng.integers(1, 7), rng.integers(1, 7)
        a, c = blocksys.random_spd_blocks(rng, (nv, nq))
        inst = spectral.SchurInstance(a, rng.standard_normal((nq, nv)), c)
        q = rng.standard_normal(nq)
        lhs, rhs = spectral.schur_sup_identity(inst, q)
        if lhs > 0:
            worst = max(worst, abs(lhs - rhs) / lhs)
    ok &= worst <= 1e-10
    lines.append(f"Schur-complement sup identity: worst relative gap {worst:.2e} "
                 f"(tolerance 1e-10)")
    metrics = [("sup_identity_worst_rel_gap", worst)]
    agree = True
    for _ in range(100):
        nv, nq = rng.integers(1, 7), rng.integers(1, 7)
        a, c = blocksys.random_spd_blocks(rng, (nv, nq))
        inst = spectral.SchurInstance(a, rng.standard_normal((nq, nv)), c)
        f, bck = spectral.domination_equivalence(inst)
        agree &= f == bck
    ok &= agree
    lines.append(f"domination-equivalence flags agree on 100 instances: {agree}")
    metrics.append(("domination_flags_agree", float(agree)))
    worst3 = 0.0
    for _ in range(50):
        nv, nq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.standard_normal((nv + nq, nv + nq))
        m = g.T @ g + 0.1 * np.eye(nv + nq)
        inst = spectral.Block2x2Instance(m[:nv, :nv], m[:nv, nv:], m[nv:, nv:],
                                         m[:nv, :nv], m[nv:, nv:])
        cond, direct = spectral.block2x2_equivalence_check(inst)
        worst3 = max(worst3,
                     abs(cond[0][0] - 1), abs(cond[0][1] - 1),
                     abs(cond[1][0] - 1), abs(cond[1][1] - 1),
                     abs(direct[0] * direct[1] - cond[2][0]))
    ok &= worst3 <= 1e-10
    lines.append(f"block-2x2 condition/direct consistency: worst gap {worst3:.2e}")
    metrics.append(("block2x2_consistency_worst_gap", worst3))
    return ok, lines, metrics


def _suite_theorem22(args):
    rng = np.random.default_rng(args.seed)
    lines, ok = [], True
    indeterminate = 0
    equal = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        sys_ = blocksys.random_system(rng, n, dims, rank_deficient=True)
        chk = blocksys.kernel_equality_check(sys_)
        if chk.indeterminate:
            indeterminate += 1
            continue
        equal &= chk.equal
    ok &= equal
    lines.append(f"kernel equality (full vs diagonal+coupling) holds: {equal} "
                 f"({indeterminate} indeterminate, non-fatal)")
    metrics = [("kernel_equality_holds", float(equal)),
               ("kernel_checks_indeterminate", float(indeterminate))]
    worst = 0.0
    trips = 0
    while trips < 100:
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        sys_ = blocksys.random_system(rng, n, dims)
        blocks = blocksys.random_spd_blocks(rng, dims)
        c_lo, c_hi = blocksys.measure_c(sys_, blocks)
        if c_lo <= 1e-8 * c_hi:
            continue  # singular draw, resample
        trips += 1
        g_lo, g_hi = blocksys.measure_gamma(sys_, blocks)
        gd_lo, gd_hi = blocksys.gamma_from_c(c_lo, c_hi)
        cd_lo, cd_hi = blocksys.c_from_gamma(g_lo, g_hi)
        worst = max(worst, gd_lo / g_lo, g_hi / gd_hi, cd_lo / c_lo, c_hi / cd_hi)
    ok &= worst <= 1 + 1e-10
    lines.append(f"constant round trips (100): worst bracket ratio {worst:.12f}")
    metrics.append(("round_trip_worst_bracket_ratio", worst))
    phi = blocksys.phi_min()
    ok &= 0.29 <= phi <= 0.30
    lines.append(f"quarter-circle minimum: {phi:.6f} (must lie in [0.29, 0.30])")
    metrics.append(("quarter_circle_minimum", phi))
    return ok, lines, metrics


def _suite_brezzi(args):
    spec0 = ProblemSpec(args.problem, args.degree, min(args.level, 2), 1e-3,
                        seed=args.seed)
    spaces = build_spaces(spec0)
    system = assemble_system(spec0, spaces)
    lines, ok, metrics = [], True, []
    for a in (1e-3, 1e-6):
        rep = verify.measure_brezzi(system, alpha=a)
        ok_a = rep.c_a <= 1 + 1e-8 and rep.c_b <= np.sqrt(2) + 1e-8
        ok &= ok_a
        lines.append(
            f"alpha={a:g}: c_A={rep.c_a:.12f} (<=1), c_B={rep.c_b:.12f} "
            f"(<=sqrt2), gamma0={rep.gamma0:.6f} k0={rep.k0:.6f} [reported]")
        for key, val in rep.as_dict().items():
            metrics.append((f"alpha={a:g}:{key}", val))
    return ok, lines, metrics


def _suite_inclusion(args):
    lines, ok, metrics = [], True, []
    for kind in ("wave", "heat"):
        for p in (2, 3):
            spec = ProblemSpec(kind, p, 2, 1e-3, seed=args.seed)
            system = assemble_system(spec)
            res = verify.inclusion_residuals(system, n_samples=20,
                                             seed=args.seed)
            worst = float(res.max())
            ok &= worst <= 1e-10
            lines.append(f"{kind} p={p} level=2: worst projection defect "
                         f"{worst:.2e} (tolerance 1e-10)")
            metrics.append((f"{kind}:p={p}:worst_projection_defect", worst))
    return ok, lines, metrics


def _suite_lemma51(args):
    lines, ok, metrics = [], True, []
    for p in (2, 3):
        spec = ProblemSpec("wave", p, 2, 1e-3, seed=args.seed)
        system = assemble_system(spec)
        rep = verify.sparse_vs_reference_gap(system)
        ok &= rep.rel_gap <= 1e-8
        lines.append(f"wave p={p} level=2: max-abs gap {rep.abs_gap:.3e} "
                     f"relative {rep.rel_gap:.3e} (tolerance 1e-8)")
        metrics.append((f"wave:p={p}:reference_gap_rel", rep.rel_gap))
    return ok, lines, metrics


def cmd_verify(args) -> int:
    suites = {
        "appendix": _suite_appendix,
        "theorem22": _suite_theorem22,
        "brezzi": _suite_brezzi,
        "inclusion": _suite_inclusion,
        "lemma51": _suite_lemma51,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    out_lines = []
    metric_rows = []
    for name in names:
        ok, lines, metrics = suites[name](args)
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        out_lines.append(f"## suite {name}: [{status}]")
        out_lines.extend("- " + ln for ln in lines)
        out_lines.append("")
        metric_rows.append((name, "passed", float(ok)))
        metric_rows.extend((name, key, val) for key, val in metrics)
    text = "\n".join(out_lines) + "\n"
    print(text, end="")
    if args.output:
        if args.output.endswith(".csv"):
            with open(args.output, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["suite", "metric", "value"])
                for name, key, val in metric_rows:
                    writer.writerow([name, key, repr(float(val))])
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_export(args) -> int:
    spec = ProblemSpec(args.problem, args.degree, args.level, args.alpha,
                       seed=args.seed)
    _check_budget(spec, args.max_memory_gb)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    precon = build_preconditioner(spec, spaces, system.blocks)
    manifest = matrixio.export_system(system, precon, args.export_dir)
    print(f"wrote {len(manifest['files'])} matrices to {args.export_dir}")
    return EXIT_OK


def _add_common(parser, levels=False):
    parser.add_argument("--problem", choices=("heat", "wave"), default="wave")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-memory-gb", type=float, default=None)
    parser.add_argument("--output", default=None)
    if levels:
        parser.add_argument("--degrees", type=int, nargs="+", default=[2])
        parser.add_argument("--levels", type=int, nargs="+", default=[2, 3])
        parser.add_argument("--alphas", type=float, nargs="+",
                            default=[1.0, 1e-3, 1e-6, 1e-9])
        parser.add_argument("--workers", type=int, default=1)
        parser.add_argument("--format", choices=("markdown", "csv"),
                            default="markdown")
    else:
        parser.add_argument("--degree", type=int, default=2)
        parser.add_argument("--level", type=int, default=2)
        parser.add_argument("--alpha", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleprec",
        description="Preconditioned MINRES for space-time optimal-control "
                    "saddle-point systems, with verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one instance, print one row")
    _add_common(p_run)

    p_table = sub.add_parser("table", help="iteration-count grid over levels/alphas")
    _add_common(p_table, levels=True)
    for solving in (p_run, p_table):
        solving.add_argument("--tol", type=float, default=1e-8)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--problem", choices=("heat", "wave"), default="wave")
    p_verify.add_argument("--degree", type=int, default=2)
    p_verify.add_argument("--level", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--output", default=None)

    p_export = sub.add_parser("export", help="write Matrix Market files + manifest")
    _add_common(p_export)
    p_export.add_argument("--export-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "table": cmd_table, "verify": cmd_verify,
                "export": cmd_export}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
