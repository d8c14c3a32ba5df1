"""Command-line harness: single solves, iteration tables, verification suites, export.

    saddleprec run --problem wave --degree 2 --level 2 --alpha 1e-6
    saddleprec table --problem wave --degrees 2 3 --levels 2 3 --alphas 1 1e-6

Exit status is 0 when every assertion holds; 1 on an assertion failure, an
unconverged `run`, or a `table` cell that did not converge or raised (shown as
`fail`, named on stderr with MINRES's stop reason or the error, its row still
written to --output); and 2 on configuration errors
(including refused over-budget instances and outputs that cannot be written).
"""

import argparse
import csv
import math
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

from . import blocksys, matrixio, spectral, verify
from .assembly import (
    ProblemSpec,
    assemble_system,
    build_spaces,
    dof_count,
    system_blocks,
)
from .krylov import MinresConfig, minres, random_start
from .precond import (
    ControlCoordinates,
    Setup,
    band_size,
    bandwidth,
    build_preconditioner,
)
# univariate_matrix is imported here only so the benchmark probes can rebind it
from .splines import univariate_matrix  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

DESK_LEVEL_MAX = 3
DEFAULT_MEMORY_GB = 2.0
CSV_COLUMNS = ("problem", "p", "level", "alpha", "dofs", "iterations",
               "converged", "stop", "final_relres", "runtime_ms")


# length-dofs float64 vectors a solve holds at once. The recurrence runs in
# control coordinates, about a tenth of a vector each, and holds at most 10.5
# (tracemalloc, wave and heat p=2,3, levels 3-4); a solve that restarts runs
# its second recurrence in full vectors beside b, x0, the restart's base and
# F's control columns, at most 17.9.
WORK_VECTORS = 20
# dense univariate arrays, each at most m x m for m the largest factor
# dimension, that a solve holds: the Kronecker factors of every block and of
# the rotated K_U, the factor eigenvectors of every Kronecker solver, and the
# joined factors of the Kronecker plan of every operator the solve applies
# (21 to 59 of them for heat and wave, p=2-5, levels 0-3; the plans' block
# matrices weigh most at level 0)
UNIVARIATE_ARRAYS = 70
# resident size of the interpreter with numpy and scipy loaded
BASE_GB = 0.1
# bytes that `export` holds per nonzero of A beyond the system and P it
# builds: A and P's blocks as CSR and COO matrices while they are written
# (ru_maxrss of export over that of the build alone, at alpha = 1e-6 and
# (p, level) = (2, 3), (3, 3) and (2, 4): 39.8-42.2 B for wave, 39.1-39.7 B
# for heat)
EXPORT_NNZ_BYTES = 44


# [the `Setup` of the last grid solved] while `shared_setup` is open in this
# context, None otherwise
_setups = ContextVar("setups", default=None)


def estimate_memory_gb(spec: ProblemSpec) -> float:
    """Peak memory of a solve from the exact sizes of what it holds.

    P_Y's values at alpha, a float64, and the int32 band-storage slots of its
    setup (`state_grams`), per entry in the lower triangle of its band
    (`band_size`), and P_Y's three alpha-free Grams beside them, a float64
    each, while `shared_setup` is open: a shared setup holds them through
    every factor, and a P built on a setup of its own frees them before its
    factor; its banded Cholesky factor, 8 B per entry of the
    (bandwidth + 1) x n lower band storage; the eigenvalue diagonals of the
    Kronecker solvers, at most one per unknown; the univariate arrays; and
    MINRES's work vectors. All of them follow from the grids and the degree
    alone.
    """
    spaces = build_spaces(spec)
    shape, p = spaces.block_shape("y"), spec.degree
    n = spaces.block_dim("y")
    lower = (band_size(shape, p) + n) // 2
    grams = 0 if _setups.get() is None else 3
    dofs = sum(spaces.block_dims)
    m = max(max(spaces.block_shape(name)) for name in spaces.block_names)
    held = ((8 * (1 + grams) + 4) * lower + 8 * n * (bandwidth(shape, p) + 1)
            + 8 * dofs + 8 * UNIVARIATE_ARRAYS * m * m + 8 * WORK_VECTORS * dofs)
    return BASE_GB + held / 1e9


def system_nnz(spec: ProblemSpec) -> int:
    """Nonzeros of A, bounded above: per entry of A's table, the product over
    the modes of its factors' joint nonzeros, doubled off the diagonal. The
    bound is exact but for cancellation where an entry's factors in each mode
    share one pattern, as spline factors on the same pair of spaces do."""
    total = 0
    for (row, col), km in system_blocks(spec, build_spaces(spec)).items():
        modes = zip(*(term.factors for term in km.terms))
        total += (1 if row == col else 2) * math.prod(
            np.count_nonzero(sum(np.abs(f) for f in fs)) for fs in modes)
    return total


class ConfigError(Exception):
    pass


def _check_budget(spec: ProblemSpec, max_memory_gb: float | None,
                  export: bool = False) -> None:
    """Refuse a spec whose estimate exceeds the cap; with export, the
    matrices written count too, EXPORT_NNZ_BYTES per nonzero of A."""
    cap = DEFAULT_MEMORY_GB if max_memory_gb is None else max_memory_gb
    if not cap > 0:  # also refuses NaN
        raise ConfigError(f"--max-memory-gb must be positive, got {cap}")
    estimate = estimate_memory_gb(spec)
    if export:
        estimate += EXPORT_NNZ_BYTES * system_nnz(spec) / 1e9
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


@contextmanager
def shared_setup():
    """Within, the solves of one grid share its `Setup`, built once."""
    token = _setups.set([])
    try:
        yield
    finally:
        _setups.reset(token)


def build_solve(spec: ProblemSpec) -> tuple:
    """The system and the preconditioner of spec, from the `Setup` that an
    open `shared_setup` holds for its grid."""
    held = _setups.get()
    if held is None:
        spaces, blocks, setup = build_spaces(spec), None, None
    else:
        if not (held and held[0].serves(spec)):
            held.clear()  # cells come grouped by grid: hold one setup
            spaces = build_spaces(spec)
            held.append(Setup(spec, spaces, system_blocks(spec, spaces)))
        setup = held[0]
        spaces, blocks = setup.spaces, setup.blocks
    system = assemble_system(spec, spaces, blocks=blocks)
    return system, build_preconditioner(spec, spaces, system.blocks, setup)


def solve_once(spec: ProblemSpec, tol: float) -> dict:
    """Assemble, precondition, and solve one homogeneous-data instance.

    MINRES runs in P's control eigenbasis (`Setup`), from the seed's start vector
    rotated into it, so the residual norms are those of the B-spline basis.
    Its recurrence runs in the `ControlCoordinates` of the rotated system.
    """
    t0 = time.perf_counter()
    system, precon = build_solve(spec)
    basis = precon.basis
    system, precon = basis.system(system), basis.preconditioner(precon)
    x0 = basis.rotate(random_start(system.dim, spec.seed))
    config = MinresConfig(rel_tol=tol,
                          coordinates=ControlCoordinates(system, precon))
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
        "stop": report.stop,
        "final_relres": report.final_true_relres,
        "runtime_ms": runtime_ms,
    }


def _write_rows(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _format_alpha(alpha: float) -> str:
    """The shortest label in the `.Ne` (alpha < 1) or `.Ng` form that parses
    back to alpha."""
    form, first = ("e", 0) if alpha < 1 else ("g", 6)
    labels = (f"{alpha:.{digits}{form}}" for digits in range(first, 18))
    return next(label for label in labels if float(label) == alpha)


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
    # estimate of a shared setup does not depend on alpha: checked once per
    # (degree, level)
    MinresConfig(rel_tol=args.tol)
    specs = [ProblemSpec(args.problem, p, lev, a, seed=args.seed)
             for p in args.degrees for lev in args.levels for a in args.alphas]
    all_rows = []
    with shared_setup():
        for spec in specs[::len(args.alphas)]:
            _check_budget(spec, args.max_memory_gb)
        for spec in specs:
            try:
                row = solve_once(spec, args.tol)
            except Exception as exc:  # cell failure is recorded, table still emitted
                failure = exc
            else:
                all_rows.append(row)
                failure = None if row["converged"] else f"MINRES stop {row['stop']}"
            if failure is not None:
                print(f"# cell p={spec.degree} level={spec.level} "
                      f"alpha={spec.alpha:g} failed: {failure}", file=sys.stderr)
    chunks = []
    for p in args.degrees:
        dofs = {lev: dof_count(ProblemSpec(args.problem, p, lev, args.alphas[0]))
                for lev in args.levels}
        cells = {(row["level"], row["alpha"]): row["iterations"]
                 for row in all_rows if row["p"] == p and row["converged"]}
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
    all_ok = len(all_rows) == len(specs) and all(r["converged"] for r in all_rows)
    return EXIT_OK if all_ok else EXIT_FAIL


# Verification thresholds, the only copy: `verify` and the acceptance tests
# both run the checks of SUITES, which read them.
EXACT_TOL = 1e-10  # identities that hold exactly, up to roundoff
DENSE_TOL = 1e-8  # dense eigensolves of one quantity along two paths
PHI_BAND = (0.29, 0.30)  # the quarter-circle minimum of Theorem 2.2
MIN_DECIDED = 90  # kernel instances out of 100 that get a rank decision
KAPPA_SPREAD = 10.0  # largest over smallest kappa(P^-1 A) across alpha
# kappa(P^-1 A) at small alpha: exact Schur-complement preconditioning of a
# block-tridiagonal system of three blocks has the eigenvalues 2cos(k pi/7),
# k = 1, 3, 5 (Sogn & Zulehner, IMA J. Numer. Anal. 2019)
KAPPA_CLOSED_FORM = math.cos(math.pi / 7) / math.cos(3 * math.pi / 7)


def check_appendix(seed: int):
    """Appendix: Schur sup identity, domination equivalence, block-2x2 bounds."""
    rng = np.random.default_rng(seed)

    def spd(n):
        return blocksys.random_spd_blocks(rng, [n])[0]

    def schur_instance():
        nv, nq = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        return spectral.SchurInstance(spd(nv), rng.standard_normal((nq, nv)),
                                      spd(nq))

    worst_identity = 0.0
    for _ in range(100):
        inst = schur_instance()
        lhs, rhs = spectral.schur_sup_identity(
            inst, rng.standard_normal(inst.c.shape[0]))
        if lhs > 0:
            worst_identity = max(worst_identity, abs(lhs - rhs) / lhs)
    flags = [spectral.domination_equivalence(schur_instance())
             for _ in range(100)]
    agree = all(f == b for f, b in flags)
    worst_2x2 = 0.0
    for _ in range(50):
        nv, nq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.standard_normal((nv + nq, nv + nq))
        m = g.T @ g + 0.1 * np.eye(nv + nq)
        inst = spectral.Block2x2Instance(m[:nv, :nv], m[:nv, nv:], m[nv:, nv:])
        (schur_lo, _), (lo, hi) = spectral.block2x2_equivalence_check(inst)
        worst_2x2 = max(worst_2x2, abs(lo * hi - schur_lo))
    ok = worst_identity <= EXACT_TOL and agree and worst_2x2 <= EXACT_TOL
    lines = [f"Schur-complement sup identity on 100 instances: worst relative "
             f"gap {worst_identity:.2e} (tolerance {EXACT_TOL:g})",
             f"domination-equivalence flags agree on 100 instances: {agree}",
             f"block-2x2 condition/direct consistency on 50 instances: worst "
             f"gap {worst_2x2:.2e} (tolerance {EXACT_TOL:g})"]
    metrics = [("sup_identity_worst_rel_gap", worst_identity),
               ("domination_flags_agree", float(agree)),
               ("block2x2_consistency_worst_gap", worst_2x2)]
    return ok, lines, metrics


def check_kernel_equality(seed: int):
    """Theorem 2.2: ker(A) = ker(D) ∩ ker(B) on 100 rank-deficient systems."""
    rng = np.random.default_rng(seed)
    checked = indeterminate = 0
    equal, worst_angle = True, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        chk = blocksys.kernel_equality_check(
            blocksys.random_system(rng, n, dims, rank_deficient=True))
        if chk.indeterminate:
            indeterminate += 1
            continue
        checked += 1
        equal &= chk.equal
        worst_angle = max(worst_angle, chk.max_angle)
    line = (f"kernel equality (full vs diagonal+coupling) on 100 instances: "
            f"{equal}; {checked} decided (at least {MIN_DECIDED}), "
            f"{indeterminate} indeterminate, worst angle {worst_angle:.2e}")
    metrics = [("kernel_equality_holds", float(equal)),
               ("kernel_checks_indeterminate", float(indeterminate))]
    return equal and checked >= MIN_DECIDED, [line], metrics


def check_round_trips(seed: int):
    """Theorem 2.2: measured (c_lo, c_hi) and (gamma_lo, gamma_hi) imply each other."""
    rng = np.random.default_rng(seed)
    worst, trips = 0.0, 0
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
    line = (f"100 constant round trips: worst bracket ratio {worst:.12f} "
            f"(at most 1 + {EXACT_TOL:g})")
    return worst <= 1 + EXACT_TOL, [line], [("round_trip_worst_bracket_ratio",
                                               worst)]


def check_quarter_circle(seed: int):
    """Theorem 2.2: the quarter-circle minimum lies in PHI_BAND."""
    phi = blocksys.phi_min()
    lo, hi = PHI_BAND
    line = f"quarter-circle minimum {phi:.6f} (must lie in [{lo:.2f}, {hi:.2f}])"
    return lo <= phi <= hi, [line], [("quarter_circle_minimum", phi)]


def check_brezzi(seed: int):
    """Brezzi bounds c_A <= 1, c_B <= sqrt(2); gamma0 and k0 only reported."""
    system = assemble_system(ProblemSpec("wave", 2, 2, 1e-3, seed=seed))
    lines, ok, metrics = [], True, []
    for alpha in (1e-3, 1e-6):
        rep = verify.measure_brezzi(system, alpha=alpha)
        ok &= rep.c_a <= 1 + DENSE_TOL and rep.c_b <= np.sqrt(2) + DENSE_TOL
        lines.append(
            f"wave p=2 level=2 alpha={alpha:g}: c_A={rep.c_a:.10f} (<= 1), "
            f"c_B={rep.c_b:.10f} (<= sqrt2), slack {DENSE_TOL:g}; "
            f"gamma0={rep.gamma0:.4f}, k0={rep.k0:.3e} (reported)")
        metrics.extend((f"alpha={alpha:g}:{key}", val)
                       for key, val in rep.as_dict().items())
    return ok, lines, metrics


def check_inclusion(seed: int):
    """Residual inclusion: state residuals lie in the control space."""
    lines, ok, metrics = [], True, []
    for kind in ("wave", "heat"):
        for p in (2, 3):
            system = assemble_system(ProblemSpec(kind, p, 2, 1e-3, seed=seed))
            worst = float(verify.inclusion_residuals(system, n_samples=20,
                                                     seed=seed).max())
            ok &= worst <= EXACT_TOL
            lines.append(f"{kind} p={p} level=2, 20 samples: worst projection "
                         f"defect {worst:.2e} (tolerance {EXACT_TOL:g})")
            metrics.append((f"{kind}:p={p}:worst_projection_defect", worst))
    return ok, lines, metrics


def check_lemma51(seed: int):
    """Lemma 5.1: P's factorized state block equals its dense reference."""
    lines, ok, metrics = [], True, []
    for p in (2, 3):
        system = assemble_system(ProblemSpec("wave", p, 2, 1e-3, seed=seed))
        rep = verify.sparse_vs_reference_gap(system)
        ok &= rep.rel_gap <= DENSE_TOL
        lines.append(f"wave p={p} level=2: max-abs gap {rep.abs_gap:.3e}, "
                     f"rel gap {rep.rel_gap:.2e} (tolerance {DENSE_TOL:g})")
        metrics.append((f"wave:p={p}:reference_gap_rel", rep.rel_gap))
    return ok, lines, metrics


def check_conditioning(seed: int):
    """Alpha-robustness: kappa(P^-1 A) varies by at most KAPPA_SPREAD over
    alpha at level 2, and stays at most KAPPA_CLOSED_FORM at levels 2 and 3."""
    alphas, kappas = (1e-3, 1e-6, 1e-9), {}
    with shared_setup():
        for level in (2, 3):
            for alpha in alphas:
                system, precon = build_solve(
                    ProblemSpec("wave", 2, level, alpha, seed=seed))
                kappas[level, alpha] = verify.condition_number_estimate(
                    system, precon).kappa
    spread = max(kappas[2, a] for a in alphas) / min(kappas[2, a] for a in alphas)
    excess = max(kappas.values()) / KAPPA_CLOSED_FORM - 1.0
    lines = [f"wave p=2 level=2 alpha={a:g}: kappa={kappas[2, a]:.6f}"
             for a in alphas]
    lines.append(f"spread {spread:.3f} (at most {KAPPA_SPREAD:g})")
    lines.extend(f"wave p=2 level=3 alpha={a:g}: kappa={kappas[3, a]:.10f}"
                 for a in alphas)
    lines.append(f"levels 2-3: largest kappa over cos(pi/7)/cos(3pi/7) = "
                 f"{KAPPA_CLOSED_FORM:.10f}, minus 1: {excess:.2e} "
                 f"(at most {DENSE_TOL:g})")
    metrics = [(f"alpha={a:g}:kappa", kappas[2, a]) for a in alphas]
    metrics.append(("kappa_spread", spread))
    metrics.extend((f"level=3:alpha={a:g}:kappa", kappas[3, a]) for a in alphas)
    metrics.append(("kappa_over_closed_form_minus_1", excess))
    return spread <= KAPPA_SPREAD and excess <= DENSE_TOL, lines, metrics


# suite name -> its checks; each check(seed) returns (ok, lines, metrics)
SUITES = {
    "appendix": (check_appendix,),
    "theorem22": (check_kernel_equality, check_round_trips, check_quarter_circle),
    "brezzi": (check_brezzi,),
    "inclusion": (check_inclusion,),
    "lemma51": (check_lemma51,),
    "conditioning": (check_conditioning,),
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok, out_lines, metric_rows = True, [], []
    for name in names:
        results = [check(args.seed) for check in SUITES[name]]
        ok = all(passed for passed, _, _ in results)
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        out_lines.append(f"## suite {name}: [{status}]")
        out_lines.extend("- " + ln for _, lines, _ in results for ln in lines)
        out_lines.append("")
        metric_rows.append((name, "passed", float(ok)))
        metric_rows.extend((name, key, val)
                           for _, _, metrics in results for key, val in metrics)
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
    _check_budget(spec, args.max_memory_gb, export=True)
    # before any work: a path that cannot be a directory is refused
    Path(args.export_dir).mkdir(parents=True, exist_ok=True)
    manifest = matrixio.export_system(*build_solve(spec), args.export_dir)
    print(f"wrote {len(manifest['files'])} matrices to {args.export_dir}")
    return EXIT_OK


def _add_common(parser, levels=False):
    parser.add_argument("--problem", choices=("heat", "wave"), default="wave")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-memory-gb", type=float, default=None)
    if levels:
        parser.add_argument("--degrees", type=int, nargs="+", default=[2])
        parser.add_argument("--levels", type=int, nargs="+", default=[2, 3])
        parser.add_argument("--alphas", type=float, nargs="+",
                            default=[1.0, 1e-3, 1e-6, 1e-9])
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
        solving.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
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
        output = getattr(args, "output", None)  # export writes no --output
        if output and not Path(output).parent.is_dir():
            raise ConfigError(f"--output {output}: no such directory")
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:  # OSError: writing output
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
