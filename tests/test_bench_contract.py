"""The benchmark probes rebind package attributes by name; they must exist."""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from saddleprec import assembly, cli, krylov, precond, splines, verify
from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces, system_blocks
from saddleprec.precond import Setup, build_preconditioner

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the parameters perfbench passes, in order. The probes replace solve_once,
# minres and estimate_memory_gb with wrappers of exactly these parameters, so
# the package must declare exactly these; the workloads call the others
# with these leading, and any further parameter needs a default.
WRAPPED = {
    (cli, "solve_once"): ("spec", "tol"),
    (cli, "minres"): ("apply_a", "apply_pinv", "b", "x0", "config"),
    (cli, "estimate_memory_gb"): ("spec",),
}
CALLED = {
    (cli, "main"): ("argv",),
    (assembly, "build_spaces"): ("spec",),
    (assembly, "assemble_system"): ("spec", "spaces"),
    (precond, "build_preconditioner"): ("spec", "spaces", "blocks"),
    (verify, "measure_brezzi"): ("system", "alpha"),
    (verify, "condition_number_estimate"): ("system", "precon"),
    (splines, "univariate_matrix"): ("row_space", "col_space", "d_row", "d_col", "sub"),
}


def test_called_signatures_keep_the_benchmark_parameters():
    for (owner, attr), names in WRAPPED.items():
        params = inspect.signature(getattr(owner, attr)).parameters
        assert tuple(params) == names, attr
    for (owner, attr), names in CALLED.items():
        params = list(inspect.signature(getattr(owner, attr)).parameters.values())
        assert tuple(p.name for p in params[:len(names)]) == names, attr
        assert all(p.default is not p.empty for p in params[len(names):]), attr


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_a_rebound_univariate_matrix_sees_one_call_per_factor(monkeypatch, kind):
    # splines.univariate_matrix_calls counts the factors a setup builds: the
    # spaces' cached rules and tables call nothing the probes rebind
    calls = []

    def recording(row_space, col_space, d_row=0, d_col=0, sub=None):
        calls.append((row_space, col_space, d_row, d_col, sub))
        return splines.univariate_matrix(row_space, col_space, d_row, d_col, sub)

    monkeypatch.setattr(assembly, "univariate_matrix", recording)
    spec = ProblemSpec(kind, 3, 2, 1e-6)
    spaces = build_spaces(spec)
    Setup(spec, spaces, system_blocks(spec, spaces))
    assert len(calls) == len(spaces._factors) >= 20
    spaces_of = {id(getattr(spaces, name)): name for name, _ in
                 assembly.FACTOR_SPACES.values()}
    built = Counter((spaces_of[id(r)], spaces_of[id(c)], dr, dc, sub)
                    for r, c, dr, dc, sub in calls)
    assert built == Counter((assembly.FACTOR_SPACES[r][0], assembly.FACTOR_SPACES[c][0],
                             dr, dc, sub) for r, c, dr, dc, sub in spaces._factors)


def test_traced_attributes_resolve(probes):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owners, attr in probes.TRACED.values()
               for owner in owners if not callable(getattr(owner, attr, None))]
    assert not missing


def test_always_on_probe_attributes_resolve(probes):
    for attr in ("solve_once", "minres", "estimate_memory_gb"):
        assert callable(getattr(probes.cli, attr, None)), attr


def test_result_counters_read_positive_ints(probes):
    # the traced counters read the results of these two calls
    spec = ProblemSpec("wave", 2, 1, 1e-3)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    results = {
        "assembly.assemble_system": system,
        "precond.build_preconditioner": build_preconditioner(spec, spaces,
                                                             system.blocks),
    }
    assert set(probes.RESULT_COUNTERS) == set(results)
    for name, (_, size) in probes.RESULT_COUNTERS.items():
        value = size(results[name])
        assert isinstance(value, int) and value > 0, name


def test_solve_never_builds_the_system_matrix(monkeypatch):
    # the solve applies A block by block; a CSR A in the loop must fail here
    def refuse(*args, **kwargs):
        raise AssertionError("the solve built a block matrix")

    monkeypatch.setattr(assembly.sp, "bmat", refuse)
    row = cli.solve_once(ProblemSpec("wave", 2, 2, 1e-6), 1e-8)
    assert row["converged"]


def test_verify_instruments_keep_the_benchmark_signatures():
    # the verify workload calls measure_brezzi(system, alpha) positionally and
    # condition_number_estimate(system, precon), and reads these report keys
    spec = ProblemSpec("wave", 2, 1, 1e-3)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    for alpha in (1e-3, 1e-6):
        rep = verify.measure_brezzi(system, alpha).as_dict()
        assert rep["alpha"] == alpha
        assert 0 < rep["c_a"] <= 1 + 1e-8
        assert 0 < rep["c_b"] <= 2 ** 0.5 + 1e-8
    precon = build_preconditioner(spec, spaces, system.blocks)
    kappa = verify.condition_number_estimate(system, precon).as_dict()["kappa"]
    assert isinstance(kappa, float) and kappa >= 1.0


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
def test_benchmark_residual_check_is_the_bspline_residual(monkeypatch, alpha):
    # the benchmark recomputes |b - A x| / |b - A x0| with the operator that
    # solve_once hands to cli.minres, positionally with x0= and config=; in
    # the control eigenbasis that is the B-spline CSR residual of D' x
    calls = []

    def recording_minres(*args, **kwargs):
        x, report = krylov.minres(*args, **kwargs)
        calls.append((args, kwargs, x))
        return x, report

    monkeypatch.setattr(cli, "minres", recording_minres)
    spec = ProblemSpec("wave", 2, 2, alpha)
    assert cli.solve_once(spec, 1e-8)["converged"]
    [((apply_a, apply_pinv, b), kwargs, x)] = calls
    assert set(kwargs) == {"x0", "config"} and callable(apply_pinv)
    x0 = kwargs["x0"]
    bench = (np.linalg.norm(b - apply_a(x)) / np.linalg.norm(b - apply_a(x0)))

    system, precon = cli.build_solve(spec)
    back = precon.basis.rotate
    csr = (np.linalg.norm(system.rhs - system.matrix @ back(x, back=True))
           / np.linalg.norm(system.rhs - system.matrix @ back(x0, back=True)))
    assert bench == pytest.approx(csr, rel=1e-10)
    # and the start is the seed's B-spline start vector, rotated
    assert np.allclose(back(x0, back=True), krylov.random_start(system.dim, 0),
                       rtol=0, atol=1e-13)
