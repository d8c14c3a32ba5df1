"""Verify instruments: Brezzi constants, conditioning, the reference gap."""

import dataclasses
import inspect
import re
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from saddleprec import cli, verify
from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces
from saddleprec.krylov import minres, random_start
from saddleprec.precond import BlockDiagPreconditioner, build_preconditioner
from saddleprec.verify import (
    condition_number_estimate,
    measure_brezzi,
    sparse_vs_reference_gap,
)


@pytest.fixture(scope="module")
def wave_system():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    return assemble_system(spec)


@pytest.fixture(scope="module")
def heat_system():
    spec = ProblemSpec("heat", 2, 2, 1e-3)
    return assemble_system(spec)


@pytest.fixture(scope="module")
def wave_l3_system():
    # 28,452 unknowns: beyond the dense caps of the verify instruments
    spec = ProblemSpec("wave", 2, 3, 1e-3)
    return assemble_system(spec)


def test_brezzi_bounds_on_subspace(wave_system):
    # the continuous bounds hold pointwise, hence on every subspace
    for alpha in (1e-3, 1e-6):
        rep = measure_brezzi(wave_system, alpha=alpha)
        assert rep.c_a <= 1.0 + 1e-8
        assert rep.c_b <= np.sqrt(2.0) + 1e-8
        # coercivity on the constraint kernel and the inf-sup value are
        # reported, not asserted against the continuous formulas
        assert np.isfinite(rep.gamma0) and rep.gamma0 > 0
        assert rep.k0 >= 0
        assert rep.kernel_dim > 0


def test_brezzi_heat_has_positive_infsup(heat_system):
    rep = measure_brezzi(heat_system, alpha=1e-3)
    assert rep.c_a <= 1.0 + 1e-8
    assert rep.c_b <= np.sqrt(2.0) + 1e-8
    assert rep.k0 > 0.01


def test_brezzi_rejects_bad_alpha_and_large_instances(wave_system,
                                                     wave_l3_system):
    with pytest.raises(ValueError):
        measure_brezzi(wave_system, alpha=0.0)
    with pytest.raises(ValueError):
        measure_brezzi(wave_l3_system)


def _c_b_from_primal_pencil(system, alpha):
    # the (B' N_m^-1 B, N_x) pencil on the primal pair: the same nonzero
    # spectrum as the multiplier pencil measure_brezzi reads
    spec = dataclasses.replace(system.spec, alpha=alpha)
    mat = assemble_system(spec, system.spaces, blocks=system.blocks).matrix
    metric = BlockDiagPreconditioner(spec, system.spaces,
                                     system.blocks).materialize()
    k = system.spaces.block_dim("y") + system.spaces.block_dim("u")
    b_mat = mat[k:, :k].toarray()
    n_x, n_m = metric[:k, :k].toarray(), metric[k:, k:].toarray()
    ev = eigh(b_mat.T @ np.linalg.solve(n_m, b_mat), n_x, eigvals_only=True)
    return float(np.sqrt(max(ev[-1], 0.0)))


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("p", [2, 3])
def test_brezzi_c_b_matches_primal_pencil(kind, p):
    system = assemble_system(ProblemSpec(kind, p, 1, 1e-3))
    for alpha in (1.0, 1e-3, 1e-6):
        reference = _c_b_from_primal_pencil(system, alpha)
        assert measure_brezzi(system, alpha=alpha).c_b == pytest.approx(
            reference, rel=1e-12)


def test_every_verify_function_serves_a_check():
    # a public verify function is named by cli or called by another verify
    # function: no instrument that only the tests read
    functions = {name: fn for name, fn in inspect.getmembers(
                     verify, inspect.isfunction)
                 if fn.__module__ == verify.__name__ and not name.startswith("_")}
    cli_source = inspect.getsource(cli)
    unread = [
        name for name in functions
        if not re.search(rf"\b{name}\b", cli_source)
        and not any(re.search(rf"\b{name}\(", inspect.getsource(fn))
                    for other, fn in functions.items() if other != name)]
    assert unread == []


def test_condition_number_identity_case(wave_system):
    # system replaced by the preconditioner itself: kappa is exactly one
    spec = wave_system.spec
    precon = build_preconditioner(spec, wave_system.spaces, wave_system.blocks)
    fake = dataclasses.replace(wave_system)
    fake.matrix = precon.materialize()
    rep = condition_number_estimate(fake, precon)
    assert rep.kappa == pytest.approx(1.0, rel=1e-10)
    assert rep.n_zero_modes == 0


def test_condition_number_wave_null_modes(wave_system):
    precon = build_preconditioner(wave_system.spec, wave_system.spaces,
                                  wave_system.blocks)
    rep = condition_number_estimate(wave_system, precon)
    # nullity = dim R2 minus the rank of the initial-velocity block
    assert rep.n_zero_modes == 20
    assert rep.kappa < 10.0


def test_condition_number_refuses_beyond_dense_cap(wave_l3_system):
    system = wave_l3_system
    precon = build_preconditioner(system.spec, system.spaces, system.blocks)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        condition_number_estimate(system, precon)
    assert time.perf_counter() - t0 < 1.0


def test_condition_number_heat_nonsingular(heat_system):
    precon = build_preconditioner(heat_system.spec, heat_system.spaces,
                                  heat_system.blocks)
    rep = condition_number_estimate(heat_system, precon)
    assert rep.n_zero_modes == 0
    assert rep.kappa < 10.0


def test_condition_number_tracks_iteration_counts():
    # larger kappa must not come with fewer MINRES iterations
    results = []
    for alpha in (1.0, 1e-3):
        spec = ProblemSpec("wave", 2, 2, alpha)
        spaces = build_spaces(spec)
        system = assemble_system(spec, spaces)
        precon = build_preconditioner(spec, spaces, system.blocks)
        crep = condition_number_estimate(system, precon)
        x0 = random_start(system.dim, 0)
        _, mrep = minres(lambda v: system.matrix @ v, precon.apply_inverse,
                         system.rhs, x0=x0)
        results.append((crep.kappa, mrep.iterations))
    (k_hi, it_hi), (k_lo, it_lo) = results
    assert k_hi > k_lo
    assert it_hi >= it_lo


def test_reference_gap_report_fields(wave_system):
    rep = sparse_vs_reference_gap(wave_system)
    assert rep.scale > 0
    assert rep.abs_gap <= rep.rel_gap * rep.scale * (1 + 1e-12)
    assert rep.as_dict()["rel_gap"] == rep.rel_gap
