"""Discrete stability measurements: Brezzi constants, K1/K2, conditioning."""

import dataclasses
import time

import numpy as np
import pytest

from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces
from saddleprec.krylov import minres, random_start
from saddleprec.precond import build_preconditioner
from saddleprec.verify import (
    condition_number_estimate,
    measure_brezzi,
    measure_discrete_K1,
    measure_discrete_infsup,
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


def test_discrete_K1_is_exactly_one(wave_system, heat_system):
    for system in (wave_system, heat_system):
        rep = measure_discrete_K1(system)
        assert rep.c_k == pytest.approx(1.0, abs=1e-8)


def test_discrete_K1_impoverished_control_space():
    spec = ProblemSpec("wave", 2, 2, 1e-3, u_continuity=1)
    system = assemble_system(spec)
    rep = measure_discrete_K1(system)
    assert rep.c_k > 1.01


def test_infsup_heat_positive(heat_system):
    rep = measure_discrete_infsup(heat_system)
    assert rep.c_r > 0.01
    assert not rep.degenerate


def test_infsup_wave_rank_deficient(wave_system):
    # the initial-velocity rows cannot reach the non-H^1_0 part of their
    # multiplier space, so the stacked inf-sup value degenerates to zero
    rep = measure_discrete_infsup(wave_system)
    assert rep.c_r < 1e-6


def test_infsup_does_not_build_the_system_matrix():
    # the initial-condition rows are stacked from the coupling blocks
    system = assemble_system(ProblemSpec("wave", 2, 2, 1e-3))
    rep = measure_discrete_infsup(system)
    assert "matrix" not in vars(system)
    assert np.isfinite(rep.c_r)


def test_infsup_restricted_empty_kernel_reported(wave_system, heat_system):
    for system in (wave_system, heat_system):
        rep = measure_discrete_infsup(system, restrict_to_ker_ku=True)
        assert rep.degenerate
        assert rep.kernel_dim == 0


def test_infsup_level_trend_recorded(heat_system):
    # mesh dependence is recorded, not bounded: no assertion on the trend
    values = {2: measure_discrete_infsup(heat_system).c_r}
    finer = assemble_system(ProblemSpec("heat", 2, 3, 1e-3))
    values[3] = measure_discrete_infsup(finer).c_r
    print(f"inf-sup values by level: {values}")
    assert all(np.isfinite(v) and v > 0 for v in values.values())


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
