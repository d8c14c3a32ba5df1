"""Verify instruments: Brezzi constants, conditioning, the reference gap."""

import dataclasses
import inspect
import re
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, null_space

from saddleprec import assembly, cli, precond, verify
from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces, mass_form
from saddleprec.kron import KroneckerMatrix
from saddleprec.krylov import minres, random_start
from saddleprec.precond import (
    BlockDiagPreconditioner,
    build_preconditioner,
    state_residual_form,
    trace_form,
)
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


def dense_preconditioner(precon):
    # the full block-diagonal CSR matrix of P, the tests' dense reference
    return sp.block_diag([precon.block_matrix(n) for n in precon.spaces.block_names],
                         format="csr")


def _dense_blocks(system, alpha):
    # a, B, N_x and N_m of measure_brezzi as full dense arrays
    spec = dataclasses.replace(system.spec, alpha=alpha)
    mat = assemble_system(spec, system.spaces, blocks=system.blocks).matrix
    metric = dense_preconditioner(BlockDiagPreconditioner(spec, system.spaces,
                                                          system.blocks))
    k = system.spaces.block_dim("y") + system.spaces.block_dim("u")
    return (mat[:k, :k].toarray(), mat[k:, :k].toarray(),
            metric[:k, :k].toarray(), metric[k:, k:].toarray())


def _c_b_from_primal_pencil(system, alpha):
    # the (B' N_m^-1 B, N_x) pencil on the primal pair: the same nonzero
    # spectrum as the multiplier pencil measure_brezzi reads
    _, b_mat, n_x, n_m = _dense_blocks(system, alpha)
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


def _dense_brezzi(system, alpha):
    # the full dense pencils of measure_brezzi, no control block deflated
    a_mat, b_mat, n_x, n_m = _dense_blocks(system, alpha)
    ev = eigh(a_mat, n_x, eigvals_only=True)
    z = null_space(b_mat)
    gamma0 = eigh(z.T @ a_mat @ z, z.T @ n_x @ z, eigvals_only=True)[0]
    ev_b = eigh(b_mat @ np.linalg.solve(n_x, b_mat.T), n_m, eigvals_only=True)
    return {"c_a": max(abs(ev[0]), abs(ev[-1])),
            "c_b": np.sqrt(max(ev_b[-1], 0.0)), "gamma0": gamma0,
            "k0": np.sqrt(max(ev_b[0], 0.0)), "kernel_dim": z.shape[1]}


def _dense_condition(system, precon):
    # the full dense pencil (A, P) of condition_number_estimate
    ev = eigh(system.matrix.toarray(), dense_preconditioner(precon).toarray(),
              eigvals_only=True)
    aev = np.abs(ev)
    hi = aev.max()
    nonzero = aev[aev > verify.ZERO_MODE_RTOL * hi]
    return {"kappa": hi / nonzero.min(), "lam_abs_max": hi,
            "lam_abs_min": nonzero.min(),
            "n_zero_modes": aev.size - nonzero.size}


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("p", [2, 3])
def test_deflated_instruments_match_dense_pencils(kind, p):
    spec = ProblemSpec(kind, p, 1, 1.0)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    for alpha in (1.0, 1e-3, 1e-6, 1e-9):
        rep, ref = measure_brezzi(system, alpha).as_dict(), _dense_brezzi(system, alpha)
        for key in ("c_a", "c_b", "gamma0", "k0"):
            assert rep[key] == pytest.approx(ref[key], rel=1e-10), (alpha, key)
        assert rep["kernel_dim"] == ref["kernel_dim"]
        at_alpha = assemble_system(dataclasses.replace(spec, alpha=alpha),
                                   spaces, blocks=system.blocks)
        precon = build_preconditioner(at_alpha.spec, spaces, at_alpha.blocks)
        rep = condition_number_estimate(at_alpha, precon).as_dict()
        ref = _dense_condition(at_alpha, precon)
        for key in ("kappa", "lam_abs_max", "lam_abs_min"):
            assert rep[key] == pytest.approx(ref[key], rel=1e-10), (alpha, key)
        assert rep["n_zero_modes"] == ref["n_zero_modes"]


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("alpha", [1.0, 1e-6])
def test_deflation_holds_the_whole_spectrum(kind, p, alpha):
    # eig(G, H) and the scalar pencil's eigenvalues, dim U - rank times each,
    # are every eigenvalue of the dense (A, P), not only the extremes
    spec = ProblemSpec(kind, p, 1, alpha)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    g, h, s, d, rank = verify._control_deflation(system, precon)
    ev = np.sort(np.concatenate([
        eigh(g, h, eigvals_only=True),
        np.repeat(eigh(s, d, eigvals_only=True),
                  system.spaces.block_dim("u") - rank)]))
    ref = eigh(system.matrix.toarray(), dense_preconditioner(precon).toarray(),
               eigvals_only=True)
    np.testing.assert_allclose(ev, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_condition_number_wave_l2_reference():
    # the full dense pencil gave this value; the benchmark checks it too
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    assert condition_number_estimate(system, precon).kappa == pytest.approx(
        3.935855891093608, rel=1e-10)


def test_instruments_refuse_controls_off_the_mass(wave_system):
    # (u, u) = alpha (M_U + 1e-6 I): no longer a multiple of the control mass,
    # so the deflation would not be exact and neither instrument may run
    spaces = wave_system.spaces
    perturbed = mass_form(spaces, "u").add(
        1e-6, *(np.eye(n) for n in spaces.block_shape("u")))
    broken = dataclasses.replace(
        wave_system, blocks={**wave_system.blocks, ("u", "u"): perturbed})
    precon = build_preconditioner(wave_system.spec, spaces, wave_system.blocks)
    with pytest.raises(ValueError, match="not a multiple of the control mass"):
        condition_number_estimate(broken, precon)
    with pytest.raises(ValueError, match="not a multiple of the control mass"):
        measure_brezzi(broken)
    # (u, p_u) = 0: ker B would leave the deflated span
    zero = mass_form(spaces, "u")
    zero.terms[0].weight = 0.0
    broken = dataclasses.replace(
        wave_system, blocks={**wave_system.blocks, ("u", "p_u"): zero})
    with pytest.raises(ValueError, match="no control block"):
        measure_brezzi(broken)
    # a nonzero (p_r1, u) entry: the control rows reach r1 outside K_U
    (n1, n2), (nt, nx, ny) = (spaces.block_shape("p_r1"),
                              spaces.block_shape("u"))
    coupling = KroneckerMatrix().add(1.0, np.ones((1, nt)), np.ones((n1, nx)),
                                     np.ones((n2, ny)))
    broken = dataclasses.replace(
        wave_system, blocks={**wave_system.blocks, ("p_r1", "u"): coupling})
    with pytest.raises(ValueError, match="couples the controls outside K_U"):
        condition_number_estimate(broken, precon)
    with pytest.raises(ValueError, match="couples the controls outside K_U"):
        measure_brezzi(broken)


def test_instruments_never_assemble_a_or_p(monkeypatch):
    # both pencils are projected from the tables: a CSR A or a
    # block-diagonal P built on the way must fail here
    def refuse(*args, **kwargs):
        raise AssertionError("an instrument assembled A or P")

    monkeypatch.setattr(assembly.sp, "bmat", refuse)
    monkeypatch.setattr(precond.sp, "block_diag", refuse)
    system = assemble_system(ProblemSpec("wave", 2, 1, 1e-3))
    precon = build_preconditioner(system.spec, system.spaces, system.blocks)
    assert measure_brezzi(system).kernel_dim > 0
    assert condition_number_estimate(system, precon).kappa >= 1.0


def test_instruments_materialize_each_operator_once(monkeypatch):
    # a deflation materializes only the control entries it checks and P_Y,
    # which it densifies from its CSR matrix: A's (u, u) and (u, p_u) entries
    # are one control mass, materialized once, P_Y is materialized once, and
    # no other operator is
    calls = {}

    def counting(cls):
        materialize = cls.materialize

        def count(self):
            key = cls.__name__, id(self)
            calls[key] = calls.get(key, 0) + 1
            return materialize(self)
        monkeypatch.setattr(cls, "materialize", count)

    system = assemble_system(ProblemSpec("wave", 2, 1, 1e-3))
    precon = build_preconditioner(system.spec, system.spaces, system.blocks)
    counting(KroneckerMatrix)
    counting(precond.StateBlock)
    condition_number_estimate(system, precon)
    assert calls == {("KroneckerMatrix", id(precon.table["u"].matrix)): 1,
                     ("StateBlock", id(precon.table["y"].matrix)): 1}
    calls.clear()
    measure_brezzi(system)
    p_y = [key for key in calls if key[0] == "StateBlock"]
    assert len(p_y) == 1 and calls == {
        ("KroneckerMatrix", id(system.blocks["u", "u"])): 1, p_y[0]: 1}


def test_report_fields_are_plain_numbers(wave_system):
    precon = build_preconditioner(wave_system.spec, wave_system.spaces,
                                  wave_system.blocks)
    for rep in (measure_brezzi(wave_system),
                condition_number_estimate(wave_system, precon)):
        for key, val in rep.as_dict().items():
            assert type(val) in (float, int), (key, type(val))


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


def _preconditioner_as_table(system, precon, without=()):
    # P's diagonal blocks as a system table: DiscreteSystem scales (u, u)
    # by alpha itself, and P_Y is the sum of its three Kronecker Grams
    spec, spaces = system.spec, system.spaces

    def scaled(km, scale):
        out = KroneckerMatrix()
        for term in km.terms:
            out.add(scale * term.weight, *term.factors)
        return out

    blocks = {(n, n): scaled(precon.table[n].matrix,
                             1.0 if n == "u" else precon.table[n].scale)
              for n in spaces.block_names if n != "y"}
    blocks["y", "y"] = KroneckerMatrix()
    for scale, form in ((1.0, system.blocks["y", "y"]),
                        (spec.alpha, state_residual_form(spec, spaces)),
                        (1.0, trace_form(spec, spaces))):
        blocks["y", "y"].terms += scaled(form, scale).terms
    return dataclasses.replace(system, blocks={
        key: op for key, op in blocks.items() if key[0] not in without})


def test_condition_number_identity_case(wave_system):
    # system replaced by the preconditioner itself: kappa is exactly one
    spec = wave_system.spec
    precon = build_preconditioner(spec, wave_system.spaces, wave_system.blocks)
    fake = _preconditioner_as_table(wave_system, precon)
    rep = condition_number_estimate(fake, precon)
    assert rep.kappa == pytest.approx(1.0, rel=1e-10)
    assert rep.n_zero_modes == 0


def test_condition_number_counts_deflated_null_modes(wave_system):
    # A = P without its (p_u, p_u) block: P^-1 A = diag(I, I, 0, I, I), and
    # with no K_U all dim U null modes come from the deflated pencil
    precon = build_preconditioner(wave_system.spec, wave_system.spaces,
                                  wave_system.blocks)
    fake = _preconditioner_as_table(wave_system, precon, without=("p_u",))
    rep = condition_number_estimate(fake, precon)
    assert rep.kappa == pytest.approx(1.0, rel=1e-10)
    assert rep.n_zero_modes == wave_system.spaces.block_dim("u")


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
