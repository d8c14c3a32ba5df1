"""Verify instruments: Brezzi constants, conditioning, the reference gap."""

import dataclasses
import inspect
import re
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import eigh, null_space, qr

from saddleprec import assembly, cli, precond, verify
from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces, mass_form
from saddleprec.kron import KroneckerMatrix, mode_products
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
def wave_l4_system():
    # 226,372 unknowns, about 14,400 deflated: beyond the dense cap of the
    # verify instruments
    spec = ProblemSpec("wave", 2, 4, 1e-3)
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
                                                     wave_l4_system):
    with pytest.raises(ValueError):
        measure_brezzi(wave_system, alpha=0.0)
    with pytest.raises(ValueError, match="too large"):
        measure_brezzi(wave_l4_system)


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


@pytest.mark.parametrize("p, kind", [(2, "heat"), (3, "heat"), (2, "wave"),
                                     (3, "wave"), (5, "wave")])
@pytest.mark.parametrize("alpha", [1.0, 1e-6])
def test_deflation_holds_the_whole_spectrum(kind, p, alpha):
    # eig(G, H) and the scalar pencil's eigenvalues, dim U - rank times each,
    # are every eigenvalue of the dense (A, P), not only the extremes; at
    # p=5 the Gram K_U' M_U^-1 K_U that the control basis factors has a
    # condition number near 1e6 (wave)
    spec = ProblemSpec(kind, p, 1, alpha)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    g, h, s, d, rank = verify._control_deflation(system, precon)
    ev = np.sort(np.concatenate([
        eigh(g, h, eigvals_only=True),
        np.repeat(eigh(s, d, eigvals_only=True),
                  system.spaces.block_dim("u") - rank)]))
    # at p=5 the blocks of P have condition numbers up to 1e10 and eigh's
    # Cholesky reduction leaves the dense eigenvalues near 1e-10 off; the
    # Rayleigh quotient of each dense eigenvector squares that error
    a, pm = system.matrix.toarray(), dense_preconditioner(precon).toarray()
    x = eigh(a, pm)[1]
    ref = np.sort(np.einsum("ij,ij->j", x, a @ x) / np.einsum("ij,ij->j", x, pm @ x))
    np.testing.assert_allclose(ev, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_condition_number_wave_l2_reference():
    # the full dense pencil gave this value; the benchmark checks it too
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    assert condition_number_estimate(system, precon).kappa == pytest.approx(
        3.935855891093608, rel=1e-10)


def _qr_deflation(system, precon):
    # the deflation the Gram basis replaced, kept as its oracle: K~ = Q_c' K_U
    # densified, Q~ the orthonormal QR factor of diag(lam)^-1 K~, every
    # control block a multiple of Q~' diag(lam) Q~ and the (p_u, y) block
    # Q~' K~; the structure checks stay with the instrument
    spaces, basis, control = system.spaces, precon.basis, verify.CONTROL
    lam = basis.mass.diagonal
    m_u = precon.table["u"].matrix.materialize()
    s = np.zeros((2, 2))
    for (row, col), op in system.blocks.items():
        if row in control and col in control:
            blk = system.weight(row, col) * op.materialize()
            i, j = control.index(row), control.index(col)
            s[i, j] = s[j, i] = blk.multiply(m_u).sum() / m_u.multiply(m_u).sum()
    k_u = mode_products(tuple(w.T for w in basis.q),
                        system.blocks["p_u", "y"].materialize().toarray())
    q = qr(k_u / lam[:, None], mode="economic")[0]
    mass = q.T @ (lam[:, None] * q)
    names = spaces.block_names
    offs = np.cumsum([0] + [q.shape[1] if n in control else spaces.block_dim(n)
                            for n in names])
    part = dict(zip(names, map(slice, offs, offs[1:])))
    g, h = np.zeros((2, offs[-1], offs[-1]))

    def put(pencil, row, col, blk):
        pencil[part[col], part[row]] = blk.T
        pencil[part[row], part[col]] = blk

    for (row, col), op in system.blocks.items():
        if row in control and col in control:
            put(g, row, col, s[control.index(row), control.index(col)] * mass)
        elif (row, col) == ("p_u", "y"):
            put(g, row, col, q.T @ k_u)
        elif row not in control and col not in control:
            put(g, row, col, system.weight(row, col) * op.materialize().toarray())
    for n in names:
        scale, op, _ = precon.table[n]
        put(h, n, n, scale * (mass if n in control else op.materialize().toarray()))
    return g, h, s, np.diag([precon.table[n].scale for n in control]), q.shape[1]


def test_gram_basis_matches_the_qr_deflation_on_an_ill_conditioned_gram(
        monkeypatch):
    # wave p=5 level 2: K_U' M_U^-1 K_U has a condition number above 1e8, and
    # kappa and the Brezzi constants of its Cholesky basis agree with those
    # of the QR basis of range(M_U^-1 K_U). The Gram does not depend on
    # alpha; at alpha=1 kappa is largest (272), so its smallest eigenvalue
    # is the most sensitive to the basis
    spec = ProblemSpec("wave", 5, 2, 1.0)
    system = assemble_system(spec)
    gram = verify._state_gram(system.blocks["p_u", "y"],
                              assembly.mass_solver(system.spaces, "u"))
    assert np.linalg.cond(verify._dense(gram)) > 1e8
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    reports = []
    for deflation in (verify._control_deflation, _qr_deflation):
        monkeypatch.setattr(verify, "_control_deflation", deflation)
        reports.append({**condition_number_estimate(system, precon).as_dict(),
                        **measure_brezzi(system).as_dict()})
    rep, ref = reports
    assert ref["kappa"] > 100.0
    for key in ("kappa", "lam_abs_max", "lam_abs_min", "c_a", "c_b", "gamma0",
                "k0"):
        assert rep[key] == pytest.approx(ref[key], rel=1e-10), key
    for key in ("n_zero_modes", "kernel_dim"):
        assert rep[key] == ref[key], key


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


def test_instruments_never_apply_or_densify_k_u_nor_call_a_qr(monkeypatch):
    # the control basis reads only K_U's Kronecker factors: an apply or a
    # materialize of the (p_u, y) entry, rotated or not, or a QR on the way
    # must fail here
    def refuse(*args, **kwargs):
        raise AssertionError("an instrument applied or densified K_U, or "
                             "called a QR")

    system = assemble_system(ProblemSpec("wave", 2, 1, 1e-3))
    precon = build_preconditioner(system.spec, system.spaces, system.blocks)
    for k_u in (system.blocks["p_u", "y"], precon.basis.k_u):
        monkeypatch.setattr(k_u, "apply", refuse)
        monkeypatch.setattr(k_u, "materialize", refuse)
    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(verify, "qr", refuse, raising=False)
    assert measure_brezzi(system).kernel_dim > 0
    assert condition_number_estimate(system, precon).kappa >= 1.0


def test_instruments_refuse_a_k_u_without_full_column_rank(wave_system):
    # K_U = 0: its Gram K_U' M_U^-1 K_U is singular, so the control basis
    # has no Cholesky factor and neither instrument may run
    zero = KroneckerMatrix()
    for term in wave_system.blocks["p_u", "y"].terms:
        zero.add(0.0, *term.factors)
    broken = dataclasses.replace(
        wave_system, blocks={**wave_system.blocks, ("p_u", "y"): zero})
    precon = build_preconditioner(wave_system.spec, wave_system.spaces,
                                  wave_system.blocks)
    with pytest.raises(ValueError, match="not positive definite"):
        condition_number_estimate(broken, precon)
    with pytest.raises(ValueError, match="not positive definite"):
        measure_brezzi(broken)


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
                        (1.0, trace_form(spaces, system.blocks))):
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


def test_condition_number_refuses_beyond_dense_cap(wave_l4_system):
    system = wave_l4_system
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
