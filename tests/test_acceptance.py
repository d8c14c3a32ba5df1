"""Acceptance criteria, one test per criterion, each printing pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 4-11 run the checks of `saddleprec.cli.SUITES`, the same ones
`saddleprec verify` runs; their instances, draws and tolerances are defined
there and nowhere else. Criteria 1-3 (DoF counts, iteration counts of
level-2 and level-3 solves) are defined here.
"""

import pytest

from saddleprec import cli
from saddleprec.assembly import ProblemSpec, dof_count
from saddleprec.cli import solve_once

SEED = 0


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _check(criterion: str, check) -> None:
    passed, lines, _ = check(SEED)
    _report(criterion, passed, "; ".join(lines))


@pytest.fixture(scope="module")
def wave_counts():
    """Measured iteration counts for the wave problem at p = 2."""
    counts = {}
    for level in (2, 3):
        for alpha in (1.0, 1e-3, 1e-6, 1e-9):
            spec = ProblemSpec("wave", 2, level, alpha, seed=SEED)
            row = solve_once(spec, tol=1e-8)
            assert row["converged"]
            counts[level, alpha] = row["iterations"]
    return counts


def test_criterion_1_dof_reproduction():
    expected = {(2, 2): 3604, (2, 3): 28452, (3, 2): 4643, (3, 3): 32343}
    got = {key: dof_count(ProblemSpec("wave", key[0], key[1], 1e-3))
           for key in expected}
    _report("criterion 1 (DoF counts, exact)",
            got == expected, f"{got}")


def test_criterion_2_iteration_table(wave_counts):
    reference = {(2, 1e-3): 36, (2, 1e-6): 51, (2, 1e-9): 21,
                 (3, 1e-3): 38, (3, 1e-6): 48, (3, 1e-9): 33}
    ok = True
    details = []
    for (level, alpha), ref in reference.items():
        got = wave_counts[level, alpha]
        ok &= 0.5 * ref <= got <= 1.5 * ref
        details.append(f"l={level} a={alpha:g}: {got} (ref {ref})")
    for level in (2, 3):
        worst = max(wave_counts[level, a] for a in (1e-3, 1e-6, 1e-9))
        ok &= worst <= 80
        details.append(f"l={level} max over small alphas: {worst} (<= 80)")
    _report("criterion 2 (iteration table, +-50% and robustness cap)",
            ok, "; ".join(details))


def test_criterion_3_alpha_one_contrast(wave_counts):
    ok = True
    details = []
    for level in (2, 3):
        big, small = wave_counts[level, 1.0], wave_counts[level, 1e-3]
        ok &= big >= 1.5 * small
        details.append(f"l={level}: {big} vs {small}")
    _report("criterion 3 (alpha=1 at least 1.5x slower)", ok, "; ".join(details))


def test_criterion_4_state_block_equals_reference():
    _check("criterion 4 (sparse state block = dense reference)", cli.check_lemma51)


def test_criterion_5_residual_inclusion():
    _check("criterion 5 (residual inclusion)", cli.check_inclusion)


def test_criterion_6_constant_round_trips():
    _check("criterion 6 (constant round trips)", cli.check_round_trips)


def test_criterion_7_kernel_equality():
    _check("criterion 7 (kernel equality)", cli.check_kernel_equality)


def test_criterion_8_spectral_identity_oracles():
    _check("criterion 8 (Schur/domination/block-2x2 identities)",
           cli.check_appendix)


def test_criterion_9_quarter_circle_bound():
    _check("criterion 9 (quarter-circle minimum)", cli.check_quarter_circle)


def test_criterion_10_brezzi_bounds():
    _check("criterion 10 (Brezzi bounds on the discrete subspace)",
           cli.check_brezzi)


def test_criterion_11_alpha_robust_conditioning():
    _check("criterion 11 (condition numbers vary by at most 10x)",
           cli.check_conditioning)
