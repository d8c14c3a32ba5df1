"""Preconditioned MINRES for symmetric indefinite systems with SPD preconditioning.

The recurrence monitors the preconditioner-weighted residual norm, yet the
counts honor a Euclidean stopping rule: the Euclidean residual is confirmed,
at one operator application, when there is a reason to. That is when the
monitored norm reaches the requested reduction, every TRUE_RESIDUAL_CHECK_EVERY
iterations, at a Lanczos breakdown and at the iteration cap. One rule decides
each confirmation: at or below tol the solve stops "converged", a breakdown
held to the same tol. Otherwise it stops, in this order, "stagnated" once
STAGNATION_CHECKS confirmations in a row fail to improve on the best one (the
best confirmed iterate is returned), "breakdown", or "iteration cap".
"""

from dataclasses import dataclass, field

import numpy as np

BREAKDOWN_RTOL = 1e-14
TRUE_RESIDUAL_CHECK_EVERY = 50
STAGNATION_CHECKS = 20
SYMMETRY_PROBE_RTOL = 1e-10


@dataclass
class MinresConfig:
    rel_tol: float = 1e-8
    max_iter: int = 2000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class MinresReport:
    iterations: int
    stop: str  # "converged", "stagnated", "breakdown" or "iteration cap"
    residual_history: np.ndarray
    true_residual_checks: list = field(default_factory=list)
    final_true_relres: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def random_start(dim: int, seed: int) -> np.ndarray:
    """Reproducible start vector, entries uniform in [-1, 1] (PCG64 generator)."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)


def _probe_symmetry(apply_a, dim):
    rng = np.random.default_rng(0x5EED)
    for _ in range(3):
        v = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        av, aw = apply_a(v), apply_a(w)
        gap = abs(av @ w - v @ aw)
        scale = np.linalg.norm(av) * np.linalg.norm(w) \
            + np.linalg.norm(aw) * np.linalg.norm(v)
        if gap > SYMMETRY_PROBE_RTOL * max(scale, 1e-300):
            raise ValueError("operator failed the symmetry probe "
                             f"(|<Av,w> - <v,Aw>| = {gap:g})")


def minres(apply_a, apply_pinv, b: np.ndarray, x0: np.ndarray | None = None,
           config: MinresConfig | None = None):
    """Solve A x = b with the block-preconditioned MINRES recurrence.

    apply_a and apply_pinv are callables for the (symmetric) operator and the
    SPD preconditioner inverse. Returns (x, MinresReport); every way the solve
    ends is reported in MinresReport.stop, not raised.
    """
    if config is None:
        config = MinresConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    _probe_symmetry(apply_a, n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    r1 = b - apply_a(x)
    eu0 = float(np.linalg.norm(r1))
    y = apply_pinv(r1)
    beta1_sq = float(r1 @ y)
    if beta1_sq < 0:
        raise ValueError("preconditioner failed the positive-definiteness check")
    beta1 = np.sqrt(beta1_sq)
    history = [beta1]
    checks: list = []
    if beta1 == 0.0 or eu0 == 0.0:
        return x, MinresReport(0, "converged", np.array(history), checks, 0.0)

    best_rel, best_x, since_best = np.inf, None, 0

    def confirm(xc):
        """Record a true-residual check; track the best confirmed iterate."""
        nonlocal best_rel, best_x, since_best
        rel = float(np.linalg.norm(b - apply_a(xc)) / eu0)
        checks.append((itn, rel))
        if rel < best_rel:
            best_rel, best_x, since_best = rel, xc.copy(), 0
        else:
            since_best += 1
        return rel

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    itn = 0
    stop = None

    while stop is None:
        itn += 1
        v = y / beta
        y = apply_a(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = apply_pinv(r2)
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0:
            raise ValueError("preconditioner failed the positive-definiteness check")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        history.append(phibar)

        breakdown = beta <= BREAKDOWN_RTOL * beta1
        if not (phibar <= config.rel_tol * beta1 or breakdown
                or itn % TRUE_RESIDUAL_CHECK_EVERY == 0 or itn == config.max_iter):
            continue
        if confirm(x) <= config.rel_tol:
            stop = "converged"
        elif since_best >= STAGNATION_CHECKS:
            stop, x = "stagnated", best_x
        elif breakdown:
            stop = "breakdown"
        elif itn == config.max_iter:
            stop = "iteration cap"

    final_rel = best_rel if stop == "stagnated" else checks[-1][1]
    return x, MinresReport(itn, stop, np.array(history), checks, final_rel)
