"""Preconditioned MINRES for symmetric indefinite systems with SPD preconditioning.

The recurrence monitors the preconditioner-weighted residual norm, yet the
counts honor a Euclidean stopping rule: the Euclidean residual is confirmed,
at one operator application, when there is a reason to. That is when the
monitored norm reaches the requested reduction, every TRUE_RESIDUAL_CHECK_EVERY
iterations, at a Lanczos breakdown and at the iteration cap. One rule decides
each confirmation: at or below tol the solve stops "converged", a breakdown
held to the same tol. Otherwise it stops, in this order, "stagnated" once
STAGNATION_CHECKS confirmations in a row fail to improve on the best one,
"breakdown" (also at a confirmation that is not finite, from which the
recurrence cannot recover), or "iteration cap", and returns the best
confirmed iterate, or the start when no confirmation was finite.
The first time they fail, the recurrence restarts instead, once per solve
(`MinresReport.restarted`), for the correction of the best iterate: from
zero, driven by that iterate's full residual, in `Euclidean` coordinates
(coordinates bound to a small residual would hold it in coefficients that
cancel). As in a fresh solve, confirmations run at every iteration again
only once its monitored norm has fallen by tol, and the count of failed
ones starts afresh. A recurrence
that has drifted from the true residual gets its accuracy back that way,
and one whose Euclidean residual lags its monitored norm gets the
iterations it needs. A solve that would have stopped at the restart loses
nothing: its iterates up to there are the same and the best is kept.

Preconditioned MINRES reads nothing of a vector but what A and P^-1 make of
it and the pairing of a residual with a preconditioned residual (Paige &
Saunders, SINUM 1975). So the recurrence runs on coordinates: flat arrays
that stand for the solve's vectors, with their own A-apply, P^-1-apply,
pairing and expansion into the solve's space (`MinresConfig.coordinates`).
The default, `Euclidean`, makes every vector its own coordinates. Coordinates
of a smaller space give the same iterates in exact arithmetic with fewer
bytes moved. Whatever the coordinates, `minres` is handed and returns
full-size vectors and callables. The symmetry probe, the start residual and
every confirmation use those callables, and each start is held to them
(COORDINATE_RTOL).
"""

from dataclasses import dataclass, field

import numpy as np

BREAKDOWN_RTOL = 1e-14
TRUE_RESIDUAL_CHECK_EVERY = 50
STAGNATION_CHECKS = 20
SYMMETRY_PROBE_RTOL = 1e-10
# largest relative gap between the coordinates' start and the full one: the
# expanded start residual against b - A x0, and the coordinates' squared
# preconditioned norm against r0' P^-1 r0. Measured gaps of the control
# coordinates: at most 1.4e-14 (Euclidean: 0), over heat and wave, p=2,3,
# levels 1-4, alpha 1, 1e-3, 1e-6 and 1e-9.
COORDINATE_RTOL = 1e-10


@dataclass
class MinresConfig:
    rel_tol: float = 1e-8
    max_iter: int = 2000
    coordinates: object = None  # None: `Euclidean`, every vector its own

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
    restarted: bool = False  # the recurrence restarted from the best iterate

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def random_start(dim: int, seed: int) -> np.ndarray:
    """Reproducible start vector, entries uniform in [-1, 1] (PCG64 generator)."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)


class Euclidean:
    """The coordinates in which every vector is its own: the full operators
    and the dot product.

    A coordinates object has: `start(b, x0, r0, y0)`, the coordinates of the
    start iterate x0, of its residual r0 = b - A x0 and of y0 = P^-1 r0;
    `apply_a` (iterate to residual coordinates) and `apply_pinv` (residual
    to iterate); `pair(z, r)`, the dot product of the vectors that iterate
    coordinates z and residual coordinates r stand for; and `expand` and
    `expand_residual`, those vectors. Both kinds of coordinates have one
    length, so the recurrence's buffers serve either.
    """

    def __init__(self, apply_a, apply_pinv):
        self.apply_a, self.apply_pinv = apply_a, apply_pinv

    @staticmethod
    def start(b, x0, r0, y0):
        return x0, r0, y0

    @staticmethod
    def pair(z, r):
        return float(z @ r)

    @staticmethod
    def expand(z):
        return z

    expand_residual = expand


def _probe_symmetry(apply_a, dim):
    """Raise ValueError unless <A v, w> = <v, A w>, to SYMMETRY_PROBE_RTOL,
    for each of the three pairs of three random vectors, one apply each."""
    rng = np.random.default_rng(0x5EED)
    vs = [rng.uniform(-1.0, 1.0, dim) for _ in range(3)]
    norms = [np.linalg.norm(v) for v in vs]
    a_norms, dots = [], {}  # dots[i, j] = <A v_i, v_j>
    for i, v in enumerate(vs):
        # each product is read before the next apply, which may reuse its array
        av = apply_a(v)
        a_norms.append(np.linalg.norm(av))
        for j, w in enumerate(vs):
            if j != i:
                dots[i, j] = av @ w
        del av
        for j in range(i):
            gap = abs(dots[i, j] - dots[j, i])
            scale = a_norms[i] * norms[j] + a_norms[j] * norms[i]
            if gap > SYMMETRY_PROBE_RTOL * max(scale, 1e-300):
                raise ValueError("operator failed the symmetry probe "
                                 f"(|<Av,w> - <v,Aw>| = {gap:g})")


def minres(apply_a, apply_pinv, b: np.ndarray, x0: np.ndarray | None = None,
           config: MinresConfig | None = None):
    """Solve A x = b with the block-preconditioned MINRES recurrence.

    apply_a and apply_pinv are callables for the (symmetric) operator and the
    SPD preconditioner inverse. The recurrence runs in config.coordinates
    (`Euclidean` when None), started from the full r0 = b - A x0 and
    P^-1 r0, and restarted likewise for the correction of the best iterate;
    it raises ValueError when the coordinates' start disagrees with them
    beyond COORDINATE_RTOL. Returns (x, MinresReport), x full-size; every
    way the solve ends is reported in MinresReport.stop, not raised.
    """
    if config is None:
        config = MinresConfig()
    coords = config.coordinates or Euclidean(apply_a, apply_pinv)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    _probe_symmetry(apply_a, n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    r0 = b - apply_a(x)
    eu0 = float(np.linalg.norm(r0))
    if eu0 == 0.0:
        return x, MinresReport(0, "converged", np.zeros(1), [], 0.0)

    def begin(rhs, x, r0):
        """Coordinates of the start x of A x = rhs, of its residual r0
        (rhs - A x, full) and of P^-1 r0, held to the full ones; and r0's
        P-norm."""
        y0 = apply_pinv(r0)
        full_sq = float(r0 @ y0)
        if full_sq <= 0.0:
            raise ValueError("preconditioner failed the positive-definiteness check")
        xc, r1, y = coords.start(rhs, x, r0, y0)
        scale = float(np.linalg.norm(r0))
        gap = float(np.linalg.norm(coords.expand_residual(r1) - r0)) / scale
        beta_sq = coords.pair(y, r1)
        gap_sq = abs(beta_sq - full_sq) / full_sq
        if not (gap <= COORDINATE_RTOL and gap_sq <= COORDINATE_RTOL):
            raise ValueError(f"the coordinates' start is off the full one: "
                             f"residual by {gap:.2e}, preconditioned norm "
                             f"squared by {gap_sq:.2e} (relative)")
        return xc, r1, y, np.sqrt(beta_sq)

    x, r1, y, beta1 = begin(b, x, r0)
    del r0  # coordinates that are not the vectors free it here
    apply_a_c, apply_pinv_c, pair = coords.apply_a, coords.apply_pinv, coords.pair
    history = [beta1]
    checks: list = []
    n = r1.shape[0]

    # after the restart the coordinates stand for a correction of `base`
    base = None

    def full(xc):
        """The iterate that coordinates xc stand for."""
        v = coords.expand(xc)
        return v if base is None else base + v

    best_rel, best_x, since_best, restarted = np.inf, None, 0, False

    def confirm(xc):
        """Record a true-residual check; track the best confirmed iterate."""
        nonlocal best_rel, best_x, since_best
        rel = float(np.linalg.norm(b - apply_a(full(xc))) / eu0)
        checks.append((itn, rel))
        if rel < best_rel:
            best_rel, best_x, since_best = rel, xc.copy(), 0
        else:
            since_best += 1
        return rel

    # the recurrence writes only into these; the arrays apply_a and
    # apply_pinv return are read, never written, and not kept past the next
    # call, so an operator may hand back one buffer every time
    r2, r1 = r1, np.empty(n)
    v, w, w1, w2, scratch = (np.zeros(n) for _ in range(5))
    oldb, beta, phibar = 0.0, beta1, beta1
    target = config.rel_tol * beta1  # monitored norm that starts confirmations
    dbar = epsln = 0.0
    cs, sn = -1.0, 0.0
    itn = 0
    stop = None

    while stop is None:
        itn += 1
        np.divide(y, beta, out=v)
        y = apply_a_c(v)
        if oldb > 0.0:
            np.multiply(r1, beta / oldb, out=r1)
            y = np.subtract(y, r1, out=r1)
        alfa = pair(v, y)
        np.multiply(r2, alfa / beta, out=scratch)
        np.subtract(y, scratch, out=r1)
        r1, r2 = r2, r1
        y = apply_pinv_c(r2)
        oldb = beta
        beta_sq = pair(y, r2)
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
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=w)
        np.subtract(v, w, out=w)
        np.multiply(w2, delta, out=scratch)
        np.subtract(w, scratch, out=w)
        np.divide(w, gamma, out=w)
        np.multiply(w, phi, out=scratch)
        np.add(x, scratch, out=x)
        history.append(phibar)

        breakdown = beta <= BREAKDOWN_RTOL * beta1
        if not (phibar <= target or breakdown
                or itn % TRUE_RESIDUAL_CHECK_EVERY == 0 or itn == config.max_iter):
            continue
        rel = confirm(x)
        if rel <= config.rel_tol:
            stop = "converged"
        elif since_best >= STAGNATION_CHECKS and restarted:
            stop = "stagnated"
        elif breakdown or not np.isfinite(rel):
            stop = "breakdown"
        elif itn == config.max_iter:
            stop = "iteration cap"
        elif since_best >= STAGNATION_CHECKS:
            # restart once, in full vectors: the recurrence solves for the
            # best iterate's correction, from zero and its full residual
            # (its monitored norm must fall by tol, as in a fresh solve,
            # before the confirmations run at every iteration again)
            restarted, since_best = True, 0
            base = full(best_x)
            del x, best_x, r1, r2, y, v, w, w1, w2, scratch  # freed first
            coords = Euclidean(apply_a, apply_pinv)
            apply_a_c, apply_pinv_c, pair = coords.apply_a, coords.apply_pinv, coords.pair
            r = b - apply_a(base)
            x, r2, y, beta = begin(r, np.zeros(r.shape[0]), r)
            del r
            best_x = x.copy()
            r1, v, w, w1, w2, scratch = (np.zeros(x.shape[0]) for _ in range(6))
            oldb, phibar = 0.0, beta
            target = beta * config.rel_tol
            dbar = epsln = 0.0
            cs, sn = -1.0, 0.0

    if stop == "converged":
        x, relres = full(x), checks[-1][1]
    elif best_x is not None:
        x, relres = full(best_x), best_rel
    else:  # no confirmation was finite: the start, whose residual is r0
        x = np.zeros(b.shape[0]) if x0 is None else np.array(x0, dtype=float)
        relres = 1.0
    return x, MinresReport(itn, stop, np.array(history), checks, relres, restarted)
