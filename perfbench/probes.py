"""Measurement probes installed around saddleprec's public layer functions.

Nothing in the package is edited: the probes rebind module attributes (and
two class attributes) to thin wrappers and put the originals back afterwards.
The always-on probes time each `krylov.minres` call made by `cli.solve_once`,
recompute the true residual of its answer, and record the memory-gate
estimate. With `collect` set they also run the cyclic garbage collector before
each solve, so that the process's peak RSS is a solve's working set and not an
accident of when the collector last ran: without it, the level-3 grid's peak
moves between about 410 and 480 MB from seed to seed. The collection and the
residual check are benchmark work: their time is kept in `untimed_s` and left
out of the pass's wall time.
The trace probes add a span around each layer call listed in `TRACED`, plus
the A-apply and P^-1 callables handed to MINRES.
"""

import gc
import time
from contextlib import contextmanager

import numpy as np

from saddleprec import assembly, cli, kron, precond, splines

# span name -> (owner modules or class, attribute). Functions imported by name
# into several modules are rebound in each of them.
TRACED = {
    "splines.univariate_matrix": ((splines, assembly, precond, cli), "univariate_matrix"),
    "kron.materialize": ((kron.KroneckerMatrix,), "materialize"),
    "kron.solve": ((kron.KroneckerSolver,), "solve"),
    "assembly.build_spaces": ((assembly, cli), "build_spaces"),
    "assembly.assemble_system": ((assembly, cli), "assemble_system"),
    "precond.build_preconditioner": ((precond, cli), "build_preconditioner"),
}

# traced span name -> (counter, size of the returned object) summed per pass
RESULT_COUNTERS = {
    "assembly.assemble_system": ("assembly.A_nnz", lambda system: system.matrix.nnz),
    "precond.build_preconditioner": ("precond.P_y_nnz",
                                     lambda p: p.block_matrix("y").nnz),
}


class Probe:
    """Span recorder and per-solve bookkeeping for one benchmark process.

    A span is [name, start, end, parent index, solve id]; spans stay in
    memory and are handed out per pass by `take_spans`.
    """

    def __init__(self, collect):
        self.collect = collect
        self.tracing = False
        self.spans = []
        self.solves = []
        self.estimates = []
        self.counters = {}
        self.untimed_s = 0.0
        self._stack = []
        self._solve_id = None
        self._next_solve_id = 0
        self._current = None
        self._saved = []
        self._install_always()

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Call fn, inside a span when tracing is on."""
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.region(name):
            return fn(*args, **kwargs)

    @contextmanager
    def region(self, name):
        """A span around a block of code (no-op when not tracing)."""
        if not self.tracing:
            yield
            return
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else None, self._solve_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans

    def new_solve(self, record):
        """Open a solve: later spans carry its id until `end_solve`."""
        self._solve_id = self._next_solve_id
        self._next_solve_id += 1
        record["solve_id"] = self._solve_id
        self.solves.append(record)
        self._current = record

    def end_solve(self):
        self._solve_id = None
        self._current = None

    def reset(self):
        self.spans, self.solves, self.estimates = [], [], []
        self.counters = {}
        self.untimed_s = 0.0

    def collect_garbage(self):
        if self.collect:
            t0 = time.perf_counter()
            with self.region("bench.gc"):
                gc.collect()
            self.untimed_s += time.perf_counter() - t0

    # -- rebinding -----------------------------------------------------------

    def _rebind(self, owners, attr, wrapper):
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _install_always(self):
        orig_solve_once = cli.solve_once
        orig_minres = cli.minres
        orig_estimate = cli.estimate_memory_gb

        def solve_once(spec, tol):
            self.collect_garbage()
            self.new_solve({"p": spec.degree, "level": spec.level,
                            "alpha": spec.alpha, "tol": tol})
            try:
                row = self.call("cli.solve_once", orig_solve_once, spec, tol)
            finally:
                self.end_solve()
            return row

        def minres(apply_a, apply_pinv, b, x0=None, config=None):
            a_op, pinv_op = apply_a, apply_pinv
            if self.tracing:
                def a_op(v):
                    return self.call("krylov.A_apply", apply_a, v)

                def pinv_op(v):
                    return self.call("precond.apply_inverse", apply_pinv, v)
            t0 = time.perf_counter()
            x, report = self.call("krylov.minres", orig_minres, a_op, pinv_op,
                                  b, x0=x0, config=config)
            t1 = time.perf_counter()
            with self.region("bench.check"):
                start = np.zeros_like(b) if x0 is None else x0
                relres = float(np.linalg.norm(b - apply_a(x)) /
                               np.linalg.norm(b - apply_a(start)))
            self.untimed_s += time.perf_counter() - t1
            if self._current is not None:
                self._current.update(
                    minres_s=t1 - t0, dim=int(b.shape[0]),
                    iterations=report.iterations, converged=report.converged,
                    true_relres=relres)
            return x, report

        def estimate_memory_gb(spec):
            gb = self.call("cli.estimate_memory_gb", orig_estimate, spec)
            self.estimates.append(gb)
            return gb

        self._rebind((cli,), "solve_once", solve_once)
        self._rebind((cli,), "minres", minres)
        self._rebind((cli,), "estimate_memory_gb", estimate_memory_gb)
        self._always = len(self._saved)

    def start_tracing(self):
        """Rebind every traced layer function; undone by `stop_tracing`."""
        for name, (owners, attr) in TRACED.items():
            self._rebind(owners, attr, self._traced(name, getattr(owners[0], attr)))
        self.tracing = True

    def stop_tracing(self):
        while len(self._saved) > self._always:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.tracing = False

    def _traced(self, name, original):
        counter, size = RESULT_COUNTERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                self.counters[counter] = self.counters.get(counter, 0) + size(result)
            return result
        wrapper.__name__ = original.__name__
        return wrapper


def layer_summary(spans):
    """Per-span-name call counts and inclusive seconds, and per-layer self time.

    A span's self time is its duration minus its direct children's; spans
    nest strictly because the solve is single-threaded Python.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    calls, seconds, self_s = {}, {}, {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_s[i]
    return calls, seconds, self_s


def nested_seconds(spans, name, parent_name):
    """Inclusive seconds of spans called `name` whose parent is `parent_name`."""
    return sum(end - start for n, start, end, parent, _ in spans
               if n == name and parent is not None
               and spans[parent][0] == parent_name)
