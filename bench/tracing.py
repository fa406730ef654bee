"""Spans and counters around the package's public functions, recorded from outside.

``instrument`` rebinds names where the pipeline looks them up (the module that
imported a function, or a class attribute) with wrappers that open a span per
call; ``Tracer.restore`` puts the originals back.  No package source changes.

A span is (id, name, start_ns, end_ns, parent_id, run_id).  Spans are kept in
memory and written out at the end.  A name's ``.s`` metric is the summed time
inside its calls, ``.self_s`` that time minus the time of its child spans.
Counters are derived from the wrapped calls' arguments, results and errors.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import Counter, defaultdict

import vfcontrol.evaluate
import vfcontrol.explore
import vfcontrol.hermite
import vfcontrol.openloop
import vfcontrol.riccati
import vfcontrol.vkoga
from vfcontrol.hermite import HermiteOperator, Surrogate
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.numerics import CgError, IvpFailure
from vfcontrol.openloop import BvpFailure


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple] = []
        # warm-start bookkeeping: set by solve_open_loop, settled by the first solve_pmp
        self.warm_pending = False
        # set when integrate_ivp raises inside the current closed-loop rollout
        self.rollout_ivp_failed = False

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._open_names[name] += 1
        return sid, name, parent, time.perf_counter_ns()

    def close(self, token: tuple) -> None:
        end = time.perf_counter_ns()
        sid, name, parent, start = token
        self._stack.pop()
        self._open_names[name] -= 1
        self.spans.append((sid, name, start, end, parent, self.run_id))

    def inside(self, name: str) -> bool:
        return self._open_names[name] > 0

    def wrap(self, owner, attr: str, name, before=None, after=None, on_error=None) -> None:
        """Rebind ``owner.attr`` to a wrapper that records a span per call.

        ``name`` is a string or a callable returning one at call time.
        ``before(args, kwargs)``, ``after(result, args, kwargs)`` and
        ``on_error(err, args, kwargs)`` update counters; the error is
        re-raised unchanged.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            token = tracer.open(name() if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                tracer.close(token)
                if on_error is not None:
                    on_error(err, args, kwargs)
                raise
            tracer.close(token)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_ns[sid]
        return {
            name: {"calls": calls[name], "s": total[name] * 1e-9, "self_s": own[name] * 1e-9}
            for name in calls
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "run_id"])
            out.writerows(sorted(self.spans))


def matvec_cost(n: int, dim: int, structured: bool) -> tuple[int, int]:
    """Computed (flops, bytes) of one ``HermiteOperator.matvec`` on n centers in dimension dim.

    Counted from the contractions in ``hermite._apply_cached``: each n x n by
    n x dim product is 2 n^2 dim flops (4 of them plain, 9 structured), each
    n x n matrix-vector product 2 n^2, and each elementwise pass over an
    n x n table n^2.  Bytes assume
    every cached n x n table is read once, every n x n temporary is written
    and read once, and the centers, input and output vectors move once, all
    in float64.  Cache misses are ignored, so these are computed, not
    measured, traffic.
    """
    nn = n * n
    if structured:
        flops = 18 * nn * dim + 16 * nn
        tables, temps = 6, 8
    else:
        flops = 8 * nn * dim + 11 * nn
        tables, temps = 3, 3
    bytes_moved = 8 * ((tables + 2 * temps) * nn + 2 * n * dim + 2 * n * (1 + dim))
    return flops, bytes_moved


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-module metrics need."""
    c = tracer.counters
    openloop = vfcontrol.openloop
    evaluate = vfcontrol.evaluate

    # models: the optimality-system right-hand side, as collocation calls it
    def rhs_rows(_result, args, _kwargs):
        z = args[1]
        c["models.pmp_rhs.rows"] += z.size // z.shape[-1]

    tracer.wrap(openloop, "pmp_rhs", "models.pmp_rhs", after=rhs_rows)
    tracer.wrap(vfcontrol.riccati, "quadratic_matrix", "riccati.quadratic_matrix")

    # openloop; explore imported solve_open_loop, so it is rebound there
    def open_loop_start(args, kwargs):
        if kwargs.get("warm", args[4] if len(args) > 4 else None) is not None:
            c["explore.warm_attempts"] += 1
            tracer.warm_pending = True

    def open_loop_done(result, _args, _kwargs):
        c["openloop.refine_rounds"] += result.refine_rounds

    def pmp_done(result, _args, _kwargs):
        c["openloop.newton_iterations"] += result.newton_iterations
        if tracer.warm_pending:
            c["explore.warm_hits"] += 1
            tracer.warm_pending = False

    def pmp_failed(err, _args, _kwargs):
        if isinstance(err, BvpFailure):
            c["openloop.solve_pmp.failures"] += 1
            c["openloop.newton_iterations"] += err.iterations
        tracer.warm_pending = False

    tracer.wrap(
        vfcontrol.explore, "solve_open_loop", "openloop.solve_open_loop", before=open_loop_start, after=open_loop_done
    )
    tracer.wrap(openloop, "solve_pmp", "openloop.solve_pmp", after=pmp_done, on_error=pmp_failed)
    tracer.wrap(openloop, "bvp_residual", "openloop.bvp_residual")
    tracer.wrap(openloop, "splu", "openloop.splu")
    tracer.wrap(openloop, "initial_guess", "openloop.initial_guess")

    # explore
    def explored(result, _args, _kwargs):
        c["explore.trajectories"] += result.n_trajectories
        c["explore.samples"] += result.n_samples
        c["explore.quarantined"] += len(result.meta["quarantined"])

    tracer.wrap(vfcontrol.explore, "run_exploration", "explore.run_exploration", after=explored)
    tracer.wrap(vfcontrol.explore, "solve_testset", "explore.solve_testset")

    # kernels and hermite
    def profiled(_result, args, _kwargs):
        c["kernels.WendlandC4.profile.pairs"] += getattr(args[1], "size", 1)

    def matvec_done(_result, args, _kwargs):
        op = args[0]
        flops, nbytes = matvec_cost(op.n, op.dim, isinstance(op.kernel, StructuredKernel))
        c["hermite.HermiteOperator.matvec.flops_computed"] += flops
        c["hermite.HermiteOperator.matvec.bytes_computed"] += nbytes

    tracer.wrap(WendlandC4, "profile", "kernels.WendlandC4.profile", after=profiled)
    tracer.wrap(HermiteOperator, "__init__", "hermite.HermiteOperator")
    tracer.wrap(HermiteOperator, "matvec", "hermite.HermiteOperator.matvec", after=matvec_done)
    tracer.wrap(vfcontrol.vkoga, "fit", "hermite.fit")

    def scan_name():
        if tracer.inside("vkoga.run_vkoga"):
            return "vkoga.scan"
        if tracer.inside("evaluate.simulate_feedback"):
            return "evaluate.rhs"
        return "hermite.Surrogate.value_and_gradient"

    tracer.wrap(Surrogate, "value_and_gradient", scan_name)

    # numerics
    def cg_done(result, _args, _kwargs):
        c["numerics.cg_solve.iterations"] += result.iterations
        c["numerics.cg_solve.iterations_last"] = result.iterations

    def cg_failed(err, _args, _kwargs):
        if isinstance(err, CgError):
            c["numerics.cg_solve.iterations"] += err.iterations

    def ivp_failed(err, _args, _kwargs):
        if isinstance(err, IvpFailure):
            c["numerics.integrate_ivp.failures"] += 1
            if tracer.inside("evaluate.simulate_feedback"):
                tracer.rollout_ivp_failed = True

    tracer.wrap(vfcontrol.hermite, "cg_solve", "numerics.cg_solve", after=cg_done, on_error=cg_failed)
    tracer.wrap(openloop, "integrate_ivp", "numerics.integrate_ivp", on_error=ivp_failed)
    tracer.wrap(evaluate, "integrate_ivp", "numerics.integrate_ivp", on_error=ivp_failed)

    # vkoga
    def selected(result, _args, _kwargs):
        c["vkoga.steps"] += len(result.steps)

    tracer.wrap(vfcontrol.vkoga, "run_vkoga", "vkoga.run_vkoga", after=selected)

    # evaluate: ClosedLoopRun.escaped covers both a radius escape and an
    # integrator failure; the integrate_ivp wrapper tells them apart
    def rolled_out(result, _args, _kwargs):
        if tracer.rollout_ivp_failed:
            c["evaluate.integrator_failures"] += 1
        elif result.escaped:
            c["evaluate.escaped"] += 1
        tracer.rollout_ivp_failed = False

    tracer.wrap(evaluate, "simulate_feedback", "evaluate.simulate_feedback", after=rolled_out)
