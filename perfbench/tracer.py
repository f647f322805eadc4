"""Per-layer spans recorded by wrapping the solver stack's public functions.

`Tracer.installed()` replaces each traced function in every namespace that
binds it (names imported with ``from .x import f`` are bound again in the
importing module) and restores the originals on exit.  Each call records a
span: its name, start, end and the index of the enclosing span.  Spans are
kept in flat in-memory arrays and written out by `save`.  A layer's time is
self time: a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

from ripm import bench, interior, oracles, qnops, regprox, trust_region
from ripm.errors import BudgetExhausted
from ripm.report import MAX_ITER

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._ids: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, after=None, refused: str | None = None):
        """Return `fn` wrapped to record one span per call.

        `after(args, result)` runs once the span has closed, to count work
        from the arguments or the returned value.  With `refused`, a call
        that raises BudgetExhausted is recorded under that name instead.
        """
        nid = self._id(name)
        rid = self._id(refused) if refused else nid
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BudgetExhausted:
                name_id[i] = rid
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installation ---------------------------------------------------------
    def _targets(self):
        """(owner, attribute, span name, keyword arguments of `wrap`)."""
        c = self.counts

        def prox_elems(args, out):
            c["regprox.prox_elems"] += out.size

        def r2_sub(args, rep):
            c["r2.sub_iters"] += rep.n_prox
            c["r2.sub_cap_hits"] += rep.termination == MAX_ITER
            c["r2.sub_rejected"] += sum(not d["accepted"] for d in rep.diagnostics["iters"])

        def tr(args, rep):
            c["trust_region.iters"] += len(rep.diagnostics["iters"])
            c["trust_region.rejected"] += sum(not d["accepted"] for d in rep.diagnostics["iters"])

        def outer(args, rep):
            recs = rep.diagnostics["inner"]
            c["interior.stages"] += rep.diagnostics["stages"]
            c["interior.inner_iters"] += len(recs)
            # a record with s_inf == 0 is a model-stationary refresh, not a trial step
            c["interior.rejected"] += sum(r["exit"] is None and not r["accepted"]
                                          and r["s_inf"] > 0 for r in recs)

        def inner(args, res):
            c["interior.inner_cap_exits"] += res.status == "cap"

        # the model oracle comes first, so that it wraps the untraced
        # SmoothOracle methods it inherits
        targets = [
            (oracles.QuadModelOracle, "value", "oracles.model", {}),
            (oracles.QuadModelOracle, "grad", "oracles.model", {}),
            (oracles.SmoothOracle, "value", "problems.value",
             {"refused": "problems.value_refused"}),
            (oracles.SmoothOracle, "grad", "problems.grad", {}),
            (regprox, "iprox_shifted", "regprox.prox", {"after": prox_elems}),
            (regprox.Box, "ball", "regprox.box", {}),
            (regprox.Box, "shifted", "regprox.box", {}),
            (interior, "intersect_boxes", "regprox.box", {}),
            (trust_region, "intersect_boxes", "regprox.box", {}),
            (interior, "fraction_to_boundary_box", "regprox.box", {}),
            (regprox.Regularizer, "value", "regprox.hvalue", {}),
            (interior, "r2_solve", "r2.sub", {"after": r2_sub}),
            (trust_region, "r2_solve", "r2.sub", {"after": r2_sub}),
            (bench, "r2_solve", "r2.solve", {}),
            (bench, "tr_solve", "trust_region", {"after": tr}),
            (bench, "trdh_solve", "trust_region", {"after": tr}),
            (bench, "outer_solve", "interior", {"after": outer}),
            (interior, "inner_solve", "interior", {"after": inner}),
            (interior, "barrier_value", "interior", {}),
            (interior, "crossover", "interior", {}),
            (bench, "run_solver", "bench.run_solver", {}),
            (bench, "save_results", "bench.save", {}),
        ]
        for op in (qnops.LBFGS, qnops.LSR1, qnops.SpectralDiag):
            targets += [(op, "apply", "qnops.apply", {}),
                        (op, "update", "qnops.update", {}),
                        (op, "norm_estimate", "qnops.norm", {})]
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the stack while the block runs."""
        saved = []
        try:
            for owner, attr, name, kw in self._targets():
                own = vars(owner).get(attr, _MISSING)
                saved.append((owner, attr, own))
                if isinstance(own, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, own.__func__, **kw)))
                else:
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))
            yield self
        finally:
            for owner, attr, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    # -- results --------------------------------------------------------------
    def arrays(self):
        """name ids, parent indices, and self and total durations in seconds."""
        # copies, so that the arrays stay free to grow
        names = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        inner = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return names, parent, dur - inner, dur

    def layer_totals(self):
        """{span name: (calls, self seconds)} and the applies made inside norms."""
        names, parent, self_s, _ = self.arrays()
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=self_s, minlength=len(self.names))
        totals = {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}
        norm = self._ids.get("qnops.norm", -1)
        apply_ = self._ids.get("qnops.apply", -1)
        # each sweep carries the mark "below a norm estimate" one level down
        # the span tree, until it no longer changes
        under = np.zeros(len(names), dtype=bool)
        has_parent = parent >= 0
        while True:
            nxt = has_parent & (under[parent] | (names[parent] == norm))
            if np.array_equal(nxt, under):
                break
            under = nxt
        return totals, int(np.count_nonzero(under & (names == apply_)))

    def save(self, path) -> None:
        names, parent, _, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parent, start=np.frombuffer(self.start).copy(),
                            end=np.frombuffer(self.end).copy())


def span_cost(n: int = 100_000) -> float:
    """Seconds one traced call adds over an untraced call, timed in-process."""
    def noop():
        return None

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(Tracer().wrap("noop", noop)) for _ in range(3))
    return max(traced - bare, 0.0) / n
