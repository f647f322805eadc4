"""Workloads and the measuring loop of the solver benchmark.

A run builds the workload's instances with `problems.build`, scales each
start point by 1 + u * 1e-13 with u drawn from the run's seed, and solves
them with `bench.run_solver` and `bench.save_results`, the path the
`ripm-bench run` command takes.  It repeats whole rounds of the same solves
until the requested seconds have passed, checks every solve against the
benchmark's own computations (see checks.py), and reports medians over the
rounds, with times scaled to a reference host speed (see `HostSpeed`).  With
tracing on, each round runs under a `Tracer` and the result holds the
per-layer metrics instead.
"""
from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ripm import bench, problems

from . import checks
from .tracer import Tracer, span_cost

OUT_DIR = Path(__file__).resolve().parent / "out"
X0_JITTER = 1e-13
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 200
# time of the host-speed kernel at the reference speed, and how many times
# it runs before each solve and each batch of builds
KERNEL_REF_S = 0.0054
KERNEL_SAMPLES = 5


class HostSpeed:
    """Host speed, from a fixed kernel timed between solves.

    The same code runs up to 1.8 times slower on a shared host from one
    minute to the next.  The kernel mixes what the solves do: Python float
    arithmetic, numpy calls on 512-vectors and passes over 1e5-vectors.
    `scale` turns a wall time into seconds at the speed where the kernel
    takes KERNEL_REF_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((200, 512))
        self._v = rng.standard_normal(512)
        self._big = rng.standard_normal(100_000)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(20_000):
            acc += (i % 7) * 0.5 - acc * 1e-9
        for _ in range(100):
            w = self._A @ self._v
            u = np.maximum(self._v - 0.1, 0.0)
            acc += float(u @ u) + float(w[0])
        for _ in range(5):
            b = np.minimum(np.maximum(self._big, -1.0), 1.0)
            acc += float(b @ self._big)
        return acc

    def sample(self) -> None:
        for _ in range(KERNEL_SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return KERNEL_REF_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Workload:
    family: str
    params: dict
    solvers: tuple
    budget: int
    seeds: tuple
    tiny: dict  # parameters of the warm-up instance


WORKLOADS = {
    "qp-paper": Workload("qp", problems.PAPER_SCALE["qp"], bench.SOLVER_NAMES, 30, (0,),
                         {"n": 60, "p": 0.05}),
    "fh-ode": Workload("fh", {}, ("TR-R2", "RIPM-R2"), 1000, (0,), {}),
    "bpdn-seeds": Workload("bpdn", {}, bench.SOLVER_NAMES, 1000, tuple(range(6)),
                           {"m": 12, "n": 24, "n_spikes": 2}),
}

END_TO_END = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("n_f", "count"),
              ("n_grad", "count"), ("n_prox", "count"), ("obj_drop", "1")]
COUNTERS = ("n_f", "n_grad", "n_prox", "obj_drop")

# (span name, metric for its call count, metric for its self time)
_SPAN_METRICS = [
    ("problems.value", "problems.value_calls", "problems.value_s"),
    ("problems.value_refused", "problems.value_refused", None),
    ("problems.grad", "problems.grad_calls", "problems.grad_s"),
    ("regprox.prox", "regprox.prox_calls", "regprox.prox_s"),
    ("regprox.box", "regprox.box_calls", "regprox.box_s"),
    ("regprox.hvalue", "regprox.hvalue_calls", "regprox.hvalue_s"),
    ("qnops.apply", "qnops.apply_calls", "qnops.apply_s"),
    ("qnops.update", "qnops.update_calls", "qnops.update_s"),
    ("qnops.norm", "qnops.norm_calls", "qnops.norm_s"),
    ("oracles.model", "oracles.model_calls", "oracles.model_s"),
    ("r2.sub", "r2.sub_calls", "r2.sub_s"),
    ("trust_region", None, "trust_region.s"),
    ("interior", None, "interior.s"),
    ("bench.save", None, "bench.save_s"),
]
_TRACER_COUNTS = ["regprox.prox_elems", "r2.sub_iters", "r2.sub_cap_hits", "r2.sub_rejected",
                  "trust_region.iters", "trust_region.rejected", "interior.stages",
                  "interior.inner_iters", "interior.rejected", "interior.inner_cap_exits"]
PER_LAYER = sorted(
    [(m, "count") for _, m, _ in _SPAN_METRICS if m]
    + [(m, "s") for _, _, m in _SPAN_METRICS if m]
    + [(m, "count") for m in _TRACER_COUNTS]
    + [("qnops.norm_applies", "count"), ("bench.save_bytes", "B"),
       ("trace.overhead_s", "s"), ("trace.other_s", "s")])


def time_builds(w: Workload, problem_seeds, speed: HostSpeed):
    """Build the workload's instances SETUP_MIN_REPS times and until
    SETUP_MIN_S has passed; return the last build and the time of each."""
    speed.sample()
    times = []
    while (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S) \
            and len(times) < SETUP_MAX_REPS:
        t0 = time.perf_counter()
        insts = [problems.build(w.family, s, **w.params) for s in problem_seeds]
        times.append(time.perf_counter() - t0)
    return insts, times


def jitter(insts, seed: int) -> None:
    """Scale each start point by 1 + u * X0_JITTER, u uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    for inst in insts:
        inst.x0 = inst.x0 * (1.0 + X0_JITTER * rng.uniform(-1.0, 1.0))


def warm_up(w: Workload) -> None:
    """Import paths, caches and every solver once, on a tiny instance."""
    inst = problems.build(w.family, 0, **w.tiny)
    for name in w.solvers:
        bench.run_solver(name, inst, 3)
    checks.objective(inst, inst.x0)


@dataclass
class Round:
    metrics: dict
    attempted: int
    failures: list  # (solve label, message)

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures})


def run_round(w: Workload, insts, refs, out_dir: Path, speed: HostSpeed) -> Round:
    """Solve and save every instance once; time only the program's calls."""
    solve_s = 0.0
    save_bytes = 0
    done = []  # (instance, [(solver, report or None, error)])
    for inst in insts:
        config = bench.RunConfig(problem=inst.to_config(),
                                 solvers=[{"name": s, "options": {}} for s in w.solvers],
                                 budget=w.budget)
        rows, reports = [], []
        for name in w.solvers:
            speed.sample()
            t0 = time.perf_counter()
            try:
                rep = bench.run_solver(name, inst, w.budget)
                err = None
            except Exception as exc:  # a raising solve is a failed operation
                rep, err = None, f"{type(exc).__name__}: {exc}"
            solve_s += time.perf_counter() - t0
            rows.append((name, rep, err))
            if rep is not None:
                reports.append(rep)
        if reports:
            t0 = time.perf_counter()
            saved = bench.save_results(config, inst, reports,
                                       out_dir / f"{inst.name}-{inst.seed}")
            solve_s += time.perf_counter() - t0
            save_bytes += sum(p.stat().st_size for p in saved.iterdir())
        done.append((inst, rows))

    failures = []
    totals = dict.fromkeys(COUNTERS, 0)
    attempted = 0
    for (inst, rows), (F0, ref) in zip(done, refs):
        objectives = []
        for name, rep, err in rows:
            attempted += 1
            label = f"{inst.name}-{inst.seed}/{name}"
            if rep is None:
                failures.append((label, err))
                continue
            fails = checks.check_solve(inst, rep, w.budget, F0, ref)
            if inst.name == "fh":
                fails += checks.check_fh_solution(inst, rep.x)
            failures += [(label, f) for f in fails]
            F = checks.objective(inst, rep.x)
            objectives.append(F)
            totals["n_f"] += rep.n_f
            totals["n_grad"] += rep.n_grad
            totals["n_prox"] += rep.n_prox
            totals["obj_drop"] += F0 - F
        if inst.name == "fh":
            failures += [(f"{inst.name}-{inst.seed}/{name}", f)
                         for f in checks.check_agreement(objectives) for name, _, _ in rows]
    return Round({"solve_s": solve_s, "save_bytes": save_bytes, **totals}, attempted, failures)


def layer_metrics(tracer: Tracer, rnd: Round):
    """Per-layer metrics of one traced round, and reconciliation faults."""
    totals, norm_applies = tracer.layer_totals()
    out = {m: tracer.counts[m] for m in _TRACER_COUNTS}
    for span, calls, secs in _SPAN_METRICS:
        n, s = totals.get(span, (0, 0.0))
        if calls:
            out[calls] = n
        if secs:
            out[secs] = s
    out["qnops.norm_applies"] = norm_applies
    out["bench.save_bytes"] = rnd.metrics["save_bytes"]
    out["trace.overhead_s"] = len(tracer) * span_cost()
    # what no layer above accounts for: dispatch in run_solver, the R2
    # baseline's own loop and the gaps between spans
    out["trace.other_s"] = rnd.metrics["solve_s"] - sum(out[m] for _, _, m in _SPAN_METRICS if m)
    # the traced counts must reproduce the solvers' own counters
    faults = [f"{layer} {out[layer]} != {counter} {rnd.metrics[counter]}"
              for layer, counter in (("problems.value_calls", "n_f"),
                                     ("problems.grad_calls", "n_grad"),
                                     ("regprox.prox_calls", "n_prox"))
              if out[layer] != rnd.metrics[counter]]
    return out, faults


def run(w: Workload, out_dir: Path, seed: int, seconds: float, trace: bool,
        problem_seeds=None):
    """One benchmark run of `w`, saving the program's results under `out_dir`.

    Returns the result object that run.py prints last, with exactly the keys
    correct, attempted, failed and metrics; the messages behind any failure;
    and notes on the run, such as its unscaled wall times.
    """
    problem_seeds = tuple(w.seeds if problem_seeds is None else problem_seeds)
    speed = HostSpeed()
    warm_up(w)
    insts, setup_times = time_builds(w, problem_seeds, speed)
    jitter(insts, seed)
    # F(x0) and the bpdn optimum of each instance, outside every timed interval
    refs = [(checks.objective(inst, inst.x0),
             checks.bpdn_reference(inst) if inst.name == "bpdn" else None) for inst in insts]

    rounds, layers, faults = [], [], []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        if trace:
            tracer = Tracer()
            with tracer.installed():
                rnd = run_round(w, insts, refs, out_dir, speed)
            lm, lf = layer_metrics(tracer, rnd)
            layers.append(lm)
            faults += lf
        else:
            rnd = run_round(w, insts, refs, out_dir, speed)
        rounds.append(rnd)
    if trace:
        tracer.save(out_dir / "spans.npz")
    # builds are timed again after the rounds: the host's speed drifts over
    # seconds, and one batch would sample a single moment of it
    del insts
    setup_times += time_builds(w, problem_seeds, speed)[1]

    # whole rounds repeat the same solves on the same inputs, so every
    # counter must come out the same in each of them
    faults += [f"{key} differs between rounds" for key in COUNTERS
               if len({r.metrics[key] for r in rounds}) > 1]
    failed = sum(r.failed for r in rounds)
    notes = [f"{len(rounds)} round(s)"]
    if trace:
        metrics = {m: statistics.median(lm[m] for lm in layers) for m, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        metrics = {k: rounds[0].metrics[k] for k in COUNTERS}
        metrics["solve_s"] = statistics.median(r.metrics["solve_s"] for r in rounds)
        metrics["setup_s"] = statistics.median(setup_times)
        notes.append(f"wall time: solve {metrics['solve_s']!r} s, setup {metrics['setup_s']!r} s; "
                     f"host-speed kernel {statistics.median(speed.samples)!r} s "
                     f"(reference {KERNEL_REF_S} s)")
        metrics["solve_s"] *= speed.scale()
        metrics["setup_s"] *= speed.scale()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    result = {
        "correct": not faults and not failed,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    messages = faults + [f"round {i}: {label}: {msg}"
                         for i, r in enumerate(rounds) for label, msg in r.failures]
    return result, messages, notes
