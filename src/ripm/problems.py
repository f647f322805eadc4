"""Benchmark problem generators with deterministic seeding.

Four families: a box-constrained sparse quadratic, sparse nonnegative matrix
factorization, parameter estimation for a two-state neuron activation ODE,
and nonnegative basis-pursuit denoising.  Instances are reproducible from
(name, seed, params); data arrays are never serialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import OracleFailure
from .oracles import SmoothOracle
from .regprox import Box, Regularizer

PAPER_SCALE = {
    "qp": {"n": 100_000, "p": 1e-4, "lam": 0.1},
    "nnmf": {"m": 100, "n": 50, "k": 5, "lam": 0.1},
    "fh": {"n_samples": 100, "lam": 10.0},
    "bpdn": {"m": 200, "n": 512, "n_spikes": 5},
}


@dataclass
class ProblemInstance:
    name: str
    smooth: SmoothOracle
    h: Regularizer
    bounds: Box
    x0: np.ndarray
    seed: int
    params: dict = field(default_factory=dict)
    x_star: np.ndarray | None = None

    def to_config(self) -> dict:
        """Reproducible description: seed and parameters, not data."""
        return {"name": self.name, "seed": self.seed, "params": dict(self.params)}


def build(name: str, seed: int = 0, **params) -> ProblemInstance:
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(_GENERATORS)}")
    return gen(seed=seed, **params)


def from_config(config: dict) -> ProblemInstance:
    return build(config["name"], seed=config.get("seed", 0), **config.get("params", {}))


# ---------------------------------------------------------------------------
# box-constrained quadratic


class QuadraticOracle(SmoothOracle):
    def __init__(self, H, c):
        super().__init__()
        self.H = H.tocsr()
        self.c = np.asarray(c, dtype=float)

    def _work(self, x):
        """The product H x."""
        return self.H @ x

    def _value(self, x):
        return float(self.c @ x + 0.5 * (x @ self._shared(x)))

    def _grad(self, x):
        return self.c + self._shared(x)


def gen_qp(n: int = 1000, p: float = 1e-2, lam: float = 0.1, seed: int = 0) -> ProblemInstance:
    """c^T x + x^T H x / 2 with H = A + A^T, A sparse standard normal at density p.

    Bounds are l = -e - t_l and u = e + t_u with t uniform on (0, 1); the l1
    weight defaults to 0.1 and the start is the box midpoint.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, not n = {n}")
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=p, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    H = (A + A.T).tocsr()
    c = rng.standard_normal(n)
    lo = -1.0 - rng.uniform(0.0, 1.0, size=n)
    hi = 1.0 + rng.uniform(0.0, 1.0, size=n)
    x0 = 0.5 * (lo + hi)
    return ProblemInstance(
        name="qp",
        smooth=QuadraticOracle(H, c),
        h=Regularizer("l1", lam),
        bounds=Box(lo, hi),
        x0=x0,
        seed=seed,
        params={"n": n, "p": p, "lam": lam},
    )


# ---------------------------------------------------------------------------
# sparse nonnegative matrix factorization


class NnmfOracle(SmoothOracle):
    """f(W, H) = ||A - W H||_F^2 / 2 on the stacked variable (vec W, vec H)."""

    def __init__(self, A, k):
        super().__init__()
        self.A = np.asarray(A, dtype=float)
        self.m, self.n = self.A.shape
        self.k = int(k)

    def _split(self, x):
        mk = self.m * self.k
        return x[:mk].reshape(self.m, self.k), x[mk:].reshape(self.k, self.n)

    def _work(self, x):
        """The residual W H - A."""
        W, H = self._split(x)
        return W @ H - self.A

    def _value(self, x):
        return 0.5 * float(np.linalg.norm(self._shared(x)) ** 2)

    def _grad(self, x):
        R = self._shared(x)
        W, H = self._split(x)
        return np.concatenate([(R @ H.T).ravel(), (W.T @ R).ravel()])


def gen_nnmf(m: int = 100, n: int = 50, k: int = 5, lam: float = 0.1,
             seed: int = 0) -> ProblemInstance:
    """Columns of A drawn from a Gaussian mixture, negatives zeroed.

    The l1 penalty applies to the H block only (the W block is unpenalized);
    all variables are bounded below by zero.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, not k = {k}")
    if not k < min(m, n):
        raise ValueError("need k < min(m, n)")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(k, m))
    labels = rng.integers(0, k, size=n)
    cols = centers[labels] + 0.1 * rng.standard_normal((n, m))
    A = np.maximum(cols.T, 0.0)
    dim = m * k + k * n
    weights = np.concatenate([np.zeros(m * k), np.ones(k * n)])
    x0 = rng.uniform(0.5, 1.5, size=dim)
    return ProblemInstance(
        name="nnmf",
        smooth=NnmfOracle(A, k),
        h=Regularizer("l1", lam, weights=weights),
        bounds=Box(np.zeros(dim), np.full(dim, np.inf)),
        x0=x0,
        seed=seed,
        params={"m": m, "n": n, "k": k, "lam": lam},
    )


# ---------------------------------------------------------------------------
# neuron activation ODE parameter estimation

FH_TRUE_PARAMS = np.array([0.0, 0.2, 1.0, 0.0, 0.0])
FH_T_FINAL = 20.0
FH_STATE0 = (2.0, 0.0)
FH_BLOWUP = 1e8
FH_RK4_STEPS = 2000


class FhOracle(SmoothOracle):
    """Least-squares misfit of the two-state activation model to sampled data.

        V' = (V - V^3/3 - W + x1) / x2,   W' = x2 (x3 V - x4 W + x5)

    Fixed-step RK4 on [0, T].  The gradient is the discrete adjoint of the
    same RK4 steps (Hager 2000), so it is the exact derivative of the
    discretized objective.  The work value and gradient share is the
    forward pass, so a gradient right after the value at the same x runs
    only the backward sweep.  The pass keeps the state after each step and
    the adjoint rebuilds each step's stages from it (checkpointing, Griewank
    & Walther 2000), with the forward pass's operations, so the gradient
    has the bits of one that kept every stage.  `gen_fh` sets the sampled
    data ``v_data`` and ``w_data`` after it simulates.
    """

    def __init__(self, n_samples: int):
        super().__init__()
        self.n_samples = int(n_samples)
        self.stride = max(1, int(round(FH_RK4_STEPS / self.n_samples)))
        self.n_steps = self.stride * self.n_samples
        self.dt = FH_T_FINAL / self.n_steps
        self.v_data = self.w_data = None

    def _work(self, x):
        """RK4 pass at x; the state after every step, sampled every stride steps.

        Raises _OdeBlowup once |V| or |W| reaches FH_BLOWUP; nothing is kept then.
        """
        x1, x2, x3, x4, x5 = (float(v) for v in x)
        dt = self.dt
        h = 0.5 * dt
        d6 = dt / 6.0
        top = FH_BLOWUP
        V, W = FH_STATE0
        sv, sw = [V], [W]
        add_v, add_w = sv.append, sw.append
        for _ in range(self.n_steps):
            k1v = (V - V * V * V / 3.0 - W + x1) / x2
            k1w = x2 * (x3 * V - x4 * W + x5)
            V2 = V + h * k1v
            W2 = W + h * k1w
            k2v = (V2 - V2 * V2 * V2 / 3.0 - W2 + x1) / x2
            k2w = x2 * (x3 * V2 - x4 * W2 + x5)
            V3 = V + h * k2v
            W3 = W + h * k2w
            k3v = (V3 - V3 * V3 * V3 / 3.0 - W3 + x1) / x2
            k3w = x2 * (x3 * V3 - x4 * W3 + x5)
            V4 = V + dt * k3v
            W4 = W + dt * k3w
            k4v = (V4 - V4 * V4 * V4 / 3.0 - W4 + x1) / x2
            k4w = x2 * (x3 * V4 - x4 * W4 + x5)
            V = V + d6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            W = W + d6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            # false for NaN and +-inf, as abs(V) < top is
            if not (-top < V < top and -top < W < top):
                raise _OdeBlowup
            add_v(V)
            add_w(W)
        v = np.array(sv)
        w = np.array(sw)
        return _Trajectory(v, w, v[::self.stride], w[::self.stride])

    def simulate(self, params):
        """States sampled at the n_samples + 1 data times."""
        traj = self._shared(params)
        return traj.vs.copy(), traj.ws.copy()

    def _value(self, x):
        try:
            traj = self._shared(x)
        except _OdeBlowup:
            return np.inf
        return 0.5 * (float(np.sum((traj.vs - self.v_data) ** 2))
                      + float(np.sum((traj.ws - self.w_data) ** 2)))

    def _grad(self, x):
        """Discrete adjoint of `_work`'s RK4 steps, from the states it kept.

        The stage points are rebuilt from each step's start state with the
        forward formulas, all steps at once, so they are the forward pass's
        bits.  The scalar sweep runs the steps backwards and keeps only the
        adjoint (lv, lw) that each step hands its stages; the stage weights
        dJ/dk are then rebuilt from those with the sweep's formulas, all steps
        at once.  Arrays over stage points hold step j's four in row j.
        """
        try:
            traj = self._shared(x)
        except _OdeBlowup:
            raise OracleFailure("state blow-up during the forward pass") from None
        x1, x2, x3, x4, x5 = (float(v) for v in x)
        dt = self.dt
        h = 0.5 * dt
        d6 = dt / 6.0
        d3 = dt / 3.0
        r = 1.0 / x2
        nr = -r
        c3 = x2 * x3
        c4 = x2 * x4
        shape = (self.n_steps, 4)
        V, W = np.empty(shape), np.empty(shape)
        num, q = np.empty(shape), np.empty(shape)  # V' = num / x2, W' = x2 q
        v0, w0 = traj.v[:-1], traj.w[:-1]  # the state each step starts from
        Vi, Wi = v0, w0
        for i, c in enumerate((h, h, dt, None)):
            V[:, i], W[:, i] = Vi, Wi
            num[:, i] = Vi - Vi * Vi * Vi / 3.0 - Wi + x1
            q[:, i] = x3 * Vi - x4 * Wi + x5
            if c is not None:
                Vi = v0 + c * (num[:, i] / x2)
                Wi = w0 + c * (x2 * q[:, i])
        # transposed stage Jacobian [[a, c3], [-r, -c4]] with a = dfV/dV
        a = (1.0 - V * V) * r
        rv = (traj.vs - self.v_data).tolist()
        rw = (traj.ws - self.w_data).tolist()
        steps = iter(a[::-1].tolist())  # (a1, a2, a3, a4) of each step, last step first
        lvs, lws = [], []  # the adjoint each step hands its stages, last step first
        add_lv, add_lw = lvs.append, lws.append
        lv = lw = 0.0  # adjoint dJ/d(V, W) of the current state
        for isamp in range(self.n_samples, 0, -1):
            lv += rv[isamp]
            lw += rw[isamp]
            for a1, a2, a3, a4 in islice(steps, self.stride):
                add_lv(lv)
                add_lw(lw)
                b4v = d6 * lv
                b4w = d6 * lw
                e3v = d3 * lv
                e3w = d3 * lw
                y4v = a4 * b4v + c3 * b4w
                y4w = nr * b4v - c4 * b4w
                b3v = e3v + dt * y4v
                b3w = e3w + dt * y4w
                y3v = a3 * b3v + c3 * b3w
                y3w = nr * b3v - c4 * b3w
                b2v = e3v + h * y3v
                b2w = e3w + h * y3w
                y2v = a2 * b2v + c3 * b2w
                y2w = nr * b2v - c4 * b2w
                b1v = b4v + h * y2v
                b1w = b4w + h * y2w
                lv += y4v + y3v + y2v + a1 * b1v + c3 * b1w
                lw += y4w + y3w + y2w - r * b1v - c4 * b1w
        # the stage weights dJ/dk, as the sweep formed them
        lv = np.array(lvs[::-1])
        lw = np.array(lws[::-1])
        _, a2, a3, a4 = a.T
        b4v = d6 * lv
        b4w = d6 * lw
        e3v = d3 * lv
        e3w = d3 * lw
        b3v = e3v + dt * (a4 * b4v + c3 * b4w)
        b3w = e3w + dt * (nr * b4v - c4 * b4w)
        b2v = e3v + h * (a3 * b3v + c3 * b3w)
        b2w = e3w + h * (nr * b3v - c4 * b3w)
        b1v = b4v + h * (a2 * b2v + c3 * b2w)
        b1w = b4w + h * (nr * b2v - c4 * b2w)
        bv = np.column_stack((b1v, b2v, b3v, b4v)).ravel()
        bw = np.column_stack((b1w, b2w, b3w, b4w)).ravel()
        V, W, q = V.ravel(), W.ravel(), q.ravel()
        fv = num.ravel() * r  # parameter Jacobian of the right-hand side at each stage point
        return np.array([float(bv.sum()) * r,
                         float(bw @ q) - float(bv @ fv) * r,
                         x2 * float(bw @ V),
                         -x2 * float(bw @ W),
                         x2 * float(bw.sum())])


class _Trajectory(NamedTuple):
    v: np.ndarray  # the start state, then the state after each of the n_steps steps
    w: np.ndarray
    vs: np.ndarray  # views of v and w at the n_samples + 1 data times
    ws: np.ndarray


class _OdeBlowup(Exception):
    pass


def gen_fh(n_samples: int = 100, lam: float = 10.0, seed: int = 0,
           noise_std: float = 0.1) -> ProblemInstance:
    """Five-parameter ODE fit with an l0 penalty and the single bound x2 >= 0.5.

    Data are sampled from the model at the reference parameters (0, 0.2, 1,
    0, 0) plus N(0, noise_std^2) observation noise; the bound excludes the
    data-generating x2, so the fitted optimum sits on the boundary.  The
    start is 0.5 everywhere except x2 = 1 (strictly interior).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    oracle = FhOracle(n_samples)
    vs, ws = oracle.simulate(FH_TRUE_PARAMS)
    if noise_std:
        rng = np.random.default_rng(seed)
        vs = vs + noise_std * rng.standard_normal(vs.size)
        ws = ws + noise_std * rng.standard_normal(ws.size)
    oracle.v_data, oracle.w_data = vs, ws
    lo = np.array([-np.inf, 0.5, -np.inf, -np.inf, -np.inf])
    hi = np.full(5, np.inf)
    return ProblemInstance(
        name="fh",
        smooth=oracle,
        h=Regularizer("l0", lam),
        bounds=Box(lo, hi),
        x0=np.array([0.5, 1.0, 0.5, 0.5, 0.5]),
        seed=seed,
        params={"n_samples": n_samples, "lam": lam,
                **({"noise_std": noise_std} if noise_std != 0.1 else {})},
    )


# ---------------------------------------------------------------------------
# nonnegative basis-pursuit denoising


class BpdnOracle(SmoothOracle):
    def __init__(self, A, b):
        super().__init__()
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def _work(self, x):
        """The residual A x - b."""
        return self.A @ x - self.b

    def _value(self, x):
        r = self._shared(x)
        return 0.5 * float(r @ r)

    def _grad(self, x):
        return self.A.T @ self._shared(x)


def gen_bpdn(m: int = 200, n: int = 512, n_spikes: int = 5, seed: int = 0,
             noise_std: float = 0.01) -> ProblemInstance:
    """Orthonormal-row sensing matrix, spike signal, Gaussian noise.

    The observation noise scale N(0, 0.01) is read as a standard deviation;
    pass ``noise_std=0.1`` for the variance reading.  lam is fixed to
    ||A^T b||_inf / 10 and the variables are bounded below by zero.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, not m = {m}")
    if not m < n:
        raise ValueError("need m < n")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, m))
    Q, _ = np.linalg.qr(G)
    A = Q.T  # m x n with orthonormal rows
    x_star = np.zeros(n)
    x_star[rng.choice(n, size=n_spikes, replace=False)] = 1.0
    b = A @ x_star + float(noise_std) * rng.standard_normal(m)
    lam = float(np.max(np.abs(A.T @ b)) / 10.0)
    return ProblemInstance(
        name="bpdn",
        smooth=BpdnOracle(A, b),
        h=Regularizer("l1", lam),
        bounds=Box(np.zeros(n), np.full(n, np.inf)),
        x0=np.ones(n),
        seed=seed,
        params={"m": m, "n": n, "n_spikes": n_spikes,
                **({"noise_std": noise_std} if noise_std != 0.01 else {})},
        x_star=x_star,
    )


_GENERATORS = {"qp": gen_qp, "nnmf": gen_nnmf, "fh": gen_fh, "bpdn": gen_bpdn}
