"""Benchmark problem generators with deterministic seeding.

Four families: a box-constrained sparse quadratic, sparse nonnegative matrix
factorization, parameter estimation for a two-state neuron activation ODE,
and nonnegative basis-pursuit denoising.  Instances are reproducible from
(name, seed, params); data arrays are never serialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def _value(self, x):
        return float(self.c @ x + 0.5 * (x @ (self.H @ x)))

    def _grad(self, x):
        return self.c + self.H @ x


def gen_qp(n: int = 1000, p: float = 1e-2, lam: float = 0.1, seed: int = 0) -> ProblemInstance:
    """c^T x + x^T H x / 2 with H = A + A^T, A sparse standard normal at density p.

    Bounds are l = -e - t_l and u = e + t_u with t uniform on (0, 1); the l1
    weight defaults to 0.1 and the start is the box midpoint.
    """
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

    def _value(self, x):
        W, H = self._split(x)
        return 0.5 * float(np.linalg.norm(self.A - W @ H) ** 2)

    def _grad(self, x):
        W, H = self._split(x)
        R = W @ H - self.A
        return np.concatenate([(R @ H.T).ravel(), (W.T @ R).ravel()])


def gen_nnmf(m: int = 100, n: int = 50, k: int = 5, lam: float = 0.1,
             seed: int = 0) -> ProblemInstance:
    """Columns of A drawn from a Gaussian mixture, negatives zeroed.

    The l1 penalty applies to the H block only (the W block is unpenalized);
    all variables are bounded below by zero.
    """
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

    Fixed-step RK4 on [0, T]; gradients integrate the forward sensitivity
    system jointly with the state on the same grid, so they are the exact
    derivatives of the discretized objective.
    """

    def __init__(self, n_samples: int, v_data=None, w_data=None):
        super().__init__()
        self.n_samples = int(n_samples)
        self.stride = max(1, int(round(FH_RK4_STEPS / self.n_samples)))
        self.n_steps = self.stride * self.n_samples
        self.dt = FH_T_FINAL / self.n_steps
        self.v_data = v_data
        self.w_data = w_data

    # -- plain state integration -------------------------------------------
    def simulate(self, params):
        x1, x2, x3, x4, x5 = (float(v) for v in params)
        V, W = FH_STATE0
        dt = self.dt
        vs = np.empty(self.n_samples + 1)
        ws = np.empty(self.n_samples + 1)
        vs[0], ws[0] = V, W
        isamp = 1
        for step in range(self.n_steps):
            V, W = _rk4_state(V, W, x1, x2, x3, x4, x5, dt)
            if not (abs(V) < FH_BLOWUP and abs(W) < FH_BLOWUP):
                raise _OdeBlowup
            if (step + 1) % self.stride == 0:
                vs[isamp], ws[isamp] = V, W
                isamp += 1
        return vs, ws

    def _value(self, x):
        try:
            vs, ws = self.simulate(x)
        except _OdeBlowup:
            return np.inf
        return 0.5 * (float(np.sum((vs - self.v_data) ** 2))
                      + float(np.sum((ws - self.w_data) ** 2)))

    def _grad(self, x):
        x1, x2, x3, x4, x5 = (float(v) for v in x)
        V, W = FH_STATE0
        SV = np.zeros(5)
        SW = np.zeros(5)
        g = np.zeros(5)
        dt = self.dt
        isamp = 1
        for step in range(self.n_steps):
            V, W, SV, SW = _rk4_aug(V, W, SV, SW, x1, x2, x3, x4, x5, dt)
            if not (abs(V) < FH_BLOWUP and abs(W) < FH_BLOWUP):
                raise OracleFailure("state blow-up during sensitivity integration")
            if (step + 1) % self.stride == 0:
                g += (V - self.v_data[isamp]) * SV + (W - self.w_data[isamp]) * SW
                isamp += 1
        return g


class _OdeBlowup(Exception):
    pass


def _fh_rhs(V, W, x1, x2, x3, x4, x5):
    return (V - V * V * V / 3.0 - W + x1) / x2, x2 * (x3 * V - x4 * W + x5)


def _rk4_state(V, W, x1, x2, x3, x4, x5, dt):
    k1v, k1w = _fh_rhs(V, W, x1, x2, x3, x4, x5)
    k2v, k2w = _fh_rhs(V + 0.5 * dt * k1v, W + 0.5 * dt * k1w, x1, x2, x3, x4, x5)
    k3v, k3w = _fh_rhs(V + 0.5 * dt * k2v, W + 0.5 * dt * k2w, x1, x2, x3, x4, x5)
    k4v, k4w = _fh_rhs(V + dt * k3v, W + dt * k3w, x1, x2, x3, x4, x5)
    return (V + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
            W + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w))


def _fh_rhs_aug(V, W, SV, SW, x1, x2, x3, x4, x5):
    fV = (V - V * V * V / 3.0 - W + x1) / x2
    fW = x2 * (x3 * V - x4 * W + x5)
    dSV = ((1.0 - V * V) * SV - SW) / x2
    dSV[0] += 1.0 / x2
    dSV[1] += -fV / x2
    dSW = x2 * (x3 * SV - x4 * SW)
    dSW[1] += x3 * V - x4 * W + x5
    dSW[2] += x2 * V
    dSW[3] += -x2 * W
    dSW[4] += x2
    return fV, fW, dSV, dSW


def _rk4_aug(V, W, SV, SW, x1, x2, x3, x4, x5, dt):
    a = (x1, x2, x3, x4, x5)
    k1 = _fh_rhs_aug(V, W, SV, SW, *a)
    k2 = _fh_rhs_aug(V + 0.5 * dt * k1[0], W + 0.5 * dt * k1[1],
                     SV + 0.5 * dt * k1[2], SW + 0.5 * dt * k1[3], *a)
    k3 = _fh_rhs_aug(V + 0.5 * dt * k2[0], W + 0.5 * dt * k2[1],
                     SV + 0.5 * dt * k2[2], SW + 0.5 * dt * k2[3], *a)
    k4 = _fh_rhs_aug(V + dt * k3[0], W + dt * k3[1],
                     SV + dt * k3[2], SW + dt * k3[3], *a)
    V = V + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    W = W + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    SV = SV + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    SW = SW + dt / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return V, W, SV, SW


def gen_fh(n_samples: int = 100, lam: float = 10.0, seed: int = 0,
           noise_std: float = 0.1, x0=None) -> ProblemInstance:
    """Five-parameter ODE fit with an l0 penalty and the single bound x2 >= 0.5.

    Data are sampled from the model at the reference parameters (0, 0.2, 1,
    0, 0) plus N(0, noise_std^2) observation noise; the bound excludes the
    data-generating x2, so the fitted optimum sits on the boundary.  The
    default start is 0.5 everywhere except x2 = 1 (strictly interior).
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
    start = np.array([0.5, 1.0, 0.5, 0.5, 0.5]) if x0 is None else np.asarray(x0, dtype=float)
    return ProblemInstance(
        name="fh",
        smooth=oracle,
        h=Regularizer("l0", lam),
        bounds=Box(lo, hi),
        x0=start,
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

    def _value(self, x):
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def _grad(self, x):
        return self.A.T @ (self.A @ x - self.b)


def gen_bpdn(m: int = 200, n: int = 512, n_spikes: int = 5, seed: int = 0,
             noise_std: float = 0.01) -> ProblemInstance:
    """Orthonormal-row sensing matrix, spike signal, Gaussian noise.

    The observation noise scale N(0, 0.01) is read as a standard deviation;
    pass ``noise_std=0.1`` for the variance reading.  lam is fixed to
    ||A^T b||_inf / 10 and the variables are bounded below by zero.
    """
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
