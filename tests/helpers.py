"""Shared test oracles: brute-force minimizers and dense recursions independent of the
library code, `CallableOracle`, a smooth oracle over plain callables, and
`valued_solve`, a direct solver call from a valued start."""
import numpy as np

from ripm.oracles import SmoothOracle
from ripm.report import evaluate_start


class CallableOracle(SmoothOracle):
    """Wraps plain callables; handy for small analytic test problems."""

    def __init__(self, f, g):
        super().__init__()
        self._f = f
        self._g = g

    def _value(self, x):
        return float(self._f(x))

    def _grad(self, x):
        return np.asarray(self._g(x), dtype=float)


def valued_solve(solver, smooth, h, *args, **kw):
    """Call ``solver`` from the valued start at x0, the last of ``args``, as `run_solver` does.

    Calls ``solver(smooth, h, *args[:-1], x0, f(x0), h(x0), grad f(x0),
    **kw)`` and returns its result and ``smooth.trace``, which starts at x0.
    x0 is not clamped: a test passes a point in the bounds.
    """
    *head, x = args
    x = np.asarray(x, dtype=float)
    start = evaluate_start(smooth, h, x)
    return solver(smooth, h, *head, x, *start, **kw), smooth.trace


def _grid(lo, hi, step):
    # stay strictly inside [lo, hi]: arange may otherwise overshoot hi
    return np.append(np.arange(lo, hi, step), hi)


def grid_min_1d(obj, lo, hi, step=1e-3):
    """Minimum of obj over a uniform grid on [lo, hi] (endpoints included)."""
    grid = _grid(lo, hi, step)
    vals = np.array([obj(t) for t in grid])
    i = int(np.argmin(vals))
    return grid[i], vals[i]


def grid_min_vec(obj, lo, hi, step=1e-3):
    """Vectorized variant: obj maps an array of candidates to their objectives."""
    grid = _grid(lo, hi, step)
    vals = obj(grid)
    i = int(np.argmin(vals))
    return grid[i], float(vals[i])


def comp_reg_value(kind, lam, v):
    if kind == "l1":
        return lam * abs(v)
    return lam if v != 0.0 else 0.0


def bisect_root(fun, lo, hi, iters=200):
    flo, fhi = fun(lo), fun(hi)
    assert flo * fhi <= 0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def central_diff_grad(f, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps * max(1.0, abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2 * e[i])
    return g


def dense_bfgs(pairs, n):
    """Dense direct BFGS recursion from the identity; oracle for LBFGS products."""
    B = np.eye(n)
    for s, y in pairs:
        sy = float(s @ y)
        if sy <= 1e-8 * np.linalg.norm(s) * np.linalg.norm(y):
            continue
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / float(s @ Bs) + np.outer(y, y) / sy
    return B


def dense_sr1(pairs, n):
    """Dense SR1 recursion from the identity, with the same skip rule as LSR1."""
    B = np.eye(n)
    for s, y in pairs:
        r = y - B @ s
        rs = float(r @ s)
        if abs(rs) <= 1e-8 * np.linalg.norm(r) * np.linalg.norm(s) or rs == 0.0:
            continue
        B = B + np.outer(r, r) / rs
    return B


def fh_sensitivity_grad(oracle, x):
    """Gradient of an fh misfit by forward sensitivities on the oracle's RK4 grid.

    The 10-dimensional system (V, W, dV/dx, dW/dx) is stepped by the same
    fixed-step RK4 as the state, so the result is the exact derivative of
    the discretized objective, computed independently of the adjoint.
    """
    from ripm.problems import FH_BLOWUP, FH_STATE0

    a = tuple(float(v) for v in x)
    V, W = FH_STATE0
    SV = np.zeros(5)
    SW = np.zeros(5)
    g = np.zeros(5)
    dt = oracle.dt
    isamp = 1
    for step in range(oracle.n_steps):
        V, W, SV, SW = _rk4_aug(V, W, SV, SW, a, dt)
        assert abs(V) < FH_BLOWUP and abs(W) < FH_BLOWUP, "state blow-up"
        if (step + 1) % oracle.stride == 0:
            g += (V - oracle.v_data[isamp]) * SV + (W - oracle.w_data[isamp]) * SW
            isamp += 1
    return g


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


def _rk4_aug(V, W, SV, SW, a, dt):
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


def fh_reference(oracle, x):
    """(f, grad f) of an fh misfit by one scalar RK4 pass and its discrete adjoint.

    The pass keeps the four stage points of every step, and the sweep keeps
    every stage weight dJ/dk, in Python lists; each operation is the
    oracle's, in the same order, so the oracle must match it bit for bit.
    A blow-up gives (inf, None).
    """
    from ripm.problems import FH_BLOWUP, FH_STATE0

    x1, x2, x3, x4, x5 = (float(v) for v in x)
    dt = oracle.dt
    h = 0.5 * dt
    d6 = dt / 6.0
    V, W = FH_STATE0
    sv, sw = [], []
    for _ in range(oracle.n_steps):
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
        sv += (V, V2, V3, V4)
        sw += (W, W2, W3, W4)
        V = V + d6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        W = W + d6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if not (abs(V) < FH_BLOWUP and abs(W) < FH_BLOWUP):
            return np.inf, None
    every = 4 * oracle.stride  # a sample is the first stage of every stride-th step
    vs = np.array(sv[::every] + [V])
    ws = np.array(sw[::every] + [W])
    f = 0.5 * (float(np.sum((vs - oracle.v_data) ** 2))
               + float(np.sum((ws - oracle.w_data) ** 2)))
    d3 = dt / 3.0
    r = 1.0 / x2
    c3 = x2 * x3
    c4 = x2 * x4
    V = np.array(sv)
    W = np.array(sw)
    a = ((1.0 - V * V) * r)[::-1].tolist()
    rv = (vs - oracle.v_data).tolist()
    rw = (ws - oracle.w_data).tolist()
    quads = zip(*[iter(a)] * 4)  # (a4, a3, a2, a1) of each step, last step first
    bv, bw = [], []  # stage weights, last stage first
    lv = lw = 0.0
    for isamp in range(oracle.n_samples, 0, -1):
        lv += rv[isamp]
        lw += rw[isamp]
        for _ in range(oracle.stride):
            a4, a3, a2, a1 = next(quads)
            b4v = d6 * lv
            b4w = d6 * lw
            e3v = d3 * lv
            e3w = d3 * lw
            y4v = a4 * b4v + c3 * b4w
            y4w = -r * b4v - c4 * b4w
            b3v = e3v + dt * y4v
            b3w = e3w + dt * y4w
            y3v = a3 * b3v + c3 * b3w
            y3w = -r * b3v - c4 * b3w
            b2v = e3v + h * y3v
            b2w = e3w + h * y3w
            y2v = a2 * b2v + c3 * b2w
            y2w = -r * b2v - c4 * b2w
            b1v = b4v + h * y2v
            b1w = b4w + h * y2w
            lv += y4v + y3v + y2v + a1 * b1v + c3 * b1w
            lw += y4w + y3w + y2w - r * b1v - c4 * b1w
            bv += (b4v, b3v, b2v, b1v)
            bw += (b4w, b3w, b2w, b1w)
    bv = np.array(bv[::-1])
    bw = np.array(bw[::-1])
    fv = (V - V * V * V / 3.0 - W + x1) * r
    q = x3 * V - x4 * W + x5
    g = np.array([float(bv.sum()) * r,
                  float(bw @ q) - float(bv @ fv) * r,
                  x2 * float(bw @ V),
                  -x2 * float(bw @ W),
                  x2 * float(bw.sum())])
    return f, g
