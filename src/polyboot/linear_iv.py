"""Linear-IV GMM in closed form over a block of weight rows.

The moment psi = (y - r'theta) z is linear in theta, so for a weight matrix
Omega = S S' the objective |S'm|^2, m = b - A d, has the exact minimizer
d = (A' Omega A)^{-1} A' Omega b (Hansen 1982), with A = sum w z r',
b = sum w z (y - r'c) and theta = c + d; the center c, the unweighted
one-step estimate, keeps e = (y - r'c) - r'd free of cancellation. One
product of a block's weight rows gives every row's A and b; each round
builds the rows' covariances from the block and solves all the S'A d = S'b
by least squares, never squaring S'A's condition number in A' Omega A.
``linear_iv_gmm`` is the moment's block kernel (``estimators.block_kernel``):
it returns the rows' thetas, errors and infos, and the point estimate is
the one-row case.
"""

from __future__ import annotations

import numpy as np

from . import estimators  # its solver limits, read when a kernel is built
from .data_model import PolyadicSample
from .errors import ParamError, SingularDesign, SolverError
from .estimators import COND_LIMIT, EstimatorSpec, regressors
from .gmm_weights import invert_psd

# float64 values a linear-IV block budgets per draw and observation: the
# kernel holds at most three (rows, N) arrays. At solver-mix's N = 870, 8
# gives 75-row blocks; 4 ran its IV jobs up to 15% faster with 0.7 MB more
# peak RSS, 16 up to 20% slower.
IV_ROW_FLOATS = 8


def _argmin(a, b, factor=None):
    """d minimizing |S'(b - a d)|^2 per row of a (R, L, K) and b (R, L), S a
    weight-matrix factor (R, L, L) or the identity, from the SVD of S'a:
    ``(d (R, K), errors)``, errors mapping each row whose S'a is non-finite
    or has cond >= COND_LIMIT to its SingularDesign (its d is NaN)."""
    if factor is not None:
        st = np.swapaxes(factor, 1, 2)
        a, b = st @ a, (st @ b[:, :, None])[:, :, 0]
    ok, d = np.isfinite(a).all(axis=(1, 2)), np.full((len(a), a.shape[2]), np.nan)
    u, s, vt = np.linalg.svd(a[ok], full_matrices=False)
    good = s[:, 0] < COND_LIMIT * s[:, -1]
    ok[ok] = good
    coef = (np.swapaxes(u[good], 1, 2) @ b[ok][:, :, None]) / s[good][:, :, None]
    d[ok] = (np.swapaxes(vt[good], 1, 2) @ coef)[:, :, 0]
    reason = "linear-IV GMM least-squares system is numerically singular"
    return d, {int(j): SingularDesign(reason) for j in np.flatnonzero(~ok)}


def linear_iv_gmm(spec: EstimatorSpec, sample: PolyadicSample):
    """The builtin linear-IV GMM over a block of weight rows: ``solve(weights
    (R, N))`` gives the block result ``(theta, errors, infos)`` of
    ``estimators.block_kernel``.

    The rounds, the ``estimators.ITER_TOL`` stop, ``ITER_MAX``, the
    ``info`` keys and the weight matrices are those of ``estimators.gmm``,
    and a just-identified system solves A d = b. Each minimization is
    exact; a row whose weighted design S'A is numerically singular fails
    with SingularDesign.
    """
    mode, iter_tol = spec.gmm_mode, estimators.ITER_TOL
    acm = mode == "iterated" and spec.weight_style == "acm"
    y, r = sample.column(spec.y), regressors(sample, spec.x, spec.intercept)
    z = regressors(sample, spec.instruments, spec.intercept)
    k, l = r.shape[1], z.shape[1]
    if l < k:
        raise ParamError("need at least as many instruments as regressors")
    center = np.linalg.lstsq(z.T @ r, z.T @ y, rcond=None)[0]
    yc, rt = y - r @ center, np.ascontiguousarray(r.T)
    features = np.hstack([z * yc[:, None], (z[:, :, None] * r[:, None, :]).reshape(len(z), -1)])
    lo, hi = np.triu_indices(l)  # the products z_i z_j, i <= j, and where each sits
    zz, pair = z[:, lo] * z[:, hi], np.empty((l, l), int)
    pair[lo, hi] = pair[hi, lo] = np.arange(len(lo))
    rounds = {"one-step": 0, "two-step": 1, "iterated": estimators.ITER_MAX}[mode] * (l > k)

    def solve(weights):
        sums = weights @ features
        b, a = sums[:, :l], sums[:, l:].reshape(-1, l, k)
        d, errors = _argmin(a, b)
        infos, traces = {}, [[] for _ in weights]
        live = np.setdiff1d(np.arange(len(weights)), list(errors))
        w = weights[live] if errors else weights
        if l == k and mode != "one-step":  # gmm solves a just-identified system as a moment root
            infos = {i: {"iterations": 1, "objective_trace": []} if mode == "iterated"
                     else {"iterations": 1} for i in live}
        for it in range(1, rounds + 1):
            if not live.size:
                break
            al, bl, dl = a[live], b[live], d[live]
            e2w = dl @ rt  # the live rows' squared residuals times their weights
            np.subtract(yc, e2w, out=e2w)
            with np.errstate(over="ignore", invalid="ignore"):
                np.square(e2w, out=e2w)
                e2w *= w
                if acm:
                    cov = e2w.sum(axis=1)[:, None, None] * (w @ zz)[:, pair]
                else:
                    psibar = bl - (al @ dl[:, :, None])[:, :, 0]
                    cov = (e2w @ zz)[:, pair] - psibar[:, :, None] * psibar[:, None, :]
            del e2w
            factor, ridged, bad = invert_psd(cov)
            new, failed = _argmin(al, bl, factor)
            failed.update(bad)
            errors.update((int(live[j]), exc) for j, exc in failed.items())
            d[live] = new
            if mode == "two-step":
                infos.update((i, {"weight_matrix_ridged": bool(f)}) for i, f in zip(live, ridged))
                break
            m = bl - (al @ new[:, :, None])[:, :, 0]
            q = np.square((m[:, None] @ factor)[:, 0]).sum(axis=1)
            done = np.linalg.norm(new - dl, axis=1) <= iter_tol
            for i, value, stop in zip(live, q, done):
                traces[i].append(float(value))
                if stop:
                    infos[i] = {"iterations": it, "objective_trace": traces[i]}
            keep = ~done
            keep[list(failed)] = False
            if not keep.all():
                live, w = live[keep], w[keep]
        if mode == "iterated" and l > k:
            unfixed = "iterated GMM did not reach a fixed point"
            errors.update((int(i), SolverError(unfixed, trace=traces[i])) for i in live)
        return center + d, errors, infos

    return solve
