"""Linear-IV GMM in closed form over a block of weight rows or of their
weighted feature sums.

The moment psi = (y - r'theta) z is linear in theta, so for a weight matrix
Omega = S S' the objective |S'm|^2, m = b - A d, has the exact minimizer
d = (A' Omega A)^{-1} A' Omega b (Hansen 1982), with A = sum w z r',
b = sum w z (y - r'c) and theta = c + d; the center c, the unweighted
one-step estimate, keeps e = (y - r'c) - r'd free of cancellation. Each
round builds the rows' covariances and solves all the S'A d = S'b by least
squares, never squaring S'A's condition number in A' Omega A.
``linear_iv_gmm`` is the moment's block kernel (``estimators.block_kernel``):
it returns the rows' thetas, errors and infos, and the point estimate is
the one-row case.

Every sum a round needs is a weighted sum of fixed features, as e^2 = yc^2
- 2 sum_j d_j yc r_j + sum_ij d_i d_j r_i r_j is quadratic in d, so the
kernel also has a factorized form on the rows' feature sums, which the
engine takes from ``weights.product_sums``; the two forms share one round
loop. The expansion cancels when a row's weight piles onto a few
observations: a row whose expanded covariance diagonal keeps less than
CANCELLATION of its terms' magnitudes is solved from its weight row.
The engine sizes the weight-row kernel's blocks by the one row budget of
the weight-row kernels, ``weights.ROW_FLOATS``.
"""

from __future__ import annotations

import numpy as np

from . import estimators, weights  # their limits, read when a kernel is built
from .data_model import PolyadicSample
from .errors import ParamError, SingularDesign, SolverError
from .estimators import COND_LIMIT, EstimatorSpec, regressors
from .gmm_weights import invert_psd

CANCELLATION = 1e-2  # the share of its terms' magnitudes an expanded diagonal must keep
# a covariance diagonal within this share of its terms' magnitudes is rounding: zero
ROUNDING = (16 * np.finfo(np.float64).eps) ** 2
_CANCELLED = object()  # the error of a row handed to its weight row


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
    """The builtin linear-IV GMM: ``(solve, linear)``. ``solve(weights (R,
    N))`` gives the block result ``(theta, errors, infos)`` of
    ``estimators.block_kernel``; ``linear`` is ``(features, finish)``:
    ``features()`` builds the (N, F) features, and ``finish(sums (R, F),
    weights_of)`` gives the same result from the rows' weighted feature sums,
    and solves the cancelled rows from ``weights_of(rows)``.
    ``linear`` is None when the dense feature tensor (``weights.dense_features``)
    would pass ``weights.BLOCK_BYTES``.

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
    first = np.hstack([z * yc[:, None], (z[:, :, None] * r[:, None, :]).reshape(len(z), -1)])
    lo, hi = np.triu_indices(l)  # the products z_i z_j, i <= j, and where each sits
    zz, pair, on_diagonal = z[:, lo] * z[:, hi], np.empty((l, l), int), np.flatnonzero(lo == hi)
    pair[lo, hi] = pair[hi, lo] = np.arange(len(lo))
    rounds = {"one-step": 0, "two-step": 1, "iterated": estimators.ITER_MAX}[mode] * (l > k)

    def run(sums, covariance):
        """The rounds on the rows' sums of ``first``; ``covariance(live, d)`` gives
        the live rows' pair entries of sum w e^2 z z' (acm: sum w e^2 times
        sum w z z'), the magnitude of the terms each diagonal entry sums, and
        the rows to solve from their weight rows. A row whose covariance
        diagonal is rounding of that magnitude (ROUNDING) has vanishing
        residuals, so its d minimizes every weighted objective, at 0: it keeps
        d, ridged, as a fixed point."""
        b, a = sums[:, :l], sums[:, l : first.shape[1]].reshape(-1, l, k)
        d, errors = _argmin(a, b)
        infos, traces = {}, [[] for _ in sums]
        live = np.setdiff1d(np.arange(len(sums)), list(errors))
        if l == k and mode != "one-step":  # gmm solves a just-identified system as a moment root
            infos = {i: {"iterations": 1, "objective_trace": []} if mode == "iterated"
                     else {"iterations": 1} for i in live}
        for it in range(1, rounds + 1):
            if not live.size:
                break
            al, bl, dl = a[live], b[live], d[live]
            with np.errstate(over="ignore", invalid="ignore"):
                cov, size, inexact = covariance(live, dl)
                cov = cov[:, pair]
                if not acm:
                    psibar = bl - (al @ dl[:, :, None])[:, :, 0]
                    cov -= psibar[:, :, None] * psibar[:, None, :]
                zero = (np.diagonal(cov, axis1=1, axis2=2) <= ROUNDING * size).all(axis=1)
            factor, ridged, bad = invert_psd(cov)
            if bad:  # a singular row's factor is not finite: as 0, its S'A is singular
                factor[list(bad)] = 0.0
            new, failed = _argmin(al, bl, factor)
            failed.update(bad)
            if zero.any():  # a finite zero covariance: every objective is 0 at d
                zero &= np.isfinite(cov).all(axis=(1, 2))
                new[zero], ridged[zero], factor[zero] = dl[zero], True, 0.0
                failed = {j: exc for j, exc in failed.items() if not zero[j]}
            failed.update((int(j), _CANCELLED) for j in np.flatnonzero(inexact))
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
            live = live[keep]
        if mode == "iterated" and l > k:
            errors.update((int(i), SolverError("iterated GMM did not reach a fixed point"))
                          for i in live)
        return center + d, errors, infos

    def solve(block):
        held = [block]  # the live rows' weights, gathered again when rows leave

        def covariance(live, d):
            if len(live) < len(held[0]):
                held[0] = block[live]
            w, e2w = held[0], d @ rt  # the squared residuals times their weights
            size = w * np.square(np.abs(e2w) + np.abs(yc))  # the terms' magnitudes
            np.subtract(yc, e2w, out=e2w)
            np.square(e2w, out=e2w)
            e2w *= w
            if not acm:
                return e2w @ zz, size @ zz[:, on_diagonal], ()
            wzz = w @ zz
            return (e2w.sum(axis=1)[:, None] * wzz,
                    size.sum(axis=1)[:, None] * wzz[:, on_diagonal], ())

        return run(block @ first, covariance)

    ri, rj = np.triu_indices(k)
    terms = 1 + k + len(ri)  # e^2 = [yc^2, yc r, r_i r_j (i <= j)] . [1, -2 d, c_ij d_i d_j]
    width = first.shape[1] + (terms + len(lo) if acm else terms * len(lo)) * (rounds > 0)
    cells = sample.n_units**sample.order * max(sample.n_cluster_levels, 1)
    if 8 * (1 + width) * cells > weights.BLOCK_BYTES:
        return solve, None

    def features():  # built only for a sample the dense tensor takes
        if not rounds:
            return first
        squares = np.hstack([yc[:, None] ** 2, yc[:, None] * r, r[:, ri] * r[:, rj]])
        extra = np.hstack([squares, zz]) if acm else (squares[:, :, None] * zz[:, None, :])
        return np.hstack([first, extra.reshape(len(z), -1)])

    diagonal = [0] if acm else on_diagonal

    def finish(sums, weights_of):
        def covariance(live, d):
            coef = np.hstack([np.ones((len(d), 1)), -2 * d, (1 + (ri < rj)) * d[:, ri] * d[:, rj]])
            s = sums[live, first.shape[1] :]
            q = (s[:, :terms] if acm else s).reshape(len(d), terms, -1)
            e2 = (coef[:, None] @ q)[:, 0]
            size = (np.abs(coef)[:, None] @ np.abs(q[:, :, diagonal]))[:, 0]
            inexact = (e2[:, diagonal] < CANCELLATION * size).any(axis=1)
            if not acm:
                return e2, size, inexact
            return e2 * s[:, terms:], size * s[:, terms:][:, on_diagonal], inexact

        theta, errors, infos = run(sums, covariance)
        redo = sorted(r for r, exc in errors.items() if exc is _CANCELLED)
        if redo:  # a failed row's info is never read, so the stale ones may stay
            theta[redo], again, more = solve(weights_of(redo))
            errors = {r: exc for r, exc in errors.items() if exc is not _CANCELLED}
            errors.update((redo[j], exc) for j, exc in again.items())
            infos.update((redo[j], info) for j, info in more.items())
        return theta, errors, infos

    return solve, (features, finish)
