"""RB assignment and constrained power loading for the D2D tier.

Assignment minimizes the total CU-generated interference each pair would
receive on its reused RB (Kuhn-Munkres).  Power loading then maximizes the
sum of log(1 + predicted SINR) over the pairs' subcarriers subject to linear
per-CU protection constraints and per-pair power caps.  The predicted SINR
ignores inter-D2D coupling, which keeps the problem convex and separable in
the dual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgesv
# power_loading calls no scipy optimizer; ``minimize`` stays a module name
# because benchmark/spans.py wraps ``allocation.minimize`` for its traced run
from scipy.optimize import linear_sum_assignment, minimize  # noqa: F401

from . import interference as itf
from .waveform import WaveformType

KKT_TOLERANCE = 1e-6
MAX_NEWTON_STEPS = 50
MAX_BACKTRACKS = 30
_STEP_LENGTHS = (0.5 ** np.arange(MAX_BACKTRACKS)).tolist()


class InfeasibleAssignmentError(ValueError):
    """More pairs than resource blocks: no injective assignment exists."""


class SolverStatus(Enum):
    OPTIMAL = "OPTIMAL"
    MAX_ITER = "MAX_ITER"
    INFEASIBLE_SKIPPED = "INFEASIBLE_SKIPPED"


@dataclass
class Assignment:
    """Injective pair -> RB map (one reused RB per pair)."""

    rb_of_pair: np.ndarray


@dataclass
class PowerLoadingResult:
    """Solved powers and duals.  ``iterations_used`` counts the
    projected-Newton steps taken from the water-filling start."""

    powers: itf.PowerAllocation
    dual_cu: np.ndarray
    dual_cap: np.ndarray
    kkt_residual: float
    iterations_used: int
    status: SolverStatus


def hungarian(cost):
    """Minimum-cost injective assignment of pairs (rows) to RBs (columns).

    Ties between optimal assignments are left to ``linear_sum_assignment``,
    which is deterministic.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")
    m, r = cost.shape
    if m > r:
        raise InfeasibleAssignmentError(
            "%d pairs cannot share %d RBs injectively" % (m, r))
    # with no more rows than columns, every row is assigned, in order
    _, cols = linear_sum_assignment(cost)
    return Assignment(rb_of_pair=cols)


def cu_constraint_coefficients(gains, tables, smap, cu_powers, config, d2d_kind):
    """Linear CU-protection constraints sum_jm c[i, j, m] P_jm <= T[i] in W.

    ``c[i, j, m]`` is the leakage of a unit of pair-j power on subcarrier m
    into CU i's RB at the BS; ``T[i]`` is the interference headroom left once
    CU i must still meet its minimum SINR.  Negative headroom marks the
    snapshot infeasible.  A block of snapshots gives c and T a leading block
    axis.
    """
    c = itf.d2d_to_cu_coefficients(
        gains, tables[(d2d_kind, WaveformType.OFDM)], smap)
    gamma_min = config.cu_min_sinr_linear
    sigma2_rb = config.noise_per_subcarrier_w * smap.subcarriers_per_rb
    thresholds = cu_powers * gains.h_cu_bs / gamma_min - sigma2_rb
    return c, thresholds


def _water_fill(z, a, inv_g):
    """Lagrangian maximizer x = clip(1/w - 1/g, 0, 1) at duals z, w = z A,
    given inv_g = 1/g."""
    w = z @ a
    return w, np.minimum(np.maximum(1.0 / np.maximum(w, 1e-300) - inv_g, 0.0),
                         1.0)


def _start_duals(a, g):
    """Duals that water-fill each pair against its heaviest row of A alone,
    g shaped (pairs, S).  The row with the largest weight sum over pair j's
    columns (its co-channel CU row when that CU binds first, else its cap
    row) gets 1/level, level = min_n (1 + sum of the n smallest c/g) / n
    over that row's weights c; rows chosen by several pairs add duals.  A
    block of problems stacks a and g on a leading axis."""
    pairs, s = g.shape[-2:]
    blocks = a.reshape(a.shape[:-1] + (pairs, s))
    rows = blocks.sum(axis=-1).argmax(axis=-2)
    heaviest = np.take_along_axis(blocks, rows[..., None, :, None], axis=-3)
    ratio = np.sort(heaviest[..., 0, :, :] / g, axis=-1)
    level = ((1.0 + np.cumsum(ratio, axis=-1))
             / np.arange(1, s + 1)).min(axis=-1)
    # one bincount for the block: problem k's rows start at k * len(A)
    first = a.shape[-2] * np.arange(rows.size // pairs)
    rows = rows + first.reshape(rows.shape[:-1] + (1,))
    return np.bincount(rows.ravel(), weights=(1.0 / level).ravel(),
                       minlength=a[..., 0].size).reshape(a.shape[:-1])


def loading_problems(gains, tables, smap, config, d2d_kind):
    """The normalized power-loading problems of one snapshot, or of a block
    of snapshots: the block's gains and a ``SpectrumMap`` with stacked
    ``rb_of_cu`` and ``rb_of_d2d``.  Returns ``(skip, a, g, z)``, stacked on
    the block axis: whether the snapshot has negative CU headroom, the
    constraint matrix A (CU rows over their headroom, then one cap row per
    pair), g = P_max h / (noise + CU interference) shaped (pairs, S), and
    the start duals.  A snapshot's slice is ``power_loading``'s ``problem``.
    """
    num_pairs, s = smap.rb_of_d2d.shape[-1], smap.subcarriers_per_rb
    p_max = config.max_tx_power_w
    zero = itf.PowerAllocation(p_d2d=np.zeros(smap.rb_of_d2d.shape + (s,)),
                               p_cu=itf.uniform_cu_powers(config))
    c, thresholds = cu_constraint_coefficients(gains, tables, smap, zero.p_cu,
                                               config, d2d_kind)
    skip = np.any(thresholds < 0, axis=-1)
    # a zero threshold leaves no headroom at all; a skipped snapshot's rows
    # are never read, so a unit threshold keeps them finite
    t_safe = np.where(skip[..., None], 1.0, np.maximum(thresholds, 1e-300))
    num_cu = thresholds.shape[-1]
    a = np.zeros(skip.shape + (num_cu + num_pairs, num_pairs * s))
    np.divide(c.reshape(c.shape[:-2] + (-1,)) * p_max, t_safe[..., None],
              out=a[..., :num_cu, :])
    a[..., num_cu:, :] = np.repeat(np.eye(num_pairs), s, axis=1)
    i_cu = itf.i_cu_matrix(gains, zero, tables[(WaveformType.OFDM, d2d_kind)],
                           smap)
    g = p_max * gains.h_self[..., None] / (config.noise_per_subcarrier_w + i_cu)
    return skip, a, g, _start_duals(a, g)


def power_loading(assignment, gains, tables, smap, config, d2d_kind, *,
                  problem=None):
    """Solve the simplified power-loading problem for one snapshot.

    Works on normalized powers x = P / P_max with the CU constraints rescaled
    to sum <= 1, so duals live on comparable scales.  The constraints are the
    rows of one matrix A (CU rows, then a cap row per pair); the dual
    D(z) = sum log(1 + g x) + z (1 - A x) at the water-filled x is minimized
    over z >= 0 by damped projected-Newton steps.  The start water-fills
    each pair against its heaviest row of A alone: its co-channel CU row
    when that CU binds before the cap, else its cap row.  The same loop
    scores the KKT residual and rescales the primal into strict feasibility.

    ``problem`` is the snapshot's slice of its block's ``loading_problems``;
    without it, ``loading_problems`` runs on this snapshot alone.
    """
    smap = smap.with_assignment(assignment.rb_of_pair)
    if problem is None:
        problem = loading_problems(gains, tables, smap, config, d2d_kind)
    skip, a, g, z = problem
    num_pairs, s = g.shape
    num_cu = len(a) - num_pairs
    if skip:
        z, x, kkt, steps = np.zeros(len(a)), np.zeros(g.size), np.inf, 0
    else:
        z, x, kkt, steps = _projected_newton(z, a, g.ravel())
    status = (SolverStatus.INFEASIBLE_SKIPPED if skip
              else SolverStatus.OPTIMAL if kkt < KKT_TOLERANCE
              else SolverStatus.MAX_ITER)
    p_max = config.max_tx_power_w
    powers = itf.PowerAllocation(p_d2d=x.reshape(num_pairs, s) * p_max,
                                 p_cu=itf.uniform_cu_powers(config))
    return PowerLoadingResult(powers=powers.validate(p_max),
                              dual_cu=z[:num_cu], dual_cap=z[num_cu:],
                              kkt_residual=kkt, iterations_used=steps,
                              status=status)


def _projected_newton(z, a, g):
    """At most MAX_NEWTON_STEPS damped projected-Newton steps on min D(z),
    z >= 0 (Bertsekas, SIAM J. Control Optim. 1982).

    Duals within epsilon of 0 with a positive gradient stay at the bound; the
    rest take a Newton step with the Hessian H = A_F diag(v) A_F^T, v = 1/w^2
    on the subcarriers inside (0, 1), where w > 0, and 0 elsewhere.  Formed
    as one masked product, it can leave the returned powers and duals off
    those of a product over the gathered inside columns in the last bits.
    H is damped Levenberg-Marquardt style to H + lam (curv_i + max diag H)
    on the diagonal.  curv_i is H's diagonal, or, on a row with no
    subcarrier inside (0, 1), the curvature at w clipped to [g/(1+g), g],
    where the subcarriers would enter.  The step is backtracked (Armijo)
    along the projection arc; lam starts at 1e-8, is divided by 4 after a
    full step and multiplied by 16 otherwise: after a shortened step, or
    after MAX_BACKTRACKS failed halvings, which leave z where it was.  Stops
    at a KKT residual of 0.1 KKT_TOLERANCE.  The KKT residual is the larger
    of the water-filled primal's overload max(A x) - 1, before it is
    rescaled into feasibility, and the complementary slackness
    max |z (1 - A x)| after.  Returns the duals, the rescaled primal, the
    KKT residual and the steps taken.
    """
    inv_g = 1.0 / g
    w, x = _water_fill(z, a, inv_g)
    lam = 1e-8
    for step in range(MAX_NEWTON_STEPS + 1):
        load = a @ x
        grad = 1.0 - load
        over = max(load.max(initial=0.0), 1.0)
        kkt = max(over - 1.0, np.abs(z * (1.0 - load / over)).max(initial=0.0))
        if kkt < 0.1 * KKT_TOLERANCE or step == MAX_NEWTON_STEPS:
            break
        pg = np.minimum(z, grad)
        eps = min(1e-6, math.sqrt(pg @ pg))
        free = (z > eps) | (grad <= 0)
        a_free = a[free]
        wt = np.divide(1.0, w * w, out=np.zeros_like(w),
                       where=(x > 0) & (x < 1))
        h = (a_free * wt) @ a_free.T
        diag = h.diagonal()
        top = diag.max(initial=0.0)
        damp = diag + top
        flat = diag <= 0
        if flat.any():
            edge = np.minimum(np.maximum(w, g / (1.0 + g)), g)
            damp[flat] = (a_free[flat] ** 2 / edge ** 2).sum(axis=1) + top
        h.flat[::len(h) + 1] += lam * damp
        d = -grad
        d[free] = _solve(h, d[free])
        gx1 = 1.0 + g * x
        for alpha in _STEP_LENGTHS:
            trial = np.maximum(z + alpha * d, 0.0)
            trial_w, trial_x = _water_fill(trial, a, inv_g)
            # D(trial) - D(z) = grad (trial - z) + curvature, with the
            # curvature summed per subcarrier: exact where D's rounding is not
            dx = trial_x - x
            curvature = (np.log1p(g * dx / gx1) - trial_w * dx).sum()
            if curvature <= (1e-4 - 1.0) * (grad @ (trial - z)):
                z, w, x = trial, trial_w, trial_x
                break
        lam = lam / 4.0 if alpha == 1.0 else lam * 16.0
    return z, x / over, float(kkt), step


def _solve(h, b):
    """x with h x = b by LAPACK's LU solver dgesv, called directly, without
    np.linalg.solve's wrapping.  scipy may link another LAPACK build than
    numpy, so x can differ from np.linalg.solve's in the last bits."""
    _, _, x, info = dgesv(h, b)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix (dgesv info %d)" % info)
    return x


def loading_objective(powers, gains, tables, smap, config, d2d_kind):
    """Objective value sum log(1 + predicted SINR) of a power allocation."""
    _, predicted = itf.d2d_sinr_matrices(gains, powers, tables, smap,
                                         config.noise_per_subcarrier_w, d2d_kind)
    return float(np.log1p(predicted).sum())
