"""Lockstep projected-subgradient descent for batches of GLM losses.

A GLM loss is ``l_j(theta; (x, y)) = phi_j(<theta, R_j x>, y)``. Its
objective on a histogram ``w`` and its gradient both come from the margins
``z_j = X (R_jᵀ theta_j)``::

    l_j(theta_j; D) = wᵀ phi_j(z_j, y)
    grad_j          = R_j Xᵀ (w ⊙ phi_j'(z_j, y))

So ``K`` solves can share one margin matrix ``X P`` per step, with
``P[:, j] = R_jᵀ theta_j`` (the layout of
:func:`repro.engine.kernels.glm_margin_matrix`). That one pass feeds
every column's objective value *and* gradient, for any mix of link
families. The scalar path instead re-validates labels, rotates the
whole universe, and builds a ``|X|×d`` per-point gradient matrix on every
gradient call, then does a second pass for the objective.

:func:`lockstep_minimize` runs the same iteration as
:func:`~repro.optimize.minimize.minimize_loss` over
:func:`~repro.optimize.gradient_descent.projected_gradient_descent`:
the ``D/(G sqrt(t))`` step schedule (``1/(sigma t)`` under strong
convexity), suffix averaging over the last half of each column's steps,
and the best-seen iterate unless the average beats it. Columns are
independent: each keeps its own start, step budget, step schedule and
best-seen state. No step size, stop rule or reduction is shared. A
column's result does not depend on which other columns share its batch
beyond floating-point reassociation, and it does not depend on its
position at all. The step budget is fixed before the solve and nothing
stops early, so the result is a deterministic function of
``(loss, D, start, steps)``; ``repro.core.theory`` states why the
SVT error query's sensitivity argument needs exactly that.

Margins are evaluated in universe row blocks of :data:`GLM_BLOCK_ROWS`,
so a wide batch over a large universe never allocates an ``|X|×K``
temporary.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.exceptions import OptimizationError, ValidationError
from repro.obs import trace
from repro.optimize.projections import L2Ball
from repro.utils.validation import check_finite_array

__all__ = [
    "GLM_BLOCK_ROWS",
    "GLMObjectives",
    "glm_family",
    "lockstep_eligible",
    "lockstep_minimize",
]

#: Universe rows per block in every margin-matrix pass. The block's
#: margin and link matrices (``block × K``) stay cache-resident, so a pass
#: streams the universe points once and never materializes an
#: ``|X| × K`` temporary.
GLM_BLOCK_ROWS = 2048


@functools.cache
def _families() -> dict:
    # Imported on first use: repro.losses imports repro.optimize.
    from repro.losses.hinge import HingeLoss, HuberLoss
    from repro.losses.logistic import LogisticLoss
    from repro.losses.squared import SquaredLoss

    return {
        SquaredLoss: lambda loss: (loss.normalization,),
        LogisticLoss: lambda loss: (),
        HingeLoss: lambda loss: (),
        HuberLoss: lambda loss: (loss.delta,),
    }


def glm_family(loss) -> tuple | None:
    """``(type, link parameters)`` for a GLM with a fused link, else ``None``.

    Matching is by *exact* type: a subclass may override its link, and
    then it must not ride a kernel that does not match its math. Two
    losses with equal keys share one vectorized link evaluation.
    """
    parameters = _families().get(type(loss))
    return None if parameters is None else (type(loss), parameters(loss))


def lockstep_eligible(loss) -> bool:
    """Whether :func:`lockstep_minimize` solves ``loss``: a fused-link GLM
    over an exact :class:`~repro.optimize.projections.L2Ball`. Other
    domains keep :func:`~repro.optimize.gradient_descent.projected_gradient_descent`.
    """
    return glm_family(loss) is not None and type(loss.domain) is L2Ball


class GLMObjectives:
    """``K`` GLM objectives on one histogram, validated once.

    Construction runs every check the scalar path repeats per call, with
    the same exception types: the universe dimension, labels present,
    and each link's label domain. :meth:`evaluate` then costs one margin
    matrix per universe block for every column's value and gradient.

    Columns are held grouped by link family (:attr:`order` maps held
    position to input position), so each link sees one contiguous slice
    of the margin block.
    """

    def __init__(self, losses, histogram) -> None:
        losses = list(losses)
        if not losses:
            raise ValidationError("GLMObjectives needs at least one loss")
        keys = [glm_family(loss) for loss in losses]
        for loss, key in zip(losses, keys):
            if key is None:
                raise ValidationError(
                    f"{loss.name}: {type(loss).__name__} has no fused GLM "
                    f"link")
        dims = {loss.domain.dim for loss in losses}
        if len(dims) != 1:
            raise ValidationError(
                f"lockstep columns must share one parameter dim, got "
                f"{sorted(dims)}")
        universe = histogram.universe
        for loss in losses:
            loss.check_universe_dim(universe)
        labels = None
        validated = set()
        for loss, key in zip(losses, keys):
            labels = loss._labels(universe)
            if key not in validated:
                loss.validate_labels(labels)
                validated.add(key)

        first_seen = {}
        for key in keys:
            first_seen.setdefault(key, len(first_seen))
        self.order = np.array(
            sorted(range(len(losses)), key=lambda j: first_seen[keys[j]]),
            dtype=np.intp)
        self.losses = [losses[j] for j in self.order]
        self._family = np.array([first_seen[keys[j]] for j in self.order])
        self._prototypes = [self.losses[int(np.argmax(self._family == f))]
                            for f in range(len(first_seen))]
        self._slices = self._family_slices(self._family)
        self.dim = dims.pop()
        # (features, |X|) view: a column of the margin block is one
        # row of ``p_jᵀ Xᵀ``.
        self._points_t = universe.points.T
        self._labels = labels
        self._weights = np.asarray(histogram.weights, dtype=float)
        rotations = [loss.rotation for loss in self.losses]
        if all(rotation is None for rotation in rotations):
            self._rotations = None
        else:
            identity = np.eye(self.dim)
            self._rotations = np.stack([
                identity if rotation is None else rotation
                for rotation in rotations])
            self._rotations_t = np.ascontiguousarray(
                self._rotations.transpose(0, 2, 1))

    def _family_slices(self, family: np.ndarray) -> list:
        bounds = np.searchsorted(family, np.arange(len(self._prototypes) + 1))
        return [(self._prototypes[f], slice(bounds[f], bounds[f + 1]))
                for f in range(len(self._prototypes))
                if bounds[f] < bounds[f + 1]]

    def evaluate(self, thetas: np.ndarray, columns: np.ndarray | None = None,
                 *, values: bool = True, gradients: bool = True
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Objective values and gradients at ``thetas``.

        ``thetas`` is ``(k, dim)``, one row per held column; ``columns``
        names those held positions (ascending), ``None`` meaning all of
        them. Returns ``(values (k,), gradients (k, dim))``, with
        ``None`` in place of whichever was not asked for.

        Every product is a stacked ``matmul`` with one item per column,
        so a column's arithmetic is the same whatever its position or
        batch width (a single ``X @ P`` would let BLAS pick a different
        kernel, and summation order, for some columns).
        """
        if columns is None:
            columns = slice(None)
            slices = self._slices
        else:
            slices = self._family_slices(self._family[columns])
        if self._rotations is None:
            parameters = thetas
        else:
            parameters = np.matmul(self._rotations_t[columns],
                                   thetas[:, :, None])[:, :, 0]
        parameters = parameters[:, None, :]
        width = thetas.shape[0]
        totals = np.zeros(width) if values else None
        moments = (np.zeros((width, self._points_t.shape[0])) if gradients
                   else None)
        size = self._points_t.shape[1]
        for start in range(0, size, GLM_BLOCK_ROWS):
            stop = min(start + GLM_BLOCK_ROWS, size)
            points_t = self._points_t[:, start:stop]
            weights = self._weights[start:stop]
            labels = (self._labels[start:stop]
                      if self._labels is not None else None)
            margins = np.matmul(parameters, points_t)[:, 0, :]
            for prototype, part in slices:
                link, slopes = prototype.link_terms(margins[part], labels)
                if values:
                    totals[part] += np.matmul(link[:, None, :],
                                              weights[:, None])[:, 0, 0]
                if gradients:
                    moments[part] += np.matmul(
                        points_t, (slopes * weights)[:, :, None])[:, :, 0]
        if not gradients:
            return totals, None
        if self._rotations is None:
            return totals, moments
        return totals, np.matmul(self._rotations[columns],
                                 moments[:, :, None])[:, :, 0]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """The gradient of a width-1 objective at ``theta`` (shape ``(dim,)``)."""
        theta = np.asarray(theta, dtype=float)
        return self.evaluate(theta[None, :], values=False)[1][0]


def _project(thetas, centers, radii):
    """Row-wise :meth:`L2Ball.project`: rows inside their ball are kept
    as they are, rows outside are scaled onto its boundary.
    ``centers=None`` stands for balls centred at the origin."""
    offsets = thetas if centers is None else thetas - centers
    norms = np.sqrt((offsets * offsets).sum(axis=1))
    outside = norms > radii
    if not outside.any():
        return thetas
    scaled = offsets[outside] * (radii[outside] / norms[outside])[:, None]
    projected = np.array(thetas)
    projected[outside] = (scaled if centers is None
                          else centers[outside] + scaled)
    return projected


def lockstep_minimize(losses, histogram, *, steps=400, starts=None) -> list:
    """Minimize every ``l_j(theta; D)`` in ``losses`` in one lockstep run.

    Parameters
    ----------
    losses:
        Losses for which :func:`lockstep_eligible` holds; link families
        and parameter dims may mix.
    histogram:
        The data distribution every objective is evaluated against.
    steps:
        Iteration budget, one ``int`` for all columns or one per column.
    starts:
        Optional warm starts aligned with ``losses`` (``None`` entries
        start from the domain center).

    Returns one :class:`~repro.optimize.minimize.MinimizeResult` per
    loss, in input order, each with ``exact=False``.
    """
    from repro.optimize.minimize import MinimizeResult

    losses = list(losses)
    width = len(losses)
    if width == 0:
        return []
    budgets = (np.full(width, steps, dtype=np.int64)
               if np.ndim(steps) == 0 else np.asarray(steps, dtype=np.int64))
    starts = [None] * width if starts is None else list(starts)
    if budgets.shape != (width,) or len(starts) != width:
        raise ValidationError(
            f"steps and starts must align with the {width} losses")
    for budget in budgets:
        if budget < 1:
            raise OptimizationError(f"steps must be >= 1, got {budget}")
    for loss in losses:
        if not lockstep_eligible(loss):
            raise ValidationError(
                f"{loss.name}: lockstep solves fused-link GLMs over an "
                f"L2Ball; use minimize_loss")
        lipschitz = loss.lipschitz_bound if loss.lipschitz_bound else 1.0
        if lipschitz <= 0.0:
            raise OptimizationError(
                f"lipschitz must be positive, got {lipschitz}")
        if loss.strong_convexity < 0.0:
            raise OptimizationError("strong_convexity must be non-negative")

    dims = sorted({loss.domain.dim for loss in losses})
    if len(dims) > 1:
        results = [None] * width
        for dim in dims:
            members = [j for j, loss in enumerate(losses)
                       if loss.domain.dim == dim]
            solved = lockstep_minimize(
                [losses[j] for j in members], histogram,
                steps=budgets[members], starts=[starts[j] for j in members])
            for j, result in zip(members, solved):
                results[j] = result
        return results

    initial = [
        loss.domain.center() if start is None else loss.domain.project(
            check_finite_array(start, "start", ndim=1))
        for loss, start in zip(losses, starts)]
    objectives = GLMObjectives(losses, histogram)
    order = objectives.order
    held = objectives.losses
    budgets = budgets[order]
    with trace.span("optimize.lockstep", width=width,
                    steps=int(budgets.max())):
        thetas, values = _run(objectives, np.stack([initial[j] for j in order]),
                              budgets, held)
    _record(width, budgets)
    results = [None] * width
    for position, j in enumerate(order):
        results[j] = MinimizeResult(np.array(thetas[position]),
                                    float(values[position]), False)
    return results


def _run(objectives: GLMObjectives, thetas: np.ndarray, budgets: np.ndarray,
         losses) -> tuple[np.ndarray, np.ndarray]:
    """The lockstep iteration over held columns; returns the chosen
    iterate and its objective value per column.

    The live column set and the averaging set change only when some
    column reaches half or all of its budget; between those steps every
    per-column constant is fixed, so it is sliced once per segment.
    """
    width = len(losses)
    centers = np.stack([loss.domain.center_point for loss in losses])
    radii = np.array([loss.domain.radius for loss in losses])
    diameters = np.array([loss.domain.diameter() for loss in losses])
    lipschitz = np.array([loss.lipschitz_bound if loss.lipschitz_bound
                          else 1.0 for loss in losses])
    sigma = np.array([loss.strong_convexity for loss in losses])
    halves = budgets // 2
    events = {1} | set((halves + 1).tolist()) | set((budgets + 1).tolist())

    values, gradients = objectives.evaluate(thetas)
    best_values = values.copy()
    best_thetas = thetas.copy()
    sums = np.zeros_like(thetas)
    counts = np.zeros(width, dtype=np.int64)
    everything = np.arange(width)
    live = everything
    for t in range(1, int(budgets.max()) + 1):
        if t in events:
            keep = budgets[live] >= t
            gradients = gradients[keep]
            live = live[keep]
            columns = None if len(live) == width else live
            rows = slice(None) if columns is None else live
            live_centers = None if not centers[live].any() else centers[live]
            live_radii = radii[live]
            live_diameters = diameters[live]
            live_lipschitz = lipschitz[live]
            live_sigma = sigma[live]
            strong = live_sigma > 0.0
            any_strong = bool(strong.any())
            averaged = t > halves[live]
            averaged_rows = live[averaged]
            averaging = bool(averaged.any())
            final = int(budgets[live].max())
        if not np.isfinite(gradients).all():
            raise OptimizationError("gradient returned non-finite values")
        step = live_diameters / (live_lipschitz * math.sqrt(t))
        if any_strong:
            step = np.where(strong, 1.0 / (np.where(strong, live_sigma, 1.0)
                                           * t), step)
        current = _project(thetas[rows] - step[:, None] * gradients,
                           live_centers, live_radii)
        thetas[rows] = current
        if averaging:
            sums[averaged_rows] += current[averaged]
            counts[averaged_rows] += 1
        values, gradients = objectives.evaluate(current, columns,
                                                gradients=t < final)
        better = values < best_values[rows]
        if better.any():
            improved = everything[rows][better]
            best_values[improved] = values[better]
            best_thetas[improved] = current[better]

    averages = _project(sums / np.maximum(counts, 1)[:, None],
                        None if not centers.any() else centers, radii)
    average_values, _ = objectives.evaluate(averages, gradients=False)
    use_average = average_values < best_values
    chosen = np.where(use_average[:, None], averages, best_thetas)
    return chosen, np.where(use_average, average_values, best_values)


def _record(width: int, budgets: np.ndarray) -> None:
    """Per-call solver telemetry on the active tracer's registry: solves
    and steps, beside the ``optimize.lockstep`` span that counts calls
    (mean width = solves / calls)."""
    tracer = trace.active()
    registry = tracer.registry if tracer is not None else None
    if registry is None:
        return
    registry.counter("solver.lockstep_solves").inc(width)
    registry.counter("solver.lockstep_steps").inc(int(budgets.sum()))
