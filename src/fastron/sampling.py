"""Active sampling and the model-update cycle for changing environments.

When the workspace moves, the current decision boundary is the best guess
for where it will move next: the exploitation stage draws Gaussian samples
around each support point, and the exploration stage fills the remainder
of the budget with uniform samples to catch obstacles that appear in
unpredictable places. One update cycle relabels every retained point,
retrains, sparsifies, and queues the next active set -- so the oracle is
consulted exactly ``|S| + a_max`` times per cycle. Both the initial set and
each relabel go through ``geometry.label_points``, which visits the rows in
Z-order, so consecutive queries are near neighbours and the labeler's
remembered separating axes keep certifying; ``model.X`` and every random
draw keep their order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._checks import check_float, check_int
from .geometry import label_points
from .model import FastronModel, TrainReport

__all__ = ["SamplerParams", "resolved_sigma", "generate_active_set", "update_cycle"]

LabelFn = Callable[[np.ndarray], int]


@dataclass
class SamplerParams:
    """Active-learning knobs.

    ``sigma`` is the per-axis standard deviation of exploitation samples;
    None derives it from the kernel width as sigma^2 = 1/(2 gamma), so
    exploitation probes the length scale the model can actually resolve.
    ``n_initial`` sizes the uniform dataset of the very first cycle.
    """

    a_max: int = 500
    kappa: int = 4
    sigma: float | None = None
    seed: int = 0
    n_initial: int = 2000

    def __post_init__(self):
        check_int("a_max", self.a_max, 1)
        check_int("kappa", self.kappa, 0)
        if self.sigma is not None:
            check_float("sigma", self.sigma, 0.0, strict=True)
        check_int("seed", self.seed, 0)
        check_int("n_initial", self.n_initial, 1)


def resolved_sigma(params: SamplerParams, gamma: float) -> float:
    if params.sigma is not None:
        return params.sigma
    return (2.0 * gamma) ** -0.5


def _gaussian_in_bounds(rng: np.random.Generator, center: np.ndarray, sigma: float) -> np.ndarray:
    # up to 10 redraws for an out-of-bounds sample, then clamp
    s = center + sigma * rng.standard_normal(center.shape[0])
    for _ in range(10):
        if np.abs(s).max() <= 1.0:
            return s
        s = center + sigma * rng.standard_normal(center.shape[0])
    return np.clip(s, -1.0, 1.0)


def generate_active_set(
    support: np.ndarray,
    params: SamplerParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw exactly ``a_max`` points: exploitation first, then exploration.

    Exploitation visits the support points round-robin, one isotropic
    Gaussian sample per visit, for up to ``kappa`` rounds or until the
    budget is full. Uniform samples over [-1, 1]^d fill whatever remains.
    Deterministic for a fixed rng state.
    """
    support = np.asarray(support, dtype=np.float64)
    if support.ndim != 2:
        raise ValueError(f"support must be a 2-D (m, d) array, got shape {support.shape}")
    d = support.shape[1]
    if params.sigma is None:
        raise ValueError("sigma must be resolved before sampling")
    out = np.empty((params.a_max, d), dtype=np.float64)
    m = support.shape[0]
    count = min(params.a_max, params.kappa * m)
    for k in range(count):
        out[k] = _gaussian_in_bounds(rng, support[k % m], params.sigma)
    # zero rows draw nothing and leave the generator as it was
    out[count:] = rng.uniform(-1.0, 1.0, (params.a_max - count, d))
    return out


def _cycle_rng(params: SamplerParams, cycle: int) -> np.random.Generator:
    # one PCG64 stream per cycle, split off the sampler seed
    return np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(cycle,)))


def update_cycle(model: FastronModel, oracle: LabelFn, params: SamplerParams) -> TrainReport:
    """One pass of the label / train / sparsify / resample pipeline.

    On the first call with an empty model, an initial uniform dataset of
    ``n_initial`` points is drawn and labeled instead of relabeling.
    Afterwards every cycle performs exactly ``|S| + a_max`` oracle calls:
    the retained support points are relabeled and the previously queued
    active set is labeled for the first time. The next active set is
    appended with provisional +1 labels; the following cycle's relabel
    pass assigns their real ones. Cycle k draws from its own stream,
    split off the sampler seed by ``model.update_cycles``.
    """
    rng = _cycle_rng(params, model.update_cycles)
    if model.n == 0:
        X0 = rng.uniform(-1.0, 1.0, (params.n_initial, model.dim))
        model.set_data(X0, label_points(oracle, X0))
    else:
        model.set_labels(label_points(oracle, model.X))
    report = model.train()
    model.sparsify()
    sp = replace(params, sigma=resolved_sigma(params, model.params.gamma))
    active = generate_active_set(model.X, sp, rng)
    model.append_points(active, np.ones(active.shape[0]))
    model.update_cycles += 1
    return report
