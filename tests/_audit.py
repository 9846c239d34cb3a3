"""The finite-difference audit over many random fields, as the tests and
the acceptance criteria run it."""

from __future__ import annotations

from scopedepth.losses import LossConfig
from scopedepth.predictor import init_random
from scopedepth.trainer import KinkStraddled, Regime, TrainData, finite_diff_audit


def audit_random_fields(
    regime: Regime,
    data: TrainData,
    draws: int,
    grid: int = 4,
    depth_init_mm: float = 25.0,
    jitter: float = 0.25,
    seed0: int = 100,
    step: float = 1e-4,
    loss_cfg: LossConfig | None = None,
    max_resample: int = 60,
) -> list[float]:
    """Run the audit over ``draws`` random fields, redrawing any field whose
    probes straddle a kink of the piecewise-smooth objective."""
    errors = []
    seed = seed0
    attempts = 0
    while len(errors) < draws:
        field = init_random(seed, grid, grid, depth_init_mm, jitter)
        seed += 1
        attempts += 1
        if attempts > draws + max_resample:
            raise RuntimeError("could not find enough kink-free samples")
        try:
            errors.append(finite_diff_audit(regime, data, field, step, loss_cfg))
        except KinkStraddled:
            continue
    return errors
