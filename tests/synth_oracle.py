"""Station-at-a-time corpus generator, kept as the reference.

This is the ``synthesize`` that built each station's profile over every
hour and the day and noise factors as full ``(N, L)`` temporaries.
``blockreg.corpus.synthesize`` must return the same matrix bit for bit and
raise the same errors.
"""

import numpy as np

from blockreg.corpus import SCALE_SIGMA, SynthConfig, TrafficMatrix
from blockreg.errors import Overflow


# Settings near the float range overflow to inf or nan; synthesize checks
# its result and raises Overflow instead of letting numpy warn.
@np.errstate(over="ignore", invalid="ignore")
def synthesize(cfg: SynthConfig) -> TrafficMatrix:
    """Generate a deterministic synthetic traffic corpus.

    Each station's series is per-BS scale x smooth 24-hour profile x per-day
    intensity factor x hourly noise, with optional localized bursts late in
    the series. The profile is a smooth bimodal daily curve (night trough,
    two daytime peaks) whose peak mix, positions, and widths vary by station;
    larger stations lean toward the midday peak.

    With ``noise_std = day_intensity_std = burst_probability = 0`` every row
    is exactly 24-periodic. Raises Overflow when settings near the float
    range make a volume infinite or undefined.
    """
    cfg.validate()
    n_bs, n_hours = cfg.n_bs, cfg.n_hours
    rng = np.random.default_rng(cfg.seed)
    hod = np.arange(n_hours) % 24
    n_days = -(-n_hours // 24)

    scales = np.exp(rng.normal(0.0, SCALE_SIGMA, n_bs))
    # Peak mix correlated with scale rank: big stations midday, small evening.
    rank = scales.argsort().argsort() / max(n_bs - 1, 1)
    wmix = np.clip(rank + rng.uniform(-0.25, 0.25, n_bs), 0.0, 1.0)
    c1 = rng.uniform(9.0, 13.0, n_bs)
    c2 = rng.uniform(17.0, 22.0, n_bs)
    s1 = rng.uniform(2.0, 4.0, n_bs)
    s2 = rng.uniform(2.0, 4.0, n_bs)

    amp = cfg.daily_profile_amplitude
    profile = np.empty((n_bs, n_hours))
    for i in range(n_bs):
        bump1 = np.exp(-0.5 * ((hod - c1[i]) / s1[i]) ** 2)
        bump2 = np.exp(-0.5 * ((hod - c2[i]) / s2[i]) ** 2)
        profile[i] = 0.22 + amp * (wmix[i] * bump1 + (1.0 - wmix[i]) * bump2)

    steps = rng.normal(0.0, 1.0, (n_bs, n_days)) * cfg.day_intensity_std
    fday = np.exp(np.cumsum(steps, axis=1))
    fhour = np.repeat(fday, 24, axis=1)[:, :n_hours]
    noise = np.exp(rng.normal(0.0, 1.0, (n_bs, n_hours)) * cfg.noise_std)
    values = scales[:, None] * profile * fhour * noise

    # Bursts only in the last quarter so they fall inside a standard
    # train/test split's test period.
    u = rng.random(n_bs)
    for i in range(n_bs):
        if u[i] < cfg.burst_probability:
            lo = int(n_hours * 0.75)
            start = int(rng.integers(lo, max(lo + 1, n_hours - 8)))
            dur = int(rng.integers(12, 37))
            factor = float(rng.uniform(2.0, 5.0))
            values[i, start:start + dur] *= factor
    if not np.isfinite(values).all():
        raise Overflow(
            "synthetic volumes overflow the float range; lower "
            "daily_profile_amplitude, day_intensity_std or noise_std"
        )

    width = max(4, len(str(n_bs - 1)))
    bs_ids = [f"bs_{i:0{width}d}" for i in range(n_bs)]
    return TrafficMatrix(bs_ids=bs_ids, values=values, start_hour=0)
