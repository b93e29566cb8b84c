"""Seeded sampling of random fans: keep each ray independently, then complete.

Reproducibility contract: the per-ray keep/drop decisions come from a
counter-based generator -- numpy's Philox4x64-10, keyed by the pair
(master_seed, trial_index) -- consumed as one uniform per ray in canonical
angular order.  The same configuration therefore produces the same fan on
any platform, in any process, under any thread schedule, and distinct trial
indices give statistically independent streams with no sequential state to
hand around.  Golden samples pinned in the test suite only change if this
generator choice is deliberately revised together with the documentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_real
from .fans import Fan
from .lattice import RayUniverse, _check_height, count_geq, enumerate_rays

#: Identity of the bit generator behind sample_fan and the sweep trials.
RNG_ALGORITHM = "numpy Philox4x64-10, keyed (master_seed, trial_index)"

#: Largest master seed or trial index: each keys Philox as one uint64 word.
UINT64_MAX = 2**64 - 1


@dataclass(frozen=True, slots=True)
class SampleConfig:
    """One seeded draw from the random-fan distribution at height h.

    p is the per-ray inclusion probability.  The experiment layer mostly
    thinks in the drop probability q = 1 - p, exposed as a property.
    """

    h: int
    p: float
    master_seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        # stored as Python int and float; the dataclass is frozen
        object.__setattr__(self, "h", _check_height(self.h))
        object.__setattr__(self, "p", check_real(self.p, "inclusion probability", 0, 1))
        object.__setattr__(self, "master_seed", check_int(self.master_seed, "master_seed", 0, UINT64_MAX))
        object.__setattr__(self, "trial_index", check_int(self.trial_index, "trial_index", 0, UINT64_MAX))

    @property
    def q(self) -> float:
        """Per-ray drop probability 1 - p."""
        return 1.0 - self.p


def _keep_mask(cfg: SampleConfig, universe: RayUniverse) -> np.ndarray:
    key = np.array([cfg.master_seed, cfg.trial_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(len(universe)) < cfg.p


def sample_fan(cfg: SampleConfig) -> Fan:
    """Draw a ray subset, one Bernoulli(p) decision per universe ray, and
    complete it to a fan.

    Agrees with complete_fan of the kept rays but skips re-sorting: they
    inherit the universe's canonical order, so a draw costs one uniform
    array plus one boolean mask even at large h.
    """
    universe = enumerate_rays(cfg.h)
    return Fan(universe.coords[_keep_mask(cfg, universe)])


def prob_complete(h: int, q: float) -> tuple[float, float]:
    """Probability that a draw with drop probability q keeps every ray.

    Returns (exact, approx): exact is (1 - q)**n over the n rays at height h,
    computed stably as exp(n * log1p(-q)); approx is the surrogate exp(-n*q),
    which exact approaches whenever n * q**2 is small.  n is counted, not
    enumerated, so no height <= MAX_H builds a ray.
    """
    q = check_real(q, "drop probability", 0, 1)
    n = count_geq(h, 1)
    exact = 0.0 if q == 1.0 else math.exp(n * math.log1p(-q))
    return exact, math.exp(-n * q)
