"""Seeded sampling of random fans: keep each ray independently, then complete.

The keep decisions read one uniform per ray, in canonical angular order,
from numpy's Philox4x64-10 keyed (master_seed, trial_index): README
"Reproducibility" gives the contract, which the golden draws pinned in the
test suite hold.  _keep_threshold turns a uniform comparison into an
integer one on the raw words, and _trial_words is the one reader of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ._numpy import np
from .counting import _check_height, count_geq
from .errors import check_int, check_real
from .lattice import enumerate_rays

if TYPE_CHECKING:
    from .fans import Fan

#: Identity of the bit generator behind sample_rays and the sweep trials.
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


#: Raw Philox words per window of a trial's stream, so a draw at any
#: height allocates no n-sized uint64 temporary; also the keep positions of
#: a block of a sweep's work (randfan.experiments).
_BLOCK_RAYS = 1 << 16

#: The counter and buffer a new Philox starts with.
_ZERO4 = np.zeros(4, dtype=np.uint64)


def _keep_threshold(p: float) -> int:
    """Integer t with (u < p) == (raw < t) for every raw Philox word.

    Generator.random() is (raw >> 11) * 2**-53, so u < p exactly when
    raw >> 11 < ceil(p * 2**53), that is raw < ceil(p * 2**53) * 2**11.
    At p = 1 this is 2**64, past every uint64, and at p = 0 it is 0.
    """
    return math.ceil(Fraction(p) * 2**53) << 11


def _decided(threshold: int) -> bool | None:
    """Every ray's keep decision when threshold makes it whatever the word:
    no word is below 0 (p = 0) and every word is below 2**64 (p = 1).  None
    when the words decide: only then does a draw read them."""
    return None if 0 < threshold <= UINT64_MAX else threshold > 0


def _rekey(bitgen: np.random.Philox, master_seed: int, trial_index: int) -> None:
    """Put bitgen in the state a new Philox keyed (master_seed, trial_index)
    starts in, so one generator serves any number of draws without building
    a new one (and its SeedSequence) for each."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": np.array([master_seed, trial_index], dtype=np.uint64)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _trial_words(bitgen: np.random.Philox, master_seed: int, trial_index: int, n: int, window: int):
    """The first n raw words of trial (master_seed, trial_index)'s stream,
    as arrays of window words (the last one may be shorter), read from
    bitgen, which is re-keyed once, when the first is taken.

    This is the one reader of Philox words: sample_rays and the sweeps,
    whose cells all read trial t's stream, go through it.
    """
    _rekey(bitgen, master_seed, trial_index)
    for lo in range(0, n, window):
        yield bitgen.random_raw(min(window, n - lo))


def sample_rays(cfg: SampleConfig) -> np.ndarray:
    """The rays one draw keeps, one Bernoulli(p) decision per universe ray,
    in its canonical order: one pass over the raw Philox words plus one
    boolean mask, even at large h."""
    universe = enumerate_rays(cfg.h)
    n = len(universe)
    threshold = _keep_threshold(cfg.p)
    decided = _decided(threshold)
    keep = np.full(n, bool(decided))
    if decided is None:
        words = _trial_words(np.random.Philox(0), cfg.master_seed, cfg.trial_index, n, _BLOCK_RAYS)
        for lo, window in zip(range(0, n, _BLOCK_RAYS), words):
            np.less(window, np.uint64(threshold), out=keep[lo : lo + _BLOCK_RAYS])
    return universe.coords[keep]


def sample_fan(cfg: SampleConfig) -> Fan:
    """The fan of sample_rays(cfg), whose rays inherit the universe's
    order: complete_fan of them, without the sort."""
    from .fans import Fan  # imported here: neither the sweeps nor the sample command load fans

    return Fan(sample_rays(cfg))


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
