"""Deterministic random-number-generation helpers.

All stochastic components of the library (weight initialization, data
generation, bit error injection, augmentation) take an explicit
``numpy.random.Generator``.  These helpers make it easy to derive independent
generators from a single experiment seed, mirroring the paper's setup where
the 50 simulated "chips" (bit error patterns) are pre-determined by fixed
seeds so results are comparable across models and bit error rates.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["SeedSequence", "new_rng", "spawn_rngs", "as_rng", "derived_seed"]

SeedLike = Union[int, np.random.Generator, None]


class SeedSequence:
    """A thin wrapper around :class:`numpy.random.SeedSequence`.

    Provides named child sequences so that, e.g., the bit-error RNG used for
    evaluation never collides with the training RNG regardless of how many
    draws each consumes.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seq = np.random.SeedSequence(seed)
        self.seed = seed

    def rng(self) -> np.random.Generator:
        """Return a generator seeded by this sequence."""
        return np.random.default_rng(self._seq)

    def child(self, index: int) -> "SeedSequence":
        """Return the ``index``-th child seed sequence (deterministic)."""
        children = self._seq.spawn(index + 1)
        out = SeedSequence.__new__(SeedSequence)
        out._seq = children[index]
        out.seed = None
        return out

    def spawn(self, n: int) -> List["SeedSequence"]:
        """Spawn ``n`` independent child sequences."""
        children = self._seq.spawn(n)
        result = []
        for c in children:
            out = SeedSequence.__new__(SeedSequence)
            out._seq = c
            out.seed = None
            result.append(out)
        return result


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a non-deterministic generator, an ``int`` a seeded one,
    and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def new_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a fresh generator from an integer seed (or entropy if ``None``)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: Optional[int], n: int) -> List[np.random.Generator]:
    """Create ``n`` statistically independent generators from one seed.

    Used, e.g., to pre-determine the ``n`` simulated chips whose bit error
    patterns are held fixed across every model evaluated (App. F of the
    paper).
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def sample_seeds(rng: np.random.Generator, n: int) -> Sequence[int]:
    """Draw ``n`` integer seeds from ``rng`` (for logging / reproducibility)."""
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def derived_seed(*tokens: object) -> int:
    """A stable 63-bit seed derived from string-able ``tokens`` (SHA-256).

    Anywhere the infrastructure needs randomness that must be reproducible
    across processes and hosts (retry-backoff jitter, idle-poll jitter,
    fault-schedule rolls, fair-share tie-breaks), it derives a seed from its
    identifying tokens and feeds it to :func:`new_rng` instead of consuming
    ambient entropy.
    """
    joined = "\x1f".join(str(token) for token in tokens)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
