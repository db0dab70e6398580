"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed, an
existing :class:`numpy.random.Generator`, or ``None``; this module owns
the single normalisation function so the convention is applied uniformly.
No code in the package touches NumPy's legacy global RNG state.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

#: Root seeds the experiment engine accepts: these are the forms that can
#: be re-stated exactly in a fresh process, which the engine's
#: reproducibility and cache-key guarantees require.  (``None`` and
#: ``Generator`` are deliberately excluded and raise ``TypeError``.)
GridSeed = Union[int, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Used by the experiment engine (:meth:`repro.evaluation.TrialJob.execute`)
    so that repeated trials are independent yet fully reproducible from
    a single root seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def rng_stream(seed: SeedLike) -> Iterator[np.random.Generator]:
    """Yield an unbounded stream of independent generators from one seed."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    while True:
        (child,) = seq.spawn(1)
        yield np.random.default_rng(child)


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit integer seed from ``rng``.

    Handy when an algorithm needs to hand a child component a plain seed
    (for instance, to log it) while keeping the parent stream intact.
    """
    return int(rng.integers(0, 2**63 - 1))
