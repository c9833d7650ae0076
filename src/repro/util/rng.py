"""Deterministic random-number-generator plumbing.

Every stochastic component in :mod:`repro` accepts a ``seed`` argument that
may be ``None``, an integer, a :class:`numpy.random.SeedSequence`, or an
already-constructed :class:`numpy.random.Generator`.  Funnelling everything
through :func:`as_generator` keeps experiments reproducible end to end, and
:func:`spawn_children` provides statistically independent child streams for
components that run side by side (e.g. the per-attribute copulas of the log
synthesizer) without any correlation between them.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

__all__ = ["SeedLike", "as_generator", "spawn_children"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so callers can share one
        stream deliberately).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.Generator(np.random.PCG64(seed))
    raise TypeError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_children(seed: SeedLike, n: int) -> Sequence[np.random.Generator]:
    """Create *n* independent child generators derived from *seed*.

    When *seed* is already a ``Generator`` the children are spawned from its
    bit generator's seed sequence, so repeated calls advance deterministically
    with the parent stream.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        children = seed.bit_generator.seed_seq.spawn(n)  # type: ignore[union-attr]
    elif isinstance(seed, np.random.SeedSequence):
        children = seed.spawn(n)
    else:
        children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]
