"""The integer draws behind every group and work-unit complexity.

`random` guarantees a seed's sequence across Python versions only for
`random()`; its helpers (`randrange`, `randint`, `sample`) may change.
These are CPython's algorithms for them, written out here, so the
determinism contract rests on `getrandbits` alone: a `Random` is used
only for seeding, `getrandbits` and `random()`.
"""
from __future__ import annotations

from math import ceil, log
from typing import List


def below(rng, n: int) -> int:
    """A uniform int in [0, n), n > 0: `Random._randbelow_with_getrandbits`,
    so `randrange(n)` and `randint(0, n - 1)` draw it alike."""
    if n <= 0:
        raise ValueError(f"empty range [0, {n})")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample_indices(rng, n: int, k: int) -> List[int]:
    """k distinct ints from range(n) in draw order, with the draws of
    `Random.sample(range(n), k)`: a shrinking pool while n is at most
    21 (+ 4 ** ceil(log(3k, 4)) when k > 5), else rejection from a set."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n}")
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = below(rng, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]  # the last live slot fills the vacancy
    else:
        selected = set()
        for _ in range(k):
            j = below(rng, n)
            while j in selected:
                j = below(rng, n)
            selected.add(j)
            result.append(j)
    return result
