"""One benchmark request: a timed library call and an untimed check."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional


class Request(NamedTuple):
    kind: str
    call: Callable[[], object]
    # Returns None for a correct answer, else the reason it is wrong.
    check: Callable[[object], Optional[str]]


def strata(rng, n: int) -> list:
    """n size quantiles, one in each of [i/n, (i+1)/n), in random order.

    Drawing sizes from these instead of independently gives every seed
    the same spread of request sizes, so throughput differs between
    seeds far less than with a heavy-tailed independent draw.
    """
    quantiles = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(quantiles)
    return quantiles
