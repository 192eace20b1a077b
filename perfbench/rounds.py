"""Repeat cheap operations, spread across a pass rather than back to back.

A shared machine's speed changes by up to half and stays slow or fast
for seconds at a time, so repetitions of one operation run back to back
all see the same speed.  spread() runs every operation once, in order,
and after each slow one runs every cheap operation seen so far once
more; the samples of a cheap operation then come from the whole pass,
and their median is steadier from run to run.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


def spread(keys: Iterable[Hashable], run: Callable[[Hashable], tuple[float, bool]],
           repeat_s: float, max_reps: int, slow_s: float) -> dict:
    """Return {key: [seconds, ...]}, every key sampled at least once.

    ``run(key)`` does the operation once and returns its time and whether
    it may be repeated (False after a failure).  A key is run again while
    its samples number under ``max_reps`` and total under ``repeat_s``:
    after each call that took ``slow_s`` or more, and then in rounds at
    the end until no key wants more.
    """
    samples: dict = {}
    stopped: set = set()

    def wanted(key) -> bool:
        s = samples[key]
        return key not in stopped and len(s) < max_reps and sum(s) < repeat_s

    def sample(key) -> float:
        seconds, again = run(key)
        samples.setdefault(key, []).append(seconds)
        if not again:
            stopped.add(key)
        return seconds

    def top_up() -> None:
        for key in [k for k in samples if wanted(k)]:
            sample(key)

    for key in keys:
        if sample(key) >= slow_s:
            top_up()
    while any(wanted(k) for k in samples):
        top_up()
    return samples
