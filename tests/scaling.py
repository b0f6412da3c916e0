"""Long finite games: how their work grows with the run length.

    PYTHONPATH=src python tests/scaling.py

For n = 64, 128, 256 and 512 it plays `play_game(Ordinal(0, n),
random_opponent(3), 0)`, checks the transcript with `check_run_invariants`,
and prints one row per n:
- the Python calls of play and invariants together, and those of
  `_slot_pairs`, `mk_entry` and `reindex`, as cProfile counts them (a
  generator's every resumption is a call, so `_slot_pairs` counts the entry
  pairs it yields);
- the z-checks that walk every coordinate ("full z walks"): the calls of
  `amalgam._z_fault` without a lower coordinate bound, in play and in the
  invariants (`z_walks`);
- the wall time of play and of the invariants, in ms, the median of three
  runs without the profiler.

The counts are exact and repeat on every host; the times do not. Only the
standard library is used. `tests/test_game.py` imports `counted_long_game`
for its count guard, and `z_walks` for its evidence tests.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from contextlib import contextmanager

from ascentlab import amalgam
from ascentlab.foundations import Ordinal
from ascentlab.game import check_run_invariants, play_game, random_opponent

LENGTHS = (64, 128, 256, 512)
COUNTED = ("_slot_pairs", "mk_entry", "reindex")


@contextmanager
def z_walks():
    """While the block runs, record the stage (the z-map's lower end) of
    each walk of the z-bullets (`amalgam._z_fault`): under "full" those that
    read every coordinate, under "lemma" those the stage lemma bounds
    below."""
    walks = {"full": [], "lemma": []}
    fault = amalgam._z_fault

    def recording(cond, z, pieces, low=None):
        walks["full" if low is None else "lemma"].append(z.lo)
        return fault(cond, z, pieces, low)
    amalgam._z_fault = recording
    try:
        yield walks
    finally:
        amalgam._z_fault = fault


def counted_long_game(n: int):
    """(transcript, report, calls, walks) for the game of length n and its
    invariant check run under cProfile: calls maps "total" and each
    function name to its count, walks maps "play" and "invariants" to the
    stages of their full z walks."""
    prof = cProfile.Profile()
    prof.enable()
    with z_walks() as play:
        t = play_game(Ordinal(0, n), random_opponent(3), 0)
    with z_walks() as invariants:
        report = check_run_invariants(t)
    prof.disable()
    walks = {"play": play["full"], "invariants": invariants["full"]}
    stats = pstats.Stats(prof)
    calls = {"total": stats.total_calls}
    for (_, _, name), (_, nc, _, _, _) in stats.stats.items():
        calls[name] = calls.get(name, 0) + nc
    return t, report, calls, walks


def timed_long_game(n: int, runs: int = 3) -> tuple[float, float]:
    """The median wall time of play and of the invariants, in ms."""
    play, inv = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        t = play_game(Ordinal(0, n), random_opponent(3), 0)
        t1 = time.perf_counter()
        assert check_run_invariants(t).ok
        play.append(t1 - t0)
        inv.append(time.perf_counter() - t1)
    return statistics.median(play) * 1000, statistics.median(inv) * 1000


def main() -> None:
    head = ("n", "calls", *COUNTED, "full z walks", "play ms", "invariants ms")
    print(" | ".join(head))
    for n in LENGTHS:
        t, report, calls, walks = counted_long_game(n)
        assert t.verdict == "II_completed" and report.ok
        play_ms, inv_ms = timed_long_game(n)
        row = (n, calls["total"], *(calls.get(name, 0) for name in COUNTED),
               f"{len(walks['play'])} + {len(walks['invariants'])}",
               f"{play_ms:.0f}", f"{inv_ms:.0f}")
        print(" | ".join(str(v) for v in row))


if __name__ == "__main__":
    main()
