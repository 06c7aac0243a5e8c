"""Seeded query streams, generated by the benchmark's own PRNG.

The generator lives here, not in supersub, so a change to the program can
never change the benchmark's inputs. A stream is a list of test-row
indices; the program only ever receives the feature rows they name.
"""

from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias)."""
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n


def stream_seed(workload: str, seed: int) -> int:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    return (seed ^ tag) & MASK64


def iid_stream(prng: SplitMix64, rows_by_super: list[list[int]], n: int) -> list[int]:
    """Each query's superclass is uniform and independent of the last."""
    out = []
    for _ in range(n):
        rows = rows_by_super[prng.below(len(rows_by_super))]
        out.append(rows[prng.below(len(rows))])
    return out


def local_stream(prng: SplitMix64, rows_by_super: list[list[int]], n: int, runs: int) -> list[int]:
    """Exactly `runs` runs of one superclass, each differing from the last.

    Run lengths are the gaps between runs - 1 cut points drawn uniformly
    without replacement from 1..n-1, so they are close to geometric with
    mean n / runs, while the number of superclass changes stays fixed.
    """
    positions = list(range(1, n))
    for i in range(runs - 1):
        j = i + prng.below(len(positions) - i)
        positions[i], positions[j] = positions[j], positions[i]
    cuts = sorted(positions[: runs - 1]) + [n]
    n_super = len(rows_by_super)
    out: list[int] = []
    current = prng.below(n_super)
    start = 0
    for end in cuts:
        rows = rows_by_super[current]
        out.extend(rows[prng.below(len(rows))] for _ in range(end - start))
        current = (current + 1 + prng.below(n_super - 1)) % n_super
        start = end
    return out


def stream_hash(workload: str, stream: list[int]) -> str:
    text = workload + ":" + ",".join(map(str, stream))
    return hashlib.sha256(text.encode()).hexdigest()
