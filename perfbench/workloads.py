"""Seeded instance generator for the benchmark workloads.

Each workload is a fixed grid over the properties that drive run time
(alphabet, epsilon, word count and, for Zipf-like counts, the exponent); the
seed draws the word weights. So every
seed covers the same range in the same proportions, and the run-to-run
spread measures the program rather than the luck of the mix: one more word
can cost 1.5x in solve time.

Sizes are chosen so that a pass over search or verify takes ~5 s on one
2.1 GHz core, and a 20 s run times each of their instances several times.
That is why search stops at n=12 (at n=16 the alphabet 1 3 alone takes
5-12 s per instance) and verify at n=9 (the exact oracle takes 1.5-9 s at
n=10).

On the small-n workloads (search, verify) a fresh weight draw still moves one
instance's time by ~15-25%, and a few dozen instances do not average that
out, so there each grid cell has a fixed base weight profile and the seed
scales every weight by its own factor in [0.98, 1.02]: distinct inputs of
the same shape. (With factors in [0.9, 1.1] the search's node count at the
tail instance still moved by +-7% from seed to seed.) The large-n workloads
(codebook, tiny) draw per-word jitter and the word order afresh per seed;
their Zipf exponent is part of the grid.

Instances are written in the command line file format: letter costs on
line 1, integer word weights (unsorted) on line 2.

This module uses the standard library only; it never imports lettercost.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

SEARCH_ALPHABETS = ((1, 2), (1, 3), (2, 3, 4), (1, 1, 2))
CODEBOOK_ALPHABETS = ((1, 2), (1, 1, 2))
# Zipf exponents, one per pair of consecutive grid cells (the pair's two
# cells take the two alphabets)
ZIPF_EXPONENTS = (0.7, 0.8, 0.9, 1.0)

# Why each workload exists; run.py prints these in its summary.
WHY = {
    "search": "n 8, 10, 12, telegraph and RLL alphabets, eps 1/2..1/5: time goes to the guess search, heavy-tailed latency",
    "codebook": "n 1024-4096 Zipf counts at eps 1: time goes to large-codebook assembly, search is a small share",
    "tiny": "n 256-1024 with a cheapest letter below eps/n: the direct tiny-letter path and is_prefix_free, no search",
    "verify": "n 6-9 solved and checked against the exact optimum: the only workload that runs the oracles",
}


@dataclass(frozen=True)
class Spec:
    """One generated instance: what the file holds plus its epsilon."""

    costs: tuple[Fraction, ...]  # sorted nondecreasing
    weights: tuple[int, ...]  # file order, unsorted
    epsilon: Fraction

    @property
    def n(self) -> int:
        return len(self.weights)


def _spaced(lo: int, hi: int, count: int) -> list[int]:
    """`count` evenly spaced integers from lo to hi inclusive."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _jittered_weights(rng: random.Random, cell: str, n: int) -> tuple[int, ...]:
    """The cell's fixed base profile (uniform 100..10000), each weight scaled
    by a seeded factor in [0.98, 1.02]."""
    base = random.Random(cell)
    return tuple(round(base.randint(1, 100) * 100 * rng.uniform(0.98, 1.02)) for _ in range(n))


def _zipf_weights(rng: random.Random, n: int, cell: int) -> tuple[int, ...]:
    """Zipf-like counts, the exponent fixed by the grid cell, with seeded
    per-word jitter, shuffled."""
    s = ZIPF_EXPONENTS[cell // 2 % len(ZIPF_EXPONENTS)]
    ws = [max(1, int(10**6 / (i + 1) ** s * rng.uniform(0.5, 1.5))) for i in range(n)]
    rng.shuffle(ws)
    return tuple(ws)


def _costs(values) -> tuple[Fraction, ...]:
    return tuple(sorted(Fraction(v) for v in values))


def _search(rng: random.Random) -> list[Spec]:
    out = []
    for alphabet in SEARCH_ALPHABETS:
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5)):
            for n in (8, 10, 12):
                weights = _jittered_weights(rng, "search:%s:%s:%d" % (alphabet, eps, n), n)
                out.append(Spec(_costs(alphabet), weights, eps))
    return out


def _codebook(rng: random.Random) -> list[Spec]:
    out = []
    for i, n in enumerate(_spaced(1024, 4096, 32)):
        alphabet = CODEBOOK_ALPHABETS[i % len(CODEBOOK_ALPHABETS)]
        out.append(Spec(_costs(alphabet), _zipf_weights(rng, n, i), Fraction(1)))
    return out


def _tiny(rng: random.Random) -> list[Spec]:
    # the cheapest letter costs eps/(4n) relative to the second letter, well
    # under the eps/n dispatch threshold; n spans 256..1024 evenly, which
    # includes the band just below 512 where the library's recursive prefix
    # check overflows the interpreter stack
    out = []
    eps = Fraction(1, 2)
    for i, n in enumerate(_spaced(256, 1024, 40)):
        alphabet = (eps / (4 * n), 1, 2) if i % 2 else (eps / (4 * n), 1)
        out.append(Spec(_costs(alphabet), _zipf_weights(rng, n, i), eps))
    return out


def _verify(rng: random.Random) -> list[Spec]:
    epsilons = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    out = []
    for alphabet in SEARCH_ALPHABETS:
        for n in (6, 7, 8, 9, 6, 7, 8, 9):
            eps = epsilons[len(out) % len(epsilons)]
            weights = _jittered_weights(rng, "verify:%s:%d:%d" % (alphabet, n, len(out)), n)
            out.append(Spec(_costs(alphabet), weights, eps))
    return out


GENERATORS = {"search": _search, "codebook": _codebook, "tiny": _tiny, "verify": _verify}


def generate(workload: str, seed: int) -> list[Spec]:
    """The workload's instance list for this seed, in run order."""
    return GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))


def write_instances(specs: list[Spec], directory: str) -> list[str]:
    """Write one instance file per spec plus manifest.json ([path, epsilon]
    pairs, for the set-up probe); returns the file paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, spec in enumerate(specs):
        path = os.path.join(directory, "%03d.txt" % i)
        with open(path, "w") as fh:
            fh.write(" ".join(str(c) for c in spec.costs) + "\n")
            fh.write(" ".join(str(w) for w in spec.weights) + "\n")
        paths.append(path)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump([[p, str(s.epsilon)] for p, s in zip(paths, specs)], fh)
    return paths
