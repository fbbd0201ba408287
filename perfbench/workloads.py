"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of batches; a batch is a list of argv lists
for ``qvirial.cli.main``.  Every batch of a workload has the same shape (the
same subcommands, kinds and truncation orders in the same order) and only the
rational parameters differ, so batch wall times are comparable within a run
and across seeds.  The sequence is a pure function of (workload, seed), and no
two model jobs of one run share a descriptor and K, so a result cache inside
the program cannot show a gain that a user running each table once would not
see.  The sequence ends when a parameter pool runs dry.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

WORKLOADS = ("exact-deep", "decimal-deep", "mixed-cli")

# Batches a run executes: (untraced run, traced run).  At the commit that
# added the benchmark the untraced counts take 10-25 s on a shared 2-core
# machine, depending on its load, so that all the runs a benchmark comparison
# makes fit its time budget.  A traced run executes its batches twice,
# untraced and traced.
BATCHES = {"exact-deep": (3, 1), "decimal-deep": (8, 3), "mixed-cli": (20, 8)}

_POOL_TRIES = 400


class PoolExhausted(Exception):
    """No fresh job is left for a place in the batch: BATCHES asks for more
    batches than the workload's parameter pools hold."""


@functools.lru_cache(maxsize=None)
def _pool(dens: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[Fraction, ...]:
    """The rationals strictly between lo and hi whose reduced denominator is in dens, except 1."""
    values = {Fraction(num, den) for den in dens for num in range(int(lo * den), int(hi * den) + 1)}
    return tuple(sorted(v for v in values if v.denominator in dens and lo < v < hi and v != 1))


def _rational(rng: random.Random, dens, lo: Fraction, hi: Fraction) -> Fraction:
    """A value drawn uniformly from the pool.  Each value is equally likely, so
    the draws that the no-repeat rule rejects do not shift the mix of
    denominators, and with it the cost of a batch, from the first batch of a
    run to the last."""
    return rng.choice(_pool(tuple(dens), lo, hi))


def job_key(argv: list[str]):
    """Model jobs are keyed by (descriptor, K); every other job by its argv."""
    if argv[0] in ("virial", "series"):
        return argv[argv.index("--sf") + 1], argv[argv.index("--K") + 1]
    return tuple(argv)


class _Fresh:
    """Draws jobs and rejects any whose key was already used in this run."""

    def __init__(self) -> None:
        self.seen: set = set()

    def take(self, draw) -> list[str]:
        for _ in range(_POOL_TRIES):
            argv = draw()
            key = job_key(argv)
            if key not in self.seen:
                self.seen.add(key)
                return argv
        raise PoolExhausted


# -- exact-deep --------------------------------------------------------------

# (descriptor kind, K): surd-ring virial tables at K 16..20.  The q: tables
# carry most of the time because their cost hardly depends on q, which keeps
# batch times steady across seeds.  mu: costs vary with mu's denominator by up
# to 2.6x at K=16, so the mu: tables take mu = c/5, whose four values cost
# the same within timing noise; that pool is enough for four batches.  The
# jobs sorted by cost fall into five classes, so the median job is a q: K=17
# table.
EXACT_SHAPE = (("mu", 16), ("mu-q", 16), ("q", 17), ("q", 18), ("q", 20))

_DENS = (2, 3, 4, 5)


def _exact_descriptor(rng: random.Random, kind: str, dens=_DENS) -> str:
    mu = _rational(rng, dens, Fraction(0), Fraction(1))
    q = _rational(rng, dens, Fraction(1, 2), Fraction(2))
    return {"mu": f"mu:{mu}", "q": f"q:{q}", "mu-q": f"mu-q:{mu},{q}"}[kind]


def _exact_deep(rng: random.Random, fresh: _Fresh, index: int):
    return [
        fresh.take(lambda: ["virial", "--sf", _exact_descriptor(rng, kind, (5,) if kind == "mu" else _DENS),
                            "--K", str(k)])
        for kind, k in EXACT_SHAPE
    ]


# -- decimal-deep ------------------------------------------------------------

# (descriptor kind, K, digits): decimal tables at K 40..80, D in {50, 100, 200}.
# Each class costs at least 1.4x the one before it, and there is an odd number
# of them, so the median job of a run always lies inside the middle class
# rather than in the gap between two.
DECIMAL_SHAPE = (
    ("q-mu", 40, 50), ("t", 50, 100), ("q-mu", 60, 200), ("t", 70, 200), ("q-mu", 80, 200),
)


def _decimal_descriptor(rng: random.Random, kind: str) -> str:
    # q > 1 and mu > 0 keep q**((1+mu)n - mu n**2) bounded, so every value
    # stays far inside the decimal budget at K = 80.  With mu = c/7 the
    # exponent is an integer only for n = 0, 1 mod 7, so the exp/ln share of
    # phi, and with it the job cost, is the same for every seed.
    q = _rational(rng, _DENS, Fraction(1), Fraction(2))
    mu = _rational(rng, (7,), Fraction(0), Fraction(1))
    if kind == "q-mu":
        return f"q-mu:{q},{mu}"
    t = _rational(rng, _DENS, Fraction(0), Fraction(1))
    return f"t:{t};mu:{mu};q:{q}"


def _decimal_deep(rng: random.Random, fresh: _Fresh, index: int):
    return [
        fresh.take(lambda: [
            "virial", "--sf", _decimal_descriptor(rng, kind), "--K", str(k),
            "--backend", f"decimal:{digits}",
        ])
        for kind, k, digits in DECIMAL_SHAPE
    ]


# -- mixed-cli ---------------------------------------------------------------

# Denominators up to 7 give the small (descriptor, K) pool room for every
# batch of a run, whatever the seed.
_SMALL_DENS = (2, 3, 4, 5, 6, 7)


def _small_descriptor(rng: random.Random) -> str:
    kind = rng.choice(("mu", "q", "mu-q"))
    return _exact_descriptor(rng, kind, _SMALL_DENS)


def _small_sweep(rng: random.Random) -> list[str]:
    mu0 = Fraction(rng.randint(0, 4), 4)
    step = Fraction(1, rng.choice((2, 3, 4, 5)))
    mu1 = mu0 + rng.randint(2, 4) * step
    return ["sweep", "--sf", f"mu:{mu0}", "--K", str(rng.randint(3, 6)), "--sweep", f"mu={mu0}:{mu1}:{step}"]


def _mixed_cli(rng: random.Random, fresh: _Fresh, index: int):
    fmt = lambda *choices: ["--format", rng.choice(choices)]  # noqa: E731
    small = lambda k_max: ["--sf", _small_descriptor(rng), "--K", str(rng.randint(4, k_max))]  # noqa: E731
    # (jobs per batch, draw); the q-eps pool holds only 35 (descriptor, K)
    # pairs, one a batch, so a run holds at most 35 batches.
    plan = [
        (10, lambda: ["virial"] + small(10) + ["--format", "csv"]),
        (10, lambda: ["virial"] + small(10) + ["--format", "json"]),
        (10, lambda: ["virial"] + small(10) + ["--format", "pretty"]),
        (12, lambda: ["series"] + small(12) + fmt("csv", "json", "pretty")),
        (3, lambda: _small_sweep(rng)),
        (2, lambda: ["eps-expand", "--order", str(rng.randint(1, 40))] + fmt("csv", "json", "pretty")),
        (2, lambda: ["eps-expand", "--order", str(rng.randint(1, 12)), "--n", str(rng.randint(0, 30))]),
        (2, lambda: ["hamiltonian", "--order", str(rng.randint(0, 40))] + fmt("csv", "json", "pretty")),
        (2, lambda: ["hamiltonian", "--order", str(rng.randint(0, 12)), "--order-mu", str(rng.randint(0, 3))]
            + fmt("csv", "json", "pretty")),
        (1, lambda: ["virial", "--sf", f"q-eps:order={rng.randint(1, 5)}", "--K", str(rng.randint(2, 8))]),
    ]
    batch = [fresh.take(draw) for count, draw in plan for _ in range(count)]
    # check-paper takes no input, so it is the one job that repeats in a run.
    batch.append(["check-paper"] + (["--format", "json"] if index % 2 else []))
    return batch


_BUILDERS = {
    "exact-deep": _exact_deep,
    "decimal-deep": _decimal_deep,
    "mixed-cli": _mixed_cli,
}


def batches(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    """The first `count` batches of the workload for this seed."""
    build = _BUILDERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    fresh = _Fresh()
    return [build(rng, fresh, index) for index in range(count)]
