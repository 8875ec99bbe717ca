"""Operation sequences of the benchmark workloads.

An op is one call of ``octaboson.cli.main(argv)``.  Each workload has a
fixed set of op kinds.  A run repeats cycles; a cycle runs every kind once,
in an order the seed chooses.  Every op gets a parameter point that no other
op of the run uses, so the caches keyed by the parameter set start cold on
every op, as in a fresh process.  Points are drawn from ``catalogue.json``.

This module does not import the program: the inputs are made here, and the
program only receives them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

WORKLOADS = ("exact-construct", "quadrature", "operator-algebra")

#: number of t parameters that are zero in each profile
ZERO_TAIL = {"four": 0, "three": 1, "two": 2}

_CATALOGUE = json.loads(Path(__file__).with_name("catalogue.json").read_text())
Q_VALUES = tuple(Fraction(v) for v in _CATALOGUE["q"])
T_VALUES = tuple(
    sign * Fraction(v) for v in _CATALOGUE["t"] for sign in (1, -1)
)
GUARD_HORIZON = int(_CATALOGUE["guard_horizon"])


def profile_point(q: Fraction, ts, profile: str) -> tuple[Fraction, ...]:
    """(q, t1, t2, t3, t4) with the profile's trailing t set to zero."""
    zeros = ZERO_TAIL[profile]
    kept = tuple(ts[: 4 - zeros])
    return (q, *kept, *(Fraction(0),) * zeros)


def default_point(profile: str) -> tuple[Fraction, ...]:
    data = _CATALOGUE["default"]
    return profile_point(Fraction(data["q"]), [Fraction(t) for t in data["t"]], profile)


def is_generic(point: tuple[Fraction, ...], horizon: int = GUARD_HORIZON) -> bool:
    """False if t = q^m or t_r t_s = q^m for some 1 <= m <= horizon."""
    q, *ts = point
    t = math.prod(ts)
    products = {a * b for a, b in itertools.combinations(ts, 2)}
    power = Fraction(1)
    for _ in range(horizon):
        power *= q
        if power == t or power in products:
            return False
    return True


def param_flags(point: tuple[Fraction, ...]) -> tuple[str, ...]:
    """Parameter flags in the ``--t3=-2/7`` form: argparse rejects
    ``--t3 -2/7``, reading the value as an option."""
    q, *ts = point
    return (f"--q={q}",) + tuple(f"--t{r}={t}" for r, t in enumerate(ts, 1))


@dataclass(frozen=True)
class Kind:
    """One op kind: an argv without its parameter flags."""

    name: str
    profile: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Op:
    kind: Kind
    cycle: int
    point: tuple[Fraction, ...]

    @property
    def argv(self) -> list[str]:
        return [*self.kind.argv, *param_flags(self.point)]


def partitions(n: int, max_part: int) -> list[tuple[int, ...]]:
    """Partitions with n parts (zeros allowed) each at most max_part."""
    descending = range(max_part, -1, -1)
    return sorted(
        itertools.combinations_with_replacement(descending, n),
        key=lambda lam: (sum(lam), lam),
    )


def _poly_kind(lam: tuple[int, ...], profile: str) -> Kind:
    text = ",".join(map(str, lam))
    argv = ("poly", "--n", str(len(lam)), "--lambda", text, "--profile", profile)
    if profile == "two":
        argv += ("--compare-macdonald",)
    return Kind(f"poly:{text}:{profile}", profile, argv)


def _verify_kind(suite: str, profile: str, *extra: str) -> Kind:
    argv = ("verify", suite, *extra, "--profile", profile)
    label = ":".join((suite, *(e for e in extra if not e.startswith("--")), profile))
    return Kind(label, profile, argv)


def kinds(workload: str) -> list[Kind]:
    """Every op kind of a workload, in a fixed order."""
    if workload == "exact-construct":
        # every fourth partition (in this fixed order) runs at the
        # two-parameter profile with the classical formula as well
        return [
            _poly_kind(lam, "two" if i % 4 == 3 else "four")
            for i, lam in enumerate(partitions(3, 3))
        ]
    if workload == "quadrature":
        return [
            _verify_kind("orthogonality", "four", "--n", "2", "--maxPart", "2", "--M", str(m))
            for m in (64, 128, 192)
        ]
    if workload == "operator-algebra":
        sector = ("--n", "3", "--maxPart", "3")
        out = [
            _verify_kind(suite, profile, *sector)
            for suite in ("algebra", "adjoint")
            for profile in ("four", "three", "two")
        ]
        out.append(_verify_kind("degeneration", "four", *sector))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _cycle_order(workload: str, rng: random.Random) -> list[Kind]:
    all_kinds = kinds(workload)
    if workload != "exact-construct":
        return rng.sample(all_kinds, len(all_kinds))
    # shuffle each group, then put a two-profile op in every fourth slot
    four = rng.sample([k for k in all_kinds if k.profile == "four"], 15)
    two = rng.sample([k for k in all_kinds if k.profile == "two"], 5)
    order = []
    for i in range(5):
        order += four[3 * i : 3 * i + 3] + [two[i]]
    return order


class PointSource:
    """Draws catalogue points; never returns a point twice, nor a default."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = {default_point(p) for p in ZERO_TAIL}

    def draw(self, profile: str) -> tuple[Fraction, ...]:
        for _ in range(10_000):
            ts = self.rng.sample(T_VALUES, 4 - ZERO_TAIL[profile])
            point = profile_point(self.rng.choice(Q_VALUES), ts, profile)
            if point not in self.used and is_generic(point):
                self.used.add(point)
                return point
        raise RuntimeError("parameter catalogue exhausted")


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The endless op sequence of a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    points = PointSource(rng)
    for cycle in itertools.count():
        for kind in _cycle_order(workload, rng):
            yield Op(kind, cycle, points.draw(kind.profile))


def anchor_argv(kind: Kind) -> list[str]:
    """The kind at the default parameter point, checked against references."""
    return [*kind.argv, *param_flags(default_point(kind.profile))]
