"""Partitions, signed permutations, the hyperoctahedral dominance order,
the C_n roots and the lattice steps.

A partition is a weakly decreasing tuple of nonnegative integers of fixed
length n; the empty tuple encodes the length-0 partition.  Partitions index
both the polynomial family and the states of the lattice model (the parts
are particle positions on the half line).  The positive roots of C_n give
the Weyl denominator, the torus weight and the character multiplicities;
the unit steps lam +- e_j give the recurrence, the Hamiltonian and the
boundary potential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import budget


def is_partition(parts: Sequence[int]) -> bool:
    """True iff the sequence is weakly decreasing with nonnegative integer
    entries; bools are not parts."""
    return all(isinstance(p, int) and not isinstance(p, bool) for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    ) and (len(parts) == 0 or parts[-1] >= 0)


def multiplicity(lam: tuple[int, ...], l: int) -> int:
    """m_l(lam): the number of parts equal to l (0 for the empty partition)."""
    return lam.count(l)


def dominance_leq(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Hyperoctahedral dominance: all partial sums of mu bounded by lam's.

    Unlike ordinary dominance there is no equal-degree requirement, so
    partitions of different sizes can be comparable.
    """
    if len(mu) != len(lam):
        raise ValueError(f"length mismatch: {len(mu)} vs {len(lam)}")
    total_mu = 0
    total_lam = 0
    for a, b in zip(mu, lam):
        total_mu += a
        total_lam += b
        if total_mu > total_lam:
            return False
    return True


def enumerate_partitions(n: int, max_part: int) -> list[tuple[int, ...]]:
    """All length-n partitions with parts <= max_part, in graded lex order.

    They are the multisets of n parts drawn from max_part down to 0, so the
    count is binomial(n + max_part, n), checked against the node budget
    before any is built.  Graded lex (total size first, then lexicographic)
    is the deterministic order used by every report.
    """
    if n < 0 or max_part < 0:
        raise ValueError("n and max_part must be nonnegative")
    states = math.comb(n + max_part, n)
    what = f"{states} partitions of length {n} with parts up to {max_part}"
    budget.check(states, what, {"n": n, "maxPart": max_part, "states": states})
    descending = range(max_part, -1, -1)
    return sorted(
        itertools.combinations_with_replacement(descending, n), key=lambda p: (sum(p), p)
    )


def lower_set(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All mu with mu <= lam in dominance order (lam included), graded lex."""
    n = len(lam)
    bound = lam[0] if lam else 0
    return [mu for mu in enumerate_partitions(n, bound) if dominance_leq(mu, lam)]


def orbit(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The signed-permutation orbit of lam, duplicates removed, sorted."""
    images: set[tuple[int, ...]] = set()
    for perm in set(itertools.permutations(lam)):
        choices = [(v,) if v == 0 else (v, -v) for v in perm]
        for image in itertools.product(*choices):
            images.add(image)
    return sorted(images)


def add_part(lam: tuple[int, ...], l: int) -> tuple[int, ...]:
    """The partition obtained by inserting one part of size l."""
    if l < 0:
        raise ValueError("part must be nonnegative")
    return tuple(sorted(lam + (l,), reverse=True))


def remove_part(lam: tuple[int, ...], l: int) -> tuple[int, ...]:
    """Discard one part of size l; error if no such part exists."""
    if l not in lam:
        raise ValueError(f"partition {lam} has no part of size {l}")
    idx = lam.index(l)
    return lam[:idx] + lam[idx + 1 :]


def raise_indices(lam: tuple[int, ...]) -> list[int]:
    """0-based indices j where lam + e_j is still a partition."""
    return [j for j in range(len(lam)) if j == 0 or lam[j - 1] > lam[j]]


def lower_indices(lam: tuple[int, ...]) -> list[int]:
    """0-based indices j where lam - e_j is still a partition."""
    n = len(lam)
    return [
        j
        for j in range(n)
        if lam[j] >= 1 and (j == n - 1 or lam[j + 1] < lam[j])
    ]


def unit_steps(lam: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(j, step, lam + step e_j) for every unit step that stays a partition:
    the raises (step +1) first, then the lowers (step -1), each by j."""
    steps = [(j, 1) for j in raise_indices(lam)] + [(j, -1) for j in lower_indices(lam)]
    return [(j, s, lam[:j] + (lam[j] + s,) + lam[j + 1 :]) for j, s in steps]


def unit_step(lam: tuple[int, ...], j: int, step: int) -> tuple[int, ...]:
    """lam +- e_j, validated to stay inside the partition cone."""
    if step == 1:
        valid = j in raise_indices(lam)
    elif step == -1:
        valid = j in lower_indices(lam)
    else:
        raise ValueError("step must be +1 or -1")
    if not valid:
        raise ValueError(f"{lam} {'+' if step == 1 else '-'} e_{j} leaves the cone")
    return lam[:j] + (lam[j] + step,) + lam[j + 1 :]


def positive_roots(n: int) -> tuple[tuple[int, ...], ...]:
    """The n^2 positive roots of C_n as exponent vectors: the short roots
    e_j - e_k, e_j + e_k for j < k, then the long roots 2 e_j."""
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    short = [
        tuple(a + sign * b for a, b in zip(unit[j], unit[k]))
        for j in range(n)
        for k in range(j + 1, n)
        for sign in (-1, 1)
    ]
    return tuple(short + [tuple(2 * a for a in e) for e in unit])


def weyl_vector(n: int) -> tuple[int, ...]:
    """rho = (n, ..., 1), half the sum of the positive roots of C_n."""
    return tuple(range(n, 0, -1))


@dataclass(frozen=True)
class SignedPermutation:
    """Element (sigma, eps) of the hyperoctahedral group on n letters.

    perm is the 0-based image tuple of sigma; signs are +-1.  Acting on a
    vector v produces w with w[perm[j]] = signs[j] * v[j], matching the
    variable substitution x_j -> x_{sigma_j}^{eps_j}.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a bijection on 0..{n-1}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs {self.signs} must be +-1 of length {n}")

    @property
    def size(self) -> int:
        return len(self.perm)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Image of an integer (exponent) vector."""
        if len(vector) != self.size:
            raise ValueError("vector length mismatch")
        out = [0] * self.size
        for j, v in enumerate(vector):
            out[self.perm[j]] = self.signs[j] * v
        return tuple(out)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)


def group_order(n: int) -> int:
    """|W| = 2^n n!."""
    return (2**n) * math.factorial(n)


def hyperoctahedral_group(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! signed permutations, in a fixed deterministic order."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(perm, signs)


def group_generators(n: int) -> list[SignedPermutation]:
    """Adjacent transpositions plus one sign flip; they generate the group."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPermutation(tuple(perm), (1,) * n))
    if n >= 1:
        signs = [1] * n
        signs[n - 1] = -1
        gens.append(SignedPermutation(tuple(range(n)), tuple(signs)))
    return gens
