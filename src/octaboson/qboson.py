"""Deformed q-boson operators on particle sectors and their verification.

States of the n-particle sector are finitely supported functions on
length-n partitions; the parts are particle positions on the nonnegative
integer lattice.  Creation and annihilation carry an extra deformation at
the two boundary sites 0 and 1, which breaks ultralocality there: the
operators attached to those sites commute only up to a diagonal twist.

All algebraic identity checks run in exact rational arithmetic on delta
bases and must produce literal zeros; floats enter only where the spectral
parameter does.  Wave functions are real cosine sums, each orbit sum taken
once per spectral parameter (``orbit_sums``), and complex floats enter
only in scattering.

The elementary operators are monomial on the delta basis: annihilation,
creation and the number operator each send a basis state to one basis
state times a scalar (or annihilation to 0), and distinct states to
distinct states.  Each coefficient, of the steps and of the diagonal
scalars of the relations, is cached per the occupation numbers it reads
(``qkernels.occupation_key``) and parameter point, and evaluated in
integer arithmetic by ``qkernels.exact_ratio``; the operators apply the
steps to a function's values.

Each suite runs whole in its module, its genericity guard and budget check
first; here ``verify_algebra``, ``verify_adjoint``, ``verify_degeneration``
and ``verify_eigen``.  The tables they read are made for one suite run and
go with it; no table outlives the run.

The relation checks apply each side of a relation once, to the sector's
whole delta basis: a batch holds one basis image per delta function, a
(state, numerator, denominator) triple of integers, and no function is
built per state.  Each operator of a side reads one table per (operator,
site), state -> (target, numerator, denominator), filled on first use from
the steps and shared by every check of the run (``_BasisOps``); the number
operator reads occupation counts and the point's integer powers of q
(``ParamSet.q_powers``); the batch of each operator and site of the delta
basis itself is built once per run.  The two sides are compared by integer
cross-multiplication, and a ``Fraction`` is built only where they differ.
The relations that read one site (SINGLE_SITE_RELATIONS) need one check
per site, whatever the second site.

The coefficient Hamiltonian is one exact table of rows {lam: {target:
rate}} (``_hamiltonian_rows``), read by ``apply_hamiltonian``, by the eigen
check as floats and by the symmetry check; ``hamiltonian_from_operators``
is the operator form, kept as a cross-check.  The adjoint checks apply
creation and annihilation once to each delta function: adjointness is then
c_l(mu -> lam) N_lam = N_mu a_l(lam -> mu) per step, and symmetry detailed
balance on the rows, H(lam -> mu) N_mu = N_lam H(mu -> lam) per unit step;
other pairs' supports are apart.

The degeneration checks compare the runtime steps at their reduced points
(t4 = 0, and t3 = t4 = 0), state by state, with the reduced steps
``_reduced_create_step`` and ``_reduced_annihilate_step``: each step is
made once and read once, so no table and no function is built per state.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import budget
from .hallittlewood import recurrence_sector
from .partitions import (
    add_part,
    enumerate_partitions,
    is_partition,
    multiplicity,
    raise_indices,
    remove_part,
    sector_size,
    unit_steps,
)
from .qkernels import (
    OCCUPATION_CACHE_SIZE,
    ParamSet,
    boundary_potential,
    creation_coeff,
    exact_ratio,
    hop_coeff,
    hop_up_three,
    hop_up_two,
    norm_three,
    norm_two,
    occupation_key,
    potential_three,
    potential_two,
    quadratic_norm,
)

@dataclass(frozen=True)
class LatticeFunction:
    """Finitely supported function on the length-n partition sector.

    Values are exact rationals in identity checks and floats for wave
    functions (complex values work too); zeros are never stored.  Annihilation maps sector n to
    n - 1 at every n, so sector -1 holds one function, the zero image of
    the vacuum; functions of different sectors never add.
    """

    n: int
    values: Mapping[tuple[int, ...], object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for lam, value in self.values.items():
            lam = tuple(lam)
            if len(lam) != self.n:
                raise ValueError(f"key {lam} has length != {self.n}")
            if not is_partition(lam):
                raise ValueError(f"key {lam} is not a partition")
            if value != 0:
                clean[lam] = value
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(cls, n: int, values: dict[tuple[int, ...], object]) -> "LatticeFunction":
        """Wrap values whose keys are already partitions of length n, as the
        operators build them, unchecked; zero values are still dropped."""
        out = cls.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "values", {lam: v for lam, v in values.items() if v != 0})
        return out

    @classmethod
    def delta(cls, lam: Sequence[int]) -> "LatticeFunction":
        lam = tuple(lam)
        return cls(len(lam), {lam: Fraction(1)})

    @classmethod
    def zero(cls, n: int) -> "LatticeFunction":
        return cls(n, {})

    @property
    def is_zero(self) -> bool:
        return not self.values

    def __call__(self, lam: Sequence[int]):
        return self.values.get(tuple(lam), 0)

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        if self.n != other.n:
            raise ValueError("sector mismatch")
        out = dict(self.values)
        for lam, v in other.values.items():
            out[lam] = out.get(lam, 0) + v
        return LatticeFunction._trusted(self.n, out)

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        return self + other.scale(-1)

    def scale(self, factor) -> "LatticeFunction":
        return LatticeFunction._trusted(self.n, {k: factor * v for k, v in self.values.items()})


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def _occupation_pair(lam: tuple[int, ...]) -> tuple[int, int]:
    return multiplicity(lam, 0), multiplicity(lam, 1)


def _annihilate_step(l: int, mu: tuple[int, ...], params: ParamSet):
    """(target, coefficient) of delta_mu under annihilate(l), or None when
    site l is empty; the coefficient is None where it is 1."""
    if multiplicity(mu, l) == 0:
        return None
    lam = remove_part(mu, l)
    if l == 0 and params.t:
        return lam, _annihilation_coeff(*_occupation_pair(lam), params)
    return lam, None


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _annihilation_coeff(m0: int, m1: int, params: ParamSet) -> Fraction:
    """1 / (1 - t q^{2 m_0 + m_1}) at the occupations of the target state."""
    return exact_ratio((), ((params.t, 2 * m0 + m1),), params, "annihilation denominator vanishes")


def _create_step(l: int, mu: tuple[int, ...], params: ParamSet):
    """(target, coefficient) of delta_mu under create(l)."""
    lam = add_part(mu, l)
    return lam, creation_coeff(lam, l, params)


def _number_step(l: int, mu: tuple[int, ...], params: ParamSet):
    """(target, coefficient) of delta_mu under number_op(l); the
    coefficient is None where site l is empty."""
    m = multiplicity(mu, l)
    return mu, params.q**m if m else None


def _apply_steps(
    step: Callable, l: int, f: LatticeFunction, params: ParamSet, n: int
) -> LatticeFunction:
    """Sum of value * coefficient at the target of each state of f; a unit
    step (coefficient None) passes the value on as it is."""
    out: dict[tuple[int, ...], object] = {}
    for mu, value in f.values.items():
        image = step(l, mu, params)
        if image is not None:
            lam, coeff = image
            if coeff is not None:
                value = value * coeff
            if lam in out:
                out[lam] += value
            else:
                out[lam] = value
    return LatticeFunction._trusted(n, out)


def annihilate(l: int, f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Remove a particle from site l (sector n -> n-1).

    The value at a target state is the source value, divided for l = 0 by
    (1 - t q^{2 m_0 + m_1}) of the target state; that factor is 1 when
    t = 0, as in the reduced profiles.  The vacuum has no particle to
    remove, so its image is the zero function of sector -1.
    """
    return _apply_steps(_annihilate_step, l, f, params, f.n - 1)


def create(l: int, f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Add a particle at site l (sector n -> n+1); adjoint of annihilate.

    The coefficient of a created state is ``creation_coeff``, the same
    general formula as the Hamiltonian's up-hop rate, at every profile.
    """
    return _apply_steps(_create_step, l, f, params, f.n + 1)


def number_op(l: int, f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Multiplication by q^{m_l(lam)}."""
    return _apply_steps(_number_step, l, f, params, f.n)


def sector_inner_product(f: LatticeFunction, g: LatticeFunction, params: ParamSet):
    """<f, g> = sum over lam of f(lam) conj(g(lam)) N_lam."""
    if f.n != g.n:
        raise ValueError("sector mismatch")
    total = 0
    for lam, fv in f.values.items():
        gv = g.values.get(lam)
        if gv is None:
            continue
        gv = gv.conjugate() if isinstance(gv, complex) else gv
        total += fv * gv * quadratic_norm(lam, params)
    return total


# ---------------------------------------------------------------------------
# Commutation relations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _twist_ratio(m0: int, m1: int, params: ParamSet, inverse: bool) -> Fraction:
    """(1 - q t N0^2 N1) / (1 - t N0^2 N1) at occupations (m0, m1) of sites
    0, 1 (or its inverse)."""
    k = 2 * m0 + m1
    upper, lower = ((params.t, k + 1),), ((params.t, k),)
    if inverse:
        upper, lower = lower, upper
    return exact_ratio(upper, lower, params, "twist factor denominator vanishes")


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _pair_scalar_b(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    """Diagonal value of the normal-ordered product create(l) annihilate(l)
    on a state with ``occupation_key`` (site, m, m0, m1) at l:

        (1 - q^m) / (1 - q), times at site 0 prod_{r<s} (1 - t_r t_s q^{m0-1}),
        times at sites 0 and 1 (1 - t q^{2 m0 + m1 - 1}), times at site 0
        (1 - t q^{m0-2}) / ((1 - t q^{2 m0 - 3}) (1 - t q^{2 m0 - 2})^2
        (1 - t q^{2 m0 - 1}) (1 - t q^{2 m0 + m1 - 2})).
    """
    t = params.t
    numerator, denominator = [(1, m)], [(1, 1)]
    if site == 0:
        numerator += [(prod, m0 - 1) for prod in params.pair_products]
    if t and site <= 1:
        numerator.append((t, 2 * m0 + m1 - 1))
        if site == 0:
            numerator.append((t, m0 - 2))
            exponents = (2 * m0 - 3, 2 * m0 - 2, 2 * m0 - 2, 2 * m0 - 1, 2 * m0 + m1 - 2)
            denominator += [(t, k) for k in exponents]
    return exact_ratio(numerator, denominator, params, "relation scalar denominator vanishes")


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _pair_scalar_c(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    """Diagonal value of the anti-normal-ordered product annihilate(l)
    create(l) on a state with ``occupation_key`` (site, m, m0, m1) at l,
    with B = t q^{2 m0 + m1}:

        (1 - q^{m+1}) / (1 - q), times at site 0 prod_{r<s} (1 - t_r t_s q^{m0}),
        times at site 1 (1 - B), at site 0 (1 - t q^{m0-1}) (1 - q B) /
        ((1 - B) (1 - t q^{2 m0 - 1}) (1 - t q^{2 m0})^2 (1 - t q^{2 m0 + 1})).
    """
    t = params.t
    numerator, denominator = [(1, m + 1)], [(1, 1)]
    if site == 0:
        numerator += [(prod, m0) for prod in params.pair_products]
    if t and site <= 1:
        k = 2 * m0 + m1
        if site == 1:
            numerator.append((t, k))
        else:
            numerator += [(t, m0 - 1), (t, k + 1)]
            denominator += [(t, e) for e in (k, 2 * m0 - 1, 2 * m0, 2 * m0, 2 * m0 + 1)]
    return exact_ratio(numerator, denominator, params, "relation scalar denominator vanishes")


class _StepTable(dict):
    """state -> (target, numerator, denominator) of one operator at one site
    and parameter point, or None where the operator gives 0.  An entry is
    filled on first use from ``fill(state)``, a (target, coefficient) pair
    or None, where a coefficient None stands for 1."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, state):
        image = self[state] = _step_image(self.fill(state))
        return image


def _step_image(step):
    """A step, or None, as a basis image; a coefficient None stands for 1."""
    if step is None:
        return None
    target, coeff = step
    return (target, 1, 1) if coeff is None else (target, coeff.numerator, coeff.denominator)


class _BasisOps:
    """The sector operators of the relation checks of one run, at one
    parameter point, acting on one sector's whole delta basis at once;
    ``twist`` alone places the diagonal twist of the exchange relations.

    Every operator of the relations is monomial on the delta basis, so each
    side sends delta_mu to one basis image: a triple (state, numerator,
    denominator) of integers, or None for the zero function.  A batch is
    the list of the images of the sector's delta functions, in basis order.
    The run owns its step tables, one per (operator, site) and each filled
    on first use, and its batches of ``a``, ``c`` and ``n`` of the basis
    itself, one per (operator, site): every check of the run shares them,
    and they go with the run.
    """

    def __init__(self, n: int, max_part: int, params: ParamSet):
        self.params = params
        self.q = params.q
        self.basis = tuple((mu, 1, 1) for mu in enumerate_partitions(n, max_part))
        # a side reaches sector n + 2 at most, where m_l <= n + 2
        self.q_num, self.q_den = params.q_powers(n + 3)
        self.tables: dict[tuple, _StepTable] = {}
        self.batches: dict[tuple, list] = {}
        self.twist_on = False

    def _table(self, key: tuple, fill: Callable) -> _StepTable:
        """The table under ``key``, made with ``fill`` if it is new."""
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = _StepTable(fill)
        return table

    def _first_level(self, key: tuple, apply: Callable, arg, images):
        """apply(arg, images), kept in the run's batches for the basis."""
        if images is not self.basis:
            return apply(arg, images)
        batch = self.batches.get(key)
        if batch is None:
            batch = self.batches[key] = apply(arg, images)
        return batch

    @staticmethod
    def _apply(table: _StepTable, images):
        """Each image times its step in ``table``; a zero image stays 0."""
        return [
            None if image is None or (step := table[image[0]]) is None
            else (step[0], image[1] * step[1], image[2] * step[2])
            for image in images
        ]

    def _powers(self, site: int, images):
        """Each image times q^{m_site} of its state."""
        q_num, q_den = self.q_num, self.q_den
        return [
            None if image is None
            else (image[0], image[1] * q_num[(m := image[0].count(site))], image[2] * q_den[m])
            for image in images
        ]

    # the fills close over the point, not over self: a table that held the
    # run would keep it alive until the cycle collector runs
    def a(self, site: int, images):
        params = self.params
        table = self._table(("a", site), lambda mu: _annihilate_step(site, mu, params))
        return self._first_level(("a", site), self._apply, table, images)

    def c(self, site: int, images):
        params = self.params
        table = self._table(("c", site), lambda mu: _create_step(site, mu, params))
        return self._first_level(("c", site), self._apply, table, images)

    def n(self, site: int, images):
        return self._first_level(("n", site), self._powers, site, images)

    def scale(self, factor, images):
        if factor == 1:
            return images
        num, den = factor.numerator, factor.denominator
        return [
            None if image is None else (image[0], image[1] * num, image[2] * den)
            for image in images
        ]

    def diag(self, scalar: Callable, site: int, images):
        params = self.params
        table = self._table((scalar, site), lambda mu: (mu, scalar(*occupation_key(mu, site), params)))
        return self._apply(table, images)

    def twist(self, images, inverse: bool):
        if not self.twist_on:
            return images
        params = self.params
        table = self._table(
            ("twist", inverse), lambda mu: (mu, _twist_ratio(*_occupation_pair(mu), params, inverse))
        )
        return self._apply(table, images)

    def residual(self, relation_id: str, l: int, k: int, twisted: bool = True) -> "RelationResidual":
        """``verify_relation`` on the run's tables and batches."""
        if relation_id not in RELATION_IDS:
            raise ValueError(f"relation must be one of {RELATION_IDS}")
        if relation_id in EXCHANGE_RELATIONS and not l < k:
            raise ValueError("exchange relations require l < k")
        # ultralocality breaks on the boundary pair (0, 1) alone; the twist
        # ratio is exactly 1 at t = 0
        self.twist_on = twisted and l == 0 and k == 1
        lefts, rights = _RELATIONS[relation_id](self, l, k, self.basis)
        worst, worst_case = Fraction(0), None
        for delta, lhs, rhs in zip(self.basis, lefts, rights):
            if _images_equal(lhs, rhs):
                continue
            lhs, rhs = _valued_image(lhs), _valued_image(rhs)
            residual = _image_residual(lhs, rhs)
            if residual > worst:
                where = {"sites": (l, k), "state": delta[0]}
                worst, worst_case = residual, Mismatch(where, {"lhs": lhs, "rhs": rhs})
        return RelationResidual(worst, len(self.basis), worst_case)


#: (lhs, rhs) of each relation applied to f, at sites l and k.
_RELATIONS: dict[str, Callable] = {
    "a1": lambda o, l, k, f: (o.a(l, o.n(k, f)), o.scale(o.q if l == k else 1, o.n(k, o.a(l, f)))),
    "a2": lambda o, l, k, f: (o.c(l, o.n(k, f)), o.scale(1 / o.q if l == k else 1, o.n(k, o.c(l, f)))),
    "b": lambda o, l, k, f: (o.c(l, o.a(l, f)), o.diag(_pair_scalar_b, l, f)),
    "c": lambda o, l, k, f: (o.a(l, o.c(l, f)), o.diag(_pair_scalar_c, l, f)),
    "d1": lambda o, l, k, f: (o.a(l, o.a(k, f)), o.twist(o.a(k, o.a(l, f)), False)),
    "d2": lambda o, l, k, f: (o.c(l, o.c(k, f)), o.c(k, o.c(l, o.twist(f, True)))),
    "e1": lambda o, l, k, f: (o.a(l, o.c(k, f)), o.twist(o.c(k, o.a(l, f)), False)),
    "e2": lambda o, l, k, f: (o.c(l, o.a(k, f)), o.a(k, o.c(l, o.twist(f, True)))),
}

RELATION_IDS = tuple(_RELATIONS)

#: the relations between the operators at two distinct sites; they need l < k
EXCHANGE_RELATIONS = ("d1", "d2", "e1", "e2")

#: the relations that read site l alone: their statement at (l, k) is the
#: statement at (l, 0), for every k
SINGLE_SITE_RELATIONS = ("b", "c")


class Mismatch(NamedTuple):
    """A failing comparison of an operator check: its place, by states and
    sites, and its two sides by name, each an exact value or an operator's
    image of a delta function, a (state, value) pair or None for 0."""

    where: dict[str, object]
    sides: dict[str, object]


class RelationResidual(NamedTuple):
    """The worst exact residual of a relation over the sector's delta basis
    and the number of basis functions checked.  ``verify_algebra`` checks a
    relation of SINGLE_SITE_RELATIONS once per l and counts its cases at
    every (l, k), so there its ``cases`` counts statements, not checks.
    ``worst_case`` names the site pair, the first delta function, in basis
    order, whose residual is the worst, and both sides' images of it."""

    residual: Fraction
    cases: int
    worst_case: Mismatch | None = None


def _images_equal(lhs, rhs) -> bool:
    """Whether two basis images are the same function, by cross-multiplying
    their numerators and denominators."""
    if lhs is None or rhs is None:
        other = rhs if lhs is None else lhs
        return other is None or other[1] == 0
    if lhs[0] != rhs[0]:
        return lhs[1] == 0 and rhs[1] == 0
    return lhs[1] * rhs[2] == rhs[1] * lhs[2]


def _valued_image(image):
    """A basis image as (state, value), or None where it is 0."""
    if image is None or image[1] == 0:
        return None
    return image[0], Fraction(image[1], image[2])


def _image_value(image) -> Fraction:
    """The value of a (state, value) image, 0 for None."""
    return Fraction(0) if image is None else image[1]


def _image_residual(lhs, rhs) -> Fraction:
    """The largest absolute value of lhs - rhs, for two basis images."""
    left, right = _image_value(lhs), _image_value(rhs)
    if left and right and lhs[0] != rhs[0]:
        return max(abs(left), abs(right))
    return abs(left - right)


def verify_relation(
    relation_id: str,
    l: int,
    k: int,
    n: int,
    max_part: int,
    params: ParamSet,
    twisted: bool = True,
) -> RelationResidual:
    """Apply both sides of a field-algebra relation to every delta basis
    function of the sector; the relation holds when the residual is 0.

    Each side is applied once, to the whole basis, and sends each delta
    function to one basis image; the two sides are compared image by image
    by integer cross-multiplication, and a residual is taken only where
    they differ.  The EXCHANGE_RELATIONS require l < k; with
    ``twisted=False`` the diagonal correction at the boundary pair (0, 1)
    is dropped, which documents the breakdown of ultralocality in the full
    profile.
    """
    return _BasisOps(n, max_part, params).residual(relation_id, l, k, twisted)


def verify_algebra(
    n: int, max_part: int, params: ParamSet, relation: str | None
) -> tuple[dict[str, RelationResidual], RelationResidual]:
    """Check, on the delta basis of sector n with parts <= max_part, each
    relation whose id begins with ``relation`` less a leading "com-" (all
    for None), and the untwisted d1 witness at the boundary pair (0, 1).

    The point is guarded up to part maxPart + 2 before ``relation`` is
    read, and the checks, each applying both sides to every state, are
    counted against the budget before any runs.  The sites are 0..5, l < k
    for an exchange relation; a single-site relation is checked once per l
    and its cases counted at every (l, k).  All checks share one
    ``_BasisOps``; a relation's result is its first worst check, with the
    cases of all its checks.
    """
    params.ensure_generic(n, max_part + 2)
    name = (relation or "").removeprefix("com-")
    sites = range(6)
    pairs_of = {}
    for rid in RELATION_IDS:
        if not rid.startswith(name):
            continue
        if rid in EXCHANGE_RELATIONS:
            site_pairs = [(l, k) for l in sites for k in sites if l < k]
        else:
            site_pairs = [(l, k) for l in sites for k in sites]
        if rid in SINGLE_SITE_RELATIONS:
            site_pairs = [(l, 0) for l, _ in site_pairs]
        pairs_of[rid] = site_pairs
    if not pairs_of:
        raise ValueError(f"unknown relation {relation!r}")
    # each distinct site pair of a relation, and the witness, is one check
    work = sector_size(n, max_part) * (1 + sum(len(set(p)) for p in pairs_of.values()))
    what = f"{work} relation checks at n = {n}, maxPart = {max_part}"
    budget.check(work, what, {"n": n, "maxPart": max_part, "checks": work})
    ops = _BasisOps(n, max_part, params)
    results = {}
    for rid, site_pairs in pairs_of.items():
        residuals = {pair: ops.residual(rid, *pair) for pair in dict.fromkeys(site_pairs)}
        checks = [residuals[pair] for pair in site_pairs]
        worst = max(checks, key=lambda check: check.residual)
        results[rid] = worst._replace(cases=sum(check.cases for check in checks))
    return results, ops.residual("d1", 0, 1, twisted=False)


# ---------------------------------------------------------------------------
# Adjointness and symmetry
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    """A check's cases, counted whether compared or not, and first failure."""

    cases: int
    mismatch: Mismatch | None


def _weighted(value, norm: Fraction) -> tuple[int, int]:
    """value * norm as an unreduced integer pair; a missing value is 0."""
    if value is None:
        return 0, 1
    return value.numerator * norm.numerator, value.denominator * norm.denominator


def _unbalanced(rows, cols, down: dict, up: dict, norms: dict):
    """The first (row, col), rows and then cols in basis order, with
    down(row -> col) N_col != N_row up(col -> row), and those two sides, or
    None.  ``down[row]`` and ``up[col]`` are the values of the images of the
    delta functions; the pairs neither reaches hold, both sides being 0."""
    index = {col: i for i, col in enumerate(cols)}
    sources: dict[tuple, set[int]] = {}
    for i, col in enumerate(cols):
        for target in up[col]:
            sources.setdefault(target, set()).add(i)
    for row in rows:
        values = down[row]
        for i in sorted(sources.get(row, set()) | {index[t] for t in values if t in index}):
            col = cols[i]
            first = _weighted(values.get(col), norms[col])
            second = _weighted(up[col].get(row), norms[row])
            if first[0] * second[1] != second[0] * first[1]:
                return row, col, Fraction(*first), Fraction(*second)
    return None


def verify_adjoint(n: int, max_part: int, params: ParamSet) -> tuple[CheckResult, CheckResult]:
    """Check, on the delta functions of the states with parts <= max_part,
    that create(l), l <= max_part, is the adjoint of annihilate(l) between
    consecutive sectors of 0..n, and ``apply_hamiltonian`` symmetric on
    sectors 1..n, for ``sector_inner_product``.

    create(l) and annihilate(l) are applied once to each delta function,
    and H is read from its rows (``_hamiltonian_rows``); an image holds one
    state, and a row the state and its unit-step neighbours, so each
    identity is one equation per step, c_l(mu -> lam) N_lam = N_mu
    a_l(lam -> mu) and H(lam -> mu) N_mu = N_lam H(mu -> lam), N_lam =
    <delta_lam, delta_lam>, compared by integer cross-multiplication.  The
    cases are the pairs (l, mu, lam), l <= max_part, of S_s x S_{s+1} and
    (lam, mu) of S_s x S_s, s >= 1, over the sectors S_0..S_n; a first
    failure is the first failing pair by sector, l, lam and mu.  The guard
    reaches sector n + 1 and part maxPart + 1, and the pairs, counted from
    the sectors' sizes, meet the budget before any state is listed."""
    params.ensure_generic(n + 1, max_part + 1)
    sizes = [sector_size(sector, max_part) for sector in range(n + 1)]
    adjointness = (max_part + 1) * sum(a * b for a, b in zip(sizes, sizes[1:]))
    symmetry = sum(size * size for size in sizes[1:])
    pairs = adjointness + symmetry
    what = f"{pairs} operator pairs at n = {n}, maxPart = {max_part}"
    budget.check(pairs, what, {"n": n, "maxPart": max_part, "pairs": pairs})
    sectors = [enumerate_partitions(sector, max_part) for sector in range(n + 1)]
    deltas = {lam: LatticeFunction.delta(lam) for states in sectors for lam in states}
    norms = {lam: sector_inner_product(f, f, params) for lam, f in deltas.items()}

    def adjointness_mismatch() -> Mismatch | None:
        for lower, upper in zip(sectors, sectors[1:]):
            for l in range(max_part + 1):
                up = {mu: create(l, deltas[mu], params).values for mu in lower}
                down = {lam: annihilate(l, deltas[lam], params).values for lam in upper}
                if found := _unbalanced(upper, lower, down, up, norms):
                    lam, mu, rhs, lhs = found
                    where = {"site": l, "lower": mu, "upper": lam}
                    return Mismatch(where, {"lhs": lhs, "rhs": rhs})
        return None

    def symmetry_mismatch() -> Mismatch | None:
        for states in sectors[1:]:
            rows = _hamiltonian_rows(states, params)
            if found := _unbalanced(states, states, rows, rows, norms):
                lam, mu, lhs, rhs = found
                return Mismatch({"left": lam, "right": mu}, {"lhs": lhs, "rhs": rhs})
        return None

    return CheckResult(adjointness, adjointness_mismatch()), CheckResult(symmetry, symmetry_mismatch())


# ---------------------------------------------------------------------------
# Degeneration checks
# ---------------------------------------------------------------------------


def _reduced_create_step(l: int, mu: tuple[int, ...], params: ParamSet, hop_up: Callable):
    """(target, coefficient) of delta_mu under create(l) at a reduced
    profile: the coefficient of the created state lam is the reduced
    closed-form up-hop rate ``hop_up(lam, j, q, ts)`` (``hop_up_three`` or
    ``hop_up_two``) of a part lam[j] = l, independently of
    ``creation_coeff``."""
    lam = add_part(mu, l)
    return lam, hop_up(lam, lam.index(l), params.q, params.ts)


def _reduced_annihilate_step(l: int, mu: tuple[int, ...]):
    """(target, None) of delta_mu under annihilate(l) at t = 0, the bare
    removal of a particle from site l with no denominator, or None when
    site l is empty."""
    if multiplicity(mu, l) == 0:
        return None
    return remove_part(mu, l), None


def verify_degeneration(n: int, max_part: int, params: ParamSet) -> dict[str, CheckResult]:
    """The runtime at zeroed t_r against the reduced closed forms, by
    check name: "t4->0" where t3 != 0, and "t3,t4->0" (``_reduced_check``).
    The guard reaches sector n + 1 and part maxPart + 1, as in
    ``verify_adjoint``, and covers the reduced points; then every state,
    at each of the maxPart + 2 sites, is counted against the budget."""
    params.ensure_generic(n + 1, max_part + 1)
    states = sum(sector_size(sector, max_part) for sector in range(n + 1))
    work = states * (max_part + 2)
    what = f"{work} operator applications at n = {n}, maxPart = {max_part}"
    budget.check(work, what, {"n": n, "maxPart": max_part, "applications": work})
    q, ts = params.q, params.ts
    results = {}
    if ts[2]:
        three = ParamSet(q=q, ts=(*ts[:3], Fraction(0)), profile="three")
        results["t4->0"] = _reduced_check(n, max_part, three, norm_three, hop_up_three, potential_three)
    two = ParamSet(q=q, ts=(*ts[:2], Fraction(0), Fraction(0)), profile="two")
    results["t3,t4->0"] = _reduced_check(n, max_part, two, norm_two, hop_up_two, potential_two)
    return results


def _reduced_check(
    n: int,
    max_part: int,
    reduced: ParamSet,
    norm_red: Callable,
    hop_red: Callable,
    pot_red: Callable,
) -> CheckResult:
    """Compare the runtime at a reduced point with the reduced closed forms
    ``norm_red``, ``hop_red`` and ``pot_red`` (``norm_three``,
    ``hop_up_three``, ``potential_three``, or their two-profile forms).

    At each state of sectors 0..n with parts <= max_part, in basis order,
    the check compares the quadratic norm, the up-hop rate of each raise
    index, and at each site l <= max_part + 1 the images of the state's
    delta function under create(l) and annihilate(l) with the reduced
    steps; then the boundary potential at each occupation pair with
    m0 + m1 <= n.  It stops at the first comparison that fails, and names
    its ``kind`` ("norm", "hop", "create", "annihilate" or "potential"),
    place and sides ``runtime`` and ``reduced``.

    Each runtime (target, coefficient) step is made once and compared with
    its reduced step directly; only a pair that differs as it stands, e.g.
    a coefficient None against 1, is compared again as basis images.  Each
    reduced rate ``hop_red(lam, j)`` is evaluated once, for the create
    comparison that reaches lam and for the hop comparison at lam.
    """
    states = [lam for sector in range(n + 1) for lam in enumerate_partitions(sector, max_part)]
    sites = range(max_part + 2)
    occupations = [(m0, m1) for m0 in range(n + 1) for m1 in range(n + 1 - m0)]
    hops = sum(len(raise_indices(lam)) for lam in states)
    cases = len(states) * (1 + 2 * len(sites)) + hops + len(occupations)
    q, ts = reduced.q, reduced.ts
    rates: dict[tuple, Fraction] = {}

    def rate(lam, j, q, ts):
        value = rates.get((lam, j))
        if value is None:
            value = rates[lam, j] = hop_red(lam, j, q, ts)
        return value

    def failure(kind, where, runtime, oracle) -> CheckResult:
        sides = {"runtime": runtime, "reduced": oracle}
        return CheckResult(cases, Mismatch({"kind": kind, **where}, sides))

    for lam in states:
        runtime, oracle = quadratic_norm(lam, reduced), norm_red(lam, q, ts)
        if runtime != oracle:
            return failure("norm", {"state": lam}, runtime, oracle)
        for j in raise_indices(lam):
            runtime, oracle = hop_coeff(lam, j, +1, reduced), rate(lam, j, q, ts)
            if runtime != oracle:
                return failure("hop", {"state": lam, "j": j}, runtime, oracle)
        for l in sites:
            for kind, runtime, oracle in (
                ("create", _create_step(l, lam, reduced), _reduced_create_step(l, lam, reduced, rate)),
                ("annihilate", _annihilate_step(l, lam, reduced), _reduced_annihilate_step(l, lam)),
            ):
                if runtime != oracle:
                    runtime, oracle = _step_image(runtime), _step_image(oracle)
                    if not _images_equal(runtime, oracle):
                        where = {"state": lam, "site": l}
                        return failure(kind, where, _valued_image(runtime), _valued_image(oracle))
    for m0, m1 in occupations:
        runtime, oracle = boundary_potential(m0, m1, reduced), pot_red(m0, m1, q, ts)
        if runtime != oracle:
            return failure("potential", {"occupations": (m0, m1)}, runtime, oracle)
    return CheckResult(cases, None)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def _hamiltonian_rows(lams: Iterable[tuple[int, ...]], params: ParamSet) -> dict[tuple, dict]:
    """{lam: {target: rate}}, exact, for each lam of lams in its order: the
    boundary potential at lam, then the rate of each unit-step neighbour
    target, the step coefficient of target back to lam; zeros are kept."""
    return {
        lam: {
            lam: boundary_potential(*_occupation_pair(lam), params),
            **{target: hop_coeff(target, j, -step, params) for j, step, target in unit_steps(lam)},
        }
        for lam in lams
    }


def _scatter(rows: Mapping[tuple, Mapping], values: Mapping[tuple, object]) -> dict[tuple, object]:
    """The image of ``values`` under their ``_hamiltonian_rows``, summed
    target by target in row order."""
    out: dict[tuple, object] = {}
    for lam, value in values.items():
        for target, rate in rows[lam].items():
            out[target] = out.get(target, 0) + rate * value
    return out


def apply_hamiltonian(f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Coefficient form of the sector Hamiltonian: boundary potential on the
    diagonal plus nearest-neighbor hops with multiplicity-weighted rates."""
    return LatticeFunction._trusted(f.n, _scatter(_hamiltonian_rows(f.values, params), f.values))


def hamiltonian_from_operators(f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Assemble the Hamiltonian from creation/annihilation pairs; on a
    finitely supported function the site sum truncates at the largest part."""
    result = LatticeFunction._trusted(f.n, {
        lam: boundary_potential(*_occupation_pair(lam), params) * v for lam, v in f.values.items()
    })
    top = max((max(lam) for lam in f.values if lam), default=0)
    for l in range(top + 1):
        result = result + create(l, annihilate(l + 1, f, params), params)
        result = result + create(l + 1, annihilate(l, f, params), params)
    return result


# ---------------------------------------------------------------------------
# Wave functions, spectrum, scattering
# ---------------------------------------------------------------------------


def orbit_sums(xi: Sequence[float], mus: Iterable[tuple[int, ...]]) -> dict[tuple, float]:
    """{mu: m_mu(e^{i xi})} for the partitions mus, from one cosine table.

    The sign flips pair each term of m_mu with its conjugate, so
    m_mu(e^{i xi}) is the sum over the distinct permutations pi of mu of
    prod_{pi_j > 0} 2 cos(pi_j xi_j): a real cosine sum.
    """
    mus = list(mus)
    top = max((max(mu, default=0) for mu in mus), default=0)
    cosines = [[2 * math.cos(k * x) for k in range(top + 1)] for x in xi]
    return {
        mu: sum(
            math.prod(row[k] for row, k in zip(cosines, pi) if k)
            for pi in dict.fromkeys(itertools.permutations(mu))
        )
        for mu in mus
    }


def energy(xi: Sequence[float]) -> float:
    """Eigenvalue 2 * sum_j cos(xi_j)."""
    return 2.0 * sum(math.cos(x) for x in xi)


#: Bound on the relative eigen residual; the equation holds exactly, so
#: only the roundoff of double-precision wave-function values remains.
EIGEN_TOLERANCE = 1e-10


def verify_eigen(n: int, max_part: int, params: ParamSet, seed: int) -> list[tuple[tuple, dict]]:
    """(xi, residuals) for 20 xi drawn from [0, 2 pi)^n by ``random.Random(seed)``:
    the relative residual of the eigenvalue equation at each state of one
    ``recurrence_sector``, below EIGEN_TOLERANCE.  The wave function of a
    state is its orbit-sum expansion at x = e^{i xi} over its quadratic
    norm, read from one ``orbit_sums`` table per xi over the union of the
    supports.  The Hamiltonian's rows are taken once per run
    (``_hamiltonian_rows``), each rate made a float once; ``Fraction *
    float`` is ``float(Fraction) * float``, so the image is
    ``apply_hamiltonian``'s, bit for bit.  They act on the wave-function
    values at the states and their neighbours, so the image on each state
    is complete, and is compared with energy * value.
    """
    states, expansions = recurrence_sector(n, max_part, params)
    lams = sorted(expansions)
    terms = {lam: [(mu, float(c)) for mu, c in expansions[lam].items()] for lam in lams}
    norms = {lam: float(quadratic_norm(lam, params)) for lam in lams}
    support = list(dict.fromkeys(mu for lam in lams for mu, _ in terms[lam]))
    rows = {lam: {target: float(rate) for target, rate in row.items()}
            for lam, row in _hamiltonian_rows(lams, params).items()}
    rng = random.Random(seed)
    out = []
    for _ in range(20):
        xi = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(n))
        m = orbit_sums(xi, support)
        phi = {lam: sum(c * m[mu] for mu, c in terms[lam]) / norms[lam] for lam in lams}
        image = _scatter(rows, phi)
        e_val = energy(xi)
        residual = {lam: abs(image[lam] - e_val * phi[lam]) / max(1.0, abs(phi[lam]))
                    for lam in states}
        out.append((xi, residual))
    return out


def scattering_factors(x: float, params: ParamSet) -> tuple[complex, complex]:
    """Two-particle bulk factor s and one-particle boundary factor s0.

    Both are ratios of a value and its conjugate-reciprocal partner, hence
    unimodular for real x; zero parameters contribute trivial factors, so
    the same product covers every profile.
    """
    q = float(params.q)
    down = cmath.exp(-1j * x)
    up = cmath.exp(1j * x)
    s = (1 - q * down) / (1 - q * up)
    s0 = 1 + 0j
    for t in params.ts:
        tf = float(t)
        if tf:
            s0 *= (1 - tf * down) / (1 - tf * up)
    return s, s0


def scattering_matrix(xi: Sequence[float], params: ParamSet) -> complex:
    """Factorized n-particle scattering matrix: bulk pairs times boundary."""
    n = len(xi)
    total = 1 + 0j
    for j in range(n):
        for k in range(j + 1, n):
            sjk, _ = scattering_factors(xi[j] - xi[k], params)
            total *= sjk
            sjk, _ = scattering_factors(xi[j] + xi[k], params)
            total *= sjk
    for j in range(n):
        _, s0 = scattering_factors(xi[j], params)
        total *= s0
    return total
