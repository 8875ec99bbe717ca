"""Deformed q-boson operators on particle sectors and their verification.

States of the n-particle sector are finitely supported functions on
length-n partitions; the parts are particle positions on the nonnegative
integer lattice.  Creation and annihilation carry an extra deformation at
the two boundary sites 0 and 1, which breaks ultralocality there: the
operators attached to those sites commute only up to a diagonal twist.

All algebraic identity checks run in exact rational arithmetic on delta
bases and must produce literal zeros; complex floats enter only where the
spectral parameter does (wave functions, eigenvalue residuals, scattering).

The elementary operators are monomial on the delta basis: annihilation,
creation and the number operator each send a basis state to one basis
state times a scalar (or annihilation to 0), and distinct states to
distinct states.  Each step's target is cached per (site, state,
parameter point), and each coefficient, of the steps and of the diagonal
scalars of the relations, per the occupation numbers it reads
(``qkernels.occupation_key``) and parameter point; the operators apply the
cached steps to a function's values.  The relation checks apply both sides
of a relation to one delta function at a time, so each side is one basis
image, a (state, coefficient) pair, and no function is built per state;
the relations that read one site (SINGLE_SITE_RELATIONS) need one check
per site, whatever the second site.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .hallittlewood import hl_polynomial
from .partitions import (
    add_part,
    enumerate_partitions,
    multiplicity,
    remove_part,
    unit_steps,
)
from .qkernels import (
    GenericityError,
    ParamSet,
    boundary_potential,
    creation_coeff,
    hop_coeff,
    occupation_key,
    quadratic_norm,
)

@dataclass(frozen=True)
class LatticeFunction:
    """Finitely supported function on the length-n partition sector.

    Values are exact rationals in identity checks and complex numbers for
    wave functions; zeros are never stored.  Annihilation maps sector n to
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
            if value != 0:
                clean[lam] = value
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(cls, n: int, values: dict[tuple[int, ...], object]) -> "LatticeFunction":
        """Wrap values whose keys are already tuples of length n, as the
        operators build them; zero values are still dropped."""
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


#: Entries of each (site, state) step cache.  One step of ``verify algebra``
#: reaches 630 (site, state) keys at n = 3, maxPart 3 and 1,086 at n = 4,
#: maxPart 3, at one parameter point.
_STEP_CACHE_SIZE = 4096

#: Entries of each cache keyed by occupation numbers; one parameter point of
#: ``verify algebra`` reads at most 24 keys of one at n = 3, maxPart 3 and
#: 35 at n = 4, maxPart 3.
_OCCUPATION_CACHE_SIZE = 1024


def _occupation_pair(lam: tuple[int, ...]) -> tuple[int, int]:
    return multiplicity(lam, 0), multiplicity(lam, 1)


@lru_cache(maxsize=_STEP_CACHE_SIZE)
def _annihilate_step(l: int, mu: tuple[int, ...], params: ParamSet):
    """(target, coefficient) of delta_mu under annihilate(l), or None when
    site l is empty; the coefficient is None where it is 1."""
    if multiplicity(mu, l) == 0:
        return None
    lam = remove_part(mu, l)
    if l == 0 and params.t:
        return lam, _annihilation_coeff(*_occupation_pair(lam), params)
    return lam, None


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _annihilation_coeff(m0: int, m1: int, params: ParamSet) -> Fraction:
    """1 / (1 - t q^{2 m_0 + m_1}) at the occupations of the target state."""
    denom = 1 - params.t * params.q ** (2 * m0 + m1)
    if denom == 0:
        raise GenericityError("annihilation denominator vanishes")
    return 1 / denom


@lru_cache(maxsize=_STEP_CACHE_SIZE)
def _create_step(l: int, mu: tuple[int, ...], params: ParamSet):
    """(target, coefficient) of delta_mu under create(l)."""
    lam = add_part(mu, l)
    return lam, creation_coeff(lam, l, params)


@lru_cache(maxsize=_STEP_CACHE_SIZE)
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


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _twist_ratio(m0: int, m1: int, params: ParamSet, inverse: bool) -> Fraction:
    """(1 - q t N0^2 N1) / (1 - t N0^2 N1) at occupations (m0, m1) of sites
    0, 1 (or its inverse)."""
    base = params.t * params.q ** (2 * m0 + m1)
    num, den = 1 - params.q * base, 1 - base
    if inverse:
        num, den = den, num
    if den == 0:
        raise GenericityError("twist factor denominator vanishes")
    return num / den


def _apply_diag(
    f: LatticeFunction, scalar: Callable[[tuple[int, ...]], Fraction]
) -> LatticeFunction:
    return LatticeFunction._trusted(f.n, {lam: scalar(lam) * v for lam, v in f.values.items()})


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _pair_scalar_b(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    """Diagonal value of the normal-ordered product create(l) annihilate(l)
    on a state with ``occupation_key`` (site, m, m0, m1) at l."""
    q, t = params.q, params.t
    value = (1 - q**m) / (1 - q)
    if site == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q ** (m0 - 1)
    if t and site <= 1:
        value *= 1 - t * q ** (2 * m0 + m1 - 1)
        if site == 0:
            denominator = (
                (1 - t * q ** (2 * m0 - 3))
                * (1 - t * q ** (2 * m0 - 2)) ** 2
                * (1 - t * q ** (2 * m0 - 1))
                * (1 - t * q ** (2 * m0 + m1 - 2))
            )
            if denominator == 0:
                raise GenericityError("relation scalar denominator vanishes")
            value *= (1 - t * q ** (m0 - 2)) / denominator
    return value


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _pair_scalar_c(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    """Diagonal value of the anti-normal-ordered product annihilate(l)
    create(l) on a state with ``occupation_key`` (site, m, m0, m1) at l."""
    q, t = params.q, params.t
    value = (1 - q ** (m + 1)) / (1 - q)
    if site == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q**m0
    if t and site <= 1:
        base = t * q ** (2 * m0 + m1)
        if site == 1:
            value *= 1 - base
        else:
            denominator = (
                (1 - base)
                * (1 - t * q ** (2 * m0 - 1))
                * (1 - t * q ** (2 * m0)) ** 2
                * (1 - t * q ** (2 * m0 + 1))
            )
            if denominator == 0:
                raise GenericityError("relation scalar denominator vanishes")
            value *= (1 - t * q ** (m0 - 1)) * (1 - q * base) / denominator
    return value


def _times(value, coeff):
    """value * coeff, where None stands for 1 on either side."""
    if coeff is None:
        return value
    if value is None:
        return coeff
    return value * coeff


class _SectorOps:
    """The sector operators of a relation check at one parameter point,
    acting on basis images; ``twist`` alone places the diagonal twist of
    the exchange relations.

    Every operator of the relations is monomial on the delta basis, so
    each side applied to delta_mu is one basis image: a pair (state,
    coefficient), or None for the zero function.  A coefficient None is 1
    and multiplies nothing.
    """

    def __init__(self, l: int, k: int, params: ParamSet, twisted: bool):
        self.params = params
        self.q = params.q
        # ultralocality breaks on the boundary pair (0, 1) alone; the twist
        # ratio is exactly 1 at t = 0
        self.twist_on = twisted and l == 0 and k == 1

    def _step(self, step: Callable, site: int, image):
        if image is None:
            return None
        mu, value = image
        target = step(site, mu, self.params)
        if target is None:
            return None
        return target[0], _times(value, target[1])

    def a(self, site: int, image):
        return self._step(_annihilate_step, site, image)

    def c(self, site: int, image):
        return self._step(_create_step, site, image)

    def n(self, site: int, image):
        return self._step(_number_step, site, image)

    def scale(self, factor, image):
        if image is None or factor == 1:
            return image
        return image[0], _times(image[1], factor)

    def diag(self, scalar: Callable, site: int, image):
        if image is None:
            return None
        mu, value = image
        return mu, _times(value, scalar(*occupation_key(mu, site), self.params))

    def twist(self, image, inverse: bool):
        if not self.twist_on or image is None:
            return image
        mu, value = image
        return mu, _times(value, _twist_ratio(*_occupation_pair(mu), self.params, inverse))


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


class RelationResidual(NamedTuple):
    """The worst exact residual of a relation over the sector's delta basis
    and the number of basis functions checked.  ``verify algebra`` checks a
    relation of SINGLE_SITE_RELATIONS once per l and counts its cases at
    every (l, k), so there its ``cases`` counts statements, not checks."""

    residual: Fraction
    cases: int


#: One ``verify algebra`` suite reads one sector; the bound stops sweeps
#: over sizes from growing memory.
@lru_cache(maxsize=64)
def _delta_images(n: int, max_part: int) -> tuple[tuple[tuple[int, ...], None], ...]:
    """The basis image (mu, None) of each delta function of the sector."""
    return tuple((mu, None) for mu in enumerate_partitions(n, max_part))


def _image_value(image) -> Fraction:
    if image is None:
        return Fraction(0)
    return Fraction(1) if image[1] is None else image[1]


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

    Each side sends a delta function to one basis image, so the two sides
    are compared as (state, coefficient) pairs.  The EXCHANGE_RELATIONS
    require l < k; with ``twisted=False`` the diagonal correction at the
    boundary pair (0, 1) is dropped, which documents the breakdown of
    ultralocality in the full profile.
    """
    if relation_id not in RELATION_IDS:
        raise ValueError(f"relation must be one of {RELATION_IDS}")
    if relation_id in EXCHANGE_RELATIONS and not l < k:
        raise ValueError("exchange relations require l < k")
    sides = _RELATIONS[relation_id]
    ops = _SectorOps(l, k, params, twisted)
    basis = _delta_images(n, max_part)
    worst = Fraction(0)
    for delta in basis:
        lhs, rhs = sides(ops, l, k, delta)
        # equal images leave a residual of 0
        if lhs != rhs:
            worst = max(worst, _image_residual(lhs, rhs))
    return RelationResidual(worst, len(basis))


# ---------------------------------------------------------------------------
# Degeneration oracles
# ---------------------------------------------------------------------------


def reduced_create(
    l: int, f: LatticeFunction, params: ParamSet, hop_up: Callable
) -> LatticeFunction:
    """Degeneration oracle for create at a reduced profile: the coefficient
    of a created state lam is the reduced closed-form up-hop rate
    ``hop_up(lam, j, q, ts)`` (``hop_up_three`` or ``hop_up_two``) of a part
    lam[j] = l, independently of ``creation_coeff``."""
    out: dict[tuple[int, ...], object] = {}
    for mu, value in f.values.items():
        lam = add_part(mu, l)
        coeff = hop_up(lam, lam.index(l), params.q, params.ts)
        out[lam] = out.get(lam, 0) + value * coeff
    return LatticeFunction(f.n + 1, out)


def reduced_annihilate(l: int, f: LatticeFunction) -> LatticeFunction:
    """Degeneration oracle for annihilate at t = 0: the bare removal of a
    particle from site l, with no denominator."""
    out: dict[tuple[int, ...], object] = {}
    for mu, value in f.values.items():
        if multiplicity(mu, l):
            lam = remove_part(mu, l)
            out[lam] = out.get(lam, 0) + value
    return LatticeFunction(f.n - 1, out)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def apply_hamiltonian(f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Coefficient form of the sector Hamiltonian: boundary potential on the
    diagonal plus nearest-neighbor hops with multiplicity-weighted rates."""
    out: dict[tuple[int, ...], object] = {}

    def accumulate(lam, value):
        out[lam] = out.get(lam, 0) + value

    for lam, value in f.values.items():
        m0, m1 = _occupation_pair(lam)
        accumulate(lam, boundary_potential(m0, m1, params) * value)
        # (Hf)(target) collects f(lam) with the step coefficient of target,
        # so each source state scatters into its unit-step neighbors.
        for j, step, target in unit_steps(lam):
            accumulate(target, hop_coeff(target, j, -step, params) * value)
    return LatticeFunction._trusted(f.n, out)


def hamiltonian_from_operators(f: LatticeFunction, params: ParamSet) -> LatticeFunction:
    """Assemble the Hamiltonian from creation/annihilation pairs; on a
    finitely supported function the site sum truncates at the largest part."""
    result = _apply_diag(
        f,
        lambda lam: boundary_potential(*_occupation_pair(lam), params),
    )
    top = max((max(lam) for lam in f.values if lam), default=0)
    for l in range(top + 1):
        result = result + create(l, annihilate(l + 1, f, params), params)
        result = result + create(l + 1, annihilate(l, f, params), params)
    return result


# ---------------------------------------------------------------------------
# Wave functions, spectrum, scattering
# ---------------------------------------------------------------------------


def wave_function(xi: Sequence[float], lam: Sequence[int], params: ParamSet) -> complex:
    """Value of the eigenfunction with spectral parameter xi at a state."""
    lam = tuple(lam)
    hl = hl_polynomial(lam, params)
    point = [cmath.exp(1j * x) for x in xi]
    return hl.poly.evaluate(point) / float(quadratic_norm(lam, params))


def energy(xi: Sequence[float]) -> float:
    """Eigenvalue 2 * sum_j cos(xi_j)."""
    return 2.0 * sum(math.cos(x) for x in xi)


#: Bound on the relative eigen residual; the equation holds exactly, so
#: only the roundoff of double-precision wave-function values remains.
EIGEN_TOLERANCE = 1e-10


def eigen_residual(
    xi: Sequence[float], lam_set: Sequence[Sequence[int]], params: ParamSet
) -> float:
    """Largest relative residual of the eigenvalue equation on the given
    states; the equation holds to roundoff below EIGEN_TOLERANCE.

    The coefficient Hamiltonian ``apply_hamiltonian`` acts on the
    wave-function values at the states and their unit-step neighbors; its
    image on each state is complete, since every state that hops into it is
    among those values, and is compared with energy * value.
    """
    lam_set = [tuple(lam) for lam in lam_set]
    needed = set(lam_set)
    for lam in lam_set:
        needed.update(target for _, _, target in unit_steps(lam))
    phi = {lam: wave_function(xi, lam, params) for lam in sorted(needed)}
    image = apply_hamiltonian(LatticeFunction(len(xi), phi), params)
    e_val = energy(xi)
    return max(
        (abs(image(lam) - e_val * phi[lam]) / max(1.0, abs(phi[lam])) for lam in lam_set),
        default=0.0,
    )


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
