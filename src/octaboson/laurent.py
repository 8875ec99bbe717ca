"""Exact multivariate Laurent-polynomial arithmetic over the rationals.

A polynomial is a finite map from integer exponent vectors (entries may be
negative) to nonzero ``fractions.Fraction`` coefficients.  The variable x_j
stands for the unit-circle exponential e^{i xi_j}, so exponent vectors are
the frequencies of trigonometric polynomials and the signed-permutation
action on variables is dual to the action on the angles xi.

Exact division is by binomials (1 - x^alpha) only: the construction
straightens into characters and never divides a polynomial, and the
division serves the orbit-sum oracle of the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .partitions import SignedPermutation


class NotDivisibleError(ArithmeticError):
    """An exact division did not go through.

    ``evidence`` is a JSON-ready dict naming what failed to divide, e.g.
    the offending term of a binomial division; it is empty by default.
    """

    def __init__(self, message: str, evidence: dict | None = None):
        super().__init__(message)
        self.evidence = evidence or {}


def _as_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"coefficients must be rational, got {type(value).__name__}")


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} has length != {nvars}")
                c = _as_coeff(coeff)
                if c != 0:
                    clean[exp] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "LaurentPoly":
        """Wrap terms that are already clean: tuple keys of length nvars and
        nonzero Fraction values, owned by the new polynomial."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: _as_coeff(value)})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): _as_coeff(coeff)})

    @classmethod
    def variable(cls, nvars: int, j: int, power: int = 1) -> "LaurentPoly":
        exp = [0] * nvars
        exp[j] = power
        return cls.monomial(nvars, exp)

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        bits = []
        for exp in sorted(self.terms):
            bits.append(f"{self.terms[exp]}*x^{list(exp)}")
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def _check_same_ring(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, Rational):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            new = terms.get(exp, Fraction(0)) + c
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        return LaurentPoly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, Rational):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, Rational):
            c = _as_coeff(other)
            terms = {} if c == 0 else {e: v * c for e, v in self.terms.items()}
            return LaurentPoly._trusted(self.nvars, terms)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_ring(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exp, Fraction(0)) + c1 * c2
                if new:
                    terms[exp] = new
                else:
                    terms.pop(exp, None)
        return LaurentPoly._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers")
        result = LaurentPoly.one(self.nvars)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, exp: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^exp."""
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("shift vector length mismatch")
        return LaurentPoly._trusted(
            self.nvars, {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms.items()}
        )

    # -- evaluation ---------------------------------------------------

    def evaluate_exact(self, point: Sequence[Fraction]) -> Fraction:
        """Exact evaluation at nonzero rational coordinates."""
        pt = [Fraction(z) for z in point]
        if len(pt) != self.nvars:
            raise ValueError("point length mismatch")
        for j, z in enumerate(pt):
            if z == 0 and any(e[j] < 0 for e in self.terms):
                raise ZeroDivisionError(f"coordinate {j} is zero but appears inverted")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            value = coeff
            for z, e in zip(pt, exp):
                if e:
                    value *= z**e
            total += value
        return total


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------


def apply_w(w: SignedPermutation, p: LaurentPoly) -> LaurentPoly:
    """Variable substitution x_j -> x_{sigma_j}^{eps_j}; a ring automorphism."""
    if w.size != p.nvars:
        raise ValueError(f"group element size {w.size} != nvars {p.nvars}")
    return LaurentPoly._trusted(p.nvars, {w.apply(exp): c for exp, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def div_binomial_exact(p: LaurentPoly, alpha: Sequence[int]) -> LaurentPoly:
    """Exact quotient p / (1 - x^alpha).

    From q[m] = p[m] + q[m - alpha], the quotient along each string
    m + k alpha is the running sum of p's coefficients in increasing k.
    The division is exact when every string's sum returns to zero;
    otherwise the evidence names the string's last term and the sum left.
    """
    alpha = tuple(alpha)
    if len(alpha) != p.nvars:
        raise ValueError("alpha length mismatch")
    if not any(alpha):
        raise ZeroDivisionError("binomial divisor degenerates to zero")
    # k = floor(m_i / alpha_i) numbers the points of a string; its k = 0 point keys it
    i = next(j for j, a in enumerate(alpha) if a)
    strings: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for exp, c in p.terms.items():
        k = exp[i] // alpha[i]
        strings.setdefault(tuple(e - k * a for e, a in zip(exp, alpha)), {})[k] = c
    quotient: dict[tuple[int, ...], Fraction] = {}
    for base, coeffs in strings.items():
        total = Fraction(0)
        for k in range(min(coeffs), max(coeffs) + 1):
            total += coeffs.get(k, 0)
            if total:
                quotient[tuple(b + k * a for b, a in zip(base, alpha))] = total
        if total:
            raise NotDivisibleError(
                "polynomial is not divisible by the binomial factor",
                evidence={
                    "term": [b + k * a for b, a in zip(base, alpha)],
                    "coefficient": str(total),
                },
            )
    return LaurentPoly._trusted(p.nvars, quotient)
