"""Exact monomial algebra for upper bounds with implied constants dropped.

A :class:`Monomial` is a product of named symbols raised to exact rational
exponents (``M^{14} * L^{12} * Q^{13/3} * F``); a :class:`BoundExpr` is a set
of monomials read as a sum.  Because every bound we manipulate hides an
implied constant, duplicate monomials collapse and all coefficients are
dropped.  Any numeric test against these expressions must therefore allow a
multiplicative slack proportional to the number of terms.

Everything here is exact: exponents are :class:`fractions.Fraction` and no
floating point enters except in :meth:`Monomial.evaluate`, which exists only
so tests can spot-check the algebra numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

# Rendering order for the symbols this project actually uses; anything else
# sorts alphabetically after them.
_CANONICAL_SYMBOLS = ("M", "L", "F", "Q", "X", "K")


def _symbol_key(sym: str) -> tuple[int, str]:
    try:
        return (_CANONICAL_SYMBOLS.index(sym), sym)
    except ValueError:
        return (len(_CANONICAL_SYMBOLS), sym)


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"exponents must be exact rationals, got float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class Monomial:
    """Product of symbols with nonzero rational exponents.

    ``exps`` is kept sorted by symbol with zero exponents removed, so two
    monomials are equal iff they denote the same product.  The empty monomial
    is the constant 1.
    """

    exps: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, object] | None = None, **symbols) -> "Monomial":
        merged: dict[str, Fraction] = {}
        for src in (mapping or {}), symbols:
            for sym, exp in src.items():
                merged[sym] = merged.get(sym, Fraction(0)) + _as_fraction(exp)
        items = tuple(sorted(
            ((s, e) for s, e in merged.items() if e != 0),
            key=lambda kv: _symbol_key(kv[0]),
        ))
        return Monomial(items)

    def exponent(self, sym: str) -> Fraction:
        for s, e in self.exps:
            if s == sym:
                return e
        return Fraction(0)

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.exps)

    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for s, e in other.exps:
            d[s] = d.get(s, Fraction(0)) + e
        return Monomial.of(d)

    def pow(self, k) -> "Monomial":
        k = _as_fraction(k)
        return Monomial.of({s: e * k for s, e in self.exps})

    def without(self, sym: str) -> "Monomial":
        return Monomial(tuple(kv for kv in self.exps if kv[0] != sym))

    def substitute(self, sym: str, value: "Monomial") -> "Monomial":
        """Replace ``sym`` by the monomial ``value`` (raised to sym's exponent)."""
        e = self.exponent(sym)
        if e == 0:
            return self
        return self.without(sym) * value.pow(e)

    def evaluate(self, values: Mapping[str, float]) -> float:
        out = 1.0
        for s, e in self.exps:
            out *= values[s] ** float(e)
        return out

    def dominated_by(self, other: "Monomial") -> bool:
        """Componentwise exponent comparison, valid when all symbols are >= 1."""
        mine, theirs = self.as_dict(), other.as_dict()
        return all(mine.get(s, Fraction(0)) <= theirs.get(s, Fraction(0))
                   for s in set(mine) | set(theirs))

    def to_text(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for s, e in self.exps:
            parts.append(s if e == 1 else f"{s}^{{{e.numerator}/{e.denominator}}}"
                         if e.denominator != 1 else f"{s}^{{{e.numerator}}}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.to_text()


ONE = Monomial()


@dataclass(frozen=True)
class BoundExpr:
    """A sum of monomials with implied constants dropped (so: a set)."""

    terms: frozenset[Monomial]

    @staticmethod
    def of(terms: Iterable[Monomial]) -> "BoundExpr":
        return BoundExpr(frozenset(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms, key=lambda m: [( _symbol_key(s), e) for s, e in m.exps])

    def evaluate(self, values: Mapping[str, float]) -> float:
        return sum(m.evaluate(values) for m in self.terms)

    def prune_dominated(self) -> "BoundExpr":
        """Drop terms componentwise-dominated by another term.

        Sound only under the reading "all symbols take values >= 1", which
        holds for every range parameter (M, L, F, ...) these bounds carry.
        """
        kept = []
        terms = self.sorted_terms()
        for i, m in enumerate(terms):
            if any(i != j and m != n and m.dominated_by(n) for j, n in enumerate(terms)):
                continue
            kept.append(m)
        return BoundExpr.of(kept)

    def to_text(self) -> str:
        return " + ".join(m.to_text() for m in self.sorted_terms())

    def __str__(self) -> str:
        return self.to_text()


def monomial_cross(term_a: Monomial, term_b: Monomial) -> Monomial:
    """Balance an increasing term ``A*Q^a`` against a decreasing ``B*Q^-b``.

    Returns ``(A^b * B^a)^(1/(a+b))``, the value of both terms at the Q where
    they agree; its Q-exponent is 0 by construction.
    """
    a = term_a.exponent("Q")
    b = -term_b.exponent("Q")
    if a <= 0:
        raise ValueError(f"first term needs a positive Q-exponent, got {a}")
    if b <= 0:
        raise ValueError(f"second term needs a negative Q-exponent, got {-b}")
    return (term_a.without("Q").pow(b) * term_b.without("Q").pow(a)).pow(
        Fraction(1, 1) / (a + b))


def gk_optimize(terms: BoundExpr, q1: Monomial, q2: Monomial) -> BoundExpr:
    """Optimize a sum of powers of Q over the symbolic range [q1, q2].

    Emits each increasing term at the left endpoint, each decreasing term at
    the right endpoint, Q-free terms unchanged, and the balanced cross term
    for every (increasing, decreasing) pair.  All cross terms are kept; use
    :meth:`BoundExpr.prune_dominated` to drop the redundant ones.
    """
    if q1.exponent("Q") != 0 or q2.exponent("Q") != 0:
        raise ValueError("range endpoints must be Q-free")
    increasing = [t for t in terms if t.exponent("Q") > 0]
    decreasing = [t for t in terms if t.exponent("Q") < 0]
    free = [t for t in terms if t.exponent("Q") == 0]

    out: list[Monomial] = list(free)
    out += [t.substitute("Q", q1) for t in increasing]
    out += [t.substitute("Q", q2) for t in decreasing]
    out += [monomial_cross(a, b) for a in increasing for b in decreasing]
    return BoundExpr.of(out)


def bound_root(expr: BoundExpr, k: int) -> BoundExpr:
    """Take the exact k-th root of every monomial (divide all exponents by k)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return BoundExpr.of(m.pow(Fraction(1, k)) for m in expr)
