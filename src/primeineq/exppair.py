"""Exact exponent-pair calculus: the A and B processes and chain words.

Exponent pairs (kappa, lambda) certify bounds of the shape
``sum e(f(n)) << lambda1^kappa * a^lambda + lambda1^-1`` for phases whose
derivatives live at scale lambda1.  Starting from the trivial pair (0, 1),
the A process (Weyl differencing) and B process (van der Corput / Poisson)
generate the whole family used here.  Chain words like ``"A^2B"`` apply
right-to-left: the letter next to the seed acts first, so
``A^2B(0,1) = A(A(B(0,1)))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

@dataclass(frozen=True)
class ExponentPair:
    kappa: Fraction
    lam: Fraction

    def __post_init__(self):
        if not (0 <= self.kappa <= Fraction(1, 2)):
            raise ValueError(f"kappa out of range [0, 1/2]: {self.kappa}")
        if not (Fraction(1, 2) <= self.lam <= 1):
            raise ValueError(f"lambda out of range [1/2, 1]: {self.lam}")

    def __str__(self) -> str:
        return f"({self.kappa}, {self.lam})"


TRIVIAL_PAIR = ExponentPair(Fraction(0), Fraction(1))


def a_process(p: ExponentPair) -> ExponentPair:
    k, l = p.kappa, p.lam
    d = 2 * k + 2
    return ExponentPair(k / d, (k + l + 1) / d)


def b_process(p: ExponentPair) -> ExponentPair:
    return ExponentPair(p.lam - Fraction(1, 2), p.kappa + Fraction(1, 2))


_ITEM_RE = re.compile(r"A(?:\^(\d+))?|B|\S")
_EXHAUSTIVE_WIDTH = 4096   # frontier entries search_pairs keeps per level


def parse_word(word: str) -> tuple[str, ...]:
    """Expand a chain word like ``"A^2B"`` into its letter sequence."""
    letters: list[str] = []
    for m in _ITEM_RE.finditer(word):
        tok = m.group(0)
        if tok == "B":
            letters.append("B")
        elif tok.startswith("A"):
            n = m.group(1)
            if n is not None and int(n) < 1:
                raise ValueError(f"bad run length in {tok!r}")
            letters.extend("A" * (int(n) if n else 1))
        else:
            raise ValueError(f"bad chain letter {tok!r} in {word!r}")
    return tuple(letters)


def render_word(letters: Sequence[str]) -> str:
    """Render letters with runs of A collapsed (``AA`` -> ``A^2``)."""
    out: list[str] = []
    i = 0
    while i < len(letters):
        ch = letters[i]
        if ch == "B":
            out.append("B")
            i += 1
            continue
        if ch != "A":
            raise ValueError(f"bad chain letter {ch!r}")
        j = i
        while j < len(letters) and letters[j] == "A":
            j += 1
        run = j - i
        out.append("A" if run == 1 else f"A^{run}")
        i = j
    return "".join(out)


def apply_word(word: str | Sequence[str]) -> ExponentPair:
    """Fold a chain word over the trivial pair (0, 1), rightmost letter first."""
    letters = parse_word(word) if isinstance(word, str) else tuple(word)
    p = TRIVIAL_PAIR
    for ch in reversed(letters):
        p = a_process(p) if ch == "A" else b_process(p)
    return p


def pair_bound(p: ExponentPair, lambda1: float, a: float) -> float:
    """Evaluate ``lambda1^kappa * a^lambda + lambda1^-1`` in floating point."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    if a < 1:
        raise ValueError("a must be >= 1")
    return lambda1 ** float(p.kappa) * a ** float(p.lam) + 1.0 / lambda1


def search_pairs(
    objective: Callable[[ExponentPair], float],
    max_depth: int,
) -> tuple[ExponentPair, str]:
    """Minimize an objective over all chain words of length <= max_depth.

    Enumeration is breadth-first from (0, 1) with duplicate pairs pruned
    (keeping the shorter, then lexicographically smaller, word).  Levels are
    exhaustive while they fit in _EXHAUSTIVE_WIDTH; beyond that each level
    is cut back to the _EXHAUSTIVE_WIDTH best frontier entries by
    (objective, word), which makes the search a deterministic beam.

    Ties in the final objective break toward the shorter word, then the
    lexicographically smaller one.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    def rank(entry: tuple[ExponentPair, tuple[str, ...]]):
        pair, word = entry
        return (objective(pair), len(word), word)

    best = (TRIVIAL_PAIR, ())
    best_rank = rank(best)
    seen = {TRIVIAL_PAIR: ()}
    frontier: list[tuple[ExponentPair, tuple[str, ...]]] = [best]

    for _ in range(max_depth):
        level: dict[ExponentPair, tuple[str, ...]] = {}
        for pair, word in frontier:
            for letter, step in (("A", a_process), ("B", b_process)):
                child = step(pair)
                child_word = (letter,) + word
                prev = seen.get(child)
                if prev is not None and (len(prev), prev) <= (len(child_word), child_word):
                    continue
                seen[child] = child_word
                level[child] = child_word
                r = rank((child, child_word))
                if r < best_rank:
                    best, best_rank = (child, child_word), r
        nxt = list(level.items())
        if len(nxt) > _EXHAUSTIVE_WIDTH:
            nxt.sort(key=rank)
            nxt = nxt[:_EXHAUSTIVE_WIDTH]
        frontier = nxt
        if not frontier:
            break

    pair, word = best
    return pair, render_word(word)
