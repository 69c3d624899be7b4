"""Exponent shift operators and symmetrized operator words.

A letter moves the exponent of one coordinate of one particle.  Raising
by m multiplies by x^m; lowering by m maps x^e to x^(e-m) when e >= m
and kills the monomial otherwise, so lowering is not the inverse of
raising: up-then-down is the identity, down-then-up is not.

A word is a fixed sequence of letters applied right to left at a single
particle.  Its symmetrization sums the word over all particle indices,
which commutes with every particle permutation and therefore maps
antisymmetric polynomials to antisymmetric polynomials.

A symmetrized word is a one-body operator, so on an antisymmetric
polynomial held as Slater coefficients ({rows ascending: coefficient},
see multipoly.slater_coefficients) it acts on one occupied row at a time
(Slater-Condon rules; Szabo & Ostlund, Modern Quantum Chemistry, ch. 2):
apply_symword_slater never expands a determinant, and its result is
antisymmetric by construction.  The descent and `shapeforge verify` both
act through it.  apply_symword, apply_word_at and apply_letter_at act on
the monomial form (MPoly), n! times larger; they are the independent
reference the tests check apply_symword_slater against.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple

from .multipoly import COORD_LETTERS, MPoly, _rows, coord_name


class Letter(NamedTuple):
    """One exponent shift: positive step raises, negative step lowers."""

    coordinate: int
    step: int

    @property
    def amount(self) -> int:
        return abs(self.step)


class Word(NamedTuple):
    """Letter sequence, applied right to left like operator composition."""

    letters: tuple[Letter, ...]

    def net_grade(self) -> int:
        return sum(l.step for l in self.letters)

    def __str__(self) -> str:
        return word_to_str(self)


class SymWord(NamedTuple):
    """A word summed over every particle index."""

    word: Word

    def net_grade(self) -> int:
        return self.word.net_grade()

    def __str__(self) -> str:
        return word_to_str(self.word)


def word(*pairs: tuple[int, int]) -> Word:
    """Convenience builder from (coordinate, step) pairs."""
    return Word(tuple(Letter(c, s) for c, s in pairs))


def symword(*pairs: tuple[int, int]) -> SymWord:
    return SymWord(word(*pairs))


def apply_letter_at(letter: Letter, k: int, p: MPoly) -> MPoly:
    """Apply one letter at particle k (monomial reference).

    No coefficients ever merge here: raising shifts all exponents by the
    same amount and lowering either shifts or discards, so distinct
    monomials stay distinct.
    """
    if not 0 <= k < p.n:
        raise ValueError(f"particle {k} outside n={p.n}")
    if not 0 <= letter.coordinate < p.d:
        raise ValueError(f"coordinate {letter.coordinate} outside d={p.d}")
    if letter.step == 0:
        raise ValueError("letter with zero step")
    i = letter.coordinate * p.n + k
    s = letter.step
    if s > 0:
        terms = {m[:i] + (m[i] + s,) + m[i + 1:]: c for m, c in p.terms.items()}
    else:
        a = -s
        terms = {
            m[:i] + (m[i] - a,) + m[i + 1:]: c
            for m, c in p.terms.items()
            if m[i] >= a
        }
    return MPoly(p.n, p.d, terms)


def apply_word_at(w: Word, k: int, p: MPoly) -> MPoly:
    """Apply a word at particle k, rightmost letter first (monomial
    reference)."""
    for letter in reversed(w.letters):
        if p.is_zero():
            return p
        p = apply_letter_at(letter, k, p)
    return p


def apply_symword(sw: SymWord, p: MPoly) -> MPoly:
    """Sum of the word applied at every particle index: the monomial
    reference for apply_symword_slater."""
    out = MPoly.zero(p.n, p.d)
    for k in range(p.n):
        out = out + apply_word_at(sw.word, k, p)
    return out


def word_floor(sw: SymWord, d: int) -> tuple[int, ...]:
    """The least exponent a row needs in each coordinate to survive the
    word: the deepest running drop of the word's letters on that
    coordinate, applied right to left.  A row below the floor in any
    coordinate is killed, and only such rows are, since letters on
    different coordinates never interact."""
    run = [0] * d
    floor = [0] * d
    for c, step in reversed(sw.word.letters):
        run[c] += step
        floor[c] = max(floor[c], -run[c])
    return tuple(floor)


_UNSEEN = object()


def apply_symword_slater(sw: SymWord,
                         coeffs: dict[tuple, int]) -> dict[tuple, int]:
    """apply_symword in Slater coordinates: sum(coeff * Alt(rows)) maps to
    the sum over rows a of Alt(rows with row a replaced by its image).

    The word acts on a single row as on one particle's monomial: its
    letters apply right to left, and a lowering below 0 kills the term.
    An image equal to another row of the set vanishes; the others move to
    their sorted place, which takes the sign of the rows they pass (the
    insertion step of multipoly._sort_with_sign).  Row images are memoized
    for the call, since the sets share most of their rows, and taken from
    multipoly's row table, so sets from different calls share them too.
    """
    letters = sw.word.letters[::-1]
    images: dict[tuple, tuple | None] = {}

    def image(row: tuple) -> tuple | None:
        r = list(row)
        for c, step in letters:
            r[c] += step
            if r[c] < 0:
                return None
        r = tuple(r)
        return _rows.setdefault(r, r)

    out: dict[tuple, int] = {}
    for rows, coeff in coeffs.items():
        for a, row in enumerate(rows):
            im = images.get(row, _UNSEEN)
            if im is _UNSEEN:
                im = images[row] = image(row)
            if im is None:
                continue
            k = bisect_left(rows, im)
            if k != a and k < len(rows) and rows[k] == im:
                continue
            if k > a:
                new = rows[:a] + rows[a + 1:k] + (im,) + rows[k:]
                passed = k - a - 1
            else:
                new = rows[:k] + (im,) + rows[k:a] + rows[a + 1:]
                passed = a - k
            v = out.get(new, 0) + (-coeff if passed & 1 else coeff)
            if v:
                out[new] = v
            else:
                del out[new]
    return out


_LETTER_RE = re.compile(r"([a-z])\[(-?\d+)\]")


def word_to_str(w: Word | SymWord) -> str:
    """Serialize as coordinate letter plus bracketed signed amount,
    e.g. 'u[-1]t[-2]' for lower-u-by-1 then lower-t-by-2."""
    if isinstance(w, SymWord):
        w = w.word
    return "".join(f"{coord_name(l.coordinate)}[{l.step}]" for l in w.letters)


def word_from_str(text: str) -> Word:
    pos = 0
    letters = []
    while pos < len(text):
        m = _LETTER_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad word syntax at {text[pos:]!r}")
        c = COORD_LETTERS.index(m.group(1))
        step = int(m.group(2))
        if step == 0:
            raise ValueError("letter with zero step")
        letters.append(Letter(c, step))
        pos = m.end()
    if not letters:
        raise ValueError("empty word")
    return Word(tuple(letters))
