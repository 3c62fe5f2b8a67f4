"""Arrows of free groupoids as reduced words of signed edges.

A word over a graph ``g`` is a composable chain of letters, where a letter
traverses an edge forwards (sign +1) or backwards (sign -1), with no adjacent
cancelling pair.  Reduced words are normal forms: two words are equal in the
free groupoid exactly when they are identical, which is what makes every
nontriviality claim in this library decidable.

:class:`Word` is the one type for these arrows, and :func:`reduce`,
:func:`compose`, :func:`invert`, :func:`identity` and :func:`tree_path` are
how a caller builds and compares them.  A nonempty reduced closed word is a
nontrivial loop, so a certificate needs no other coordinates.  Letters are
checked where they come from outside (``Word``, :func:`reduce`); derived
words are built by ``Word._trusted`` and ``_reduced`` without a re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from ._kernels import reduce_signed
from .errors import (
    BadSign,
    HostMismatch,
    NotComposable,
    NotReduced,
    UnknownLetter,
    UnknownVertex,
)
from .graphs import DirectedGraph, Forest


@dataclass(frozen=True)
class Letter:
    """A signed edge: ``sign`` +1 traverses src -> tgt, -1 the reverse."""

    edge: str
    sign: int

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise BadSign(f"sign must be +1 or -1, got {self.sign!r}")

    def inverse(self) -> Letter:
        return Letter(self.edge, -self.sign)

    def __str__(self) -> str:
        return self.edge if self.sign == 1 else f"{self.edge}^-1"


def letter_ends(g: DirectedGraph, letter: Letter) -> tuple[str, str]:
    """Signed (source, target) of a letter on ``g``."""
    try:
        s, t = g.edge_ends[letter.edge]
    except KeyError:
        raise UnknownLetter(letter.edge) from None
    return (s, t) if letter.sign == 1 else (t, s)


class Word:
    """A reduced composable word: an arrow of the free groupoid on its host.

    Words carry explicit source and target even when empty; the empty word at
    ``a`` is the identity arrow at ``a`` and differs from the one at ``b``.
    Construct words through :func:`reduce`, :func:`identity`, or the word
    operations; the constructor rejects unreduced input.
    """

    __slots__ = ("host", "source", "target", "letters")

    def __init__(self, host: DirectedGraph, source: str, target: str, letters: Sequence[Letter] = ()):
        if not host.has_vertex(source):
            raise UnknownVertex(source)
        if not host.has_vertex(target):
            raise UnknownVertex(target)
        letters = tuple(letters)
        end = _chain_end(partial(letter_ends, host), source, letters, reduced=True)
        if end != target:
            raise NotComposable(len(letters), f"target {target!r} does not match chain end {end!r}")
        self._set(host, source, target, letters)

    @classmethod
    def _trusted(cls, host: DirectedGraph, source: str, target: str, letters: tuple) -> Word:
        """``Word(...)`` without its checks, for reduced chains freeloop derived itself."""
        return cls.__new__(cls)._set(host, source, target, letters)

    def _set(self, host: DirectedGraph, source: str, target: str, letters: tuple) -> Word:
        self.host, self.source, self.target, self.letters = host, source, target, letters
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.letters == other.letters
            and self.host == other.host
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.letters))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({self.source!r} -> {self.target!r}: {self})"


def _chain_end(ends: Callable, source: str, letters: Sequence, reduced: bool = False) -> str:
    """Where the chain ``letters`` from ``source`` ends, ``ends`` giving each
    letter's signed (source, target); raises at the first letter that does not
    compose or, if ``reduced``, cancels the one before it."""
    cur = source
    for i, letter in enumerate(letters):
        s, t = ends(letter)
        if s != cur:
            raise NotComposable(i, f"letter starts at {s!r}, chain is at {cur!r}")
        if reduced and i and letters[i - 1].edge == letter.edge and letters[i - 1].sign == -letter.sign:
            raise NotReduced(f"word is not reduced at position {i}")
        cur = t
    return cur


def identity(g: DirectedGraph, v: str) -> Word:
    """The identity arrow at ``v``: the empty word from ``v`` to ``v``."""
    return Word(g, v, v)


def _reduced(g: DirectedGraph, source: str, target: str, chain: Sequence[Letter]) -> Word:
    """The reduced word of ``chain``, a composable chain from ``source`` to
    ``target`` on ``g`` that freeloop derived itself, so it is not checked.
    Its letters are the chain's own ``Letter`` objects."""
    eindex = g._eindex
    codes = [l.sign * (eindex[l.edge] + 1) for l in chain]
    letter_of = dict(zip(codes, chain))
    return Word._trusted(g, source, target, tuple(letter_of[c] for c in reduce_signed(codes)))


def reduce(g: DirectedGraph, source: str, raw_letters: Sequence[Letter]) -> Word:
    """The unique reduced word equal to ``raw_letters`` in the free groupoid.

    The input must be a composable chain starting at ``source``; it need not
    be reduced.  Reduction is a single left-to-right stack pass (free
    reduction is confluent, so the strategy does not affect the result).
    """
    if not g.has_vertex(source):
        raise UnknownVertex(source)
    target = _chain_end(partial(letter_ends, g), source, raw_letters)
    return _reduced(g, source, target, raw_letters)


def compose(w1: Word, w2: Word) -> Word:
    """Composite arrow ``w1`` then ``w2`` (reduced concatenation)."""
    if w1.host != w2.host:
        raise HostMismatch("words live on different graphs")
    if w1.target != w2.source:
        raise NotComposable(None, f"target {w1.target!r} != source {w2.source!r}")
    return _reduced(w1.host, w1.source, w2.target, w1.letters + w2.letters)


def invert(w: Word) -> Word:
    """Inverse arrow: letters reversed with signs flipped."""
    return Word._trusted(w.host, w.target, w.source, tuple(l.inverse() for l in reversed(w.letters)))


def tree_path(f: Forest, u: str, v: str) -> Word:
    """The unique reduced word from ``u`` to ``v`` through tree edges only."""
    steps = f.path_steps(u, v)
    return Word._trusted(f.host, u, v, tuple(Letter(e, sign) for e, sign in steps))
