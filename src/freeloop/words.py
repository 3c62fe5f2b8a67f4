"""Arrows of free groupoids as reduced words of signed edges.

A word over a graph ``g`` is a composable chain of letters, where a letter
traverses an edge forwards (sign +1) or backwards (sign -1), with no adjacent
cancelling pair.  Reduced words are normal forms: two words are equal in the
free groupoid exactly when they are identical, which is what makes every
nontriviality claim in this library decidable.

:class:`Word` is the one type for these arrows, and :func:`reduce`,
:func:`compose`, :func:`invert`, :func:`identity` and :func:`tree_path` are
how a caller builds and compares them.  A nonempty reduced closed word is a
nontrivial loop, so a certificate needs no other coordinates.

A word stores its letters as signed edge codes, ``sign * (index + 1)`` over
``host.edge_ids``; reduction, composition and inversion work on those.  The
``Letter`` objects of ``letters`` are made on first read, one per distinct
code, unless the word was built from ``Letter``s, which it then keeps.
Letters are checked where they come from outside (``Word``, :func:`reduce`);
derived words are built from codes by ``Word._trusted`` without a re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import neg
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
    operations; the constructor rejects unreduced input.  Length, equality
    and hashing read the signed edge codes, not ``letters``.
    """

    __slots__ = ("host", "source", "target", "_codes", "letters")

    def __init__(self, host: DirectedGraph, source: str, target: str, letters: Sequence[Letter] = ()):
        if not host.has_vertex(source):
            raise UnknownVertex(source)
        if not host.has_vertex(target):
            raise UnknownVertex(target)
        letters = tuple(letters)
        end = _chain_end(partial(letter_ends, host), source, letters, reduced=True)
        if end != target:
            raise NotComposable(len(letters), f"target {target!r} does not match chain end {end!r}")
        eindex = host._eindex
        self.host, self.source, self.target, self.letters = host, source, target, letters
        self._codes = tuple([l.sign * (eindex[l.edge] + 1) for l in letters])

    @classmethod
    def _trusted(cls, host: DirectedGraph, source: str, target: str, codes: Sequence[int]) -> Word:
        """The word of reduced signed edge ``codes`` that freeloop derived
        itself, a chain from ``source`` to ``target`` on ``host``, unchecked."""
        self = cls.__new__(cls)
        self.host, self.source, self.target, self._codes = host, source, target, tuple(codes)
        return self

    def __getattr__(self, name: str):
        # Called only when normal lookup fails, so ``letters`` is made from
        # the codes on its first read, one Letter per distinct code.
        if name != "letters":
            raise AttributeError(name)
        codes, ids = self._codes, self.host.edge_ids
        letter_of = {c: Letter(ids[c - 1], 1) if c > 0 else Letter(ids[-c - 1], -1) for c in set(codes)}
        self.letters = letters = tuple(map(letter_of.__getitem__, codes))
        return letters

    def __len__(self) -> int:
        return len(self._codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._codes == other._codes
            and self.host == other.host
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self._codes))

    def __str__(self) -> str:
        return " ".join(map(str, self.letters)) if self._codes else "1"

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


def reduce(g: DirectedGraph, source: str, raw_letters: Sequence[Letter]) -> Word:
    """The unique reduced word equal to ``raw_letters`` in the free groupoid.

    The input must be a composable chain starting at ``source``; it need not
    be reduced.  Reduction is a single left-to-right stack pass over signed
    edge codes (free reduction is confluent, so the strategy does not affect
    the result).
    """
    if not g.has_vertex(source):
        raise UnknownVertex(source)
    target = _chain_end(partial(letter_ends, g), source, raw_letters)
    eindex = g._eindex
    codes = [l.sign * (eindex[l.edge] + 1) for l in raw_letters]
    return Word._trusted(g, source, target, reduce_signed(codes))


def compose(w1: Word, w2: Word) -> Word:
    """Composite arrow ``w1`` then ``w2`` (reduced concatenation)."""
    if w1.host != w2.host:
        raise HostMismatch("words live on different graphs")
    if w1.target != w2.source:
        raise NotComposable(None, f"target {w1.target!r} != source {w2.source!r}")
    return Word._trusted(w1.host, w1.source, w2.target, reduce_signed(w1._codes + w2._codes))


def invert(w: Word) -> Word:
    """Inverse arrow: letters reversed with signs flipped."""
    return Word._trusted(w.host, w.target, w.source, map(neg, reversed(w._codes)))


def tree_path(f: Forest, u: str, v: str) -> Word:
    """The unique reduced word from ``u`` to ``v`` through tree edges only."""
    host = f.host
    return Word._trusted(host, u, v, f._path_codes(host.vertex_index(u), host.vertex_index(v)))
