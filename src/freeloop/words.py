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

A word stores its letters only as signed edge codes, ``sign * (index + 1)``
over ``host.edge_ids``; reduction, composition and inversion work on those,
and no word keeps the letters it was built from.  The shell ``_CodedWord``
holds the codes, the lazy ``letters`` and the comparisons for both ``Word``
and the pushout's tagged ``retract.GWord``, and ``_chain_codes`` is the one
check of a letter chain for ``Word``, :func:`reduce` and ``GWord``: letters
from outside are coded as they are walked, in one pass, and must be of the
word's own letter class (anything else is a ``TypeError``).  Derived words
are built from codes by ``_trusted`` without a re-check.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from operator import neg

from .errors import (
    BadSign,
    HostMismatch,
    NotComposable,
    NotReduced,
    UnknownLetter,
    UnknownVertex,
)
from .graphs import DirectedGraph, Forest


def _check_sign(sign) -> None:
    """Refuse any ``sign`` but the ``int`` 1 or -1 (so ``True`` and ``1.0``
    too), for ``Letter`` and ``retract.GLetter``."""
    if type(sign) is not int or sign not in (1, -1):
        raise BadSign(f"sign must be +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class Letter:
    """A signed edge: ``sign`` +1 traverses src -> tgt, -1 the reverse."""

    edge: str
    sign: int

    def __post_init__(self):
        _check_sign(self.sign)

    def __str__(self) -> str:
        return self.edge if self.sign == 1 else f"{self.edge}^-1"


class _CodedWord:
    """The shell that :class:`Word` and ``retract.GWord`` share: a chain of
    signed letter codes from ``source`` to ``target`` over the alphabet of
    ``_owner``, which a ``Word`` reads as ``host`` and a ``GWord`` as
    ``instance``.  Length, equality and hashing read the codes, and words of
    the two classes never compare equal.  ``letters`` is always made from the
    codes on first read, one letter per distinct code by the subclass's
    ``_letter``: a word keeps none of the letters it was built from.
    """

    __slots__ = ("_owner", "source", "target", "_codes", "letters")

    @classmethod
    def _trusted(cls, owner, source: str, target: str, codes: Iterable[int]):
        """The word of ``codes`` that freeloop derived itself, a chain from
        ``source`` to ``target`` over ``owner``'s alphabet, unchecked."""
        self = cls.__new__(cls)
        self._owner, self.source, self.target, self._codes = owner, source, target, tuple(codes)
        return self

    def __getattr__(self, name: str):
        # Called only when normal lookup fails, so ``letters`` is made from
        # the codes on its first read, one letter per distinct code.
        if name != "letters":
            raise AttributeError(name)
        codes = self._codes
        letter_of = {c: self._letter(c) for c in set(codes)}
        self.letters = letters = tuple(map(letter_of.__getitem__, codes))
        return letters

    def __len__(self) -> int:
        return len(self._codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._codes == other._codes
            and self._owner == other._owner
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self._codes))

    def __str__(self) -> str:
        return " ".join(map(str, self.letters)) if self._codes else "1"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source!r} -> {self.target!r}: {self})"


def _chain_codes(g, ends, kind, code_of, source, letters, target=None, reduced=False) -> tuple[list[int], str]:
    """The signed codes of ``letters``, a chain from ``source`` over the
    vertices of ``g``, and the vertex where it ends.

    Each letter must be exactly a ``kind``, whose sign (and side) was checked
    when it was made.  ``code_of`` codes one, raising ``KeyError`` or
    ``TypeError`` (an unhashable edge) when it names no generator; ``ends[c]``
    is the index of the vertex code ``c`` ends at, in the
    ``DirectedGraph._code_ends`` layout, and a code starts where its inverse
    ends.  Raises ``UnknownVertex`` for ``source``, then ``target``; then,
    letter by letter, at the first letter that is no ``kind`` (``TypeError``),
    is unknown, does not compose or, if ``reduced``, cancels the one before
    it; then if the chain does not end at ``target`` (unless that is None).
    """
    vindex, vertices = g._vindex, g.vertices
    for v in (source,) if target is None else (source, target):
        if v not in vindex:
            raise UnknownVertex(v)
    cur, prev, codes = vindex[source], 0, []
    for i, letter in enumerate(letters):
        if type(letter) is not kind:
            raise TypeError(f"letter {i} must be a {kind.__name__}, got {type(letter).__name__}")
        try:
            code = code_of(letter)
        except (KeyError, TypeError):
            raise UnknownLetter(letter.edge, side=getattr(letter, "side", None)) from None
        if ends[-code] != cur:
            raise NotComposable(i, f"letter starts at {vertices[ends[-code]]!r}, chain is at {vertices[cur]!r}")
        if reduced and code == -prev:
            raise NotReduced(f"word is not reduced at position {i}")
        codes.append(code)
        prev, cur = code, ends[code]
    end = vertices[cur]
    if target is not None and end != target:
        raise NotComposable(len(codes), f"target {target!r} does not match chain end {end!r}")
    return codes, end


def _edge_coder(g: DirectedGraph) -> Callable[[Letter], int]:
    """The ``code_of`` of ``Letter``s on ``g``, for :func:`_chain_codes`."""
    eindex = g._eindex
    return lambda letter: letter.sign * (eindex[letter.edge] + 1)


class Word(_CodedWord):
    """A reduced composable word: an arrow of the free groupoid on its host.

    Words carry explicit source and target even when empty; the empty word at
    ``a`` is the identity arrow at ``a`` and differs from the one at ``b``.
    Construct words through :func:`reduce`, :func:`identity`, or the word
    operations; the constructor rejects unreduced input.
    """

    __slots__ = ()
    host = _CodedWord._owner  # the shell's owner slot, under its name here

    def __init__(self, host: DirectedGraph, source: str, target: str, letters: Iterable[Letter] = ()):
        coder = _edge_coder(host)
        codes, _ = _chain_codes(host, host._code_ends, Letter, coder, source, letters, target, reduced=True)
        self._owner, self.source, self.target, self._codes = host, source, target, tuple(codes)

    def _letter(self, code: int) -> Letter:
        return Letter(self._owner.edge_ids[abs(code) - 1], 1 if code > 0 else -1)


def _expect(kind: type, word) -> None:
    """Refuse a ``word`` that is not exactly a ``kind``, naming both classes."""
    if type(word) is not kind:
        raise TypeError(f"expected a {kind.__name__}, got {type(word).__name__}")


def identity(g: DirectedGraph, v: str) -> Word:
    """The identity arrow at ``v``: the empty word from ``v`` to ``v``."""
    return Word(g, v, v)


def reduce_signed(codes):
    """Cancel adjacent ``c, -c`` pairs until none remain (one stack pass)."""
    stack = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return stack


def reduce(g: DirectedGraph, source: str, raw_letters: Iterable[Letter]) -> Word:
    """The unique reduced word equal to ``raw_letters`` in the free groupoid.

    The input must be a composable chain starting at ``source``; it need not
    be reduced.  Reduction is a single left-to-right stack pass over signed
    edge codes (free reduction is confluent, so the strategy does not affect
    the result).
    """
    codes, target = _chain_codes(g, g._code_ends, Letter, _edge_coder(g), source, raw_letters)
    return Word._trusted(g, source, target, reduce_signed(codes))


def compose(w1: Word, w2: Word) -> Word:
    """Composite arrow ``w1`` then ``w2`` (reduced concatenation)."""
    _expect(Word, w1)
    _expect(Word, w2)
    if w1.host != w2.host:
        raise HostMismatch("words live on different graphs")
    if w1.target != w2.source:
        raise NotComposable(None, f"target {w1.target!r} != source {w2.source!r}")
    return Word._trusted(w1.host, w1.source, w2.target, reduce_signed(w1._codes + w2._codes))


def invert(w: Word) -> Word:
    """Inverse arrow: letters reversed with signs flipped."""
    _expect(Word, w)
    return Word._trusted(w.host, w.target, w.source, map(neg, reversed(w._codes)))


def tree_path(f: Forest, u: str, v: str) -> Word:
    """The unique reduced word from ``u`` to ``v`` through tree edges only."""
    host = f.host
    return Word._trusted(host, u, v, f._path_codes(host.vertex_index(u), host.vertex_index(v)))
