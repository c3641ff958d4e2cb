"""Token-splice re-lexing: lex an edited source against a clean lex of
the original.

The Devil and mini-C lexers are each one master regular expression
whose consecutive matches tile the source: match *i* is the trivia
before token *i* plus the token itself, and the last match is the
end-of-input one.  A match depends on the text from its start to at
most a few characters past its end (the lexer's ``lookahead``), never
on the text before its start.  Two consequences make re-lexing an
edited source cheap:

* every baseline match that ends more than ``lookahead`` characters
  before the first changed character is also a match of the edited
  source, so the scan can resume at the first baseline match that does
  not;
* once the resumed scan reaches a match end past the last changed
  character that, shifted back by the change in length, is a baseline
  match start, every later match is the baseline's, shifted.

A :class:`LexBaseline` is the clean lex those two rules need: the
source, its tokens, and where each token's match starts.  The lexers
build it (``repro.devil.lexer.devil_baseline``,
``repro.minic.lexer.c_baseline``) and take it as ``base=``; with it
they return exactly what the plain lex of the edited source returns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class LexBaseline:
    """One clean lex of ``source``, kept to re-lex edits of it.

    ``starts[i]`` is where the match producing ``tokens[i]`` begins.
    Never mutated after construction, so one record is shared by every
    thread lexing edits of the same source.
    """

    source: str
    tokens: tuple
    starts: array

    @classmethod
    def from_ends(cls, source: str, tokens, ends) -> "LexBaseline":
        """The record for ``tokens``, given where each token but the
        last (end of input) ends: matches tile the source, so each
        match starts where the previous token ends."""
        starts = array("l", [0])
        starts.extend(ends)
        return cls(source, tuple(tokens), starts)

    def window(self, source: str,
               lookahead: int) -> tuple[int, int, int] | None:
        """How to lex ``source`` against this baseline, or ``None`` when
        it is the baseline's own source.

        Returns ``(resume, delta, limit)``: rescan from the match that
        produced ``tokens[resume]``; ``delta`` is the change in length;
        a rescanned match ending at or past ``limit`` lies in the
        unchanged tail, where :meth:`tail_index` may splice.
        """
        old = self.source
        if source == old:
            return None
        prefix = _common_prefix(old, source)
        suffix = _common_suffix(old, source,
                                min(len(old), len(source)) - prefix)
        resume = max(bisect_right(self.starts, prefix - lookahead) - 1, 0)
        return resume, len(source) - len(old), len(source) - suffix

    def tail_index(self, end: int, delta: int) -> int:
        """Index of the baseline match starting at ``end - delta``, or
        -1 when no baseline match starts there."""
        start = end - delta
        index = bisect_left(self.starts, start)
        if index < len(self.starts) and self.starts[index] == start:
            return index
        return -1


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by halving slice
    comparisons (linear in the prefix, done in C)."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        middle = (low + high + 1) // 2
        if a[low:middle] == b[low:middle]:
            low = middle
        else:
            high = middle - 1
    return low


def _common_suffix(a: str, b: str, limit: int) -> int:
    """Length of the longest common suffix, at most ``limit``."""
    low, high = 0, limit
    end_a, end_b = len(a), len(b)
    while low < high:
        middle = (low + high + 1) // 2
        if a[end_a - middle:end_a - low] == b[end_b - middle:end_b - low]:
            low = middle
        else:
            high = middle - 1
    return low
