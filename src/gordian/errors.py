"""Exception types shared across the package.

Every error raised by the library derives from :class:`BraidError`, so callers
can catch one type.  The split below mirrors how the command line reports
failures: malformed text is distinguished from violated mathematical
preconditions, which are distinguished from exhausted search budgets.
"""

from __future__ import annotations

from functools import cached_property


class BraidError(Exception):
    """Base class for every error raised by this package."""


class ParseError(BraidError):
    """Raised when textual input (a word, trace, or certificate) is malformed."""


class DomainError(BraidError):
    """Raised when an operation's mathematical precondition is violated.

    Examples: asking for the unknotting number of a link, requesting a torus
    family member with non-coprime parameters, or searching for a path to a
    target with larger unknotting number.
    """


class IllegalStep(BraidError):
    """Raised when a rewriting rule is applied where its pattern is absent."""


class TraceCorrupt(BraidError):
    """Raised when replaying a trace detects a mismatch.

    ``step_index`` is the zero-based index of the first step whose rule
    application is illegal, or the trace's ``step_count`` when every step
    applies but they end off the recorded final word.
    """

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class NoSingleGenerator(BraidError):
    """Raised when no generator index occurs exactly once in a word."""


class BlockedByFreeStrand(BraidError):
    """Raised when unknotting is provably stuck on a free top strand.

    This happens only for links: the word's maximal generator index sits below
    ``strands - 1`` with letters remaining, so no rule can ever remove the top
    strand (destabilization needs the top generator, and the other four rules
    never introduce it).  Knot closures force every index to appear and never
    reach this state.
    """


class NotFoundWithinBudget(BraidError):
    """Raised when a bounded path search exhausts its budget without success."""


class BudgetExceeded(BraidError):
    """Raised when enumeration runs out of budget; carries partial progress.

    ``partial`` is built by ``build_partial`` the first time it is read, so a
    caller that only reports the error pays nothing for it.
    """

    def __init__(self, message: str, build_partial=None):
        super().__init__(message)
        self._build_partial = build_partial

    @cached_property
    def partial(self):
        return None if self._build_partial is None else self._build_partial()
