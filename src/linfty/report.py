"""The one verdict type of every exact check.

A Report counts the cases it examined and the ones that failed, and
keeps its notes and its "FAIL: ..." lines in order.  Its summary line is
"{pass|FAIL}  {name}: {cases} cases", followed on failure by
", {k} failures; first: {message}".  A report with no failure passes.

Report and the package's other plain records (FiltrationReport,
CHResult, GaugeParameter) derive from Record, which compares and
renders them field by field.
"""

from __future__ import annotations


class Record:
    """A plain record: equality and repr field by field over the
    attributes named in ``_fields``; mutable, so unhashable."""

    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields,
                                                      self._values()))
        return f"{type(self).__qualname__}({args})"


class Report(Record):
    _fields = ("name", "number", "cases", "failures", "lines")

    def __init__(self, name: str, number: int | None = None, cases: int = 0,
                 failures: int = 0, lines: list | None = None):
        self.name = name
        self.number = number  # the acceptance criterion, if it is one
        self.cases = cases
        self.failures = failures
        self.lines = [] if lines is None else lines

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> bool:
        """One case; a failure keeps the message."""
        self.cases += 1
        if not ok:
            self.failures += 1
            self.lines.append(f"FAIL: {message}")
        return ok

    def record(self, label, lhs, rhs) -> bool:
        """One case lhs == rhs; both sides are rendered only on failure.
        The label is a string or a zero-argument callable giving it,
        called only on failure."""
        self.cases += 1
        if lhs == rhs:
            return True
        self.failures += 1
        if callable(label):
            label = label()
        self.lines.append(f"FAIL: {label}: {lhs.render()} != {rhs.render()}")
        return False

    def note(self, text: str):
        self.lines.append(text)

    def include(self, sub: "Report"):
        """Take over the cases and failures of a sub-report, and its
        summary line."""
        self.cases += sub.cases
        self.failures += sub.failures
        self.lines.append(sub.summary())

    def summary(self) -> str:
        line = f"{'pass' if self.passed else 'FAIL'}  {self.name}: {self.cases} cases"
        if self.failures:
            first = next(text for text in self.lines if text.startswith("FAIL"))
            line += (
                f", {self.failures} failures; "
                f"first: {first.removeprefix('FAIL: ')}"
            )
        return line

    def report(self) -> str:
        return "\n".join([self.summary()] + [f"      {text}" for text in self.lines])


# the most characters of a value's repr an error message quotes
QUOTE_LIMIT = 60


def quote(value) -> str:
    """repr(value) for an error message, cut to its first QUOTE_LIMIT
    characters and followed by the length of the text (or of the repr)
    when longer, so that bad input of any size gives a message of
    bounded size."""
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:QUOTE_LIMIT]}... ({size} chars)"
