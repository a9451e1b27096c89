"""Error taxonomy shared across the package.

Each class maps to a CLI exit code: validation problems exit 1,
computational precondition failures exit 2, window-limited verdicts exit 3.
A message shows an input value through `shown`, so that its length is
bounded whatever the input.
"""

SHOWN_CHARS = 40


class ValidationError(ValueError):
    """Malformed input: bad degrees, non-square data, failed structure checks."""

    exit_code = 1


class DegreeWindowError(ValidationError):
    """A request would read or write outside the certified degree window."""


class PreconditionError(RuntimeError):
    """Input is well formed but a mathematical hypothesis fails."""

    exit_code = 2


class InconclusiveWindowError(RuntimeError):
    """The window is too small to certify the requested verdict."""

    exit_code = 3


def shown(value) -> str:
    """An input value for an error message: its repr, with a string cut after
    SHOWN_CHARS characters before it is quoted and any other repr cut after
    them.  Lists and dicts are formatted one element at a time and only as
    far as the cut."""
    if isinstance(value, str):
        return repr(value if len(value) <= SHOWN_CHARS else value[:SHOWN_CHARS] + "...")
    text = ""
    for part in _repr_parts(value):
        text += part
        if len(text) > SHOWN_CHARS:
            return text[:SHOWN_CHARS] + "..."
    return text


def _repr_parts(value):
    """repr(value) in pieces, lists and dicts one element at a time."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_parts(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + repr(key) + ": "
            yield from _repr_parts(item)
        yield "}"
    else:
        yield repr(value)
