"""Exception types and value checks shared across the package."""

import math
from collections.abc import Mapping


class HashnetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HashnetError):
    """Invalid configuration value; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def raise_first_violation(self, **context) -> None:
    """The ``validate()`` method of every config object: ``violations()``
    lists every problem, and this raises the first of them."""
    found = self.violations(**context)
    if found:
        raise found[0]


def is_integer(value) -> bool:
    """True for ints; ``bool`` is an int subclass but never a valid count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for finite floats and for ints a float can hold. Not the NaN and
    inf ``json.loads`` reads from ``NaN`` or ``1e999``, nor an int such as
    ``10**400`` that ``float()`` refuses."""
    if is_integer(value):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, float) and math.isfinite(value)


def reject_unknown(doc, known) -> None:
    """Raise ``ConfigError`` naming the first key of ``doc`` not in ``known``."""
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")


def require_text(name: str, value) -> None:
    """Raise ``ConfigError(name)`` unless ``value`` is a nonempty string."""
    if not isinstance(value, str) or not value:
        raise ConfigError(name, f"must be a nonempty string, got {value!r}")


NOT_UNICODE = "holds a lone surrogate (a code point in U+D800..U+DFFF), which is not Unicode text"


def surrogate_at(value, path: str = "") -> str | None:
    """Where a value holds a lone surrogate: the path, from ``path`` on, of
    the first key or string that holds one (``a.b[2]``; a key that holds one
    is named by its ``repr``), or None. JSON can escape one (``"\\ud800"``,
    RFC 8259 §8.2), but UTF-8 cannot encode it, and I-JSON forbids it (RFC
    7493 §2.1). Besides decoded JSON, a named tuple is walked by its field
    names, any other tuple as a list and any mapping as a dict, so a config
    object is named in its own terms."""
    return _surrogate_path(value, path, set())


def _surrogate_path(value, path: str, clean: set[int]) -> str | None:
    """``surrogate_at``; ``clean`` holds the ids of the containers already
    walked without finding one, so a container that many places share, such
    as the params of agents expanded from one spec, is walked once."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return path
    elif isinstance(value, (dict, list, tuple, Mapping)) and id(value) not in clean:
        if isinstance(value, Mapping):
            items = value.items()
        else:
            items = zip(value._fields, value) if hasattr(value, "_fields") else enumerate(value)
        for key, item in items:
            if isinstance(key, int):
                where = f"{path}[{key}]"
            else:
                name = key if _surrogate_path(key, "", clean) is None else repr(key)
                where = f"{path}.{name}" if path else name
                if name is not key:
                    return where
            found = _surrogate_path(item, where, clean)
            if found is not None:
                return found
        clean.add(id(value))
    return None


class NarrativeLoadError(ConfigError):
    """Narrative document missing, malformed, or violating an invariant."""


class BackendUnavailableError(HashnetError):
    """A remote backend failed all retry attempts for one request."""

    def __init__(self, agent_id: int, round_index: int, cause: str = ""):
        detail = f" ({cause})" if cause else ""
        super().__init__(f"backend unavailable for agent {agent_id} in round {round_index}{detail}")
        self.agent_id = agent_id
        self.round_index = round_index


class ReplayGapError(HashnetError):
    """A replay backend has no recorded response for (agent, round)."""

    def __init__(self, agent_id: int, round_index: int):
        super().__init__(f"no recorded response for agent {agent_id} in round {round_index}")
        self.agent_id = agent_id
        self.round_index = round_index


class ParseError(HashnetError):
    """A backend response contained no usable hashtag text."""


class TranscriptError(HashnetError):
    """A transcript file is malformed or violates transcript invariants."""


class MetricError(HashnetError):
    """A metric was requested on inputs outside its domain."""


class EmbedderUnavailableError(HashnetError):
    """The embedding provider could not produce vectors."""
