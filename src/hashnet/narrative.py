"""Focal narratives: the shared event text every agent reads, plus its
hand-segmented causal events used as narrative-alignment targets.

Narrative documents are JSON with fields ``id``, ``title``, ``full_text``
and ``events`` (a list of ``{"label", "description"}`` objects). Event
segmentation is input data: the bundled study narratives ship with
hand-written events, and nothing in this package segments text
automatically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import NOT_UNICODE, NarrativeLoadError, surrogate_at

_BUNDLED_PREFIX = "bundled:"
# The bundled narratives' directory. Read as files, not through
# importlib.resources, which on Python 3.12+ imports inspect at start-up.
_DATA_DIR = Path(__file__).with_name("data")


class NarrativeEvent(NamedTuple):
    """One causal event of a narrative: a short label and its description."""

    label: str
    description: str


class FocalNarrative(NamedTuple):
    """A focal narrative: ``full_text`` is inserted verbatim into prompts;
    ``events`` may be empty, in which case alignment is unavailable."""

    id: str
    title: str
    full_text: str
    events: tuple[NarrativeEvent, ...]

    def event_labels(self) -> list[str]:
        return [e.label for e in self.events]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "full_text": self.full_text,
            "events": [{"label": e.label, "description": e.description} for e in self.events],
        }


def narrative_from_dict(doc: dict) -> FocalNarrative:
    """Validate a parsed narrative document; raises NarrativeLoadError with
    the offending field path."""
    if not isinstance(doc, dict):
        raise NarrativeLoadError("$", "narrative document must be a JSON object")
    where = surrogate_at(doc)
    if where is not None:
        raise NarrativeLoadError(where, NOT_UNICODE)
    for key in ("id", "title", "full_text", "events"):
        if key not in doc:
            raise NarrativeLoadError(key, "missing required field")
    for key in ("id", "title", "full_text"):
        if not isinstance(doc[key], str):
            raise NarrativeLoadError(key, f"must be a string, got {type(doc[key]).__name__}")
    if not doc["full_text"].strip():
        raise NarrativeLoadError("full_text", "must be nonempty")
    if not isinstance(doc["events"], list):
        raise NarrativeLoadError("events", "must be a list")

    events: list[NarrativeEvent] = []
    seen: set[str] = set()
    for i, entry in enumerate(doc["events"]):
        where = f"events[{i}]"
        if not isinstance(entry, dict):
            raise NarrativeLoadError(where, "must be an object")
        label = entry.get("label")
        description = entry.get("description")
        if not isinstance(label, str) or not label.strip():
            raise NarrativeLoadError(f"{where}.label", "must be a nonempty string")
        if not isinstance(description, str) or not description.strip():
            raise NarrativeLoadError(f"{where}.description", "must be a nonempty string")
        if label in seen:
            raise NarrativeLoadError(f"{where}.label", f"duplicate event label {label!r}")
        seen.add(label)
        events.append(NarrativeEvent(label=label, description=description))

    return FocalNarrative(
        id=doc["id"], title=doc["title"], full_text=doc["full_text"], events=tuple(events)
    )


def load_narrative(path: str | Path) -> FocalNarrative:
    """Load and validate a narrative document.

    ``path`` may also name a bundled narrative as ``bundled:<id>``
    (``bundled:fukushima``, ``bundled:philippines``).
    """
    if isinstance(path, str) and path.startswith(_BUNDLED_PREFIX):
        return bundled_narrative(path[len(_BUNDLED_PREFIX):])
    path = Path(path)
    if not path.is_file():
        raise NarrativeLoadError("$", f"narrative file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, an integer past int's digit limit, or nesting
        raise NarrativeLoadError("$", f"invalid JSON in {path}: {err}") from err
    return narrative_from_dict(doc)


def save_narrative(narrative: FocalNarrative, path: str | Path) -> None:
    """Serialize a narrative back to its document form (load/save round-trips)."""
    Path(path).write_text(
        json.dumps(narrative.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


def bundled_narrative(name: str) -> FocalNarrative:
    """Load one of the narratives shipped with the package. ``name`` must be
    the name of one of its JSON files without the ``.json``, so no name
    reaches a file outside the package."""
    if name not in {path.stem for path in _DATA_DIR.glob("*.json")}:
        raise NarrativeLoadError("$", f"no bundled narrative named {name!r}")
    try:
        doc = json.loads((_DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, an integer past int's digit limit, or nesting
        raise NarrativeLoadError("$", f"invalid JSON in bundled narrative {name!r}: {err}") from err
    return narrative_from_dict(doc)
