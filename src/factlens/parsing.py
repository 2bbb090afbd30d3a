"""Robust extraction of structured values from model responses.

The repair ladder is fixed: (1) parse the whole response as JSON;
(2) strip code fences and leading prose, then re-parse the first
bracket-balanced span, as JSON first and as a Python literal second
(the entity prompt asks for a Python dict, which is not always valid
JSON); (3) give up. Every input string yields either a parsed value or
an explicit failure, never an exception.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from typing import Any

SENTIMENT_LABELS = ("positive", "negative", "neutral")

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n?(.*?)```", re.DOTALL)


@dataclass
class ParsedTag:
    """Outcome of parsing one tag response: a value or a recorded failure."""

    value: Any = None
    flags: list[str] = field(default_factory=list)
    failed: bool = False


def _first_balanced_span(text: str) -> str | None:
    """Return the first [..] or {..} span with balanced brackets, if any."""
    openers = {"[": "]", "{": "}"}
    start = None
    for i, ch in enumerate(text):
        if ch in openers:
            start = i
            break
    if start is None:
        return None
    close = openers[text[start]]
    opener = text[start]
    depth = 0
    in_string: str | None = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == in_string:
                in_string = None
            continue
        if ch in ("'", '"'):
            in_string = ch
        elif ch == opener:
            depth += 1
        elif ch == close:
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def extract_json_value(text: str) -> Any | None:
    """Apply the repair ladder; None means unrecoverable."""
    if not isinstance(text, str):
        return None
    stripped = text.strip()
    if not stripped:
        return None
    try:
        return json.loads(stripped)
    except (ValueError, RecursionError):  # incl. over-long integers
        pass

    candidates = [m.strip() for m in _FENCE_RE.findall(stripped)]
    candidates.append(stripped)
    for candidate in candidates:
        span = _first_balanced_span(candidate)
        if span is None:
            continue
        try:
            return json.loads(span)
        except (ValueError, RecursionError):
            pass
        try:
            return ast.literal_eval(span)
        except Exception:
            continue
    return None


def parse_claim_response(text: str) -> ParsedTag:
    """Parse a claim response into a list of non-empty sentences."""
    value = extract_json_value(text)
    if isinstance(value, str):
        value = [value]
    if isinstance(value, dict):
        # Some responses wrap the list in a one-key object.
        for key in ("claim", "claims", "sentences"):
            if key in value and isinstance(value[key], list):
                value = value[key]
                break
    if not isinstance(value, (list, tuple)):
        return ParsedTag(failed=True, flags=["claim:unparseable"])
    flags: list[str] = []
    return ParsedTag(value=_sentence_list(value, "claim", flags), flags=flags)


def _sentence_list(raw: Any, tag: str, flags: list[str]) -> list[str]:
    if raw is None:
        flags.append(f"{tag}:missing")
        return []
    if isinstance(raw, str):
        flags.append(f"{tag}:coerced_scalar")
        return [raw] if raw.strip() else []
    if not isinstance(raw, (list, tuple)):
        flags.append(f"{tag}:invalid")
        return []
    kept = []
    for item in raw:
        if isinstance(item, str) and item.strip():
            kept.append(item)
        else:
            flags.append(f"{tag}:dropped_item")
    return kept


def parse_what_why_response(text: str) -> ParsedTag:
    """Parse a what/why response into {'what': [...], 'why': [...]}.

    Extra keys are ignored; a missing key yields an empty list plus a flag.
    """
    value = extract_json_value(text)
    if not isinstance(value, dict):
        return ParsedTag(failed=True, flags=["what_why:unparseable"])
    flags: list[str] = []
    keys = {k.strip().lower(): v for k, v in value.items() if isinstance(k, str)}
    what = _sentence_list(keys.get("what"), "what", flags)
    why = _sentence_list(keys.get("why"), "why", flags)
    return ParsedTag(value={"what": what, "why": why}, flags=flags)


def parse_entities_response(text: str) -> ParsedTag:
    """Parse an entity-sentiment response into {entity: label}.

    Labels are trimmed and lowercased; anything outside the three-label
    set drops the entity with a quality flag.
    """
    value = extract_json_value(text)
    if not isinstance(value, dict):
        return ParsedTag(failed=True, flags=["entities:unparseable"])
    out = ParsedTag(value={})
    for key, raw_label in value.items():
        name = key.strip() if isinstance(key, str) else ""
        if not name:
            out.flags.append("entities:dropped_empty_key")
            continue
        label = raw_label.strip().lower() if isinstance(raw_label, str) else None
        if label not in SENTIMENT_LABELS:
            out.flags.append(f"entities:dropped_label:{name}")
            continue
        out.value[name] = label
    return out
