import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factlens.parsing import (
    parse_claim_response,
    parse_entities_response,
    parse_what_why_response,
)

# Curated malformed-response fixtures with hand-written expected outputs.
CLAIM_CASES = [
    ('["X claimed Y."]', ["X claimed Y."], False),
    ('```json\n["A sentence.", "B sentence."]\n```', ["A sentence.", "B sentence."], False),
    ('Here is the list you asked for: ["C sentence."]', ["C sentence."], False),
    ("['single quoted sentence']", ["single quoted sentence"], False),
    ('{"claim": ["wrapped sentence."]}', ["wrapped sentence."], False),
    ('"just one sentence"', ["just one sentence"], False),
    ('["keep this", 42, ""]', ["keep this"], False),
    ("not json", None, True),
    ('```\n["fence without language tag"]\n```', ["fence without language tag"], False),
    ("[unbalanced", None, True),
    (None, None, True),  # not text at all
]


@pytest.mark.parametrize("raw, expected, failed", CLAIM_CASES)
def test_claim_parser_fixture_oracle(raw, expected, failed):
    parsed = parse_claim_response(raw)
    assert parsed.failed == failed
    if not failed:
        assert parsed.value == expected


WHAT_WHY_CASES = [
    ('{"what":["A"],"why":["B"]}', ["A"], ["B"], False),
    ('{"what":["A"],"why":["B"],"extra":[1]}', ["A"], ["B"], False),
    ('{"what":["A"]}', ["A"], [], False),
    ("{'what': ['sq'], 'why': []}", ["sq"], [], False),
    ('```json\n{"what": [], "why": ["because reasons"]}\n```', [], ["because reasons"], False),
    ('{"What":["cap"], "WHY":["caps"]}', ["cap"], ["caps"], False),
    ('prose then {"what": ["w"], "why": ["y"]} trailing', ["w"], ["y"], False),
    ("[1, 2]", None, None, True),
    ("", None, None, True),
]


@pytest.mark.parametrize("raw, what, why, failed", WHAT_WHY_CASES)
def test_what_why_parser_fixture_oracle(raw, what, why, failed):
    parsed = parse_what_why_response(raw)
    assert parsed.failed == failed
    if not failed:
        assert parsed.value == {"what": what, "why": why}


def test_what_why_missing_key_is_flagged():
    parsed = parse_what_why_response('{"what":["A"]}')
    assert parsed.value["why"] == []
    assert "why:missing" in parsed.flags


ENTITY_CASES = [
    ('{"Joe Biden":"positive","GOP":"negative"}',
     {"Joe Biden": "positive", "GOP": "negative"}, False),
    ('{"X":"Negative "}', {"X": "negative"}, False),
    ('{"Y":"mixed"}', {}, False),
    ("{'Donald Trump': 'negative'}", {"Donald Trump": "negative"}, False),
    ('```json\n{"A": "Neutral"}\n```', {"A": "neutral"}, False),
    ("{A: tag_a, B: tag_b}", None, True),
    ('["a", "b"]', None, True),
]


@pytest.mark.parametrize("raw, expected, failed", ENTITY_CASES)
def test_entities_parser_fixture_oracle(raw, expected, failed):
    parsed = parse_entities_response(raw)
    assert parsed.failed == failed
    if not failed:
        assert parsed.value == expected


def test_entities_unknown_label_flagged():
    parsed = parse_entities_response('{"Y":"mixed"}')
    assert parsed.value == {}
    assert any(f.startswith("entities:dropped_label") for f in parsed.flags)


def test_entities_label_whitespace_normalized():
    parsed = parse_entities_response('{"X": "  POSITIVE  "}')
    assert parsed.value == {"X": "positive"}


# 5,000 digits is past CPython's default int-string conversion limit.
HUGE_INT = "1" * 5000
PARSERS = (parse_claim_response, parse_what_why_response, parse_entities_response)


@pytest.mark.parametrize(
    "parser, raw",
    [
        (parse_claim_response, f'["kept", {HUGE_INT}]'),
        (parse_what_why_response, f'{{"what": ["A"], "why": {HUGE_INT}}}'),
        (parse_entities_response, f'{{"a": {HUGE_INT}}}'),
    ],
    ids=["claim", "what_why", "entities"],
)
def test_huge_integer_does_not_raise(parser, raw):
    parsed = parser(raw)
    assert parsed.failed
    assert parser(f"Here you go: {raw}").failed


def test_what_why_ignores_huge_integer_key():
    # A Python-literal hex key too long to render in decimal.
    parsed = parse_what_why_response("{0x" + "f" * 4000 + ': 1, "what": ["A"]}')
    assert parsed.value == {"what": ["A"], "why": []}


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parsers_are_total(text):
    """No input string may raise; each yields a parse or a flagged failure."""
    for parser in PARSERS:
        parsed = parser(text)
        assert parsed.failed or parsed.value is not None


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=12),
        st.sampled_from(["positive", "negative", "neutral"]),
        max_size=5,
    ),
    st.sampled_from(["", "```json\n{}\n```", "Sure! Here you go: {}",
                     "{}\nLet me know if you need anything else."]),
)
def test_entities_survive_wrapping(payload, wrapper):
    """Valid JSON payloads parse identically through the repair ladder."""
    body = json.dumps(payload, ensure_ascii=False)
    raw = wrapper.format(body) if "{}" in wrapper else body
    parsed = parse_entities_response(raw)
    expected = {
        k.strip(): v for k, v in payload.items() if k.strip()
    }
    if not parsed.failed:
        assert parsed.value == expected
    else:
        # The wrapper may legally defeat parsing only for empty payloads,
        # where there is no balanced span carrying data.
        assert payload == {} or raw == ""


digit_runs = st.integers(4000, 6000).map(lambda n: "9" * n)
json_ish = st.lists(
    st.one_of(
        digit_runs,
        st.sampled_from(['{"a": ', '["x", ', "{'k': ", "]", "}", ", ", '"', "```json\n", "-"]),
        st.text(max_size=20),
    ),
    max_size=6,
).map("".join)


@settings(max_examples=100, deadline=None)
@given(json_ish)
def test_parsers_are_total_with_long_digit_runs(text):
    """Digit runs past the int-string limit must fail cleanly, not raise."""
    for parser in PARSERS:
        parsed = parser(text)
        assert parsed.failed or parsed.value is not None
