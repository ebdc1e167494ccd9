import enum
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from civitas.textfmt import ParseError, Section, integer, parse_sections
from tests.replay import configparser_sections


def section(**values):
    return Section("task", "T", {k: str(v) for k, v in values.items()})


class Color(enum.Enum):
    RED = "red"


class TestNumber:
    @pytest.mark.parametrize("raw, where", [
        ("nan", "[task T] t: must be a finite number, got 'nan'"),
        ("-inf", "[task T] t: must be a finite number, got '-inf'"),
        ("x", "[task T] t: bad number 'x'"),
        ("0", "[task T] t: must be > 0, got 0"),
        ("-1", "[task T] t: must be > 0, got -1"),
    ])
    def test_rejected(self, raw, where):
        with pytest.raises(ParseError) as info:
            section(t=raw).number("t", low=0, open_low=True)
        assert str(info.value) == where

    def test_closed_lower_bound_admits_it(self):
        assert section(t="0").number("t", low=0) == 0.0

    def test_default_only_when_missing(self):
        assert section().number("t", 4.0) == 4.0
        with pytest.raises(ParseError, match=r"\[task T\]: missing key 't'"):
            section().number("t")

    def test_integer(self):
        assert section(k="3").get_int("k") == 3
        assert section().get_int("k") is None
        with pytest.raises(ParseError, match=r"\[task T\] k: bad number '2.5'"):
            section(k="2.5").get_int("k")
        with pytest.raises(ValueError):
            integer("1e3")


class TestChoiceAndLists:
    def test_choice(self):
        assert section(c="red").choice("c", Color) is Color.RED
        assert section().choice("c", Color, Color.RED) is Color.RED
        with pytest.raises(ParseError, match=r"^\[task T\] c: 'blue'"):
            section(c="blue").choice("c", Color)

    def test_items_arity_and_fields(self):
        sec = section(g="a:red, b:red:2")
        assert sec.items("g", "q:c[:b]", str, Color, float, least=2) == [
            ("a", Color.RED), ("b", Color.RED, 2.0)]
        with pytest.raises(ParseError, match=r"\[task T\] g: bad item 'a', expected q:c"):
            section(g="a").items("g", "q:c", str, Color)

    def test_by_label(self):
        assert section(n="4").by_label("n", 0.0) == 4.0
        assert section(n="L:3, H:12").by_label("n", 0.0) == {"L": 3.0, "H": 12.0}
        assert section().by_label("n", 0.0) == 0.0
        with pytest.raises(ParseError, match=r"\[task T\] n: H: must be >= 0, got -4"):
            section(n="L:3, H:-4").by_label("n", 0.0, low=0)


class TestContext:
    def test_locates_an_unlocated_error(self):
        with pytest.raises(ParseError, match=r"^\[task T\] k: boom$"):
            with section().context("k"):
                raise ValueError("boom")
        with pytest.raises(ParseError, match=r"^\[task T\]: 'ghost'$"):
            with section().context():
                raise KeyError("'ghost'")

    def test_keeps_a_located_message(self):
        with pytest.raises(ParseError, match=r"^\[task T\] n: already$"):
            with section().context("k"):
                raise ValueError("[task T] n: already")

    def test_leaves_other_errors_alone(self):
        with pytest.raises(TypeError):
            with section().context():
                raise TypeError("a bug, not an input error")


def test_readme_grammar_examples_parse_without_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 5
    for block in blocks:
        for sec in parse_sections(block):
            for key, value in sec.values.items():
                assert "#" not in value, f"{sec.where} {key} = {value!r}"
    network = parse_sections(blocks[0])
    assert network[0].get_bool("signalized") is True


# ------------------------------------------------------------ line grammar
#
# `parse_sections` scans lines; configparser, which it replaced, is the
# oracle on every text inside the grammar.

SPACE = st.sampled_from(["", " ", "  ", "\t"])
COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
WORDS = st.text("abcXYZ019_-", min_size=1, max_size=4)
# A value word may hold `;`, `=`, `[`, `]` and a `#` that no whitespace precedes.
VALUE_WORDS = st.text("abXY09.:,;=#[]-", min_size=1, max_size=6).filter(
    lambda w: w[0] != "#")
INLINE = st.just("") | st.builds(lambda sp, c: sp + "#" + c,
                                 st.sampled_from([" ", "\t", "   "]), COMMENT)
FILLER = st.sampled_from(["", "   ", "\t"]) | st.builds(
    lambda sp, prefix, c: sp + prefix + c, SPACE, st.sampled_from(["#", ";"]), COMMENT)


@st.composite
def grammar_texts(draw):
    """A text inside the line grammar, and its headers' line numbers."""
    lines, headers = [], []

    def filler():
        lines.extend(draw(st.lists(FILLER, max_size=2)))

    filler()
    names = st.lists(WORDS, max_size=2).map(" ".join)
    for kind, name in draw(st.lists(st.tuples(st.text("abcdefgh", min_size=1, max_size=5),
                                              names), unique=True, max_size=4)):
        lines.append(f"[{kind}{' ' + name if name else ''}]" + draw(INLINE))
        headers.append(len(lines))
        filler()
        for key in draw(st.lists(st.lists(WORDS, min_size=1, max_size=3).map(" ".join),
                                 unique=True, max_size=4)):
            value = " ".join(draw(st.lists(VALUE_WORDS, max_size=3)))
            lines.append(key + draw(SPACE) + "=" + draw(SPACE) + value
                         + draw(INLINE) + draw(SPACE))
            filler()
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), headers


@settings(max_examples=300, deadline=None)
@given(grammar_texts())
def test_scanner_matches_configparser(case):
    text, headers = case
    got, want = parse_sections(text), configparser_sections(text)
    assert got == want
    assert [list(s.values.items()) for s in got] == [list(s.values.items()) for s in want]
    assert [s.line for s in got] == headers


def test_default_section_is_an_ordinary_section():
    text = "[DEFAULT]\nspeed = 10\n[segment a]\nlength = 5\n"
    assert configparser_sections(text) == [Section("segment", "a",
                                                   {"speed": "10", "length": "5"})]
    assert parse_sections(text) == [Section("DEFAULT", "", {"speed": "10"}),
                                    Section("segment", "a", {"length": "5"})]


# Inputs the scanner refuses, and what configparser made of them (None where
# it refused them too).
REFUSED = [
    ("[segment a]\nturns = s1,\n  s2\n",
     "line 3: [segment a] indented line 's2' (the grammar has no continuation lines)",
     [Section("segment", "a", {"turns": "s1,\ns2"})]),
    ("[segment a]\n  length = 5\n",
     "line 2: [segment a] indented line 'length = 5'",
     [Section("segment", "a", {"length": "5"})]),
    ("[segment a] junk\nlength = 5\n",
     "line 1: text after ']' of [segment a]: 'junk'",
     [Section("segment", "a", {"length": "5"})]),
    ("[segment a]\n[segment  a]\n",
     "line 2: [segment a] repeats the section of line 1",
     [Section("segment", "a", {}), Section("segment", "a", {})]),
    ("[segment a]\nlength = 5\nlength = 6\n", "line 3: [segment a] length: repeated key",
     None),
    ("\n# header next\nlength = 5\n[segment a]\n",
     "line 3: 'length = 5' before the first [kind name] header", None),
    ("[ ]\n", "line 1: empty section header", None),
    ("[segment a\n", "line 1: unclosed section header '[segment a'", None),
    ("[segment a]\nlength 5\n", "line 2: [segment a] expected 'key = value', got 'length 5'",
     None),
    ("[segment a]\n = 5\n", "line 2: [segment a] indented line '= 5'", None),
    ("[segment a]\n= 5\n", "line 2: [segment a] expected 'key = value', got '= 5'", None),
]


@pytest.mark.parametrize("text, message, oracle", REFUSED)
def test_refused_lines_are_named(text, message, oracle):
    with pytest.raises(ParseError) as info:
        parse_sections(text)
    assert str(info.value).startswith(message)
    if oracle is None:
        with pytest.raises((ParseError, IndexError)):
            configparser_sections(text)
    else:
        assert configparser_sections(text) == oracle
