import enum
import re
from pathlib import Path

import pytest

from civitas.textfmt import ParseError, Section, integer, parse_sections


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
