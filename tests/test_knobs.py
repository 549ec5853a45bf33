"""The knob mechanism: env parsing, overrides, switches, and the README table.

Each test builds a fresh :class:`KnobSet` from a small table after
``monkeypatch.setenv``, so no module is reloaded and no process-wide
singleton is touched.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.knobs import Knob, KnobSet, render_table

README = Path(__file__).resolve().parents[1] / "README.md"

TABLE = (
    Knob("enabled", "REPRO_TEST_ENABLED", bool, True, "master switch"),
    Knob("count", "REPRO_TEST_COUNT", int, 8, "an int"),
    Knob("ratio", "REPRO_TEST_RATIO", float, 0.5, "a float"),
    Knob("root", "REPRO_TEST_ROOT", str, "", "a path"),
)


def fresh(**kwargs) -> KnobSet:
    return KnobSet("test", TABLE, **kwargs)


class TestParsing:
    def test_unset_variables_take_defaults(self, monkeypatch):
        for knob in TABLE:
            monkeypatch.delenv(knob.env, raising=False)
        assert fresh().snapshot() == {"enabled": True, "count": 8, "ratio": 0.5, "root": ""}

    @pytest.mark.parametrize("raw", ["1", "true", "YES", " On "])
    def test_bool_true_words(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_ENABLED", raw)
        assert fresh().enabled is True

    @pytest.mark.parametrize("raw", ["0", "False", "no", "OFF", ""])
    def test_bool_false_words(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_ENABLED", raw)
        assert fresh().enabled is False

    @pytest.mark.parametrize(
        "env, raw",
        [
            ("REPRO_TEST_ENABLED", "disable"),
            ("REPRO_TEST_ENABLED", "2"),
            ("REPRO_TEST_COUNT", "abc"),
            ("REPRO_TEST_COUNT", "1.5"),
            ("REPRO_TEST_RATIO", "half"),
        ],
    )
    def test_garbage_names_variable_and_value(self, monkeypatch, env, raw):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=f"{env}='{re.escape(raw)}'"):
            fresh()

    def test_numbers_and_strings_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_COUNT", " 12 ")
        monkeypatch.setenv("REPRO_TEST_RATIO", "0.25")
        monkeypatch.setenv("REPRO_TEST_ROOT", "/tmp/x y")
        knobs = fresh()
        assert (knobs.count, knobs.ratio, knobs.root) == (12, 0.25, "/tmp/x y")


class TestOverrides:
    def test_overridden_restores_on_error(self):
        knobs = fresh()
        with pytest.raises(RuntimeError):
            with knobs.overridden(count=2, ratio=0.9):
                assert (knobs.count, knobs.ratio) == (2, 0.9)
                raise RuntimeError("boom")
        assert (knobs.count, knobs.ratio) == (8, 0.5)

    def test_overridden_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown test knob 'nope'"):
            with fresh().overridden(nope=1):
                pass  # pragma: no cover

    def test_disabled_defaults_to_switches(self):
        knobs = fresh(switches=("enabled",))
        with knobs.disabled():
            assert knobs.enabled is False
            assert knobs.count == 8
        assert knobs.enabled is True

    def test_disabled_rejects_non_switch(self):
        with pytest.raises(ValueError, match="unknown test switch 'count'"):
            fresh().disabled("count")

    def test_master_turns_every_switch_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MASTER", "0")
        knobs = fresh(switches=("enabled",), master=Knob("all", "REPRO_TEST_MASTER", bool, True, "all"))
        assert knobs.enabled is False
        assert knobs.count == 8
        assert "all" not in knobs.snapshot()


class TestReference:
    def test_env_variables_are_unique(self):
        rows = render_table().splitlines()[2:]
        names = [row.split("`")[1] for row in rows]
        assert len(names) == len(set(names))

    def test_readme_block_matches_table(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"<!-- knobs:begin -->\n(.*?)\n<!-- knobs:end -->", text, re.S)
        assert block, "README.md lacks the knobs:begin/knobs:end block"
        assert block.group(1) == render_table(), (
            "README knob table is stale; regenerate it with "
            "python -c 'from repro.knobs import render_table; print(render_table())'"
        )
