"""Narrative documents: bundled study texts, validation, round-trips."""

import hashlib
import json
import os
import re
from pathlib import Path

import pytest

import hashnet.data
from hashnet import ConfigError, NarrativeLoadError, bundled_narrative, load_narrative, save_narrative

from conftest import UNDECODABLE_VALUES

# Frozen digests of the bundled study texts; a transcription change is a bug.
FUKUSHIMA_SHA256 = "090651b3c1a6727a0bb95d98c3b98e947ac2cd9842d3295d1111daf412c6c3ec"
PHILIPPINES_SHA256 = "9ce6b03000f9f9cee7e5ec4d9cd06f2f2f5a9b88cc014f1fceea2d2926558d30"


class TestBundledNarratives:
    def test_fukushima_text_and_events(self):
        narrative = bundled_narrative("fukushima")
        assert narrative.id == "fukushima"
        assert narrative.full_text.startswith(
            "The Fukushima Nuclear Disaster was a 2011 nuclear accident"
        )
        assert 'Setsuden ("saving electricity")' in narrative.full_text
        assert "displacement of approximately 156,000 people" in narrative.full_text
        assert "70% more likely to develop thyroid cancer" in narrative.full_text
        assert narrative.full_text.count("\n\n") == 3  # four paragraphs
        assert hashlib.sha256(narrative.full_text.encode()).hexdigest() == FUKUSHIMA_SHA256
        labels = narrative.event_labels()
        for expected in ("Earthquake", "Tsunami", "Displacement", "Setsuden"):
            assert expected in labels

    def test_philippines_text_and_empty_events(self):
        narrative = bundled_narrative("philippines")
        assert narrative.id == "philippines"
        assert narrative.full_text.startswith("In 2022, the Philippines held a national election")
        assert "Ferdinand “Bongbong” Marcos Jr." in narrative.full_text
        assert hashlib.sha256(narrative.full_text.encode()).hexdigest() == PHILIPPINES_SHA256
        assert narrative.events == ()

    def test_bundled_prefix_loads_through_load_narrative(self):
        assert load_narrative("bundled:fukushima").id == "fukushima"

    def test_unknown_bundled_name(self):
        with pytest.raises(NarrativeLoadError):
            bundled_narrative("atlantis")

    def test_load_error_is_a_config_error(self):
        with pytest.raises(ConfigError) as err:
            bundled_narrative("atlantis")
        assert isinstance(err.value, NarrativeLoadError)
        assert (err.value.field, err.value.message) == ("$", "no bundled narrative named 'atlantis'")

    def test_bundled_name_stays_inside_the_package(self, tmp_path):
        # a valid narrative outside the package, and names that reach the
        # shipped fukushima.json by a path: only a shipped file's bare name loads
        save_narrative(bundled_narrative("fukushima"), tmp_path / "outside.json")
        outside = os.path.relpath(tmp_path / "outside", Path(hashnet.data.__file__).parent)
        for name in (outside, "./fukushima", "../data/fukushima", ".\\fukushima", "fukushima.json", ""):
            with pytest.raises(NarrativeLoadError, match="no bundled narrative named"):
                load_narrative(f"bundled:{name}")

    def test_bundled_file_that_is_not_json_is_a_load_error(self, tmp_path, monkeypatch):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        monkeypatch.setattr("hashnet.narrative._DATA_DIR", tmp_path)
        with pytest.raises(NarrativeLoadError, match="invalid JSON in bundled narrative 'broken'") as err:
            load_narrative("bundled:broken")
        assert err.value.field == "$"


class TestLoadValidation:
    def _doc(self, **overrides):
        doc = {
            "id": "x",
            "title": "X",
            "full_text": "Something happened.",
            "events": [
                {"label": "One", "description": "first thing"},
                {"label": "Two", "description": "second thing"},
            ],
        }
        doc.update(overrides)
        return doc

    def _load(self, tmp_path, doc):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_narrative(path)

    def test_valid_document(self, tmp_path):
        narrative = self._load(tmp_path, self._doc())
        assert narrative.event_labels() == ["One", "Two"]

    def test_duplicate_label_names_field(self, tmp_path):
        doc = self._doc(events=[
            {"label": "Tsunami", "description": "a"},
            {"label": "Tsunami", "description": "b"},
        ])
        with pytest.raises(NarrativeLoadError) as err:
            self._load(tmp_path, doc)
        assert err.value.field == "events[1].label"

    def test_empty_full_text(self, tmp_path):
        with pytest.raises(NarrativeLoadError) as err:
            self._load(tmp_path, self._doc(full_text="   "))
        assert err.value.field == "full_text"

    def test_empty_event_description(self, tmp_path):
        doc = self._doc(events=[{"label": "One", "description": ""}])
        with pytest.raises(NarrativeLoadError) as err:
            self._load(tmp_path, doc)
        assert err.value.field == "events[0].description"

    def test_missing_field(self, tmp_path):
        doc = self._doc()
        del doc["title"]
        with pytest.raises(NarrativeLoadError) as err:
            self._load(tmp_path, doc)
        assert err.value.field == "title"

    def test_missing_file(self, tmp_path):
        with pytest.raises(NarrativeLoadError):
            load_narrative(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(NarrativeLoadError):
            load_narrative(path)

    @pytest.mark.parametrize("value", UNDECODABLE_VALUES)
    def test_json_the_decoder_cannot_hold(self, tmp_path, value):
        path = tmp_path / "narrative.json"
        path.write_text('{"id": ' + value + "}", encoding="utf-8")
        with pytest.raises(NarrativeLoadError, match=f"^\\$: invalid JSON in {re.escape(str(path))}: "):
            load_narrative(path)

    def test_event_order_preserved(self, tmp_path):
        events = [{"label": f"E{i}", "description": f"d{i}"} for i in range(6)]
        narrative = self._load(tmp_path, self._doc(events=events))
        assert narrative.event_labels() == [f"E{i}" for i in range(6)]


def test_roundtrip_identity(tmp_path):
    original = bundled_narrative("fukushima")
    path = tmp_path / "copy.json"
    save_narrative(original, path)
    reloaded = load_narrative(path)
    assert reloaded == original
    save_narrative(reloaded, tmp_path / "copy2.json")
    assert load_narrative(tmp_path / "copy2.json") == original
