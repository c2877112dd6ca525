"""Validation tests for the synthetic entity dataclasses."""

import pickle

import pytest

from repro.labeling.labels import Browser, FileLabel, MalwareType
from repro.synth.entities import (
    BenignProcess,
    SyntheticDomain,
    SyntheticFile,
    SyntheticMachine,
)
from repro.labeling.labels import ProcessCategory


def _file(**overrides):
    fields = dict(
        sha1="a" * 40,
        file_name="setup.exe",
        size_bytes=50_000,
        observed_class=FileLabel.MALICIOUS,
        latent_malicious=True,
        latent_type=MalwareType.DROPPER,
        family="zbot",
        signer="Somoto Ltd.",
        ca="thawte code signing ca g2",
        packer="NSIS",
        home_domain="softonic.com",
        url="http://dl.softonic.com/setup.exe",
        via_browser=True,
        target_prevalence=3,
    )
    fields.update(overrides)
    return SyntheticFile(**fields)


class TestSyntheticFile:
    def test_records_mirror_attributes(self):
        file = _file()
        assert file.record.sha1 == file.sha1
        assert file.record.signer == "Somoto Ltd."
        assert file.process_record.executable_name == "setup.exe"
        assert file.process_record.packer == "NSIS"

    def test_open_capacity(self):
        file = _file(target_prevalence=5)
        file.realized_prevalence = 2
        assert file.open_capacity == 3

    def test_latent_malicious_requires_type(self):
        with pytest.raises(ValueError, match="needs a type"):
            _file(latent_type=None)

    def test_observed_malicious_requires_latent(self):
        with pytest.raises(ValueError, match="latently benign"):
            _file(latent_malicious=False, latent_type=None)

    def test_ca_requires_signer(self):
        with pytest.raises(ValueError, match="CA without a signer"):
            _file(signer=None)


class TestSyntheticDomain:
    def test_url_flags_exclusive(self):
        with pytest.raises(ValueError, match="both URL classes"):
            SyntheticDomain(
                name="x.com", category="test", alexa_rank=1,
                popularity_weight=1.0, url_benign=True, url_malicious=True,
            )

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="invalid rank"):
            SyntheticDomain(
                name="x.com", category="test", alexa_rank=0,
                popularity_weight=1.0,
            )


class TestSyntheticMachine:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="active window is empty"):
            SyntheticMachine(
                machine_id="M1", profile="casual",
                start_day=10.0, end_day=10.0, browser=Browser.IE,
            )

    def test_active_days(self):
        machine = SyntheticMachine(
            machine_id="M1", profile="casual",
            start_day=5.0, end_day=35.0, browser=Browser.CHROME,
        )
        assert machine.active_days == 30.0


class TestBenignProcess:
    def test_record(self):
        process = BenignProcess(
            sha1="b" * 40,
            executable_name="chrome.exe",
            category=ProcessCategory.BROWSER,
            browser=Browser.CHROME,
            signer="Google Inc",
            ca="verisign class 3 code signing 2010 ca",
        )
        assert process.record.executable_name == "chrome.exe"
        assert process.record.packer is None


def _domain():
    return SyntheticDomain(
        name="softonic.com", category="file_hosting", alexa_rank=180,
        popularity_weight=2.5, url_benign=True,
    )


def _machine():
    return SyntheticMachine(
        machine_id="M1", profile="casual",
        start_day=5.0, end_day=35.0, browser=Browser.CHROME,
    )


def _process():
    return BenignProcess(
        sha1="b" * 40, executable_name="chrome.exe",
        category=ProcessCategory.BROWSER, browser=Browser.CHROME,
        signer="Google Inc", ca="verisign class 3 code signing 2010 ca",
    )


_ENTITIES = [_file, _domain, _machine, _process]


class TestSlottedEntities:
    """A world holds these entities by the tens of thousands, so they
    carry no per-instance ``__dict__``; worlds and shards pickle them."""

    @pytest.mark.parametrize("make", _ENTITIES, ids=lambda f: f.__name__)
    def test_no_instance_dict(self, make):
        entity = make()
        assert not hasattr(entity, "__dict__")

    @pytest.mark.parametrize("make", _ENTITIES, ids=lambda f: f.__name__)
    def test_pickle_round_trip(self, make):
        entity = make()
        restored = pickle.loads(pickle.dumps(entity, pickle.HIGHEST_PROTOCOL))
        assert restored == entity
        assert repr(restored) == repr(entity)

    def test_repr_keeps_field_order(self):
        assert repr(_machine()) == (
            "SyntheticMachine(machine_id='M1', profile='casual', "
            "start_day=5.0, end_day=35.0, browser=<Browser.CHROME: "
            "'chrome'>)"
        )
