"""Unit tests for the telemetry data model."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.events import (
    COLLECTION_DAYS,
    MONTH_NAMES,
    MONTH_STARTS,
    NUM_MONTHS,
    DownloadEvent,
    FileRecord,
    ProcessRecord,
    domain_of_url,
    effective_2ld,
    month_of,
)
from repro.telemetry.dataset import file_digest_line


class TestMonthOf:
    def test_month_boundaries(self):
        assert month_of(0.0) == 0
        assert month_of(30.999) == 0
        assert month_of(31.0) == 1
        assert month_of(211.999) == 6

    def test_each_month_start_maps_to_its_index(self):
        for index in range(NUM_MONTHS):
            assert month_of(MONTH_STARTS[index]) == index

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            month_of(-0.001)
        with pytest.raises(ValueError):
            month_of(COLLECTION_DAYS)

    @given(st.floats(min_value=0, max_value=COLLECTION_DAYS - 1e-6))
    def test_month_is_consistent_with_boundaries(self, timestamp):
        month = month_of(timestamp)
        assert MONTH_STARTS[month] <= timestamp < MONTH_STARTS[month + 1]

    def test_month_names_align(self):
        assert len(MONTH_NAMES) == NUM_MONTHS == len(MONTH_STARTS) - 1
        assert MONTH_NAMES[0] == "January"
        assert MONTH_NAMES[-1] == "July"


class TestEffective2ld:
    def test_plain_domain(self):
        assert effective_2ld("softonic.com") == "softonic.com"

    def test_subdomain_is_stripped(self):
        assert effective_2ld("download.softonic.com") == "softonic.com"
        assert effective_2ld("a.b.c.mediafire.com") == "mediafire.com"

    def test_two_label_public_suffix(self):
        assert effective_2ld("baixaki.com.br") == "baixaki.com.br"
        assert effective_2ld("www.baixaki.com.br") == "baixaki.com.br"
        assert effective_2ld("x.y.softonic.com.br") == "softonic.com.br"

    def test_case_and_trailing_dot_normalized(self):
        assert effective_2ld("WWW.Softonic.COM.") == "softonic.com"

    def test_empty_host(self):
        assert effective_2ld("") == ""

    @given(st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){0,4}", fullmatch=True))
    def test_idempotent(self, host):
        once = effective_2ld(host)
        assert effective_2ld(once) == once


class TestDomainOfUrl:
    def test_http_url(self):
        assert domain_of_url("http://dl.softonic.com/x/y.exe") == "dl.softonic.com"

    def test_bare_host(self):
        assert domain_of_url("softonic.com/path") == "softonic.com"

    def test_port_stripped(self):
        assert domain_of_url("http://host.example:8080/a") == "host.example"


class TestRecords:
    def test_signed_and_packed_flags(self):
        record = FileRecord("a" * 40, "setup.exe", 1000, signer="S", ca="C",
                            packer="UPX")
        assert record.is_signed and record.is_packed
        bare = FileRecord("b" * 40, "setup.exe", 1000)
        assert not bare.is_signed and not bare.is_packed

    def test_process_record_signed(self):
        record = ProcessRecord("c" * 40, "chrome.exe", signer="Google Inc")
        assert record.is_signed

    def test_event_derived_properties(self):
        event = DownloadEvent(
            file_sha1="a" * 40,
            machine_id="M1",
            process_sha1="b" * 40,
            url="http://dl.mirror.softonic.com/a/b.exe",
            timestamp=35.5,
        )
        assert event.month == 1
        assert event.domain == "dl.mirror.softonic.com"
        assert event.e2ld == "softonic.com"
        assert event.executed


class TestSlottedRows:
    """A world holds these rows by the tens of thousands, so they carry
    no per-instance ``__dict__``; the on-disk world cache pickles them,
    and dataset digests are built from their ``repr``."""

    ROWS = [
        DownloadEvent("a" * 40, "M1", "b" * 40, "http://dl.example.com/x.exe",
                      12.5),
        FileRecord("a" * 40, "setup.exe", 50_000, signer="Somoto Ltd.",
                   packer="NSIS"),
        ProcessRecord("b" * 40, "chrome.exe", signer="Google Inc"),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
    def test_no_instance_dict(self, row):
        assert not hasattr(row, "__dict__")

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
    def test_pickle_round_trip(self, row):
        restored = pickle.loads(pickle.dumps(row, pickle.HIGHEST_PROTOCOL))
        assert restored == row
        assert repr(restored) == repr(row)

    def test_repr_keeps_field_order(self):
        assert repr(self.ROWS[0]) == (
            "DownloadEvent(file_sha1='" + "a" * 40 + "', machine_id='M1', "
            "process_sha1='" + "b" * 40 + "', "
            "url='http://dl.example.com/x.exe', timestamp=12.5, "
            "executed=True)"
        )

    def test_file_digest_line_pinned(self):
        assert file_digest_line(self.ROWS[1]) == (
            b"FFileRecord(sha1='" + b"a" * 40 + b"', file_name='setup.exe', "
            b"size_bytes=50000, signer='Somoto Ltd.', ca=None, "
            b"packer='NSIS')\n"
        )
