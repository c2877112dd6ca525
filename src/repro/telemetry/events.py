"""Telemetry data model: the 5-tuple download event and its participants.

Section II-A of the paper describes each download event as a 5-tuple
``(f, m, p, u, t)``: downloaded file, machine, downloading process,
download URL and timestamp.  Files and processes are identified by hash,
machines by an anonymized global unique ID, and for every file/process the
agent also reports the (anonymized) on-disk path.

Timestamps are floating-point **days since the start of the collection
period** (2014-01-01 in the paper).  Day-based time keeps the Figure 5
time-delta analysis natural and avoids datetime arithmetic in hot loops.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

#: Month boundaries of the seven-month collection window (Jan-Jul 2014),
#: expressed in days since 2014-01-01.  Entry ``i`` is the first day of
#: month ``i``; the final entry is one past the last day of July.
MONTH_STARTS: Tuple[int, ...] = (0, 31, 59, 90, 120, 151, 181, 212)

#: Human-readable month names aligned with :data:`MONTH_STARTS`.
MONTH_NAMES: Tuple[str, ...] = (
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
)

#: Number of months in the collection window.
NUM_MONTHS = len(MONTH_NAMES)

#: Total length of the collection window in days.
COLLECTION_DAYS = MONTH_STARTS[-1]


def month_of(timestamp: float) -> int:
    """Return the 0-based month index (0=January .. 6=July) of a timestamp.

    Raises :class:`ValueError` for timestamps outside the collection window.
    """
    if not 0 <= timestamp < COLLECTION_DAYS:
        raise ValueError(
            f"timestamp {timestamp!r} outside the collection window "
            f"[0, {COLLECTION_DAYS})"
        )
    # Linear scan beats bisect here: there are only seven months and the
    # vast majority of lookups hit within the first comparisons.
    for index in range(NUM_MONTHS):
        if timestamp < MONTH_STARTS[index + 1]:
            return index
    raise AssertionError("unreachable")


# A small public-suffix table sufficient for the domains that appear in the
# paper's tables (e.g. ``softonic.com.br``, ``nzs.com.br``, ``co.vu``).  A
# full public-suffix list is unnecessary for the synthetic ecosystem.
_TWO_LABEL_SUFFIXES = frozenset(
    {
        "com.br",
        "com.ar",
        "com.mx",
        "co.uk",
        "co.jp",
        "co.kr",
        "co.in",
        "co.za",
        "co.vu",
        "com.au",
        "com.cn",
        "net.br",
        "org.uk",
        "or.jp",
        "ne.jp",
    }
)


def effective_2ld(host: str) -> str:
    """Return the effective second-level domain of a host name.

    The paper aggregates URLs by *effective 2LD* (Section II-B), so that
    ``download.softonic.com`` and ``en.softonic.com`` both count as
    ``softonic.com`` while ``baixaki.com.br`` is kept whole.
    """
    host = host.strip().lower().rstrip(".")
    if not host:
        return host
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _TWO_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def domain_of_url(url: str) -> str:
    """Extract the host part of a URL (no port, lowercased)."""
    parsed = urlsplit(url if "//" in url else "//" + url)
    return (parsed.hostname or "").lower()


@dataclasses.dataclass(frozen=True, slots=True)
class FileRecord:
    """Static attributes of a downloaded file as reported by the agent.

    ``sha1`` uniquely identifies the file.  ``signer``/``ca`` are ``None``
    when the file carries no (valid) Authenticode signature, and ``packer``
    is ``None`` when no known packer is identified -- exactly the
    information Sections IV-C and VI-B consume.
    """

    sha1: str
    file_name: str
    size_bytes: int
    signer: Optional[str] = None
    ca: Optional[str] = None
    packer: Optional[str] = None

    @property
    def is_signed(self) -> bool:
        """Whether the file carries a valid software signature."""
        return self.signer is not None

    @property
    def is_packed(self) -> bool:
        """Whether a known packing software was identified."""
        return self.packer is not None


@dataclasses.dataclass(frozen=True, slots=True)
class ProcessRecord:
    """Static attributes of a downloading process (identified by hash)."""

    sha1: str
    executable_name: str
    signer: Optional[str] = None
    ca: Optional[str] = None
    packer: Optional[str] = None

    @property
    def is_signed(self) -> bool:
        """Whether the process executable is validly signed."""
        return self.signer is not None


@dataclasses.dataclass(frozen=True, slots=True)
class DownloadEvent:
    """One web-based software download event: the paper's 5-tuple.

    ``executed`` records whether the downloaded file was subsequently run
    on the machine; the agent only *reports* executed downloads (Section
    II-A), but the raw simulator emits both so the reporting filter is a
    real, testable code path.
    """

    file_sha1: str
    machine_id: str
    process_sha1: str
    url: str
    timestamp: float
    executed: bool = True

    @property
    def month(self) -> int:
        """0-based month index of the event."""
        return month_of(self.timestamp)

    @property
    def domain(self) -> str:
        """Host name of the download URL."""
        return domain_of_url(self.url)

    @property
    def e2ld(self) -> str:
        """Effective 2LD of the download URL's host."""
        return effective_2ld(self.domain)


#: Field names of each row type, in declaration order.
_ROW_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in (DownloadEvent, FileRecord, ProcessRecord)
}


def row_dict(
    record: Union[DownloadEvent, FileRecord, ProcessRecord]
) -> Dict[str, Any]:
    """``record`` as ``{field name: value}``, in field-declaration order.

    The one encoding of a row: the dataset store writes ``json.dumps`` of
    it as one line, and the load generator sends it as a wire record.
    It equals ``dataclasses.asdict(record)`` -- every field is a string,
    number, bool or ``None`` -- without asdict's per-field deep copy.
    """
    return {name: getattr(record, name) for name in _ROW_FIELDS[type(record)]}
