"""Telemetry substrate: data model, software agent and collection server.

This package reimplements the data-collection pipeline of Section II-A:
per-machine software agents observe web-based download events, apply
reporting filters (executed-only, prevalence threshold, URL whitelist),
and a central collection server aggregates the reported events into a
:class:`~repro.telemetry.dataset.TelemetryDataset` that all analyses
consume.
"""

from .agent import DEFAULT_SIGMA, DEFAULT_URL_WHITELIST, ReportingPolicy, SoftwareAgent
from .collector import (
    CollectionServer,
    FilterStats,
    collect,
    merge_sorted_streams,
)
from .dataset import TelemetryDataset
from .store import (
    ReadStats,
    StoreError,
    StoreManifest,
    load_dataset,
    read_manifest,
    save_dataset,
)
from .events import (
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

__all__ = [
    "COLLECTION_DAYS",
    "DEFAULT_SIGMA",
    "DEFAULT_URL_WHITELIST",
    "MONTH_NAMES",
    "MONTH_STARTS",
    "NUM_MONTHS",
    "CollectionServer",
    "DownloadEvent",
    "FileRecord",
    "FilterStats",
    "ProcessRecord",
    "ReadStats",
    "ReportingPolicy",
    "SoftwareAgent",
    "StoreError",
    "StoreManifest",
    "TelemetryDataset",
    "collect",
    "merge_sorted_streams",
    "domain_of_url",
    "effective_2ld",
    "load_dataset",
    "month_of",
    "read_manifest",
    "save_dataset",
]
