"""Deterministic name and identifier generators for synthetic entities.

All generators take an explicit :class:`numpy.random.Generator` so the
world builder fully controls reproducibility.  Names are built from small
syllable/word tables; they only need to *look* plausible and be unique,
not to be linguistically interesting.

Randomness is consumed through fixed-size buffered blocks rather than one
numpy call per draw: minting a file touches the factory several times and
the per-call numpy dispatch overhead dominated generation profiles.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

_SYLLABLES = (
    "ba", "co", "da", "el", "fi", "go", "ha", "in", "jo", "ka", "lu", "me",
    "no", "op", "pa", "qu", "ra", "so", "ta", "ul", "vi", "wa", "xo", "ya",
    "ze", "br", "cl", "dr", "st", "tr",
)

_COMPANY_WORDS = (
    "Soft", "Media", "App", "Net", "Data", "Cloud", "Digital", "Micro",
    "Global", "Prime", "Nova", "Vertex", "Pixel", "Quantum", "Stellar",
    "Rapid", "Secure", "Smart", "Bright", "Core", "Alpha", "Delta", "Omni",
    "Blue", "Silver", "Crystal", "Dyna", "Tech", "Info", "Inter",
)

_COMPANY_SUFFIXES = (
    "Ltd.", "Inc.", "LLC", "GmbH", "S.L.", "Corp.", "Software", "Systems",
    "Technologies", "Solutions", "Labs", "Group", "Studio", "Media",
    "Networks", "Apps",
)

_FILE_WORDS = (
    "setup", "install", "update", "player", "codec", "toolbar", "manager",
    "converter", "downloader", "viewer", "cleaner", "optimizer", "driver",
    "helper", "assistant", "bundle", "pack", "game", "screensaver", "widget",
)

_TLDS = ("com", "net", "org", "info", "biz", "ru", "in", "pw", "nl", "br")

#: Uniform draws buffered per refill; large enough to amortize the numpy
#: call, small enough that tiny worlds don't waste entropy time.
_BLOCK = 2048


class NameFactory:
    """Generates unique hashes, domain names, signer names, etc.

    Uniqueness is enforced per kind with in-memory seen-sets; at the
    scales this library runs (millions of hashes, thousands of names)
    collisions are rare and retried.

    ``counter_start`` offsets the structural hash counter so that several
    factories (one per generation shard) can mint hashes independently
    without any cross-shard coordination: shard ``i`` passes a distinct
    multiple of ``2**40``, which partitions the 64-bit counter space.
    """

    def __init__(
        self, rng: np.random.Generator, counter_start: int = 0
    ) -> None:
        self._rng = rng
        self._hash_counter = counter_start
        self._seen_domains: Set[str] = set()
        self._seen_companies: Set[str] = set()
        self._seen_families: Set[str] = set()
        self._floats: np.ndarray = rng.random(_BLOCK)
        self._float_pos = 0
        self._hash_bits: np.ndarray = rng.integers(
            0, 2**63, size=_BLOCK, dtype=np.int64
        )
        self._hash_pos = 0

    # ------------------------------------------------------------------
    # Buffered randomness
    # ------------------------------------------------------------------

    def _uniform(self) -> float:
        """Next buffered uniform in [0, 1)."""
        pos = self._float_pos
        if pos >= _BLOCK:
            self._floats = self._rng.random(_BLOCK)
            pos = 0
        self._float_pos = pos + 1
        return self._floats[pos]

    def _randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) from the buffered stream."""
        return low + int(self._uniform() * (high - low))

    def _pick(self, items) -> str:
        return items[int(self._uniform() * len(items))]

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    def sha1(self) -> str:
        """A unique 40-hex-digit identifier.

        A counter is mixed with random bits: uniqueness is then structural
        rather than probabilistic, which keeps large worlds collision-free
        without a seen-set of millions of entries.
        """
        self._hash_counter += 1
        pos = self._hash_pos
        if pos >= _BLOCK:
            self._hash_bits = self._rng.integers(
                0, 2**63, size=_BLOCK, dtype=np.int64
            )
            pos = 0
        self._hash_pos = pos + 1
        random_part = int(self._hash_bits[pos])
        return f"{self._hash_counter:016x}{random_part:016x}"[:32].ljust(
            40, "0"
        )

    def machine_id(self, index: int) -> str:
        """Anonymized global unique machine ID."""
        return f"M{index:08d}"

    def domain_name(self, suffix_hint: Optional[str] = None) -> str:
        """A unique plausible domain name like ``lumeraso.net``."""
        for _ in range(100):
            syllable_count = self._randint(3, 6)
            stem = "".join(
                self._pick(_SYLLABLES) for _ in range(syllable_count)
            )
            tld = suffix_hint or self._pick(_TLDS)
            name = f"{stem}.{tld}"
            if name not in self._seen_domains:
                self._seen_domains.add(name)
                return name
        raise RuntimeError("domain name space exhausted")

    def company_name(self) -> str:
        """A unique plausible software-company name."""
        for _ in range(100):
            first = self._pick(_COMPANY_WORDS)
            second = self._pick(_COMPANY_WORDS)
            suffix = self._pick(_COMPANY_SUFFIXES)
            name = f"{first}{second.lower()} {suffix}"
            if name not in self._seen_companies:
                self._seen_companies.add(name)
                return name
        raise RuntimeError("company name space exhausted")

    def family_name(self) -> str:
        """A unique lowercase malware family name."""
        for _ in range(100):
            syllable_count = self._randint(2, 4)
            name = "".join(
                self._pick(_SYLLABLES) for _ in range(syllable_count)
            )
            if name not in self._seen_families and len(name) >= 4:
                self._seen_families.add(name)
                return name
        raise RuntimeError("family name space exhausted")

    def file_name(self) -> str:
        """A plausible downloaded-executable name (not necessarily unique)."""
        word = self._pick(_FILE_WORDS)
        if self._uniform() < 0.5:
            return f"{word}_{self._randint(1, 999)}.exe"
        second = self._pick(_FILE_WORDS)
        return f"{word}-{second}.exe"

    def url(self, domain: str, file_name: str) -> str:
        """A download URL on ``domain`` for ``file_name``."""
        depth = self._randint(1, 3)
        path = "/".join(self._pick(_FILE_WORDS) for _ in range(depth))
        token = self._randint(10**5, 10**7)
        return f"http://dl.{domain}/{path}/{token}/{file_name}"
