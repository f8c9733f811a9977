"""Disk cache for core-model runs.

Cycle-level simulation is the expensive step of the pipeline, so results
are cached as JSON keyed by (workload, scale, config, model fingerprint).
The fingerprint hashes the source of every module in the packages that
influence timing (:data:`FINGERPRINT_PACKAGES`), so editing the
simulator invalidates stale results automatically.

Integrity: every entry written by :func:`store` embeds a checksum of its
payload, so silent on-disk corruption (a flipped byte that is still
valid JSON) is detectable.  :func:`load` treats any unreadable, corrupt,
or checksum-failing entry as a miss; :func:`verify_entry` classifies the
same conditions strictly, raising
:class:`~repro.isa.errors.CacheIntegrityError` so the resilient runner
can quarantine poisoned entries (verify, delete, re-run) instead of
serving them.

Configuration is environment-driven so service instances and CI runs
can isolate their stores:

- ``REPRO_CACHE_DIR`` relocates the cache directory (:func:`cache_dir`);
- ``REPRO_CACHE_LIMIT_BYTES`` / ``REPRO_CACHE_LIMIT_ENTRIES`` bound the
  store's size — :func:`store` evicts least-recently-used entries
  (:func:`load` touches hits) until both limits hold, so the cache
  never grows without bound.  Unset limits mean unlimited, matching the
  historical behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..cores.base import BoomConfig, CoreResult, RocketConfig
from ..isa.errors import CacheIntegrityError
from ..uarch.branch import PredictorStats
from ..uarch.cache import CacheStats

_CACHE_ENV = "REPRO_CACHE_DIR"
_LIMIT_BYTES_ENV = "REPRO_CACHE_LIMIT_BYTES"
_LIMIT_ENTRIES_ENV = "REPRO_CACHE_LIMIT_ENTRIES"
_DEFAULT_CACHE = Path(__file__).resolve().parents[3] / ".cache" / "results"

#: The ``repro`` package directory the fingerprints read sources from.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Subpackages of ``repro`` whose every module can change a timing
#: result: functional semantics, microarchitecture, the core loops and
#: their descriptor tables, and the workload sources.
FINGERPRINT_PACKAGES = ("isa", "uarch", "cores", "workloads")

_fingerprint_cache: Optional[str] = None


def source_fingerprint(root: Path, packages: Sequence[str]) -> str:
    """Hash of every ``*.py`` under ``root/<package>`` (recursive).

    Files are visited in sorted order and each contributes its path
    relative to *root* and its source, so adding, renaming or editing
    any module changes the hash.
    """
    root = Path(root)
    paths = sorted(path for package in packages
                   for path in (root / package).rglob("*.py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def model_fingerprint() -> str:
    """Hash of every timing-relevant module's source."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        _fingerprint_cache = source_fingerprint(PACKAGE_ROOT,
                                                FINGERPRINT_PACKAGES)
    return _fingerprint_cache


def cache_dir() -> Path:
    """The store's directory (``REPRO_CACHE_DIR`` overrides the default)."""
    return Path(os.environ.get(_CACHE_ENV, _DEFAULT_CACHE))


def _env_limit(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def cache_limit_bytes() -> Optional[int]:
    """Byte budget from ``REPRO_CACHE_LIMIT_BYTES`` (None = unlimited)."""
    return _env_limit(_LIMIT_BYTES_ENV)


def cache_limit_entries() -> Optional[int]:
    """Entry budget from ``REPRO_CACHE_LIMIT_ENTRIES`` (None = unlimited)."""
    return _env_limit(_LIMIT_ENTRIES_ENV)


def _config_key(config: Union[RocketConfig, BoomConfig]) -> str:
    payload = asdict(config)
    return json.dumps(payload, sort_keys=True, default=str)


def cache_key(workload: str, scale: float,
              config: Union[RocketConfig, BoomConfig]) -> str:
    digest = hashlib.sha256()
    digest.update(model_fingerprint().encode())
    digest.update(workload.encode())
    digest.update(f"{scale:.6f}".encode())
    digest.update(_config_key(config).encode())
    return digest.hexdigest()[:24]


def _serialize(result: CoreResult) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "config_name": result.config_name,
        "core": result.core,
        "cycles": result.cycles,
        "instret": result.instret,
        "events": result.events,
        "lane_events": result.lane_events,
        "commit_width": result.commit_width,
        "issue_width": result.issue_width,
        "l1i_stats": asdict(result.l1i_stats),
        "l1d_stats": asdict(result.l1d_stats),
        "l2_stats": asdict(result.l2_stats),
        "predictor_stats": asdict(result.predictor_stats),
        "extra": result.extra,
    }


def _deserialize(payload: Dict[str, Any]) -> CoreResult:
    return CoreResult(
        workload=payload["workload"],
        config_name=payload["config_name"],
        core=payload["core"],
        cycles=payload["cycles"],
        instret=payload["instret"],
        events={k: int(v) for k, v in payload["events"].items()},
        lane_events={k: [int(x) for x in v]
                     for k, v in payload["lane_events"].items()},
        commit_width=payload["commit_width"],
        issue_width=payload["issue_width"],
        l1i_stats=CacheStats(**payload["l1i_stats"]),
        l1d_stats=CacheStats(**payload["l1d_stats"]),
        l2_stats=CacheStats(**payload["l2_stats"]),
        predictor_stats=PredictorStats(**payload["predictor_stats"]),
        extra=payload.get("extra", {}),
    )


def serialize_result(result: CoreResult) -> Dict[str, Any]:
    """Public JSON codec for :class:`CoreResult` (checkpoints reuse it)."""
    return _serialize(result)


def deserialize_result(payload: Dict[str, Any]) -> CoreResult:
    """Inverse of :func:`serialize_result` (exact round-trip)."""
    return _deserialize(payload)


#: Top-level key holding the payload checksum in on-disk entries.
_CHECKSUM_KEY = "__sha256__"


def entry_path(key: str) -> Path:
    """On-disk location of the entry for *key* (existing or not)."""
    return cache_dir() / f"{key}.json"


def _payload_checksum(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_verified(path: Path) -> Optional[CoreResult]:
    """Read + validate one entry; raises CacheIntegrityError on damage."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        # OSError: unreadable file; ValueError covers JSONDecodeError
        # plus truncated/garbled documents.
        raise CacheIntegrityError(
            f"unreadable cache entry {path.name}: {exc}",
            invariant="cache-readable", observed=str(exc)) from exc
    if not isinstance(document, dict):
        raise CacheIntegrityError(
            f"cache entry {path.name} is not a JSON object",
            invariant="cache-schema", observed=type(document).__name__)
    stored_sum = document.pop(_CHECKSUM_KEY, None)
    if stored_sum is not None:
        actual = _payload_checksum(document)
        if actual != stored_sum:
            raise CacheIntegrityError(
                f"cache entry {path.name} failed its checksum",
                invariant="cache-checksum",
                observed=actual, expected=stored_sum)
    try:
        return _deserialize(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheIntegrityError(
            f"cache entry {path.name} has a broken schema: {exc}",
            invariant="cache-schema", observed=str(exc)) from exc


def load(key: str) -> Optional[CoreResult]:
    path = entry_path(key)
    if not path.exists():
        return None
    try:
        result = _read_verified(path)
    except CacheIntegrityError:
        return None  # treat corrupt entries as misses
    try:
        # Touch hits so size-bounded eviction is LRU rather than FIFO.
        os.utime(path)
    except OSError:
        pass
    return result


def verify_entry(key: str) -> bool:
    """Strictly validate the entry for *key*.

    Returns ``False`` when no entry exists, ``True`` when the entry is
    present and intact, and raises
    :class:`~repro.isa.errors.CacheIntegrityError` when the entry is
    present but unreadable, checksum-failing, or schema-broken.
    """
    path = entry_path(key)
    if not path.exists():
        return False
    _read_verified(path)
    return True


def quarantine(key: str) -> bool:
    """Delete the (presumed poisoned) entry for *key*.

    Returns ``True`` when an entry was removed.  The caller re-runs the
    simulation to repopulate the slot.
    """
    path = entry_path(key)
    try:
        os.remove(path)
        return True
    except FileNotFoundError:
        return False


def store(key: str, result: CoreResult) -> bool:
    """Write the entry for *key*; returns False when the write failed.

    A cache write is an optimization, never a correctness step: a full
    disk (ENOSPC), a permissions problem, or any other ``OSError``
    skips the write and the caller's run result is returned as normal.
    Payload bytes are routed through the chaos-injection disk seam so
    campaigns can exercise truncated/bit-flipped/ENOSPC writes; the
    embedded checksum is what makes those mangled entries *detectable*
    on the next read.
    """
    payload = _serialize(result)
    return _write_entry(key, payload)


def _write_entry(key: str, payload: Dict[str, Any]) -> bool:
    """Checksum, atomically write, and LRU-prune one entry document."""
    from ..chaos import injector as chaos

    payload = dict(payload)
    payload[_CHECKSUM_KEY] = _payload_checksum(
        {k: v for k, v in payload.items() if k != _CHECKSUM_KEY})
    data = json.dumps(payload).encode("utf-8")
    directory = cache_dir()
    path = directory / f"{key}.json"
    # Per-process tmp name: concurrent benchmark processes must not
    # clobber each other's in-flight writes before the atomic replace.
    tmp_path = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        data = chaos.mangle_write("result-cache", key, data)
        directory.mkdir(parents=True, exist_ok=True)
        with open(tmp_path, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except OSError:
        return False
    finally:
        if tmp_path.exists():
            try:
                os.remove(tmp_path)
            except OSError:
                pass
    limit_bytes = cache_limit_bytes()
    limit_entries = cache_limit_entries()
    if limit_bytes is not None or limit_entries is not None:
        prune(max_bytes=limit_bytes, max_entries=limit_entries,
              keep=(key,))
    return True


# ----------------------------------------------------------------------
# Generic JSON payload entries
#
# Results that are not a CoreResult (multicore scenario payloads, for
# now) share the same store: checksummed, atomically written, subject to
# the same LRU budget.  A wrapper key keeps them from ever being
# mistaken for a CoreResult entry (``load`` on one simply misses).


_PAYLOAD_WRAPPER_KEY = "__payload__"


def store_payload(key: str, payload: Dict[str, Any]) -> bool:
    """Write an arbitrary JSON *payload* under *key* (best-effort)."""
    return _write_entry(key, {_PAYLOAD_WRAPPER_KEY: payload})


def load_payload(key: str) -> Optional[Dict[str, Any]]:
    """Read a payload entry; any damage or schema mismatch is a miss."""
    path = entry_path(key)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    stored_sum = document.pop(_CHECKSUM_KEY, None)
    if stored_sum is None or _payload_checksum(document) != stored_sum:
        return None
    payload = document.get(_PAYLOAD_WRAPPER_KEY)
    if not isinstance(payload, dict):
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return payload


# ----------------------------------------------------------------------
# Size accounting and eviction


@dataclass(frozen=True)
class CacheUsage:
    """Point-in-time size report of the on-disk store."""

    directory: str
    entries: int
    total_bytes: int
    limit_bytes: Optional[int]
    limit_entries: Optional[int]

    @property
    def over_limit(self) -> bool:
        if self.limit_bytes is not None and self.total_bytes > self.limit_bytes:
            return True
        return (self.limit_entries is not None
                and self.entries > self.limit_entries)

    def render(self) -> str:
        def fmt(limit: Optional[int]) -> str:
            return "unlimited" if limit is None else str(limit)

        return (f"cache {self.directory}\n"
                f"  entries: {self.entries} (limit {fmt(self.limit_entries)})\n"
                f"  bytes:   {self.total_bytes} (limit {fmt(self.limit_bytes)})")


def _scan_entries(directory: Path) -> List[Path]:
    if not directory.is_dir():
        return []
    return [p for p in directory.glob("*.json") if p.is_file()]


def usage() -> CacheUsage:
    """Current entry count and byte total (plus any env-set limits)."""
    directory = cache_dir()
    entries = _scan_entries(directory)
    total = 0
    for path in entries:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return CacheUsage(directory=str(directory), entries=len(entries),
                      total_bytes=total,
                      limit_bytes=cache_limit_bytes(),
                      limit_entries=cache_limit_entries())


def prune(max_bytes: Optional[int] = None,
          max_entries: Optional[int] = None,
          keep: Optional[Any] = None) -> List[str]:
    """Evict least-recently-used entries until both budgets hold.

    ``max_bytes`` / ``max_entries`` of ``None`` mean "no bound on that
    axis"; calling with both ``None`` is a no-op.  Keys listed in
    ``keep`` are never evicted (``store`` protects the entry it just
    wrote).  Returns the evicted keys, oldest first.
    """
    if max_bytes is None and max_entries is None:
        return []
    directory = cache_dir()
    protected = set(keep or ())
    survivors = []
    for path in _scan_entries(directory):
        try:
            stat = path.stat()
        except OSError:
            continue
        survivors.append((stat.st_mtime, stat.st_size, path))
    survivors.sort()  # oldest mtime first = least recently used first
    total_bytes = sum(size for _, size, _ in survivors)
    total_entries = len(survivors)
    evicted: List[str] = []
    for _, size, path in survivors:
        bytes_ok = max_bytes is None or total_bytes <= max_bytes
        entries_ok = max_entries is None or total_entries <= max_entries
        if bytes_ok and entries_ok:
            break
        if path.stem in protected:
            continue
        try:
            os.remove(path)
        except OSError:
            continue
        evicted.append(path.stem)
        total_bytes -= size
        total_entries -= 1
    return evicted
