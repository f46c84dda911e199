"""Segmented, resumable, parallel scanning for a target abundancy index.

A scan covers [1, bound) with disjoint fixed-grid segments. Workers share
nothing; each segment independently produces a ScanRecord, and records are
merged by position, so any interleaving of any number of workers yields
byte-identical final output. Completed records append to a JSON-lines file
and a single JSON checkpoint tracks progress for resumption.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from . import sieve
from .arith import factorize, sigma
from .friend10 import Candidate

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "DEFAULT_SEGMENT_SIZE",
    "ScanOutcome",
    "ScanRecord",
    "checkpoint_load",
    "checkpoint_save",
    "config_fingerprint",
    "enumerate_structured",
    "read_records",
    "scan",
    "scan_range",
    "segment_grid",
]

DEFAULT_SEGMENT_SIZE = 1 << 20
CHECKPOINT_VERSION = 1
_U64 = (1 << 64) - 1


class CheckpointError(Exception):
    pass


class CheckpointCorruptError(CheckpointError):
    """Checkpoint or records file cannot be decoded."""

    def __init__(self, path: str, message: str, offset: Optional[int] = None):
        where = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"{path}: {message}{where}")
        self.path = path
        self.offset = offset


class CheckpointVersionError(CheckpointError):
    """Unknown checkpoint version; refused rather than migrated."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint belongs to a run with different parameters."""


@dataclass(frozen=True)
class ScanRecord:
    """One scanned segment [lo, hi) and everything found in it."""

    lo: int
    hi: int
    target_index: Fraction
    hits: tuple[int, ...]
    scanned_count: int
    elapsed: int  # milliseconds
    checksum: int  # sum of sigma(n) over the segment, mod 2^64


def scan_range(lo: int, hi: int, target: Fraction, *, max_elements: int = sieve.MAX_SEGMENT) -> ScanRecord:
    """Scan [lo, hi) for values with abundancy index equal to ``target``.

    The segment's sigma values come from the batched sieve; any hit is
    re-verified through the exact factorization path before being recorded.
    The checksum sums sieved sigma values mod 2^64 and is independent of how
    the surrounding scan is parallelized.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target index must be positive")
    started = time.perf_counter()
    sig = sieve.sigma_range(lo, hi, max_elements=max_elements)
    num, den = target.numerator, target.denominator
    raw = sieve.index_hits(sig, lo, num, den)
    hits = tuple(h for h in raw if sigma(factorize(h)) * den == h * num)
    checksum = int(np.add.reduce(sig.astype(np.uint64), dtype=np.uint64)) & _U64
    elapsed = int((time.perf_counter() - started) * 1000)
    return ScanRecord(
        lo=lo,
        hi=hi,
        target_index=target,
        hits=hits,
        scanned_count=hi - lo,
        elapsed=elapsed,
        checksum=checksum,
    )


# --- persistence -----------------------------------------------------------


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1"))


def record_to_json(rec: ScanRecord) -> str:
    """One ScanRecord as a JSON object with integers as decimal strings."""
    return json.dumps(
        {
            "lo": str(rec.lo),
            "hi": str(rec.hi),
            "target_index": _fraction_str(rec.target_index),
            "hits": [str(h) for h in rec.hits],
            "scanned_count": str(rec.scanned_count),
            "elapsed": str(rec.elapsed),
            "checksum": str(rec.checksum),
        }
    )


def record_from_json(line: str) -> ScanRecord:
    doc = json.loads(line)
    return ScanRecord(
        lo=int(doc["lo"]),
        hi=int(doc["hi"]),
        target_index=_parse_fraction(doc["target_index"]),
        hits=tuple(int(h) for h in doc["hits"]),
        scanned_count=int(doc["scanned_count"]),
        elapsed=int(doc["elapsed"]),
        checksum=int(doc["checksum"]),
    )


def read_records(path: Union[str, Path]) -> list[ScanRecord]:
    """Load a JSON-lines results file; a rerun segment keeps its last record."""
    out: dict[tuple[int, int], ScanRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = record_from_json(line)
            out[(rec.lo, rec.hi)] = rec
    return sorted(out.values(), key=lambda r: r.lo)


@dataclass(frozen=True)
class Checkpoint:
    """Resumable scan state: what is done, what is not, and for which run."""

    version: int
    target_index: Fraction
    bound: int
    segment_size: int
    frontier: int
    pending: tuple[tuple[int, int], ...]
    fingerprint: str


def config_fingerprint(target: Fraction, bound: int, segment_size: int) -> str:
    blob = f"v{CHECKPOINT_VERSION}:{_fraction_str(target)}:{bound}:{segment_size}"
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def checkpoint_save(path: Union[str, Path], cp: Checkpoint) -> None:
    """Write atomically: a temp file is renamed over the destination."""
    doc = {
        "version": cp.version,
        "target_index": _fraction_str(cp.target_index),
        "bound": str(cp.bound),
        "segment_size": str(cp.segment_size),
        "frontier": str(cp.frontier),
        "pending": [[str(lo), str(hi)] for lo, hi in cp.pending],
        "fingerprint": cp.fingerprint,
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def checkpoint_load(path: Union[str, Path]) -> Checkpoint:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(str(path), exc.msg, offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise CheckpointCorruptError(str(path), "top-level value is not an object", offset=0)
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: version {version!r} not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        return Checkpoint(
            version=version,
            target_index=_parse_fraction(doc["target_index"]),
            bound=int(doc["bound"]),
            segment_size=int(doc["segment_size"]),
            frontier=int(doc["frontier"]),
            pending=tuple((int(lo), int(hi)) for lo, hi in doc["pending"]),
            fingerprint=doc["fingerprint"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(str(path), f"bad field: {exc}") from exc


# --- the driver ------------------------------------------------------------


def segment_grid(bound: int, segment_size: int) -> list[tuple[int, int]]:
    """Disjoint segments covering exactly [1, bound)."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2 to scan [1, bound), got {bound}")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    return [(lo, min(lo + segment_size, bound)) for lo in range(1, bound, segment_size)]


def _frontier(done: dict[tuple[int, int], ScanRecord], grid: list[tuple[int, int]]) -> int:
    edge = 1
    for seg in grid:
        if seg in done and seg[0] == edge:
            edge = seg[1]
        else:
            break
    return edge


@dataclass(frozen=True)
class ScanOutcome:
    """Aggregate state of a scan after this call (including prior resumed work)."""

    target_index: Fraction
    bound: int
    segment_size: int
    complete: bool
    frontier: int
    hits: tuple[int, ...]
    scanned_count: int
    checksum: int
    segments_done: int
    segments_total: int
    new_records: tuple[ScanRecord, ...]


def _scan_segment_task(lo: int, hi: int, num: int, den: int) -> ScanRecord:
    return scan_range(lo, hi, Fraction(num, den))


def scan(
    bound: int,
    target: Fraction,
    *,
    workers: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint_path: Union[str, Path, None] = None,
    records_path: Union[str, Path, None] = None,
    max_segments: Optional[int] = None,
) -> ScanOutcome:
    """Scan [1, bound) for values whose abundancy index equals ``target``.

    With a checkpoint path the scan is resumable: completed segments are
    never rescanned, and resuming under different parameters is refused via
    the config fingerprint. Records of completed segments append to
    ``records_path`` (defaulting to the checkpoint path plus ``.records``)
    so a resumed run can still report global hits and checksums. Checkpoint
    and record writes all happen in this process, regardless of worker
    count. ``max_segments`` caps how many segments this call processes,
    which makes interruption testable.
    """
    target = Fraction(target)
    grid = segment_grid(bound, segment_size)
    fingerprint = config_fingerprint(target, bound, segment_size)
    if records_path is None and checkpoint_path is not None:
        records_path = str(checkpoint_path) + ".records"

    done: dict[tuple[int, int], ScanRecord] = {}
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        cp = checkpoint_load(checkpoint_path)
        if cp.fingerprint != fingerprint:
            raise CheckpointMismatchError(
                f"{checkpoint_path}: fingerprint {cp.fingerprint} does not match "
                f"current parameters ({fingerprint}); refusing to resume"
            )
        pending = set(cp.pending)
        completed_segments = [seg for seg in grid if seg not in pending]
        if completed_segments:
            if records_path is None or not Path(records_path).exists():
                raise CheckpointCorruptError(
                    str(checkpoint_path), "records file for completed segments is missing"
                )
            on_disk = {(r.lo, r.hi): r for r in read_records(records_path)}
            for seg in completed_segments:
                rec = on_disk.get(seg)
                if rec is None:
                    raise CheckpointCorruptError(
                        str(records_path), f"no record for completed segment {seg}"
                    )
                done[seg] = rec
    else:
        pending = set(grid)

    todo = sorted(pending)
    if max_segments is not None:
        todo = todo[:max_segments]

    new_records: list[ScanRecord] = []
    records_fh = open(records_path, "a", encoding="utf-8") if records_path else None
    try:

        def complete(rec: ScanRecord) -> None:
            seg = (rec.lo, rec.hi)
            done[seg] = rec
            pending.discard(seg)
            new_records.append(rec)
            if records_fh is not None:
                records_fh.write(record_to_json(rec) + "\n")
                records_fh.flush()
            if checkpoint_path is not None:
                checkpoint_save(
                    checkpoint_path,
                    Checkpoint(
                        version=CHECKPOINT_VERSION,
                        target_index=target,
                        bound=bound,
                        segment_size=segment_size,
                        frontier=_frontier(done, grid),
                        pending=tuple(sorted(pending)),
                        fingerprint=fingerprint,
                    ),
                )

        if workers <= 1:
            for lo, hi in todo:
                complete(scan_range(lo, hi, target))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_scan_segment_task, lo, hi, target.numerator, target.denominator)
                    for lo, hi in todo
                ]
                for future in as_completed(futures):
                    complete(future.result())
    finally:
        if records_fh is not None:
            records_fh.close()

    ordered = sorted(done.values(), key=lambda r: r.lo)
    hits = tuple(sorted(h for rec in ordered for h in rec.hits))
    return ScanOutcome(
        target_index=target,
        bound=bound,
        segment_size=segment_size,
        complete=not pending,
        frontier=_frontier(done, grid),
        hits=hits,
        scanned_count=sum(rec.scanned_count for rec in ordered),
        checksum=sum(rec.checksum for rec in ordered) & _U64,
        segments_done=len(done),
        segments_total=len(grid),
        new_records=tuple(new_records),
    )


# --- structured enumeration ------------------------------------------------


def enumerate_structured(bound: int) -> Iterator[Candidate]:
    """Every candidate 5^(2a) * Q^2 <= bound, ascending by value.

    Q runs over odd integers coprime to 15 (including 1); each admissible a
    contributes one ascending stream and the streams merge by value. The
    5-adic valuation pins a, so no value appears twice.
    """
    if bound < 25:
        raise ValueError(f"bound must be at least 25, got {bound}")

    def stream(a: int) -> Iterator[Candidate]:
        base = 5 ** (2 * a)
        q = 1
        while base * q * q <= bound:
            if q % 3 != 0 and q % 5 != 0:
                yield Candidate(a=a, q_factorization=factorize(q))
            q += 2

    streams = []
    a = 1
    while 5 ** (2 * a) <= bound:
        streams.append(stream(a))
        a += 1
    return merge(*streams, key=lambda c: c.value)
