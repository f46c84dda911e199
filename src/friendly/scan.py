"""Segmented, resumable, parallel scanning for a target abundancy index.

A scan covers [1, bound) with disjoint fixed-grid segments, each computed
from its index. Workers share nothing; each segment independently produces a
ScanRecord, and records are folded into running totals as they arrive, so
any interleaving of any number of workers yields byte-identical final
output. A resumable scan keeps two files: a checkpoint holding only the
run's parameters, written once when the run starts, and a JSON-lines records
file to which each completed segment appends its record. The records file
is the only account of progress: a resume rescans exactly the segments
without a whole line in it, including one whose last line a crash cut short.

The matcher, ``index_hits``, compares sigma(n) with num * n / den at the
multiples of den / gcd(num, den) only, in wrapping uint64; ``scan_range``
re-verifies each of its hits exactly, and a resume re-verifies each stored
hit the same way.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import sieve
from .arith import factorize, sigma

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "DEFAULT_SEGMENT_SIZE",
    "WORKERS_PER_CPU",
    "ScanOutcome",
    "ScanRecord",
    "checkpoint_load",
    "checkpoint_save",
    "index_hits",
    "max_workers",
    "read_records",
    "scan",
    "scan_range",
]

DEFAULT_SEGMENT_SIZE = 1 << 20
# A forked pool starts every worker at its first task, so a count past a few
# per CPU would only start processes; ``scan`` refuses more than this.
WORKERS_PER_CPU = 4
CHECKPOINT_VERSION = 2
_U64 = (1 << 64) - 1
# What decoding a well-formed JSON value of the wrong shape can raise.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError)


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
    """One scanned segment [lo, hi) and what was found in it; the index it was
    scanned for is the scan's, held by the checkpoint and the driver."""

    lo: int
    hi: int
    hits: tuple[int, ...]
    elapsed: int  # milliseconds
    checksum: int  # sum of sigma(n) over the segment, mod 2^64

    @property
    def scanned_count(self) -> int:
        return self.hi - self.lo


def _positive(target: Fraction) -> Fraction:
    if isinstance(target, float):
        # Fraction(1.8) is the float's binary value, not 9/5.
        raise ValueError(f"target index must be exact, not the float {target!r}")
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target index must be positive")
    return target


def scan_range(lo: int, hi: int, target: Fraction) -> ScanRecord:
    """Scan [lo, hi) for values with abundancy index equal to ``target``.

    The segment's sigma values come from the batched sieve one block at a
    time: each block is matched and summed into the checksum as it is
    finished, so a call never holds the segment's sigma values; its memory
    still grows with the width through the sieve's sparse-power table, up
    to sieve.MAX_SEGMENT. Any hit is then re-verified through the exact
    factorization path before being recorded. The checksum sums sieved
    sigma values mod 2^64 and is independent of how the surrounding scan is
    parallelized.
    """
    target = _positive(target)
    started = time.perf_counter()
    num, den = target.numerator, target.denominator
    raw: list[int] = []
    checksum = 0

    def visit(at: int, block: np.ndarray) -> None:
        nonlocal checksum
        raw.extend(index_hits(block, at, num, den))
        checksum += int(np.add.reduce(block.view(np.uint64), dtype=np.uint64))

    sieve.sigma_range(lo, hi, visit)
    hits = tuple(h for h in raw if _is_hit(h, num, den))
    checksum &= _U64
    elapsed = int((time.perf_counter() - started) * 1000)
    return ScanRecord(lo=lo, hi=hi, hits=hits, elapsed=elapsed, checksum=checksum)


def index_hits(sig: np.ndarray, lo: int, num: int, den: int) -> list[int]:
    """Every n in [lo, lo + len(sig)) with den * sig[n - lo] == num * n, ascending.

    ``sig`` is sigma over that segment, as ``sieve.sigma_range`` hands a
    block of it to a visitor, so the hits have abundancy index num/den. The
    test wraps in uint64: it misses no hit, but where num * n / den passes
    2^64 a value can match mod 2^64 only, so ``scan_range`` re-verifies each
    hit exactly.
    """
    # den * sigma(n) == num * n makes step = den / g divide n, and for
    # n = step * k it reads sigma(n) == k * (num / g).
    g = math.gcd(num, den)
    step = den // g
    first = -(-lo // step)  # the least k with step * k >= lo
    sub = sig[first * step - lo :: step].view(np.uint64)
    want = np.arange(first, first + len(sub), dtype=np.uint64)
    want *= np.uint64(num // g % (1 << 64))
    return [step * (first + int(j)) for j in np.flatnonzero(sub == want)]


def _is_hit(n: int, num: int, den: int) -> bool:
    """Exactly whether n has abundancy index num/den."""
    return sigma(factorize(n)) * den == n * num


# --- persistence -----------------------------------------------------------


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1"))


def record_to_json(rec: ScanRecord, target: Fraction) -> str:
    """One ScanRecord of a scan for ``target`` as a JSON object with integers as decimal strings.

    The line names the index, so that a line from another run is caught.
    """
    return json.dumps(
        {
            "lo": str(rec.lo),
            "hi": str(rec.hi),
            "target_index": _fraction_str(target),
            "hits": [str(h) for h in rec.hits],
            "elapsed": str(rec.elapsed),
            "checksum": str(rec.checksum),
        }
    )


def record_from_json(line: Union[str, bytes], cp: Checkpoint) -> ScanRecord:
    """Decode one record; ValueError if it contradicts itself or is no segment of cp's scan.

    Refused: hits outside [lo, hi) or not strictly ascending; a checksum
    outside [0, 2^64); a segment off cp's grid or an index not cp's; a hit
    whose index is not exactly cp's. The grid is checked before any hit is
    factored: ``scan`` refuses a bound past ``sieve.check_height``, so each
    hit on its grid is quick to factor. A ``scanned_count`` key, which lines
    written before it was dropped carry, is ignored.
    """
    doc = json.loads(line)
    rec = ScanRecord(
        lo=int(doc["lo"]),
        hi=int(doc["hi"]),
        hits=tuple(int(h) for h in doc["hits"]),
        elapsed=int(doc["elapsed"]),
        checksum=int(doc["checksum"]),
    )
    target = _parse_fraction(doc["target_index"])
    if not all(rec.lo <= h < rec.hi for h in rec.hits):
        raise ValueError(f"a hit in {list(rec.hits)} lies outside [{rec.lo}, {rec.hi})")
    if any(h >= k for h, k in zip(rec.hits, rec.hits[1:])):
        raise ValueError(f"hits {list(rec.hits)} are not strictly ascending")
    if not 0 <= rec.checksum <= _U64:
        raise ValueError(f"checksum {rec.checksum} lies outside [0, 2^64)")
    index = _fraction_str(target)
    on_grid = rec.lo in _starts(cp.bound, cp.segment_size) and rec.hi == min(rec.lo + cp.segment_size, cp.bound)
    if not on_grid or target != cp.target_index:
        raise ValueError(f"record [{rec.lo}, {rec.hi}) for index {index} is not a segment of this scan")
    num, den = target.numerator, target.denominator
    for h in rec.hits:
        if not _is_hit(h, num, den):
            raise ValueError(f"hit {h} does not have index {index}")
    return rec


def read_records(path: Union[str, Path], cp: Checkpoint, visit: Callable[[ScanRecord], None]) -> int:
    """Hand each record of cp's scan to ``visit`` in file order; the byte length of their lines.

    A last line without its newline is a write cut short by a crash: it is
    left out, so its segment counts as not scanned, and the length returned
    ends before it. Any other line that ``record_from_json`` refuses, or
    whose record ``visit`` refuses with a ValueError, raises
    CheckpointCorruptError with the line's byte offset. No record is kept
    here: a repeated segment is for ``visit`` to refuse.
    """
    offset = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                visit(record_from_json(line, cp))
            except _DECODE_ERRORS as exc:
                raise CheckpointCorruptError(str(path), f"refused record ({exc})", offset=offset) from exc
            offset += len(line)
    return offset


@dataclass(frozen=True)
class Checkpoint:
    """The parameters of a resumable scan; its progress is the records file."""

    target_index: Fraction
    bound: int
    segment_size: int


def checkpoint_save(path: Union[str, Path], cp: Checkpoint) -> None:
    """Write durably and atomically: a synced temp file replaces the destination."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "target_index": _fraction_str(cp.target_index),
        "bound": str(cp.bound),
        "segment_size": str(cp.segment_size),
    }
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def checkpoint_load(path: Union[str, Path]) -> Checkpoint:
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(str(path), f"not UTF-8 ({exc.reason})", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(str(path), exc.msg, offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise CheckpointCorruptError(str(path), "top-level value is not an object", offset=0)
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: version {version!r} not supported (expected {CHECKPOINT_VERSION}); "
            f"delete it and {path}.records to restart the scan"
        )
    try:
        return Checkpoint(
            target_index=_parse_fraction(doc["target_index"]),
            bound=int(doc["bound"]),
            segment_size=int(doc["segment_size"]),
        )
    except _DECODE_ERRORS as exc:
        raise CheckpointCorruptError(str(path), f"bad field: {exc}") from exc


# --- the driver ------------------------------------------------------------


def _starts(bound: int, segment_size: int) -> range:
    """Where each segment starts; the one at lo ends at min(lo + segment_size, bound)."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2 to scan [1, bound), got {bound}")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    return range(1, bound, segment_size)


@dataclass(frozen=True)
class ScanOutcome:
    """Aggregate state of a scan after this call (including prior resumed work)."""

    complete: bool
    frontier: int
    hits: tuple[int, ...]
    scanned_count: int
    checksum: int
    segments_done: int
    segments_total: int
    new_records: tuple[ScanRecord, ...]


def max_workers() -> int:
    """The most workers ``scan`` accepts: WORKERS_PER_CPU per CPU."""
    return WORKERS_PER_CPU * (os.cpu_count() or 1)


def _scan_segment_task(lo: int, hi: int, target: Fraction) -> ScanRecord:
    """The pool's task: a module-level name, so it pickles even while ``scan_range`` is wrapped."""
    return scan_range(lo, hi, target)


def scan(
    bound: int,
    target: Fraction,
    *,
    workers: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint_path: Union[str, Path, None] = None,
    max_segments: Optional[int] = None,
) -> ScanOutcome:
    """Scan [1, bound) for values whose abundancy index equals ``target``.

    With a checkpoint path the scan is resumable. The checkpoint holds the
    run's parameters and is written once, when the run starts; resuming
    under different parameters is refused. Each completed segment appends
    its record to ``checkpoint_path + ".records"``, and that file alone says
    which segments are done, so a resumed run never rescans them and still
    reports global hits and checksums. All writes happen in this process,
    regardless of worker count. ``max_segments`` caps how many segments
    this call processes, which makes interruption testable, and
    ``new_records`` holds the records of only the segments this call scanned.
    Segments are computed from their index and every record, read back or
    new, is folded into the totals as it arrives, where a second record for
    a segment already done is refused; so besides ``new_records`` the driver
    keeps per segment only its start, once done, and its hits. A bound too
    high or a segment too wide to sieve, a float target or one <= 0, a
    ``max_segments`` that is not a natural number and ``workers`` that is not
    an integer in [1, max_workers()] are refused before any file is made.
    """
    target = _positive(target)
    sieve.check_height(bound)
    starts = _starts(bound, segment_size)
    sieve.check_width(min(segment_size, bound - 1))
    if max_segments is not None and not (isinstance(max_segments, int) and max_segments >= 0):
        raise ValueError(f"max_segments must be None or an integer >= 0, got {max_segments!r}")
    if not (isinstance(workers, int) and 1 <= workers <= max_workers()):
        raise ValueError(
            f"workers must be an integer from 1 to {max_workers()} ({WORKERS_PER_CPU} per CPU), got {workers!r}"
        )

    done: set[int] = set()
    hits: list[int] = []
    scanned_count = checksum = 0

    def tally(rec: ScanRecord) -> None:
        nonlocal scanned_count, checksum
        if rec.lo in done:
            raise ValueError(f"a second line for [{rec.lo}, {rec.hi})")
        done.add(rec.lo)
        hits.extend(rec.hits)
        scanned_count += rec.scanned_count
        checksum = (checksum + rec.checksum) & _U64

    records_path = None
    whole = 0  # bytes of the records file's whole lines
    if checkpoint_path is not None:
        records_path = str(checkpoint_path) + ".records"
        params = Checkpoint(target, bound, segment_size)
        if Path(checkpoint_path).exists():
            stored = checkpoint_load(checkpoint_path)
            if stored != params:
                raise CheckpointMismatchError(
                    f"{checkpoint_path}: written for {stored}, not {params}; refusing to resume"
                )
            whole = read_records(records_path, params, tally)
        else:
            open(records_path, "wb").close()
            checkpoint_save(checkpoint_path, params)

    segments = ((lo, min(lo + segment_size, bound)) for lo in starts if lo not in done)
    todo = islice(segments, max_segments)
    new_records: list[ScanRecord] = []
    records_fh = open(records_path, "ab") if records_path else None
    try:
        if records_fh is not None:
            # A last line cut short by a crash lies past the whole lines that
            # read_records read; drop it so appends start on a new line.
            records_fh.truncate(whole)

        def complete(rec: ScanRecord) -> None:
            tally(rec)
            new_records.append(rec)
            if records_fh is not None:
                records_fh.write(record_to_json(rec, target).encode("utf-8") + b"\n")
                records_fh.flush()

        if workers <= 1:
            sieve.cover(bound)
            for lo, hi in todo:
                complete(scan_range(lo, hi, target))
        else:
            # Imported here, so that a one-shot command does not pay for
            # multiprocessing.
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            # At most 2 * workers segments in flight, so the pool's queue
            # stays small however long the grid is.
            with ProcessPoolExecutor(
                max_workers=workers, initializer=sieve.cover, initargs=(bound,)
            ) as pool:
                pending: set = set()
                while True:
                    for lo, hi in islice(todo, 2 * workers - len(pending)):
                        pending.add(pool.submit(_scan_segment_task, lo, hi, target))
                    if not pending:
                        break
                    finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        complete(future.result())
    finally:
        if records_fh is not None:
            records_fh.close()

    return ScanOutcome(
        complete=len(done) == len(starts),
        # The first segment not done lies within the first len(done) + 1 starts.
        frontier=next((lo for lo in starts if lo not in done), bound),
        hits=tuple(sorted(hits)),
        scanned_count=scanned_count,
        checksum=checksum,
        segments_done=len(done),
        segments_total=len(starts),
        new_records=tuple(new_records),
    )
