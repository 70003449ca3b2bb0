"""Output records and their comparison with the stored references.

A CLI unit's records are its CSV rows. A detect pass's records are
chunks of ``CHUNK`` observations: a digest of the integer outputs
(transmitted index, OSD winner and list length, MWD winner), compared
exactly, plus the per-detector sums of winning distances, compared to
``REL_TOL``. Integer fields must match exactly; float fields may differ
by ``REL_TOL`` relative, so a refactor that reorders a float sum still
passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

REL_TOL = 1e-9
CHUNK = 100

INT_FIELDS = frozenset({"channels", "trials", "errors", "distance_evals", "seed"})
FLOAT_FIELDS = frozenset({"snr_db", "rate", "mean_list_len"})


def _typed(field: str, text: str):
    if field in INT_FIELDS:
        return int(text)
    if field in FLOAT_FIELDS:
        return float(text)
    return text


def parse_csv(text: str) -> list[dict]:
    """CSV result rows, typed by column."""
    return [{k: _typed(k, v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def detect_records(outcomes) -> list[dict]:
    """Chunk records of a detect pass.

    ``outcomes`` holds one tuple per observation:
    ``(k, osd_index, osd_list_len, osd_distance, mwd_index, mwd_distance)``.
    """
    records = []
    for start in range(0, len(outcomes), CHUNK):
        chunk = outcomes[start:start + CHUNK]
        ints = ";".join(f"{k},{oi},{ol},{mi}" for k, oi, ol, _, mi, _ in chunk)
        records.append({
            "obs": len(chunk),
            "ints_sha256": hashlib.sha256(ints.encode()).hexdigest()[:16],
            "osd_distance_sum": math.fsum(o[3] for o in chunk),
            "mwd_distance_sum": math.fsum(o[5] for o in chunk),
        })
    return records


def same_value(got, ref) -> bool:
    if isinstance(ref, float):
        return isinstance(got, float) and math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(ref) and got == ref


def same_record(got: dict | None, ref: dict) -> bool:
    return got is not None and got.keys() == ref.keys() and all(
        same_value(got[k], ref[k]) for k in ref)


def record_weight(record: dict) -> int:
    """Operations a record stands for: its observations, or 1 for a row."""
    return record.get("obs", 1)


def compare(got: list[dict], ref: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations of ``got`` against ``ref``.

    Records are matched by position; a missing, extra or differing
    record fails every operation it stands for.
    """
    attempted = failed = 0
    for i, r in enumerate(ref):
        w = record_weight(r)
        attempted += w
        if not same_record(got[i] if i < len(got) else None, r):
            failed += w
    extra = sum(record_weight(r) for r in got[len(ref):])
    return attempted + extra, failed + extra
