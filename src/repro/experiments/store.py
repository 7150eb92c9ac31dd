"""The self-verifying run store.

A long campaign must never lose finished work to a damaged file.

**Versioned, CRC-trailed JSONL lines.**  Every record the harness
persists (``runs.jsonl`` checkpoints, ``journal.jsonl`` job records)
is wrapped in a one-line envelope carrying a schema version and a
CRC32 of the canonical payload encoding::

    {"crc": "1a2b3c4d", "data": {...payload...}, "v": 1}

:func:`decode_line` raises :class:`CorruptLine` on anything that is not
a verifiable record -- truncated JSON, a CRC mismatch (bit rot, a
partial overwrite) or an envelope version from the future.  Lines
written before the envelope existed decode as *legacy* (version 0)
records and stay readable.  Corrupt lines are **quarantined**: moved
into ``run_dir/quarantine/`` so they remain inspectable, while the
source file is repaired in place -- a corrupt checkpoint line costs one
recompute, never the campaign.

:func:`doctor` verifies and repairs a run dir standalone
(``repro-compact doctor``).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from . import reporting

#: Envelope schema version written by this build.  Readers accept
#: every version up to this one; greater versions are quarantined
#: (a downgraded reader must not guess at a future schema).
SCHEMA_VERSION = 1

#: Directory (under a run dir) where corrupt records are moved.
QUARANTINE_DIR = "quarantine"

class CorruptLine(ValueError):
    """A persisted record failed verification (JSON, CRC or version)."""


def _canonical(payload: Mapping[str, Any]) -> str:
    """The byte-stable encoding the CRC is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: Mapping[str, Any]) -> str:
    return format(zlib.crc32(_canonical(payload).encode("utf-8"))
                  & 0xFFFFFFFF, "08x")


def encode_line(payload: Mapping[str, Any]) -> str:
    """Wrap ``payload`` in the versioned, CRC-trailed envelope."""
    return json.dumps({"crc": _crc(payload), "data": payload,
                       "v": SCHEMA_VERSION},
                      sort_keys=True, separators=(",", ":"))


def decode_line(line: str) -> Tuple[Dict[str, Any], int]:
    """Verify and unwrap one persisted line.

    Returns ``(payload, version)``; version 0 marks a legacy
    pre-envelope record (accepted as-is, nothing to verify against).

    Raises
    ------
    CorruptLine
        On malformed JSON, a non-dict record, an envelope version this
        reader does not know, or a CRC mismatch.
    """
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise CorruptLine(f"not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorruptLine("record is not an object")
    if not ("v" in obj and "crc" in obj and "data" in obj):
        return obj, 0  # legacy pre-envelope record
    version = obj["v"]
    if not isinstance(version, int) or version < 1:
        raise CorruptLine(f"bad envelope version {version!r}")
    if version > SCHEMA_VERSION:
        raise CorruptLine(f"envelope version {version} is newer than "
                          f"this reader (max {SCHEMA_VERSION})")
    data = obj["data"]
    if not isinstance(data, dict):
        raise CorruptLine("envelope data is not an object")
    if obj["crc"] != _crc(data):
        raise CorruptLine("CRC mismatch")
    return data, version


# ----------------------------------------------------------------------
# Quarantine-aware JSONL loading
# ----------------------------------------------------------------------

def quarantine_dir(run_dir: Union[str, Path]) -> Path:
    return Path(run_dir) / QUARANTINE_DIR


def load_jsonl(path: Path, run_dir: Union[str, Path],
               repair: bool = True) -> Tuple[List[Dict[str, Any]], int]:
    """Load every verifiable record of ``path``; quarantine the rest.

    Corrupt lines (see :func:`decode_line`) are appended to
    ``run_dir/quarantine/<name>`` and -- with ``repair`` (the default)
    -- removed from the source file via an atomic rewrite, so the next
    load starts clean and a resume recomputes exactly the quarantined
    jobs.  A truncated trailing line (process killed mid-append) is
    the common case; random corruption mid-file behaves identically.

    Returns ``(payloads, n_quarantined)``.
    """
    payloads: List[Dict[str, Any]] = []
    good_lines: List[str] = []
    bad_lines: List[str] = []
    if not path.exists():
        return payloads, 0
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                payload, _version = decode_line(line)
            except CorruptLine:
                bad_lines.append(line)
                continue
            payloads.append(payload)
            good_lines.append(line)
    if bad_lines:
        qdir = quarantine_dir(run_dir)
        qdir.mkdir(parents=True, exist_ok=True)
        with open(qdir / path.name, "a") as handle:
            for line in bad_lines:
                handle.write(line + "\n")
        if repair:
            text = "".join(line + "\n" for line in good_lines)
            reporting.atomic_write_text(path, text)
    return payloads, len(bad_lines)


# ----------------------------------------------------------------------
# Doctor
# ----------------------------------------------------------------------

@dataclass
class FileReport:
    """Verification outcome for one JSONL store file."""

    name: str
    records: int = 0
    legacy: int = 0
    quarantined: int = 0


@dataclass
class DoctorReport:
    """Everything ``repro-compact doctor`` found (and fixed)."""

    run_dir: str
    files: List[FileReport] = field(default_factory=list)

    @property
    def n_quarantined(self) -> int:
        return sum(f.quarantined for f in self.files)

    @property
    def clean(self) -> bool:
        return self.n_quarantined == 0

    def render(self) -> str:
        lines = [f"doctor: {self.run_dir}"]
        for f in self.files:
            lines.append(f"  {f.name}: {f.records} record(s)"
                         f" ({f.legacy} legacy),"
                         f" {f.quarantined} quarantined")
        verdict = ("clean" if self.clean else
                   f"{self.n_quarantined} corrupt record(s) quarantined"
                   f" -> {quarantine_dir(self.run_dir)}")
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_dir": self.run_dir,
            "files": [vars(f).copy() for f in self.files],
            "clean": self.clean,
        }


def doctor(run_dir: Union[str, Path]) -> DoctorReport:
    """Verify and repair a run dir.

    Every ``runs.jsonl`` / ``journal.jsonl`` line is CRC-verified;
    corrupt lines move to ``quarantine/`` and the store is rewritten
    without them (so a later ``--resume`` recomputes exactly those
    jobs).
    """
    run_dir = Path(run_dir)
    report = DoctorReport(run_dir=str(run_dir))
    for name in ("runs.jsonl", "journal.jsonl"):
        path = run_dir / name
        payloads, n_bad = load_jsonl(path, run_dir, repair=True)
        legacy = 0
        if path.exists():
            # Count legacy records for the report (cheap second pass
            # over the already-repaired file).
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        _, version = decode_line(line)
                        legacy += int(version == 0)
                    except CorruptLine:  # pragma: no cover - repaired
                        pass
        report.files.append(FileReport(name, records=len(payloads),
                                       legacy=legacy,
                                       quarantined=n_bad))
    return report
