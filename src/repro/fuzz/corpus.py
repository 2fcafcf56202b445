"""The committed regression corpus: minimized fuzz cases, replayed forever.

Every violation the fuzzer finds is shrunk and written as one JSON file
under ``tests/corpus/``; ``tests/test_fuzz_corpus.py`` replays each file
through every oracle on every test run, so a fixed bug can never
silently regress.  Entries whose ``oracle`` is ``"self_test"`` document
the harness itself: they are known-clean cases (some produced by running
the shrinker on a synthetic predicate) proving the serialize → shrink →
replay path works even when no real violation has ever been found.

File layout (``schema_version`` 1)::

    {
      "schema_version": 1,
      "id": "<sha256 of the canonical case, first 12 hex>",
      "oracle": "beam" | "cache" | "gateway" | "mutation" | "joins" | "self_test",
      "found": "<ISO date or free text — when/how it was found>",
      "note": "<what went wrong, and the fix if known>",
      "case": { ...FuzzCase payload... }
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase, case_bytes

SCHEMA_VERSION = 1

#: Corpus entries for the harness itself (no violation expected).
SELF_TEST = "self_test"


@dataclass(frozen=True)
class CorpusEntry:
    """One parsed corpus file."""

    path: Path
    oracle: str
    case: FuzzCase
    note: str = ""
    found: str = ""

    @property
    def is_self_test(self) -> bool:
        return self.oracle == SELF_TEST


def case_id(case: FuzzCase) -> str:
    """Stable short identifier: content hash of the canonical case."""
    return hashlib.sha256(case_bytes(case)).hexdigest()[:12]


def write_case(
    directory: str | Path,
    oracle: str,
    case: FuzzCase,
    *,
    note: str = "",
    found: str = "",
) -> Path:
    """Persist one (minimized) case; returns the file written.

    The filename embeds the oracle and the content hash, so re-finding
    the same minimized case is idempotent and two different cases never
    collide.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema_version": SCHEMA_VERSION,
        "id": case_id(case),
        "oracle": oracle,
        "found": found,
        "note": note,
        "case": case.to_dict(),
    }
    path = directory / f"{oracle}-{entry['id']}.json"
    path.write_text(
        json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_entry(path: str | Path) -> CorpusEntry:
    """Parse one corpus file (strict: malformed files fail loudly)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable corpus file {path}: {exc}") from exc
    try:
        if int(data["schema_version"]) != SCHEMA_VERSION:
            raise ReproError(
                f"corpus file {path} has schema_version "
                f"{data['schema_version']}, expected {SCHEMA_VERSION}"
            )
        case = FuzzCase.from_dict(data["case"])
        oracle = str(data["oracle"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed corpus file {path}: {exc}") from exc
    return CorpusEntry(
        path=path,
        oracle=oracle,
        case=case,
        note=str(data.get("note", "")),
        found=str(data.get("found", "")),
    )


def load_corpus(directory: str | Path) -> list[CorpusEntry]:
    """All corpus entries under ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_entry(path) for path in sorted(directory.glob("*.json"))]
