"""Read and rewrite a scan's output directory, for tests that inspect or tamper with it.

The checkpoint journal (`batch.MANIFEST_NAME`) is a header line holding the
scan's parameters, then one line per completed batch, each a JSON record
naming its batch under "batch".
"""

from __future__ import annotations

import json
from pathlib import Path

from erdos_straus.batch import MANIFEST_NAME


def tree_bytes(out: Path) -> dict:
    """Every file under `out`, by its path relative to `out`, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def journal_records(out: Path) -> dict:
    """The records of the journal in `out`, by batch index, in file order."""
    head, *lines = (out / MANIFEST_NAME).read_text().splitlines()
    return {record["batch"]: record for record in map(json.loads, lines)}


def edit_journal(out: Path, edit) -> bytes:
    """Apply `edit` to the journal's records by batch index (as `journal_records`
    reads them), then write back the header and each record, one line each, in
    the dict's order; the journal's bytes after the edit."""
    path = out / MANIFEST_NAME
    records = journal_records(out)
    edit(records)
    head = path.read_text().split("\n", 1)[0]
    path.write_text("".join(line + "\n" for line in [head, *map(json.dumps, records.values())]))
    return path.read_bytes()
