"""Reproducibility sidecars for command-line runs.

Every file the CLI writes gets a companion ``<out>.manifest.json`` recording
the command, its configuration, the seed, the package version, SHA-256
digests of all produced files, and the wall-clock time.  Outputs themselves
are byte-reproducible; the manifest carries the provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    primary_out: str,
    *,
    command: str,
    config: dict,
    seed: Optional[int],
    version: str,
    outputs: list[str],
    wall_clock_seconds: float,
) -> str:
    """Write ``<primary_out>.manifest.json`` and return its path."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": version,
        "digests": {os.path.basename(p): sha256_of(p) for p in outputs},
        "wall_clock_seconds": wall_clock_seconds,
    }
    path = primary_out + ".manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
