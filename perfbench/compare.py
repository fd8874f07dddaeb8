"""Compare the certified values of two benchmark records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the ``perfbench/out/<workload>-seed<n>-trace<t>.json`` files
that ``run.py`` writes; compare two of the same workload and seed, made on
two commits.  Every case whose value moved by more than 1e-12 is printed
(for a change that should keep values, that is a bug, not noise), and so is
whether the value digests agree.  Exit status 1 if any value moved, else 0.
"""

from __future__ import annotations

import json
import math
import sys

TOLERANCE = 1e-12


def _values(record: dict) -> dict:
    return {c["name"]: float(c["value"]) if c["value"] != "None" else None
            for c in record["cases"]}


def changed(before: dict, after: dict) -> list[str]:
    """One line per case whose value differs beyond :data:`TOLERANCE`."""
    a, b = _values(before), _values(after)
    lines = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None or vb is None:
            if va != vb:
                lines.append(f"{name}: {va!r} -> {vb!r}")
        elif not math.isclose(va, vb, rel_tol=0.0, abs_tol=TOLERANCE):
            lines.append(f"{name}: {va!r} -> {vb!r} ({vb - va:+.3g})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        before = json.load(f)
    with open(argv[1]) as f:
        after = json.load(f)
    for key in ("workload", "seed"):
        if before[key] != after[key]:
            print(f"warning: {key} differs: {before[key]!r} vs {after[key]!r}")
    lines = changed(before, after)
    same_digest = before["value_digest"] == after["value_digest"]
    print(f"value digest {'identical' if same_digest else 'differs'}; "
          f"{len(lines)} of {len(before['cases'])} values moved by more than {TOLERANCE:g}")
    for line in lines:
        print(f"  {line}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
