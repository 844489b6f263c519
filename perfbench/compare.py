"""Compare two benchmark records of the same workload.

Usage:
    python3 perfbench/compare.py BEFORE.json AFTER.json

Records are the files ``run.py`` writes under ``.perfbench/records/``.
Refuses (exit 2) when the records ran different kernel code
(``numba_active``), different BLAS thread counts, different workloads or
trace modes; warns when other host fields differ.  Prints each metric's
value in both records and the relative change.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("numba_active", "blas_threads")


def compare(before: dict, after: dict) -> list[str]:
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            raise ValueError(f"records differ in {key}: {before[key]!r} vs {after[key]!r}")
    for key in MUST_MATCH:
        if before["host"][key] != after["host"][key]:
            raise ValueError(f"records differ in host {key}: "
                             f"{before['host'][key]!r} vs {after['host'][key]!r}; not comparable")
    lines = [f"warning: host {k} differs: {before['host'][k]!r} vs {after['host'][k]!r}"
             for k in sorted(before["host"]) if before["host"][k] != after["host"].get(k)]
    for name, m in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            lines.append(f"{name}: missing from the second record")
            continue
        change = (new["value"] - m["value"]) / m["value"] if m["value"] else float("nan")
        lines.append(f"{name}: {m['value']:.6g} -> {new['value']:.6g} {m['unit']} ({change:+.1%})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
