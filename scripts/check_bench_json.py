#!/usr/bin/env python3
"""BENCH_*.json shape check.

Loads every named file with the ``json`` module and checks the head
that every bench driver writes (docs/METRICS.md): ``mode`` is one of
``smoke``, ``default`` or ``full``, and ``metrics`` holds the engine
metrics snapshot.

Usage: python3 scripts/check_bench_json.py FILE...
Exits non-zero and names every file that fails.
"""
from __future__ import annotations

import json
import sys

MODES = ("smoke", "default", "full")


def problems(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"]
    if not isinstance(data, dict):
        return [f"{path}: top level is not an object"]
    found = []
    if data.get("mode") not in MODES:
        found.append(f"{path}: mode {data.get('mode')!r} is not one of "
                     f"{', '.join(MODES)}")
    if not isinstance(data.get("metrics"), dict):
        found.append(f"{path}: no metrics object")
    return found


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = [p for path in paths for p in problems(path)]
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(paths)} BENCH files "
          f"({'OK' if not errors else f'{len(errors)} problems'})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
