"""Compare the key paths of two BENCH_*.json documents.

Usage: python3 .github/bench_key_paths.py FRESH.json COMMITTED.json

A key path is the chain of object keys down to a leaf. Array elements are
matched by their keys rather than their positions (each element's paths go
under `name[]`), so a quick document with one scale point and a full one
with two compare equal. Exits 1, listing the differences, when a key is
missing from either document.
"""

import json
import sys


def key_paths(value, prefix=""):
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            paths |= key_paths(item, f"{prefix}.{key}" if prefix else key)
        return paths
    if isinstance(value, list):
        paths = set()
        for item in value:
            paths |= key_paths(item, f"{prefix}[]")
        return paths
    return {prefix}


def main():
    fresh_path, committed_path = sys.argv[1:3]
    with open(fresh_path) as f:
        fresh = key_paths(json.load(f))
    with open(committed_path) as f:
        committed = key_paths(json.load(f))
    for path in sorted(committed - fresh):
        print(f"missing from {fresh_path}: {path}")
    for path in sorted(fresh - committed):
        print(f"missing from {committed_path}: {path}")
    if fresh != committed:
        sys.exit(1)
    print(f"{fresh_path}: the same {len(fresh)} key paths as {committed_path}")


if __name__ == "__main__":
    main()
