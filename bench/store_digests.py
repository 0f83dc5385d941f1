"""Store the per-op output hashes of the default seed in digests.json.

    python3 bench/store_digests.py

An op that fails is stored as null, so that a later fix of it does not count
as a changed output.  Rerun only when outputs are meant to change, and say why.
"""

import json

import run
import workloads
from workloads import DEFAULT_SEED


def main() -> None:
    stored = {}
    for name in workloads.WORKLOADS:
        report = run.run(name, DEFAULT_SEED, 0, False)
        stored[name] = [
            run.value_hash(o.values) if o.problem is None else None for o in report["first_pass"]
        ]
        print(f"{name}: {len(stored[name])} ops, {stored[name].count(None)} failing")
    lines = [f"  {json.dumps(name)}: {json.dumps(hashes, separators=(',', ':'))}" for name, hashes in stored.items()]
    (run.BENCH / "digests.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
