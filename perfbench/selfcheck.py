"""Self-check of the benchmark harness at a tiny size.

1. Each workload, traced, must report every end-to-end and per-layer
   metric named in ``BENCHMARK.json`` with the unit listed there, and
   pass its correctness gates.
2. With a deliberately wrong reference answer, ``solve-warm`` must
   report a failure.

Usage (from the repository root): ``python3 perfbench/selfcheck.py``.
Exits 0 when both hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REPO_ROOT, require_source  # noqa: E402

TINY_SECONDS = 1.0


def tiny_config():
    from run import Config

    return Config(
        warm_actions=300, write_actions=200, side_actions=150, setups=2,
        htap_rate=20.0, min_samples=5,
    )


def check_metrics(workload: str, result, spec) -> list:
    problems = []
    if not result["correct"]:
        problems.append(f"{workload}: gates failed: {result['errors']}")
    e2e = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    layers = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    from run import E2E_UNITS

    if set(result["e2e"]) != set(e2e):
        problems.append(f"{workload}: end-to-end names {sorted(result['e2e'])} != {sorted(e2e)}")
    for name, unit in e2e.items():
        if E2E_UNITS.get(name) != unit:
            problems.append(f"{workload}: {name} unit {E2E_UNITS.get(name)} != {unit}")
    reported = {name: unit for name, (_value, unit) in result["layers"].items()}
    if reported != layers:
        problems.append(f"{workload}: per-layer metrics differ: {sorted(set(reported) ^ set(layers))}")
    return problems


def main() -> int:
    if not require_source():
        print("selfcheck: no src/repro in this checkout", file=sys.stderr)
        return 2
    import gates
    from run import WORKLOADS, execute

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    config = tiny_config()
    problems = []
    for workload in WORKLOADS:
        result = execute(workload, 1, TINY_SECONDS, True, config)
        problems += check_metrics(workload, result, spec)
        print(f"{workload}: {len(result['e2e'])} end-to-end and {len(result['layers'])} "
              f"per-layer metrics, correct={result['correct']}")

    honest = gates.reference_answers

    def wrong_reference(dataset, specs):
        answers = honest(dataset, specs)
        answers[1] = answers[2]  # problem 2's answer given as problem 1's
        return answers

    gates.reference_answers = wrong_reference
    try:
        result = execute("solve-warm", 1, TINY_SECONDS, False, config)
    finally:
        gates.reference_answers = honest
    if result["correct"] or result["failed"] == 0:
        problems.append("solve-warm passed with a wrong reference answer")
    else:
        print(f"wrong reference: correct={result['correct']}, failed={result['failed']}")

    for problem in problems:
        print(f"SELFCHECK FAIL {problem}", file=sys.stderr)
    print("selfcheck ok" if not problems else "selfcheck failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
