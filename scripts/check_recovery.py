#!/usr/bin/env python3
"""CI recovery gate.

Reads the `recovery_overhead` scenario out of a BENCH_perf.json produced
by `bench_summary` and fails unless

* the run under ~10% injected task crashes + stragglers produced outputs
  bit-identical to the clean run (`outputs_match`),
* the chaos actually injected something (`task_retries` > 0), and
* stage checkpointing cost at most `max_frac` over the clean run
  (default 15%), read as the median ratio over alternating
  clean/checkpointed pairs; the spread of the pair ratios is printed
  beside it.

Usage: check_recovery.py <BENCH_perf.json> [max_frac]
"""

import json
import sys


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(f"usage: {sys.argv[0]} <BENCH_perf.json> [max_frac]", file=sys.stderr)
        return 2
    path = sys.argv[1]
    max_frac = float(sys.argv[2]) if len(sys.argv) == 3 else 0.15
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    scenario = doc.get("recovery_overhead")
    if not isinstance(scenario, dict):
        print(f"{path}: no recovery_overhead scenario (schema {doc.get('schema')})",
              file=sys.stderr)
        return 1
    if not scenario["outputs_match"]:
        print(f"{path}: chaos injection changed the pipeline output bits",
              file=sys.stderr)
        return 1
    retries = scenario["task_retries"]
    if retries <= 0:
        print(f"{path}: the chaos run retried nothing — injection is broken",
              file=sys.stderr)
        return 1
    frac = scenario["checkpoint_overhead_frac"]
    spread = (f"median of {scenario['checkpoint_pairs']} pairs, "
              f"range {scenario['checkpoint_overhead_min']:+.1%}.."
              f"{scenario['checkpoint_overhead_max']:+.1%}")
    if frac > max_frac:
        print(f"{path}: checkpointing cost {frac:.1%} over the clean run "
              f"({spread}), budget is {max_frac:.0%}", file=sys.stderr)
        return 1
    print(f"{path}: chaos outputs bit-identical across {retries} retries "
          f"({scenario['straggler_delay_ms']:.1f} ms straggler delay absorbed), "
          f"checkpoint overhead {frac:+.1%} ({spread}; budget {max_frac:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
