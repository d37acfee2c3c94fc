"""Quick check of the benchmark harness on shrunk workloads.

    python3 bench/selfcheck.py

Runs every workload once at the SMALL size, untraced and traced, and checks
that all outputs match their digests, that every metric named in
BENCHMARK.json is reported, and that traced counts repeat.  It takes seconds,
so a broken harness shows before a long run.  Exits 1 on any problem.
"""

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, units in named.items():
        harness_units = run.LAYER_UNITS if trace else run.E2E_UNITS
        if units != harness_units:
            problems.append(f"BENCHMARK.json {'per_layer' if trace else 'end_to_end'} "
                            "metrics differ from the harness's")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            # SMALL runs two repetitions, so that traced counts are compared
            record = run.run_workload(workload, seed=3, seconds=0, trace=trace, size=run.SMALL)
            label = f"{workload} trace={int(trace)}"
            problems += [f"{label}: {failure}" for failure in record["failures"]]
            if not record["correct"]:
                problems.append(f"{label}: not correct")
            missing = set(named[trace]) - set(record["metrics"])
            if missing:
                problems.append(f"{label}: missing metrics {sorted(missing)}")
            shown = {k: round(v["value"], 4) for k, v in record["metrics"].items()
                     if not trace or k in ("trace.wall_s", "trace.overhead_s")}
            print(f"{label}: attempted={record['attempted']} failed={record['failed']} {shown}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
