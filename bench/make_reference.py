"""Record the reference tables the default seed is compared with.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's commands once at checks.DEFAULT_SEED and writes
bench/reference/<workload>.json: per table its row count, per-column sums
of |x| and maxima, and an evenly spaced sample of rows.  Run it only at a
commit whose outputs are the accepted ones.
"""

import json
import os
import sys

import checks
import run
import workloads


def main(names):
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(workloads.GENERATORS):
        workload = workloads.generate(name, checks.DEFAULT_SEED)
        work_dir = os.path.join(run.WORK, name)
        workloads.write_inputs(workload, work_dir)
        reference = {}
        for index, command in enumerate(workload.commands):
            result = run.run_command(command, work_dir, index)
            if result["problems"]:
                raise SystemExit(f"{name}: {result['problems']}")
            for spec in command.tables:
                path = os.path.join(result["out_dir"], f"{spec.name}.csv")
                columns, rows = checks.read_table(path)
                reference[f"{command.id}/{spec.name}"] = checks.reference_record(columns, rows)
        path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
