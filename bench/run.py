"""plasmonsim benchmark: seeded CLI workloads run as cold processes, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload in turn

Each command of the workload runs in a fresh interpreter (bench/child.py)
with PYTHONPATH=src and the program's default worker count.  Commands are
sent in a closed loop from this single process: the next starts when the
previous has exited.  The whole sequence repeats until --seconds have passed,
and every table written is checked (bench/checks.py).

--trace 0 prints the end-to-end metrics, from medians over the sequences run:
  wall_s       cold wall time of the command sequence, interpreter start included
  setup_s      time to import plasmonsim.cli in a cold child (median over commands)
  run_s        time inside plasmonsim.cli.main(argv), summed over the sequence
  cpu_s        child user+sys time from wait4, summed over the sequence
  peak_rss_mb  the largest child peak resident set size (the child's own VmHWM)
--trace 1 alternates traced and untraced sequences and prints the per-layer
metrics (bench/layers.py), including the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A command fails on a nonzero exit, an ERROR[ line, a warning or a
failed output check; fail_ratio = failed / attempted is printed above it.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import layers
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PLASMON_SIM_THREADS", None)  # the program's default worker count
    return env


def run_command(command, work_dir, index, reference=None, traced=False):
    """Run one command in a cold child; return its measurements and problems."""
    tag = f"{index:02d}_{command.id}"
    out_dir = os.path.join(work_dir, "out", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    logs = os.path.join(work_dir, "logs")
    os.makedirs(logs, exist_ok=True)
    record = os.path.join(logs, f"{tag}.json")
    spans_path = os.path.join(logs, f"{tag}.spans.json")
    for stale in (record, spans_path):
        if os.path.exists(stale):
            os.remove(stale)
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += [CHILD, record]
    if traced:
        argv += ["--trace", spans_path]
    argv += ["--", *command.argv, "--out", out_dir]
    stdout_path = os.path.join(logs, f"{tag}.out")
    stderr_path = os.path.join(logs, f"{tag}.err")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work_dir, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as fh:
        stdout = fh.read()
    with open(stderr_path) as fh:
        stderr_lines = fh.read().splitlines()
    import_lines = [line for line in stderr_lines if line.startswith("import time:")]
    stderr = "\n".join(line for line in stderr_lines if not line.startswith("import time:"))

    result = {
        "id": command.id, "out_dir": out_dir, "exit": code, "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
    }
    problems = [] if code == 0 else [f"{command.id}: exit code {code}"]
    if os.path.exists(record):
        with open(record) as fh:  # its rss_mb, where present, replaces wait4's
            result.update({k: v for k, v in json.load(fh).items() if k != "exit"})
    else:
        problems.append(f"{command.id}: no timing record")
    problems += checks.check_command(command, out_dir, stdout, stderr, reference)
    if traced and not problems:
        result["trace"] = layers.load_trace(spans_path)
        result["imports"] = layers.import_times(import_lines)
    result["problems"] = problems
    return result


def run_sequence(workload, work_dir, reference, traced=False):
    return [run_command(c, work_dir, i, reference, traced)
            for i, c in enumerate(workload.commands)]


def prepare(name, seed):
    """Generate the workload's inputs and warm the bytecode cache (untimed)."""
    workload = workloads.generate(name, seed)
    work_dir = os.path.join(WORK, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    workloads.write_inputs(workload, work_dir)
    reference = checks.load_reference(name) if seed == checks.DEFAULT_SEED else None
    subprocess.run([sys.executable, "-c", "import plasmonsim.cli"], cwd=work_dir,
                   env=child_env(), check=True)
    return workload, work_dir, reference


def measure(name, seed, seconds, trace):
    """Run sequences for `seconds`; return (commands run, failed, metrics dict)."""
    workload, work_dir, reference = prepare(name, seed)
    start = time.perf_counter()
    plain, traced, durations = [], [], []
    while True:
        began = time.perf_counter()
        use_trace = bool(trace) and len(traced) <= len(plain)
        sequence = run_sequence(workload, work_dir, reference, use_trace)
        (traced if use_trace else plain).append(sequence)
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            if not trace or (traced and plain):
                break
    sequences = plain + traced
    # every command's raw figures, kept for inspecting the spread of a run
    with open(os.path.join(work_dir, "samples.json"), "w") as fh:
        json.dump([[{k: v for k, v in c.items() if k != "trace"} for c in seq]
                   for seq in sequences], fh)
    commands = [c for seq in sequences for c in seq]
    failed = [c for c in commands if c["problems"]]
    for c in failed:
        for problem in c["problems"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
    plain = [seq for seq in plain if not any(c["problems"] for c in seq)]
    traced = [seq for seq in traced if not any(c["problems"] for c in seq)]
    metrics = {}
    if trace and traced and plain:
        metrics = layers.per_layer_metrics(traced, plain)
        missing = layers.missing_targets(traced)
        if missing:
            print(f"note: not in the program, so not traced: {', '.join(missing)}",
                  file=sys.stderr)
    elif not trace and plain:
        metrics = end_to_end_metrics(plain)
    return len(commands), len(failed), metrics, len(sequences)


def end_to_end_metrics(sequences):
    # a sequence's time is the sum over its commands of each command's median,
    # which keeps one slow command in one sequence out of the figure
    def med(key):
        return sum(statistics.median(seq[i][key] for seq in sequences)
                   for i in range(len(sequences[0])))

    values = {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(c["import_s"] for seq in sequences for c in seq),
        "run_s": med("run_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": statistics.median(max(c["rss_mb"] for c in seq) for seq in sequences),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def machine_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "PLASMON_SIM_THREADS": os.cpu_count(),  # unset in children: the default
    }


def report(name, seed, attempted, failed, metrics, sequences):
    print(f"workload {name}  seed {seed}  sequences {sequences}  "
          f"commands {attempted}  failed {failed}")
    print(f"  fail_ratio = {failed / attempted:.6g}")
    predictions = {n: f"  (should move {moves} on {where})"
                   for n, _, _, moves, where in layers.PER_LAYER if moves}
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}{predictions.get(key, '')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plasmonsim", "cli.py")):
        print(f"bench: no program source at {SRC}/plasmonsim; run from a plasmonsim "
              "checkout", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info()))
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    all_metrics = {}
    for name in names:
        attempted, failed, metrics, sequences = measure(
            name, args.seed, args.seconds, args.trace)
        report(name, args.seed, attempted, failed, metrics, sequences)
        total_attempted += attempted
        total_failed += failed
        prefix = f"{name}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
