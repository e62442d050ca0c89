"""Run one plasmonsim CLI command in this process and record its timings.

    python3 bench/child.py RECORD.json [--trace SPANS.json] -- ARGV...

Times `import plasmonsim.cli` and `plasmonsim.cli.main(ARGV)` with
perf_counter and writes {"import_s", "run_s", "exit"} to RECORD.json.  With
--trace the layer functions are wrapped after the import (bench/spans.py) and
the spans are written to SPANS.json when main returns.  The record also
holds "rss_mb", the peak resident set since exec (VmHWM): the ru_maxrss that
wait4 reports would also carry the launching process's own peak across exec.
The exit code is main's.
"""

import json
import sys
import time


def peak_rss_mb():
    """Peak resident set size of this process image in MB, or None off Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main():
    args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    record_path = options[0]
    spans_path = options[2] if len(options) > 2 and options[1] == "--trace" else None

    t0 = time.perf_counter()
    import plasmonsim.cli
    t1 = time.perf_counter()
    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t2 = time.perf_counter()
    code = plasmonsim.cli.main(argv)
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.write(spans_path)
    record = {"import_s": t1 - t0, "run_s": t3 - t2, "exit": code}
    rss = peak_rss_mb()
    if rss is not None:
        record["rss_mb"] = rss
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
