#!/usr/bin/env python3
"""Design-space exploration: (D, Q) enhancement map plus the per-distance optimal Q.

Writes out/design/map.csv and out/design/optq.csv and prints a short
summary of where the cavity engineering pays off most.
"""

import sys

import numpy as np

from plasmonsim.cli import DESIGN_SCENARIO, main
from plasmonsim.config import parse_config
from plasmonsim.experiments import optimal_Q


def run():
    out = sys.argv[1] if len(sys.argv) > 1 else "out/design"
    grid = int(sys.argv[2]) if len(sys.argv) > 2 else 31
    code = main(["map", "--grid", str(grid), "--out", out])
    if code != 0:
        return code
    code = main(["optq", "--out", out] + sum([["--d-nm", str(d)]
                for d in (3.0, 5.0, 10.0, 15.0, 20.0)], []))
    if code != 0:
        return code
    scenario = parse_config(DESIGN_SCENARIO).scenario
    distances = np.linspace(5.0, 15.0, 11)
    best = max(zip(optimal_Q(scenario, distances)[1], distances))
    print(f"peak yield enhancement {best[0]:.1f} at D = {best[1]:.1f} nm")
    return 0


if __name__ == "__main__":
    sys.exit(run())
