"""Coupled-mode simulator for a microcavity-engineered plasmonic nanoparticle and a single quantum emitter."""

import os

# Every command's linear algebra is small LAPACK calls and elementwise numpy, which
# OpenBLAS's worker threads do not speed up, while starting them costs every process
# time.  OpenBLAS reads this once, when numpy loads it, so it takes effect only if
# plasmonsim is imported before numpy (as every CLI command is); a program that
# imported numpy first keeps its thread count.  A value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import couplings, dynamics, materials, network, quantities  # noqa: E402,F401
