"""The command path is numpy-only: no CLI command loads scipy, and no CSV command json or difflib.

After every command has run, the program takes evolve's matrix-exponential
fallback near an exceptional point, which loads no scipy either, and then
imports scipy.linalg itself to show that the check does see a scipy import.
Likewise a JSON table loads json and a misspelt config key difflib.  The
fallback also runs in a new interpreter to which scipy cannot be imported.
The next two tests check that import plasmonsim leaves OpenBLAS one thread
unless the user set another count.  The last checks, in new interpreters, that
a CLI process freezes its heap at exit and that importing the library does not.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from plasmonsim import dynamics
from plasmonsim.cli import main
from plasmonsim.config import BUILTIN_CONFIGS

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = (
    ["fig1c", "--grid", "11"],
    ["fig2", "--grid", "11"],
    ["fig2", "--first-principles", "--grid", "11"],
    ["fig3", "--grid", "11"],
    ["fig4", "--grid", "11"],
    ["eigen"],
    ["map", "--grid", "3"],
    ["optq", "--d-nm", "10"],
    ["validate", "--config", "fig3"],
    ["spectrum", "--config", "fig3", "--grid", "11"],
    ["evolve", "--config", "fig3", "--grid", "64"],
    ["yield", "--config", "fig2", "--grid", "11"],
)

#: modules that no CSV command may load; scipy is checked for every command
WATCHED = ("scipy", "json", "difflib")

PROGRAM = """
import ast, contextlib, io, sys
import numpy as np

def loaded_now():
    return [name for name in WATCHED if name in sys.modules]

WATCHED = ast.literal_eval(sys.argv[3])
loaded = {}
import plasmonsim.cli
loaded["import plasmonsim.cli"] = loaded_now()
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = plasmonsim.cli.main(argv + ["--out", sys.argv[2]])
    loaded[" ".join(argv)] = loaded_now() if code == 0 else f"exit {code}"
later = {}
with contextlib.redirect_stdout(io.StringIO()):
    plasmonsim.cli.main(["fig1c", "--grid", "3", "--format", "json", "--out", sys.argv[2]])
later["json table"] = "json" in sys.modules
with open(sys.argv[2] + ".ini", "w") as fh:
    fh.write(plasmonsim.config.BUILTIN_CONFIGS["fig2"].replace("q_factor", "q_facter"))
with contextlib.redirect_stderr(io.StringIO()):
    later["misspelt key"] = (plasmonsim.cli.main(["validate", "--config", sys.argv[2] + ".ini"]),
                             "difflib" in sys.modules)
from plasmonsim import dynamics, network
# the 2x2 network [[-0.1i, 0.05], [0.05, 0]], defective at g = gamma / 4
h = network.EffectiveHamiltonian(np.array([[-0.1j, 0.05], [0.05, 0.0]]), ("plasmon", "cavity"),
                                 {"gamma_o": 0.2, "gamma_c": 0.0})
calls, expm = [], dynamics.expm
dynamics.expm = lambda a: calls.append(a.shape) or expm(a)
dynamics.evolve(h, np.array([1.0, 0.0], dtype=complex), np.linspace(0.0, 50.0, 5))
later["near-exceptional-point evolve"] = (calls, "scipy" in loaded_now())
import scipy.linalg
later["scipy import"] = "scipy" in loaded_now()
print(repr((loaded, later)))
"""


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory):
    """({step: the WATCHED modules loaded after it}, {later step: what it loaded}) of one
    cold interpreter that runs every command of COMMANDS, then the later steps."""
    tmp_path = tmp_path_factory.mktemp("imports")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, repr(COMMANDS), str(tmp_path / "out"), repr(WATCHED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_cli_commands_do_not_import_scipy(command_imports):
    loaded, later = command_imports
    assert [step for step, names in loaded.items()
            if isinstance(names, str) or "scipy" in names] == []
    assert len(loaded) == 1 + len(COMMANDS)
    # the 2x2 evolve takes the fallback, one expm of its 5 time points, and loads no scipy
    assert later["near-exceptional-point evolve"] == ([(5, 2, 2)], False)
    assert later["scipy import"] is True


def test_csv_commands_do_not_import_json_or_difflib(command_imports):
    # every command of COMMANDS writes CSV tables or validates a builtin config
    loaded, later = command_imports
    assert {step: names for step, names in loaded.items() if names} == {}
    assert later["json table"] is True and later["misspelt key"] == (1, True)


def _cold_python(program, openblas_threads, *args):
    """Run program with args in a new interpreter with OPENBLAS_NUM_THREADS unset or preset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", program, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_openblas_threads_default_to_one_and_a_set_value_wins():
    program = "import os, plasmonsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for preset, expected in ((None, "1"), ("2", "2")):
        assert _cold_python(program, preset) == expected


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_cold_import_starts_no_blas_worker_threads():
    # OpenBLAS starts its workers when numpy loads it, so the process's thread
    # count after a cold import is the setting's effect, not just its value
    program = "import os, plasmonsim; print(len(os.listdir('/proc/self/task')))"
    assert _cold_python(program, None) == "1"


#: fig2 with the plasmon and a lossless cavity at their exceptional point and the emitter
#: decoupled 0.1 eV away: evolve's eigenbasis is defective, so it takes the matrix exponential
EXCEPTIONAL_POINT = {"g1_mev": "12.5", "G_mev": "0", "J_uev": "0", "gamma_o_ev": "0.05",
                     "gamma_1r_mev": "0", "gamma_s_uev": "0.001", "gamma_m_uev": "0.001",
                     "q_factor": "1e30", "delta_1e_ev": "0.1", "delta_ce_ev": "0.1",
                     "drive": "plasmon"}

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # import scipy now raises ImportError
from plasmonsim import cli, dynamics
dynamics.SWEEP_BLOCK_POINTS = 1000
sys.exit(cli.main(["evolve", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_evolve_at_an_exceptional_point_needs_no_scipy(tmp_path, monkeypatch):
    # in blocks of 1000 matrices where scipy cannot be imported, the bytes of one block
    text = BUILTIN_CONFIGS["fig2"]
    for key, value in EXCEPTIONAL_POINT.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    config = tmp_path / "ep.ini"
    config.write_text(text)
    calls = []
    monkeypatch.setattr(dynamics, "expm",
                        lambda a, expm=dynamics.expm: calls.append(a.shape) or expm(a))
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "one")]) == 0
    assert calls == [(4096, 3, 3)]
    _cold_python(WITHOUT_SCIPY, None, str(config), str(tmp_path / "blocks"))
    table = (tmp_path / "blocks" / "evolve.csv").read_bytes()
    assert table == (tmp_path / "one" / "evolve.csv").read_bytes()


#: a probe that reads the heap at exit, registered before plasmonsim is imported: atexit
#: calls handlers last in, first out, so it runs after every handler the program registers
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit", gc.get_freeze_count() > 0))
before = atexit._ncallbacks()
"""

CLI_AT_EXIT = EXIT_PROBE + """
import plasmonsim.cli
imported = atexit._ncallbacks()
argv = ["fig1c", "--grid", "3", "--out", sys.argv[1]]
codes = [plasmonsim.cli.main(argv), plasmonsim.cli.main(argv)]
print("handlers", imported - before, atexit._ncallbacks() - imported)
sys.exit(max(codes))
"""

LIBRARY_AT_EXIT = EXIT_PROBE + """
import plasmonsim, plasmonsim.config
print("handlers", atexit._ncallbacks() - before)
"""


def test_cli_process_freezes_its_heap_at_exit_and_the_library_does_not(tmp_path):
    # the interpreter's collections at exit skip frozen objects: importing the CLI registers
    # gc.freeze once, however often main runs, and importing the library registers nothing
    lines = _cold_python(CLI_AT_EXIT, None, str(tmp_path / "cold")).splitlines()
    assert lines[-2:] == ["handlers 1 0", "frozen at exit True"]
    assert main(["fig1c", "--grid", "3", "--out", str(tmp_path / "warm")]) == 0
    table = (tmp_path / "cold" / "fig1c.csv").read_bytes()
    assert table == (tmp_path / "warm" / "fig1c.csv").read_bytes()
    lines = _cold_python(LIBRARY_AT_EXIT, None).splitlines()
    assert lines == ["handlers 0", "frozen at exit False"]
