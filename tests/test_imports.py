"""SciPy is a CV-only dependency: `import ebench` and DV runs never load it.

Each check runs in a fresh interpreter with `src` on the path, because the
test session itself has imported SciPy long before these tests run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

DV_ARGVS = [
    ["dv", "--channel", "depolarizing:0.3", "--d", "5", "--k", "2"],
    ["convert", "--witness", "schmidt_witness(2,5)", "--d", "5",
     "--channel", "rank_k:2:7"],
    ["sweep", "--param", "k", "--channel", "depolarizing:0.3", "--d", "5",
     "--start", "1", "--stop", "4", "--steps", "4", "--format", "csv"],
]

# argv[1] is "block" or "plain"; argv[2] is the JSON list of CLI argvs.  With
# sys.modules["scipy.special"] = None every import of it raises ImportError.
CHILD = r"""
import contextlib, io, json, re, sys
if sys.argv[1] == "block":
    sys.modules["scipy.special"] = None
import ebench
from ebench import cli

runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, re.sub(r'("wall_time_s": )[^,\n}]+', r"\1<masked>", out.getvalue())])
rep = ebench.consistency_check(ebench.schmidt_witness_pairs(2, 4),
                               ebench.max_entangled_state(4),
                               ebench.qudit_depolarizing(4, 0.3))
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["cv", "--channel", "loss:0.5", "--cutoff", "8",
                  "--radial", "8", "--angular", "8"])
    cv = "ran"
except ImportError:
    cv = "ImportError"
print(json.dumps({"runs": runs, "gap": rep.gap.hex(), "cv": cv}))
"""


def run_child(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    out = run_child("import sys, ebench, ebench.cli; "
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_dv_runs_without_scipy_special():
    argvs = json.dumps(DV_ARGVS)
    blocked = json.loads(run_child(CHILD, "block", argvs))
    plain = json.loads(run_child(CHILD, "plain", argvs))
    assert [code for code, _ in blocked["runs"]] == [0] * len(DV_ARGVS)
    assert blocked["runs"] == plain["runs"]
    assert blocked["gap"] == plain["gap"]
    # the block is real: the CV path needs scipy.special and fails without it
    assert blocked["cv"] == "ImportError"
    assert plain["cv"] == "ran"
