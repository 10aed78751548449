"""Smoke run of the benchmark workloads at their smallest sizes.

Cycle 0 of each workload in ``perfbench/ops.py`` is built from seed 1, as a
benchmark run with ``--seed 1`` builds it, and every selected operation is
checked against its closed form by the check ``ops.py`` attaches to it.
``dv-schmidt`` runs in full, ``cv-fidelity`` its cutoff <= 20 operations on
the 32^2 grid, and ``choi-oracle`` its cutoff 12 operations and its fidelity
operations at cutoff 20 on the 32^2 grid.  Nothing is timed.  An operation
marked as a known defect may fail its check; any other failure fails the
test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import ebench as eb
import ebench.cli  # noqa: F401  (ops call eb.cli.main)

OPS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"


def load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", OPS_PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod             # dataclasses resolve names through it
    spec.loader.exec_module(mod)
    return mod


ops = load_ops()

SMALL = {
    "dv-schmidt": lambda op: True,
    "cv-fidelity": lambda op: op.cutoff <= 20 and op.grid == 32,
    "choi-oracle": lambda op: op.cutoff == 12 or (
        op.cutoff == 20 and op.grid == 32 and op.label.startswith("oracle fidelity")),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_cycle_passes_checks(workload, tmp_path):
    cycle = ops.WORKLOADS[workload](eb, np.random.default_rng([1, 0]),
                                    ops.FileInputs(tmp_path))
    selected = [op for op in cycle if SMALL[workload](op)]
    assert selected
    failures = []
    for op in selected:
        try:
            op.check(op.call())
        except ops.CheckFailed as exc:
            if op.known_defect is None:
                failures.append(f"{op.label}: {exc}")
    assert not failures
