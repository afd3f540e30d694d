"""The benchmark's own tests: its counts and artifacts repeat exactly.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a splitma checkout; takes about a minute.
"""

import sys
from pathlib import Path

import pytest

from run import COUNT_UNITS, WORKLOADS, call, check_call, per_layer_units

WORK = Path(__file__).resolve().parent.parent / ".perfbench_work" / "tests"
SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_and_artifacts_repeat(name):
    runs = []
    for i in range(2):
        directory = WORK / name / str(i)
        res = call(name, SEED, directory, "--trace")
        assert check_call(name, directory, res) == []
        runs.append(res)
    first, second = (r["layers"] for r in runs)
    counts = [k for k, unit in per_layer_units().items()
              if unit in COUNT_UNITS and k in first]
    for key in ("grid_field.transforms", "flow.trace_evals",
                "flow.steps_accepted", "flow.step_retries"):
        assert key in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["grid_field.transforms"] > 0
    if WORKLOADS[name].command == "run":
        assert runs[0]["csv_sha256"] == runs[1]["csv_sha256"]
        assert first["flow.trace_evals"] > first["flow.steps_accepted"] > 0
    else:
        assert runs[0]["identities_sha256"] == runs[1]["identities_sha256"]


def test_inputs_follow_the_seed(tmp_path):
    """Same seed, same input files; another seed, another initial field."""
    sys.path.insert(0, str(WORK.parent.parent / "src"))
    from workloads import write_inputs

    w = WORKLOADS["monitors-dense-16"]
    a = write_inputs(w, 1, tmp_path / "a").parent
    b = write_inputs(w, 1, tmp_path / "b").parent
    c = write_inputs(w, 2, tmp_path / "c").parent
    for f in ("config.ini", "initial.field"):
        assert (a / f).read_bytes() == (b / f).read_bytes()
    assert (a / "initial.field").read_bytes() != (c / "initial.field").read_bytes()
