"""The benchmark's outputs are byte-identical to the committed reference.

One untraced pass of perfbench's session workload (synth, train, predict,
evaluate and cross from the command line) at seeds 1 and 1009 must write
files whose sha256 equal perfbench_digests.json's. CI checks the deep and
bulk workloads against the same reference. An environment the reference
does not hold skips with a reason that names it.
"""

import pathlib
import subprocess
import sys

import pytest

import check_digests

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", [1, 1009])
def test_session_outputs_equal_the_reference(seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "session",
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    label, differing = check_digests.compare(proc.stdout)
    if differing is None:
        pytest.skip(f"no digest reference for {label}")
    assert not differing, f"{label}: differ from the reference: {', '.join(differing)}"
