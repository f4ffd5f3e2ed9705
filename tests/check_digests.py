"""Check a perfbench run's output digests against the committed reference.

    python3 perfbench/run.py --workload W --seed S ... > run.out
    python3 tests/check_digests.py < run.out

perfbench_digests.json, beside this file, holds the sha256 of every file
one pass of the deep, bulk and session workloads writes at seeds 1 and
1009, keyed by environment, workload, seed and file name. The bytes rest
on numpy's summation order and LAPACK's eigh, so the environment is the
numpy version, its BLAS and the machine architecture; BLAS kernels that
differ by CPU model within one architecture are not part of the key.
Exit status: 0 when every file's digest matches, 1 when a file differs,
is missing or is new, and 2 when the reference holds no digests for this
environment, workload and seed, so nothing was checked.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

REFERENCE = pathlib.Path(__file__).with_name("perfbench_digests.json")


def compare(run_stdout: str) -> tuple[str, list[str] | None]:
    """The run's environment, workload and seed as one label, and the files
    whose digest is not the reference's (None when there is no reference
    for them). run_stdout is run.py's stdout; its second-to-last line
    records the environment and the digests."""
    info = json.loads(run_stdout.splitlines()[-2])["perfbench"]
    env = info["environment"]
    key = f"numpy {env['numpy']} / {env['blas']} / {platform.machine()}"
    label = f"{info['workload']} seed {info['seed']} on {key}"
    ref = json.loads(REFERENCE.read_text())["environments"]
    want = ref.get(key, {}).get(info["workload"], {}).get(str(info["seed"]))
    if want is None:
        return label, None
    got = info.get("digests", {})
    return label, sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))


def main() -> int:
    label, differing = compare(sys.stdin.read())
    if differing is None:
        print(f"digests: no reference for {label}; nothing checked")
        return 2
    if differing:
        print(f"digests: {label}: differ from the reference: {', '.join(differing)}")
        return 1
    print(f"digests: {label}: every file matches the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
