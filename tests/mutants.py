"""Mutants of the bit-exact fast paths, and a runner that requires each to
be killed.

A mutant is a file of the repository, an exact text in it, the text that
replaces it, and the tests of which at least one must then fail. The
runner copies src/, tests/ and pyproject.toml to a temporary tree and
runs the named tests there, first unmutated (they must pass) and then
once per mutant (pytest must report a failed test). A mutant whose text
does not occur exactly once in its file fails the runner, so a change
that moves the code breaks it loudly instead of skipping the mutant.
Each mutant costs one pytest run, so CI runs this as its own step:

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named ones
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
FOREST = "src/ccfmap/forest.py"
CCA = "src/ccfmap/cca.py"
PRUNED = "tests/test_forest.py::TestPrunedSplits"
SPLIT_NODES = "tests/test_forest.py::TestSplitNodes::test_large_nodes_equal_one_batch"
KERNEL = "tests/test_forest.py::TestLevelKernelReference"
ROUTING = "tests/test_forest.py::TestBlockedRouting::test_blocks_equal_one_block"
WALK = "tests/test_forest.py::TestPrediction::test_route_equals_a_walk_at_every_cut"
SUMS = "tests/test_cca.py::TestBlockedSums"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # _node_split: the bins it sorts, and its tie rule
    Mutant(
        "split bound from the two edge corners only", FOREST,
        "    bound = np.minimum(np.minimum(corner(a0, a1), corner(c0, c1)),\n"
        "                       np.minimum(corner(a0, c1), corner(c0, a1)))\n",
        "    bound = np.minimum(corner(a0, a1), corner(c0, c1))\n",
        (f"{PRUNED}::test_nodes",),
    ),
    Mutant(
        "split bound without the rounding margin", FOREST,
        "keep = bound <= reach + 1e-12", "keep = bound <= reach",
        (f"{PRUNED}::test_nodes",),
    ),
    Mutant(
        "split offsets counted to the end of each kept bin", FOREST,
        "left = np.repeat((a0 + a1)[keep]", "left = np.repeat((c0 + c1)[keep]",
        (f"{PRUNED}::test_nodes",),
    ),
    Mutant(
        "split bins for an overflowing spread", FOREST,
        "if 0 < scale < np.inf:", "if scale < np.inf:",
        (f"{PRUNED}::test_nodes",),
    ),
    Mutant(
        "split tie won by the larger left side", FOREST,
        "k = int(np.argmin(gini))  # the first least Gini",
        "k = gini.size - 1 - int(np.argmin(gini[::-1]))",
        (f"{PRUNED}::test_nodes",),
    ),
    # _split_nodes and _split_piece: the pieces of a level, and their weights
    Mutant(
        "one-node gather from the first feature's row", FOREST,
        "block[f].take(rows, out=cols[j], mode=\"clip\")",
        "block[feats[0][0]].take(rows, out=cols[j], mode=\"clip\")",
        ("tests/test_forest.py::TestSplitNodes::test_root_gathers_without_an_index",),
    ),
    Mutant(
        "piece starts not made relative to the piece", FOREST,
        "starts[a:b] - lo,", "starts[a:b],",
        (SPLIT_NODES,),
    ),
    Mutant(
        "nodes alone only above two blocks", FOREST,
        "_runs(sizes > _BLOCK)", "_runs(sizes > 2 * _BLOCK)",
        (SPLIT_NODES,),
    ),
    Mutant(
        "unit weights for a node alone", FOREST,
        "node_moments(cols, yr, weights) if alone",
        "node_moments(cols, yr, np.ones_like(weights)) if alone",
        (SPLIT_NODES, f"{KERNEL}::test_blocked_trees_equal_the_frozen_kernel"),
    ),
    # _partition keeps each node's rows in order
    Mutant(
        "unstable sort where every node splits", FOREST,
        "return rows[np.argsort(key, kind=\"stable\")]",
        "return rows[np.argsort(key, kind=None if ok.all() else \"stable\")]",
        (f"{KERNEL}::test_trees_equal_the_frozen_kernel",),
    ),
    # _blocked_go_left: a large split's rows, one block at a time
    Mutant(
        "a partial node's block read in place", FOREST,
        "in_place = idx.size == cols.shape[1]", "in_place = True",
        (ROUTING,),
    ),
    Mutant(
        "< for <= in a block's comparison", FOREST,
        "np.less_equal(_project(columns, direction), threshold, out=go_left[lo:hi])",
        "np.less(_project(columns, direction), threshold, out=go_left[lo:hi])",
        (WALK,),
    ),
    Mutant(
        "a block gathered in reverse", FOREST,
        "part = idx[lo:hi]", "part = idx[lo:hi][::-1]",
        (ROUTING,),
    ),
    # cca._pairwise_sums: numpy's pairwise order, bit for bit
    Mutant(
        "np.add.reduce in place of the sentinel reduceat", CCA,
        "return np.add.reduceat(buf[:, : m + 1], [0], axis=1)[:, 0]",
        "return np.add.reduce(buf[:, 1 : m + 1], axis=1)",
        (SUMS,),
    ),
    Mutant(
        "P over all n terms, with no first term first", CCA,
        "    buf = np.empty((k, min(n - 1, leaf) + 1))\n"
        "    buf[:, 0] = -0.0\n"
        "    head = np.empty((k, 1))\n"
        "    terms(0, 1, head)\n"
        "    return head[:, 0] + _pairwise(terms, buf, leaf, 1, n - 1)\n",
        "    buf = np.empty((k, min(n, leaf) + 1))\n"
        "    buf[:, 0] = -0.0\n"
        "    return _pairwise(terms, buf, leaf, 0, n)\n",
        (SUMS,),
    ),
    Mutant(
        "pairwise leaves below 128 terms", CCA,
        "    leaf = max(_SUM_LEAF, _PAIRWISE_BLOCK)\n", "    leaf = _SUM_LEAF\n",
        (SUMS,),
    ),
    Mutant(
        "pairwise split not rounded to a multiple of 8", CCA,
        "    half -= half % 8\n", "",
        (SUMS,),
    ),
]


def mutate(text: str, mutant: Mutant) -> str:
    """text with the mutant applied; its old text must occur exactly once."""
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"mutant {mutant.name!r}: its text occurs {found} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _pytest(tree: pathlib.Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the tree's src/ only
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        sources = {m.path: (tree / m.path).read_text() for m in chosen}
        texts = [mutate(sources[m.path], m) for m in chosen]  # every text is checked first
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(tree, tests) != 0:
            print("the mutants' tests fail on the unmutated tree")
            return 1
        survived = []
        for mutant, text in zip(chosen, texts):
            (tree / mutant.path).write_text(text)
            code = _pytest(tree, mutant.tests)
            (tree / mutant.path).write_text(sources[mutant.path])
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{verdict}: {mutant.name}")
            if code != 1:  # only failed tests kill; an error collecting them does not
                survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
