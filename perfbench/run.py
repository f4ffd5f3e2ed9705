"""ccfmap benchmark: the real CLI, run as subprocesses on generated inputs.

    python3 perfbench/run.py --workload deep|bulk|session --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's own src/ (PYTHONPATH), so nothing needs installing. A run

  1. writes the workload's inputs from --seed in a child process three
     times into a fresh directory (setup_s is the median of the three),
  2. with --trace 0, runs the workload's CLI commands one at a time
     (closed loop, one client) in passes until --seconds have elapsed,
     at least one pass, and reports each end-to-end metric as its median
     over the passes;
  3. with --trace 1, runs one untraced pass and then the same commands
     under perfbench/tracer.py, one fresh process per command, and
     reports the per-layer metrics and each command's tracing overhead;
  4. checks every output (see check_pass) and counts each CLI invocation
     and each check as one attempted operation.

The last line of stdout is the result object; the line before it records
the environment, the output digests and the per-pass figures. Workers and
BLAS threads are left at the program's defaults. Reads run with a warm
page cache: dropping it would need machine-wide changes.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LEDGER = os.path.join(WORK, "digests.json")
PY = sys.executable

RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
TREES = "10"
BULK_TRAIN_SEED = 0  # fixed with the bulk tiles; see inputs.py
README_SEED = 21  # the README session's synth and train seed
# deep: mapped pixel accuracy on the 512^2 region must be this close to
# the scene's Bayes accuracy estimate (0.933 at separation 3)
BAYES_TOLERANCE = 0.03
BULK_MIN_MEAN_IOU = 0.99


# --- workloads ---------------------------------------------------------------
# Each pass is a list of (step, argv after `ccfmap`). `i` is the inputs
# directory written by inputs.py, `p` the pass's own output directory.
# Every workload runs train, predict, evaluate and cross so that every
# end-to-end metric exists on each; which region each command gets decides
# the layer it stresses.


def _train(p, seed, *pairs):
    argv = ["train"]
    for raster, mask in pairs:
        argv += ["--raster", raster, "--mask", mask]
    return ("train", argv + ["--out", f"{p}/model.ccf.json",
                             "--trees", TREES, "--seed", str(seed)])


def _predict(p, raster):
    return ("predict", ["predict", "--model", f"{p}/model.ccf.json",
                        "--raster", raster,
                        "--out-mask", f"{p}/pred", "--out-prob", f"{p}/prob"])


def _evaluate(p, truth):
    return ("evaluate", ["evaluate", "--pred", f"{p}/pred.json",
                         "--truth", truth, "--out", f"{p}/eval.report.json"])


def _cross(p, raster, truth):
    return ("cross", ["cross", "--model", f"{p}/model.ccf.json", "--raster", raster,
                      "--mask", truth, "--out", f"{p}/cross.report.json"])


def deep_steps(i, p, seed):
    # deep trees (overlapping classes grow to purity): heavy predict on a
    # 512^2 region, lighter cross on a 384^2 one
    return [
        _train(p, seed, (f"{i}/train.json", f"{i}/train_truth.json")),
        _predict(p, f"{i}/region.json"),
        _evaluate(p, f"{i}/region_truth.json"),
        _cross(p, f"{i}/small.json", f"{i}/small_truth.json"),
    ]


def bulk_steps(i, p, seed):
    # shallow trees on ~330k rows: heavy cross on a 1024^2 region with a
    # nodata frame, light predict on a 512^2 tile
    tiles = [(f"{i}/tile{t}.json", f"{i}/tile{t}_truth.json") for t in range(4)]
    return [
        _train(p, BULK_TRAIN_SEED, *tiles),
        _cross(p, f"{i}/region.json", f"{i}/region_truth.json"),
        _predict(p, f"{i}/small.json"),
        _evaluate(p, f"{i}/small_truth.json"),
    ]


def session_steps(i, p, seed):
    # the README session on a 64^2 scene: fixed per-command overhead; the
    # workload seed picks only the region that cross scores
    scene = f"{p}/scene"
    return [
        ("synth", ["synth", "--preset", "blobs", "--separation", "5",
                   "--seed", str(README_SEED), "--out", scene]),
        _train(p, README_SEED, (f"{scene}/raster.json", f"{scene}/mask.json")),
        _predict(p, f"{scene}/raster.json"),
        _evaluate(p, f"{scene}/mask.json"),
        _cross(p, f"{i}/small.json", f"{i}/small_truth.json"),
    ]


WORKLOADS = {"deep": deep_steps, "bulk": bulk_steps, "session": session_steps}
# the report that scores the workload's main mapped output
MAIN_REPORT = {"deep": "eval.report.json", "bulk": "cross.report.json",
               "session": "eval.report.json"}


# --- processes ---------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, log_base, deadline):
    """Run argv to completion in its own process group.

    Returns (exit code, wall seconds, peak RSS in MB of the process and
    the children it waited for). The group is killed when the deadline
    passes, and after the process exits, so no pool worker outlives it.
    """
    with open(log_base + ".out", "wb") as out, open(log_base + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(deadline.left(), 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --- checks ------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"perfbench: FAILED {name} {detail}", file=sys.stderr)
        return ok


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(p):
    """sha256 of every file a pass produced, by name relative to the pass."""
    files = sorted(f for f in glob.glob(os.path.join(p, "**", "*"), recursive=True)
                   if os.path.isfile(f) and not f.endswith((".out", ".err")))
    return {os.path.relpath(f, p): _sha256(f) for f in files}


def _labeled_accuracy(pred, truth):
    labeled = truth != 255
    return int(labeled.sum()), float((pred[labeled] == truth[labeled]).mean())


def check_pass(workload, i, p, bayes, ledger):
    """Reload every output through the package's readers and check it.

    Returns (holdout mean IoU, main-output mean IoU), None where unreadable.
    """
    from ccfmap import DataError, load_model, read_mask, read_raster, read_report

    steps = {name: argv for name, argv in WORKLOADS[workload](i, p, 0)}

    def reload(name, fn, path):
        try:
            value = fn(path)
        except (DataError, OSError, ValueError) as exc:
            ledger.check(f"reload {name}", False, str(exc))
            return None
        ledger.check(f"reload {name}", True)
        return value

    model = reload("model", load_model, f"{p}/model.ccf.json")
    holdout = reload("holdout report", read_report, f"{p}/model.report.json")
    pred = reload("predicted mask", read_mask, f"{p}/pred.json")
    prob = reload("probability raster", read_raster, f"{p}/prob.json")
    evaluation = reload("evaluate report", read_report, f"{p}/eval.report.json")
    cross = reload("cross report", read_report, f"{p}/cross.report.json")
    if model is not None:
        ledger.check("model trees", len(model.trees) == int(TREES))

    if pred is not None and prob is not None:
        pr = prob.values[..., 0]
        labeled = pred != 255
        ledger.check("probability raster matches mask",
                     prob.nodata == -1.0 and pr.shape == pred.shape
                     and bool((pr[~labeled] == -1.0).all())
                     and bool(((pr[labeled] >= 0.0) & (pr[labeled] <= 1.0)).all())
                     and bool((pr[pred == 1] >= 0.5).all())
                     and bool((pr[pred == 0] <= 0.5).all()))

    truth_path = steps["evaluate"][steps["evaluate"].index("--truth") + 1]
    truth = reload("evaluate truth", read_mask, truth_path)
    if evaluation is not None and pred is not None and truth is not None:
        n, acc = _labeled_accuracy(pred, truth)
        ledger.check("evaluate report matches a direct tally",
                     evaluation["evaluated_pixels"] == n
                     and abs(evaluation["pixel_accuracy"] - acc) < 1e-12,
                     f"report {evaluation['pixel_accuracy']} on "
                     f"{evaluation['evaluated_pixels']} px, tally {acc} on {n} px")

    main = evaluation if MAIN_REPORT[workload] == "eval.report.json" else cross
    if workload in ("deep", "session") and main is not None:
        ledger.check("mapped accuracy near the Bayes estimate",
                     abs(main["pixel_accuracy"] - bayes) <= BAYES_TOLERANCE,
                     f"accuracy {main['pixel_accuracy']:.4f}, Bayes {bayes:.4f}")
    if workload == "bulk" and cross is not None:
        region_truth = reload("cross truth", read_mask, f"{i}/region_truth.json")
        if region_truth is not None:
            ledger.check("cross scores every labeled pixel",
                         cross["evaluated_pixels"] == int((region_truth != 255).sum())
                         and cross["abstain"] == [0, 0],
                         f"evaluated {cross['evaluated_pixels']}, abstain {cross['abstain']}")
        ledger.check("cross mean IoU >= 0.99", cross["mean_iou"] >= BULK_MIN_MEAN_IOU,
                     str(cross["mean_iou"]))
    return (None if holdout is None else holdout["mean_iou"],
            None if main is None else main["mean_iou"])


def check_digests(key, passes, ledger):
    """Outputs of one commit and seed must be byte-identical: across the
    passes of this run, and against earlier runs recorded in the ledger."""
    first = passes[0]
    ledger.check("outputs identical across passes", all(d == first for d in passes[1:]))
    try:
        with open(LEDGER, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        ledger.check("outputs identical to an earlier run", known[key] == first,
                     ", ".join(sorted(k for k in first if known[key].get(k) != first[k])))
    else:
        known[key] = first
        tmp = LEDGER + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, LEDGER)


# --- environment -------------------------------------------------------------


def src_loc():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def source_id():
    """Digest of the package and benchmark sources: the identity under
    which output digests are compared across runs."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
                       + glob.glob(os.path.join(HERE, "*.py"))):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_", "CCF_"))},
        "git_revision": git_revision(),
        "source_id": source_id(),
        "src_loc": src_loc(),
        "page_cache": "warm; not dropped (dropping needs machine-wide changes)",
    }


# --- runs --------------------------------------------------------------------


def setup_inputs(workload, seed, run_dir, repeats, deadline, ledger):
    """Write the inputs `repeats` times; returns (median s, inputs dir)."""
    i = os.path.join(run_dir, "inputs")
    times, digests = [], []
    for k in range(repeats):
        shutil.rmtree(i, ignore_errors=True)
        code, wall, _ = run_process(
            [PY, os.path.join(HERE, "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", i],
            os.path.join(run_dir, f"setup{k}"), deadline)
        if not ledger.check(f"setup {workload} exit code", code == 0, f"exit {code}"):
            return None, i
        times.append(wall)
        digests.append(output_digests(i))
    ledger.check("inputs identical across set-ups", all(d == digests[0] for d in digests))
    return statistics.median(times), i


def _tail(path, lines=5):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def run_pass(workload, seed, i, p, deadline, ledger, spans_dir=None):
    """Run the workload's commands once, one at a time.

    Returns {step: (wall s, peak RSS MB)}, or None when a command failed.
    With spans_dir set, each command runs under tracer.py and writes its
    spans there.
    """
    os.makedirs(p, exist_ok=True)
    figures = {}
    for n, (step, argv) in enumerate(WORKLOADS[workload](i, p, seed)):
        if spans_dir is None:
            cmd = [PY, "-m", "ccfmap"] + argv
        else:
            cmd = [PY, os.path.join(HERE, "tracer.py"), "--cmd-id", str(n),
                   "--spans", os.path.join(spans_dir, f"{n}-{step}.json")]
            cmd += (["--probe"] if step == "train" else []) + ["--"] + argv
        log = os.path.join(p, f"{n}-{step}")
        code, wall, rss = run_process(cmd, log, deadline)
        if not ledger.check(f"{step} exit code", code == 0, f"exit {code}"):
            print(_tail(log + ".err"), file=sys.stderr)
            return None
        figures[step] = (wall, rss)
    return figures


def synth_bayes(p):
    with open(os.path.join(p, "0-synth.out"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("bayes_accuracy_estimate="):
                return float(line.split("=", 1)[1])
    raise ValueError("synth printed no bayes_accuracy_estimate")


def measure_pass(workload, seed, i, p, deadline, ledger, spans_dir=None):
    """Run and check one pass; returns (figures, end-to-end row, digests),
    or (None, None, None) when a command failed."""
    figures = run_pass(workload, seed, i, p, deadline, ledger, spans_dir)
    if figures is None:
        return None, None, None
    if workload == "session":
        bayes = synth_bayes(p)
    else:
        with open(os.path.join(i, "inputs.json"), encoding="utf-8") as fh:
            bayes = json.load(fh).get("bayes_accuracy_estimate", float("nan"))
    holdout_iou, main_iou = check_pass(workload, i, p, bayes, ledger)
    row = {
        "train_s": figures["train"][0],
        "predict_s": figures["predict"][0],
        "cross_s": figures["cross"][0],
        "session_s": sum(f[0] for f in figures.values()),
        "train_rss_mb": figures["train"][1],
        "predict_rss_mb": figures["predict"][1],
        "cross_rss_mb": figures["cross"][1],
        "model_bytes": os.path.getsize(os.path.join(p, "model.ccf.json")),
        "holdout_mean_iou": holdout_iou,
        "mean_iou": main_iou,
    }
    return figures, row, output_digests(p)


# --- per-layer metrics from spans ---------------------------------------------


def layer_metrics(docs, startup_s, src_lines):
    """Per-layer metrics from the span documents of one traced pass."""
    total = {}
    m = {"cli.unaccounted_s": 0.0, "raster_io.read_bytes": 0, "raster_io.write_bytes": 0,
         "pipeline.train_rows": 0, "forest.predict_chunks": 0,
         "forest.predict_raster_rss_mb": 0.0, "metrics.evaluated_pixels": 0}
    route_s = row_trees = 0.0
    probe = None
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for s, covered in zip(spans, child):
            name, took = s["name"], s["end"] - s["start"]
            total[name] = total.get(name, 0.0) + took
            parent = None if s["parent"] is None else spans[s["parent"]]["name"]
            if name == "cli.main":
                m["cli.unaccounted_s"] += took - covered
            elif name in ("raster_io.read_raster", "raster_io.read_mask"):
                m["raster_io.read_bytes"] += s["bytes"]
            elif name in ("raster_io.write_raster", "raster_io.write_mask"):
                m["raster_io.write_bytes"] += s["bytes"]
            elif name == "forest.train_forest":
                m["pipeline.train_rows"] += s["rows"]
            elif name == "forest.predict_raster":
                m["forest.predict_raster_rss_mb"] = max(
                    m["forest.predict_raster_rss_mb"], s["rss_mb"])
            elif name == "forest.predict_proba_batch" and parent == "forest.predict_raster":
                m["forest.predict_chunks"] += 1
                route_s += took - covered
                row_trees += s["rows"] * s["trees"]
            elif name == "metrics.evaluate":
                m["metrics.evaluated_pixels"] += s["evaluated_pixels"]
        probe = doc["probe"] or probe

    for metric, span in (
        ("raster_io.read_raster_s", "raster_io.read_raster"),
        ("raster_io.read_mask_s", "raster_io.read_mask"),
        ("raster_io.write_raster_s", "raster_io.write_raster"),
        ("raster_io.write_mask_s", "raster_io.write_mask"),
        ("raster_io.save_model_s", "raster_io.save_model"),
        ("raster_io.load_model_s", "raster_io.load_model"),
        ("pipeline.assemble_s", "pipeline.assemble"),
        ("pipeline.balance_s", "pipeline.balance"),
        ("pipeline.split_s", "pipeline.split"),
        ("pipeline.fit_scaler_s", "pipeline.fit_scaler"),
        ("cca.standardize_s", "cca.standardize"),
        ("forest.train_forest_s", "forest.train_forest"),
        ("forest.predict_raster_s", "forest.predict_raster"),
        ("forest.predict_class_batch_s", "forest.predict_class_batch"),
        ("metrics.evaluate_s", "metrics.evaluate"),
    ):
        m[metric] = total.get(span, 0.0)
    m["forest.route_ns_per_row_tree"] = route_s / row_trees * 1e9 if row_trees else 0.0

    serial = probe["serial_s"]
    fallbacks = probe["cca_calls"] - (probe["internal"] + probe["no_split_leaves"])
    m.update({
        "cli.startup_s": startup_s,
        "cca.calls": probe["cca_calls"],
        "cca.s": probe["cca_s"],
        "cca.ms_per_call": probe["cca_s"] / max(probe["cca_calls"], 1) * 1e3,
        "forest.best_split_calls": probe["best_split_calls"],
        "forest.best_split_s": probe["best_split_s"],
        "forest.grow_other_s": serial - probe["cca_s"] - probe["best_split_s"],
        "forest.ms_per_node": serial / probe["nodes"] * 1e3,
        "forest.train_forest_serial_s": serial,
        "forest.parallel_speedup": serial / m["forest.train_forest_s"],
        "forest.nodes": probe["nodes"],
        "forest.max_depth": probe["max_depth"],
        "forest.mean_leaf_depth": probe["mean_leaf_depth"],
        "forest.fallbacks": fallbacks,
        "forest.no_split_leaves": probe["no_split_leaves"],
        "forest.split_yield": probe["internal"] / max(probe["cca_calls"], 1),
        "repo.src_loc": src_lines,
    })
    return m, probe


def trace_overheads(steps, untraced, traced, docs):
    """Traced minus untraced wall time per command, not counting the
    growth probe that follows a traced train."""
    return {step: traced[step][0] - doc["probe_s"] - untraced[step][0]
            for step, doc in zip(steps, docs)}


# --- main ----------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({x["name"]: x["unit"] for x in spec["end_to_end"]},
            {x["name"]: x["unit"] for x in spec["per_layer"]})


def untraced_run(args, i, run_dir, deadline, ledger, info):
    rows, digests = [], []
    start = time.perf_counter()
    while True:
        p = os.path.join(run_dir, f"pass{len(rows)}")
        t0 = time.perf_counter()
        _, row, dig = measure_pass(args.workload, args.seed, i, p, deadline, ledger)
        if row is None:
            break
        rows.append(row)
        digests.append(dig)
        shutil.rmtree(p)
        took = time.perf_counter() - t0
        if time.perf_counter() - start >= args.seconds or deadline.left() < 2 * took:
            break
    info["passes"] = rows
    if digests:
        check_digests(f"{info['environment']['source_id']}/{args.workload}/{args.seed}",
                      digests, ledger)
        info["digests"] = digests[0]
    return {k: statistics.median(r[k] for r in rows) for k in (rows[0] if rows else {})
            if all(r[k] is not None for r in rows)}


def traced_run(args, i, run_dir, deadline, ledger, info):
    startup = []
    for k in range(STARTUP_REPEATS):
        code, wall, _ = run_process([PY, "-c", "import ccfmap.cli"],
                                    os.path.join(run_dir, f"startup{k}"), deadline)
        if ledger.check("import ccfmap.cli", code == 0, f"exit {code}"):
            startup.append(wall)

    plain_dir = os.path.join(run_dir, "untraced")
    plain, row, plain_digests = measure_pass(args.workload, args.seed, i, plain_dir,
                                             deadline, ledger)
    spans_dir = os.path.join(run_dir, "spans")
    os.makedirs(spans_dir)
    traced_dir = os.path.join(run_dir, "traced")
    traced, _, traced_digests = measure_pass(args.workload, args.seed, i, traced_dir,
                                             deadline, ledger, spans_dir)
    if plain is None or traced is None or not startup:
        return {}
    ledger.check("traced outputs identical to untraced", traced_digests == plain_digests)
    check_digests(f"{info['environment']['source_id']}/{args.workload}/{args.seed}",
                  [plain_digests], ledger)
    info["digests"] = plain_digests

    steps = [s for s, _ in WORKLOADS[args.workload](i, traced_dir, args.seed)]
    docs = []
    for n, step in enumerate(steps):
        with open(os.path.join(spans_dir, f"{n}-{step}.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    metrics, probe = layer_metrics(docs, statistics.median(startup),
                                   info["environment"]["src_loc"])
    ledger.check("serial model equals parallel model", not probe["differences"],
                 ", ".join(probe["differences"][:5]))
    overheads = trace_overheads(steps, plain, traced, docs)
    for step in ("train", "predict", "evaluate", "cross"):
        metrics[f"trace.{step}_overhead_s"] = overheads[step]
    metrics["trace.overhead_s"] = sum(overheads.values())
    info["untraced"] = row
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep running passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ccfmap", "cli.py")):
        print(f"perfbench: no ccfmap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    e2e_units, layer_units = load_spec()

    deadline = Deadline(RUN_DEADLINE_S)
    ledger = Ledger()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment()}
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    values = {}
    try:
        # warm-up: byte-compile the package and fill the page cache
        run_process([PY, "-c", "import ccfmap.cli"], os.path.join(run_dir, "warmup"),
                    deadline)
        setup_s, i = setup_inputs(args.workload, args.seed, run_dir,
                                  1 if args.trace else SETUP_REPEATS, deadline, ledger)
        if setup_s is not None:
            if args.trace:
                values = traced_run(args, i, run_dir, deadline, ledger, info)
            else:
                values = untraced_run(args, i, run_dir, deadline, ledger, info)
                values["setup_s"] = setup_s
    except Exception:  # outputs the checks cannot parse: report, don't crash
        traceback.print_exc()
        ledger.check("benchmark completed", False,
                     traceback.format_exc().strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(values))
    ledger.check("every metric measured", not missing, ", ".join(missing))
    info["failures"] = ledger.failures
    print(json.dumps({"perfbench": info}, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
