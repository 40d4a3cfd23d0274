"""End-to-end benchmark of affkit: `train`, `eval` and `contact` workloads.

    python3 perfbench/run.py                         # all workloads, untraced
    python3 perfbench/run.py --trace 1               # all workloads, traced
    python3 perfbench/run.py --workload contact --seed 3 --seconds 20

With --workload, one workload runs in this process and the last line of
standard output is its JSON result. Without it, each workload runs in a
fresh child process and a table of all of them is printed. See README.md
beside this file for the workloads and metrics.
"""

import os

# BLAS reads these when numpy loads, so they are set before any import
# that can pull numpy in.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "eval", "contact")
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100
# Share of the measured time spent on the reference computation, and the
# reference time that `norm_items_per_s` is scaled to.
REF_SHARE = 0.05
REF_MS = 0.5
CHILD_TIMEOUT_S = 900
END_TO_END_ORDER = ("setup_s", "items_per_s", "norm_items_per_s", "ref_ms",
                    "op_ms_p50", "op_ms_p90", "peak_rss_mb", "failed_frac",
                    "loss_final", "mae_deg", "contact_err_px")

# Per-layer metrics named after the span they read (name minus unit):
# self time per op in ms, and inclusive seconds per set-up (set-up layers)
# or per call (evaluate, which runs inside ops).
SELF_MS = (
    "autodiff.backward.ms", "kernels.softmax.ms", "kernels.softmax_grad.ms",
    "kernels.gelu.ms", "kernels.gelu_grad.ms", "model.forward_direction.ms",
    "model.encode_patches.ms", "model.gated_cross_attention.ms",
    "model.encoder_block.ms", "model.gate.ms", "training.assemble.ms",
    "training.optimizer.ms", "retrieval.filter_by_task.ms",
    "retrieval.cosine_topk.ms", "correspondence.transfer_contact.ms",
    "lifting.lift_affordance.ms")
CALL_S = (
    "training.build_episodes.s", "evaluation.evaluate.s",
    "synthgen.generate_split.s", "synthgen.save_scenes.s",
    "synthgen.load_scenes.s", "memory.save_memory.s", "memory.load_memory.s")
# Per-layer counts per op over the first pass of the traced phase; these
# repeat exactly for a given seed.
PER_OP_COUNTS = {
    "autodiff.tensors_per_op": ("autodiff.tensors", 1.0, "count"),
    "kernels.mb_moved": ("kernels.bytes", 1e-6, "MB"),
    "retrieval.candidates_scanned": ("retrieval.candidates", 1.0, "count"),
    "correspondence.pixels_scanned": ("correspondence.pixels", 1.0, "count"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured seconds per workload; a traced run "
                             "gives half to its untraced phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_affkit():
    """Import affkit from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "affkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no affkit package under {src}")
    sys.path.insert(0, str(src))
    import affkit
    if Path(affkit.__file__).resolve().parent != (src / "affkit").resolve():
        sys.exit(f"perfbench: imported affkit from {affkit.__file__}, "
                 f"not from {src}")


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    kernels = sys.modules.get("affkit.kernels")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernels.USE_NUMBA": getattr(kernels, "USE_NUMBA", None),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tensors_created():
    """Value of the tape's Tensor creation counter, or None if it is gone."""
    from affkit import autodiff
    counter = getattr(autodiff, "_counter", None)
    return int(repr(counter)[6:-1]) if counter is not None else None


def register_spans(tracer):
    """Wrap the public calls into each layer on the measured paths."""
    import numpy as np
    from affkit import (autodiff, correspondence, evaluation, lifting, memory,
                        model, retrieval, synthgen, training)
    from tracing import arg

    kernels = sys.modules.get("affkit.kernels")

    def moved(args, kwargs, result):
        arrays = [a for a in args if isinstance(a, np.ndarray)] + [result]
        return {"kernels.bytes": sum(a.nbytes for a in arrays)}

    def scanned(args, kwargs, result):
        return {"retrieval.candidates": len(arg(args, kwargs, 2, "subset")),
                "retrieval.returned": len(result)}

    def pixels(args, kwargs, result):
        shape = arg(args, kwargs, 2, "query_map").shape
        return {"correspondence.pixels": shape[0] * shape[1]}

    t = tracer.target
    t(synthgen, "generate_split", "synthgen.generate_split")
    t(synthgen, "save_scenes", "synthgen.save_scenes")
    t(synthgen, "load_scenes", "synthgen.load_scenes")
    t(memory, "save_memory", "memory.save_memory")
    t(memory, "load_memory", "memory.load_memory")
    t(retrieval, "filter_by_task", "retrieval.filter_by_task")
    t(retrieval, "cosine_topk", "retrieval.cosine_topk", count=scanned)
    t(correspondence, "transfer_contact", "correspondence.transfer_contact",
      count=pixels, fail_key="correspondence.failed")
    t(lifting, "lift_affordance", "lifting.lift_affordance",
      fail_key="lifting.failed")
    t(model, "forward_direction", "model.forward_direction")
    t(model, "encode_patches", "model.encode_patches")
    t(model, "gated_cross_attention", "model.gated_cross_attention")
    t(model, "_encoder_block", "model.encoder_block")
    t(model, "gate", "model.gate")
    t(autodiff, "backward", "autodiff.backward")
    t(kernels, "softmax_rows", "kernels.softmax", count=moved)
    t(kernels, "softmax_rows_grad", "kernels.softmax_grad", count=moved)
    t(kernels, "gelu_forward", "kernels.gelu", count=moved)
    t(kernels, "gelu_grad", "kernels.gelu_grad", count=moved)
    t(training, "build_episodes", "training.build_episodes")
    t(training, "_assemble_batch", "training.assemble")
    t(getattr(training, "Adam", None), "step", "training.optimizer")
    t(evaluation, "evaluate", "evaluation.evaluate")


def make_reference():
    """A fixed mix of interpreter, numpy and BLAS work that uses no affkit.

    The time it takes tracks the machine's current speed, which on a
    shared host changes by up to 1.7x for minutes at a time.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    mat = rng.random((96, 96))
    vecs = [rng.random(12) for _ in range(300)]

    def reference():
        total = 0
        for i in range(2000):
            total += (i * 7) % 13
        sims = np.stack(vecs) @ vecs[0]
        sorted(range(len(vecs)), key=lambda j: -sims[j])
        mat @ mat
        return total

    return reference


def measure(wl, seconds, tracer=None):
    """Run calls until `seconds` have passed and the first pass is done.

    Between calls the reference runs for REF_SHARE of the call time, so
    the machine's speed is sampled over the same stretch of time.
    """
    from affkit.errors import AffkitError

    reference = make_reference()
    reference()
    first_pass = wl.calls_per_pass()
    res = {"ops": 0, "items": 0, "failed": 0, "op_ms": [], "errors": [],
           "degenerate": 0, "pass_ops": 0, "work_s": 0.0, "ref_s": 0.0,
           "ref_calls": 0}
    start = time.perf_counter()
    i = 0
    while i < first_pass or time.perf_counter() - start < seconds:
        ops = wl.ops_in_call(i)
        if tracer is not None:
            before = tensors_created()
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = wl.call(i)
        except AffkitError as exc:
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            if before is not None:
                tracer.counts["autodiff.tensors"][i] += \
                    tensors_created() - before
        if isinstance(out, AffkitError):
            failed, errors, degenerate = ops, [], 0
        else:
            failed, errors, degenerate = wl.check(i, out)
        res["failed"] += failed
        res["ops"] += ops
        res["items"] += wl.items_in_call(i)
        res["op_ms"].append(dt * 1e3 / ops)
        res["work_s"] += dt
        if i < first_pass:
            res["errors"].extend(errors)
            res["degenerate"] += degenerate
            res["pass_ops"] += ops
        while res["ref_s"] < REF_SHARE * res["work_s"]:
            t0 = time.perf_counter()
            reference()
            res["ref_s"] += time.perf_counter() - t0
            res["ref_calls"] += 1
        i += 1
    return res


def span_of(name):
    return name.rsplit(".", 1)[0]


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def end_to_end(cls, setup_times, res, peak_rss_mb):
    """The end-to-end metrics, and why any of them is absent."""
    from workloads import WORKLOADS
    op_ms = res["op_ms"]
    items_per_s = res["items"] / res["work_s"]
    ref_ms = res["ref_s"] * 1e3 / res["ref_calls"]
    out = {
        "setup_s": metric(statistics.median(setup_times), "s",
                          len(setup_times)),
        "items_per_s": metric(items_per_s, "1/s", res["items"]),
        "norm_items_per_s": metric(items_per_s * ref_ms / REF_MS, "1/s",
                                   res["items"]),
        "ref_ms": metric(ref_ms, "ms", res["ref_calls"]),
        "op_ms_p50": metric(statistics.median(op_ms), "ms", len(op_ms)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
        "failed_frac": metric(res["failed"] / res["ops"], "frac", res["ops"]),
    }
    absent = {}
    if len(op_ms) >= P90_MIN_SAMPLES:
        out["op_ms_p90"] = metric(statistics.quantiles(op_ms, n=10)[-1], "ms",
                                  len(op_ms))
    else:
        absent["op_ms_p90"] = (f"{len(op_ms)} timed calls, fewer than "
                               f"{P90_MIN_SAMPLES}")
    for other in WORKLOADS.values():
        name, unit = other.guard
        if other is cls:
            errors = res["errors"]
            value = sum(errors) / len(errors) if errors else float("nan")
            out[name] = metric(value, unit, len(errors))
        else:
            absent[name] = f"output guard of the {other.name} workload"
    return out, absent


def per_layer(first_pass, tracer, untraced, traced, setup_stats):
    """Per-layer metrics from the traced phase and the traced set-ups."""
    ops = traced["ops"]
    pass_ops = traced["pass_ops"]
    first_pass = set(range(first_pass))
    self_s, calls = tracer.self_times()
    out, idle = {}, set()
    for name in SELF_MS:
        span = span_of(name)
        out[name] = metric(self_s[span] * 1e3 / ops, "ms", calls[span])
        if not calls[span]:
            idle.add(name)
    for name in CALL_S:
        seconds, n = tracer.call_seconds(span_of(name))
        out[name] = metric(seconds, "s", n)
        if not n:
            idle.add(name)
    for name, (key, scale, unit) in PER_OP_COUNTS.items():
        out[name] = metric(tracer.count(key, first_pass) * scale / pass_ops,
                           unit, pass_ops)
        if key not in tracer.counts:
            idle.add(name)
    candidates = tracer.count("retrieval.candidates", first_pass)
    returned = tracer.count("retrieval.returned", first_pass)
    out["retrieval.returned_frac"] = metric(
        returned / candidates if candidates else 0.0, "frac", int(candidates))
    if not candidates:
        idle.add("retrieval.returned_frac")
    for name, span in (("correspondence.failed",
                        "correspondence.transfer_contact"),
                       ("lifting.failed", "lifting.lift_affordance")):
        out[name] = metric(tracer.count(name), "count", calls[span])
        if not calls[span]:
            idle.add(name)
    skipped = setup_stats.get("training.episodes_skipped")
    out["training.episodes_skipped"] = metric(skipped or 0, "count", 1)
    if skipped is None:
        idle.add("training.episodes_skipped")
    out["evaluation.degenerate"] = metric(untraced["degenerate"], "count",
                                          untraced["pass_ops"])
    if not calls["evaluation.evaluate"]:
        idle.add("evaluation.degenerate")
    for name in ("synthgen.store_mb", "memory.store_mb"):
        out[name] = metric(setup_stats[name], "MB", 1)
    fast = untraced["items"] / untraced["work_s"]
    slow = traced["items"] / traced["work_s"]
    out["trace.overhead_frac"] = metric(1.0 - slow / fast, "frac", 2)

    absent = {name: "0: idle on this workload" for name in idle}
    for span, why in tracer.missing.items():
        for name in SELF_MS + CALL_S:
            if span_of(name) == span:
                absent[name] = "0: " + why
    if tensors_created() is None:
        absent["autodiff.tensors_per_op"] = "0: affkit.autodiff._counter is gone"
    return out, absent


def run_workload(args):
    import_affkit()
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        register_spans(tracer)
    rundir = ROOT / ".perfbench"
    workdir = rundir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def timed_setup(rep):
        gc.collect()
        if tracer is not None:
            tracer.op = f"setup{rep}"
            tracer.install()
        try:
            t0 = time.perf_counter()
            wl = cls()
            stats = wl.setup(args.seed, str(workdir))
            return wl, stats, time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None

    try:
        wl, stats, first = timed_setup(0)
        gc.collect()
        phase_s = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, phase_s)
        # Read before the extra set-ups, which only time set-up: their
        # allocations would otherwise add heap fragmentation to the peak.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        traced = None
        if tracer is not None:
            tracer.install()
            try:
                traced = measure(wl, phase_s, tracer)
            finally:
                tracer.uninstall()
        first_pass = wl.calls_per_pass()
        wl = None
        setup_times = [first] + [timed_setup(rep)[2]
                                 for rep in range(1, SETUP_REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, absent = end_to_end(cls, setup_times, untraced, peak_rss_mb)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "end_to_end": e2e}
    if traced is not None:
        record["per_layer"], layer_absent = per_layer(
            first_pass, tracer, untraced, traced, stats)
        absent.update(layer_absent)
        spans_path = rundir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    record["absent"] = absent
    record["attempted"] = untraced["ops"] + (traced["ops"] if traced else 0)
    record["failed"] = untraced["failed"] + (traced["failed"] if traced else 0)
    print_record(record)
    print("record " + json.dumps(record))
    return result_line(record)


def benchmark_metrics(record):
    """The metrics BENCHMARK.json names for this mode, value and unit only."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = "per_layer" if record["trace"] else "end_to_end"
    values = {**record["end_to_end"], **record.get("per_layer", {})}
    return {m["name"]: {"value": values[m["name"]]["value"],
                        "unit": m["unit"]} for m in spec[section]}


def result_line(record):
    guards_ok = all(math.isfinite(m["value"])
                    for m in record["end_to_end"].values())
    return {"correct": record["failed"] == 0 and guards_ok,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": benchmark_metrics(record)}


def print_record(record):
    print(f"perfbench {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}")
    print("env " + json.dumps(record["env"]))
    for section in ("end_to_end", "per_layer"):
        if section not in record:
            continue
        print(f"{section}:")
        names = END_TO_END_ORDER if section == "end_to_end" else record[section]
        for name in names:
            m = record[section].get(name)
            note = record["absent"].get(name, "")
            if m is None:
                print(f"  {name:<36} {'absent':>14} {'':<17} {note}")
            else:
                print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} "
                      f"n={m['n']:<8} {note}")


def run_all(args):
    """Each workload in a fresh process; a table of every metric."""
    records, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
            sys.exit(f"perfbench: workload {name} exited with "
                     f"{proc.returncode}")
        result = json.loads(lines[-1])
        records[name] = next(json.loads(line[len("record "):])
                             for line in lines if line.startswith("record "))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    section = "per_layer" if args.trace else "end_to_end"
    print(f"\nsummary ({section}, seed={args.seed}; '-' marks a metric "
          "that is absent or idle on that workload):")
    print(f"  {'metric':<36}" + "".join(f"{w:>28}" for w in WORKLOAD_NAMES))
    names = (END_TO_END_ORDER if section == "end_to_end"
             else list(records[WORKLOAD_NAMES[0]]["per_layer"]))
    metrics = {}
    for name in names:
        cells = []
        for w in WORKLOAD_NAMES:
            m = records[w].get(section, {}).get(name)
            if m is None or name in records[w]["absent"]:
                cells.append(f"{'-':>28}")
            else:
                cells.append(f"{m['value']:>14.6g} {m['unit']:<5} "
                             f"n={m['n']:<5}")
                metrics[f"{w}.{name}"] = {"value": m["value"],
                                          "unit": m["unit"]}
        print(f"  {name:<36}" + "".join(cells))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
