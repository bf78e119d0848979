"""Benchmark for qcr: three workloads, end-to-end metrics untraced, per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload phase-grid --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; qcr is imported from its `src/` directory.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the metrics
are the per-layer ones, and the spans are written to
`perfbench/out/spans_<workload>.npz`.

`python3 perfbench/run.py --record-reference` re-records
`perfbench/reference.json` for each workload's default seed.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# One BLAS thread: at n=100 and n=400 it is as fast as two on a 2-core host,
# and it keeps every iteration count independent of the core count. The grid
# runs in-process so the probes and spans see every trial.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QCR_THREADS": "1",
}
SETUP_REPEATS = 7
SETUP_CALIBRATION = 25  # kernel calls timed right after each set-up
WORKLOAD_NAMES = ("phase-grid", "certify-suites", "cli-n400")
REFERENCE_PASSES = {"phase-grid": 1, "certify-suites": 1, "cli-n400": 6}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    help="'all' runs each workload in turn, in its own process")
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's recorded seed)")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qcr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(),
        "qcr_src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "QCR_THREADS": os.environ["QCR_THREADS"],
        "nproc": os.cpu_count(),
    }


def _git_sha():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_qcr():
    """Put the checkout's src/ and this directory on the path and import the
    workloads; exit non-zero when the checkout holds no qcr sources."""
    if not os.path.isfile(os.path.join(SRC, "qcr", "__init__.py")):
        sys.exit(f"error: no qcr sources under {SRC}; run from the root of a qcr checkout")
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [SRC, BENCH_DIR]
    import qcr
    import workloads

    if not os.path.abspath(qcr.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported qcr from {qcr.__file__}, not from {SRC}")
    return workloads


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, as
    (percentile, value); None with fewer than 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def setup_times(args, own: float) -> list[float]:
    """This process's set-up time plus SETUP_REPEATS - 1 fresh processes'."""
    times = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def check(passes, recorded, same):
    """Count failed ops: ops whose key has an invariant violation, or whose
    observation differs from the recorded one. A violation on a pass-level
    key ("grid") fails every op of that pass."""
    failed, problems = 0, []
    for p in passes:
        bad = set(p.violations)
        if recorded is not None:
            for key, obs in p.observed.items():
                if key in recorded and not same(obs, recorded[key]):
                    bad.add(key)
                    problems.append(f"{key}: observed {obs}, recorded {recorded[key]}")
        problems += [f"{k}: {why}" for k, whys in p.violations.items() for why in whys]
        failed += len(p.op_times) if "grid" in bad else len(bad)
    return failed, problems


def run(args, workloads) -> int:
    from spans import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        tracer = Tracer()
        cal = workloads.Calibrator(enabled=not args.trace)
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer, cal)
        own_setup = time.perf_counter() - _T_START
        if not args.trace:
            cal.tick(SETUP_CALIBRATION)
            own_setup *= cal.factor
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup = None if args.trace else setup_times(args, own_setup)

        with open(REFERENCE) as fh:
            recorded = json.load(fh)[args.workload].get(str(args.seed))

        passes = []
        untraced = None
        if args.trace:
            untraced = wl.run_pass(0)
            tracer.install()
        start = time.perf_counter()
        while True:
            passes.append(wl.run_pass(len(passes)))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
                break
        if args.trace:
            tracer.uninstall()
        checked = passes + ([untraced] if untraced else [])
        failed, problems = check(checked, recorded, workloads.same)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    op_times = [t for p in passes for t in p.op_times]
    attempted = sum(len(p.op_times) for p in checked)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops {len(op_times)}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in problems[:20]:
        print("FAILED " + line)
    decisions = "checked against perfbench/reference.json" if recorded else \
        f"unchecked (no reference for seed {args.seed}); invariants checked"
    print(f"decisions {decisions}")
    print(f"failed_frac {failed / attempted:.4f} fraction ({failed} of {attempted} ops)")

    if args.trace:
        metrics = tracer.metrics()
        wall = sum(p.wall for p in passes)
        own = float(tracer.self_times().sum())
        overhead = passes[0].wall - untraced.wall
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.self_sum_s"] = (own, "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"trace: self times sum to {own:.4f} s of traced wall {wall:.4f} s "
              f"(gap {wall - own:.4f} s); overhead on pass 0: traced {passes[0].wall:.4f} s "
              f"- untraced {untraced.wall:.4f} s = {overhead:.4f} s")
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}.npz"))
    else:
        f = cal.factor
        wall = statistics.median(p.wall for p in passes)
        p50 = statistics.median(op_times)
        print(f"calibration: kernel {1e3 * cal.kernel_s:.4f} ms over {cal.count} calls, "
              f"factor {f:.4f} to the {1e3 * cal.REF_S:g} ms reference; "
              f"measured wall_s {wall:.4f} s, op_s_p50 {p50:.6f} s")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall * f, "s"),
            "ops_per_s": (len(op_times) / (sum(p.wall for p in passes) * f), "1/s"),
            "op_s_p50": (p50 * f, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        t = tail(op_times)
        if t is None:
            print(f"op_s_tail omitted: {len(op_times)} ops, fewer than 11")
        else:
            print(f"op_s_tail {t[1] * f:.6f} s at p{t[0]:.1f} (10 of {len(op_times)} ops beyond)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_reference(workloads) -> int:
    """Run each workload's reference passes at its default seed and write
    their observations, with the environment, to reference.json."""
    from spans import Tracer

    doc = {"env": environment(), "norm_rtol": workloads.NORM_RTOL}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
        try:
            wl = cls(cls.default_seed, tmp, Tracer(), workloads.Calibrator(enabled=False))
            observed = {}
            for index in range(REFERENCE_PASSES[name]):
                p = wl.run_pass(index)
                if p.violations:
                    raise SystemExit(f"{name}: invariant violations {p.violations}")
                observed.update(p.observed)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        doc[name] = {str(cls.default_seed): observed}
        print(f"{name}: recorded {len(observed)} observations at seed {cls.default_seed}")
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process; exit non-zero if any run fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main() -> int:
    args = parse_args()
    if args.workload == "all":
        return run_all(args)
    workloads = load_qcr()
    if args.record_reference:
        return record_reference(workloads)
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    return run(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
