"""Benchmark of the wsimplex pipeline, from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs its query ladder in a
fresh worker process (``PYTHONPATH=src``, BLAS/OpenMP threads capped at the
CPU count) as a closed loop with one caller, checks every answer against an
independent reference (``oracle.py``) and prints a report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced worker (``spans.py``), plus the
tracing overhead measured against an untraced worker in the same run.
Workloads are described in ``workloads.py`` and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.special import betainc

from calib import CAL_REF_S
from oracle import check
from spans import TARGETS
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0
# numpy's import time on the machine the benchmark was tuned on (2-vCPU
# sandbox, numpy 2.4.6, fast phase); see setup_time.
NUMPY_REF_S = 0.16

END_TO_END = [
    ("ladder_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# (span name, per-call attribute, aggregate, metric name, unit)
COUNTERS = [
    ("chains.boundary_matrix", "nnz", "sum", "chains.boundary_matrix.nnz", "count"),
    ("chains.boundary_matrix", "key", "distinct", "chains.boundary_matrix.distinct_frac", "ratio"),
    ("matrices.ExactMatrix.__matmul__", "scalar_mults", "sum", "matrices.matmul.scalar_mults",
     "count"),
    ("homology.smith_normal_form", "input_max_bits", "max",
     "homology.smith_normal_form.input_max_bits", "bits"),
    ("spectral.harmonic_basis", "SpectralMismatchError", "errors",
     "spectral.harmonic_basis.mismatch_errors", "count"),
    ("eigen.jacobi_eigh", "dim", "sum", "eigen.jacobi_eigh.dim_sum", "count"),
    ("eigen.hermitian_eigh", "embedded", "mean", "eigen.hermitian_eigh.embedded_frac", "ratio"),
    ("cli.main", "output_bytes", "sum", "cli.main.output_bytes", "bytes"),
]


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for mod, attr in TARGETS:
        out.append((f"{mod}.{attr}.calls", "count"))
        out.append((f"{mod}.{attr}.self_s", "s"))
    out += [(metric, unit) for *_, metric, unit in COUNTERS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(threads)
    return env


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)


def run_worker(job: dict, workdir: Path, tag: str, env: dict, clock: Clock) -> dict:
    job_path = workdir / f"{tag}.job.json"
    result_path = workdir / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                           str(result_path)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, clock.left()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def setup_time(env: dict, clock: Clock) -> tuple[float, str]:
    """Import time of the package in a fresh process, scaled to a steady host.

    Fresh processes alternate between importing the package (numpy
    included) and importing numpy alone.  numpy's import is the same kind of
    work (file reads, extension loading, module bodies) and is not this
    repository's code, so scaling the package's median by NUMPY_REF_S over
    numpy's median cancels the host's drift, while anything the package
    adds to its import still shows.  The first pair is discarded: it writes
    the bytecode caches."""
    package = [sys.executable, str(HERE / "worker.py"), "--probe"]
    numpy_only = [sys.executable, "-c", "import time; t = time.perf_counter(); "
                  "import numpy; print(time.perf_counter() - t)"]
    times = {"package": [], "numpy": []}
    for k in range(SETUP_PROBES + 1):
        for key, cmd in (("package", package), ("numpy", numpy_only)):
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, clock.left()))
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed: {proc.stderr[-2000:]}")
            if k:
                times[key].append(float(proc.stdout))
    pkg, ref = statistics.median(times["package"]), statistics.median(times["numpy"])
    note = (f"package import {pkg:.4g} s and numpy alone {ref:.4g} s, medians of "
            f"{SETUP_PROBES} fresh processes each")
    return pkg * NUMPY_REF_S / ref, note


def percentile(sorted_vals: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  The ladder's query costs come in clusters; a plain
    order statistic jumps across the gap between two clusters when a few
    samples change sides, this estimate moves by those samples' weight."""
    n = len(sorted_vals)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_vals))


def timed_passes(result: dict) -> list[list[float]]:
    """Calibrated query times of each pass after the warm-up pass."""
    return [[dt * CAL_REF_S / cal for dt, _, cal in record] for record in result["passes"][1:]]


def query_factors(result: dict, queries: list[dict]) -> dict[tuple[int, str], float]:
    """Calibration factor of every (pass, query) of a worker run."""
    return {(p, q["id"]): CAL_REF_S / cal
            for p, record in enumerate(result["passes"])
            for q, (_, _, cal) in zip(queries, record)}


def verdicts(ladder, results: list[dict]):
    """Check every distinct answer once; returns {(qid, digest): Verdict}."""
    by_id = {q["id"]: q for q in ladder.queries}
    out = {}
    for result in results:
        for qid, variants in result["answers"].items():
            for digest, answer in variants.items():
                if (qid, digest) not in out:
                    out[(qid, digest)] = check(by_id[qid]["check"], ladder.pairs,
                                               json.loads(answer))
    return out


def layer_values(spans_path: Path, passes: int, factors: dict) -> dict[str, float]:
    """Per-pass totals of every per-layer metric, median over timed passes.
    Self times are calibrated with the factor of the query they ran in."""
    per_pass = [defaultdict(float) for _ in range(passes)]
    keys = [defaultdict(set) for _ in range(passes)]
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            _, _, name, p, qid, _, _, self_s, error, attrs = json.loads(line)
            if p < 1 or p > passes:
                continue
            acc = per_pass[p - 1]
            acc[f"{name}.calls"] += 1
            acc[f"{name}.self_s"] += self_s * factors[(p, qid)]
            for span, attr, how, metric, _ in COUNTERS:
                if span != name:
                    continue
                if how == "errors":
                    acc[metric] += error == attr
                elif attrs is None:
                    continue
                elif how == "distinct":
                    keys[p - 1][metric].add(attrs[attr])
                elif how == "max":
                    acc[metric] = max(acc[metric], attrs[attr])
                else:
                    acc[metric] += attrs[attr]
    for acc, seen in zip(per_pass, keys):
        for span, attr, how, metric, _ in COUNTERS:
            calls = acc[f"{span}.calls"]
            if how == "distinct":
                acc[metric] = len(seen[metric]) / calls if calls else 0.0
            elif how == "mean":
                acc[metric] = acc[metric] / calls if calls else 0.0
    names = [name for name, _ in layer_metrics() if name != "trace.overhead_frac"]
    return {name: statistics.median(acc[name] for acc in per_pass) for name in names}


def describe(q: dict) -> str:
    if q["kind"] == "cli":
        return " ".join(Path(a).name if "/" in a else a for a in q["argv"])[:80]
    return f"{q['op']} {q['pair']} n={q['n']}"


def env_line(threads: int) -> str:
    return (f"env: nproc={os.cpu_count()} usable_cpus={threads} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas_threads={threads} commit={git_commit(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wsimplex" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    clock = Clock()
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=ROOT / ".perfbench_work"))
    try:
        ladder = build(args.workload, args.seed, str(workdir.relative_to(ROOT)))
        for path, text in ladder.files.items():
            (ROOT / path).write_text(text)
        job = {"queries": ladder.job_queries(), "pairs": ladder.lib_pairs,
               "seconds": args.seconds, "trace": False}
        setup_s, setup_note = setup_time(env, clock)
        if args.trace:
            half = args.seconds / 2
            plain = run_worker({**job, "seconds": half}, workdir, "plain", env, clock)
            spans_path = workdir / "spans.jsonl"
            traced = run_worker({**job, "seconds": half, "trace": True,
                                 "spans": str(spans_path)}, workdir, "traced", env, clock)
            results = [plain, traced]
        else:
            plain = run_worker(job, workdir, "plain", env, clock)
            results = [plain]
        src = str(ROOT / "src")
        if not all(r["module"].startswith(src) for r in results):
            raise RuntimeError("worker imported wsimplex from outside the checkout's src")

        checked = verdicts(ladder, results)
        defect = {q["id"]: q["defect"] for q in ladder.queries}
        attempted = failed = known = 0
        for result in results:
            for record in result["passes"]:
                for q, (_, digest, _) in zip(ladder.queries, record):
                    attempted += 1
                    if not checked[(q["id"], digest)].ok:
                        failed += 1
                        known += defect[q["id"]] is not None
        unexpected = failed - known
        digits = [d for v in checked.values() for d in v.digits]

        print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  queries/pass {len(ladder.queries)}")
        print("# " + env_line(threads))
        for (qid, _), v in sorted(checked.items()):
            if not v.ok:
                q = next(q for q in ladder.queries if q["id"] == qid)
                what = describe(q)
                tag = "known defect" if q["defect"] else "UNEXPECTED"
                print(f"# fail [{tag}] {qid} {what}: {v.errors[0][:160]}")

        passes = timed_passes(plain)
        ladders = [sum(record) for record in passes]
        lat = sorted(dt * 1e3 for record in passes for dt in record)
        wall = statistics.median(sum(dt for dt, _, _ in r) for r in plain["passes"][1:])
        e2e = {
            "ladder_s": statistics.median(ladders),
            "query_p50_ms": percentile(lat, 0.5),
            "query_p90_ms": percentile(lat, 0.9),
            "peak_rss_mb": plain["peak_rss_mb"],
            "setup_s": setup_s,
        }
        above = sum(x > e2e["query_p90_ms"] for x in lat)
        notes = {
            "ladder_s": f"median of {len(ladders)} timed passes; uncalibrated wall {wall:.4g} s",
            "query_p50_ms": f"n={len(lat)}",
            "query_p90_ms": f"n={len(lat)}, {above} samples above",
            "peak_rss_mb": "worker process",
            "setup_s": setup_note,
        }
        for name, unit in END_TO_END:
            print(f"{name:<16} {e2e[name]:>12.6g} {unit:<6} ({notes[name]})")
        per_query = [statistics.median(r[i] for r in passes) for i in range(len(ladder.queries))]
        slowest = sorted(range(len(per_query)), key=per_query.__getitem__, reverse=True)[:8]
        print("# slowest queries, median ms: " + "; ".join(
            f"{per_query[i] * 1e3:.4g} {describe(ladder.queries[i])}" for i in slowest))
        print(f"{'failed_frac':<16} {failed / attempted:>12.6g} {'ratio':<6} "
              f"({failed}/{attempted}; known defect: {known}, unexpected: {unexpected})")
        if args.workload in ("spectral", "session"):
            print(f"{'eig_digits_min':<16} {min(digits) if digits else 'n/a':>12} {'digits':<6} "
                  f"(cap 12, over {len(digits)} checked non-zero eigenvalues, mpmath 60 digits)")

        if args.trace:
            layers = layer_values(spans_path, len(timed_passes(traced)),
                                  query_factors(traced, ladder.queries))
            base = e2e["ladder_s"]
            traced_ladder = statistics.median(sum(r) for r in timed_passes(traced))
            layers["trace.overhead_frac"] = traced_ladder / base - 1.0
            print(f"# traced ladder_s {traced_ladder:.6g} s vs untraced {base:.6g} s; "
                  f"aliases rebound: {sum(traced['rebound'].values())}")
            print("# per-layer values are per ladder pass, median over "
                  f"{len(timed_passes(traced))} traced passes")
            for name, unit in layer_metrics():
                print(f"{name:<48} {layers[name]:>14.6g} {unit}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in layer_metrics()}
        else:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
