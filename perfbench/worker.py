"""Runs one workload's query ladder in a fresh process.

    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py --probe

The package must be importable (``run.py`` sets ``PYTHONPATH=src``).  The
import of the package is the first thing this process does, and its time is
the set-up cost a user pays; ``--probe`` reports only that.

Every query starts from a quiet heap (``_quiet_heap``) and its wall time is
reported with the mean of the calibrations taken just before and just
after it (see ``calib.py``).  Answers are kept as JSON text.

A job lists queries.  A "cli" query calls ``wsimplex.cli.main(argv)`` with
stdout and stderr captured; a "lib" query calls one public function on a
(complex, weight) pair loaded before timing starts.  The ladder runs once
untimed, to fill lazy state, and then again and again until the job's
seconds are used up: a closed loop with one caller.  Each answer is
reported once per distinct digest, so the checker sees every variant.
"""

import sys
import time

from calib import calibrate

_t0 = time.perf_counter()
import wsimplex  # noqa: E402
import wsimplex.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _vector_json(col):
    if col.dtype.kind == "c":
        return [[float(z.real), float(z.imag)] for z in col]
    return [float(z) for z in col]


def _entries(m):
    rows, cols = m.shape
    return {"entries": [[str(m[i, j]) for j in range(cols)] for i in range(rows)]}


# Library operations of the session workload: (call, answer from result).
def _lib_ops():
    w = wsimplex
    return {
        "boundary": (lambda k, p, n: w.boundary_matrix(k, p, n), _entries),
        "coboundary": (lambda k, p, n: w.coboundary_matrix(k, p, n), _entries),
        "rank": (lambda k, p, n: w.boundary_matrix(k, p, n).rank(), lambda r: {"rank": r}),
        "homology": (lambda k, p, n: w.weighted_homology(k, p, n),
                     lambda g: {"free_rank": g.free_rank, "torsion": g.torsion}),
        "snf": (lambda k, p, n: w.smith_normal_form(w.boundary_matrix(k, p, n)),
                lambda r: {"diagonal": r.diagonal, "rank": r.rank}),
        "cohomology_dim": (lambda k, p, n: w.cohomology_dim(k, p, n),
                           lambda d: {"cohomology_dim": d}),
        "laplacian": (lambda k, p, n: w.laplacian_matrix(k, p, n),
                      lambda m: {"laplacian": _entries(m)}),
        "spectrum": (lambda k, p, n: w.spectrum(w.laplacian_matrix(k, p, n)),
                     lambda s: {"eigenvalues": [float(x) for x in s.eigenvalues],
                                "eigenvectors": [_vector_json(s.eigenvectors[:, j])
                                                 for j in range(s.size)]}),
        "harmonic": (lambda k, p, n: w.harmonic_basis(k, p, n),
                     lambda b: {"count": b.count,
                                "vectors": [_vector_json(b.vectors[:, j])
                                            for j in range(b.count)]}),
        "multiplicities": (lambda k, p, n: w.zero_multiplicity_formulas(k, p, n),
                           lambda t: {"down": t[0], "up": t[1], "laplacian": t[2]}),
    }


def _cli_runner(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = wsimplex.cli.main(argv)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a crash is a failed query, not a failed run
            dt = time.perf_counter() - t0
            return dt, {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
        answer = {"exit": code, "stderr": err.getvalue()[-500:]}
        if code == 0 or out.getvalue().strip():
            try:
                answer.update(json.loads(out.getvalue()))
            except ValueError:
                answer["error"] = "stdout is not JSON"
        return dt, answer
    return run


def _lib_runner(call, to_answer, pair, n):
    complex_, phi = pair

    def run():
        t0 = time.perf_counter()
        try:
            result = call(complex_, phi, n)
            dt = time.perf_counter() - t0
            answer = to_answer(result)
        except Exception as exc:  # a raised error is a failed query
            dt = time.perf_counter() - t0
            return dt, {"exit": 1, "error": f"{type(exc).__name__}: {exc}"}
        answer["exit"] = 0
        return dt, answer
    return run


def peak_rss_mb() -> float:
    """Peak resident set size of this process.  VmHWM belongs to the address
    space made at exec; ru_maxrss would also count the parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(answer) -> str:
    blob = json.dumps({k: v for k, v in answer.items() if k != "stderr"}, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def _quiet_heap() -> None:
    """Collect, then move every live object out of the collector's view, so
    a query pays for its own garbage only, as in a fresh process."""
    gc.collect()
    gc.freeze()


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    rebound = {}
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        rebound = tracer.install()
    pairs = {}
    for pid, files in job.get("pairs", {}).items():
        k = wsimplex.read_complex_file(files["complex"])
        phi = wsimplex.read_weight_file(files["weights"], k, strict=True)
        if wsimplex.validate_weight(phi):
            raise SystemExit(f"pair {pid} fails validation")
        pairs[pid] = (k, phi)
    ops = _lib_ops()
    runners = []
    for q in job["queries"]:
        if q["kind"] == "cli":
            runners.append(_cli_runner(q["argv"]))
        else:
            call, to_answer = ops[q["op"]]
            runners.append(_lib_runner(call, to_answer, pairs[q["pair"]], q["n"]))

    answers: dict[str, dict] = {}
    passes = []
    seconds = job["seconds"]
    start = None
    pass_no = 0
    while True:
        if tracer:
            tracer.begin_pass(pass_no)
        record = []
        for q, run in zip(job["queries"], runners):
            if tracer:
                tracer.query = q["id"]
            _quiet_heap()
            before = calibrate()
            dt, answer = run()
            after = calibrate()
            digest = _digest(answer)
            if digest not in answers.setdefault(q["id"], {}):
                answers[q["id"]][digest] = json.dumps(answer)  # one object for the collector
            record.append([dt, digest, (before + after) / 2])
        passes.append(record)
        now = time.perf_counter()
        if start is None:
            start = now  # pass 0 warms up; timing starts after it
        elif now - start >= seconds:
            break
        pass_no += 1

    if tracer:
        tracer.query = None
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "peak_rss_mb": peak_rss_mb(),
        "passes": passes,
        "answers": answers,
        "rebound": rebound,
        "module": wsimplex.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(repr(SETUP_S))
        sys.exit(0)
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py JOB.json RESULT.json | --probe")
    sys.exit(main(sys.argv[1], sys.argv[2]))
