"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* the generators are deterministic per seed;
* the checker accepts the package's real answers and rejects each of them
  once corrupted;
* the tracer rebinds the package's direct-import aliases and computes self
  time from its span stack;
* a run of every workload prints every metric named in BENCHMARK.json, and
  the traced run counts calls in each layer the workload reaches.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import run
import workloads
from oracle import check

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach in a traced run (calls > 0).
REACHES = {
    "homology": ["complexes.read_complex_file", "weights.read_weight_file",
                 "weights.validate_weight", "chains.boundary_matrix",
                 "matrices.ExactMatrix.rank", "homology.smith_normal_form",
                 "homology.weighted_homology", "spectral.cohomology_dim",
                 "spectral.zero_multiplicity_formulas", "cli.main"],
    "spectral": ["matrices.ExactMatrix.__matmul__", "matrices.ExactMatrix.to_ndarray",
                 "spectral.laplacian_matrix", "spectral.weighted_inner_laplacian",
                 "spectral.harmonic_basis", "eigen.hermitian_eigh", "eigen.jacobi_eigh",
                 "ffl.classify_ffl", "cli.main"],
    "session": ["chains.boundary_matrix", "matrices.ExactMatrix.rank",
                "matrices.ExactMatrix.__matmul__", "homology.smith_normal_form",
                "homology.weighted_homology", "spectral.cohomology_dim",
                "spectral.laplacian_matrix", "spectral.harmonic_basis",
                "spectral.zero_multiplicity_formulas", "eigen.jacobi_eigh"],
    "polygon": ["homology.ngon_homology_closed_form", "polygons.make_ngon",
                "homology.smith_normal_form", "homology.weighted_homology", "cli.main"],
}


def corrupt(answer: dict, kind: str) -> dict:
    """A copy of a correct answer with one value made wrong."""
    bad = copy.deepcopy(answer)
    if kind == "validate":
        bad["valid"] = not bad["valid"]
    elif kind in ("homology", "ngon"):
        bad["torsion"] = bad["torsion"] + [2]
    elif kind == "snf":
        bad["diagonal"] = [d + 1 for d in bad["diagonal"]] or [1]
    elif kind == "rank":
        bad["rank"] += 1
    elif kind == "cohomology_dim":
        bad["cohomology_dim"] += 1
    elif kind == "multiplicities":
        bad["up"] += 1
    elif kind in ("boundary", "coboundary", "laplacian"):
        entries = bad["laplacian"]["entries"] if kind == "laplacian" else bad["entries"]
        entries[-1][-1] = "2/7" if entries[-1][-1] == "1/7" else "1/7"
    elif kind == "spectrum":
        bad["eigenvalues"][-1] *= 1 + 1e-6
    elif kind == "harmonic":
        bad["count"] += 1
    elif kind == "ffl":
        bad["classified"] = "coherent1" if bad["classified"] != "coherent1" else "coherent2"
    else:
        raise AssertionError(kind)
    return bad


class Workdir:
    def __init__(self, name: str, seed: int):
        (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_work"))
        self.ladder = workloads.build(name, seed, str(self.path.relative_to(run.ROOT)))
        for path, text in self.ladder.files.items():
            (run.ROOT / path).write_text(text)

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, "w")
            b = workloads.build(name, 7, "w")
            self.assertEqual(a.files, b.files, name)
            self.assertEqual(a.job_queries(), b.job_queries(), name)

    def test_other_seed_other_inputs_same_shape(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, "w")
            b = workloads.build(name, 8, "w")
            self.assertNotEqual(a.files, b.files, name)
            self.assertEqual([q["check"]["type"] for q in a.queries],
                             [q["check"]["type"] for q in b.queries], name)


class CheckerTests(unittest.TestCase):
    """Runs the first query of every check type of every workload through
    the real package, then corrupts each answer."""

    def test_rejects_corrupted_answers(self):
        env = run.worker_env(1)
        for name in workloads.WORKLOADS:
            wd = Workdir(name, 3)
            try:
                first = {}
                for q in wd.ladder.queries:
                    if q["defect"] is None:
                        first.setdefault(q["check"]["type"], q)
                wd.ladder.queries = list(first.values())
                job = {"queries": wd.ladder.job_queries(), "pairs": wd.ladder.lib_pairs,
                       "seconds": 0, "trace": False}
                result = run.run_worker(job, wd.path, "check", env, run.Clock())
                for q in wd.ladder.queries:
                    (blob,) = result["answers"][q["id"]].values()
                    answer = json.loads(blob)
                    kind = q["check"]["type"]
                    with self.subTest(workload=name, kind=kind):
                        self.assertTrue(check(q["check"], wd.ladder.pairs, answer).ok)
                        self.assertFalse(check(q["check"], wd.ladder.pairs,
                                               corrupt(answer, kind)).ok)
                        self.assertFalse(check(q["check"], wd.ladder.pairs,
                                               {**answer, "exit": 2}).ok)
            finally:
                wd.close()


TRACER_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import wsimplex, wsimplex.cli
sys.path.insert(0, sys.argv[1])
import spans
tracer = spans.Tracer()
rebound = tracer.install()
for alias, home in ((wsimplex.cli.smith_normal_form, wsimplex.homology.smith_normal_form),
                    (wsimplex.homology.boundary_matrix, wsimplex.chains.boundary_matrix),
                    (wsimplex.ffl.laplacian_matrix, wsimplex.spectral.laplacian_matrix),
                    (wsimplex.harmonic_basis, wsimplex.spectral.harmonic_basis)):
    assert alias is home and hasattr(home, "__wrapped__")
tracer.begin_pass(1)
with redirect_stdout(io.StringIO()):
    code = wsimplex.cli.main(["snf", "-k", sys.argv[2], "-w", sys.argv[3], "-n", "1"])
print(json.dumps({"code": code, "rebound": rebound, "spans": tracer.spans}))
"""


class TracerTests(unittest.TestCase):
    def test_aliases_and_self_time(self):
        wd = Workdir("homology", 1)
        try:
            q = next(q for q in wd.ladder.queries if q["argv"][0] == "snf")
            proc = subprocess.run([sys.executable, "-c", TRACER_PROBE, str(run.HERE),
                                   q["argv"][2], q["argv"][4]], cwd=run.ROOT,
                                  env=run.worker_env(1), capture_output=True, text=True,
                                  timeout=60)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            out = json.loads(proc.stdout)
        finally:
            wd.close()
        self.assertEqual(out["code"], 0)
        self.assertGreater(out["rebound"]["homology.smith_normal_form"], 2)
        spans = {s[0]: s for s in out["spans"]}
        by_name = {s[2]: s for s in out["spans"]}
        snf = by_name["homology.smith_normal_form"]
        main = by_name["cli.main"]
        self.assertEqual(snf[1], main[0])  # called from the CLI through its alias
        children = sum(s[6] - s[5] for s in spans.values() if s[1] == main[0])
        self.assertLessEqual(main[7], main[6] - main[5] - children + 1e-9)
        self.assertGreaterEqual(main[7], 0.0)


class MetricTests(unittest.TestCase):
    def run_bench(self, name: str, trace: int) -> dict:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.5",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    def test_every_metric_present(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = self.run_bench(name, 0)
                self.assertEqual(set(plain), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(plain["correct"])
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {k: v["unit"] for k, v in plain["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(v["value"] > 0 for v in plain["metrics"].values()))
                traced = self.run_bench(name, 1)
                want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                got = {k: v["unit"] for k, v in traced["metrics"].items()}
                self.assertEqual(got, want)
                for layer in REACHES[name]:
                    self.assertGreater(traced["metrics"][f"{layer}.calls"]["value"], 0, layer)
                if name == "spectral":
                    self.assertGreater(plain["failed"], 0)


if __name__ == "__main__":
    unittest.main()
