"""The four workloads: each a fixed ladder of queries over seeded inputs.

The seed changes weights, vertex labels and random graphs, and not the
shape of a ladder, so one pass costs about the same on every seed.  The one
exception: the top degree (2 or 3) of ``homology``'s flag complexes.

* ``homology``: one-shot CLI validate / homology / snf / cohomology-dim /
  multiplicities on integer weights.  SNF, exact rank and validation do
  nearly all the work; the spectral layers do none.
* ``spectral``: one-shot CLI laplacian / spectrum (with and without inner
  weights) / harmonic / multiplicities on rational and Gaussian-rational
  weights, the ill-conditioned pentagons and the eight motif queries.
  Laplacian assembly and Jacobi dominate.
* ``session``: library calls that ask the same few (complex, weight) pairs
  for every operator, rank, Laplacian, spectrum and harmonic basis in every
  degree: reuse-heavy traffic on the same layers.
* ``polygon``: ``ngon --alphas`` up to where the exponential closed form
  takes about a second, plus the matrix pipeline on long cycles.
"""

from __future__ import annotations

import random
from pathlib import Path

import gen
from oracle import FFL_KINDS, Pair, ffl_laplacian

WORKLOADS = ("homology", "spectral", "session", "polygon")

# Queries on these pentagons hit the defects of eigensolving the formed
# Laplacian: lambda_2 loses its digits and harmonic_basis raises
# SpectralMismatchError.  They count as failures; this tag only says why.
PENTAGON_DEFECT = "ill-conditioned pentagon: eigensolve of the formed Laplacian"
DEFECT_EXPONENTS = (5, 7)


class Ladder:
    """Queries plus the files and reference pairs they refer to."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.pairs: dict[str, Pair] = {}
        self.lib_pairs: dict[str, dict] = {}
        self.queries: list[dict] = []

    def _file(self, stem: str, text: str) -> str:
        path = str(Path(self.workdir) / stem)
        self.files[path] = text
        return path

    def pair(self, pid: str, maximal, table: dict, inner: dict | None = None,
             lib: bool = False) -> tuple[str, str, str | None]:
        """Register a pair; returns its complex, weight and inner-weight files."""
        self.pairs[pid] = Pair(maximal, table, inner)
        k = self._file(f"{pid}.cplx", gen.complex_text(maximal))
        w = self._file(f"{pid}.wts", gen.weight_text(table))
        i = self._file(f"{pid}.inner", gen.inner_text(inner)) if inner else None
        if lib:
            self.lib_pairs[pid] = {"complex": k, "weights": w}
        return k, w, i

    def cli(self, argv: list[str], check: dict, defect: str | None = None) -> None:
        self.queries.append({"id": f"q{len(self.queries):03d}", "kind": "cli", "argv": argv,
                             "check": check, "defect": defect})

    def lib(self, op: str, pid: str, n: int) -> None:
        self.queries.append({"id": f"q{len(self.queries):03d}", "kind": "lib", "op": op,
                             "pair": pid, "n": n,
                             "check": {"type": op, "pair": pid, "n": n}, "defect": None})

    def job_queries(self) -> list[dict]:
        keys = ("id", "kind", "argv", "op", "pair", "n")
        return [{k: q[k] for k in keys if k in q} for q in self.queries]


def _pair_queries(lad: Ladder, pid: str, files, degrees, commands, known=None) -> None:
    k, w, _ = files
    for cmd in commands:
        if cmd == "validate":
            lad.cli(["validate", "-k", k, "-w", w, "--strict"],
                    {"type": "validate", "pair": pid})
            continue
        for n in degrees:
            if cmd == "snf" and n == 0:
                continue
            check = {"type": cmd.replace("-", "_"), "pair": pid, "n": n}
            if cmd == "homology" and known is not None:
                check["known"] = [known[n][0], known[n][1]]
            lad.cli([cmd, "-k", k, "-w", w, "-n", str(n), "--strict"], check)


def build_homology(lad: Ladder) -> None:
    rng = lad.rng
    every = ("validate", "homology", "snf", "cohomology-dim", "multiplicities")
    for name, (tris, nverts, known) in gen.KNOWN_SURFACES.items():
        maximal = gen.relabel(rng, tris, nverts)
        basis = gen.closure(maximal)
        files = lad.pair(name, maximal, gen.identity_weight(basis))
        _pair_queries(lad, name, files, range(3), every, known)
        pid = f"{name}_dawson"
        files = lad.pair(pid, maximal, gen.dawson_weight(rng, basis))
        _pair_queries(lad, pid, files, range(3), ("homology", "snf"))
    for k, d in ((5, 2), (7, 2), (5, 3)):
        maximal = gen.skeleton(k, d)
        basis = gen.closure(maximal)
        degrees = range(d + 1)
        pid = f"d{k}s{d}_id"
        files = lad.pair(pid, maximal, gen.identity_weight(basis))
        _pair_queries(lad, pid, files, degrees, ("homology",), gen.skeleton_homology(k, d))
        pid = f"d{k}s{d}_dawson"
        files = lad.pair(pid, maximal, gen.dawson_weight(rng, basis))
        _pair_queries(lad, pid, files, degrees, every)
        pid = f"d{k}s{d}_cfw"
        files = lad.pair(pid, maximal, gen.cfw_weight(rng, basis))
        _pair_queries(lad, pid, files, degrees, every[:-1])
    for j in range(2):
        maximal = gen.flag_complex(rng, 9, 22)
        basis = gen.closure(maximal)
        pid = f"flag{j}_cfw"
        files = lad.pair(pid, maximal, gen.cfw_weight(rng, basis))
        _pair_queries(lad, pid, files, range(max(basis) + 1), every)
    maximal = gen.skeleton(5, 2)
    basis = gen.closure(maximal)
    pid = "d5s2_broken"
    k, w, _ = lad.pair(pid, maximal, gen.broken(gen.dawson_weight(rng, basis), basis))
    lad.cli(["validate", "-k", k, "-w", w, "--strict"],
            {"type": "validate", "pair": pid, "exit": 1})


def build_spectral(lad: Ladder) -> None:
    rng = lad.rng
    for k in (4, 5):
        maximal = gen.skeleton(k, 2)
        basis = gen.closure(maximal)
        for field, cplx in (("q", False), ("qi", True)):
            pid = f"d{k}_{field}"
            table = gen.quotient_weight(rng, basis, cplx)
            k_, w_, i_ = lad.pair(pid, maximal, table, gen.inner_weights(rng, basis))
            for n in range(3):
                base = ["-k", k_, "-w", w_, "-n", str(n)]
                check = {"pair": pid, "n": n}
                lad.cli(["laplacian", *base], {**check, "type": "laplacian"})
                lad.cli(["spectrum", *base], {**check, "type": "spectrum"})
                lad.cli(["spectrum", *base, "--inner-weights", i_],
                        {**check, "type": "spectrum", "inner": True})
                lad.cli(["harmonic", *base], {**check, "type": "harmonic"})
                lad.cli(["multiplicities", *base], {**check, "type": "multiplicities"})
    maximal = gen.skeleton(6, 2)
    basis = gen.closure(maximal)
    for field, cplx in (("q", False), ("qi", True)):
        pid = f"d6_{field}"
        k_, w_, _ = lad.pair(pid, maximal, gen.quotient_weight(rng, basis, cplx))
        lad.cli(["laplacian", "-k", k_, "-w", w_, "-n", "1"],
                {"type": "laplacian", "pair": pid, "n": 1})
    for e in (1, 3, 5, 7):
        pid = f"pentagon{e}"
        k_, w_, _ = lad.pair(pid, gen.cycle(5), gen.ngon_weight(gen.pentagon_alphas(e)))
        defect = PENTAGON_DEFECT if e in DEFECT_EXPONENTS else None
        for n in (0, 1):
            base = ["-k", k_, "-w", w_, "-n", str(n)]
            lad.cli(["spectrum", *base], {"type": "spectrum", "pair": pid, "n": n}, defect)
            lad.cli(["harmonic", *base], {"type": "harmonic", "pair": pid, "n": n}, defect)
    labels = sorted(FFL_KINDS)
    for label in labels:
        lad.cli(["ffl", "--type", label], {"type": "ffl", "label": label})
    for label in labels:
        rows = [[gen.real(x) for x in row] for row in ffl_laplacian(label)]
        path = lad._file(f"ffl_{label}.mat", gen.matrix_text(rows))
        lad.cli(["ffl", "--classify", path], {"type": "ffl", "label": label})


def build_session(lad: Ladder) -> None:
    rng = lad.rng
    plan = []
    maximal = gen.skeleton(5, 2)
    basis = gen.closure(maximal)
    plan.append(("d5_q", maximal, gen.quotient_weight(rng, basis, False)))
    plan.append(("d5_qi", maximal, gen.quotient_weight(rng, basis, True)))
    tris, nverts, _ = gen.KNOWN_SURFACES["torus"]
    maximal = gen.relabel(rng, tris, nverts)
    plan.append(("torus_dawson", maximal, gen.dawson_weight(rng, gen.closure(maximal))))
    tris, nverts, _ = gen.KNOWN_SURFACES["klein"]
    maximal = gen.relabel(rng, tris, nverts)
    plan.append(("klein_id", maximal, gen.identity_weight(gen.closure(maximal))))
    for pid, maximal, table in plan:
        lad.pair(pid, maximal, table, lib=True)
        integral = lad.pairs[pid].integral
        for n in range(3):
            ops = ["boundary", "coboundary", "rank", "cohomology_dim", "laplacian",
                   "spectrum", "harmonic", "multiplicities"]
            if integral:
                ops += ["homology", "snf"]
            for op in ops:
                if op in ("boundary", "rank", "snf") and n == 0:
                    continue
                lad.lib(op, pid, n)


def build_polygon(lad: Ladder) -> None:
    rng = lad.rng
    for case, sizes in (("ones", (25, 50, 75, 100, 150, 200, 300, 400)),
                        ("coprime", range(8, 19)),
                        ("shared", range(8, 23))):
        for n in sizes:
            alphas = gen.polygon_alphas(rng, n, case)
            lad.cli(["ngon", "--alphas", ",".join(map(str, alphas))],
                    {"type": "ngon", "alphas": alphas})
    for case in ("ones", "shared"):
        for n in (40, 60, 80, 100, 120, 140, 160):
            alphas = gen.polygon_alphas(rng, n, case)
            pid = f"cycle_{case}{n}"
            k = lad._file(f"{pid}.cplx", gen.complex_text(gen.cycle(n)))
            w = lad._file(f"{pid}.wts", gen.weight_text(gen.ngon_weight(alphas)))
            lad.cli(["homology", "-k", k, "-w", w, "-n", "0", "--strict"],
                    {"type": "ngon", "alphas": alphas})


BUILDERS = {
    "homology": build_homology,
    "spectral": build_spectral,
    "session": build_session,
    "polygon": build_polygon,
}


def build(name: str, seed: int, workdir: str) -> Ladder:
    lad = Ladder(name, seed, workdir)
    BUILDERS[name](lad)
    return lad
