"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
alias of it: the package imports names directly (``cli`` holds its own
``smith_normal_form``, ``spectral`` its own ``coboundary_matrix``, the
package namespace re-exports nearly everything), so patching only the
defining module would miss most calls.  Methods are patched on their class.

Each call opens a span on a stack.  A span's self time is its duration
minus the full cost of the wrapped calls made inside it (their durations
plus the wrapper's own bookkeeping), so neither children nor tracing cost
is charged to the parent.  Spans are kept in memory and written out once
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute) of every traced function; dotted attributes are methods.
TARGETS = [
    ("complexes", "read_complex_file"),
    ("weights", "read_weight_file"),
    ("weights", "validate_weight"),
    ("chains", "boundary_matrix"),
    ("matrices", "ExactMatrix.rank"),
    ("matrices", "ExactMatrix.__matmul__"),
    ("matrices", "ExactMatrix.to_ndarray"),
    ("homology", "smith_normal_form"),
    ("homology", "weighted_homology"),
    ("homology", "ngon_homology_closed_form"),
    ("polygons", "make_ngon"),
    ("spectral", "cohomology_dim"),
    ("spectral", "laplacian_matrix"),
    ("spectral", "weighted_inner_laplacian"),
    ("spectral", "zero_multiplicity_formulas"),
    ("spectral", "harmonic_basis"),
    ("eigen", "hermitian_eigh"),
    ("eigen", "jacobi_eigh"),
    ("ffl", "classify_ffl"),
    ("cli", "main"),
]


# -- per-call attributes, computed after the call from its arguments ------------


def _boundary_attrs(tracer, args, result):
    phi, n = args[1], args[2]
    tracer.hold(phi)  # keeps id(phi) unique for the rest of the pass
    nnz = sum(1 for row in result.data for x in row if x)
    return {"nnz": nnz, "key": f"{id(phi)}:{n}"}


def _matmul_attrs(tracer, args, result):
    a, b = args[0], args[1]
    return {"scalar_mults": a.rows * a.cols * b.cols}


def _snf_attrs(tracer, args, result):
    m = args[0]
    rows = m.data if hasattr(m, "data") else m
    top = max((abs(getattr(x, "re", x).numerator) for row in rows for x in row), default=0)
    return {"input_max_bits": top.bit_length()}


def _jacobi_attrs(tracer, args, result):
    return {"dim": int(np.asarray(args[0]).shape[0])}


def _eigh_attrs(tracer, args, result):
    a = np.asarray(args[0])
    return {"embedded": int(bool(np.iscomplexobj(a) and np.any(a.imag)))}


def _stdout_pos() -> int:
    return sys.stdout.tell() if hasattr(sys.stdout, "tell") else 0


ATTRS = {
    "chains.boundary_matrix": _boundary_attrs,
    "matrices.ExactMatrix.__matmul__": _matmul_attrs,
    "homology.smith_normal_form": _snf_attrs,
    "eigen.jacobi_eigh": _jacobi_attrs,
    "eigen.hermitian_eigh": _eigh_attrs,
}


class Tracer:
    """Span recorder.  ``pass_no`` and ``query`` tag every span opened while
    they are set; ``spans`` holds (id, parent id, name, pass, query, start,
    end, self seconds, error type, attributes) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_no = -1
        self.query = None
        self._stack: list[list] = []
        self._next_id = 0
        self._held: list = []

    def hold(self, obj) -> None:
        self._held.append(obj)

    def begin_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self._held = []

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        attrs_of = ATTRS.get(name)
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            before = _stdout_pos() if is_main else None
            error = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                attrs = None
                if is_main:
                    attrs = {"output_bytes": _stdout_pos() - before}
                elif attrs_of is not None and error is None:
                    try:
                        attrs = attrs_of(tracer, args, result)
                    except (AttributeError, TypeError, ValueError, IndexError):
                        attrs = None  # the layer's interface changed; count only
                tracer.spans.append((span_id, parent, name, tracer.pass_no, tracer.query,
                                     t0, t1, t1 - t0 - frame[0], error, attrs))
                if stack:
                    stack[-1][0] += clock() - entered

        return wrapper

    def install(self, package: str = "wsimplex") -> dict[str, int]:
        """Wrap every target and rebind all its aliases in the package's
        modules.  Returns the number of bindings replaced per target, 0 for
        a target the package no longer has."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        rebound = {}
        originals = []
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = sys.modules.get(f"{package}.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                rebound[name] = 0
                continue
            originals.append(original)
            wrapper = self.wrap(name, original)
            setattr(owner, leaf, wrapper)
            count = 1
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        count += 1
            rebound[name] = count
        missed = [f"{mod.__name__}.{key}" for mod in modules
                  for key, value in vars(mod).items()
                  if any(value is fn for fn in originals)]
        if missed:
            raise RuntimeError(f"unwrapped aliases remain: {missed}")
        return rebound
