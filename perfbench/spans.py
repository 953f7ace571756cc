"""In-memory span tracer for the layers of sunharm.

The tracer wraps layer functions where ``sunharm.verify``,
``sunharm.harmonic`` and ``sunharm.checks`` bind them, so a traced run
follows the program's own call path.  Each call records one span
``(layer, function, start, end, parent)``; spans stay in memory until the
run ends.  Counting work done for the trace (nonzeros, bit sizes) is kept
in spans of the pseudo-layer ``trace``, so it is never charged to a layer
of the program.
"""

from __future__ import annotations

import functools
import time

from sunharm import ZERO, checks, harmonic, verify

# Function name -> layer.  ``kernel_basis`` is the solve of an
# assembled constraint system where verify and harmonic call it; in checks it
# eliminates the mid-size relation systems of the lemma battery.
LAYERS = {
    "assemble_system": "assemble",
    "kernel_basis": "linalg",
    "rank_of_rows": "linalg",
    "same_span": "linalg",
    "rank": "linalg",
    "det": "linalg",
    "cocycle_from_vector": "convert",
    "classify": "classify",
    "kernel_is_invariant": "invariance",
    "lemma_battery": "lemmas",
    "riemann_split_report": "riemann",
}
SOLVE_SITES = ("sunharm.verify", "sunharm.harmonic")
MODULES = (verify, harmonic, checks)


def _rows_in(func: str, args: tuple) -> int:
    """Rows handed to one elimination call."""
    if func in ("kernel_basis", "rank", "det"):
        return args[0].rows
    if func == "same_span":
        return len(args[0]) + len(args[1])
    return len(args[0])


def _max_bits(vectors) -> int:
    bits = 0
    for v in vectors:
        for z in v:
            for q in (z.re, z.im):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _nonzeros(M) -> int:
    # list.count tests identity before equality, so the shared ZERO entries
    # of an assembled system are counted without a Python-level comparison
    return M.rows * M.cols - sum(M.row(i).count(ZERO) for i in range(M.rows))


class Tracer:
    """Records spans and counts while installed; restores the program on
    ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, func, start, end, parent]
        self.counts = {
            "invariance.calls": 0,
            "linalg.calls": 0,
            "linalg.rows_in": 0,
            "assemble.entries": 0,
            "assemble.nnz": 0,
            "lemmas.entries": 0,
            "exactfield.max_bits": 0,
        }
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, layer: str, func: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, func, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def span(self, layer: str, func: str, call, *args, **kwargs):
        idx = self._open(layer, func)
        try:
            return call(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, site: str, name: str, fn):
        layer = LAYERS[name]
        if name == "kernel_basis" and site in SOLVE_SITES:
            layer = "linalg.solve"
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "rank_of_rows":
                # the rows may come as an iterator: make a list, so they can
                # still be counted after the call
                args = (list(args[0]),) + args[1:]
            out = self.span(layer, name, fn, *args, **kwargs)
            idx = self._open("trace", name)
            if layer.startswith("linalg"):
                counts["linalg.calls"] += 1
                counts["linalg.rows_in"] += _rows_in(name, args)
            if layer == "linalg.solve":
                counts["exactfield.max_bits"] = max(
                    counts["exactfield.max_bits"], _max_bits(out)
                )
            elif name == "assemble_system":
                counts["assemble.entries"] += out.rows * out.cols
                counts["assemble.nnz"] += _nonzeros(out)
            elif name == "kernel_is_invariant":
                counts["invariance.calls"] += 1
            elif name == "lemma_battery":
                counts["lemmas.entries"] += len(out)
            self._close(idx)
            return out

        return traced

    def install(self) -> None:
        for mod in MODULES:
            for name in LAYERS:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(mod.__name__, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts from the recorded spans.

        A span's self time is its duration minus that of its direct
        children.  ``orchestration.self_s`` is the self time of the root
        span, which wraps the workload's public call.
        """
        self_s: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for layer, _f, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        solve_s = 0.0
        for i, (layer, _f, t0, t1, parent) in enumerate(self.spans):
            s = (t1 - t0) - child[i]
            if layer == "linalg.solve":
                solve_s += s
                layer = "linalg"
            elif parent < 0:
                layer = "orchestration"
            self_s[layer] = self_s.get(layer, 0.0) + s
        out = {
            "invariance.self_s": self_s.get("invariance", 0.0),
            "linalg.solve_s": solve_s,
            "linalg.self_s": self_s.get("linalg", 0.0),
            "assemble.self_s": self_s.get("assemble", 0.0),
            "harmonic.convert_s": self_s.get("convert", 0.0),
            "classify.self_s": self_s.get("classify", 0.0),
            "lemmas.self_s": self_s.get("lemmas", 0.0),
            "riemann.self_s": self_s.get("riemann", 0.0),
            "orchestration.self_s": self_s.get("orchestration", 0.0),
            "trace.self_s": self_s.get("trace", 0.0),
        }
        out.update(self.counts)
        return out
