"""Spans and counts recorded from outside the package.

The tracer replaces a function at the name its caller looks it up by,
for example `qssbounds.prover.solve`, with a wrapper that records a span
(name, start, end, parent span, job id) and, for some functions, counts
taken from the arguments and the result.  Spans stay in memory until the
run ends.  `uninstall` puts every original function back, so untraced
passes run the package unchanged.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# Functions of `structures` that `prover` and `cli` call by their own names.
STRUCTURE_FUNCTIONS = ("purify", "is_self_dual", "dual", "is_quantum", "csirmaz")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _result_bits(solution) -> int:
    """Largest numerator or denominator bit length in a returned solution."""
    values = [solution.value] if solution.value is not None else []
    values.extend(solution.primal or ())
    values.extend(solution.duals or ())
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _count_build(counts, args, kwargs, system) -> None:
    counts["cone.rows_built"] += len(system)


def _count_solve(counts, args, kwargs, solution) -> None:
    problem = _arg(args, kwargs, 0, "problem")
    counts["simplex.pivots"] += solution.pivots
    counts["simplex.rows_in"] += len(problem.rows)
    counts["simplex.not_optimal"] += solution.status != "optimal"
    counts["simplex.result_bits"] = max(counts["simplex.result_bits"], _result_bits(solution))


def _count_verify(counts, args, kwargs, result) -> None:
    counts["prover.cert_entries"] += len(_arg(args, kwargs, 1, "cert").entries)


def _count_check(counts, args, kwargs, result) -> None:
    counts["prover.check_useful"] += len(result.certificates) + (result.witness is not None)


class Tracer:
    """In-memory span recorder with wrappers at the package's call sites."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    def open(self, name: str, start: float | None = None) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter() if start is None else start
        return rec

    def close(self, rec: list, end: float | None = None) -> None:
        rec[2] = perf_counter() if end is None else end
        self.stack.pop()

    def wrap(self, module, attr: str, name: str, count=None, count_raised=False) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(rec)
                if count_raised:
                    count(tracer.counts, args, kwargs, None)
                raise
            tracer.close(rec)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def install(self, q) -> None:
        """Wrap the calls into each layer, at the names `prover` and `cli` use."""
        prover, cli = q.prover, q.cli
        self.wrap(prover, "build_system", "cone.build_system", _count_build)
        self.wrap(prover, "solve", "simplex.solve", _count_solve)
        self.wrap(prover, "extract_certificate", "simplex.extract_certificate")
        for module in (prover, cli):
            # An unknown row id makes replay raise after it was handed the entries.
            self.wrap(module, "verify_certificate", "prover.verify_certificate",
                      _count_verify, count_raised=True)
            for fn in STRUCTURE_FUNCTIONS:
                self.wrap(module, fn, f"structures.{fn}")
        self.wrap(prover, "share_bound", "prover.share_bound")
        self.wrap(prover, "lemma_suite", "prover.lemma_suite")
        self.wrap(prover, "check_implied", "prover.check_implied", _count_check)
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# Span name -> the per-layer metric prefix its self time and calls go to.
LAYER_OF = {
    "job": "harness",
    "cone.build_system": "cone.build_system",
    "simplex.solve": "simplex.solve",
    "simplex.extract_certificate": "simplex.extract_certificate",
    "prover.share_bound": "prover",
    "prover.lemma_suite": "prover",
    "prover.check_implied": "prover",
    "prover.verify_certificate": "prover.verify_certificate",
    "cli.main": "cli.main",
}
LAYER_OF.update({f"structures.{fn}": "structures" for fn in STRUCTURE_FUNCTIONS})
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def layer_totals(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Self time and calls per layer, plus solves made under check_implied.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one job's spans add up to the job's
    root span.
    """
    child = [0.0] * (last - first)
    for i in range(first, last):
        parent = spans[i][3]
        if parent is not None:
            child[parent - first] += spans[i][2] - spans[i][1]
    out: Counter = Counter()
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        layer = LAYER_OF[name]
        out[f"{layer}.self_s"] += (end - start) - child[i - first]
        out[f"{layer}.calls"] += 1
        if name == "simplex.solve":
            p = parent
            while p is not None and spans[p][0] != "prover.check_implied":
                p = spans[p][3]
            out["prover.check_solves"] += p is not None
    return out
