"""Spans around the public functions of every ``wordseries`` module.

The tracer wraps, from outside the package, each public module-level
function and each public method of a public class, and rebinds every
import site (``words_up_to_grading`` is bound separately in ``ncpoly``,
``hopf``, ``linrep``, ``hyperlog`` and ``cli``).  A span records name,
start, end, parent span and job index in flat arrays held in memory;
``write_spans`` saves them when the pass ends.

A handful of leaf methods called per letter or per comparison (``SKIP``)
are left unwrapped: a span costs about a microsecond, and they would
multiply the traced run time.  Their time counts as self time of the
calling span.  ``Word.__init__`` is counted but not spanned, for the same
reason.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("words", "ncpoly", "exactlin", "hopf", "linrep", "hyperlog", "cli")

SKIP = frozenset(
    {
        "words.Alphabet.check_letter",
        "words.Alphabet.letter_weight",
        "words.Alphabet.letter_key",
        "words.Alphabet.letter_display_key",
        "words.Alphabet.letter_name",
        "words.Word.lex_key",
        "words.Word.sort_key",
        "words.Word.display_key",
        "words.grading",
        "exactlin.frac",
        "ncpoly.NCPoly.coeff",
        "ncpoly.TruncSeries.coeff",
        "ncpoly.PhiTable.gamma",
        "hyperlog.FormFamily.u",
        "hyperlog.SingularitySet.s",
        "hyperlog.SingularitySet.rho",
    }
)

# named groups of spans whose self time is reported on its own
GROUPS = {
    "words.lyndon_self_s": (
        "words.lyndon_words", "words.lyndon_factorization",
        "words.standard_factorization", "words.is_lyndon",
    ),
    "ncpoly.shuffle_self_s": ("ncpoly.shuffle", "ncpoly.phi_shuffle"),
    "ncpoly.pi1_self_s": ("ncpoly.pi1",),
    "ncpoly.coproduct_self_s": (
        "ncpoly.coproduct", "ncpoly.delta_conc", "ncpoly.delta_shuffle", "ncpoly.delta_phi",
    ),
    "hopf.sigma_self_s": ("hopf.DualBases.sigma",),
    "hopf.diagonal_self_s": ("hopf.diagonal_factorization_check",),
    "linrep.eval_truncated_self_s": ("linrep.LinRep.eval_truncated",),
    "linrep.minimize_self_s": ("linrep.minimize",),
    "linrep.closure_self_s": (
        "linrep.rat_sum", "linrep.rat_conc", "linrep.rat_star",
        "linrep.rat_shuffle", "linrep.rat_phi_shuffle",
    ),
    "linrep.check_self_s": ("linrep.mxstar_factorization_check", "linrep.triangular_decompose"),
    "hyperlog.chen_series_self_s": ("hyperlog.chen_series",),
    "hyperlog.pairing_self_s": ("hyperlog.system_output",),
    "hyperlog.nested_sum_self_s": ("hyperlog.polylog", "hyperlog.harmonic_sum", "hyperlog.polyzeta"),
}

# counts of spans by name
CALL_COUNTS = {
    "exactlin.rref_calls": "exactlin.rref",
    "exactlin.solve_calls": "exactlin.solve",
    "exactlin.rowspace_adds": "exactlin.RowSpace.add",
}


# counts accumulated by WORK_COUNTS, ncpoly results and Word.__init__
COUNTERS = ("words.word_constructions", "words.words_enumerated", "ncpoly.terms_out",
            "exactlin.rref_cells", "hyperlog.chen_words")


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for short in MODULES:
        units.update({f"{short}.calls": "count", f"{short}.self_s": "s", f"{short}.share": "ratio"})
    units.update({m: "s" for m in GROUPS})
    units.update({m: "count" for m in CALL_COUNTS})
    units.update({c: "count" for c in COUNTERS})
    units["ncpoly.shuffle_cache_entries"] = "count"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _cells(args, result) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if len(rows) else 0)


def _terms(args, result) -> int:
    return len(result.terms) if isinstance(getattr(result, "terms", None), dict) else 0


# work counted from the arguments or result of a call: span name -> (counter, measure)
WORK_COUNTS = {
    "words.words_up_to_grading": ("words.words_enumerated", lambda args, result: len(result)),
    "exactlin.rref": ("exactlin.rref_cells", _cells),
    "exactlin.solve": ("exactlin.rref_cells", _cells),
    "exactlin.inverse": ("exactlin.rref_cells", _cells),
    "hyperlog.chen_series": ("hyperlog.chen_words", lambda args, result: len(result.coeffs)),
}


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the time its child spans cover.

    Spans come from one thread and close in stack order, so the children of
    a span never overlap and their durations simply add up.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.jobs = array("i")
        self.stack = [-1]
        self.job = -1
        self.work: Counter = Counter()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        start, end, parent, name, jobs, stack = (
            self.start, self.end, self.parent, self.name, self.jobs, self.stack,
        )
        clock = time.perf_counter
        work = WORK_COUNTS.get(span_name)
        if work is None and span_name.startswith("ncpoly.") and span_name.count(".") == 1:
            work = ("ncpoly.terms_out", _terms)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            jobs.append(tracer.job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                tracer.work[work[0]] += work[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__qualname__ = getattr(fn, "__qualname__", span_name)
        return traced

    def install(self) -> None:
        """Wrap the package's public functions and rebind every import site."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"wordseries.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{short}.{attr}"
                    if span not in SKIP:
                        replaced[id(obj)] = self.wrap(span, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wordseries" or mod_name.startswith("wordseries.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            span = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") or span in SKIP:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(span, raw))
        if short == "words" and cls.__name__ == "Word":
            init = cls.__init__
            work = self.work

            def counted_init(self_, *args, **kwargs):
                work["words.word_constructions"] += 1
                init(self_, *args, **kwargs)

            cls.__init__ = counted_init

    # -- results ------------------------------------------------------------

    def report(self, wall: float, output_bytes: int) -> dict:
        """Per-layer metrics of the pass: all of metric_units() except the
        overhead ratio, which needs a plain pass."""
        selfs = self_times(self.start, self.end, self.parent)
        by_name_self: Counter = Counter()
        by_name_calls: Counter = Counter()
        for nid, s in zip(self.name, selfs):
            span = self.names[nid]
            by_name_self[span] += s
            by_name_calls[span] += 1
        out: dict[str, float] = {}
        for short in MODULES:
            prefix = short + "."
            self_s = sum(s for n, s in by_name_self.items() if n.startswith(prefix))
            out[f"{short}.calls"] = sum(c for n, c in by_name_calls.items() if n.startswith(prefix))
            out[f"{short}.self_s"] = self_s
            out[f"{short}.share"] = self_s / wall
        for metric, spans in GROUPS.items():
            out[metric] = sum(by_name_self[n] for n in spans)
        for metric, span in CALL_COUNTS.items():
            out[metric] = by_name_calls[span]
        for counter in COUNTERS:
            out[counter] = self.work[counter]
        out["ncpoly.shuffle_cache_entries"] = len(sys.modules["wordseries.ncpoly"]._shuffle_cache)
        out["cli.output_bytes"] = output_bytes
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, job index."""
        with open(path, "w") as fh:
            json.dump({"names": self.names}, fh)
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.jobs[i]}]\n"
                )
