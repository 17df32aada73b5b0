"""Spans recorded from outside the program, around calls into cubemorse.

A span has a name, a start, an end, a parent span and a pass id; spans are
kept in memory and written out when the run ends.  :func:`instrument`
temporarily replaces the public functions the pipeline calls internally
(crossing table, condensation, grading, the reduction rounds, flow counting
and the d^2 = 0 check) with wrappers that open a span around the original,
so the spans follow the production call order without changes to the
program.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from dataclasses import asdict, dataclass

from cubemorse import braid as cm_braid
from cubemorse import core as cm_core
from cubemorse import morse as cm_morse

# (owner, attribute, span name): the calls the pipeline makes internally.
WRAPPED = [
    (cm_braid, "crossing_table", "braid.crossing_table"),
    (cm_braid, "condensation", "braid.condensation"),
    (cm_braid, "grade_cells", "braid.grade_cells"),
    (cm_morse, "template_round", "morse.template_round"),
    (cm_morse, "generic_round", "morse.generic_round"),
    (cm_morse, "reduce_round", "morse.reduce_round"),
    (cm_morse, "morse_boundary", "morse.morse_boundary"),
    (cm_core.ExplicitComplex, "check_dd_zero", "core.ExplicitComplex.check_dd_zero"),
]


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    rss_mb: float = 0.0  # process high-water when the span ended

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes: no spans, no counters."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def counted(self, name, fn):
        return fn


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[dict] = []  # per pass id: counter name -> calls
        self.last: dict = {}  # span name -> the wrapped call's latest result
        self._stack: list[int] = []
        self.pass_id = -1

    def begin_pass(self) -> int:
        self.pass_id += 1
        self.counts.append({})
        return self.pass_id

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self.pass_id, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.rss_mb = maxrss_mb()
            self._stack.pop()

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls under ``name`` in this pass."""
        counts = self.counts[self.pass_id]
        counts[name] = 0

        def inner(*args):
            counts[name] += 1
            return fn(*args)

        return inner

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self_times(self.spans))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on :data:`WRAPPED`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name in WRAPPED:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tracer, name, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        tracer.last[name] = out
        return out

    return inner


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        hi = s.start
        for a, b in sorted(children.get(i, ())):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out.append(s.duration - covered)
    return out


def check_self_times(spans: list[Span]) -> list[str]:
    """Self times are nonnegative and add up, per root, to the root's duration."""
    own = self_times(spans)
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s.parent is None else root_of[s.parent])
    total: dict[int, float] = {}
    bad = []
    for i, t in enumerate(own):
        if t < -1e-9:
            bad.append(f"span {spans[i].name} has negative self time {t}")
        total[root_of[i]] = total.get(root_of[i], 0.0) + t
    for r, t in total.items():
        if abs(t - spans[r].duration) > 1e-9 * max(1.0, spans[r].duration):
            bad.append(f"self times under {spans[r].name} sum to {t}, span lasts {spans[r].duration}")
    return bad


def pass_layers(spans: list[Span], pass_id: int) -> dict:
    """The per-layer times of one traced pass, from its spans."""
    mine = [s for s in spans if s.pass_id == pass_id]
    total: dict[str, float] = {}
    for s in mine:
        total[s.name] = total.get(s.name, 0.0) + s.duration
    flow = 0.0
    dd_zero = 0.0
    for s in mine:
        parent = spans[s.parent].name if s.parent is not None else None
        if parent == "morse.template_round" and s.name == "morse.morse_boundary":
            flow += s.duration
        if parent == "morse.template_round" and s.name == "core.ExplicitComplex.check_dd_zero":
            dd_zero += s.duration
    t = total.get
    grading = t("braid.grade_cells", 0.0)
    pool = t("replay.grade_pool", 0.0)
    sweep = t("replay.sweep", 0.0)
    fibers = t("replay.iter_fibers", 0.0)
    return {
        "braid.crossing_s": t("braid.crossing_table", 0.0),
        "braid.condensation_s": t("braid.condensation", 0.0),
        "braid.grade_pool_s": pool,
        "braid.grade_verify_s": grading - pool,
        "braid.input_counts_s": t("braid.BraidComplex.input_counts", 0.0),
        "cubical.iter_fibers_s": fibers,
        "cubical.parse_s": t("cubical.parse_top_cell_file", 0.0),
        "cubical.closure_s": t("cubical.CubicalComplex.from_top_cells", 0.0),
        "matching.sweep_s": sweep,
        "matching.fiber_mate_s": sweep - fibers,
        "morse.round1_s": t("morse.template_round", 0.0),
        "morse.flow_s": flow,
        "morse.coreduce_s": t("morse.generic_round", 0.0),
        "morse.reduce_s": t("morse.reduce_round", 0.0),
        "matching.verify_matching_s": t("matching.verify_matching", 0.0),
        "matching.verify_acyclic_s": t("matching.verify_acyclic", 0.0),
        "matching.verify_stable_s": t("matching.verify_stable", 0.0),
        "core.validate_s": t("core.validate_complex", 0.0),
        "core.check_dd_zero_s": dd_zero,
        "pipeline_s": t("pipeline", 0.0),
    }
