"""Per-layer tracing of tokennets, from outside the package.

`Tracer.install` wraps the public functions of every tokennets module
(`cli`, `pcfll`, `translate`, `nets`, `pars`, `prognets`, `msiam`,
`memory`) in place: module functions in every module that imported them,
methods on their classes.  `uninstall` puts the originals back.

Three kinds of wrapper:

- a *span* (front-end calls, each CLI call, each (program, engine)
  evaluation, each fused step) records its name, start, end, parent span
  and engine;
- a *timed* call adds one call and its self time to the enclosing span;
- a *counted* call (the hottest ones, such as `MsSystem.token_step`) adds
  one call to the enclosing span and nothing else.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

# (metric, unit) as the traced run reports them, grouped by layer.  The
# BENCHMARK.json `per_layer` list names the same metrics.
PER_LAYER = (
    [("pcfll.parse_s", "s"), ("pcfll.typecheck_s", "s"),
     ("pcfll.step_calls", "count"), ("pcfll.step_s", "s"), ("pcfll.find_redex_s", "s"),
     ("pcfll.canonical_key_calls", "count"), ("pcfll.canonical_key_s", "s")]
    + [(f"pcfll.rule.{k}", "count")
       for k in ("link", "beta", "letrec", "update", "letpair", "test")]
    + [("translate.translate_s", "s"), ("translate.net_nodes", "count")]
    + [("nets.validate_s", "s"), ("nets.check_correct_s", "s"),
       ("nets.copy_calls", "count"), ("nets.copy_s", "s"),
       ("nets.signature_calls", "count"), ("nets.signature_s", "s"),
       ("nets.find_redexes_s", "s")]
    + [("prognets.enumerate_calls", "count"), ("prognets.enumerate_s", "s"),
       ("prognets.step_s", "s"), ("prognets.canonical_key_calls", "count"),
       ("prognets.canonical_key_s", "s"), ("prognets.peak_nodes", "count")]
    + [(f"prognets.rule.{k}", "count")
       for k in ("link", "ax", "tensor_par", "d_box", "w_box", "c_box", "y_unfold",
                 "absorb", "sync", "test")]
    + [("msiam.index_s", "s"), ("msiam.enumerate_calls", "count"), ("msiam.enumerate_s", "s"),
       ("msiam.token_step_calls", "count"), ("msiam.copies_calls", "count"),
       ("msiam.copies_s", "s"), ("msiam.apply_s", "s"),
       ("msiam.canonical_key_calls", "count"),
       ("msiam.peak_tokens", "count")]
    + [(f"msiam.transition.{k}", "count") for k in ("move", "link", "spawn", "update", "test")]
    + [(f"pars.{m}.{e}", u) for m, u in (("fused_steps", "count"), ("micro_steps", "count"),
                                          ("enumerations_per_element", "ratio"),
                                          ("peak_support", "count"))
       for e in ("pcf", "net", "msiam")]
    + [("pars.distribution_builds", "count"), ("pars.dirac_builds", "count"),
       ("pars.distribution_s", "s")]
    + [("memory.update_calls", "count"), ("memory.update_s", "s"),
       ("memory.test_calls", "count"), ("memory.test_s", "s"),
       ("memory.rename_calls", "count"), ("memory.rename_s", "s"),
       ("memory.hash_calls", "count")]
    + [("cli.report_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in ("cli", "pcfll", "translate", "nets", "pars",
                                              "prognets", "msiam", "memory")]
    + [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]
)
ENGINES = ("pcf", "net", "msiam")


def _deep_nodes(net) -> int:
    return sum(1 + sum(_deep_nodes(c) for c in n.contents) for n in net.nodes.values())


class Span:
    __slots__ = ("id", "parent", "round", "name", "engine", "start", "end", "calls",
                 "self_s", "tally", "peaks")

    def __init__(self, id, parent, rnd, name, engine, start):
        self.id, self.parent, self.round, self.name = id, parent, rnd, name
        self.engine, self.start, self.end = engine, start, None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.tally: Counter = Counter()
        self.peaks: dict = {}

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def record(self) -> list:
        return [self.id, self.parent, self.round, self.name, self.engine, self.start,
                self.end, dict(self.calls), dict(self.self_s), dict(self.tally), self.peaks]


class Tracer:
    def __init__(self, tn):
        self.tn = tn
        self._modules = [tn.cli, tn.pcfll, tn.translate, tn.nets, tn.pars, tn.prognets,
                         tn.msiam, tn.memory]
        self.stack: list[list] = []  # per active wrapped call: [start, child time]
        self.spans: list[Span] = []
        self.current: Span | None = None
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _replace(self, owner, attr, make):
        """Replace owner.attr (and every module-level alias of it) by
        make(original)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        new = make(func)
        new = classmethod(new) if isinstance(raw, classmethod) else new
        targets = [owner] if isinstance(owner, type) else [
            m for m in self._modules if getattr(m, attr, None) is raw]
        for t in targets:
            self._undo.append((t, attr, raw))
            setattr(t, attr, new)

    def counted(self, owner, attr, name):
        tr = self

        def make(f):
            def counted_call(*a, **k):
                tr.current.calls[name] += 1
                return f(*a, **k)
            return counted_call

        self._replace(owner, attr, make)

    def timed(self, owner, attr, name, before=None, after=None):
        tr, stack, clock = self, self.stack, time.perf_counter

        def make(f):
            def timed_call(*a, **k):
                if before is not None:
                    before(tr.current, a)
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    res = f(*a, **k)
                finally:
                    dur = clock() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    span = tr.current
                    span.calls[name] += 1
                    span.self_s[name] += dur - frame[1]
                if after is not None:
                    after(tr.current, a, res)
                return res
            return timed_call

        self._replace(owner, attr, make)

    def span(self, owner, attr, name, engine_arg=None, after=None):
        tr, stack, clock, spans = self, self.stack, time.perf_counter, self.spans

        def make(f):
            def span_call(*a, **k):
                parent = tr.current
                engine = a[engine_arg] if engine_arg is not None else parent.engine
                frame = [clock(), 0.0]
                span = Span(len(spans), parent.id, parent.round, name, engine, frame[0])
                spans.append(span)
                tr.current = span
                stack.append(frame)
                try:
                    res = f(*a, **k)
                finally:
                    span.end = clock()
                    dur = span.end - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    span.calls[name] += 1
                    span.self_s[name] += dur - frame[1]
                    tr.current = parent
                if after is not None:
                    after(span, a, res)
                return res
            return span_call

        self._replace(owner, attr, make)

    # -- installation ------------------------------------------------------

    def begin_round(self, rnd: int) -> None:
        """Open the span of traced round `rnd`; every other span nests in it."""
        self.current = Span(len(self.spans), None, rnd, "round", None, time.perf_counter())
        self.spans.append(self.current)

    def end_round(self) -> None:
        self.current.end = time.perf_counter()
        self.current = None

    def install(self) -> None:
        """Wrap the public functions of the tokennets modules."""
        tn = self.tn

        def produced(span, a, res):
            span.tally[f"pars.elements.{span.engine}"] += len(res)
            span.tally[f"pars.micro_steps.{span.engine}"] += 1

        def enumerated(span, a):
            span.tally[f"pars.enumerations.{span.engine}"] += 1

        def started(span, a, res):
            span.tally[f"pars.elements.{span.engine}"] += 1

        # cli: one span per CLI call, per engine set-up, per engine run and report
        self.span(tn.cli, "main", "cli.main")
        self.span(tn.cli, "make_engine", "cli.make_engine", engine_arg=0, after=started)
        self.span(tn.cli, "report_engine", "cli.report", engine_arg=0)
        self.span(tn.cli, "run_to_horizon", "cli.run_to_horizon")
        # front end
        self.span(tn.pcfll, "parse", "pcfll.parse")
        self.span(tn.pcfll, "typecheck", "pcfll.typecheck")
        self.span(tn.translate, "translate", "translate.translate",
                  after=lambda s, a, pn: s.tally.update({"translate.net_nodes": _deep_nodes(pn.net)}))
        self.span(tn.nets, "validate", "nets.validate")
        self.span(tn.nets, "check_correct", "nets.check_correct")
        # pcf machine
        self.timed(tn.pcfll, "closure_step", "pcfll.step",
                   before=lambda s, a: s.tally.update({f"pcfll.rule.{a[1][0]}": 1}),
                   after=produced)
        self.timed(tn.pcfll, "find_redex", "pcfll.find_redex", before=enumerated)
        self.timed(tn.pcfll.Closure, "canonical_key", "pcfll.canonical_key")
        # net rewriting
        self.timed(tn.nets.Net, "__deepcopy__", "nets.copy")
        self.timed(tn.nets.Net, "signature", "nets.signature")
        self.timed(tn.nets, "find_redexes", "nets.find_redexes")
        self.timed(tn.nets, "reduce", "nets.reduce")
        self.timed(tn.nets, "reduce_test", "nets.reduce_test")

        def pn_rule(span, a):
            pn, r = a
            kind = r.kind if r.kind == "link" else r.net_redex.kind
            span.tally[f"prognets.rule.{kind}"] += 1
            span.peak("prognets.peak_nodes", len(pn.net.nodes))

        self.timed(tn.prognets, "enumerate_redexes", "prognets.enumerate", before=enumerated)
        self.timed(tn.prognets, "step", "prognets.step", before=pn_rule, after=produced)
        self.timed(tn.prognets.ProgramNet, "canonical_key", "prognets.canonical_key")

        # multi-token machine
        def ms_transition(span, a):
            _, st, t = a
            span.tally[f"msiam.transition.{t.kind}"] += 1
            span.peak("msiam.peak_tokens", len(st.tokens))

        self.timed(tn.msiam.NetIndex, "__init__", "msiam.index")
        self.timed(tn.msiam.MsSystem, "enumerate_redexes", "msiam.enumerate", before=enumerated)
        self.counted(tn.msiam.MsSystem, "token_step", "msiam.token_step")
        self.timed(tn.msiam.MsSystem, "copies", "msiam.copies")
        self.timed(tn.msiam.MsSystem, "apply", "msiam.apply", before=ms_transition,
                   after=produced)
        self.timed(tn.msiam.MachineState, "canonical_key", "msiam.canonical_key")
        # distributions and the fused-step adapter
        self.timed(tn.pars.Distribution, "__init__", "pars.distribution")
        self.counted(tn.pars.Distribution, "dirac", "pars.dirac")
        self.timed(tn.pars, "terminal_split", "pars.terminal_split",
                   before=lambda s, a: s.peak(f"pars.peak_support.{s.engine}", len(a[0])))
        self.timed(tn.pars, "lift_step", "pars.lift_step")
        self.timed(tn.pars.FusedSystem, "prepare", "pars.prepare")
        self.span(tn.pars.FusedSystem, "apply", "pars.fused_step")
        # memory backends
        for cls in (tn.memory.IntRegisterMemory, tn.memory.ProbRegisterMemory,
                    tn.memory.QuantumMemory):
            for op in ("update", "test", "rename"):
                self.timed(cls, op, f"memory.{op}")
            self.counted(cls, "__hash__", "memory.hash")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer metrics of one traced round, before overhead."""
        calls, self_s, tally, peaks = Counter(), Counter(), Counter(), {}
        for s in self.spans:
            if s.round != rnd:
                continue
            calls.update(s.calls)
            self_s.update(s.self_s)
            tally.update(s.tally)
            for k, v in s.peaks.items():
                peaks[k] = max(peaks.get(k, 0), v)
            if s.name == "pars.fused_step":
                tally[f"pars.fused_steps.{s.engine}"] += 1
        out: dict[str, float] = {}
        for name, n in calls.items():
            out[f"{name}_calls"] = n
            out[f"{name}_s"] = self_s[name]
        out.update(tally)
        out.update(peaks)
        out["cli.report_s"] = self_s["cli.report"]
        out["pars.distribution_builds"] = calls["pars.distribution"]
        out["pars.dirac_builds"] = calls["pars.dirac"]
        for e in ENGINES:
            elements = tally[f"pars.elements.{e}"]
            out[f"pars.enumerations_per_element.{e}"] = (
                tally[f"pars.enumerations.{e}"] / elements if elements else 0.0)
        for layer in ("cli", "pcfll", "translate", "nets", "pars", "prognets", "msiam",
                      "memory"):
            out[f"{layer}.self_s"] = sum(t for k, t in self_s.items()
                                         if k.split(".")[0] == layer)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        fields = ["id", "parent", "round", "name", "engine", "start", "end", "calls",
                  "self_s", "tally", "peaks"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": [s.record() for s in self.spans]}, fh)


def traced_rounds(tn, run_round, repeat, spans_path: Path):
    """Alternate untraced and traced rounds: `repeat` runs the pair of them
    as often as the run's time allows (at least once).  Returns (every round
    run, per-layer metrics): counts from the first traced round, times as
    medians over the traced rounds, and the tracing overhead as the
    difference of the median round totals."""
    rounds, plain, traced, per_round = [], [], [], []
    tracer = Tracer(tn)

    def pair():
        rnd = run_round()
        rounds.append(rnd)
        plain.append(rnd.sum("total_s"))
        tracer.begin_round(len(traced))
        tracer.install()
        try:
            rnd = run_round()
        finally:
            tracer.uninstall()
            tracer.end_round()
        rounds.append(rnd)
        traced.append(rnd.sum("total_s"))
        per_round.append(tracer.round_metrics(len(per_round)))

    repeat(pair)
    tracer.write_spans(spans_path)

    metrics = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [m.get(name, 0) for m in per_round]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                print(f"note: {name} differs between traced rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}
    u, t = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = {"value": t - u, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": t / u, "unit": "ratio"}
    return rounds, metrics
