"""Benchmark of the tokennets CLI: end-to-end times, or per-layer counts.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process and one thread run whole rounds of the workload's programs one
after another (a closed loop with one caller) until `--seconds` have
passed.  Each program goes through `tokennets.cli.main` in process, as
`tokennets FILE --engine all` with the program's backend and horizon, with
stdout captured and every line timestamped as it is written.  The `file:`
line ends set-up and each `engine: X` line ends that engine's run, which
splits one call into set-up and per-engine times.  Every answer is checked
against the program's expected answer (see programs.py).

An operation is one program loaded through the front end, or one
(program, engine) evaluation.  A failed operation raised, or gave a wrong
answer; the only failure expected is the RecursionError that the
1000-deep program in `deep` raises in the parser.

With `--trace 0` each end-to-end time is the mean of the middle half of
the rounds' values (see `middle_mean`).  With `--trace 1`, untraced and traced rounds alternate; the traced
ones wrap the public functions of every tokennets module from this
directory (see layers.py) and report per-layer counts and self times, and
the tracing overhead.  `--workload all` runs each workload in a fresh
process of its own, one after another.  The last line of stdout is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import programs

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("pcf_s", "s"),
    ("net_s", "s"),
    ("msiam_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)


class TimedLines(io.TextIOBase):
    """A stdout stand-in that keeps each line with the time it ended."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._buf: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._buf.append(s)
        if "\n" in s:
            now = time.perf_counter()
            text = "".join(self._buf)
            *done, rest = text.split("\n")
            self.lines.extend((now, line) for line in done)
            self._buf = [rest] if rest else []
        return len(s)


@dataclass
class Round:
    """Times, operation counts and failures of one round of a workload.

    `times` maps (metric, program name) to seconds."""

    times: dict[tuple[str, str], float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, bool]] = field(default_factory=list)  # (what, expected)

    def sum(self, metric: str) -> float:
        return sum(t for (m, _), t in self.times.items() if m == metric)


def run_cli_program(tn, prog, rnd: Round) -> None:
    """One `tokennets FILE --engine all` call: time it, check it."""
    argv = [prog.path, "--engine", "all", "--backend", prog.backend,
            "--horizon", str(prog.horizon)]
    out, err = TimedLines(), io.StringIO()
    rnd.attempted += 1 + len(checks.ENGINES)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tn.cli.main(argv)
    except Exception as e:  # noqa: BLE001 - a crash is a failed operation
        rc, crash = None, f"{type(e).__name__}: {e}"
    else:
        crash = None
    t1 = time.perf_counter()
    rnd.times["total_s", prog.name] = t1 - t0

    stamps = [t for t, _ in out.lines]
    text = [line for _, line in out.lines]
    if not any(line.startswith("file: ") for line in text):
        why = crash or f"exit code {rc}: {err.getvalue().strip()}"
        rnd.failures.append((f"{prog.name} front end: {why}", False))
        rnd.failures.extend((f"{prog.name} {e}: not run", False) for e in checks.ENGINES)
        return
    setup_end = stamps[next(i for i, l in enumerate(text) if l.startswith("file: "))]
    rnd.times["setup_s", prog.name] = setup_end - t0
    for i, line in enumerate(text):
        if line.startswith("engine: "):
            rnd.times[f"{line[len('engine: '):]}_s", prog.name] = stamps[i] - stamps[i - 1]

    reports, deltas = checks.parse_report(text)
    agreement = crash or checks.check_agreement(rc, deltas)
    for e in checks.ENGINES:
        wrong = checks.check_engine(reports.get(e), prog.expect) or agreement
        if wrong:
            rnd.failures.append((f"{prog.name} {e}: {wrong}", False))


def run_front_end_program(tn, prog, rnd: Round) -> None:
    """Load a program through parse and typecheck only."""
    rnd.attempted += 1
    t0 = time.perf_counter()
    try:
        backend = tn.cli.build_backend(prog.backend, None)
        with open(prog.path) as fh:
            tp = tn.pcfll.typecheck(tn.pcfll.parse(fh.read(), backend.labels))
    except RecursionError as e:
        rnd.failures.append((f"{prog.name} front end: RecursionError: {e}", True))
    except Exception as e:  # noqa: BLE001 - a crash is a failed operation
        rnd.failures.append((f"{prog.name} front end: {type(e).__name__}: {e}", False))
    else:
        if str(tp.type) != prog.expect_type:
            rnd.failures.append((f"{prog.name} front end: type {tp.type}", False))
    dt = time.perf_counter() - t0
    rnd.times["setup_s", prog.name] = rnd.times["total_s", prog.name] = dt


def run_round(tn, progs) -> Round:
    # A full collection first, so that collections fall at the same points
    # in every round.
    gc.collect()
    rnd = Round()
    for prog in progs:
        if prog.front_end_only:
            run_front_end_program(tn, prog, rnd)
        else:
            run_cli_program(tn, prog, rnd)
    return rnd


def middle_mean(values) -> float:
    """The mean of the middle half of `values` (the interquartile mean).

    Like the median it ignores a stray slow or fast round, but it averages
    the rounds it keeps: when the machine's speed shifts part way through a
    run, it moves in proportion instead of jumping from one speed to the
    other as the median of few rounds does."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def timed_rounds(run_round, seconds: float) -> list:
    """Run whole rounds (at least one) while the next is expected to end
    within `seconds`, going by the longest round so far."""
    out, longest = [], 0.0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        out.append(run_round())
        t1 = time.perf_counter()
        longest = max(longest, t1 - t0)
        if t1 + longest > deadline:
            return out


def load_tokennets():
    """Import tokennets from this checkout's src/, or fail with a message."""
    src = ROOT / "src"
    if not (src / "tokennets" / "cli.py").is_file():
        raise SystemExit(f"error: no tokennets sources under {src}")
    sys.path.insert(0, str(src))
    import tokennets
    from tokennets import cli, memory, msiam, nets, pars, pcfll, prognets, translate

    if Path(tokennets.__file__).resolve().parent != (src / "tokennets").resolve():
        raise SystemExit(f"error: imported tokennets from {tokennets.__file__}, not {src}")
    return argparse.Namespace(cli=cli, memory=memory, msiam=msiam, nets=nets, pars=pars,
                              pcfll=pcfll, prognets=prognets, translate=translate)


def write_sources(progs, workdir: Path):
    """Write generated programs into `workdir`; return the programs with
    their paths pointing there."""
    out = []
    for p in progs:
        if p.source is not None:
            path = workdir / p.path
            path.write_text(p.source)
            p = dataclasses.replace(p, path=str(path.relative_to(ROOT)))
        out.append(p)
    return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_workload(args) -> int:
    tn = load_tokennets()
    progs = programs.workload(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        progs = write_sources(progs, workdir)
        if args.trace:
            rounds, layer_metrics = layers.traced_rounds(
                tn, lambda: run_round(tn, progs),
                lambda pair: timed_rounds(pair, args.seconds),
                ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.json")
        else:
            rounds = timed_rounds(lambda: run_round(tn, progs), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    correct = all(expected for r in rounds for _, expected in r.failures)
    for what in dict.fromkeys(what for r in rounds for what, _ in r.failures):
        print(f"failed: {what}")
    print(f"workload: {args.workload}")
    print(f"seed: {args.seed}")
    print(f"rounds: {len(rounds)}")
    print(f"attempted: {attempted}")
    print(f"failed: {failed}")
    print(f"correct: {str(correct).lower()}")
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {k: {"value": middle_mean(r.sum(k) for r in rounds), "unit": u}
                   for k, u in END_TO_END if k != "peak_rss_mb"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MB"}
    for k, m in metrics.items():
        print(f"{k}: {m['value']} {m['unit']}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in programs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=programs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
