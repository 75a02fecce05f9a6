"""The benchmark's per-layer tracer (`perfbench/layers.py`) wraps package
functions and methods by name, such as `pars.terminal_split`,
`pars.lift_step`, `FusedSystem.prepare`, `MsSystem.copies`,
`prognets.step`, `nets.find_redexes` and `Net.signature`.  Renaming or
deleting one of them breaks a traced benchmark run, so the tracer is
installed here on the package as the benchmark loads it, run on one
program, and uninstalled."""

import argparse
import os
from pathlib import Path

from tokennets import cli, memory, msiam, nets, pars, pcfll, prognets, translate

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def attributes(tn) -> dict:
    """Every attribute of the package's modules and of their classes."""
    owners = list(vars(tn).values())
    owners += [c for m in vars(tn).values() for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_benchmark_tracer_installs_runs_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from layers import Tracer

    # The namespace `perfbench/run.py` builds in `load_tokennets`.
    tn = argparse.Namespace(cli=cli, memory=memory, msiam=msiam, nets=nets, pars=pars,
                            pcfll=pcfll, prognets=prognets, translate=translate)
    before = attributes(tn)
    tracer = Tracer(tn)
    tracer.begin_round(0)
    tracer.install()
    try:
        assert pars.lift_step is not before[pars, "lift_step"]
        assert nets.Net.signature is not before[nets.Net, "signature"]
        rc = cli.main([str(CORPUS_DIR / "coin_prob.pcf"), "--engine", "all", "--backend", "prob",
                      "--horizon", "20"])
    finally:
        tracer.uninstall()
        tracer.end_round()
    assert rc == 0, capsys.readouterr()
    metrics = tracer.round_metrics(0)
    for engine in ("pcf", "net", "msiam"):
        assert metrics[f"pars.fused_steps.{engine}"] > 0, engine
    # `terminal_split` and `lift_step` are wrapped too, but the CLI's
    # driver does not call them.
    for name in ("pars.prepare", "msiam.copies", "prognets.step", "nets.find_redexes",
                 "nets.signature"):
        assert metrics.get(f"{name}_calls", 0) > 0, name
    # The tracer takes `len` of the state's tokens at every branch point.
    assert metrics["msiam.peak_tokens"] > 0
    assert attributes(tn) == before
