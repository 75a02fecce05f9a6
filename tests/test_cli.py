import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tokennets.cli import main
from tokennets.memory import Backend, IntRegisterMemory, ProbRegisterMemory

REPO = Path(__file__).resolve().parent.parent
CORPUS = sorted((REPO / "corpus").glob("*.pcf"))


def write(tmp_path, src):
    f = tmp_path / "prog.pcf"
    f.write_text(src)
    return str(f)


def test_parse_error_exit_code(tmp_path, capsys):
    f = write(tmp_path, "let < = in")
    assert main([f]) == 2
    assert "parse error" in capsys.readouterr().err


def test_type_error_exit_code(tmp_path, capsys):
    f = write(tmp_path, r"(\x. <x, x>) (S new)")
    assert main([f]) == 3
    assert "type error" in capsys.readouterr().err


@pytest.mark.parametrize("src", [
    r"(\g. (\a. new) g) (\z. z)",
    r"(\x. (\f. <f new, f new>) x) (\z. z)",
])
def test_linear_variable_in_a_promoted_value_is_a_type_error(tmp_path, capsys, src):
    f = write(tmp_path, src)
    assert main([f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("type error: linear variable") and err.count("\n") == 1


def test_all_engines_agree(tmp_path, capsys):
    f = write(tmp_path, r"(\x. x) new")
    assert main([f, "--engine", "all", "--backend", "int", "--horizon", "30"]) == 0
    out = capsys.readouterr().out
    assert out.count("probability: 1.000000000000") == 3
    assert "delta[pcf,net]: 0.000e+00" in out


def test_single_engine_and_dump(tmp_path, capsys):
    f = write(tmp_path, "S new")
    code = main([f, "--engine", "net", "--backend", "int", "--dump-net"])
    out = capsys.readouterr().out
    assert code == 0
    assert "net:" in out and "sync" in out
    assert "terminal distribution:" in out


def test_check_diamond(tmp_path, capsys):
    f = write(tmp_path, "if c new then new else new")
    code = main(
        [f, "--backend", "prob", "--engine", "net", "--check-diamond", "5", "--horizon", "30"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "diamond[net]: ok" in out


def test_probabilistic_report_is_deterministic(tmp_path, capsys):
    f = write(tmp_path, "if c new then new else new")
    args = [f, "--backend", "prob", "--engine", "pcf", "--horizon", "30"]

    def normalized():
        out = capsys.readouterr().out
        # fresh link-variable names are globally counted; strip them
        import re

        return re.sub(r"x_\d+", "x", out)

    assert main(args) == 0
    first = normalized()
    assert main(args) == 0
    assert normalized() == first
    assert first.count("0.500000000000") == 2


def test_missing_gates_file_exit_code(tmp_path, capsys):
    f = write(tmp_path, "H new")
    code = main([f, "--backend", "quantum", "--gates", str(tmp_path / "none.cfg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_malformed_gates_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "gates.cfg"
    for program, line, reason in [
        ("H new", "T, one, 1, 0, 0, 1", "is not an integer"),
        ("W new", "W, 0, 1", "not 1 or more"),  # a 0-ary gate: its tuple type never ends
        ("W new", "W, -1", "not 1 or more"),
        # A NaN entry passes the unitarity bound, and the test's branch
        # would be pruned: probability 1.
        ("if V new then new else new", "V, 1, 1, 0, 0, nan", "not finite"),
        ("if V new then new else new", "V, 1, 1, 0, 0, inf", "not finite"),
        ("if V new then new else new", "V, 1, 1, 0, 0, -infi", "not finite"),
    ]:
        cfg.write_text(f"# a comment line\n{line}\n")
        code = main([write(tmp_path, program), "--backend", "quantum", "--engine", "all",
                     "--gates", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2, (line, captured)
        err = captured.err
        assert err.startswith("error:") and "gates.cfg:2" in err and err.count("\n") == 1, line
        assert err.rstrip().endswith(reason), (line, err)
        assert not captured.out, line


@pytest.mark.parametrize("role", ["program", "gates"])
def test_a_file_that_is_not_utf8_exit_code(tmp_path, capsys, role):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff\xfe new")
    if role == "program":
        argv = [str(bad)]
    else:
        argv = [write(tmp_path, "H new"), "--backend", "quantum", "--gates", str(bad)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"{bad}: not UTF-8 (invalid start byte at byte 0)" in captured.err
    assert not captured.out


def test_non_integer_seed_exit_code(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "if c new then new else new")
    monkeypatch.setenv("MSIAM_SEED", "x")
    code = main([f, "--backend", "prob", "--engine", "net", "--check-diamond", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "MSIAM_SEED" in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_incorrect_net_exit_code(tmp_path, capsys, monkeypatch):
    import tokennets.cli

    f = write(tmp_path, "new")
    monkeypatch.setattr(tokennets.cli, "check_correct", lambda net: "cyclic switching")
    code = main([f])
    err = capsys.readouterr().err
    assert code == 5
    assert "cyclic switching" in err and err.count("\n") == 1


def test_invalid_net_exit_code(tmp_path, capsys, monkeypatch):
    import tokennets.translate
    from tokennets.nets import InvalidNetError

    def reject(net):
        raise InvalidNetError("bad ax")

    f = write(tmp_path, "new")
    monkeypatch.setattr(tokennets.translate, "validate", reject)
    code = main([f])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err == "internal error: translated net is invalid: bad ax\n"
    assert not captured.out


@pytest.mark.parametrize("engine", ["pcf", "net"])
def test_if_branches_with_a_once_used_bang_binder(tmp_path, capsys, engine):
    # The inner x is used once, but unifying the branches gives its binder a
    # !-type: the translation must take its linear edge.
    f = write(tmp_path, r"if c new then (\x. \x. \y. x) else (\x. \x. \y. y)")
    assert main([f, "--backend", "prob", "--engine", engine]) == 0
    out = capsys.readouterr().out
    assert "probability: 1.000000000000" in out
    assert out.count("  0.500000000000  ") == 2


@pytest.mark.parametrize("src, backend", [
    (r"letrec f f = f new in f (\x. x)", "int"),
    ("letrec f f = if f then new else new in f (c new)", "prob"),
    ("letrec f f = f in f new", "int"),
])
def test_letrec_argument_named_like_the_function(tmp_path, capsys, src, backend):
    # The argument shadows the function inside the recursive body.
    f = write(tmp_path, src)
    assert main([f, "--engine", "all", "--backend", backend, "--horizon", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("probability: 1.000000000000") == 3 and "truncated: true" not in out
    # Each engine's terminal lines, as (probability, memory) pairs.
    terminals = [
        sorted((line.split()[0], line.split("|")[1].strip())
               for line in part.splitlines() if line.startswith("  "))
        for part in out.split("engine: ")[1:]
    ]
    assert len(terminals) == 3 and terminals[0] and terminals[0] == terminals[1] == terminals[2]


@pytest.mark.parametrize("src", ["S", r"\x. S x"])
def test_a_sync_on_an_unlinked_input_waits_in_every_engine(tmp_path, capsys, src):
    # The input of `a -o a` gets no address, so its sync never fires: the
    # net engine leaves it as a redex that is not ready, and msiam leaves
    # the token that reaches it waiting.
    f = write(tmp_path, src)
    assert main([f, "--engine", "all", "--backend", "int", "--horizon", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("probability: 1.000000000000") == 3 and "truncated: true" not in out
    assert out.count("IntRegisterMemory({})") == 3


def test_a_test_on_an_unlinked_input_waits_in_every_engine(tmp_path, capsys):
    # The input of `a -o a` gets no address, so the token that reaches the
    # choice box has nothing to test: msiam leaves it waiting, as the net
    # engine leaves that test alone.
    f = write(tmp_path, r"\x. if x then new else new")
    assert main([f, "--engine", "all", "--backend", "int", "--horizon", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("probability: 1.000000000000") == 3 and "truncated: true" not in out
    assert out.count("IntRegisterMemory({})") == 3


def test_registers_are_checked_only_where_a_run_starts(monkeypatch, capsys):
    # Every memory after the initial one is built by `test`, `update` or
    # `rename` from a valid one, through the trusted path, so the checking
    # constructor runs once per initial memory and never per micro-step.
    counts = {"initial": 0, "checked": 0, "update": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(Backend, "initial", counted("initial", Backend.initial))
    for cls in (IntRegisterMemory, ProbRegisterMemory):
        monkeypatch.setattr(cls, "__init__", counted("checked", cls.__init__))
        monkeypatch.setattr(cls, "update", counted("update", cls.update))
    for path in CORPUS:
        backend = re.search(r"^-- backend: *(\w+)", path.read_text(), re.M).group(1)
        if path.name != "omega.pcf" and backend != "quantum":
            argv = [str(path), "--engine", "all", "--backend", backend, "--horizon", "40"]
            assert main(argv) == 0
    capsys.readouterr()
    assert counts["update"] > counts["initial"] > 0
    assert counts["checked"] == counts["initial"]


@pytest.mark.parametrize("src, engine", [
    pytest.param("S (" * 400 + "new" + ")" * 400, "all", id="too-deep-for-the-parser"),
    pytest.param(r"\f. <f new, f new>", "msiam", id="initial-tokens-under-modalities"),
])
def test_internal_error_exit_code(tmp_path, src, engine):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "tokennets.cli", write(tmp_path, src), "--engine", engine],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 6
    assert proc.stderr.startswith("internal error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_trace_output_names_no_memory_address(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["corpus/coin_prob.pcf", "--engine", "pcf", "--backend", "prob",
                 "--horizon", "5", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "trace[pcf] step 1: test: if x_" in out
    assert "0x" not in out


def corpus_argv(path: Path, horizon: str) -> list[str]:
    """`--engine all` with the file's header backend."""
    backend = re.search(r"^-- backend: *(\w+)", path.read_text(), re.M).group(1)
    return [f"corpus/{path.name}", "--engine", "all", "--backend", backend,
            "--horizon", horizon]


# (test id, golden file stem, CLI arguments): every corpus file (omega at
# horizon 6), and traced runs with a diamond check (omega at horizon 3).
GOLDEN = [
    (p.name, p.stem, corpus_argv(p, "6" if p.name == "omega.pcf" else "200"))
    for p in CORPUS
] + [
    (f"{name}.pcf-trace-diamond", f"{name}.trace",
     corpus_argv(REPO / "corpus" / f"{name}.pcf", horizon)
     + ["--trace", "--check-diamond", "6"])
    for name, horizon in (("coin_prob", "200"), ("bell", "200"), ("parallel", "200"),
                          ("omega", "3"))
]


@pytest.mark.parametrize("stem, argv", [pytest.param(s, a, id=i) for i, s, a in GOLDEN])
def test_corpus_output_matches_golden(stem, argv):
    # Each run gets a fresh process: fresh variable names and node ids are
    # drawn from process-wide counters, and the golden files were written
    # by one `tokennets` process per file, run from the repository root.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "tokennets.cli", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = REPO / "tests" / "golden" / f"{stem}.out"
    assert proc.stdout == golden.read_text()


@pytest.mark.parametrize("flag,value", [("--check-diamond", "-3"), ("--tol", "5"),
                                        ("--tol", "1"), ("--horizon", "0")])
def test_a_flag_value_that_makes_a_check_vacuous_is_rejected(tmp_path, capsys, flag, value):
    # A negative diamond depth reported "ok" for every engine, and a
    # tolerance of 1 or more stopped every run at step 0 with all deltas 0.
    f = write(tmp_path, "if c new then new else new")
    with pytest.raises(SystemExit) as exit_:
        main([f, "--backend", "prob", flag, value])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert not captured.out and captured.err.splitlines()[-1].startswith("tokennets: error:")


def test_terminal_lines_with_one_printed_probability_come_in_description_order(
        tmp_path, capsys, monkeypatch):
    # The 8-qubit wide program's 256 outcomes each have probability 2^-8,
    # computed as 0.0039062499999999983 or ...87 depending on the path, so
    # an order by the raw float would interleave its lines by that noise.
    import random

    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from programs import WIDE_WIDTH, wide_quantum_source

    f = write(tmp_path, wide_quantum_source(WIDE_WIDTH, random.Random(11)))
    assert main([f, "--engine", "all", "--backend", "quantum"]) == 0
    lines: dict[str, list[tuple[str, str]]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("engine: "):
            engine = lines.setdefault(line.split()[1], [])
        elif line.startswith("  "):
            q, d = line.strip().split("  ", 1)
            engine.append((q, d))
    assert sorted(lines) == ["msiam", "net", "pcf"]
    for entries in lines.values():
        assert len(entries) == 2**WIDE_WIDTH
        assert {q for q, _ in entries} == {f"{2 ** -WIDE_WIDTH:.12f}"}
        assert entries == sorted(entries, key=lambda qd: qd[1])
