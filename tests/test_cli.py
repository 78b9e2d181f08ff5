"""Command-line behavior: output, determinism, exit codes."""

import argparse
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdleak
from qdleak import cli
from qdleak.cli import main
from qdleak.protocols import (
    TranscriptError,
    jz_secrets,
    mxn_secrets,
    nba_secrets,
    run_jz,
    run_mxn,
    run_nba,
)
from qdleak.qstate import KET_LABELS, BellLabel, StateVector, ket, make_rng
from qdleak.report import LEAKAGE_SCHEMA, RUN_SCHEMA, run_document, run_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_nba_text(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "nba", "--alice", "11", "--bob", "11",
        "--initial", "psi+",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "protocol: nba"
    assert "transcript: psi+ psi+" in lines
    assert "alice recovers: bob=11" in lines
    assert "bob recovers: alice=11" in lines


def test_run_jz_json_validates(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "jz", "--alice", "0", "--bob", "1",
        "--initial", "+", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, RUN_SCHEMA)
    assert doc["transcript"] == ["+", "-"]
    assert doc["decoded"][0]["recovered"] == {"bob": "1"}


def test_run_mxn_seeded_and_verbose(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "mxn", "--parties", "3", "--alice", "00",
        "--others", "0,1", "--seed", "7", "--verbose",
    )
    assert code == 0
    assert "encoded: ghz_101" in out
    assert "alice recovers: bob=0 charlie=1" in out


WHOLE_RUN_TEXTS = [
    (
        "run --protocol mxn --parties 6 --alice 10 --others 1,0,1,0,1 --seed 7 --verbose",
        """\
protocol: mxn
parties: 6
seed: 7
secrets: alice=10 bob=1 charlie=0 party4=1 party5=0 party6=1
transcript: psi+ psi- phi- psi+ phi+ psi+
operations: isy isy i isy i isy
encoded: ghz_001010
alice recovers: bob=1 charlie=0 party4=1 party5=0 party6=1
bob recovers: alice=10 charlie=0 party4=1 party5=0 party6=1
charlie recovers: alice=10 bob=1 party4=1 party5=0 party6=1
party4 recovers: alice=10 bob=1 charlie=0 party5=0 party6=1
party5 recovers: alice=10 bob=1 charlie=0 party4=1 party6=1
party6 recovers: alice=10 bob=1 charlie=0 party4=1 party5=0
""",
    ),
    (
        "run --protocol nba --alice 10 --bob 01 --initial psi+ --verbose",
        """\
protocol: nba
secrets: alice=10 bob=01
transcript: psi+ psi-
operations: isy sx
alice recovers: bob=01
bob recovers: alice=10
""",
    ),
]


@pytest.mark.parametrize("argv, want", WHOLE_RUN_TEXTS, ids=["mxn6", "nba"])
def test_run_text_whole_output(capsys, argv, want):
    """Every line of a verbose run, in order: a reordered or respelled line
    fails here, where the other run-text tests check fragments."""
    assert run_cli(capsys, *argv.split()) == (0, want, "")


def test_mxn_run_verbose_builds_no_state_vector(capsys, monkeypatch):
    """The encoded label is read off the secrets' bits: once the label's
    outcome table is cached, a verbose run constructs no StateVector."""
    argv = [
        "run", "--protocol", "mxn", "--parties", "3", "--alice", "00",
        "--others", "0,1", "--seed", "7", "--verbose",
    ]
    _, cold, _ = run_cli(capsys, *argv)
    built = []
    construct = StateVector.__init__

    def counting(self, amplitudes):
        built.append(1)
        construct(self, amplitudes)

    monkeypatch.setattr(StateVector, "__init__", counting)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, cold, "")
    assert "encoded: ghz_101" in out
    assert built == []
    ket("0")  # the counter sees a construction
    assert built == [1]


def test_same_seed_means_byte_identical_output(capsys):
    argv = [
        "run", "--protocol", "mxn", "--parties", "4", "--alice", "10",
        "--others", "1,0,1", "--seed", "21", "--format", "json",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_default_seed_is_zero(capsys):
    argv = ["run", "--protocol", "mxn", "--parties", "3", "--alice", "01", "--others", "1,1"]
    _, without, _ = run_cli(capsys, *argv)
    _, with_zero, _ = run_cli(capsys, *argv, "--seed", "0")
    assert without == with_zero


@pytest.mark.parametrize(
    "protocol,totals",
    [
        ("nba", {"total_bits": 4, "secure_bits": 2.0, "leaked_bits": 2.0}),
        ("jz", {"total_bits": 2, "secure_bits": 1.0, "leaked_bits": 1.0}),
        ("otp", {"total_bits": 2, "secure_bits": 1.0, "leaked_bits": 1.0}),
    ],
)
def test_analyze_json_totals(capsys, protocol, totals):
    code, out, err = run_cli(
        capsys, "analyze", "--protocol", protocol, "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, LEAKAGE_SCHEMA)
    for key, want in totals.items():
        assert doc["totals"][key] == pytest.approx(want, abs=1e-9)


def test_analyze_mxn_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--protocol", "mxn", "--parties", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, LEAKAGE_SCHEMA)
    assert doc["params"] == {"parties": 3}
    assert len(doc["transcripts"]) == 64


def test_analyze_nba_text_embeds_the_table(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "nba")
    assert code == 0
    assert "operation table (initial psi+)" in out


def test_table1_output(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "psi-  (i/00, sz/11)  (sx/01, isy/10)  (isy/10, sx/01)  (sz/11, i/00)" in out


@pytest.mark.parametrize(
    "argv, names",
    [
        (["run", "--protocol", "nba", "--alice", "111", "--bob", "00", "--initial", "psi+"],
         "party 0 needs 2 bits for nba, got '111'"),
        (["run", "--protocol", "nba", "--alice", "11", "--bob", "2", "--initial", "psi+"],
         "party 1 needs 2 bits for nba, got '2'"),
        (["run", "--protocol", "nba", "--alice", "11", "--bob", "00"],
         "--initial is required for nba"),
        (["run", "--protocol", "nba", "--bob", "00", "--initial", "psi+"],
         "--alice is required for nba"),
        (["run", "--protocol", "nba", "--alice", "11", "--bob", "00", "--initial", "psi*"],
         "--initial must be one of phi+/phi-/psi+/psi-"),
        (["run", "--protocol", "nba", "--alice", "11", "--bob", "00", "--initial", "psi+",
          "--others", "1"],
         "--others does not apply to nba"),
        (["run", "--protocol", "jz", "--alice", "0", "--bob", "1", "--initial", "psi+"],
         "--initial must be one of +/-/0/1"),
        (["run", "--protocol", "jz", "--alice", "0", "--bob", "10", "--initial", "+"],
         "party 1 needs 1 bit for jz, got '10'"),
        (["run", "--protocol", "mxn", "--parties", "9", "--alice", "00", "--others", "0,1"],
         "--parties must be in 3..6, got 9"),
        (["run", "--protocol", "mxn", "--alice", "00", "--others", "0,1"],
         "--parties is required for mxn"),
        (["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1,1"],
         "--others needs 2 comma-separated bits"),
        (["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,"],
         "party 2 needs 1 bit for mxn, got ''"),
        (["run", "--protocol", "mxn", "--parties", "3", "--alice", "0", "--others", "0,1"],
         "party 0 needs 2 bits for mxn, got '0'"),
        (["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1",
          "--bob", "11"],
         "--bob does not apply to mxn"),
        (["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1",
          "--initial", "psi+"],
         "--initial does not apply to mxn"),
        (["analyze", "--protocol", "otp", "--parties", "3"],
         "--parties does not apply to otp"),
        (["analyze", "--protocol", "mxn"], "--parties is required for mxn"),
        (["analyze", "--protocol", "mxn", "--parties", "2"],
         "--parties must be in 3..6, got 2"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, names):
    """A usage error is one line on stderr that names the flag, or the
    party whose bits, it is about."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {names}\n"


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--protocol", "nba", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--protocol", "nba"])
    assert exc.value.code == 2


def test_negative_seed_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "mxn", "--parties", "3", "--alice", "10",
        "--others", "1,0", "--seed", "-1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--seed" in err


@pytest.mark.parametrize(
    "target, argv",
    [
        ("leakage_report", ["analyze", "--protocol", "nba"]),
        (
            "run_nba",
            ["run", "--protocol", "nba", "--alice", "01", "--bob", "10", "--initial", "phi+"],
        ),
    ],
)
def test_inconsistent_protocol_data_exits_1(capsys, monkeypatch, target, argv):
    """A TranscriptError raised inside a command ends in exit 1, not the
    usage exit 2, with one error line and nothing on stdout."""

    def inconsistent(*args, **kwargs):
        raise TranscriptError("inconsistent transcript")

    monkeypatch.setattr(cli, target, inconsistent)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: inconsistent transcript\n")


def _library_run(protocol, alice, others, initial, seed):
    """The run a ``qdleak run`` command line names, built by library calls
    rather than by the command's parsing."""
    if protocol == "nba":
        return run_nba(nba_secrets(alice, others[0]), BellLabel.from_text(initial))
    if protocol == "jz":
        return run_jz(jz_secrets(int(alice), int(others[0])), initial)
    return run_mxn(mxn_secrets(alice, [int(b) for b in others]), make_rng(seed))


BITS2 = ("00", "01", "10", "11")
BELL_TEXTS = ("phi+", "phi-", "psi+", "psi-")


RUN_CASES = [
    *(("nba", a, [b], i, None) for a in BITS2 for b in BITS2 for i in BELL_TEXTS),
    *(("jz", a, [b], i, None) for a in "01" for b in "01" for i in KET_LABELS),
    *(("mxn", a, list(rest), None, 7) for a in BITS2 for rest in itertools.product("01", repeat=2)),
    ("mxn", "10", list("10101"), None, 7),
]
# every case as text and as JSON, and the first case of each protocol verbose
RUN_FORMS = [(case, form) for case in RUN_CASES for form in ("text", "json")] + [
    (next(case for case in RUN_CASES if case[0] == protocol), "verbose")
    for protocol in ("nba", "jz", "mxn")
]


def _run_argv(protocol, alice, others, initial, seed):
    argv = ["run", "--protocol", protocol, "--alice", alice]
    if protocol == "mxn":
        return argv + [
            "--parties", str(len(others) + 1), "--others", ",".join(others), "--seed", str(seed)
        ]
    return argv + ["--bob", others[0], "--initial", initial]


@pytest.mark.parametrize(
    "case, form",
    RUN_FORMS,
    ids=["-".join([c[0], c[1], *c[2], c[3] or f"seed{c[4]}", form]) for c, form in RUN_FORMS],
)
def test_run_prints_the_library_run(capsys, case, form):
    """``qdleak run``'s stdout is run_text, or the run document dumped as
    JSON, of the run that library calls make from the same bits, initial
    and seed."""
    record = _library_run(*case)
    seed = case[4]
    argv = _run_argv(*case)
    if form == "json":
        argv += ["--format", "json"]
        want = json.dumps(run_document(record, seed=seed), indent=2, sort_keys=True)
    else:
        argv += ["--verbose"] if form == "verbose" else []
        want = run_text(record, seed=seed, verbose=form == "verbose")
    assert run_cli(capsys, *argv) == (0, want + "\n", "")


# Each flag with values that make sense for some subcommand; --parties stays
# at 4 or less, so no case builds a large state.
FLAG_VALUES = {
    "--protocol": ["nba", "jz", "mxn", "otp"],
    "--alice": ["0", "1", "00", "01", "10", "11", "111"],
    "--bob": ["0", "1", "00", "11", "2"],
    "--others": ["0", "1", "0,1", "1,0,1", "0,,1"],
    "--parties": ["-1", "0", "2", "3", "4"],
    "--initial": ["phi+", "phi-", "psi+", "psi-", "0", "1", "+", "-"],
    "--seed": ["0", "7", "-1", "123456789"],
    "--format": ["text", "json"],
}


def _int_above_four(token):
    try:
        return int(token) > 4
    except ValueError:
        return False


_JUNK = st.text(max_size=6).filter(lambda t: not _int_above_four(t))
_OPTION = st.one_of(
    *(
        st.tuples(st.just(flag), st.sampled_from(values) | _JUNK)
        for flag, values in FLAG_VALUES.items()
    ),
    st.tuples(st.sampled_from(["--verbose", "--help", *FLAG_VALUES])),
    st.tuples(_JUNK),
)
_FIRST = st.sampled_from(["run", "analyze", "table1"]) | _JUNK


def _outcome(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse's
    ``SystemExit`` counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(_FIRST, st.lists(_OPTION, max_size=8))
@settings(max_examples=200, deadline=None)
def test_any_argv_exits_0_1_or_2_without_a_traceback(first, options):
    argv = [first, *(token for option in options for token in option)]
    code, _, err = _outcome(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv


_MXN_RUN = ["run", "--protocol", "mxn", "--parties", "4", "--alice", "01", "--others", "1,0,1",
            "--seed", "7"]
# Command lines whose outcome must not depend on what the process parsed
# before: every analyze case, table1, each kind of run in each form, usage
# errors from argparse and from the commands, and the help texts.
PARSE_ARGVS = [
    *(["analyze", "--protocol", p, "--format", f] for p in ("nba", "jz", "otp")
      for f in ("text", "json")),
    *(["analyze", "--protocol", "mxn", "--parties", str(n), "--format", f] for n in (3, 4, 5, 6)
      for f in ("text", "json")),
    ["table1"],
    *(run + form
      for run in (_run_argv("nba", "10", ["01"], "psi+", None),
                  _run_argv("jz", "0", ["1"], "+", None), _MXN_RUN)
      for form in ([], ["--verbose"], ["--format", "json"])),
    [],
    ["run", "--protocol", "nba", "--frobnicate"],
    ["analyze", "--protocol", "bb84"],
    ["analyze", "--protocol", "mxn", "--parties", "2"],
    ["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1,1"],
    ["run", "--protocol", "mxn", "--parties", "three", "--alice", "00", "--others", "0,1"],
    ["--help"],
    ["run", "--help"],
    ["analyze", "--help"],
    ["table1", "--help"],
]


def test_main_builds_one_parser_per_process(monkeypatch):
    """After one warm call, main constructs no ArgumentParser: not for a
    command, a usage error or --help.  build_parser still returns a fresh
    parser on every call."""
    main(["table1"])
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    outcomes = [
        _outcome(argv)[0]
        for argv in (
            ["analyze", "--protocol", "nba"],
            ["analyze", "--protocol", "jz", "--format", "json"],
            ["run", "--protocol", "nba", "--alice", "10", "--bob", "01", "--initial", "psi+"],
            [*_MXN_RUN, "--format", "json"],
            ["table1"],
            ["run", "--protocol", "nba", "--frobnicate"],
            ["--help"],
        )
    ]
    assert outcomes == [0, 0, 0, 0, 0, 2, 0]
    assert built == []
    assert cli.build_parser() is not cli.build_parser()
    assert built  # the counter sees a construction


def test_reused_parser_gives_the_fresh_parsers_outcomes(monkeypatch):
    """Each command line's exit code, stdout and stderr are the same in two
    orders within one process, and the same as when a fresh build_parser()
    parses it."""
    runs = []
    for seed in (0, 1):
        order = random.Random(seed).sample(PARSE_ARGVS, len(PARSE_ARGVS))
        runs.append({tuple(argv): _outcome(argv) for argv in order})
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = {tuple(argv): _outcome(argv) for argv in PARSE_ARGVS}
    assert runs[0] == runs[1] == fresh
    assert {code for code, _, _ in fresh.values()} == {0, 2}


SRC = Path(qdleak.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "qdleak", "analyze", "--protocol", "mxn", "--parties", "6"],
        [str(SRC.parent / "scripts" / "leakage_audit.py"), "--json"],
    ],
    ids=["analyze", "leakage_audit"],
)
def test_closed_stdout_ends_quietly(argv):
    """A reader that stops after one line, as ``| head -n 1`` does, ends the
    command with exit 1 and nothing on stderr.  Both outputs (mxn N=6 text,
    the audits' JSON) exceed a pipe buffer, so a write after the reader
    closes always fails."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert first in (b"protocol: mxn\n", b"[\n")
    assert (code, err.decode()) == (1, "")
