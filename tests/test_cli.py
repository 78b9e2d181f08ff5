"""Command-line behavior: output, determinism, exit codes."""

import io
import json
import os
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
from qdleak.protocols import TranscriptError
from qdleak.qstate import StateVector, ket
from qdleak.report import LEAKAGE_SCHEMA, RUN_SCHEMA


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
    "argv",
    [
        ["run", "--protocol", "nba", "--alice", "111", "--bob", "00", "--initial", "psi+"],
        ["run", "--protocol", "nba", "--alice", "11", "--bob", "00"],
        ["run", "--protocol", "nba", "--alice", "11", "--bob", "00", "--initial", "psi*"],
        ["run", "--protocol", "nba", "--alice", "11", "--bob", "00", "--initial", "psi+",
         "--others", "1"],
        ["run", "--protocol", "jz", "--alice", "0", "--bob", "1", "--initial", "psi+"],
        ["run", "--protocol", "mxn", "--parties", "9", "--alice", "00", "--others", "0,1"],
        ["run", "--protocol", "mxn", "--alice", "00", "--others", "0,1"],
        ["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1,1"],
        ["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1",
         "--bob", "11"],
        ["run", "--protocol", "mxn", "--parties", "3", "--alice", "00", "--others", "0,1",
         "--initial", "psi+"],
        ["analyze", "--protocol", "otp", "--parties", "3"],
        ["analyze", "--protocol", "mxn"],
        ["analyze", "--protocol", "mxn", "--parties", "2"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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


@given(_FIRST, st.lists(_OPTION, max_size=8))
@settings(max_examples=200, deadline=None)
def test_any_argv_exits_0_1_or_2_without_a_traceback(first, options):
    argv = [first, *(token for option in options for token in option)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


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
