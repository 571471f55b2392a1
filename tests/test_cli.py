import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylchars
import weylchars.cli
from weylchars.cli import build_parser, main, parse_int_list, serialize_class, serialize_symbol
from weylchars.report import CheckRecord
from weylchars.symbols import BiSymbol, SignedCycleType
from weylchars.verifications import CLAIMS
from weylchars.wnchars import WN_ENTRY_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_int_list():
    assert parse_int_list("1,3") == (1, 3)
    assert parse_int_list("") == ()
    assert parse_int_list(" 4 ") == (4,)
    with pytest.raises(ValueError):
        parse_int_list("1,x")


def test_serializers():
    assert serialize_class(SignedCycleType((1, 2), (3, 4))) == "pos:1.2;neg:3.4"
    assert serialize_class(SignedCycleType((), (2,))) == "pos:;neg:2"
    assert serialize_symbol(BiSymbol((0, 1), (2,))) == "0,1;2"
    assert serialize_symbol((1, 3)) == "1,3"


def test_trace_sn(capsys):
    code, out, _ = run(capsys, "trace", "sn", "--beta", "3", "--cycles", "3")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "trace", "sn", "--beta", "1,3", "--cycles", "1,1,1")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "trace", "sn", "--beta", "1,1", "--cycles", "2")
    assert (code, out.strip()) == (0, "0")


def test_trace_sn_weight_mismatch(capsys):
    code, _, err = run(capsys, "trace", "sn", "--beta", "1,3", "--cycles", "2")
    assert code == 2
    assert "weight mismatch" in err


def test_trace_sn_rejects_bad_cycle_lengths(capsys):
    for beta, cycles in (("1,3", "4,-1"), ("0", "0")):
        code, out, err = run(capsys, "trace", "sn", "--beta", beta, "--cycles", cycles)
        assert (code, out) == (2, "")
        assert "cycle lengths must be >= 1" in err


def test_trace_too_deep_is_a_usage_error(capsys):
    ones = ",".join(["1"] * 1100)
    code, out, err = run(capsys, "trace", "sn", "--beta", "1100", "--cycles", ones)
    assert (code, out) == (2, "")
    assert "input too large" in err
    code, out, err = run(
        capsys, "trace", "wn", "--top", "1100", "--bottom", "", "--pos", ones
    )
    assert (code, out) == (2, "")
    assert "input too large" in err


def test_trace_entry_bound(capsys):
    # rows are bitsets, one bit per value: an entry at the bound is refused
    # before any bitset is built, one below it still evaluates
    top = str(WN_ENTRY_LIMIT - 1)
    code, out, _ = run(capsys, "trace", "sn", "--beta", top, "--cycles", top)
    assert (code, out.strip()) == (0, "1")
    for entry in (WN_ENTRY_LIMIT, 10**15):
        code, out, err = run(capsys, "trace", "wn", "--top", str(entry), "--bottom", "", "--neg", str(entry))
        assert (code, out) == (2, "")
        assert f"symbol entry {entry} exceeds the row bitset bound" in err


def test_trace_wn(capsys):
    code, out, _ = run(
        capsys, "trace", "wn", "--top", "0,1", "--bottom", "2", "--neg", "2"
    )
    assert (code, out.strip()) == (0, "-1")
    code, out, _ = run(
        capsys, "trace", "wn", "--top", "1", "--bottom", "0", "--neg", "1"
    )
    assert (code, out.strip()) == (0, "1")
    code, _, err = run(
        capsys, "trace", "wn", "--top", "2", "--bottom", "", "--neg", "1"
    )
    assert code == 2


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "prop211", "--m", "2")
    assert code == 0
    assert "claim: prop211" in out
    assert "status: pass" in out
    assert "params: m=2" in out


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "prop212", "--m", "3")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "verify", "lemma210", "--m", "0")
    assert code == 2 and "m'" in err
    code, _, err = run(capsys, "verify", "prop211", "--m", "11")
    assert code == 2
    code, _, err = run(capsys, "verify", "so5", "--q", "7")
    assert code == 2


def test_verify_rejects_parameters_that_do_not_apply(capsys):
    for argv, message in (
        (("all", "--m", "99"), "--m does not apply to verify all"),
        (("lemma217", "--m", "99"), "--m does not apply to verify lemma217"),
        (("so5", "--m", "3"), "--m does not apply to verify so5"),
        (("lemma26", "--q", "3"), "--q applies only to"),
        (("prop211", "--m", "2", "--q", "5"), "--q applies only to"),
        (("lemma27", "--samples", "10"), "--samples applies only to"),
        (("lemma217", "--samples", "10"), "--samples applies only to"),
        (("all", "--q", "7"), "supports q=3 (full) or q=5 (sampled)"),
        (("so5", "--samples", "10"), "--samples applies only to the sampled"),
        (("all", "--q", "3", "--samples", "10"), "--samples applies only to the sampled"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


def test_verify_deterministic_output(capsys):
    args = ["verify", "lemma26", "--m", "2", "--no-timing"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed_ms: 0" in out1
    assert "seed: 0" in out1


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "verify", "lemma27", "--m", "1", "--output", str(path)
    )
    assert code == 0 and out == ""
    assert "claim: lemma27" in path.read_text()


def test_verify_seed_recorded(capsys):
    code, out, _ = run(capsys, "verify", "lemma29", "--m", "1", "--seed", "17")
    assert code == 0
    assert "seed: 17" in out


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "wn", "--n", "1")
    assert code == 0
    assert "character table W1" in out
    assert "pos:1;neg:" in out and "pos:;neg:1" in out


def test_table_text_aligns_small_tables(capsys):
    for n in (0, 1, 2):
        code, out, _ = run(capsys, "table", "sn", "--n", str(n))
        assert code == 0
        title, *body = out.splitlines()
        assert title == f"character table S{n}"
        # header, centralizer row and character rows share one column grid
        assert len({len(line) for line in body}) == 1
        assert body[1].startswith("centralizer ")
    code, out, _ = run(capsys, "table", "sn", "--n", "2")
    assert out.splitlines()[1:3] == [
        "                     1.1            2",
        "centralizer            2            2",
    ]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "sn", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("symbol,")
    assert lines[1].startswith("centralizer,")
    assert lines[-1] == "# weighted row orthogonality: pass"
    # 5 partitions of 4: header + centralizers + 5 rows + footer
    assert len(lines) == 8


def test_table_bounds(capsys):
    code, _, err = run(capsys, "table", "sn", "--n", "9")
    assert code == 2
    code, _, err = run(capsys, "table", "wn", "--n", "7")
    assert code == 2


def test_table_negative_n(capsys):
    for group in ("sn", "wn"):
        code, out, err = run(capsys, "table", group, "--n", "-1")
        assert (code, out) == (2, "")
        assert "n must be >= 0" in err


def test_verify_so5_needs_samples(capsys):
    for samples in ("0", "-2"):
        code, out, err = run(
            capsys, "verify", "so5", "--q", "5", "--samples", samples
        )
        assert (code, out) == (2, "")
        assert "samples must be >= 1" in err


def test_table_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "sn", "--n", "3", "--format", "csv", "--output", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("symbol,")


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    calls = []
    for claim in CLAIMS:
        monkeypatch.setattr(weylchars.cli, f"check_{claim}", lambda *a: calls.append(a))
    commands = (("verify", "all"), ("verify", "lemma26", "--m", "1"), ("table", "sn", "--n", "3"))
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        for argv in commands:
            code, out, err = run(capsys, *argv, "--output", str(target))
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot write {target}: "), argv
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_bad_sample_count_is_rejected_before_any_check(tmp_path, capsys, monkeypatch):
    calls = []
    for claim in CLAIMS:
        monkeypatch.setattr(weylchars.cli, f"check_{claim}", lambda *a: calls.append(a))
    report = tmp_path / "r.txt"
    for claim in ("all", "so5"):
        for samples in ("0", "-3"):
            argv = ("verify", claim, "--q", "5", "--samples", samples, "--output", str(report))
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: --samples must be >= 1, got {samples}\n", argv
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_verify_prop211_m3(capsys):
    code, out, _ = run(capsys, "verify", "prop211", "--m", "3")
    assert code == 0 and "status: pass" in out


def test_verify_all_is_green(capsys):
    # the CI entry point: every claim, one aggregated report, exit 0
    code, out, _ = run(capsys, "verify", "all", "--no-timing")
    assert code == 0
    assert out.count("status: pass") == 28
    assert "status: fail" not in out
    for claim in (
        "lemma26",
        "lemma27",
        "lemma29",
        "lemma210",
        "prop211",
        "prop212",
        "lemma217",
        "so5",
    ):
        assert f"claim: {claim}" in out


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(weylchars.cli, "check_lemma27", broken)
    code, out, err = run(capsys, "verify", "lemma27", "--m", "1")
    assert code == 3
    assert out == (
        "claim: lemma27\nparams: m=1\nstatus: error\ncounterexamples: 1\n"
        "  - RuntimeError: boom\nelapsed_ms: 0\nseed: 0\n"
    )
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def passing_check(claim):
    """A stand-in for cli.check_<claim>: an instant pass record (the CLI
    stamps it with the run's seed)."""
    return lambda *args: CheckRecord(claim, "stub", "pass")


def test_internal_error_keeps_the_completed_records(capsys, monkeypatch):
    # parameters are validated before the first check runs, so even the
    # exception types that mean a usage error elsewhere are internal here
    monkeypatch.setattr(weylchars.cli, "check_so5", passing_check("so5"))
    original = weylchars.cli.check_lemma27
    for error in (ZeroDivisionError, ValueError, KeyError, RecursionError):

        def broken_at_3(m):
            if m == 3:
                raise error("boom")
            return original(m)

        monkeypatch.setattr(weylchars.cli, "check_lemma27", broken_at_3)
        message = f"{error.__name__}: {error('boom')}"
        code, out, err = run(capsys, "verify", "all", "--no-timing")
        assert code == 3, error
        assert err == f"internal error: {message}\n"
        assert out.count("status: pass") == 27
        assert out.count("status: error") == 1
        assert f"params: m=3\nstatus: error\ncounterexamples: 1\n  - {message}\n" in out


@st.composite
def verify_argv(draw):
    """verify argv: a claim id or a junk token, and --m/--q/--samples each
    absent or a value in -2..10."""
    argv = ["verify", draw(st.sampled_from([*CLAIMS, "all", "lemma2", "", "ALL", "-1"]))]
    for flag in ("--m", "--q", "--samples"):
        value = draw(st.none() | st.integers(-2, 10))
        if value is not None:
            argv += [flag, str(value)]
    return argv


def test_verify_argv_fuzz(capsys, monkeypatch):
    # argv handling only: cli._verify_tasks validates every value (claim_params
    # included) before it calls a check, so the checks themselves are stubbed
    for claim in CLAIMS:
        monkeypatch.setattr(weylchars.cli, f"check_{claim}", passing_check(claim))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(verify_argv())
    def exits_with_a_documented_code(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the claim token
            assert exc.code == 2, argv
            code = 2
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        sweep = CLAIMS.get(argv[1])
        if sweep and argv[2:3] == ["--m"] and len(argv) == 4 and int(argv[3]) not in sweep.values:
            assert code == 2 and f" {sweep.param} within " in err, (argv, err)

    exits_with_a_documented_code()


def test_double_dash_value_is_a_usage_error(capsys):
    # argparse hands an option value of "--" over as an empty list
    for argv in (
        ["trace", "sn", "--beta=1", "--cycles=--"],
        ["table", "wn", "--n=--"],
        ["verify", "lemma26", "--seed=--"],
        ["verify", "lemma26", "--output=--"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and ": expected one value" in err, (argv, err)


def int_list_token():
    """A comma-separated list of 0..4 small integers, or a junk token."""
    numbers = st.lists(st.integers(-2, 6), max_size=4).map(lambda xs: ",".join(map(str, xs)))
    junk = st.sampled_from(["x", "1,,2", " 3 ", "1.5", "--", str(WN_ENTRY_LIMIT), str(10**15)])
    return numbers | junk


@st.composite
def trace_table_argv(draw):
    """trace argv (sn, wn or a junk group, each row or cycle flag absent or
    a token) or table argv (the same groups, --n in -2..6, no format, csv or
    a junk one), with sizes small enough to run in well under a second."""
    if draw(st.booleans()):
        group = draw(st.sampled_from(["sn", "wn", "xn"]))
        flags = ("--beta", "--cycles") if group == "sn" else ("--top", "--bottom", "--pos", "--neg")
        argv = ["trace", group]
        for flag in flags:
            token = draw(st.none() | int_list_token())
            if token is not None:
                argv.append(f"{flag}={token}")
        return argv
    group = draw(st.sampled_from(["sn", "wn", "xn"]))
    argv = ["table", group, "--n", str(draw(st.integers(-2, 6)))]
    return argv + draw(st.sampled_from([[], ["--format", "csv"], ["--format", "tsv"]]))


def test_trace_and_table_argv_fuzz(capsys):
    seen = {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace_table_argv())
    def exits_with_a_documented_code(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a token or a missing flag
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        seen.setdefault((argv[0], code), argv)

    exits_with_a_documented_code()
    # both commands both run and get rejected
    assert sorted(seen) == [("table", 0), ("table", 2), ("trace", 0), ("trace", 2)], seen


def test_parser_is_reused_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    build_parser.cache_clear()
    argvs = (
        ["verify", "lemma2"],
        ["--help"],
        ["verify", "lemma26", "--m", "2", "--no-timing"],
        ["table", "wn", "--n", "2"],
    )

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a rejected token or --help
            code = exc.code
        return code, capsys.readouterr().out

    first = {tuple(argv): outcome(argv) for argv in argvs}
    assert [first[tuple(argv)][0] for argv in argvs] == [2, 0, 0, 0]
    for argv in (*argvs, *reversed(argvs)):
        assert outcome(argv) == first[tuple(argv)], argv


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for code in ("0", "1", "2", "3"):
        assert f"  {code}  " in out


def test_numpy_loads_only_for_so5():
    src = str(Path(weylchars.__file__).resolve().parents[1])
    script = (
        "import sys, weylchars, weylchars.cli\n"
        "assert weylchars.cli.main(['trace', 'wn', '--top', '0,1', '--bottom', '2', '--neg', '2']) == 0\n"
        "assert weylchars.cli.main(['table', 'wn', '--n', '2']) == 0\n"
        "assert weylchars.cli.main(['verify', 'lemma26', '--m', '2']) == 0\n"
        "print(sorted(m for m in ('numpy', 'weylchars.so5') if m in sys.modules))\n"
        "from weylchars import ClassCLabel, OrthogonalGeometry\n"
        "print(OrthogonalGeometry.__module__, ClassCLabel.__module__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[-2:] == ["[]", "weylchars.so5 weylchars.so5"]
