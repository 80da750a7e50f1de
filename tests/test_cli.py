from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qfmass
from qfmass import cli, euler, forms, globalmass
from qfmass.arith import factor
from qfmass.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_class_scans(monkeypatch):
    """Make every class scan raise: the census's source, the class count
    that the total mass and the class number read, and the oracle."""

    def no_scan(S):
        raise AssertionError(f"class scan of {S}")

    for mod, name in (
        (forms, "enumerate_classes"),
        (forms, "reduced_classes"),
        (euler, "reduced_classes"),
        (forms, "class_count"),
        (globalmass, "class_count"),
    ):
        monkeypatch.setattr(mod, name, no_scan)


def test_classify_det_23(capsys):
    code, out, _ = run_cli(capsys, "classify", "--det", "23")
    assert code == 0
    objs = json.loads(out)
    assert objs[0]["det"] == 23
    assert len(objs[0]["classes"]) == 3
    assert objs[0]["genera"] == [[0, 1, 2]]
    assert objs[0]["mass_exact"] == "3/4"


def test_classify_empty_det(capsys):
    code, out, _ = run_cli(capsys, "classify", "--det", "9")
    assert code == 0
    objs = json.loads(out)
    assert objs[0]["classes"] == [] and objs[0]["mass_exact"] == "0"


def test_classify_bad_det(capsys):
    code, _, err = run_cli(capsys, "classify", "--det", "0")
    assert code == 2 and "det" in err


def test_classify_refuses_oversized_l_value(capsys):
    code, out, err = run_cli(capsys, "classify", "--det", "3", "--prime-bound", str(10**7 + 1))
    assert code == 2 and out == "" and "terms" in err


def test_classify_refuses_oversized_l_value_before_the_census(monkeypatch, capsys):
    refuse_class_scans(monkeypatch)
    code, out, err = run_cli(capsys, "classify", "--det", "100000003")
    assert code == 2 and out == "" and "L-value needs 1000000030 terms" in err


# 999990:1000009 ends on an unrealizable S, and 1000007 and 1000008 need more
# than L_TERMS_MAX terms: the refusal must look back past the last S
@pytest.mark.parametrize("det_range", ["1:3000000", "1:1000000000000", "999990:1000009"])
def test_classify_refuses_an_oversized_range_before_any_census(monkeypatch, capsys, det_range):
    refuse_class_scans(monkeypatch)
    euler.genus_partition.cache_clear()
    code, out, err = run_cli(capsys, "classify", "--det-range", det_range)
    assert code == 2 and out == "" and err.startswith("error: L-value needs")


def test_classify_range_without_realizable_det_needs_no_l_value(capsys):
    code, out, _ = run_cli(capsys, "classify", "--det-range", "5:6", "--prime-bound", "50")
    assert code == 0 and [obj["mass_exact"] for obj in json.loads(out)] == ["0", "0"]


def test_classify_unrealizable_det_scans_no_class(monkeypatch, capsys):
    # 4ac - b^2 is never 1 or 2 mod 4, so the census is empty without a scan
    refuse_class_scans(monkeypatch)
    euler.genus_partition.cache_clear()
    code, out, _ = run_cli(capsys, "classify", "--det", "999999999997")
    objs = json.loads(out)
    assert code == 0 and objs[0]["classes"] == [] and objs[0]["mass_exact"] == "0"
    code, _, err = run_cli(capsys, "classify", "--det", "1000000000001")
    assert code == 2 and "factorization range" in err


def test_classify_range_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "--det-range", "3:5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("det,")
    assert len(lines) == 4


def test_classify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--det-range", "20:28")
    _, out2, _ = run_cli(capsys, "classify", "--det-range", "20:28")
    assert out1 == out2


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "classify", "--det", "23", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["det"] == 23


@pytest.mark.parametrize("fmt, marker", [("json", '"det": {},'), ("csv", "\n{},")])
def test_classify_range_writes_each_report_before_building_the_next(monkeypatch, fmt, marker):
    """A range holds one report at a time: S's row is on stdout when the
    report of S + 1 is built."""
    out = io.StringIO()
    written = {}
    build = cli.report_json_obj

    def spying(S, prime_bound):
        written[S] = out.getvalue()
        return build(S, prime_bound)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(cli, "report_json_obj", spying)
    assert main(["classify", "--det-range", "20:24", "--format", fmt]) == 0
    for S in range(21, 25):
        assert marker.format(S - 1) in written[S] and marker.format(S) not in written[S], S
    assert marker.format(24) in out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_refused_first_det_writes_nothing(tmp_path, capsys, fmt):
    target = tmp_path / "r.txt"
    for out_args in ((), ("--out", str(target))):
        code, out, err = run_cli(capsys, "classify", "--det", "1000000000001", "--format", fmt, *out_args)
        assert code == 2 and out == "" and "factorization range" in err
    assert not target.exists()


@pytest.mark.parametrize("command", ["classify --det 23", "euler --p 5 --unit 1 --which A"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, *command.split(), "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_euler_coefficients(capsys):
    code, out, _ = run_cli(capsys, "euler", "--p", "5", "--unit", "1", "--which", "B", "--terms", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == ["1", "0", "4/125", "0", "4/3125", "0"]


def test_euler_leading_minus_one_at_two(capsys):
    code, out, _ = run_cli(capsys, "euler", "--p", "2", "--unit", "3", "--which", "B", "--terms", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][0] == "-1"


def test_euler_closed_form_flag(capsys):
    code, out, _ = run_cli(
        capsys, "euler", "--p", "2", "--unit", "1", "--which", "A", "--terms", "5", "--closed-form"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["table_matches"] is True
    assert obj["printed_matches"] is False
    assert obj["printed_mismatch_at"]


@pytest.mark.parametrize("terms", ["10000", "1000000000000"])
def test_euler_refuses_oversized_terms_before_any_coefficient(monkeypatch, capsys, terms):
    def no_coeff(*args):
        raise AssertionError("Euler coefficient computed for a refused --terms")

    for name in ("a_coeff", "b_coeff", "closed_form", "closed_form_report"):
        monkeypatch.setattr(cli, name, no_coeff)
    for which in ("A", "B"):
        code, out, err = run_cli(capsys, "euler", "--p", "3", "--unit", "1", "--which", which, "--terms", terms)
        assert code == 2 and out == ""
        assert err.startswith(f"error: --terms {terms} at p = 3") and err.rstrip().endswith("is 8383")


def test_euler_rejects_nonprime(capsys):
    code, _, err = run_cli(capsys, "euler", "--p", "4", "--unit", "1", "--which", "A")
    assert code == 2 and "prime" in err


def test_euler_rejects_nonunit(capsys):
    code, _, _ = run_cli(capsys, "euler", "--p", "3", "--unit", "6", "--which", "A")
    assert code == 2
    code, _, _ = run_cli(capsys, "euler", "--p", "2", "--unit", "4", "--which", "A")
    assert code == 2


def test_verify_decomposition(capsys):
    code, out, _ = run_cli(capsys, "verify", "decomposition", "--max-det", "120")
    assert code == 0
    assert "PASS decomposition unconstrained S<=120" in out.splitlines()
    assert "PASS decomposition constrained" in out
    assert "PASS sign-tuple" in out


def test_constrained_cases_walk_every_sign_vector_once():
    """The constraint walk is fixed, stops at CONSTRAINED_MAX_DET and gives
    each (S, primes) on {2, 3, 5} u {p | S} all of its sign vectors."""
    assert len(list(cli._constrained_cases(1))) == 6 + 12 + 8
    walk = list(cli._constrained_cases(2000))
    assert all(x == y for x, y in itertools.zip_longest(walk, cli._constrained_cases(5000)))
    signs: dict[tuple[int, tuple[int, ...]], set[tuple[int, ...]]] = {}
    for S, cons in walk:
        assert set(cons) <= {2, 3, 5} | {p for p, _ in factor(S)}, (S, cons)
        signs.setdefault((S, tuple(cons)), set()).add(tuple(cons.values()))
    assert sum(map(len, signs.values())) == 156848
    assert all(len(v) == 2 ** len(primes) for (_, primes), v in signs.items())
    assert (1,) in signs[12, (2,)]


def test_verify_siegel(capsys):
    code, out, _ = run_cli(capsys, "verify", "siegel", "--max-det", "150")
    assert code == 0 and "PASS siegel" in out


@pytest.mark.parametrize("suite", ["decomposition", "siegel"])
def test_verify_refuses_a_walk_past_the_factorization_range(monkeypatch, capsys, suite):
    """A walk up to 10^12 could never finish: it is refused before any census."""

    def no_census(S):
        raise AssertionError(f"census of {S}")

    monkeypatch.setattr(euler, "genus_partition", no_census)
    monkeypatch.setattr(cli, "genus_partition", no_census)
    code, out, err = run_cli(capsys, "verify", suite, "--max-det", str(10**12))
    assert code == 2 and out == "" and "factorization range" in err


def test_verify_decomposition_reports_a_failing_identity(monkeypatch, capsys):
    """With the last genus of every S dropped the identity fails; each FAIL
    line prints both sides reduced, as `decomposition_check` returns them."""
    full = euler.genus_partition
    monkeypatch.setattr(euler, "genus_partition", lambda S: full(S)[:-1])
    code, out, _ = run_cli(capsys, "verify", "decomposition", "--max-det", "60")
    assert code == 1
    fails = re.findall(r"^FAIL decomposition S=(\d+): lhs=(\S+) rhs=(\S+)$", out, re.M)
    assert len(fails) == 10 and "FAIL decomposition unconstrained" in out
    multi = 0
    for S, lhs, rhs in fails:
        res = euler.decomposition_check(int(S))
        assert (lhs, rhs) == (str(res["lhs"]), str(res["rhs"])) and lhs != rhs
        for side in (lhs, rhs):
            assert str(Fraction(side)) == side
        if len(full(int(S))) >= 2:
            multi += 1
            assert "/" in lhs and "/" in rhs, S
    assert multi >= 1


def test_verify_siegel_reports_a_failing_ratio(monkeypatch, capsys):
    ratio = cli.genus_mass_ratio
    monkeypatch.setattr(cli, "genus_mass_ratio", lambda s1, s2: 2 * ratio(s1, s2))
    code, out, _ = run_cli(capsys, "verify", "siegel", "--max-det", "100")
    assert code == 1
    assert re.search(r"^FAIL siegel S=\d+: census \S+ vs local \S+$", out, re.M)
    assert "FAIL siegel mass-ratio identity" in out
    # every multi-genus S fails, but only the first 10 are printed
    assert len(re.findall(r"^FAIL siegel S=", out, re.M)) == 10


def test_verify_class_number_prints_at_most_10_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "class-number", "--dmax", "200", "--tol", "1e-12")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 11
    assert all(re.fullmatch(r"FAIL class-number D=-\d+: h=\d+ predicted=\d+\.\d{6}", x) for x in lines[:10])
    assert lines[-1].startswith("FAIL class-number formula on ")


@pytest.mark.parametrize(
    "command, name, failing, shown",
    [
        (
            "verify decomposition --max-det 60",
            "decomposition_check",
            lambda real: lambda S, cons=None: dict(real(S, cons), equal=not cons),
            {"decomposition constrained S<=60 (2852 cases)": 10},
        ),
        (
            "verify decomposition --max-det 60",
            "sign_tuple_identity",
            lambda real: lambda t, c: False,
            {"sign-tuple polynomial identity |T|<=4": 8},
        ),
        (
            "verify euler-closed-forms",
            "closed_form_report",
            lambda real: lambda *args: dict(real(*args), table_matches=False),
            {"odd-p closed forms match enumeration (nu <= 10)": 10, "p=2 table closed forms match enumeration": 8},
        ),
    ],
    ids=["constrained", "sign-tuple", "closed-forms"],
)
def test_verify_prints_at_most_10_failures_per_verdict(monkeypatch, capsys, command, name, failing, shown):
    """Every verdict line goes through one capped loop: a planted failure
    prints at most 10 FAIL lines before its FAIL summary, the other verdicts
    still pass, and the LEDGER notes of a passing run all stay in place."""
    _, before, _ = run_cli(capsys, *command.split())
    titles = [x.removeprefix("PASS ") for x in before.splitlines() if x.startswith("PASS ")]
    monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 1
    n, fail_lines = 0, {}  # FAIL lines printed before each summary
    for line in out.splitlines():
        verdict, _, title = line.partition(" ")
        if title in titles:
            assert verdict == ("FAIL" if title in shown else "PASS"), line
            fail_lines[title], n = n, 0
        elif verdict == "FAIL":
            n += 1
    assert list(fail_lines) == titles and {t: k for t, k in fail_lines.items() if k} == shown
    assert [x for x in out.splitlines() if x.startswith("LEDGER")] == [
        x for x in before.splitlines() if x.startswith("LEDGER")
    ]


def test_verify_class_number(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "class-number", "--dmax", "60", "--tol", "1e-3", "--prime-bound", "100000"
    )
    assert code == 0 and "PASS class-number" in out


def test_verify_class_number_refuses_oversized_dmax_before_any_check(monkeypatch, capsys):
    def no_check(D, prime_bound=10**5):
        raise AssertionError(f"dirichlet_check of {D}")

    monkeypatch.setattr(cli, "dirichlet_check", no_check)
    refuse_class_scans(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "class-number", "--dmax", "1000003")
    assert code == 2 and out == "" and "--dmax" in err


def test_verify_closed_forms_emits_ledger(capsys):
    code, out, _ = run_cli(capsys, "verify", "euler-closed-forms")
    assert code == 0
    assert "PASS odd-p closed forms" in out
    assert "PASS p=2 table closed forms" in out
    assert "LEDGER" in out  # documented as-printed discrepancies, not fatal


def test_verify_rejects_bad_tol(capsys):
    code, _, _ = run_cli(capsys, "verify", "class-number", "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_rejects_non_finite_tol(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "class-number", "--dmax", "20", "--prime-bound", "100", "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol" in err


@pytest.mark.parametrize(
    "command, code", [("classify --det-range 1:3000", 0), ("verify class-number --dmax 200 --tol 1e-12", 1)]
)
def test_closed_stdout_keeps_the_exit_code(command, code):
    """A reader that stops early is no usage error: no error line, no
    message from the interpreter's final flush, and the command's own exit
    code."""
    env = dict(os.environ, PYTHONPATH=str(Path(qfmass.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qfmass.cli", *command.split()],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code and err == b""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2


def test_interleaved_calls_in_one_process(capsys):
    first = run_cli(capsys, "classify", "--det", "23")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--det", "23", "--det-range", "1:5"])
    capsys.readouterr()
    siegel = run_cli(capsys, "verify", "siegel", "--max-det", "100")
    again = run_cli(capsys, "classify", "--det", "23")
    assert (first[0], exc.value.code, siegel[0], again[0]) == (0, 2, 0, 0)
    assert again == first


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    """`main` builds the top-level parser once per process; after an argparse
    usage error and two `_fail_usage` exits, the reused parser prints the
    same bytes as a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["classify", "--det", "23"], ["euler", "--p", "3", "--unit", "1", "--which", "A"]) * 2:
        assert run_cli(capsys, *argv)[0] == 0
    assert built.count("qfmass") == 1

    with pytest.raises(SystemExit) as exc:
        main(["classify", "--det", "23", "--det-range", "1:5"])
    assert exc.value.code == 2
    assert run_cli(capsys, "classify", "--det", "0")[0] == 2
    assert run_cli(capsys, "verify", "siegel", "--max-det", "0")[0] == 2

    env = dict(os.environ, PYTHONPATH=str(Path(qfmass.__file__).parents[1]))
    for argv in (["classify", "--det", "23"], ["verify", "siegel", "--max-det", "100"], ["--help"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "qfmass.cli", *argv], env=env, capture_output=True, check=True, timeout=120
        ).stdout
        if argv == ["--help"]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
        else:
            out = run_cli(capsys, *argv)[1]
        assert out.encode("utf-8") == fresh, argv
    assert built.count("qfmass") == 1


def test_verify_closed_forms_fails_when_the_ledger_moves(monkeypatch, capsys):
    report = cli.closed_form_report

    def moved(p, u, which, terms):
        rep = report(p, u, which, terms)
        return dict(rep, printed_mismatch_at=rep["printed_mismatch_at"][1:]) if (p, u, which) == (2, 7, "B") else rep

    monkeypatch.setattr(cli, "closed_form_report", moved)
    code, out, _ = run_cli(capsys, "verify", "euler-closed-forms")
    assert code == 1
    assert "FAIL p=2 u=7 B: as-printed form disagrees with enumeration at nu=[6, 8, 10], documented nu=[2, 6, 8, 10]" in out
    assert "FAIL p=2 table closed forms match enumeration" in out
    assert sum(line.startswith("LEDGER") for line in out.splitlines()) == 5


def test_verify_closed_forms_fails_on_an_odd_p_as_printed_mismatch(monkeypatch, capsys):
    """The one closed-form loop holds odd p to no documented mismatch: a
    planted one at (3, 1, A) fails the odd-p verdict alone, and the p = 2
    LEDGER lines stay in place."""
    _, before, _ = run_cli(capsys, "verify", "euler-closed-forms")
    report = cli.closed_form_report

    def planted(p, u, which, terms):
        rep = report(p, u, which, terms)
        return dict(rep, printed_matches=False, printed_mismatch_at=[4]) if (p, u, which) == (3, 1, "A") else rep

    monkeypatch.setattr(cli, "closed_form_report", planted)
    code, out, _ = run_cli(capsys, "verify", "euler-closed-forms")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL p=3 u=1 A: as-printed form disagrees with enumeration at nu=[4], documented nu=[]" in lines
    assert "FAIL odd-p closed forms match enumeration (nu <= 10)" in lines
    assert "PASS p=2 table closed forms match enumeration" in lines
    assert [x for x in lines if x.startswith("LEDGER")] == [x for x in before.splitlines() if x.startswith("LEDGER")]


def test_classify_without_det_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    assert "--det" in capsys.readouterr().err


def test_classify_det_and_det_range_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--det", "23", "--det-range", "1:5"])
    assert exc.value.code == 2
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "siegel", "--dmax", "9"), "--dmax"),
        (("verify", "euler-closed-forms", "--max-det", "5"), "--max-det"),
        (("verify", "decomposition", "--tol", "1e-9"), "--tol"),
    ],
)
def test_verify_suite_rejects_flags_it_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "decomposition", "--max-det", "0"), "--max-det"),
        (("verify", "siegel", "--max-det", "0"), "--max-det"),
        (("verify", "class-number", "--dmax", "2"), "--dmax"),
    ],
)
def test_verify_rejects_empty_range(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


# sha256 of stdout for fixed invocations: identical invocations must keep
# producing byte-identical output, so a changed digest is a changed output
GOLDEN_SHA256 = {
    "classify --det-range 1:40": "36ffdf7bd4d433d0e5c3cfc8e1374764afbc43abc28cbcd162c307179253549b",
    "classify --det-range 1:40 --format csv": "1a577cb969b32a30cba7466abb3f8a21a4f53403683d0e0817e60d69f070dcb4",
    "verify decomposition --max-det 300": "320844ba585d3cfb48558db99891bdc85e124e4541f7c0ce9829f57f19c96cad",
    "verify siegel --max-det 300": "1fab961f5c67e0bb2696ee61c237171ea6f545ddad0edf461ccc028824309dd8",
    "verify decomposition --max-det 2000": "bd995241ea59b52ad3731a3202b0d290cd2aaf40d9fbaccf38cdbf44522e0756",
    "verify siegel --max-det 2000": "910fac037c6342f8e370e1b867c06e0a7912a314b7fd073901a16d906ebc307b",
    "euler --p 2 --unit 3 --which B --terms 12 --closed-form": (
        "1af7b564b8bdbbfac585ad480e37f1326803d6b177b21da6662c0219f5c435d1"
    ),
    "euler --p 2 --unit 1 --which B --terms 12 --closed-form": (
        "d493699123f68c998e23b18cafcc9b2a21e2c1491bf2cdd0c06751404745bff4"
    ),
    "euler --p 3 --unit 2 --which A --terms 12 --closed-form": (
        "79ba6e508a1b84cff35f088b99188f99b9fbf70eb666aaa6c9272001c1f1429f"
    ),
    "verify class-number --dmax 500": "4445fdd66786de3f8dbef877e76c92a112eeb2f93a4dc21804e866e20839b12a",
    "verify euler-closed-forms": "e26abe5f8de8877ec135b4a3090d65b4a29db54f7ded9758db332363101da03c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_output_is_byte_identical_to_golden(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[command]


def test_output_does_not_depend_on_the_blas_thread_count():
    # the L-value behind rhs_numeric and rel_err makes no BLAS call, so one
    # and two BLAS threads print the same bytes
    command = "classify --det-range 1:40"
    src = str(Path(qfmass.__file__).parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "qfmass.cli", *command.split()],
            env=env, capture_output=True, check=True, timeout=120,
        ).stdout
        assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[command], threads
