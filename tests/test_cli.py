import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import curvehull
from curvehull.cli import (UsageError, parse_basis, parse_interval, parse_poly,
                           parse_rational, parse_zeros, run)
from curvehull.unipoly import UniPoly

t = UniPoly.t()


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("1/3") == F(1, 3)

    def test_integer(self):
        assert parse_rational("-7") == F(-7)

    def test_terminating_decimal(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("-1.5") == F(-3, 2)

    def test_zero_denominator(self):
        with pytest.raises(UsageError):
            parse_rational("1/0")

    def test_garbage(self):
        for bad in ("1e3", "one", "1/2/3", "", "0x10", "nan"):
            with pytest.raises(UsageError):
                parse_rational(bad)


class TestParsePoly:
    def test_monomials(self):
        assert parse_poly("t^3") == t ** 3
        assert parse_poly("t") == t
        assert parse_poly("1") == UniPoly.one()

    def test_signs_and_coefficients(self):
        assert parse_poly("-t^2+3t-1/2") == -(t ** 2) + 3 * t - F(1, 2)
        assert parse_poly("2*t^2 - 1/3") == 2 * t ** 2 - F(1, 3)
        assert parse_poly("t^5+t^6") == t ** 5 + t ** 6

    def test_basis(self):
        assert parse_basis("t^3,t,1") == (t ** 3, t, UniPoly.one())

    def test_garbage(self):
        with pytest.raises(UsageError):
            parse_poly("x^2")
        with pytest.raises(UsageError):
            parse_poly("")


class TestParseHelpers:
    def test_interval(self):
        s = parse_interval("0,1")
        assert s.lo == 0 and s.hi == 1
        with pytest.raises(UsageError):
            parse_interval("0")

    def test_zeros(self):
        zp = parse_zeros("1/3:2,2/3:2")
        assert zp.points == (F(1, 3), F(2, 3)) and zp.mults == (2, 2)
        with pytest.raises(UsageError):
            parse_zeros("1/3")


class TestVerbs:
    def run_json(self, capsys, argv, expect=0):
        code = run(argv)
        out = capsys.readouterr().out
        assert code == expect, out
        return json.loads(out.strip())

    def test_schur(self, capsys):
        data = self.run_json(capsys, ["schur", "--seq", "2,1,0"])
        assert data == {"seq": [2, 1, 0], "tableaux": "1", "bialternant": "1",
                        "equal": True}

    def test_schur_single_method(self, capsys):
        data = self.run_json(capsys, ["schur", "--seq", "3,1,0",
                                      "--method", "tableaux"])
        assert data["tableaux"] == "x0 + x1 + x2"
        assert "bialternant" not in data

    def test_schur_rejects_bad_seq(self, capsys):
        assert run(["schur", "--seq", "1,2,3"]) == 1

    def test_verify_schur(self, capsys):
        data = self.run_json(capsys, ["verify-schur", "--max-n", "1",
                                      "--max-entry", "3"])
        assert data["ok"] and not data["failures"]

    def test_verify_diagonal(self, capsys):
        data = self.run_json(capsys, ["verify-diagonal", "--basis", "t^3,t,1",
                                      "--blocks", "1,2"])
        assert data["checked"] and data["in_ideal"]
        assert data["cofactor"] == "-t0 - 2*t1"

    def test_extreme(self, capsys):
        data = self.run_json(capsys, ["extreme", "--basis", "t^4,t^3,t^2,t,1",
                                      "--interval", "0,1",
                                      "--zeros", "1/3:2,2/3:2"])
        assert data["report"] == {"nonneg": True, "zero_count": 4,
                                  "face_dim": 1, "extreme": True}

    def test_verify_extreme(self, capsys):
        data = self.run_json(capsys, ["verify-extreme", "--basis", "t^2,t,1",
                                      "--interval", "0,1", "--poly", "1"])
        assert data == {"poly": "1", "nonneg": True, "zero_count": 0,
                        "face_dim": 3, "extreme": False}

    def test_lmi_stdout(self, capsys):
        data = self.run_json(capsys, ["lmi", "--kind", "hankel", "--n", "2"])
        assert data["n"] == 2
        assert data["blocks"][0]["A"] == ["1", "0", "0", "0"]

    def test_lmi_odd_hankel_is_domain_error(self, capsys):
        assert run(["lmi", "--kind", "hankel", "--n", "3"]) == 1

    def test_member_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "hankel4.json"
        self.run_json(capsys, ["lmi", "--kind", "hankel", "--n", "4",
                               "--json", str(path)])
        data = self.run_json(capsys, ["member", "--lmi", str(path),
                                      "--point", "0,0,0,-1"])
        assert data == {"member": False}
        data = self.run_json(capsys, ["member", "--lmi", str(path),
                                      "--point", "1/2,1/4,1/8,1/16"])
        assert data == {"member": True}

    @pytest.mark.parametrize("text", [
        "[1]",
        '"abc"',
        '{"n": 1, "blocks": 5}',
        '{"n": 1, "blocks": [{"size": 1, "A": 5, "B": [["1"]]}]}',
        '{"n": 1, "blocks": [{"size": 1, "A": ["1/0"], "B": [["1"]]}]}',
        '{"n": 1.9, "blocks": [{"size": true, "A": ["1"], "B": [["1"]]}]}',
        '{"n": "1", "blocks": [{"size": 1, "A": ["1"], "B": [["1"]]}]}',
        '{"n": 1, "blocks": [{"size": 0, "A": [], "B": [[]]}]}',
        '{"n": 0, "blocks": []}',
        '{"n": 1, "blocks": []}',
    ])
    def test_member_malformed_pencil_is_json_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        data = self.run_json(capsys, ["member", "--lmi", str(path), "--point", "1"],
                             expect=1)
        assert data["error"].startswith("cannot load pencil: ")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--json", "--sdpa"])
    def test_lmi_unwritable_path_is_json_error(self, capsys, tmp_path, option):
        path = tmp_path / "missing" / "out"
        data = self.run_json(capsys, ["lmi", "--kind", "hankel", "--n", "2",
                                      option, str(path)], expect=1)
        assert data["error"].startswith(f"cannot write {path}: ")
        assert "Traceback" not in capsys.readouterr().err

    def test_member_malformed_point_is_usage_error(self, capsys, tmp_path):
        assert run(["member", "--lmi", str(tmp_path / "x.json"),
                    "--point", "1/0"]) == 2

    def test_sdpa_file(self, capsys, tmp_path):
        path = tmp_path / "out.dat-s"
        self.run_json(capsys, ["lmi", "--kind", "hankel", "--n", "4",
                               "--sdpa", str(path)])
        text = path.read_text()
        assert text.splitlines()[3] == "4"

    def test_support(self, capsys):
        data = self.run_json(capsys, ["support", "--n", "2", "--interval", "0,1",
                                      "--l=-1,1"])
        lo, hi = F(data["enclosure"][0]), F(data["enclosure"][1])
        assert lo <= F(-1, 4) <= hi
        assert F(data["width"]) <= F(1, 10 ** 6)

    def test_cross_validate(self, capsys):
        data = self.run_json(capsys, ["cross-validate", "--n", "2",
                                      "--interval", "0,1", "--trials", "6",
                                      "--seed", "3"])
        assert data["all_pass"] and data["trials"] == 6

    def test_determinism(self, capsys):
        argv = ["cross-validate", "--n", "2", "--interval", "0,1",
                "--trials", "5", "--seed", "11"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv, message", [
        (["support", "--n", "0", "--interval", "0,1", "--l=1"],
         "curve needs at least one component"),
        (["support", "--n", "2", "--interval", "1,0", "--l=1,1"],
         "degenerate interval [1, 0]"),
        (["cross-validate", "--n", "0", "--interval", "0,1"],
         "curve needs at least one component"),
        (["extreme", "--basis", "t^2,t,1", "--interval", "1/2,1/2", "--zeros", "1/2:2"],
         "degenerate interval [1/2, 1/2]"),
    ])
    def test_domain_value_errors_are_json_errors(self, capsys, argv, message):
        assert self.run_json(capsys, argv, expect=1) == {"error": message}
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_verb_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert capsys.readouterr().out == (
            '{"error": "argument verb: invalid choice: \'frobnicate\' (choose from '
            "'schur', 'verify-schur', 'verify-diagonal', 'extreme', 'verify-extreme', "
            "'lmi', 'member', 'support', 'cross-validate')\", \"usage\": true}\n")

    def test_text_format(self, capsys):
        assert run(["--format", "text", "schur", "--seq", "2,1,0"]) == 0
        out = capsys.readouterr().out
        assert "tableaux: 1" in out

    def test_lmi_json_reparses_exactly(self, capsys, tmp_path):
        # every emitted pencil reloads without loss
        for argv in (["lmi", "--kind", "hankel", "--n", "4"],
                     ["lmi", "--kind", "interval", "--n", "3",
                      "--interval", "0,1"]):
            code = run(argv)
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            from curvehull.lmi import lmi_from_json, lmi_to_json
            assert lmi_to_json(lmi_from_json(json.dumps(payload))) == payload


class TestInputLimits:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Any curve, pencil or cross validation built after the limit check
        fails the test."""
        from curvehull import hull, lmi

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the input limits were checked")

        for owner, name in ((hull, "moment_curve"), (hull, "cross_validate"),
                            (lmi, "interval_moment_lmi"), (lmi, "hankel_lmi")):
            monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("argv, message", [
        (["cross-validate", "--n", "65", "--interval", "0,1"], "--n must be in 1..64, got 65"),
        (["cross-validate", "--n", "2", "--interval", "0,1", "--trials", "0"],
         "--trials must be in 1..10000, got 0"),
        (["cross-validate", "--n", "2", "--interval", "0,1", "--trials", "10001"],
         "--trials must be in 1..10000, got 10001"),
        (["support", "--n", "65", "--interval", "0,1", "--l=1"], "--n must be in 1..64, got 65"),
        (["lmi", "--kind", "hankel", "--n", "66"], "--n must be in 1..64, got 66"),
        (["lmi", "--kind", "interval", "--n", "100000", "--interval", "0,1"],
         "--n must be in 1..64, got 100000"),
    ])
    def test_limits_are_json_errors_before_any_work(self, capsys, no_work, argv, message):
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().out) == {"error": message}

    def test_the_limits_themselves_are_accepted(self, capsys, monkeypatch):
        from curvehull import hull, lmi
        seen = {}

        class Report:
            def to_json(self):
                return {"ok": True}

        def fake_cross_validate(curve, pencil, trials, seed):
            seen.update(n=curve.n, trials=trials)
            return Report()

        monkeypatch.setattr(lmi, "interval_moment_lmi", lambda n, s: None)
        monkeypatch.setattr(hull, "cross_validate", fake_cross_validate)
        for n, trials in ((64, 10000), (1, 1)):
            assert run(["cross-validate", "--n", str(n), "--interval", "0,1",
                        "--trials", str(trials)]) == 0
            assert seen == {"n": n, "trials": trials}
        capsys.readouterr()

    def test_limits_are_in_the_help(self, capsys):
        for verb in ("cross-validate", "support", "lmi"):
            with pytest.raises(SystemExit):
                run([verb, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert "1..64" in out
            if verb == "cross-validate":
                assert "1..10000" in out
            if verb == "support":
                assert "at least 1/10^100" in out


class TestPolynomialAndSchurLimits:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Any polynomial, system or Schur polynomial built after the limit
        check fails the test."""
        from curvehull import cli, rays, schur

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the input limits were checked")

        for owner, name in ((cli, "UniPoly"), (rays, "profile_and_normalize"),
                            (schur, "schur_via_tableaux"),
                            (schur, "schur_via_bialternant")):
            monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("argv, message", [
        (["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1",
          "--poly", "t^2+t^1001"], "exponents of t must be in 0..1000, got '+t^1001'"),
        (["extreme", "--basis", "t^" + "9" * 5000 + ",1", "--interval", "0,1",
          "--zeros", "1/2:1"], "exponents of t must be in 0..1000, got " + repr("t^" + "9" * 5000)),
        (["verify-diagonal", "--basis", "t^1000000000,1", "--blocks", "1,1"],
         "exponents of t must be in 0..1000, got 't^1000000000'"),
        (["verify-schur", "--max-n", "5"], "--max-n must be in 0..4, got 5"),
        (["verify-schur", "--max-n", "-1"], "--max-n must be in 0..4, got -1"),
        (["verify-schur", "--max-entry", "9"], "--max-entry must be in 0..8, got 9"),
        (["verify-schur", "--max-n", "2", "--max-entry", "-1"],
         "--max-entry must be in 0..8, got -1"),
        (["schur", "--seq", "16,12,8,4,0", "--method", "tableaux"],
         "--seq entries must be in 0..8, got 16"),
        (["schur", "--seq", "8,7,6,5,4,3"], "--seq length must be in 1..5, got 6"),
        (["schur", "--seq", "2,1,-1"], "--seq entries must be in 0..8, got -1"),
    ])
    def test_limits_are_json_errors_before_any_work(self, capsys, no_work, argv, message):
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().out) == {"error": message}

    def test_the_limits_themselves_are_accepted(self, capsys, monkeypatch):
        from curvehull import schur
        assert parse_poly("t^1000 + t^0007").degree == 1000
        assert parse_poly("t^1000 + t^0007").coeff(7) == 1
        seen = []
        monkeypatch.setattr(schur, "schur_via_tableaux", lambda m: seen.append(m) or 0)
        monkeypatch.setattr(schur, "schur_via_bialternant", lambda m: 0)
        monkeypatch.setattr(schur, "proper_dominance_check",
                            lambda a, b: SimpleNamespace(ok=True))
        monkeypatch.setattr(schur, "subsequence_divisibility_check",
                            lambda a, idx: SimpleNamespace(ok=True))
        for max_n, max_entry in ((4, 8), (0, 0)):
            seen.clear()
            assert run(["verify-schur", "--max-n", str(max_n),
                        "--max-entry", str(max_entry)]) == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True
            assert max(map(len, seen)) == min(max_n, max_entry) + 1
            assert max(map(max, seen)) == max_entry

    def test_the_schur_limits_themselves_are_accepted(self, capsys):
        for seq in ("8,6,4,2,0", "0"):
            assert run(["schur", "--seq", seq]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["seq"] == [int(x) for x in seq.split(",")] and data["equal"] is True

    def test_limits_are_in_the_help(self, capsys):
        for verb, limits in (("schur", ("1..5", "0..8")),
                             ("verify-schur", ("0..4", "0..8")),
                             ("verify-diagonal", ("0..1000", "1..5", "degree at most 10")),
                             ("extreme", ("0..1000", "1..17", "degree at most 32")),
                             ("verify-extreme", ("0..1000", "1..17", "degree at most 32"))):
            with pytest.raises(SystemExit):
                run([verb, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert all(limit in out for limit in limits)


class TestOutputBytes:
    """What `run` prints, byte for byte, in both formats and for both error
    kinds."""

    def output(self, capsys, argv, expect):
        assert run(argv) == expect
        return capsys.readouterr().out

    @staticmethod
    def refuse(*args):
        raise AssertionError("work started before the input limits were checked")

    def test_text_usage_error(self, capsys, tmp_path):
        argv = ["--format", "text", "member", "--lmi", str(tmp_path / "x.json"),
                "--point", "1/0"]
        assert self.output(capsys, argv, 2) == "usage error: zero denominator in rational: '1/0'\n"

    def test_text_domain_error(self, capsys):
        argv = ["--format", "text", "lmi", "--kind", "hankel", "--n", "3"]
        assert self.output(capsys, argv, 1) == "error: the full Hankel pencil needs even n >= 2\n"

    def test_json_usage_error(self, capsys, tmp_path):
        argv = ["member", "--lmi", str(tmp_path / "x.json"), "--point", "1/0"]
        assert self.output(capsys, argv, 2) == (
            '{"error": "zero denominator in rational: \'1/0\'", "usage": true}\n')

    def test_json_argparse_error(self, capsys):
        argv = ["lmi", "--kind", "hankel", "--n", "abc"]
        assert self.output(capsys, argv, 2) == (
            '{"error": "argument --n: invalid int value: \'abc\'", "usage": true}\n')

    def test_text_argparse_error(self, capsys):
        argv = ["--format", "text", "lmi", "--kind", "hankel", "--n", "abc"]
        assert self.output(capsys, argv, 2) == (
            "usage error: argument --n: invalid int value: 'abc'\n")

    def test_missing_required_option(self, capsys):
        assert self.output(capsys, ["member", "--point", "1"], 2) == (
            '{"error": "the following arguments are required: --lmi", "usage": true}\n')

    def test_interval_kind_without_interval(self, capsys):
        assert self.output(capsys, ["lmi", "--kind", "interval", "--n", "2"], 2) == (
            '{"error": "--interval is required for the interval kind", "usage": true}\n')

    def test_objective_without_sdpa(self, capsys):
        # with --sdpa this objective is refused: it has length 1, the pencil n = 2
        argv = ["lmi", "--kind", "interval", "--n", "2", "--interval", "0,1",
                "--objective", "1"]
        assert self.output(capsys, argv, 2) == (
            '{"error": "--objective is used only with --sdpa", "usage": true}\n')

    @pytest.mark.parametrize("basis, message", [
        ("t^5,t^4,t^3,t^2,t,1", "--basis length must be in 1..5, got 6"),
        ("t^11+t,1", "--basis degrees must be in 0..10, got 11"),
        ("t^1000,1", "--basis degrees must be in 0..10, got 1000"),
    ])
    def test_verify_diagonal_limits(self, capsys, monkeypatch, basis, message):
        from curvehull import diagonal
        monkeypatch.setattr(diagonal, "factor_taylor_determinant", self.refuse)
        argv = ["verify-diagonal", "--basis", basis, "--blocks", "1,1"]
        assert self.output(capsys, argv, 1) == json.dumps({"error": message}) + "\n"

    def test_verify_diagonal_limits_themselves_are_accepted(self, capsys):
        argv = ["verify-diagonal", "--basis", "t^10,t^7,t^4,t^2,1", "--blocks", "5"]
        assert json.loads(self.output(capsys, argv, 0))["checked"] is True
        # the zero polynomial (degree -1) passes the degree limit
        argv = ["verify-diagonal", "--basis", "0", "--blocks", "1"]
        assert self.output(capsys, argv, 1) == '{"error": "linearly dependent basis"}\n'

    @pytest.mark.parametrize("argv, message", [
        (["extreme", "--basis", ",".join(["t"] * 18), "--interval", "0,1", "--zeros", "1/2:1"],
         "--basis length must be in 1..17, got 18"),
        (["extreme", "--basis", "t^33,t,1", "--interval", "0,1", "--zeros", "1/2:2"],
         "--basis degrees must be in 0..32, got 33"),
        (["verify-extreme", "--basis", "t^1000,t,1", "--interval", "0,1", "--poly", "t"],
         "--basis degrees must be in 0..32, got 1000"),
        (["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1", "--poly", "t^33 + 1"],
         "--poly degree must be in 0..32, got 33"),
        (["verify-extreme", "--basis", "t^300,t,1", "--interval", "0,1",
          "--poly", "t^300 - 3*t + 1"], "--poly degree must be in 0..32, got 300"),
    ])
    def test_extreme_limits(self, capsys, monkeypatch, argv, message):
        from curvehull import rays
        for name in ("profile_and_normalize", "extreme_candidate", "verify_extreme"):
            monkeypatch.setattr(rays, name, self.refuse)
        assert self.output(capsys, argv, 1) == json.dumps({"error": message}) + "\n"

    def test_extreme_limits_themselves_are_accepted(self, capsys):
        # 17 polynomials of degree at most 32, and a --poly of degree 32
        top = ",".join(f"t^{k}" for k in range(32, 15, -1))
        zeros = ",".join(f"{k}/9:2" for k in range(1, 9))
        argv = ["extreme", "--basis", top, "--interval", "0,1", "--zeros", zeros]
        assert json.loads(self.output(capsys, argv, 0))["report"] == {
            "nonneg": True, "zero_count": 16, "face_dim": 1, "extreme": True}
        even = ",".join(f"t^{k}" for k in range(32, -1, -2))
        argv = ["verify-extreme", "--basis", even, "--interval", "0,1", "--poly", "t^32 + 1"]
        assert self.output(capsys, argv, 0) == (
            '{"poly": "t^32 + 1", "nonneg": true, "zero_count": 0, "face_dim": 17, '
            '"extreme": false}\n')

    def test_support_width_limit(self, capsys, monkeypatch):
        from curvehull import hull
        argv = ["support", "--n", "4", "--interval", "0,1", "--l=1,-2,0,1", "--width"]
        least = "1/1" + "0" * 100
        assert F(json.loads(self.output(capsys, argv + [least], 0))["width"]) <= F(least)
        assert self.output(capsys, argv + ["0"], 1) == '{"error": "width must be positive"}\n'
        monkeypatch.setattr(hull, "support_min_exact", self.refuse)
        small = least + "0"
        assert self.output(capsys, argv + [small], 1) == (
            f'{{"error": "--width must be at least 1/10^100, got {small}"}}\n')

    def test_json_domain_error(self, capsys):
        argv = ["lmi", "--kind", "hankel", "--n", "3"]
        assert self.output(capsys, argv, 1) == (
            '{"error": "the full Hankel pencil needs even n >= 2"}\n')

    def test_extreme_payload(self, capsys):
        argv = ["extreme", "--basis", "t^4,t^3,t^2,t,1", "--interval", "0,1",
                "--zeros", "1/3:2,2/3:2"]
        assert self.output(capsys, argv, 0) == (
            '{"interval": ["0", "1"], "zeros": [["1/3", 2], ["2/3", 2]], '
            '"candidate": "1/81*t^4 - 2/81*t^3 + 13/729*t^2 - 4/729*t + 4/6561", '
            '"report": {"nonneg": true, "zero_count": 4, "face_dim": 1, "extreme": true}}\n')

    def test_verify_extreme_payload(self, capsys):
        argv = ["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1", "--poly", "1"]
        assert self.output(capsys, argv, 0) == (
            '{"poly": "1", "nonneg": true, "zero_count": 0, "face_dim": 3, "extreme": false}\n')

    @pytest.mark.parametrize("basis, poly, report", [
        # +sqrt(1/2) is in [0, 1], its conjugate is not: 2 < n = 4 zeros in s
        ("t^4,t^3,t^2,t,1", "t^4 - t^2 + 1/4",
         '"zero_count": 2, "face_dim": 1, "extreme": false'),
        # the same pair with n = 2: the rational face cannot decide
        ("t^4,t^2,1", "t^4 - t^2 + 1/4", '"zero_count": 2, "face_dim": 1, "extreme": null'),
        # (t^2 + t/2 - 1/2)^2 has the rational roots -1 and 1/2
        ("t^4,t^3,t^2,t,1", "t^4 + t^3 - 3/4*t^2 - 1/2*t + 1/4",
         '"zero_count": 2, "face_dim": 3, "extreme": false'),
        ("t^2,t,1", "t - t^2", '"zero_count": 0, "face_dim": 1, "extreme": true'),
    ], ids=["too-few-zeros", "undecided", "rational-zeros", "endpoint-zeros"])
    def test_verify_extreme_verdicts(self, capsys, basis, poly, report):
        argv = ["verify-extreme", "--basis", basis, "--interval", "0,1", "--poly", poly]
        assert self.output(capsys, argv, 0) == (
            f'{{"poly": "{poly}", "nonneg": true, {report}}}\n')

    def test_text_success(self, capsys):
        argv = ["--format", "text", "extreme", "--basis", "t^2,t,1", "--interval", "0,1",
                "--zeros", "1/2:2"]
        assert self.output(capsys, argv, 0) == (
            "interval: \n  - 0\n  - 1\nzeros: \n  - \n    - 1/2\n    - 2\n"
            "candidate: t^2 - t + 1/4\n"
            "report: \n  nonneg: True\n  zero_count: 2\n  face_dim: 1\n  extreme: True\n")


class TestFloatPencilEntries:
    """A JSON number such as 0.3 is a binary float, not the rational 3/10."""

    def member(self, capsys, tmp_path, entry, expect):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"n": 1, "blocks": [{"size": 1, "A": [entry],
                                                         "B": [["1"]]}]}))
        assert run(["member", "--lmi", str(path), "--point=-3/10"]) == expect
        captured = capsys.readouterr()
        assert captured.err == ""
        return json.loads(captured.out)

    def test_a_float_entry_is_a_json_error(self, capsys, tmp_path):
        data = self.member(capsys, tmp_path, 0.3, 1)
        assert data["error"].startswith("cannot load pencil: malformed pencil payload")

    @pytest.mark.parametrize("entry", [True, False])
    def test_a_bool_entry_is_a_json_error(self, capsys, tmp_path, entry):
        # JSON true/false used to load as the numbers 1 and 0
        data = self.member(capsys, tmp_path, entry, 1)
        assert data == {"error": "cannot load pencil: malformed pencil payload: TypeError: "
                                 f"a bool is not an exact rational: {entry!r}"}

    @pytest.mark.parametrize("entry", ["3/10", "0.3"])
    def test_a_string_entry_is_exact(self, capsys, tmp_path, entry):
        # the pencil 3/10 + x is 0 at x = -3/10
        assert self.member(capsys, tmp_path, entry, 0) == {"member": True}


class TestPencilEntryGrammar:
    """A string entry of a pencil file is an integer, "p/q" or a terminating
    decimal, as on the command line."""

    def member(self, capsys, tmp_path, text, expect):
        path = tmp_path / "pencil.json"
        path.write_text(text)
        assert run(["member", "--lmi", str(path), "--point", "1/3"]) == expect
        return json.loads(capsys.readouterr().out)

    def test_an_exponent_is_refused_before_fraction_expands_it(self, capsys, tmp_path):
        # Fraction("1e30000000") builds a 30-million-digit integer
        text = '{"n":1,"blocks":[{"size":1,"A":["1"],"B":[["1e30000000"]]}]}'
        assert len(text) == 60
        start = time.perf_counter()
        data = self.member(capsys, tmp_path, text, 1)
        assert time.perf_counter() - start < 0.5
        assert data == {"error": "cannot load pencil: malformed pencil payload: "
                                 "cannot parse rational: '1e30000000'"}

    def test_an_asymmetric_pencil_is_refused(self, capsys, tmp_path):
        text = json.dumps({"n": 1, "blocks": [{"size": 2, "A": ["1", "0", "1/2", "1"],
                                               "B": [["0", "0", "0", "0"]]}]})
        assert self.member(capsys, tmp_path, text, 1) == {
            "error": "cannot load pencil: not symmetric at (1,0)"}


MEMBER_PENCIL = {"n": 1, "blocks": [{"size": 1, "A": ["3/10"], "B": [["1"]]}]}
SCHUR_MODULES = {"curvehull", "cli", "unipoly", "linalg", "multipoly", "schur", "diagonal"}
LMI_MODULES = {"curvehull", "cli", "unipoly", "linalg", "lmi"}


VERB_MODULES = [
    (["schur", "--seq", "5,4,3,2,0"], SCHUR_MODULES),
    (["verify-schur", "--max-n", "1", "--max-entry", "2"], SCHUR_MODULES),
    (["verify-diagonal", "--basis", "t^3,t,1", "--blocks", "1,2"], SCHUR_MODULES),
    (["extreme", "--basis", "t^2,t,1", "--interval", "0,1", "--zeros", "1/2:2"],
     SCHUR_MODULES | {"rays"}),
    (["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1", "--poly", "1"],
     SCHUR_MODULES | {"rays"}),
    (["lmi", "--kind", "hankel", "--n", "2"], LMI_MODULES),
    (["member", "--lmi", "PENCIL", "--point=-3/10"], LMI_MODULES),
    (["support", "--n", "2", "--interval", "0,1", "--l=-1,1"], LMI_MODULES | {"hull"}),
    (["cross-validate", "--n", "2", "--interval", "0,1", "--trials", "2"],
     LMI_MODULES | {"hull"}),
]


@pytest.mark.parametrize("argv, modules", VERB_MODULES, ids=[a[0] for a, _ in VERB_MODULES])
def test_each_verb_loads_only_its_modules(tmp_path, argv, modules):
    """The curvehull modules in sys.modules after one verb in a fresh
    interpreter; importing the package alone loads none of its modules."""
    pencil = tmp_path / "pencil.json"
    pencil.write_text(json.dumps(MEMBER_PENCIL))
    argv = [str(pencil) if a == "PENCIL" else a for a in argv]
    src = str(Path(curvehull.__file__).resolve().parent.parent)
    script = ("import contextlib, io, sys\n"
              "import curvehull\n"
              "print(sorted(k for k in sys.modules if k.startswith('curvehull.')))\n"
              "from curvehull.cli import run\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = run({argv!r})\n"
              "print(code, sorted(k.partition('.')[2] or k for k in sys.modules\n"
              "                   if k.split('.')[0] == 'curvehull'))")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["[]", f"0 {sorted(modules)}"]


def test_import_leaves_sympy_unloaded():
    src = str(Path(curvehull.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, curvehull.cli; print('sympy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["extreme", "--basis", "t^4,t^3,t^2,t,1", "--interval", "0,1", "--zeros", "1/3:2,2/3:2"],
    ["verify-extreme", "--basis", "t^2,t,1", "--interval", "0,1", "--poly", "t^2-t+1/4"],
])
def test_the_readme_extreme_verbs_leave_sympy_unloaded(argv):
    # every zero of these members lies in [0, 1], so no layer is factored
    src = str(Path(curvehull.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import contextlib, io, sys\n"
              "from curvehull.cli import run\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = run({argv!r})\n"
              "print(code, 'sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False"]
