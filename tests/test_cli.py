"""End-to-end tests of the command-line interface via cli.run()."""

import io
import json
from pathlib import Path

import pytest

from singulact.cli import (
    CHECKS,
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    FAMILIES,
    MAX_SCAN_CELLS,
    run,
)


GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestReports:
    def test_lct(self):
        code, out, _ = invoke("lct", "--vars", "x,y", "--ideal", "x^2, y^3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "lct = 5/6"

    def test_lct_certificate(self):
        code, out, _ = invoke(
            "lct", "--vars", "x,y", "--ideal", "x^2, x*y, y^3", "--certificate"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lct = 1"
        assert lines[1] == "certificate: u = (1,1/2), ord = 3/2"

    def test_beta_monomial(self):
        code, out, _ = invoke("beta", "--vars", "x,y", "--poly", "x^4*y")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "beta = 1/3"

    def test_alpha_cusp(self):
        code, out, _ = invoke("alpha", "--vars", "x,y", "--poly", "x^2 + y^3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "alpha = 5/6"

    def test_alpha_smooth_is_inf(self):
        code, out, _ = invoke("alpha", "--vars", "x,y", "--poly", "x + y^5")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "alpha = inf"

    def test_milnor(self):
        code, out, _ = invoke("milnor", "--vars", "x,y", "--poly", "x^2 + y^3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "milnor = 2"

    def test_mult(self):
        code, out, _ = invoke("mult", "--vars", "x,y", "--ideal", "x^2, x*y, y^3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "multiplicity = 5"

    def test_newton_dump(self):
        code, out, _ = invoke("newton", "--vars", "x,y", "--ideal", "x^2, y^3")
        assert code == EXIT_OK
        assert "facet: u=(1,2/3) c=2" in out
        assert "vertices: 0,3; 2,0" in out


class TestJson:
    def test_report_schema(self):
        code, out, _ = invoke(
            "lct", "--vars", "x,y", "--ideal", "x^2, y^3", "--json", "--certificate"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["invariant"] == "lct"
        assert payload["value"] == "5/6"
        assert payload["n"] == 2
        assert payload["certificate"]["ord"] == "2"
        assert payload["certificate"]["u"] == ["1", "2/3"]

    def test_no_floats_anywhere(self):
        cases = [
            ("lct", "--vars", "x,y,z", "--ideal", "x*y, y*z, x*z", "--json"),
            ("alpha", "--vars", "x,y", "--poly", "x^2 + y^3", "--json"),
            ("check", "dfem", "--vars", "x,y", "--ideal", "x^2, y^3", "--json"),
            ("newton", "--vars", "x,y", "--ideal", "x^2, x*y, y^3", "--json"),
        ]
        for argv in cases:
            code, out, _ = invoke(*argv)
            assert code == EXIT_OK

            def reject_floats(obj):
                if isinstance(obj, float):
                    raise AssertionError(f"float leaked into JSON: {obj}")
                if isinstance(obj, dict):
                    for v in obj.values():
                        reject_floats(v)
                elif isinstance(obj, list):
                    for v in obj:
                        reject_floats(v)

            reject_floats(json.loads(out))

    def test_keys_sorted(self):
        _, out, _ = invoke("alpha", "--vars", "x,y", "--poly", "x^2 + y^3", "--json")
        payload = json.loads(out)
        assert out.strip() == json.dumps(payload, sort_keys=True)

    def test_check_schema(self):
        code, out, _ = invoke(
            "check", "question1", "--vars", "x,y", "--poly", "x^2 + y^3", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["check"] == "question1"
        assert payload["holds"] is True
        assert (payload["lhs"], payload["rhs"]) == ("5/6", "1")


class TestChecks:
    def test_question1_holds(self):
        code, out, _ = invoke(
            "check", "question1", "--vars", "x,y", "--poly", "x^2 + y^3"
        )
        assert code == EXIT_OK
        assert out.startswith("holds: 5/6 <= 1")

    def test_thm_alpha_lct(self):
        code, out, _ = invoke(
            "check", "thm-alpha-lct", "--vars", "x,y",
            "--poly", "x^2 + y^3", "--ideal", "x, y^2",
        )
        assert code == EXIT_OK
        assert out.startswith("holds: 5/6 <= 3/2")

    def test_restriction(self):
        code, out, _ = invoke(
            "check", "restriction", "--vars", "x,y,z",
            "--poly", "x^2 + y^3 + z^7", "--axis", "z",
        )
        assert code == EXIT_OK

    def test_restriction_requires_axis(self):
        code, _, err = invoke(
            "check", "restriction", "--vars", "x,y", "--poly", "x^2 + y^3"
        )
        assert code == EXIT_INPUT
        assert "--axis" in err

    def test_madic(self):
        code, out, _ = invoke(
            "check", "madic", "--vars", "x,y",
            "--poly", "x^2 + y^3", "--poly2", "x^2 + y^5",
        )
        assert code == EXIT_OK

    def test_milnor_bound(self):
        code, out, _ = invoke(
            "check", "milnor-bound", "--vars", "x,y,z", "--poly", "x^3 + y^3 + z^3"
        )
        assert code == EXIT_OK
        assert out.startswith("holds: 8 = 8")

    def test_milnor_bound_smooth_germ_is_equality(self):
        argv = ("check", "milnor-bound", "--vars", "x,y", "--poly", "x + y^2")
        assert invoke(*argv) == (EXIT_OK, "holds: 0 = 0\n", "")
        code, out, _ = invoke(*argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "check": "milnor-bound", "equality": True, "holds": True,
            "lhs": "0", "rhs": "0", "witness": "y^2 + x",
        }

    def test_minkowski(self):
        code, _, _ = invoke(
            "check", "minkowski", "--vars", "x,y",
            "--ideal", "x, y", "--ideal2", "x, y^2",
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "pair", [("1", "x, y"), ("x, y", "1")], ids=["ideal", "ideal2"]
    )
    def test_minkowski_unit_ideal_rejected(self, pair):
        code, out, err = invoke(
            "check", "minkowski", "--vars", "x,y",
            "--ideal", pair[0], "--ideal2", pair[1],
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "unit ideal rejected" in err


# One holding, non-equality example per check, with its text-mode line.
HOLDS = {
    "question1": (
        ["--vars", "x,y", "--poly", "x^3 + y^5"], "holds: 8/15 <= 3/5"),
    "thm-alpha-lct": (
        ["--vars", "x,y", "--poly", "x^2 + y^3", "--ideal", "x, y^2"],
        "holds: 5/6 <= 3/2"),
    "restriction": (
        ["--vars", "x,y", "--poly", "x^2 + y^3", "--axis", "y"], "holds: 1 >= 1/2"),
    "madic": (
        ["--vars", "x,y", "--poly", "x^2 + y^3", "--poly2", "x^2 + y^5"],
        "holds: 0 <= 2/3"),
    "milnor-bound": (["--vars", "x,y", "--poly", "x^2 + y^3"], "holds: 1 <= 2"),
    "dfem": (["--vars", "x,y", "--ideal", "x^2, x*y^2, y^5"], "holds: 9 >= 64/9"),
    "minkowski": (
        ["--vars", "x,y", "--ideal", "x, y", "--ideal2", "x, y^4"], "holds: 7 <= 9"),
}

# Every input flag of `check`, with a value that parses.
CHECK_FLAGS = {
    "poly": "x^2 + y^3",
    "ideal": "x, y",
    "poly2": "x^2",
    "ideal2": "y",
    "axis": "x",
    "max_points": "2",
}


def _option(dest):
    return "--" + dest.replace("_", "-")


class TestCheckTable:
    def test_every_check_has_an_example(self):
        assert set(HOLDS) == set(CHECKS)

    @pytest.mark.parametrize("name", list(HOLDS))
    def test_holds_line_prints_relation(self, name):
        argv, line = HOLDS[name]
        code, out, err = invoke("check", name, *argv)
        assert (code, out, err) == (EXIT_OK, line + "\n", "")

    @pytest.mark.parametrize(
        "name,dest",
        [
            (name, dest)
            for name, check in CHECKS.items()
            for dest in CHECK_FLAGS
            if dest not in check.inputs
        ],
    )
    def test_unread_flag_refused(self, name, dest):
        argv, _ = HOLDS[name]
        code, out, err = invoke(
            "check", name, *argv, _option(dest), CHECK_FLAGS[dest]
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: check {name} does not read {_option(dest)}\n"

    @pytest.mark.parametrize(
        "name", [name for name, c in CHECKS.items() if "max_points" in c.inputs]
    )
    def test_max_points_read(self, name):
        argv, _ = HOLDS[name]
        code, out, err = invoke("check", name, *argv, "--max-points", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert "exceed cap 1" in err

    def test_every_unread_flag_named(self):
        code, out, err = invoke(
            "check", "question1", "--vars", "x,y", "--poly", "x^2 + y^3",
            "--ideal2", "y", "--axis", "x", "--max-points", "2",
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "input error: check question1 does not read "
            "--ideal2, --axis, --max-points\n"
        )


class TestExitCodes:
    def test_input_error_on_bad_parse(self):
        code, out, err = invoke("lct", "--vars", "x,y", "--ideal", "x^2 + y")
        assert code == EXIT_INPUT
        assert out == ""
        assert "input error" in err

    def test_input_error_missing_vars(self):
        code, _, err = invoke("lct", "--ideal", "x^2, y^3")
        assert code == EXIT_INPUT
        assert "--vars" in err

    def test_unsupported_class(self):
        code, _, err = invoke(
            "beta", "--vars", "x,y", "--poly", "x^2 + y^2 + x*y^2"
        )
        assert code == EXIT_UNSUPPORTED
        assert "unsupported input class" in err

    def test_unknown_subcommand(self):
        code, _, _ = invoke("frobnicate")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "--vars", "x,y", "--ideal", "x^2, y^3", "--certificate"],
            ["mult", "--vars", "x,y", "--ideal", "x^2, y^3", "--include-f"],
            ["newton", "--vars", "x,y", "--ideal", "x^2, y^3", "--certificate"],
            ["lct", "--vars", "x,y", "--ideal", "x^2, y^3", "--include-f"],
            ["beta", "--vars", "x,y", "--poly", "x^2 + y^3", "--certificate"],
            ["alpha", "--vars", "x,y", "--poly", "x^2 + y^3", "--include-f"],
            ["check", "question1", "--vars", "x,y", "--poly", "x^2 + y^3",
             "--certificate"],
            ["alpha", "--vars", "x,y", "--poly", "x^2 + y^3", "--max-points", "3"],
            ["beta", "--vars", "x,y", "--poly", "x^2 + y^3", "--max-points", "3"],
            ["milnor", "--vars", "x,y", "--poly", "x^2 + y^3", "--max-points", "3"],
            ["scan", "diagonal", "--max-cells", "100"],
            ["beta", "--ordinary", "3,2"],
            ["beta", "--vars", "x,y", "--poly", "x^2 + y^3", "--include-f"],
        ],
    )
    def test_flag_of_another_subcommand_rejected(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("usage: singulact")
        assert "unrecognized arguments" in err
        assert capsys.readouterr().err == ""

    def test_lct_lp_route_refuses_max_points(self):
        ideal = ("--vars", "x,y,z", "--ideal", "x^2, y^3, z^4, x*y*z")
        code, out, err = invoke("lct", *ideal, "--max-points", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "input error: lct without --certificate does not read --max-points\n"
        )
        code, out, _ = invoke("lct", *ideal, "--max-points", "4", "--certificate")
        assert (code, out.splitlines()[0]) == (EXIT_OK, "lct = 13/12")

    def test_caps_env_override(self, monkeypatch):
        gens = ",".join(f"x{i+1}" for i in range(5))
        code, _, err = invoke("newton", "--vars", gens, "--ideal", gens)
        assert code == EXIT_INPUT
        assert "cap" in err
        monkeypatch.setenv("SINGULACT_CAPS_N", "5")
        code, out, _ = invoke("newton", "--vars", gens, "--ideal", gens)
        assert code == EXIT_OK
        assert "facet: u=(1,1,1,1,1) c=1" in out

    def test_caps_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("SINGULACT_CAPS_N", "abc")
        code, out, err = invoke("mult", "--vars", "x,y", "--ideal", "x^2, y^3")
        assert code == EXIT_INPUT
        assert out == ""
        assert "SINGULACT_CAPS_N" in err

    def test_max_points_zero_rejected(self):
        code, out, err = invoke(
            "newton", "--vars", "x,y", "--ideal", "x^2, y^3", "--max-points", "0"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "--max-points" in err

    def test_max_points_negative_rejected(self):
        code, out, err = invoke(
            "newton", "--vars", "x,y", "--ideal", "x^2, y^3", "--max-points", "-5"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "--max-points" in err

    def test_max_points_applied(self):
        code, _, err = invoke(
            "newton", "--vars", "x,y", "--ideal", "x^2, y^3", "--max-points", "1"
        )
        assert code == EXIT_INPUT
        assert "2 generators exceed cap 1" in err


class TestScan:
    def test_diagonal_question1(self):
        code, out, _ = invoke("scan", "diagonal", "--n", "2", "--max-exp", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 10  # 3x3 grid plus summary
        assert lines[-1].startswith("summary: 9 cases, 0 violations")

    def test_diagonal_deterministic(self):
        a = invoke("scan", "diagonal", "--n", "2", "--max-exp", "5", "--json")
        b = invoke("scan", "diagonal", "--n", "2", "--max-exp", "5", "--json")
        assert a == b

    def test_monomial_pairs_deterministic(self):
        args = (
            "scan", "monomial-pairs", "--n", "2", "--count", "20",
            "--seed", "7", "--check", "minkowski", "--json",
        )
        a = invoke(*args)
        b = invoke(*args)
        assert a == b
        assert a[0] == EXIT_OK

    def test_monomial_pairs_dfem(self):
        code, out, _ = invoke(
            "scan", "monomial-pairs", "--n", "2", "--count", "10",
            "--seed", "3", "--check", "dfem",
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "summary: 10 cases, 0 violations"

    def test_count_cap(self):
        code, out, err = invoke(
            "scan", "monomial-pairs", "--check", "dfem",
            "--count", str(MAX_SCAN_CELLS + 1),
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: count exceeds the scan cap\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_count_rejected(self, count):
        code, out, err = invoke(
            "scan", "monomial-pairs", "--check", "dfem", "--count", count
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: monomial-pairs scan needs --count >= 1\n"

    @pytest.mark.parametrize(
        "kind,dest",
        [
            (kind, dest)
            for kind, family in FAMILIES.items()
            for dest in ("n", "max_exp", "count", "seed")
            if dest not in family.flags
        ],
    )
    def test_unread_flag_refused(self, kind, dest):
        check = next(iter(FAMILIES[kind].checks))
        code, out, err = invoke(
            "scan", kind, "--check", check, "--n", "2", _option(dest), "3"
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"input error: scan {kind} does not read {_option(dest)}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--max-exp", "1"], ["--max-exp", "0"], ["--max-exp", "-3"],
         ["--n", "0"], ["--n", "-1"]],
    )
    def test_empty_or_negative_grid_rejected(self, flags):
        code, out, err = invoke("scan", "diagonal", *flags)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: scan caps")


class TestHelpAndWarnings:
    @pytest.mark.parametrize("argv", [["lct", "--help"], ["--help"]])
    def test_help_goes_to_out(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert code == EXIT_OK
        assert out.startswith("usage: singulact")
        assert err == ""
        assert capsys.readouterr() == ("", "")

    def test_coefficient_warning_on_every_call(self, capsys):
        plain = invoke("lct", "--vars", "x,y", "--ideal", "x^2, y^3")
        for _ in range(3):
            code, out, err = invoke("lct", "--vars", "x,y", "--ideal", "2*x^2, y^3")
            assert (code, out) == plain[:2]
            assert err == (
                "warning: coefficient 2 discarded from ideal generator '2*x^2'\n"
            )
        assert capsys.readouterr() == ("", "")


class TestRegistry:
    def test_text(self):
        code, out, _ = invoke("registry")
        assert code == EXIT_OK
        assert "det generic matrix: beta = 4 (registry)" in out
        assert "det generic matrix: alpha = 2 (registry)" in out
        assert "registry question1: holds (2 <= 4)" in out

    def test_json(self):
        code, out, _ = invoke("registry", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(e["method"] == "registry" for e in payload["entries"])
        assert payload["question1"]["holds"] is True


class TestReuse:
    """One process answers many requests through one parser and one table of
    recent Newton polyhedra; no request may change another's answer."""

    def test_golden_corpus_in_any_order(self):
        backwards = GOLDEN[::-1]
        interleaved = [c for pair in zip(GOLDEN, backwards) for c in pair]
        for case in GOLDEN + backwards + interleaved:
            code, out, _ = invoke(*case["argv"])
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]

    IDEAL = ["--vars", "x,y,z", "--ideal", "x^2, y^3, z^4, x*y*z"]

    @pytest.mark.parametrize(
        "command", [["newton"], ["mult"], ["lct", "--certificate"]]
    )
    def test_max_points_checked_on_stored_polyhedron(self, command):
        assert invoke(*command, *self.IDEAL)[0] == EXIT_OK
        code, out, err = invoke(*command, *self.IDEAL, "--max-points", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "4 generators exceed cap 1" in err

    @pytest.mark.parametrize(
        "command", [["newton"], ["mult"], ["lct", "--certificate"]]
    )
    def test_dimension_cap_checked_on_stored_polyhedron(self, command, monkeypatch):
        assert invoke(*command, *self.IDEAL)[0] == EXIT_OK
        monkeypatch.setenv("SINGULACT_CAPS_N", "2")
        code, out, err = invoke(*command, *self.IDEAL)
        assert code == EXIT_INPUT
        assert out == ""
        assert "dimension 3 exceeds cap 2" in err
