"""Command-line interface: exit codes, exact output forms, JSON payloads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pdc import cli
from pdc.cli import main
from pdc.laurent import laurent_expand
from pdc.ratfun import parse_rf
from pdc.series import (SeriesRecord, builtin_db, cap_series,
                        local_curve_series, make_key, record_from_obj,
                        records_to_json)

from helpers import degree_six_pair


@pytest.fixture(autouse=True)
def clean_db_env(monkeypatch):
    monkeypatch.delenv("PDC_DB", raising=False)


class TestCheckCommands:
    def test_fe_check_exact_output(self, capsys):
        assert main(["fe-check", "--series", "tau5(1)", "--degree", "1"]) == 0
        assert capsys.readouterr().out == "PASS sign=-1 d_beta=4\n"

    def test_fe_check_even_insertion(self, capsys):
        assert main(["fe-check", "--series", "ch4(p)", "--degree", "1"]) == 0
        assert capsys.readouterr().out == "PASS sign=1 d_beta=4\n"

    def test_virasoro_check_exact_output(self, capsys):
        assert main(["virasoro-check", "--k", "1", "--D", "ch3(p)",
                     "--degree", "1"]) == 0
        assert capsys.readouterr().out == "PASS: sum = 0\n"

    def test_virasoro_check_bad_index(self, capsys):
        assert main(["virasoro-check", "--k", "-2", "--D", "ch3(p)",
                     "--degree", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bracket_check_rejects_low_indices(self, capsys):
        assert main(["bracket-check", "--k", "5", "--m", "-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_operator_index_at_the_cap_runs(self, capsys):
        cap = cli.MAX_OPERATOR_INDEX
        assert main(["virasoro-check", "--k", str(cap), "--D", "ch3(p)",
                     "--degree", "1"]) == 0
        assert main(["bracket-check", "--k", str(cap), "--m", str(cap - 1),
                     "--bound", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["virasoro-check", "--k", "{}", "--D", "ch3(p)", "--degree", "1"],
        ["bracket-check", "--k", "{}", "--m", "0"],
        ["bracket-check", "--k", "0", "--m", "{}"],
    ])
    def test_operator_index_over_the_cap_exits_2(self, argv, capsys):
        cap = cli.MAX_OPERATOR_INDEX
        assert main([a.format(cap + 1) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error:") and f"at most {cap}" in err

    def test_bracket_check_passes(self, capsys):
        assert main(["bracket-check", "--k", "0", "--m", "1",
                     "--bound", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_pole_check_pass_and_fail(self, capsys):
        assert main(["pole-check", "--series", "ch7(1)",
                     "--degree", "1"]) == 0
        assert capsys.readouterr().out == (
            "PASS poles confined with divisor bound 1\n")
        # the degree-2 series has poles at q = 1, beyond divisor bound 1
        assert main(["pole-check", "--series", "ch11(1)", "--degree", "2",
                     "--div", "1"]) == 1
        assert capsys.readouterr().out.startswith("FAIL")
        assert main(["pole-check", "--series", "ch7(1)", "--degree", "1",
                     "--div", "0"]) == 2

    @pytest.mark.parametrize("series, degree, reach", [
        ("ch7(1)", "1", "6"),      # denominator (1+q)^3: phi(k) <= 3
        ("ch11(1)", "2", "18"),    # (1-q^2)^3: phi(k) <= 6
        ("ch4(p)", "1", "1"),      # denominator 1
    ])
    def test_pole_check_huge_divisor_bound(self, capsys, series, degree,
                                           reach):
        # a factor Phi_k(-q) of the denominator has phi(k) <= its degree,
        # so any bound past the largest such k gives the same verdict
        runs = []
        for div in (reach, "1000000"):
            code = main(["--json", "pole-check", "--series", series,
                         "--degree", degree, "--div", div])
            runs.append((code, json.loads(capsys.readouterr().out)["pass"]))
        assert runs[0] == runs[1] == (0, True)


class TestInternalErrors:
    def test_crash_exits_3_with_one_line(self, monkeypatch, capsys):
        # a crash is a fault of pdc, never a failed check (exit 1)
        def crash(args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "_cmd_db", crash)
        monkeypatch.setattr(sys, "argv", ["pdc", "db", "list"])
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "internal error: TypeError: unsupported operand\n")

    @pytest.mark.parametrize("argv, code", [
        (["db", "show", "P3:1:ch4(p)"], 0),
        (["pole-check", "--series", "ch11(1)", "--degree", "2",
          "--div", "1"], 1),
        (["db", "show", "P3:9:ch4(p)"], 2),
    ])
    def test_mapped_codes_pass_through(self, monkeypatch, capsys, argv,
                                       code):
        monkeypatch.setattr(sys, "argv", ["pdc"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
        assert exc.value.code == code
        assert "internal error" not in capsys.readouterr().err


# (a call with a flag, or an argparse usage error, its exit code, and a
# plain call of the same command that must not see the flag)
FLAGGED_THEN_PLAIN = [
    (["--json", "db", "show", "P3:1:ch4(p)"], 0,
     ["db", "show", "P3:1:ch4(p)"]),
    (["pole-check", "--series", "ch11(1)", "--degree", "2", "--div", "1"], 1,
     ["pole-check", "--series", "ch11(1)", "--degree", "2"]),
    (["gw-expand", "--series", "ch4(p)", "--degree", "1", "--order", "3",
      "--show-bar"], 0,
     ["gw-expand", "--series", "ch4(p)", "--degree", "1", "--order", "3"]),
    (["expand", "--series", "ch4(p)", "--degree", "1", "--order", "3",
      "--var", "u"], 0,
     ["expand", "--series", "ch4(p)", "--degree", "1", "--order", "3"]),
    (["pole-check", "--series", "ch4(p)", "--degree", "x"], 2,
     ["pole-check", "--series", "ch4(p)", "--degree", "1"]),
]


class TestParserReuse:
    """One parser serves every call in a process: handlers are looked up
    when a call runs, and no parsed value carries over to the next call."""

    @pytest.mark.parametrize("handler, argv", [
        ("_cmd_db", ["db", "list"]),
        ("_cmd_eval", ["eval", "cap", "--d", "1"]),
        ("_cmd_gw_expand", ["gw-expand", "--series", "ch4(p)", "--degree",
                            "1", "--order", "2"]),
    ])
    def test_handler_patched_after_warm_parser(self, monkeypatch, capsys,
                                               handler, argv):
        assert main(argv) == 0
        capsys.readouterr()

        def crash(args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, handler, crash)
        monkeypatch.setattr(sys, "argv", ["pdc"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "internal error: TypeError: unsupported operand\n")

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("flagged, code, plain", FLAGGED_THEN_PLAIN)
    def test_no_flag_leaks_into_the_next_call(self, capsys, flagged, code,
                                              plain):
        before = self.run(plain, capsys)
        assert before[0] == 0
        assert self.run(flagged, capsys)[0] == code
        assert self.run(plain, capsys) == before

    def test_mixed_sequence_in_one_process(self, capsys):
        plains = {tuple(plain): self.run(plain, capsys)
                  for _, _, plain in FLAGGED_THEN_PLAIN}
        for flagged, code, plain in FLAGGED_THEN_PLAIN * 2:
            assert self.run(flagged, capsys)[0] == code
            assert self.run(plain, capsys) == plains[tuple(plain)]


class TestModuleEntry:
    def test_python_m_pdc_help(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "pdc", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: pdc ")


class TestProvenance:
    def test_fe_check_names_conjectural_record(self, capsys):
        assert main(["fe-check", "--series", "ch11(1)", "--degree", "2"]) == 0
        assert capsys.readouterr().out == (
            "PASS [conjectural: P3:2:ch11(1)] sign=-1 d_beta=8\n")
        # the divisor rule reads the same record
        assert main(["--json", "fe-check", "--series", "ch2(H)*ch11(1)",
                     "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["provenance"] == "conjectural"
        assert payload["records"] == [{"key": "P3:2:ch11(1)",
                                       "provenance": "conjectural"}]

    def test_pole_check_names_conjectural_record(self, capsys):
        assert main(["pole-check", "--series", "ch11(1)",
                     "--degree", "2"]) == 0
        assert capsys.readouterr().out == (
            "PASS [conjectural: P3:2:ch11(1)] poles confined with divisor "
            "bound 2\n")
        assert main(["pole-check", "--series", "ch11(1)", "--degree", "2",
                     "--div", "1"]) == 1
        assert capsys.readouterr().out.startswith(
            "FAIL [conjectural: P3:2:ch11(1)] ")
        assert main(["--json", "pole-check", "--series", "ch11(1)",
                     "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"] == "conjectural"
        assert payload["records"] == [{"key": "P3:2:ch11(1)",
                                       "provenance": "conjectural"}]

    def test_virasoro_check_names_conjectural_record(self, capsys):
        assert main(["virasoro-check", "--k", "0", "--D", "ch11(1)",
                     "--degree", "2"]) == 0
        assert capsys.readouterr().out == (
            "PASS [conjectural: P3:2:ch11(1)]: sum = 0\n")

    def test_virasoro_check_json_names_conjectural_record(self, capsys):
        assert main(["--json", "virasoro-check", "--k", "0", "--D",
                     "ch11(1)", "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["provenance"] == "conjectural"
        assert payload["records"] == [{"key": "P3:2:ch11(1)",
                                       "provenance": "conjectural"}]

    def test_exact_records_keep_the_plain_verdict(self, capsys):
        assert main(["--json", "pole-check", "--series", "ch3(1)*ch7(1)",
                     "--degree", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"] == "exact"
        assert payload["records"] == [{"key": "P3:1:ch7(1)",
                                       "provenance": "exact"}]
        # the dimension rule reads no record at all
        assert main(["--json", "fe-check", "--series", "ch3(p)",
                     "--degree", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["provenance"], payload["records"]) == ("exact", [])

    def test_imported_evaluator_record(self, tmp_path, monkeypatch, capsys):
        rec = SeriesRecord(make_key("P3", 1, "ch6(H)"),
                           parse_rf("q^2"), "evaluator")
        path = tmp_path / "extra.json"
        path.write_text(records_to_json([rec]))
        monkeypatch.setenv("PDC_DB", str(path))
        assert main(["fe-check", "--series", "ch6(H)+ch4(p)",
                     "--degree", "1"]) == 0
        assert capsys.readouterr().out == (
            "PASS [evaluator: P3:1:ch6(H)] sign=1 d_beta=4\n")


class TestErrors:
    def test_descendent_syntax_error_position(self, capsys):
        assert main(["fe-check", "--series", "ch3(p", "--degree", "1"]) == 2
        err = capsys.readouterr().err
        assert "descendent syntax error" in err and "(position 5)" in err

    def test_non_ascii_digit_is_a_syntax_error(self, capsys):
        assert main(["fe-check", "--series", "ch\u00b2(p)",
                     "--degree", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: descendent syntax error: ")
        assert "(position 2)" in err

    def test_unknown_series_key(self, capsys):
        assert main(["fe-check", "--series", "ch6(H)", "--degree", "1"]) == 2
        assert "no stored series for P3:1:ch6(H)" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_eval_bad_degree(self, capsys):
        assert main(["eval", "local-curve", "--d", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fe_check_zero_insertion(self, capsys):
        assert main(["fe-check", "--series", "0", "--degree", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: insertion is zero; it has no functional-equation sign\n")

    @pytest.mark.parametrize("argv, err", [
        (["expand", "--series", "ch6(H)", "--degree", "1", "--order", "3"],
         "no stored series for P3:1:ch6(H)"),
        (["fe-check", "--series", "ch6(H)", "--degree", "1"],
         "no stored series for P3:1:ch6(H)"),
        (["pole-check", "--series", "ch6(H)", "--degree", "1"],
         "no stored series for P3:1:ch6(H)"),
        (["gw-expand", "--series", "ch6(H)", "--degree", "1", "--order", "3"],
         "no stored series for P3:1:ch6(H)"),
        (["virasoro-check", "--k", "0", "--D", "ch6(H)", "--degree", "1"],
         "no stored series for P3:1:ch6(H)"),
        (["db", "show", "P3:9:ch4(p)"], "no stored series for P3:9:ch4(p)"),
        (["db", "show", "P3:1"],
         "key format is geometry:degree:insertions[:boundary]"),
        (["db", "show", "Foo:1:1"], "unknown geometry 'Foo'"),
        (["expand", "--series", "ch5(p0)+ch4(p)", "--degree", "1",
          "--order", "5"],
         "insertion reduces into both Q and Q_lambda coefficients"),
    ])
    def test_exact_stderr(self, capsys, argv, err):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


class TestEval:
    def test_local_curve_text(self, capsys):
        assert main(["eval", "local-curve", "--d", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("LocalCurve:1:1 = ")
        assert "(q)/(1 + 2*q + q^2)" in out or "q/(1+q)^2" in out.replace(
            " ", "")

    def test_local_curve_json_round_trip(self, capsys):
        assert main(["--json", "eval", "local-curve", "--d", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        record = record_from_obj(payload)
        assert record.key == make_key("LocalCurve", 2, "1")
        assert record.value == local_curve_series(2)
        assert record.provenance == "evaluator"

    def test_cap_key_includes_boundary(self, capsys):
        assert main(["eval", "cap", "--d", "1"]) == 0
        assert capsys.readouterr().out.startswith("Cap:1:ch3(p):(1) = ")


class TestExpand:
    def test_q_expansion_matches_library(self, capsys):
        assert main(["expand", "--series", "ch4(p)", "--degree", "1",
                     "--order", "4"]) == 0
        out = capsys.readouterr().out.strip()
        stored = builtin_db().lookup("P3", 1, "ch4(p)")
        assert out == str(laurent_expand(stored, 4))

    def test_u_expansion_json(self, capsys):
        assert main(["--json", "expand", "--series", "ch2(p)*ch2(p)",
                     "--degree", "1", "--var", "u", "--order", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["var"] == "u" and payload["field"] == "Qi"
        coeffs = {n: c for n, c in payload["coeffs"]}
        assert coeffs[2] == ["1", "0"] or coeffs[2] == "1"

    def test_u_expansion_rejects_parameter_values(self, capsys):
        assert main(["expand", "--series", "ch5(p0)", "--degree", "1",
                     "--var", "u", "--order", "2"]) == 2
        assert "rational coefficients" in capsys.readouterr().err
        assert main(["gw-expand", "--series", "ch5(p0)", "--degree", "1",
                     "--order", "2"]) == 2
        assert "rational coefficients" in capsys.readouterr().err

    def test_mixed_coefficient_fields(self, capsys):
        assert main(["expand", "--series", "ch5(p0)+ch4(p)", "--degree", "1",
                     "--order", "5"]) == 2
        assert "both Q and Q_lambda" in capsys.readouterr().err

    def test_divisor_reduction_through_cli(self, capsys):
        # ch2(H) strips off with a factor equal to the degree
        assert main(["expand", "--series", "ch2(H)*ch7(1)", "--degree", "1",
                     "--order", "3"]) == 0
        out = capsys.readouterr().out.strip()
        stored = builtin_db().lookup("P3", 1, "ch7(1)")
        assert out == str(laurent_expand(stored, 3))


class TestGwExpand:
    def test_plain(self, capsys):
        assert main(["gw-expand", "--series", "ch2(p)*ch2(p)",
                     "--degree", "1", "--order", "6"]) == 0
        out = capsys.readouterr().out
        assert "u^2" in out and "O(u^7)" in out

    def test_show_bar_text(self, capsys):
        assert main(["gw-expand", "--series", "ch2(p)*ch2(p)", "--degree",
                     "1", "--order", "4", "--show-bar"]) == 0
        out = capsys.readouterr().out
        assert "symbolic expansion of the insertion product:" in out
        assert "+ K{(1)->(1)}*K{(1)->(1)}" in out

    def test_show_bar_json(self, capsys):
        assert main(["--json", "gw-expand", "--series", "ch4(p)",
                     "--degree", "1", "--order", "4", "--show-bar"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expansion"]["alpha"] == [3]
        targets = [t["targets"] for t in payload["expansion"]["terms"]]
        assert [[1]] in targets and [[3]] in targets

    def test_show_bar_needs_point_insertions(self, capsys):
        assert main(["gw-expand", "--series", "ch7(1)", "--degree", "1",
                     "--order", "4", "--show-bar"]) == 2
        assert "point-class" in capsys.readouterr().err

    @pytest.mark.parametrize("series,factor", [
        ("ch1(p)", "ch1(p)"), ("ch0(p)*ch3(p)", "ch0(p)"),
        # no series is stored for ch9(p): the label is checked first
        ("ch0(p)*ch9(p)", "ch0(p)")])
    def test_show_bar_names_a_factor_without_a_part(self, capsys, series,
                                                    factor):
        assert main(["gw-expand", "--series", series, "--degree", "1",
                     "--order", "4", "--show-bar"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: expansion labels need ch_i(p) with i >= 2; {factor} "
            "gives no partition part\n")


class TestDb:
    def test_list_lines(self, capsys):
        assert main(["db", "list"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 8
        assert "P3:1:ch4(p)  [exact]" in lines
        assert "P3:2:ch11(1)  [conjectural]" in lines

    def test_show(self, capsys):
        assert main(["db", "show", "P3:1:ch4(p)"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P3:1:ch4(p)  [exact]\n")

    def test_show_unknown_and_malformed(self, capsys):
        assert main(["db", "show", "P3:9:ch4(p)"]) == 2
        assert "no stored series" in capsys.readouterr().err
        assert main(["db", "show", "P3:1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("degree", ["x", "0_1", " 1 ", "+1", "0"])
    def test_show_bad_key_degree(self, degree, capsys):
        assert main(["db", "show", f"P3:{degree}:ch4(p)"]) == 2
        assert capsys.readouterr().err == (
            f"error: key degree {degree!r} is not a positive integer\n")

    @pytest.mark.parametrize("degree", [True, 1.0, 1.5])
    def test_import_non_integer_degree(self, degree, tmp_path, capsys):
        rows = json.loads(records_to_json(builtin_db()))
        rows[0]["degree"] = degree
        path = tmp_path / "degree.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        assert ("record 0: degree must be a positive integer"
                in capsys.readouterr().err)

    def test_export_import_round_trip(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["db", "export", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == records_to_json(builtin_db())
        assert main(["db", "import", str(path)]) == 0
        assert "0 new record(s); merged database holds 8" in (
            capsys.readouterr().out)

    def test_import_cap_evaluator_record(self, tmp_path, capsys):
        record = SeriesRecord(make_key("Cap", 4, "ch6(p)", "(4)"),
                              cap_series(4), "evaluator")
        path = tmp_path / "cap4.json"
        path.write_text(records_to_json([record]))
        assert main(["db", "import", str(path)]) == 0
        assert capsys.readouterr().out == (
            "1 new record(s); merged database holds 9\n")

    def test_import_multi_monomial_pair_within_budget(self, budget, tmp_path,
                                                      capsys):
        # num and den share a factor of degree 6 in q, and both have
        # coefficients spanning several parameter monomials, so Euclid's
        # remainders over the parameter ratios swell without end
        a, b, c = degree_six_pair()
        f = a.field
        value = {"field": f.tag,
                 "num": [f.coeff_to_json(x) for x in a.coeffs],
                 "den": [f.coeff_to_json(x) for x in b.coeffs]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps([{
            "geometry": "Cap", "degree": 5, "insertions": "ch7(p)",
            "boundary": "(5)", "value": value, "provenance": "evaluator"}]))
        with budget(10):
            code = main(["--json", "db", "import", str(path)])
        assert code == 0
        records = json.loads(capsys.readouterr().out)["records"]
        got = record_from_obj(next(r for r in records
                                   if r["insertions"] == "ch7(p)"))
        assert got.value.num * b == got.value.den * a

    def test_import_missing_file(self, tmp_path, capsys):
        assert main(["db", "import", str(tmp_path / "nope.json")]) == 2
        assert "cannot import" in capsys.readouterr().err

    def test_import_record_without_degree(self, tmp_path, capsys):
        rows = json.loads(records_to_json(builtin_db()))
        del rows[0]["degree"]
        path = tmp_path / "nodegree.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        assert "record 0: missing field 'degree'" in capsys.readouterr().err

    def test_import_zero_denominator(self, tmp_path, capsys):
        rows = json.loads(records_to_json(builtin_db()))
        rows[3]["value"]["den"] = ["0"]
        path = tmp_path / "den0.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        assert "record 3: zero denominator" in capsys.readouterr().err

    def test_import_row_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[[1, 2]]")
        assert main(["db", "import", str(path)]) == 2
        assert "record 0: a record must be a JSON object" in (
            capsys.readouterr().err)

    def test_import_parameter_coefficient_not_an_object(self, tmp_path,
                                                        monkeypatch, capsys):
        record = SeriesRecord(make_key("Cap", 1, "ch3(p)", "(1)"),
                              cap_series(1), "evaluator")
        rows = json.loads(records_to_json([record]))
        rows[0]["value"]["num"] = ["0", "1/2", "-1/2"]
        path = tmp_path / "qs.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        message = "record 0: a Q_s coefficient must be a {num, den} object"
        assert message in capsys.readouterr().err
        monkeypatch.setenv("PDC_DB", str(path))
        assert main(["db", "list"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.1, 2.0, True, None])
    def test_import_inexact_number(self, tmp_path, monkeypatch, capsys,
                                   value):
        rows = json.loads(records_to_json(builtin_db()))
        rows[1]["value"]["num"][1] = value
        path = tmp_path / "float.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        message = f"record 1: coefficient {value!r} is not a string or an"
        assert message in capsys.readouterr().err
        monkeypatch.setenv("PDC_DB", str(path))
        assert main(["db", "list"]) == 2
        assert message in capsys.readouterr().err

    def test_import_accepts_integer_coefficients(self, tmp_path, capsys):
        rows = json.loads(records_to_json(builtin_db()))
        rows[1]["value"]["num"] = [int(c) for c in rows[1]["value"]["num"]]
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 0
        assert capsys.readouterr().out == (
            "0 new record(s); merged database holds 8\n")

    @staticmethod
    def assert_rejected(path, message, monkeypatch, capsys):
        """db import and PDC_DB of path both exit 2 with message."""
        assert main(["db", "import", str(path)]) == 2
        assert message in capsys.readouterr().err
        monkeypatch.setenv("PDC_DB", str(path))
        assert main(["db", "list"]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def qi_rows(num):
        """A P3 record row over Qi, with the given numerator strings."""
        record = SeriesRecord(make_key("P3", 1, "ch9(1)"),
                              parse_rf("q/(1+q)"), "exact")
        rows = json.loads(records_to_json([record]))
        rows[0]["value"].update(field="Qi", num=num)
        return rows

    @pytest.mark.parametrize("num", [["0", "1*i", "2*i"], ["0", "1", "2"]])
    def test_import_gaussian_record(self, tmp_path, monkeypatch, capsys,
                                    num):
        # Qi is the field of u-side series only; no q-side record has it
        path = tmp_path / "qi.json"
        path.write_text(json.dumps(self.qi_rows(num)))
        self.assert_rejected(path, "record 0: malformed record: series in q "
                             "have coefficients in Q, Q_s or Q_lambda",
                             monkeypatch, capsys)

    @pytest.mark.parametrize("text", ["ii", "2**i", "1+2*ii"])
    def test_import_malformed_gaussian(self, tmp_path, monkeypatch, capsys,
                                       text):
        path = tmp_path / "qi.json"
        path.write_text(json.dumps(self.qi_rows(["0", text, "2*i"])))
        self.assert_rejected(path, "record 0: ", monkeypatch, capsys)

    @pytest.mark.parametrize("text", ["0.1", "1e3", "1_0", "-0.5e-2"])
    def test_import_decimal_spellings(self, tmp_path, monkeypatch, capsys,
                                      text):
        rows = json.loads(records_to_json(builtin_db()))
        rows[1]["value"]["num"][1] = text
        path = tmp_path / "decimal.json"
        path.write_text(json.dumps(rows))
        self.assert_rejected(path, f"record 1: coefficient {text!r} is not "
                             "a rational", monkeypatch, capsys)
        cap = next(i for i, r in enumerate(rows) if r["geometry"] == "Cap")
        rows = json.loads(records_to_json(builtin_db()))
        coeff = rows[cap]["value"]["num"][2]["num"]
        coeff[next(iter(coeff))] = text
        path.write_text(json.dumps(rows))
        self.assert_rejected(path, f"record {cap}: coefficient {text!r} is "
                             "not a rational", monkeypatch, capsys)

    @pytest.mark.parametrize("num", [{"s1*s1": "1"},
                                     {"s1": "1", "s1^1": "2"},
                                     {"s1^-1": "1"}])
    def test_import_misspelled_monomial_key(self, tmp_path, monkeypatch,
                                            capsys, num):
        record = SeriesRecord(make_key("Cap", 1, "ch3(p)", "(1)"),
                              cap_series(1), "evaluator")
        rows = json.loads(records_to_json([record]))
        rows[0]["value"]["num"][1] = {"num": num, "den": {"1": "1"}}
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(rows))
        self.assert_rejected(path, "record 0: malformed monomial key",
                             monkeypatch, capsys)

    def test_import_repeated_json_key(self, tmp_path, monkeypatch, capsys):
        # json.loads would keep the last of two equal keys; reading a
        # record must not drop a coefficient that way
        record = SeriesRecord(make_key("Cap", 1, "ch3(p)", "(1)"),
                              cap_series(1), "evaluator")
        text = records_to_json([record])
        assert text.count('"s1": "1"') == 1
        path = tmp_path / "dup.json"
        path.write_text(text.replace('"s1": "1"', '"s1": "1", "s1": "2"'))
        self.assert_rejected(path, "duplicate JSON key", monkeypatch, capsys)

    def test_import_inexact_parameter_coefficient(self, tmp_path, capsys):
        rows = json.loads(records_to_json(builtin_db()))
        cap = next(i for i, r in enumerate(rows) if r["geometry"] == "Cap")
        coeff = rows[cap]["value"]["num"][1]["num"]
        coeff[next(iter(coeff))] = 0.5
        path = tmp_path / "qs_float.json"
        path.write_text(json.dumps(rows))
        assert main(["db", "import", str(path)]) == 2
        assert f"record {cap}: coefficient 0.5 is not a string" in (
            capsys.readouterr().err)


    @staticmethod
    def one_record(**change):
        """A one-record P3 file row with the given fields replaced; a
        field of the value object is replaced in the value."""
        row = {"geometry": "P3", "degree": 1, "insertions": "ch4(p)",
               "boundary": None, "provenance": "exact",
               "value": {"field": "Q", "num": ["1"], "den": ["1"]}}
        for name, value in change.items():
            (row if name in row else row["value"])[name] = value
        return [row]

    @pytest.mark.parametrize("change, message", [
        ({"boundary": 5}, "boundary must be a string or null, not int"),
        ({"boundary": ["x"]}, "boundary must be a string or null, not list"),
        ({"insertions": ["zz", "aa"]}, "insertions must be a string, not list"),
        ({"insertions": 4}, "insertions must be a string, not int"),
        ({"num": "12"}, "num must be a list, not str"),
        ({"num": {"3": 1}}, "num must be a list, not dict"),
        ({"den": "1"}, "den must be a list, not str"),
        ({"field": 5}, "field must be a string, not int"),
        ({"field": ["Q"]}, "field must be a string, not list"),
    ])
    def test_import_field_of_the_wrong_type(self, tmp_path, monkeypatch,
                                            capsys, change, message):
        # each was read as something else, or crashed with exit 3
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(self.one_record(**change)))
        self.assert_rejected(path, f"record 0: {message}", monkeypatch,
                             capsys)

    @pytest.mark.parametrize("num, den", [
        ({"s1^200*s2^200*s3^200": "1", "1": "1"},
         {"s1^200": "1", "s2^200": "1", "s3^200": "1", "1": "1"}),
        ({"s1^100000000": "1"}, {"s1": "1", "1": "1"}),
    ])
    def test_import_oversized_parameter_gcd(self, budget, tmp_path,
                                            monkeypatch, capsys, num, den):
        # canonical form takes the gcd of num and den, and its evaluation
        # images would run to millions of bits: a data error, not a stall
        one = {"num": {"1": "1"}, "den": {"1": "1"}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(self.one_record(
            field="Q_s", num=[{"num": num, "den": den}], den=[one])))
        with budget(5):
            self.assert_rejected(path, "record 0: parameter gcd too large",
                                 monkeypatch, capsys)

    def test_import_deeply_nested_json(self, tmp_path, capsys):
        # json.loads raises RecursionError here; that is malformed data,
        # not a fault of pdc
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["db", "import", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot import {path}: JSON nested too deeply\n")

    def test_import_one_record_of_the_right_types(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        for boundary, total in ((None, 8), ("(1)", 9)):
            path.write_text(json.dumps(self.one_record(boundary=boundary)))
            assert main(["db", "import", str(path)]) == 0
            assert capsys.readouterr().out == (
                f"{total - 8} new record(s); merged database holds {total}\n")


class TestDbEnvironment:
    def extra_file(self, tmp_path):
        rec = SeriesRecord(make_key("P3", 1, "ch6(H)"),
                           parse_rf("q/(1+q)"), "exact")
        path = tmp_path / "extra.json"
        path.write_text(records_to_json([rec]))
        return path

    def test_env_db_enables_new_reductions(self, tmp_path, monkeypatch,
                                           capsys):
        assert main(["expand", "--series", "ch6(H)", "--degree", "1",
                     "--order", "3"]) == 2
        capsys.readouterr()
        monkeypatch.setenv("PDC_DB", str(self.extra_file(tmp_path)))
        assert main(["expand", "--series", "ch6(H)", "--degree", "1",
                     "--order", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == str(laurent_expand(parse_rf("q/(1+q)"), 3))
        assert main(["db", "list"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 9

    def test_env_db_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PDC_DB", str(tmp_path / "absent.json"))
        assert main(["db", "list"]) == 2
        assert "cannot load PDC_DB file" in capsys.readouterr().err

    def test_env_db_deeply_nested_json(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        monkeypatch.setenv("PDC_DB", str(path))
        assert main(["db", "list"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot load PDC_DB file: JSON nested too deeply\n")


class TestCheckAll:
    def test_all_pass(self, capsys):
        assert main(["check-all"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
        assert all(line.startswith("PASS ") for line in lines[:-1])
