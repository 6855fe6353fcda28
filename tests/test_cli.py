"""CLI surface: subcommands, rendering, exit codes."""

import json

import pytest

from hyperkey.cli import main


@pytest.fixture
def h1_path(tmp_path):
    p = tmp_path / "h1.hg"
    p.write_text(
        "vertices: 1 2 3 4 5 6\n"
        "edge a: 1 2 4 weight 1\n"
        "edge b: 2 3 5 weight 3\n"
        "edge c: 1 3 6 weight 2\n"
    )
    return str(p)


@pytest.fixture
def h4_path(tmp_path):
    p = tmp_path / "h4.hg"
    p.write_text(
        "vertices: 1 2 3 4 5\n"
        "edge a: 1 2 3 weight 1\n"
        "edge b: 3 4 weight 1\n"
        "edge c: 1 5 weight 1\n"
        "edge d: 2 weight 1\n"
        "edge e: 5 weight 1\n"
    )
    return str(p)


def lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestAnalyze:
    def test_text_report(self, h1_path, capsys):
        assert main(["analyze", h1_path]) == 0
        out = lines(capsys)
        for expected in [
            "berge_cycle = 1 a 2 b 3 c 1",
            "is_mch = true",
            "is_hypertree = false",
            "partition_connectivity = 1",
            "fundamental_partition[0] = 1 2 3",
            "fundamental_partition[1] = 4",
            "mmi = 1",
            "mmi_fundamental[0] = 1 2 3 5 6",
            "vertex_count = 6",
        ]:
            assert expected in out

    def test_output_is_sorted_and_deterministic(self, h1_path, capsys):
        main(["analyze", h1_path])
        first = capsys.readouterr().out
        main(["analyze", h1_path])
        assert capsys.readouterr().out == first
        keys = [line.split(" = ")[0] for line in first.splitlines()]
        assert keys == sorted(keys)

    def test_json_mode(self, h1_path, capsys):
        assert main(["--json", "analyze", h1_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["is_mch"] is True
        assert doc["partition_connectivity"] == "1"  # rationals render as strings
        assert doc["fundamental_partition"] == ["1 2 3", "4", "5", "6"]

    def test_non_mch_files_still_analyze(self, h4_path, capsys):
        assert main(["analyze", h4_path]) == 0
        out = lines(capsys)
        assert "is_mch = false" in out
        assert "is_connected_and_cycle_free = true" in out
        assert "berge_cycle = none" in out


    def test_cycle_closing_at_an_edge_names_that_edge(self, tmp_path, capsys):
        path = tmp_path / "chord.hg"
        path.write_text("vertices: 1 2 3\nedge a: 1 2 3 weight 1\nedge b: 2 3 weight 1\n")
        assert main(["analyze", str(path)]) == 0
        assert "berge_cycle = 2 b 3 a 2" in lines(capsys)

    def test_one_vertex_file_analyzes(self, tmp_path, capsys):
        path = tmp_path / "one.hg"
        path.write_text("vertices: 1\n")
        assert main(["analyze", str(path)]) == 0
        out = lines(capsys)
        assert "is_mch = false" in out
        assert "is_hypertree = false" in out


class TestCapacity:
    def test_with_total_rate(self, h1_path, capsys):
        assert main(["capacity", h1_path, "--total-rate", "1"]) == 0
        out = lines(capsys)
        assert "unconstrained_capacity = 1" in out
        assert "constrained_capacity = 1/2" in out
        assert "communication_complexity = 2" in out

    def test_without_total_rate(self, h1_path, capsys):
        assert main(["capacity", h1_path]) == 0
        out = capsys.readouterr().out
        assert not any(
            line.startswith("constrained_capacity") for line in out.splitlines()
        )

    def test_domain_error_exits_one(self, h4_path, capsys):
        assert main(["capacity", h4_path]) == 1
        assert "error:" in capsys.readouterr().err


class TestRegion:
    def test_constraints_listing(self, h1_path, capsys):
        assert main(["region", h1_path]) == 0
        out = lines(capsys)
        assert "key_cap = 1" in out
        assert "constraints[0].subset = 1 2" in out
        assert "constraints[3].subset = 1 2 3" in out
        assert "constraints[3].coefficient = 2" in out


class TestCheck:
    def test_inside(self, h1_path, capsys):
        # spec example: vertices 1 and 2 at rate 1, everyone else defaults to 0
        assert main(["check", h1_path, "--key-rate", "1", "--rates", "1:1,2:1"]) == 0
        assert "in_region = true" in lines(capsys)

    def test_outside_names_the_constraint(self, h1_path, capsys):
        assert main(["check", h1_path, "--key-rate", "1", "--rates", "3:1"]) == 0
        out = lines(capsys)
        assert "in_region = false" in out
        assert "violated.subset = 1 2" in out
        assert "violated.required = 1" in out
        assert "violated.actual = 0" in out

    def test_unknown_rate_vertex_is_usage_error(self, h1_path, capsys):
        assert main(["check", h1_path, "--key-rate", "1", "--rates", "9:1"]) == 2

    def test_bad_rational_is_usage_error(self, h1_path, capsys):
        assert main(["check", h1_path, "--key-rate", "x"]) == 2


class TestScheme:
    def test_default_scheme(self, h1_path, capsys):
        assert main(["scheme", h1_path]) == 0
        out = lines(capsys)
        assert "key_edge = a" in out
        assert "row_count = 2" in out
        assert "rows[0].pair = a^b" in out
        assert "rows[0].user = 2" in out
        assert "verified = true" in out
        assert "total_rate = 2" in out

    def test_order_flag_and_matrix(self, h1_path, capsys):
        code = main(["scheme", h1_path, "--order", "1,2,3=3,2,1", "--emit-matrix"])
        assert code == 0
        out = lines(capsys)
        assert "matrix[0] = a^b @user=2" in out
        assert "matrix[1] = a^c @user=1" in out
        assert "rates.1 = 1" in out
        assert "rates.3 = 0" in out

    def test_bad_order_is_usage_error(self, h1_path):
        assert main(["scheme", h1_path, "--order", "nonsense"]) == 2

    def test_non_mch_is_domain_error(self, h4_path):
        assert main(["scheme", h4_path]) == 1


class TestSimulate:
    def test_trials(self, h1_path, capsys):
        assert main(["simulate", h1_path, "--key-rate", "1", "--trials", "2", "--seed", "5"]) == 0
        out = lines(capsys)
        assert "zero_error = true" in out
        assert "secrecy_rank_ok = true" in out
        assert "realizations_checked = 2" in out
        assert any(line.startswith("first_trial.key = ") for line in out)

    def test_exhaustive_json(self, h1_path, capsys):
        assert main(["--json", "simulate", h1_path, "--key-rate", "1", "--exhaustive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zero_error"] is True
        assert doc["perfect_secrecy"] is True
        assert doc["realizations_checked"] == 64
        assert doc["key_entropy_bits"] == "1"
        assert doc["conditional_entropy_bits"] == "1"

    def test_exhaustive_above_cap_is_domain_error(self, h1_path):
        assert main(["simulate", h1_path, "--key-rate", "1/64", "--exhaustive"]) == 1


class TestFuzz:
    def test_clean_run(self, capsys):
        code = main(["fuzz", "--vertices", "5", "--edges", "3", "--seed", "2", "--cases", "2"])
        assert code == 0
        out = lines(capsys)
        assert "cases_requested = 2" in out
        assert "cases_run = 2" in out
        assert "ok = true" in out
        assert "instances[0].ok = true" in out
        assert "instances[1].ok = true" in out

    def test_bounds_are_usage_errors(self):
        assert main(["fuzz", "--vertices", "12", "--edges", "3"]) == 2


class TestExitCodes:
    def test_parse_error_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("vertices: 1 2\nedge x: 1 7 weight 1\n")
        assert main(["analyze", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_weight_in_file_is_usage(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("vertices: 1 2\nedge x: 1 2 weight 0\n")
        assert main(["analyze", str(bad)]) == 2

    def test_missing_file_is_usage(self):
        assert main(["analyze", "/nonexistent/nope.hg"]) == 2

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["nope"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
