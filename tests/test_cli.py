"""CLI surface: subcommands, rendering, exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkey import HyperkeyError, cli, hgio, simkit
from hyperkey.cli import main

import oracles
import scale_walls

ROOT = Path(__file__).resolve().parent.parent


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

    def test_a_vertex_id_with_a_colon_can_be_rated(self, tmp_path, capsys):
        """Each item splits at its last colon: a rate never holds one."""
        path = tmp_path / "colon.hg"
        path.write_text(
            "vertices: a:b c d\nedge e: a:b c weight 1\nedge f: c d weight 1\n"
        )
        argv = ["check", str(path), "--key-rate", "1", "--rates", "a:b:1"]
        assert main(argv) == 0
        out = lines(capsys)
        assert "rates.a:b = 1" in out and "rates.c = 0" in out
        assert "violated.subset = c" in out

    def test_repeated_rate_vertex_is_usage_error(self, h1_path, capsys):
        # the later 2:0 used to replace the earlier 2:1 without a word
        argv = ["check", h1_path, "--key-rate", "1", "--rates", "2:1,3:1,2:0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --rates names vertex '2' twice"]


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
        # in the order 3 2 1, user 2 speaks at step 2 and user 1 at step 3
        assert "rows[0].block = 1 2 3" in out
        assert "rows[0].step = 2" in out
        assert "rows[1].block = 1 2 3" in out
        assert "rows[1].step = 3" in out
        assert "rates.1 = 1" in out
        assert "rates.3 = 0" in out

    def test_bad_order_is_usage_error(self, h1_path):
        assert main(["scheme", h1_path, "--order", "nonsense"]) == 2

    @pytest.mark.parametrize("command", ["scheme", "simulate"])
    def test_repeated_order_block_is_usage_error(self, h1_path, capsys, command):
        # the later order used to replace the earlier one without a word
        argv = [command, h1_path, "--order", "1,2,3=1,2,3", "--order", "3,2,1=3,2,1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --order names block 1 2 3 twice"]

    def test_non_mch_is_domain_error(self, h4_path):
        assert main(["scheme", h4_path]) == 1

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_key_rate_above_the_capacity_is_domain_error(self, h1_path, capsys, flags):
        """H1's capacity is its least weight, 1; simulate refuses rate 2 too."""
        for command in ("scheme", "simulate"):
            assert main([*flags, command, h1_path, "--key-rate", "2"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: key rate 2 exceeds the minimum edge weight 1"
            ]
        assert main([*flags, "scheme", h1_path, "--key-rate", "1"]) == 0


@pytest.fixture
def escaped_path(tmp_path):
    """H1 with its cyclic core 1 2 3 renamed a,b a=b a\\b."""
    p = tmp_path / "escaped.hg"
    p.write_text(
        "vertices: 4 5 6 a,b a=b a\\b\n"
        "edge e1: 4 a,b a=b weight 1\n"
        "edge e2: 5 a=b a\\b weight 3\n"
        "edge e3: 6 a,b a\\b weight 2\n"
    )
    return str(p)


# each core id of escaped_path as the flags write it
ESCAPED = {"a,b": r"a\,b", "a=b": r"a\=b", "a\\b": r"a\\b"}


class TestEscapedIds:
    """--rates and --order read a backslash before ",", "=" or "\\" as that
    character, as Hypergraph.merge writes its labels, and keep one before
    any other character."""

    @pytest.mark.parametrize(
        "vertex, written", [*ESCAPED.items(), ("a\\b", "a\\b")]
    )
    def test_check_rates_the_vertex(self, escaped_path, capsys, vertex, written):
        argv = ["--json", "check", escaped_path, "--key-rate", "1",
                "--rates", f"{written}:2,4:1"]
        doc = run_json(argv, capsys)
        rated = {v: r for v, r in doc["rates"].items() if r != "0"}
        assert rated == {vertex: "2", "4": "1"}

    def test_scheme_orders_the_block(self, escaped_path, capsys):
        order = ["a\\b", "a=b", "a,b"]
        block = ",".join(ESCAPED[v] for v in sorted(order))
        perm = ",".join(ESCAPED[v] for v in order)
        argv = ["--json", "scheme", escaped_path, "--order", f"{block}={perm}"]
        doc = run_json(argv, capsys)
        assert [b["order"] for b in doc["blocks"] if len(b["order"]) == 3] == [order]


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "--trials must be at least 1"),
            (["--trials", "-2"], "--trials must be at least 1"),
            (
                ["--exhaustive", "--trials", "3"],
                "--exhaustive runs one trial; --trials must be 1",
            ),
            (["--exhaustive", "--trials", "0"], "--trials must be at least 1"),
        ],
    )
    def test_trial_counts_are_not_rewritten(self, h1_path, capsys, flags, message):
        # these used to run one trial without a word
        assert main(["simulate", h1_path, "--key-rate", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_exhaustive_takes_one_trial(self, h1_path, capsys):
        argv = ["simulate", h1_path, "--key-rate", "1", "--exhaustive", "--trials", "1"]
        assert main(argv) == 0
        assert "trials = 1" in lines(capsys)

    def test_exhaustive_above_cap_is_domain_error(self, h1_path):
        assert main(["simulate", h1_path, "--key-rate", "1/64", "--exhaustive"]) == 1

    def test_sample_above_cap_is_domain_error(self, tmp_path, capsys):
        """A quantization of about 7.8e39 source bits is refused before
        anything is drawn, seeded or exhaustive."""
        path = tmp_path / "third.hg"
        path.write_text("vertices: 1 2\nedge a: 1 2 weight 1/3\n")
        rate = "1/" + "7" * 40
        for extra in ([], ["--exhaustive"]):
            assert main(["simulate", str(path), "--key-rate", rate, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert "source bits exceed the" in captured.err


class TestSimulatePrintsEveryNumber:
    """A simulation whose document would hold an integer past the int-to-str
    limit is refused before anything is drawn: a sampled word of L bits
    reaches 2**L - 1, which prints exactly while 2**L <= 10**limit."""

    @staticmethod
    def _refused(argv, capsys, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_longest_printable_word(self, tmp_path, capsys, json_flag):
        bits = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
        path = tmp_path / "long.hg"
        path.write_text(f"vertices: a b\nedge e0: a b weight {bits}\n")
        assert main([*json_flag, "simulate", str(path), "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"{bits}" in captured.out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_one_bit_longer_is_refused(self, tmp_path, capsys, json_flag):
        limit = sys.get_int_max_str_digits()
        bits = (10**limit).bit_length()
        path = tmp_path / "long.hg"
        path.write_text(f"vertices: a b\nedge e0: a b weight {bits}\n")
        message = f"{bits}-bit edge words may have over {limit} digits"
        self._refused([*json_flag, "simulate", str(path), "--seed", "1"], capsys, message)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("extra", [[], ["--exhaustive"]], ids=["seeded", "exhaustive"])
    def test_scale_past_the_limit_is_refused(self, tmp_path, capsys, json_flag, extra):
        """Denominators 2M and 3M, each under the limit, give the scale 6M,
        over it, while the edge words are 3 and 2 bits long."""
        limit = sys.get_int_max_str_digits()
        m = 2 * 10 ** (limit - 1)
        path = tmp_path / "scale.hg"
        path.write_text(
            f"vertices: a b c\nedge e0: a b weight 1/{2 * m}\n"
            f"edge e1: b c weight 1/{3 * m}\n"
        )
        message = f"the quantization scale has over {limit} digits"
        self._refused([*json_flag, "simulate", str(path), *extra], capsys, message)


class TestAnswersPastTheDigitLimit:
    """Weights of limit nines, the most a file may hold, sum to answers that
    str() cannot print.  Each is one error line with exit 1 and nothing on
    stdout, the rendered document or the bit count in a cap message alike."""

    @staticmethod
    def _files(tmp_path):
        limit = sys.get_int_max_str_digits()
        w = "9" * limit
        path = tmp_path / "path.hg"
        path.write_text(
            "vertices: " + " ".join(f"v{i:02d}" for i in range(13)) + "\n" + "".join(
                f"edge e{i:02d}: v{i:02d} v{i + 1:02d} weight {w}\n" for i in range(12)
            )
        )
        star = tmp_path / "star.hg"
        star.write_text(
            "vertices: c a b x\n"
            + "".join(f"edge e{v}: c {v} weight {w}\n" for v in "abx")
        )
        return limit, w, str(path), str(star)

    @staticmethod
    def _refused(argv, capsys, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_each_subcommand(self, tmp_path, capsys, json_flag):
        limit, w, path, star = self._files(tmp_path)
        digits = (
            f"the answer holds a number of more than {limit} digits, "
            "past Python's int-to-str limit"
        )
        for argv in (
            ["capacity", path],  # communication_complexity = 12 w
            ["scheme", path],  # total_rate = 12 w
            ["check", star, "--key-rate", w],  # required = 2 w
        ):
            self._refused([*json_flag, *argv], capsys, digits)
        for extra, cap in (
            (["--seed", "1"], f"sampling cap {simkit.MAX_SAMPLE_BITS}"),
            (["--exhaustive"], f"exhaustive cap {simkit.MAX_STATE_BITS}"),
        ):
            argv = [*json_flag, "simulate", path, "--key-rate", "1", *extra]
            self._refused(argv, capsys, f"10^{limit} or more source bits exceed the {cap}")


def _count_constructions(monkeypatch, module, name):
    """Replace module.name by a wrapper that records every object built."""
    real = getattr(module, name)
    made = []

    def build(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, build)
    return made


class TestSimulateComputesOnce:
    """The CLI, run and brute_force_secrecy all need the quantized shape,
    and synthesize and run the verification report: one simulation
    computes each once."""

    @pytest.mark.parametrize(
        "extra", [["--exhaustive"], ["--trials", "3"]], ids=["exhaustive", "seeded"]
    )
    def test_one_shape_and_one_report(self, extra, h1_path, monkeypatch, capsys):
        from hyperkey import scheme, simkit

        shapes = _count_constructions(monkeypatch, simkit, "QuantizedShape")
        reports = _count_constructions(monkeypatch, scheme, "VerificationReport")
        assert main(["simulate", h1_path, "--key-rate", "1/2", *extra]) == 0
        assert "zero_error = true" in lines(capsys)
        assert (len(shapes), len(reports)) == (1, 1)


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

    def test_seven_vertices_and_six_edges(self, capsys):
        """Seeds 0-19 of the shape (7, 6) all fit the sampler's budget."""
        assert main(["fuzz", "--vertices", "7", "--edges", "6", "--max-weight", "1"]) == 0
        assert "cases_run = 20" in lines(capsys)

    def test_bounds_are_usage_errors(self):
        assert main(["fuzz", "--vertices", "12", "--edges", "3"]) == 2

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_case_counts_below_one_are_usage_errors(self, capsys, cases):
        # these used to run one case and report cases_requested = 1
        assert main(["fuzz", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --cases must be at least 1"]


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

    def test_exponent_weight_in_file_is_usage(self, tmp_path, capsys):
        # it used to parse, then rendering it broke the int-to-str limit
        bad = tmp_path / "bad.hg"
        bad.write_text("vertices: 1 2\nedge x: 1 2 weight 1e5000\n")
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid weight '1e5000' (line 2, column 20)"
        ]

    @pytest.mark.parametrize(
        "flags",
        [["--key-rate", "1e30000000"], ["--key-rate", "1", "--rates", "1:1e3"]],
    )
    def test_exponent_flag_is_usage(self, h1_path, capsys, flags):
        start = time.perf_counter()
        assert main(["check", h1_path, *flags]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: --") and "expects a rational" in err

    @pytest.mark.parametrize("command", ["scheme", "check", "simulate"])
    def test_negative_key_rate_is_one_domain_error(self, h1_path, capsys, command):
        """Every subcommand that takes --key-rate refuses a negative one with
        the same line."""
        assert main([command, h1_path, "--key-rate", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: key rate must be nonnegative"]

    def test_negative_rate_entry_keeps_its_own_line(self, h1_path, capsys):
        argv = ["check", h1_path, "--key-rate", "1", "--rates", "1:-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: rates must be nonnegative"]

    def test_weight_past_the_digit_limit_is_usage(self, tmp_path, capsys):
        # it used to parse, then rendering it broke the int-to-str limit
        token = "1" * 3000 + "." + "3" * 3000
        bad = tmp_path / "bad.hg"
        bad.write_text(f"vertices: 1 2\nedge x: 1 2 weight {token}\n")
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: invalid weight {token!r} (line 2, column 20)"
        ]

    @pytest.mark.parametrize("command", ["scheme", "simulate"])
    def test_flag_past_the_digit_limit_is_usage(self, h1_path, capsys, command):
        rate = "0." + "0" * (sys.get_int_max_str_digits() - 1) + "1"
        assert main([command, h1_path, "--key-rate", rate]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --key-rate expects a rational like 3 or 3/2, got {rate!r}"
        ]

    def test_missing_file_is_usage(self):
        assert main(["analyze", "/nonexistent/nope.hg"]) == 2

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["nope"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_non_utf8_file_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"\xff\xfe")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")
        assert "Traceback" not in err


def test_parser_is_built_once_per_process(h1_path, monkeypatch, capsys):
    """Building the argparse tree costs more than most answers; main builds
    it on its first call and never again."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["analyze", h1_path]) == 0
    first = len(built)
    assert first > 0  # the counter sees the one build
    for argv in 10 * [
        ["analyze", h1_path],
        ["--json", "region", h1_path],
        ["scheme", h1_path, "--order", "1,2,3=3,2,1"],
        ["nope"],
        ["--help"],
    ]:
        main(argv)
    capsys.readouterr()
    assert len(built) == first


# One process running main over and over must answer exactly as a fresh
# `python -m hyperkey.cli` does for each argv.  Every argv runs in process;
# the ones marked True also run in a fresh subprocess for reference.
H1_TEXT = "vertices: 1 2 3 4 5 6\nedge a: 1 2 4 weight 1\nedge b: 2 3 5 weight 3\nedge c: 1 3 6 weight 2\n"
H4_TEXT = "vertices: 1 2 3 4 5\nedge a: 1 2 3 weight 1\nedge b: 3 4 weight 1\nedge c: 1 5 weight 1\nedge d: 2 weight 1\nedge e: 5 weight 1\n"
BAD_TEXT = "vertices: 1 2\nedge x: 1 7 weight 1\n"
SEQUENCE = [
    (["capacity"], True),
    (["--help"], True),
    (["analyze", "BAD"], True),
    (["analyze", "H1"], True),
    (["--json", "analyze", "H1"], False),
    (["capacity", "H1", "--total-rate", "1"], False),
    (["--json", "capacity", "H4"], True),
    (["region", "H1"], False),
    (["--json", "region", "H1"], True),
    (["check", "H1", "--key-rate", "1", "--rates", "3:1"], True),
    (["--json", "check", "H1", "--key-rate", "1", "--rates", "1:1,2:1"], False),
    (["--json", "scheme", "H1", "--order", "1,2,3=3,2,1", "--emit-matrix"], False),
    (["scheme", "H1", "--order", "1,2,3=3,2,1"], False),
    (["scheme", "H1"], True),
    (["--json", "scheme", "H1"], True),
    (["simulate", "H1", "--key-rate", "1", "--order", "1,2,3=2,1,3", "--seed", "3"], False),
    (["simulate", "H1", "--key-rate", "1", "--seed", "3"], True),
    (["--json", "simulate", "H1", "--key-rate", "1", "--exhaustive"], False),
    (["fuzz", "--vertices", "4", "--edges", "2", "--cases", "2"], False),
    (["--json", "fuzz", "--vertices", "5", "--edges", "3", "--seed", "2", "--cases", "2"], True),
]


def source_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_repeated_main_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    files = {"H1": H1_TEXT, "H4": H4_TEXT, "BAD": BAD_TEXT}
    for name, text in files.items():
        (tmp_path / f"{name}.hg").write_text(text)

    def resolve(argv):
        return [str(tmp_path / f"{a}.hg") if a in files else a for a in argv]

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the same width
    env = source_env()

    in_process = []
    for argv, _ in SEQUENCE:
        code = main(resolve(argv))
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process].count(2) == 2
    assert in_process[0][2] == "error: the following arguments are required: file\n"

    for (argv, fresh), got in zip(SEQUENCE, in_process):
        if not fresh:
            continue
        done = subprocess.run(
            [sys.executable, "-m", "hyperkey.cli", *resolve(argv)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert got == (done.returncode, done.stdout, done.stderr), argv


# argvs the table reading declines, each answered by argparse: an
# abbreviation, an `=` value, a value starting with "-", help, a flag of the
# top level after the subcommand, and a file named "-"
FALLBACK = [
    ["simulate", "H1", "--exh"],
    ["check", "H1", "--key-rate=1"],
    ["simulate", "H1", "--seed", "-3"],
    ["scheme", "-h"],
    ["analyze", "H1", "--json"],
    ["analyze", "-"],
]


def test_declined_argvs_match_fresh_processes(tmp_path, monkeypatch, capsys):
    (tmp_path / "H1.hg").write_text(H1_TEXT)
    (tmp_path / "-").write_text(H1_TEXT)
    monkeypatch.chdir(tmp_path)  # "-" names the file in the working directory
    monkeypatch.setenv("COLUMNS", "80")
    env = source_env()
    codes = []
    for argv in FALLBACK:
        argv = [str(tmp_path / "H1.hg") if a == "H1" else a for a in argv]
        assert cli._quick_args(argv) is None, argv
        code = main(argv)
        captured = capsys.readouterr()
        done = subprocess.run(
            [sys.executable, "-m", "hyperkey.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (code, captured.out, captured.err) == (
            done.returncode, done.stdout, done.stderr
        ), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]


def test_import_builds_no_parser():
    """Importing the CLI builds neither the argparse tree nor its tables;
    the first main call does."""
    probe = (
        "import hyperkey.cli as c; "
        "print(c._build_parser.cache_info().currsize, "
        "c._flag_tables.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=source_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "0 0\n"), done.stderr


def parsed_or_none(argv):
    """vars of parse_args(argv), or None where argparse exits or finds a
    usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except (SystemExit, cli.UsageError):
            return None


SUBCOMMANDS = ["analyze", "capacity", "region", "check", "scheme", "simulate", "fuzz"]
OPTIONS = [
    "--json", "--total-rate", "--key-rate", "--rates", "--order", "--emit-matrix",
    "--seed", "--exhaustive", "--trials", "--vertices", "--edges", "--cases",
    "--max-weight",
]
VALUES = ["", "0x1", " 4", "\u0663", "2", "3/2", "F", "1,2=2,1", "-3"]
ALPHABET = SUBCOMMANDS + OPTIONS + VALUES + [
    "--exh", "--js", "--key", "--ord", "--se",  # abbreviations
    "--key-rate=1", "--seed=2", "--json=1",
    "-h", "--help", "--", "-",
]


def test_alphabet_names_every_option_and_subcommand():
    tables = cli._flag_tables(cli._build_parser())
    assert sorted(name for name in tables if name) == sorted(SUBCOMMANDS)
    assert {s for _, options, _ in tables.values() for s in options} == set(OPTIONS)


@settings(max_examples=1000)
@given(
    st.one_of(
        st.lists(st.sampled_from(ALPHABET), max_size=8),
        # a subcommand, maybe a file, then tokens and option-value pairs
        st.builds(
            lambda head, name, file, tail: head + [name] + file + sum(tail, []),
            st.lists(st.sampled_from(["--json", "--js", "-h"]), max_size=2),
            st.sampled_from(SUBCOMMANDS),
            st.sampled_from([[], ["F"]]),
            st.lists(
                st.one_of(
                    st.sampled_from(ALPHABET).map(lambda t: [t]),
                    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map(list),
                ),
                max_size=5,
            ),
        ),
    )
)
def test_table_reading_agrees_with_parse_args(argv):
    """Where the tables read argv at all, they give parse_args' Namespace."""
    quick = cli._quick_args(argv)
    if quick is not None:
        assert vars(quick) == parsed_or_none(argv)


# every argv shape the benchmark sends, then each subcommand's common form
ACCEPTED = [
    ["--json", "analyze", "F"],
    ["--json", "region", "F"],
    ["--json", "scheme", "F"],
    ["--json", "simulate", "F", "--key-rate", "3/2", "--exhaustive"],
    ["--json", "fuzz", "--cases", "1", "--max-weight", "1", "--seed", "7",
     "--vertices", "5", "--edges", "3"],
    ["analyze", "F"],
    ["capacity", "F", "--total-rate", "1"],
    ["region", "F"],
    ["check", "F", "--key-rate", "1", "--rates", "1:1,2:1"],
    ["scheme", "F", "--key-rate", "1", "--order", "1,2=2,1", "--order", "3=3",
     "--emit-matrix"],
    ["simulate", "F", "--seed", "3", "--trials", "2", "--order", "1,2=2,1"],
    ["fuzz", "--vertices", "4", "--edges", "2", "--seed", "1", "--cases", "2",
     "--max-weight", "2"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_well_formed_argv_is_read_off_the_tables(argv):
    quick = cli._quick_args(argv)
    assert quick is not None
    assert vars(quick) == parsed_or_none(argv)


def test_a_token_that_is_no_str_is_declined():
    assert cli._quick_args(["analyze", Path("F")]) is None
    assert cli._quick_args(["simulate", "F", "--seed", 3]) is None


# -- renderers ---------------------------------------------------------------------


def fixture_documents(tmp_path, fixtures):
    """The document of every subcommand on every fixture that answers it,
    plus two fuzz documents."""
    parser = cli._build_parser()
    docs = []
    for name, h in fixtures.items():
        path = tmp_path / f"{name}.hg"
        path.write_text(hgio.serialize(h))
        p = str(path)
        rates = ",".join(f"{v}:1/2" for v in sorted(h.vertices)[:3])
        for argv in (
            ["analyze", p],
            ["capacity", p, "--total-rate", "3/2"],
            ["region", p],
            ["check", p, "--key-rate", "1", "--rates", rates],
            ["check", p, "--key-rate", "1/3", "--rates", rates],
            ["scheme", p, "--emit-matrix"],
            ["simulate", p, "--seed", "3", "--trials", "2"],
            ["simulate", p, "--exhaustive"],
        ):
            args = parser.parse_args(argv)
            try:
                docs.append(cli._HANDLERS[args.subcommand](args))
            except HyperkeyError:
                pass  # not an MCH, or over a simulation cap
    for argv in (["fuzz", "--cases", "3"], ["fuzz", "--vertices", "7", "--edges", "5"]):
        docs.append(cli._cmd_fuzz(parser.parse_args(argv)))
    return docs


def test_renderers_match_the_oracles_on_fixture_documents(
    tmp_path, h1, h2, h3, h4, h5, triangle, single_edge
):
    """One-pass JSON is json.dumps of the converted document; the text
    renderer's whole-string space test gives the per-character test's
    lines."""
    fixtures = dict(
        h1=h1, h2=h2, h3=h3, h4=h4, h5=h5, triangle=triangle, single_edge=single_edge
    )
    docs = fixture_documents(tmp_path, fixtures)
    assert len(docs) > 35
    for doc in docs:
        assert cli.render_json(doc) == oracles.render_json(doc)
        assert cli.render_text(doc) == oracles.render_text(doc)


ODD_TEXT = st.sampled_from(
    ["", " ", "a b", '"', "\\", "\x00", "\x1f", "\x7f", "é", "\u2028", "\u3000",
     "\U0001f600", "\ud800", "tab\there", "line\nbreak", "\x1c"]
)
SCALARS = st.one_of(
    st.text(), ODD_TEXT, st.integers(), st.booleans(), st.none(), st.fractions(),
    st.floats(allow_nan=False),
)


def documents(keys):
    return st.dictionaries(
        keys,
        st.recursive(
            SCALARS,
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.tuples(inner, inner),
                st.dictionaries(keys, inner, max_size=4),
                st.frozensets(st.text() | ODD_TEXT, max_size=4),
            ),
            max_leaves=25,
        ),
        max_size=5,
    )


@settings(max_examples=400)
@given(documents(st.text() | ODD_TEXT | st.integers()))
def test_json_renderer_is_json_dumps(doc):
    assert cli.render_json(doc) == oracles.render_json(doc)


@settings(max_examples=400)
@given(documents(st.text() | ODD_TEXT))
def test_text_renderer_matches_the_per_character_oracle(doc):
    assert cli.render_text(doc) == oracles.render_text(doc)


def test_space_test_agrees_with_isspace_on_every_code_point():
    for code in range(0x110000):
        c = chr(code)
        assert bool(cli._has_space(c)) == c.isspace(), hex(code)


# -- scale -------------------------------------------------------------------------


def run_json(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestScale:
    """region, scheme and a seeded simulate through the CLI at 10^4
    vertices, against closed forms (no timing asserts)."""

    @staticmethod
    def written(tmp_path, name, text):
        path = tmp_path / f"{name}.hg"
        path.write_text(text)
        least = min(
            Fraction(line.split()[-1]) for line in text.splitlines()
            if line.startswith("edge")
        )
        return str(path), least

    def check(self, path, least, constraints, coefficients, edges, capsys):
        region = run_json(["--json", "region", path], capsys)
        assert Fraction(region["key_cap"]) == least
        assert len(region["constraints"]) == constraints
        assert sorted(c["coefficient"] for c in region["constraints"]) == coefficients
        scheme = run_json(["--json", "scheme", path], capsys)
        assert scheme["row_count"] == edges - 1
        assert Fraction(scheme["key_rate"]) == least
        assert Fraction(scheme["total_rate"]) == (edges - 1) * least
        assert scheme["verified"] is True
        sim = run_json(["--json", "simulate", path, "--seed", "1"], capsys)
        assert sim["zero_error"] is True
        first = sim["first_trial"]
        assert len(first["messages"]) == edges - 1
        assert set(first["recovered"].values()) == {first["key"]}
        assert len(first["realized"]) == edges

    def test_path(self, tmp_path, capsys):
        """Every inner vertex of a path cuts it in two: n - 2 constraints of
        coefficient 1."""
        n = 10**4
        path, least = self.written(
            tmp_path, "path", scale_walls.path_text(n, random.Random(2))
        )
        self.check(path, least, n - 2, [1] * (n - 2), n - 1, capsys)

    def test_core_chain(self, tmp_path, capsys):
        """Each triangle core gives H1's four constraints (three pairs of
        coefficient 1, the triangle with 2); a core entered by a link edge
        at c_0 has one more component whenever c_0 is removed: {c_0} with 1,
        the pairs through c_0 with 2, the triangle with 3.  Each p_2 with a
        link is a singleton constraint of coefficient 1."""
        units = 10**4 // 6
        path, least = self.written(
            tmp_path, "cores", scale_walls.core_chain_text(units, random.Random(3))
        )
        linked = units - 1
        coefficients = sorted(
            [1, 1, 1, 2] + [1, 2, 2, 1, 3] * linked + [1] * linked
        )
        self.check(
            path, least, 4 + 6 * linked, coefficients, 4 * units - 1, capsys
        )
