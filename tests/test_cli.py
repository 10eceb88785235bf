import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from timed_plactic import (
    BudgetExceededError,
    NotARowError,
    TimedTableau,
    knuth_equivalent_bfs,
    parse_timed_word,
    row_insert,
    timed_row_insert,
    timed_row_insert_word,
    timed_tableau_insert,
)
from timed_plactic import notation, selfcheck
from timed_plactic.cli import _MAX_GRID_BITS
from timed_plactic.cli import _MAX_ITERS
from timed_plactic.cli import _MAX_RUNS, main
from timed_plactic.notation import format_timed_word, format_word

from conftest import BIG_TIMED_WORD_TEXT, KAPPA2_RESULT_TEXT, KAPPA2_SOURCE_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInsert:
    def test_classical_text(self, capsys):
        code, out, _ = run_cli(capsys, "insert", "3421153")
        assert code == 0
        assert out == "113\n245\n3\n"

    def test_classical_json_with_steps(self, capsys):
        code, out, _ = run_cli(capsys, "insert", "3421153", "--json", "--steps")
        assert code == 0
        data = json.loads(out)
        assert data["rows"] == [[1, 1, 3], [2, 4, 5], [3]]
        assert len(data["steps"]) == 7
        assert data["steps"][0]["rows"] == [[3]]
        assert data["steps"][5]["rows"] == [[1, 1, 5], [2, 4], [3]]

    def test_timed_json(self, capsys):
        code, out, _ = run_cli(capsys, "insert", "3^1 1^1 3^1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rows"] == [
            {"runs": [{"letter": 1, "dur": "1"}, {"letter": 3, "dur": "1"}]},
            {"runs": [{"letter": 3, "dur": "1"}]},
        ]

    def test_empty_word(self, capsys):
        code, out, _ = run_cli(capsys, "insert", "")
        assert code == 0
        assert out == "(empty)\n"


class TestGreene:
    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "greene", "3421153", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"profile": [3, 6, 7], "mode": "fast", "agreement": None}

    def test_classical_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "greene", "3421153", "--json", "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "both"
        assert data["agreement"] is True

    def test_timed_fraction_strings(self, capsys):
        code, out, _ = run_cli(capsys, "greene", "3^1", "--json")
        assert code == 0
        assert json.loads(out)["profile"] == ["1"]

    def test_timed_oracle_unavailable_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "greene", BIG_TIMED_WORD_TEXT, "--json", "--oracle"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "fast"
        assert data["agreement"] is None
        assert "note" in data

    def test_oracle_state_budget_gives_note(self):
        rng = random.Random(1)
        word = ",".join(str(rng.randint(1, 40)) for _ in range(30))
        result = subprocess.run(
            [sys.executable, "-m", "timed_plactic", "greene", word, "--oracle", "--json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["mode"] == "fast"
        assert data["agreement"] is None
        assert "budget" in data["note"]

    def test_human_text_marks_inexact(self, capsys):
        code, out, _ = run_cli(capsys, "greene", "1^1/3")
        assert code == 0
        assert "1/3" in out and "≈" in out


class TestEquiv:
    def test_equivalent_classical(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "3421153", "3245113", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is True
        assert data["left_tableau"] == data["right_tableau"]

    def test_not_equivalent_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "12", "21", "--json")
        assert code == 1
        assert json.loads(out)["equivalent"] is False

    def test_timed_pair(self, capsys):
        code, _, _ = run_cli(capsys, "equiv", KAPPA2_SOURCE_TEXT, KAPPA2_RESULT_TEXT)
        assert code == 0

    def test_move_debugging_path(self, capsys):
        move = json.dumps(
            {
                "kind": "k2",
                "u_len": "3.18",
                "x_len": "0.73",
                "y_len": "0.73",
                "z_len": "1.47",
                "reverse": True,
            }
        )
        code, out, _ = run_cli(
            capsys,
            "equiv",
            KAPPA2_SOURCE_TEXT,
            KAPPA2_RESULT_TEXT,
            "--move",
            move,
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is True
        assert data["move_reaches_right"] is True

    def test_non_boolean_reverse_is_parse_error(self, capsys):
        move = json.dumps(
            {"kind": "k2", "u_len": "0", "x_len": "1", "y_len": "1", "z_len": "1",
             "reverse": "false"}
        )
        code, _, err = run_cli(
            capsys, "equiv", "2^1 1^1 3^1", "2^1 3^1 1^1", "--move", move, "--json"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NotationError"

    def test_invalid_move_is_usage_error(self, capsys):
        move = json.dumps(
            {"kind": "k1", "u_len": "0", "x_len": "1", "y_len": "1", "z_len": "1"}
        )
        code, _, err = run_cli(
            capsys, "equiv", "2^1 3^1 1^1", "2^1 3^1 1^1", "--move", move, "--json"
        )
        assert code == 2
        assert json.loads(err)["error"]["condition"] == "xyz-not-a-row"


class TestRender:
    @pytest.mark.parametrize("text", ['{"rows": 5}', "[[1, 2]]", '{"rows": null}'])
    def test_malformed_json_exits_2_without_traceback(self, text, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "timed_plactic", "render", text,
             "--svg", str(tmp_path / "x.svg")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "text",
        ['{"rows": [[1.7, 2]]}', '{"rows": [{"runs": [{"letter": 1.5, "dur": "1"}]}]}'],
    )
    def test_non_integer_letters_are_parse_errors(self, capsys, text, tmp_path):
        code, _, err = run_cli(
            capsys, "render", text, "--svg", str(tmp_path / "x.svg"), "--json"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NotationError"

    @pytest.mark.parametrize(
        "text, bad",
        [
            ('{"rows": [[0]]}', "0"),
            ('{"rows": [{"runs": [{"letter": 0, "dur": "1"}]}]}', "0"),
            ('{"rows": [[1, 2], [-3]]}', "-3"),
        ],
    )
    def test_letters_below_one_are_parse_errors(self, capsys, text, bad, tmp_path):
        code, out, err = run_cli(
            capsys, "render", text, "--svg", str(tmp_path / "x.svg"), "--json"
        )
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"] == {
            "type": "NotationError",
            "message": f"letters must be at least 1, got {bad}",
        }

    def test_ribbon_file(self, capsys, tmp_path):
        path = tmp_path / "ribbon.svg"
        code, out, _ = run_cli(capsys, "render", "3^1 1^1", "--svg", str(path))
        assert code == 0
        assert path.read_text().startswith("<svg")

    def test_tableau_of_word(self, capsys, tmp_path):
        path = tmp_path / "tab.svg"
        code, _, _ = run_cli(
            capsys, "render", BIG_TIMED_WORD_TEXT, "--tableau", "--svg", str(path)
        )
        assert code == 0
        assert path.read_text().count('y="200"') > 0  # six rows present

    def test_tableau_json_input(self, capsys, tmp_path):
        path = tmp_path / "tab.svg"
        code, _, _ = run_cli(
            capsys, "render", '{"rows": [[1,1,3],[2,4,5],[3]]}', "--svg", str(path)
        )
        assert code == 0
        # rows embed as 1^2 3^1 / 2^1 4^1 5^1 / 3^1: six runs after merging
        assert path.read_text().count("<rect") == 6

    def test_byte_identical_renders(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "render", BIG_TIMED_WORD_TEXT, "--svg", str(a))
        run_cli(capsys, "render", BIG_TIMED_WORD_TEXT, "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRandom:
    def test_reproducible(self, capsys):
        code, out1, _ = run_cli(capsys, "random", "--runs", "4", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "random", "--runs", "4", "--seed", "7")
        assert code == code2 == 0
        assert out1 == out2

    def test_run_count_and_den_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "random", "--runs", "6", "--max-den", "3", "--seed", "1", "--json"
        )
        assert code == 0
        runs = json.loads(out)["runs"]
        assert len(runs) == 6
        from timed_plactic import parse_duration

        assert all(parse_duration(r["dur"]).denominator <= 3 for r in runs)

    def test_runs_up_to_the_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "random", "--runs", str(_MAX_RUNS), "--json")
        assert code == 0
        assert len(json.loads(out)["runs"]) == _MAX_RUNS

    def test_env_seed_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("TIMED_PLACTIC_SEED", "123")
        _, with_env, _ = run_cli(capsys, "random", "--seed", "7")
        monkeypatch.delenv("TIMED_PLACTIC_SEED")
        _, direct, _ = run_cli(capsys, "random", "--seed", "123")
        assert with_env == direct

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--letters", "0"),
            ("--runs", "-1"),
            ("--runs", str(_MAX_RUNS + 1)),
            ("--max-den", "0"),
            ("--max-num", "0"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "random", flag, value, "--json")
        assert code == 2
        assert out == ""
        assert flag in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("flag", ["--max-den", "--max-num"])
    def test_a_grid_past_its_bound_is_usage_error(self, capsys, flag):
        # 100 runs of a 4,001-digit --max-den: q could reach 1.3 million bits;
        # of a 4,001-digit --max-num: 1.3 million bits of durations.
        code, out, err = run_cli(capsys, "random", "--runs", "100", flag, "9" * 4001, "--json")
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert all(name in message for name in ("--runs", "--max-den", "--max-num"))

    def test_the_largest_grid_at_the_run_ceiling(self, capsys):
        bits = _MAX_GRID_BITS // _MAX_RUNS - (3).bit_length()
        argv = ["random", "--runs", str(_MAX_RUNS), "--max-num", "3", "--json", "--max-den"]
        code, out, _ = run_cli(capsys, *argv, str(2**bits - 1))
        assert code == 0
        assert len(json.loads(out)["runs"]) == _MAX_RUNS
        code, out, _ = run_cli(capsys, *argv, str(2**bits))
        assert code == 2 and out == ""

    def test_zero_letters_exits_2_without_traceback(self):
        result = subprocess.run(
            [sys.executable, "-m", "timed_plactic", "random", "--letters", "0"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")


class TestCheck:
    def test_passes_and_is_reproducible(self, capsys):
        code, out1, _ = run_cli(capsys, "check", "--iters", "3", "--seed", "5", "--json")
        assert code == 0
        report = json.loads(out1)
        assert report["ok"] is True
        assert {s["name"] for s in report["suites"]} == {
            "greene-classical-oracle-agreement",
            "greene-timed-oracle-agreement",
            "knuth-move-invariance",
            "parse-and-reading-word-roundtrips",
            "classical-embedding-compatibility",
            "discretization-stability",
        }
        _, out2, _ = run_cli(capsys, "check", "--iters", "3", "--seed", "5", "--json")
        assert out1 == out2

    @staticmethod
    def fail_at(monkeypatch, index, iteration):
        """Make suite ``index`` fail at ``iteration``; returns the words that
        suite was given, in order."""
        suites = list(selfcheck._SUITES)
        name, suite = suites[index]
        seen = []

        def failing(rng, i):
            w, passed = suite(rng, i)
            seen.append(w)
            return w, passed and i != iteration

        suites[index] = (name, failing)
        monkeypatch.setattr(selfcheck, "_SUITES", tuple(suites))
        return seen

    def test_witness_in_json(self, capsys, monkeypatch):
        seen = self.fail_at(monkeypatch, 2, 3)
        code, out1, _ = run_cli(capsys, "check", "--iters", "6", "--seed", "11", "--json")
        assert code == 1
        report = json.loads(out1)
        assert report["ok"] is False
        assert [s["fail"] for s in report["suites"]] == [0, 0, 1, 0, 0, 0]
        assert report["witness"] == {
            "suite": "knuth-move-invariance",
            "seed": 11,
            "iteration": 3,
            "word": format_timed_word(seen[3]),
        }
        assert list(report)[-1] == "witness"
        # Replaying the seed reproduces the witness, and the whole report.
        _, out2, _ = run_cli(capsys, "check", "--iters", "6", "--seed", "11", "--json")
        assert out2 == out1

    def test_witness_in_text(self, capsys, monkeypatch):
        seen = self.fail_at(monkeypatch, 0, 3)
        code, out, _ = run_cli(capsys, "check", "--iters", "6", "--seed", "11")
        assert code == 1
        lines = out.splitlines()
        assert lines[-2:] == [
            "first failure: greene-classical-oracle-agreement, seed 11, iteration 3, "
            f"word '{format_word(seen[3])}'",
            "CHECK FAILURES",
        ]
        assert "  greene-classical-oracle-agreement: 5 passed, 1 failed" in lines

    def test_first_failure_is_the_witness(self, monkeypatch):
        self.fail_at(monkeypatch, 4, 0)
        self.fail_at(monkeypatch, 1, 3)
        report = selfcheck.run_checks(5, 2)
        assert [s["fail"] for s in report["suites"]] == [0, 1, 0, 0, 1, 0]
        assert (report["witness"]["suite"], report["witness"]["iteration"]) == (
            "greene-timed-oracle-agreement",
            3,
        )

    def test_negative_iters_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--iters", "-2", "--json")
        assert code == 2
        assert out == ""
        assert "--iters" in json.loads(err)["error"]["message"]

    def test_iters_past_the_bound_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--iters", str(_MAX_ITERS + 1), "--json")
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message == f"--iters must be at most {_MAX_ITERS}, got {_MAX_ITERS + 1}"


class TestErrors:
    # Nested past the parser's recursion limit, yet within one argv string.
    DEEP = "[" * 50_000 + "]" * 50_000
    MOVE = {"kind": "k1", "u_len": 0, "x_len": 1, "y_len": 1, "z_len": 1}
    # 300 unit runs, each letter below the one before.
    DESCENDING = " ".join(f"{300 - i}^1" for i in range(300))

    @pytest.mark.parametrize("command", ["equiv", "render"])
    def test_deeply_nested_json_exits_2_without_traceback(self, command, tmp_path):
        if command == "equiv":
            argv = ["equiv", "1^1", "1^1", "--move", self.DEEP]
        else:
            argv = ["render", self.DEEP, "--svg", str(tmp_path / "x.svg")]
        result = subprocess.run(
            [sys.executable, "-m", "timed_plactic", *argv], capture_output=True, text=True
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == "error: bad JSON input: nested too deeply\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", '{"rows": ' + "[" * 300 + "]" * 300 + "}"],
            ["render", '{"rows": [{"runs": [{"letter": 1, "dur": "%s"}]}]}' % ("9" * 5000 + "x")],
            ["equiv", "1^1", "1^1", "--move", json.dumps({**MOVE, "kind": "k" * 5000})],
            ["equiv", "1^1", "1^1", "--move", json.dumps({**MOVE, "reverse": ["x" * 5000]})],
            ["insert", "1," + "x" * 5000],
            ["render", json.dumps({"rows": [[3] * 300 + [1]]})],
            [
                "render",
                json.dumps({"rows": [{"runs": [{"letter": 300 - i, "dur": "1"} for i in range(300)]}]}),
            ],
            [
                "equiv", DESCENDING, DESCENDING, "--move",
                json.dumps({**MOVE, "x_len": 100, "y_len": 100, "z_len": 100}),
            ],
        ],
    )
    @pytest.mark.parametrize("as_json", [False, True])
    def test_quoted_input_is_clipped(self, capsys, tmp_path, argv, as_json):
        if argv[0] == "render":
            argv = argv + ["--svg", str(tmp_path / "x.svg")]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert "..." in err

    @pytest.mark.parametrize(
        "call",
        [
            lambda: row_insert(tuple(range(300, 0, -1)), 1),
            lambda: timed_row_insert(parse_timed_word(TestErrors.DESCENDING), 1, 1),
            lambda: timed_row_insert_word(
                parse_timed_word(TestErrors.DESCENDING), parse_timed_word("1^1")
            ),
            lambda: timed_tableau_insert(TimedTableau(), parse_timed_word(TestErrors.DESCENDING)),
            lambda: knuth_equivalent_bfs((2, 1, 3) * 100, (1,), budget=1),
        ],
    )
    def test_library_messages_are_clipped(self, call):
        # These words reach error messages only through the library.
        with pytest.raises((NotARowError, BudgetExceededError)) as info:
            call()
        assert len(str(info.value)) < 200 and "..." in str(info.value)

    @pytest.mark.parametrize(
        "argv, position",
        [
            (["insert", "9" * 5000 + "^1"], 0),
            (["insert", "1^" + "9" * 5000], 2),
            (["insert", "1^1 2^1/" + "9" * 5000], 8),
            (["insert", "1^" + "1" * 2500 + "." + "1" * 2500], 2),
            (["insert", "1," + "9" * 5000], 2),
            (["render", '{"rows": [[%s]]}' % ("9" * 5000)], None),
            (["render", '{"rows": [{"runs": [{"letter": 1, "dur": "1.%s"}]}]}' % ("1" * 5000)], None),
        ],
    )
    def test_long_numerals_are_notation_errors(self, capsys, tmp_path, argv, position):
        if argv[0] == "render":
            argv = argv + ["--svg", str(tmp_path / "x.svg")]
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "NotationError"
        assert error.get("position") == position
        assert "numeral of more than 4300 digits" in error["message"]

    def test_numerals_up_to_the_digit_bound(self, capsys):
        code, out, _ = run_cli(capsys, "insert", "1," + "9" * 4300, "--json")
        assert code == 0
        assert json.loads(out)["rows"] == [[1, int("9" * 4300)]]

    @pytest.mark.parametrize(
        "argv",
        [
            # Durations with denominators (10^2500 + 1)(10^2500 + 3).
            ["insert", f"1^1/{10**2500 + 1} 2^1 1^1/{10**2500 + 3}"],
            ["greene", f"1^1/{10**2500 + 1} 2^1/{10**2500 + 3}"],
        ],
    )
    def test_results_past_the_digit_bound(self, capsys, argv):
        message = f"exact result needs a numeral of more than {notation._MAX_DIGITS} digits"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": {"type": "NotationError", "message": message}}

    def test_svg_coordinates_past_the_digit_bound(self, capsys, tmp_path):
        svg = tmp_path / "x.svg"
        code, out, err = run_cli(capsys, "render", "1^" + "9" * 4300, "--svg", str(svg), "--json")
        assert code == 2 and out == "" and not svg.exists()
        assert json.loads(err)["error"]["type"] == "NotationError"

    def test_decimal_text_past_the_digit_bound(self, capsys):
        # 1/2^14000 has 14,000 decimal places, but its fraction is printable.
        word = f"1^1/{2**14000}"
        code, out, err = run_cli(capsys, "insert", word)
        assert code == 2 and out == "" and "more than 4300 digits" in err
        code, out, _ = run_cli(capsys, "insert", word, "--json")
        assert code == 0
        assert json.loads(out)["rows"] == [{"runs": [{"letter": 1, "dur": f"1/{2**14000}"}]}]

    def test_profile_beyond_the_float_range(self, capsys):
        code, out, _ = run_cli(capsys, "greene", "1^" + "9" * 400 + "/7")
        assert code == 0
        assert out == f"profile: {'9' * 400}/7 (≈1.42857e+399)\nmode: fast\n"

    def test_parse_error_exit_2_with_json_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "insert", "3^oops", "--json")
        assert code == 2
        data = json.loads(err)
        assert data["error"]["type"] == "NotationError"
        assert data["error"]["position"] == 0

    def test_parse_error_plain_text(self, capsys):
        code, _, err = run_cli(capsys, "greene", "1a2")
        assert code == 2
        assert err.startswith("error:")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "timed_plactic", "insert", "3421153"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "113\n245\n3\n"


def test_startup_imports_neither_dataclasses_nor_inspect():
    # -S keeps site-packages .pth files, which may import anything, out of
    # the check; what remains is the package's own import graph.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, timed_plactic.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
