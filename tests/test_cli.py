import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treeloc
from conftest import FIXTURES
from treeloc import parse_tree
from treeloc.cli import run

T6 = str(FIXTURES / "t6.tree")
T6B = str(FIXTURES / "t6b.tree")
# finite weights whose distance sums overflow float64
HUGE = "3\n1 2 10\n2 3 10\n1 1e308 1\n2 1 1\n3 1e308 1\n"


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_solve_median_summary(capsys):
    rc = run(["solve-median", "--lambda", "0.5", "--input", T6])
    assert rc == 0
    assert _lines(capsys) == [
        "problem median",
        "n 6",
        "method edge-deletion",
        "lambda 0.5",
        "deleted edge (3,4)",
        "medians (2,4)",
        "transport 5",
        "f5 0",
        "objective 2.5",
    ]


def test_solve_maxian_summary(capsys):
    rc = run(["solve-maxian", "--lambda", "0.5", "--input", T6B])
    assert rc == 0
    assert _lines(capsys) == [
        "problem maxian",
        "n 6",
        "method linear",
        "lambda 0.5",
        "deleted edge (3,4)",
        "facilities (1,5)",
        "transport 24",
        "f5 0",
        "objective 12",
    ]


def _grab(lines, key):
    for line in lines:
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise AssertionError(f"no {key!r} line in {lines}")


def test_maxian_methods_agree(capsys):
    run(["solve-maxian", "--lambda", "0.5", "--input", T6])
    fast = _lines(capsys)
    run(["solve-maxian", "--lambda", "0.5", "--method", "cubic", "--input", T6])
    slow = _lines(capsys)
    assert _grab(fast, "method") == "linear"
    assert _grab(slow, "method") == "cubic"
    assert _grab(fast, "objective") == _grab(slow, "objective") == "12.5"


def test_oracle_matches_solver(capsys):
    run(["oracle", "median", "--lambda", "0.5", "--input", T6])
    lines = _lines(capsys)
    assert _grab(lines, "method") == "brute"
    assert _grab(lines, "objective") == "2.5"
    run(["oracle", "maxian", "--lambda", "0.5", "--input", T6B])
    assert _grab(_lines(capsys), "objective") == "12"


def test_json_output(tmp_path, capsys):
    out = tmp_path / "sol.json"
    rc = run(["solve-median", "--lambda", "0.5", "--input", T6,
              "--output", str(out), "--format", "json"])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        rec = json.load(fh)
    assert rec["problem"] == "median"
    assert rec["method"] == "edge-deletion"
    assert rec["n"] == 6
    assert rec["lambda"] == 0.5
    assert rec["transport"] == 5.0
    assert rec["f5"] == 0.0
    assert rec["objective"] == 2.5
    assert (rec["edge_u"], rec["edge_v"]) == (3, 4)
    assert (rec["fac1"], rec["fac2"]) == (2, 4)
    assert rec["runtime_ms"] >= 0.0


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    run(["solve-median", "--lambda", "0.5", "--input", T6,
         "--output", str(out), "--format", "csv"])
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("test,n,seed,problem,")
    parts = lines[1].split(",")
    assert parts[3] == "median"
    assert float(parts[8]) == 2.5


def test_text_output_file(tmp_path, capsys):
    out = tmp_path / "sol.txt"
    run(["solve-median", "--lambda", "1", "--input", T6,
         "--output", str(out)])
    printed = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed


def test_sweep_flow(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "median", "--lambdas", "0,0.5,1", "--input", T6,
              "--output", str(out), "--format", "csv"])
    assert rc == 0
    lines = _lines(capsys)
    assert lines[0] == "problem median n 6 sweeps 3"
    objs = [line.split(" objective ")[1].split(" ")[0] for line in lines[1:]]
    assert objs == ["0", "2.5", "4"]
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4


def test_sweep_json_list(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    run(["sweep", "maxian", "--lambdas", "0.5,1", "--input", T6B,
         "--output", str(out), "--format", "json"])
    with open(out, encoding="utf-8") as fh:
        recs = json.load(fh)
    assert isinstance(recs, list) and len(recs) == 2
    assert recs[0]["objective"] == 12.0


def test_pareto_flow(tmp_path, capsys):
    out = tmp_path / "front.json"
    rc = run(["pareto", "median", "--input", T6,
              "--output", str(out), "--format", "json"])
    assert rc == 0
    assert _lines(capsys) == [
        "problem median grid 11 points 2",
        "transport 4 f5 2",
        "transport 5 f5 0",
    ]
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["points"] == [[4.0, 2.0], [5.0, 0.0]]


def test_gen_stdout_parses(capsys):
    rc = run(["gen", "--n", "30", "--seed", "7"])
    assert rc == 0
    tree = parse_tree(capsys.readouterr().out)
    assert tree.n == 30


@pytest.mark.parametrize("argv,digest", [
    (["--n", "1"], "d6819d4f859cc539c7d7938980310d79e70d5c4d554c8f8d703379ed76fb8737"),
    (["--n", "2000", "--seed", "7"],
     "829d37089d39305827e32a1cb95121932e0dd9741ef97aad6c33d041315032e8"),
    (["--n", "2000", "--seed", "7", "--weights", "uniform", "--services", "uniform"],
     "7341927e62b299aa9b8d04a1938cde7f125065f58296579a78b2ccbcff28d294"),
    (["--n", "2000", "--seed", "7", "--length-min", "0"],
     "f86ec02501c6f5e8ae321bd2df5e35e08b6b04fcfe8d8781e7c7d18574554d15"),
])
def test_gen_stdout_is_pinned(argv, digest, capsys):
    assert run(["gen", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_gen_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.tree", tmp_path / "b.tree"
    run(["gen", "--n", "30", "--seed", "7", "--output", str(a)])
    assert "generated n=30 seed=7" in capsys.readouterr().out
    run(["gen", "--n", "30", "--seed", "7", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    run(["gen", "--n", "30", "--seed", "8", "--output", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_report_flow(capsys):
    rc = run(["report", "median", "--lambda", "0.5", "--input", T6])
    assert rc == 0
    assert _lines(capsys)[-1] == "deviations 1"
    run(["report", "median", "--lambda", "1", "--input", T6])
    assert _lines(capsys)[-1] == "deviations 0"
    run(["report", "maxian", "--lambda", "0.5", "--input", T6B])
    assert _lines(capsys)[-1] == "deviations 1"


def test_report_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    run(["report", "median", "--lambda", "0.5", "--input", T6,
         "--output", str(out), "--format", "csv"])
    assert out.read_text(encoding="utf-8") == \
        "problem,method,lambda,deviations\nmedian,edge-deletion,0.5,1\n"


@pytest.mark.parametrize("argv,code", [
    (["solve-median", "--lambda", "1.5", "--input", "IN"], 3),
    (["solve-maxian", "--lambda", "0.5", "--method", "quartic",
      "--input", "IN"], 3),
    (["solve-median", "--lambda", "0.5", "--input", "IN",
      "--format", "yaml"], 3),
    (["oracle", "mean", "--lambda", "0.5", "--input", "IN"], 3),
    (["sweep", "median", "--lambdas", "a,b", "--input", "IN"], 3),
    (["sweep", "median", "--lambdas", ",", "--input", "IN"], 3),
    (["gen", "--n", "0"], 3),
    (["gen", "--n", "5", "--length-max", "inf"], 3),
    # a bad lambda or grid is named before the input is opened
    (["sweep", "maxian", "--lambdas", "0.5,2", "--input", "/nope/missing"], 3),
    (["pareto", "maxian", "--grid", "1", "--input", "/nope/missing"], 3),
])
def test_config_errors(argv, code, capsys):
    argv = [T6 if a == "IN" else a for a in argv]
    assert run(argv) == code
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_file(capsys):
    rc = run(["solve-median", "--lambda", "0.5", "--input", "/nope/missing"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("2\n1 2 x\n", encoding="utf-8")
    rc = run(["solve-median", "--lambda", "0.5", "--input", str(bad)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("data,err", [
    # a UTF-8 byte order mark is not whitespace, so the count line is bad
    (b"\xef\xbb\xbf3\n1 2 1\n2 3 1\n",
     "error: line 1: expected vertex count, got '\\ufeff3'\n"),
    # CRLF line ends; the duplicate edge is named before the later fault
    (b"4\r\n1 2 1\r\n2 1 1\r\n3 4 -1\r\n", "error: line 3: duplicate edge (1,2)\n"),
    # bytes that are not UTF-8
    (b"3\n1 2 1\n2 3 \xff1\n",
     "error: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte\n"),
])
def test_malformed_input_exit_code_and_message(data, err, tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_bytes(data)
    rc = run(["solve-median", "--lambda", "0.5", "--input", str(bad)])
    assert rc == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["solve-median", "--lambda", "0.5"],
    ["solve-maxian", "--lambda", "0.5", "--method", "linear"],
    ["solve-maxian", "--lambda", "0.5", "--method", "cubic"],
    ["report", "median", "--lambda", "0.5"],
    ["report", "maxian", "--lambda", "0.5"],
    ["oracle", "maxian", "--lambda", "0.5"],
])
def test_overflowing_data_is_a_precondition_error(argv, tmp_path, capsys):
    huge = tmp_path / "huge.tree"
    huge.write_text(HUGE, encoding="utf-8")
    rc = run(argv + ["--input", str(huge)])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _run_child(argv, stdin=None):
    """The CLI in a child process, fed stdin through a pipe, whose stderr
    also shows what Python's warning machinery prints; pytest captures
    warnings in-process."""
    env = dict(os.environ, PYTHONPATH=str(Path(treeloc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "treeloc.cli", *argv], env=env,
                          input=stdin, capture_output=True, text=True, timeout=120)


def test_overflow_prints_only_the_error_line(tmp_path):
    huge = tmp_path / "huge.tree"
    huge.write_text(HUGE, encoding="utf-8")
    res = _run_child(["solve-median", "--lambda", "0.5", "--input", str(huge)])
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == ("error: objective is not finite: the weights, service "
                          "times or lengths are too large\n")


def test_zero_length_fallback_warns_in_one_line(tmp_path):
    tree = tmp_path / "zero.tree"
    tree.write_text("4\n1 2 1\n2 3 0\n3 4 1\n", encoding="utf-8")
    res = _run_child(["solve-maxian", "--lambda", "0.5", "--input", str(tree)])
    assert res.returncode == 0
    assert res.stderr == ("warning: zero-length edge: diameter-endpoint optimality "
                          "is not guaranteed, falling back to the cubic method\n")
    assert res.stdout == ("problem maxian\nn 4\nmethod cubic\nlambda 0.5\n"
                          "deleted edge (2,3)\nfacilities (1,4)\ntransport 6\n"
                          "f5 0\nobjective 3\n")


def test_single_vertex_precondition(tmp_path, capsys):
    tiny = tmp_path / "one.tree"
    tiny.write_text("1\n1 1 1\n", encoding="utf-8")
    rc = run(["solve-median", "--lambda", "0.5", "--input", str(tiny)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_cap(capsys):
    rc = run(["oracle", "median", "--lambda", "0.5", "--input", T6,
              "--cap", "5"])
    assert rc == 4
    assert "cap" in capsys.readouterr().err


def test_help_and_usage_exits(capsys):
    assert run(["--help"]) == 0
    assert "solve-median" in capsys.readouterr().out
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


CSV_HEAD = ("test,n,seed,problem,method,lambda,transport,f5,objective,"
            "edge_u,edge_v,fac1,fac2,runtime_ms\n")

# --output files on t6b, byte for byte, with runtime_ms masked as X
GOLDEN = [
    (["solve-maxian", "--lambda", "0.5"], "json",
     '{\n  "test": 0,\n  "n": 6,\n  "seed": 0,\n'
     '  "problem": "maxian",\n  "method": "linear",\n'
     '  "lambda": 0.5,\n  "transport": 24.0,\n  "f5": 0.0,\n'
     '  "objective": 12.0,\n  "edge_u": 3,\n  "edge_v": 4,\n'
     '  "fac1": 1,\n  "fac2": 5,\n  "runtime_ms": X\n}\n'),
    (["solve-maxian", "--lambda", "0.5"], "csv",
     CSV_HEAD + "0,6,0,maxian,linear,0.5,24,0,12,3,4,1,5,X\n"),
    (["sweep", "median", "--lambdas", "0,0.5,1"], "json",
     '[\n  {\n    "test": 0,\n    "n": 6,\n    "seed": 0,\n'
     '    "problem": "median",\n    "method": "edge-deletion",\n'
     '    "lambda": 0.0,\n    "transport": 5.0,\n    "f5": 0.0,\n'
     '    "objective": 0.0,\n    "edge_u": 3,\n    "edge_v": 4,\n'
     '    "fac1": 2,\n    "fac2": 4,\n    "runtime_ms": X\n  },\n  {\n'
     '    "test": 0,\n    "n": 6,\n    "seed": 0,\n'
     '    "problem": "median",\n    "method": "edge-deletion",\n'
     '    "lambda": 0.5,\n    "transport": 5.0,\n    "f5": 0.0,\n'
     '    "objective": 2.5,\n    "edge_u": 3,\n    "edge_v": 4,\n'
     '    "fac1": 2,\n    "fac2": 4,\n    "runtime_ms": X\n  },\n  {\n'
     '    "test": 0,\n    "n": 6,\n    "seed": 0,\n'
     '    "problem": "median",\n    "method": "edge-deletion",\n'
     '    "lambda": 1.0,\n    "transport": 5.0,\n    "f5": 4.0,\n'
     '    "objective": 5.0,\n    "edge_u": 1,\n    "edge_v": 2,\n'
     '    "fac1": 1,\n    "fac2": 4,\n    "runtime_ms": X\n  }\n]\n'),
    (["sweep", "median", "--lambdas", "0,0.5,1"], "csv",
     CSV_HEAD + "0,6,0,median,edge-deletion,0,5,0,0,3,4,2,4,X\n"
     "0,6,0,median,edge-deletion,0.5,5,0,2.5,3,4,2,4,X\n"
     "0,6,0,median,edge-deletion,1,5,4,5,1,2,1,4,X\n"),
    (["pareto", "maxian"], "json",
     '{\n  "problem": "maxian",\n  "grid": 11,\n  "points": [\n    [\n'
     "      24.0,\n      0.0\n    ],\n    [\n      25.0,\n      2.0\n"
     "    ]\n  ]\n}\n"),
    (["pareto", "maxian"], "csv",
     "transport,f5\n24,0\n25,2\n"),
    (["report", "median", "--lambda", "0.5"], "json",
     '{\n  "test": 0,\n  "n": 6,\n  "seed": 0,\n'
     '  "problem": "median",\n  "method": "edge-deletion",\n'
     '  "lambda": 0.5,\n  "transport": 5.0,\n  "f5": 0.0,\n'
     '  "objective": 2.5,\n  "edge_u": 3,\n  "edge_v": 4,\n'
     '  "fac1": 2,\n  "fac2": 4,\n  "runtime_ms": X,\n'
     '  "deviations": 0\n}\n'),
    (["report", "median", "--lambda", "0.5"], "csv",
     "problem,method,lambda,deviations\nmedian,edge-deletion,0.5,0\n"),
    (["oracle", "maxian", "--lambda", "0.5"], "json",
     '{\n  "test": 0,\n  "n": 6,\n  "seed": 0,\n'
     '  "problem": "maxian",\n  "method": "brute",\n'
     '  "lambda": 0.5,\n  "transport": 24.0,\n  "f5": 0.0,\n'
     '  "objective": 12.0,\n  "edge_u": 3,\n  "edge_v": 4,\n'
     '  "fac1": 1,\n  "fac2": 5,\n  "runtime_ms": X\n}\n'),
    (["oracle", "maxian", "--lambda", "0.5"], "csv",
     CSV_HEAD + "0,6,0,maxian,brute,0.5,24,0,12,3,4,1,5,X\n"),
    # a one-lambda sweep writes one object, not a list of one
    (["sweep", "maxian", "--lambdas", "0.5"], "json",
     '{\n  "test": 0,\n  "n": 6,\n  "seed": 0,\n'
     '  "problem": "maxian",\n  "method": "linear",\n'
     '  "lambda": 0.5,\n  "transport": 24.0,\n  "f5": 0.0,\n'
     '  "objective": 12.0,\n  "edge_u": 3,\n  "edge_v": 4,\n'
     '  "fac1": 1,\n  "fac2": 5,\n  "runtime_ms": X\n}\n'),
    (["sweep", "median", "--lambdas", "0,0.5,1"], "text",
     "problem median n 6 sweeps 3\n"
     "lambda 0 objective 0 transport 5 f5 0 edge (3,4) facilities (2,4)\n"
     "lambda 0.5 objective 2.5 transport 5 f5 0 edge (3,4) facilities (2,4)\n"
     "lambda 1 objective 5 transport 5 f5 4 edge (1,2) facilities (1,4)\n"),
    (["pareto", "maxian"], "text",
     "problem maxian grid 11 points 2\ntransport 24 f5 0\ntransport 25 f5 2\n"),
    (["report", "median", "--lambda", "0.5"], "text",
     "problem median\nn 6\nmethod edge-deletion\nlambda 0.5\ndeleted edge (3,4)\n"
     "medians (2,4)\ntransport 5\nf5 0\nobjective 2.5\ndeviations 0\n"),
    # the linear table's distance rows give the maxian's deviations
    (["report", "maxian", "--lambda", "0.5"], "csv",
     "problem,method,lambda,deviations\nmaxian,linear,0.5,1\n"),
]


@pytest.mark.parametrize("argv,fmt,want", GOLDEN,
                         ids=[f"{' '.join(a[:2])}-{f}" for a, f, _ in GOLDEN])
def test_output_files_are_byte_exact(argv, fmt, want, tmp_path, capsys):
    out = tmp_path / f"out.{fmt}"
    assert run([*argv, "--input", T6B, "--format", fmt, "--output", str(out)]) == 0
    got = out.read_bytes().decode("utf-8")
    if fmt == "json":
        got = re.sub(r'("runtime_ms": )[^,\n]+', r"\1X", got)
    elif got.startswith(CSV_HEAD):
        got = re.sub(r",[0-9][0-9.e+-]*$", ",X", got, flags=re.M)
    assert got == want
