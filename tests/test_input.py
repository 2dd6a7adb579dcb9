"""Malformed input through the CLI.

An instance, order or configuration file that cannot be read, is not UTF-8
text or is not in its format ends the command with exit 20 and an error
line, never a traceback; ``bench`` gives such an instance exit-20 rows.
"""

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from allsat import enumerate_all, parse_dimacs
from allsat.cli import main
from allsat.harness import EXIT_INPUT, EXIT_LIMIT, EXIT_OK

EX41_TEXT = "p cnf 3 3\n1 -2 0\n2 -3 0\n3 -1 0\n"
NOT_UTF8 = b"p cnf 2 1\nc \xff\n1 2 0\n"
NOT_UTF8_ERROR = "line 2: byte 0xff is not UTF-8 text"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bench_rows(tmp_path: Path, suite: Path) -> dict[str, list[dict]]:
    """Run two configurations over ``suite``; results.csv rows by file."""
    cfgs = tmp_path / "configs.txt"
    cfgs.write_text("--mode blocking\n--mode nonblocking\n")
    code, out, err = run_cli(["bench", str(suite), "--configs", str(cfgs),
                              "--out", str(tmp_path / "out")])
    assert code == EXIT_OK and "Traceback" not in err
    with open(tmp_path / "out" / "results.csv") as fh:
        rows: dict[str, list[dict]] = {}
        for row in csv.DictReader(fh):
            rows.setdefault(Path(row["instance"]).name, []).append(row)
    return rows


def test_solve_and_verify_reject_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_bytes(NOT_UTF8)
    for argv in (["solve", str(path)],
                 ["verify", str(path), "--a", "--mode blocking",
                  "--b", "--mode nonblocking"]):
        code, out, err = run_cli(argv)
        assert code == EXIT_INPUT, argv
        assert NOT_UTF8_ERROR in err and "Traceback" not in err, argv
    assert list(tmp_path.iterdir()) == [path]   # verify saved nothing


def test_bench_rows_for_a_file_that_is_not_utf8(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "bad.cnf").write_bytes(NOT_UTF8)
    (suite / "good.cnf").write_text(EX41_TEXT)
    rows = bench_rows(tmp_path, suite)
    assert [(r["exit_code"], r["error"], r["oracle"]) for r in rows["bad.cnf"]] \
        == [("20", NOT_UTF8_ERROR, "")] * 2
    assert [(r["exit_code"], r["solutions"], r["oracle"])
            for r in rows["good.cnf"]] == [("0", "2", "2")] * 2


def test_bench_rows_for_a_directory_named_like_an_instance(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "x.cnf").mkdir()
    rows = bench_rows(tmp_path, suite)
    assert [r["exit_code"] for r in rows["x.cnf"]] == ["20", "20"]
    assert all("Is a directory" in r["error"] for r in rows["x.cnf"])
    code, _, err = run_cli(["solve", str(suite / "x.cnf")])
    assert code == EXIT_INPUT and "Is a directory" in err


def test_bench_rejects_a_configuration_file_that_is_not_utf8(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    cfgs = tmp_path / "configs.txt"
    cfgs.write_bytes(b"--mode blocking\n# \xff\n")
    code, out, err = run_cli(["bench", str(suite), "--configs", str(cfgs),
                              "--out", str(tmp_path / "out")])
    assert code == EXIT_INPUT and out == ""
    assert NOT_UTF8_ERROR in err and "Traceback" not in err


# bytes the edits insert; no "p", so an edit never writes a header (the
# header sizes the per-variable arrays, and huge ones are out of scope)
EDIT_BYTES = st.lists(st.sampled_from(b"0123456789- \n\tcx%\x00\xc3\xff"),
                      max_size=3).map(bytes)


def edited(draw, data: bytes) -> bytes:
    """``data`` with up to three random cuts and insertions."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:i] + draw(EDIT_BYTES) + data[i + cut:]
    return data


@st.composite
def inputs(draw):
    """(variables, DIMACS bytes, order-file bytes or None): a header over at
    most 40 variables, sometimes malformed, then clause lines and an order
    file, each with a few byte edits."""
    n = draw(st.integers(0, 40))
    lit = st.integers(1, n + 1).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, max_size=4), max_size=8))
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    m = len(clauses)
    header = draw(st.one_of(st.just(f"p cnf {n} {m}"), st.sampled_from([
        f"p cnf {n} {m + 1}", f"p cnf {n}", f"p dnf {n} {m}",
        "p cnf -1 0", f"p cnf x {m}", "c no header"])))
    text = header.encode() + b"\n" + edited(draw, body.encode())
    order = None
    if draw(st.booleans()):
        perm = draw(st.permutations(range(1, n + 1)))
        order = edited(draw, "".join(f"{v}\n" for v in perm).encode())
    return n, text, order


@given(inputs(), st.sampled_from(["blocking", "nonblocking", "bdd",
                                  "bdd-blocking", "oracle"]))
def test_fuzzed_input_never_escapes_as_a_traceback(case, mode):
    """Edited DIMACS and order files through ``allsat solve``: the exit
    code is 0, 10 or 20, an input error names itself on stderr, and a
    complete small run counts the models of the file as parsed."""
    n, text, order = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cnf"
        path.write_bytes(text)
        argv = ["solve", str(path), "--mode", mode, "--time-limit", "0.1"]
        if order is not None:
            (Path(tmp) / "order.txt").write_bytes(order)
            argv += ["--order", str(Path(tmp) / "order.txt")]
        code, out, err = run_cli(argv)
    assert code in (EXIT_OK, EXIT_LIMIT, EXIT_INPUT), (code, err)
    assert "Traceback" not in err
    if code == EXIT_INPUT:
        assert "error:" in err
    if code == EXIT_OK and n <= 12:
        assert int(out) == enumerate_all(parse_dimacs(text.decode())).count
