"""The CLI reads tree files a chunk at a time and writes them a block at a
time: the streamed reader must give what parse_tree gives for the whole
text, and gen must write what render_tree returns."""

import os
import sys

import pytest

import treeloc.cli as cli
import treeloc.tree as tree_module
from conftest import FIXTURES
from test_cli import _run_child
from test_tree import PARSE_PINS
from treeloc import GenSpec, gen_random_tree, parse_tree, render_tree
from treeloc.cli import _load_tree, run

# the traversal arrays and the data columns of a tree
FIELDS = ("preorder", "tin", "end", "pdep", "plen", "up", "below", "a_below",
          "eu", "ev", "length", "w", "t")
# every line end of str.splitlines; "\r\n" is one end
LINE_ENDS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028", "\u2029")
# chunk sizes in characters: boundaries fall inside tokens, between "\r"
# and "\n", and inside comment lines
CHUNKS = (1, 2, 3, 5, 7, 64)

WITH_VERTICES = ("# a comment longer than a chunk: 1 2 3\n"
                 "4\n1 2 1.5\n2 3 2\n\n   \n2 4 0.25\n"
                 "# vertex lines in any order\n"
                 "3 0.5 1\n\t1 5 1  \n4 2 2\n2 1 2\n")
WITHOUT_VERTICES = "4\n1 2 1.5\n# comment\n2 3 2\n2 4 0.25\n"


def _outcome(load):
    """("tree", n, each field's dtype and bytes) or ("error", type, message)
    of load()."""
    try:
        tree = load()
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("tree", tree.n,
            [(getattr(tree, f).dtype.str, getattr(tree, f).tobytes()) for f in FIELDS])


def _streamed_columns(path):
    with open(path, encoding="utf-8") as fh:
        return tree_module._columns(tree_module._read_lines(fh))


def _assert_streamed_equals_text(path, text):
    """_load_tree(path) gives what parse_tree(text) gives, and on a valid
    text the streamed columns themselves equal the text's."""
    want = _outcome(lambda: parse_tree(text))
    assert _outcome(lambda: _load_tree(str(path))) == want
    if want[0] == "tree":
        got = _streamed_columns(path)
        exp = tree_module._columns(text.splitlines())
        assert got[0] == exp[0]
        for a, b in zip(got[1:], exp[1:]):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def _with_ends(text, ends):
    """The text's lines, each closed by the next of ends in turn."""
    return "".join(line + ends[k % len(ends)]
                   for k, line in enumerate(text.splitlines()))


def _write(tmp_path, text, name="in.tree"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def test_line_ends_are_those_of_splitlines():
    ends = [chr(c) for c in range(sys.maxunicode + 1)
            if len(("a" + chr(c) + "b").splitlines()) == 2]
    assert ends == sorted(e for e in LINE_ENDS if e != "\r\n")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_streamed_fixture_equals_text(name, chunk, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", chunk)
    path = FIXTURES / name
    _assert_streamed_equals_text(path, path.read_text(encoding="utf-8"))


TEXTS = {
    "lf": WITH_VERTICES,
    "cr": _with_ends(WITH_VERTICES, ["\r"]),
    "crlf": _with_ends(WITH_VERTICES, ["\r\n"]),
    "mixed": _with_ends(WITH_VERTICES, ["\r\n", "\n", "\r", "\r\r\n", "\n\r"]),
    **{f"end-{ord(e[-1]):x}-{len(e)}": _with_ends(WITH_VERTICES, [e]) for e in LINE_ENDS},
    "every-end": _with_ends(WITH_VERTICES, list(LINE_ENDS)),
    "bom": "\ufeff" + WITH_VERTICES,
    "bom-inside": WITH_VERTICES.replace("2 3 2", "\ufeff2 3 2"),
    "no-final-newline": WITH_VERTICES.rstrip("\n"),
    "no-final-newline-cr": _with_ends(WITH_VERTICES, ["\r"]).rstrip("\r"),
    "blank-and-comments": "\n\n#\n# 1 2 3\n" + WITH_VERTICES.replace("\n", "\n \n#x\n"),
    "no-vertex-lines": WITHOUT_VERTICES,
    "no-vertex-lines-crlf": _with_ends(WITHOUT_VERTICES, ["\r\n"]),
    "one-vertex": "1\n",
    "one-vertex-no-newline": "1",
    "only-comments": "# nothing\n\n",
    "empty": "",
    "count-only": "4\n",
    "one-vertex-line-short": WITH_VERTICES.rsplit("\n", 2)[0] + "\n",
    "vertex-line-extra": WITH_VERTICES + "5 1 1\n",
    "count-overstated": "1000000000000\n1 2 1\n2 3 1\n",
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("key", list(TEXTS))
def test_streamed_text_equals_text(key, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", chunk)
    _assert_streamed_equals_text(_write(tmp_path, TEXTS[key]), TEXTS[key])


@pytest.mark.parametrize("chunk", (1, 3, 64, tree_module._IO_CHARS))
@pytest.mark.parametrize("text,want", PARSE_PINS,
                         ids=[f"case{k}" for k in range(len(PARSE_PINS))])
def test_streamed_parse_pins(text, want, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", chunk)
    path = _write(tmp_path, text)
    _assert_streamed_equals_text(path, text)
    if isinstance(want, str):
        assert _outcome(lambda: _load_tree(str(path))) == ("error", "TreeParseError", want)


def test_streamed_late_fault_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", 997)
    lines = render_tree(gen_random_tree(GenSpec(5000, 3))).splitlines()
    lines[7000] = lines[7000].rsplit(" ", 1)[0] + " nan"
    text = "\r\n".join(lines) + "\r\n"
    assert _outcome(lambda: _load_tree(str(_write(tmp_path, text)))) == (
        "error", "TreeParseError",
        "line 7001: weight and service must be finite and non-negative")


class _ReadRecorder:
    """An open file that records the size of each read."""

    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def read(self, size=-1):
        self._sizes.append(size)
        return self._fh.read(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _record_reads(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: _ReadRecorder(open(*a, **k), sizes),
                        raising=False)
    return sizes


@pytest.mark.parametrize("chunk", (100, tree_module._IO_CHARS))
def test_valid_file_is_read_in_chunks(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", chunk)
    text = render_tree(gen_random_tree(GenSpec(6000, 11, weight_mode="uniform")))
    path = _write(tmp_path, text)
    sizes = _record_reads(monkeypatch)
    tree = _load_tree(str(path))
    assert tree.n == 6000
    assert len(sizes) >= 2
    assert all(s is not None and 0 < s <= chunk for s in sizes)


def test_faulty_file_is_read_again_whole(tmp_path, monkeypatch):
    monkeypatch.setattr(tree_module, "_IO_CHARS", 100)
    path = _write(tmp_path, render_tree(gen_random_tree(GenSpec(600, 11))) + "7 7 7\n")
    sizes = _record_reads(monkeypatch)
    with pytest.raises(ValueError, match="expected 600 vertex lines or none, found 601"):
        _load_tree(str(path))
    assert sizes[-1] == -1 and all(0 < s <= 100 for s in sizes[:-1])


def test_non_utf8_byte_gives_its_file_position(tmp_path, capsys):
    data = bytearray(render_tree(gen_random_tree(GenSpec(12000, 5))).encode())
    at = 250_000
    assert len(data) > at > tree_module._IO_CHARS
    data[at] = 0xFF
    path = tmp_path / "bad.tree"
    path.write_bytes(bytes(data))
    assert run(["solve-maxian", "--lambda", "0.5", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position "
                   "250000: invalid start byte\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("text", [(FIXTURES / "t6b.tree").read_text(encoding="utf-8"),
                                  "3\n1 2 1\n2 3 x\n", "\ufeff3\n1 2 1\n2 3 1\n",
                                  "3\n1 2 1\n2 3 1\n3 1 1\n"],
                         ids=["t6b", "bad-token", "bom", "one-vertex-line"])
def test_piped_stdin_matches_the_file(text, tmp_path):
    argv = ["solve-maxian", "--lambda", "0.5", "--input"]
    from_file = _run_child(argv + [str(_write(tmp_path, text))])
    piped = _run_child(argv + ["/dev/stdin"], stdin=text)
    assert (piped.returncode, piped.stdout, piped.stderr) == \
        (from_file.returncode, from_file.stdout, from_file.stderr)


@pytest.mark.parametrize("mode", ["fixed", "uniform"])
@pytest.mark.parametrize("n", [1, 2, 4097, 10000])
def test_gen_writes_render_tree(n, mode, tmp_path, capsys):
    want = render_tree(gen_random_tree(GenSpec(n, 5, weight_mode=mode, service_mode=mode)))
    argv = ["gen", "--n", str(n), "--seed", "5", "--weights", mode, "--services", mode]
    assert run(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "out.tree"
    assert run(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == want.encode()
