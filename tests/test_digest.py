"""The exit contract of ``python -m benchmarks.digest``: ``compare`` exits 1
on a moved surface that is not listed with a reason and on a listed surface
that did not move, 2 on an empty digest file; a surface that raises is
digested, not fatal."""

from __future__ import annotations

import sys

import pytest

from benchmarks import digest


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    base = _write(tmp_path / "base.txt", "a 1111\nb 2222\n")
    head = _write(tmp_path / "head.txt", "a 1111\nb 3333\n")
    return tmp_path, base, head


def test_compare_passes_when_nothing_moved_and_nothing_is_listed(files, capsys):
    tmp, base, _ = files
    assert digest.compare(base, base, _write(tmp / "moved.txt", "")) == 0
    assert "0 moved" in capsys.readouterr().out


def test_compare_fails_on_a_moved_surface_that_is_not_listed(files, capsys):
    tmp, base, head = files
    moved = _write(tmp / "moved.txt", "# comment\n\n")
    assert digest.compare(base, head, moved) == 1
    assert "moved b 2222 -> 3333 (NOT LISTED)" in capsys.readouterr().out


def test_compare_fails_on_a_listing_without_a_reason(files):
    tmp, base, head = files
    assert digest.compare(base, head, _write(tmp / "moved.txt", "b\n")) == 1


def test_compare_passes_when_every_moved_surface_is_listed(files, capsys):
    tmp, base, head = files
    moved = _write(tmp / "moved.txt", "b the new rule rounds once\n")
    assert digest.compare(base, head, moved) == 0
    assert "(listed: the new rule rounds once)" in capsys.readouterr().out


def test_compare_fails_on_a_listed_surface_that_did_not_move(files, capsys):
    tmp, base, head = files
    moved = _write(tmp / "moved.txt", "b the new rule rounds once\na an old reason\n")
    assert digest.compare(base, head, moved) == 1
    assert "stale a:" in capsys.readouterr().out


def test_compare_counts_a_surface_only_one_file_has_as_moved(files):
    tmp, base, _ = files
    head = _write(tmp / "head.txt", "a 1111\nb 2222\nc 4444\n")
    assert digest.compare(base, head, _write(tmp / "moved.txt", "")) == 1
    assert digest.compare(base, head, _write(tmp / "moved.txt", "c new surface\n")) == 0


@pytest.mark.parametrize("empty", ("base", "head"))
def test_compare_exits_2_on_an_empty_digest_file(files, empty):
    tmp, base, head = files
    blank = _write(tmp / "blank.txt", "\n")
    args = (blank, head) if empty == "base" else (base, blank)
    assert digest.compare(*args, _write(tmp / "moved.txt", "")) == 2


def test_moved_file_is_required():
    with pytest.raises(SystemExit) as exc:
        digest.main(["compare", "base.txt", "head.txt"])
    assert exc.value.code == 2


def test_a_surface_that_raises_is_digested_by_its_error(tmp_path, monkeypatch, capsys):
    def in_src():
        raise RuntimeError(f"cannot import from {tmp_path}/repro/core.py")

    def surfaces():
        yield "ok", lambda: 1.5
        yield "missing", lambda: __import__(f"no_such_module_{tmp_path.name}")
        yield "in-src", in_src
        yield "after", lambda: [2]

    monkeypatch.setattr(digest, "surfaces", surfaces)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert digest.run(tmp_path) == 0
    captured = capsys.readouterr()
    lines = dict(line.split() for line in captured.out.splitlines())
    assert lines["ok"] == digest.digest(1.5)
    assert lines["after"] == digest.digest([2])
    error = ["error", "ModuleNotFoundError", f"No module named 'no_such_module_{tmp_path.name}'"]
    assert lines["missing"] == digest.digest(error)
    # The checkout's path is not part of the answer.
    error = ["error", "RuntimeError", "cannot import from src/repro/core.py"]
    assert lines["in-src"] == digest.digest(error)
    assert "missing raised ModuleNotFoundError" in captured.err
