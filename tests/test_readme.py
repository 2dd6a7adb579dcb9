"""The README's examples against the package, so that an API change cannot
leave them stale."""

import re
from pathlib import Path

from allsat import render_dimacs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(ex31, tmp_path, monkeypatch, capsys):
    """The ``python`` block of the Library section runs as written on the
    22-model worked formula, saved as the ``instance.cnf`` it reads."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    (tmp_path / "instance.cnf").write_text(render_dimacs(ex31))
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    # the nonblocking run prints one cube per model
    assert len(capsys.readouterr().out.splitlines()) == 22
