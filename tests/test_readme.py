"""README's Library snippet runs, and prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet():
    """The first fenced python block under README's "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_its_comments():
    snippet = library_snippet()
    # each print's trailing comment gives what it prints, optionally followed
    # by a comma and a note, as in "# 21, in input weight x input cost units"
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", snippet, re.M)
    assert len(expected) == snippet.count("print(") >= 5
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert comment == line or comment.startswith(line + ", "), (line, comment)
