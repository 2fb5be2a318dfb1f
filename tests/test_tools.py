"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: 5, 8 and 10-14; a string that opens no body is code.
FIXTURE = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    return os.path.join(
        x,
        """not a
docstring""",
    )
'''


def test_counts_lines_spanned_by_code_tokens(tmp_path, capsys):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.code_lines(FIXTURE.encode()) == 7
    assert code_lines.main([str(module.parent)]) == 0
    assert capsys.readouterr().out == f"     7  {module}\n     7  total\n"
