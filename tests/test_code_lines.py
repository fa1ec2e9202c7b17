"""``tools/code_lines.py`` counts the lines that hold code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring
over two lines."""

# a comment
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        text = """a multi-line
string that is not a docstring"""
        return (text,
                X)
'''


def test_blank_comment_and_docstring_lines_do_not_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # X = 1, class A:, def f, the two string lines, the two return lines
    assert _tool().code_lines(path) == 7


def test_every_package_module_is_counted(capsys):
    tool = _tool()
    assert tool.main() == 0
    rows = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "qprep").glob("*.py"))
    assert [row.split()[1] for row in rows] == modules + ["total"]
    counts = [int(row.split()[0]) for row in rows]
    assert counts[-1] == sum(counts[:-1]) > 0
