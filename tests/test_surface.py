"""The library surface stays reachable.

Every public top-level function or class of ``src/qprep`` and ``bench``
must be named (as an ``ast.Name`` or ``ast.Attribute``) somewhere in those
files outside its own definition, and every public method or property of
such a class as an ``ast.Attribute`` (``x.name``; a local variable of the
same name does not count).  A name that only tests reach is dead weight:
delete it, or move it to ``tests/oracles.py`` if a test compares against
it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/qprep/*.py"), *ROOT.glob("bench/*.py")])

# Public names that nothing outside the tests reaches, each with its reason.
UNREACHED_ON_PURPOSE = set()


def _is_pytest_test(path, node):
    return path.name.startswith("test_") and node.name.startswith("test_")


def public_definitions_and_uses():
    """({name: [(path, first line, last line)]}, {name: [(path, line)]})."""
    defined, used = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and not _is_pytest_test(path, node)):
                defined.setdefault(node.name, []).append(
                    (path, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((path, node.lineno))
    return defined, used


def public_methods_and_attribute_uses():
    """({name: [(path, first line, last line)]}, {name: [(path, line)]})
    of the public methods and properties of public top-level classes, and
    of every ``x.name`` attribute."""
    defined, used = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    defined.setdefault(node.name, []).append(
                        (path, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((path, node.lineno))
    return defined, used


def _named_outside(spans, uses):
    return any(not any(path == d_path and lo <= line <= hi
                       for d_path, lo, hi in spans)
               for path, line in uses)


def test_every_public_name_is_reached():
    defined, used = public_definitions_and_uses()
    unreached = sorted(
        "%s (%s:%d)" % (name, spans[0][0].relative_to(ROOT), spans[0][1])
        for name, spans in defined.items()
        if name not in UNREACHED_ON_PURPOSE
        and not _named_outside(spans, used.get(name, [])))
    assert not unreached, (
        "public names that no command, check or bench file reaches: "
        + ", ".join(unreached))
    methods, attributes = public_methods_and_attribute_uses()
    assert methods
    unreached = sorted(
        "%s (%s:%d)" % (name, spans[0][0].relative_to(ROOT), spans[0][1])
        for name, spans in methods.items()
        if not _named_outside(spans, attributes.get(name, [])))
    assert not unreached, (
        "public methods that no command, check or bench file reaches: "
        + ", ".join(unreached))


def test_exceptions_are_still_defined_and_unreached():
    defined, used = public_definitions_and_uses()
    for name in UNREACHED_ON_PURPOSE:
        assert name in defined, f"{name} is gone; drop its exception"
        assert not _named_outside(defined[name], used.get(name, [])), (
            f"{name} is reached now; drop its exception")


# Defaulted parameters that no call supplies, each with its reason.
UNSET_ON_PURPOSE = set()


def _settable_parameters(path, tree):
    """(module, function, parameter, index, span) for every defaulted or
    keyword-only parameter; ``index`` is the call position that supplies a
    positional parameter (``self``/``cls`` not counted), None for a
    keyword-only one.  ``__init__`` is listed under its class's name."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                skip = int(in_class is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list))
                first_default = len(positional) - len(args.defaults)
                name = (in_class if child.name == "__init__" and in_class
                        else child.name)
                span = (path, child.lineno, child.end_lineno)
                for i, arg in enumerate(positional):
                    if i >= first_default:
                        out.append((path.stem, name, arg.arg, i - skip, span))
                for arg in args.kwonlyargs:
                    out.append((path.stem, name, arg.arg, None, span))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, in_class)

    visit(tree, None)
    return out


def settable_parameters_and_calls():
    """([(module, function, parameter, index, span)], {name: [call info]})
    where call info is (path, line, positional count or None when a
    ``*args`` makes it open, keyword names or None for ``**kwargs``)."""
    params, calls = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent.name == "qprep":
            params.extend(_settable_parameters(path, tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name is None:
                continue
            n_pos = (None if any(isinstance(a, ast.Starred)
                                 for a in node.args) else len(node.args))
            kws = (None if any(k.arg is None for k in node.keywords)
                   else {k.arg for k in node.keywords})
            calls.setdefault(name, []).append(
                (path, node.lineno, n_pos, kws))
    return params, calls


def _supplied(param, calls):
    _, function, name, index, (d_path, lo, hi) = param
    for path, line, n_pos, kws in calls.get(function, []):
        if path == d_path and lo <= line <= hi:
            continue
        if kws is None or name in kws:
            return True
        if index is not None and (n_pos is None or n_pos > index):
            return True
    return False


def test_every_defaulted_parameter_is_set():
    params, calls = settable_parameters_and_calls()
    unset = sorted(
        "%s.%s(%s=) (%s:%d)" % (module, function, name,
                                span[0].relative_to(ROOT), span[1])
        for module, function, name, index, span in params
        if (module, function, name) not in UNSET_ON_PURPOSE
        and not _supplied((module, function, name, index, span), calls))
    assert not unset, (
        "defaulted parameters that no command, check or bench file sets: "
        + ", ".join(unset))


def test_unset_parameter_exceptions_still_hold():
    params, calls = settable_parameters_and_calls()
    by_key = {(m, f, n): (m, f, n, i, s) for m, f, n, i, s in params}
    for key in UNSET_ON_PURPOSE:
        assert key in by_key, f"{key} is gone; drop its exception"
        assert not _supplied(by_key[key], calls), (
            f"{key} is set now; drop its exception")


def main_blocks(source):
    """Lines of ``source`` that open an ``if __name__ == "__main__":``
    block at module level."""
    def is_main(test):
        return (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "__name__"
                and any(isinstance(c, ast.Constant) and c.value == "__main__"
                        for c in test.comparators))

    return [node.lineno for node in ast.parse(source).body
            if isinstance(node, ast.If) and is_main(node.test)]


def test_only_the_cli_has_a_main_block():
    # ``qprep`` (cli.main) is the one way to run a command or the checks
    assert main_blocks("import sys\n"
                       "if __name__ == '__main__':\n"
                       "    sys.exit(0)\n"
                       "if __name__ == 'qprep':\n"
                       "    pass\n") == [2]
    found = sorted(path.name
                   for path in (ROOT / "src" / "qprep").glob("*.py")
                   if main_blocks(path.read_text(encoding="utf-8")))
    assert found == ["cli.py"]


def float_ceilings(source):
    """Lines of ``source`` that take the ceiling of an expression holding a
    log2(...) or sqrt(...), of ``math`` or NumPy, such as ceil(log2(n)) or
    ceil(7 * L * sqrt(d)), whose float results are wrong from 2^52 up."""
    def name(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if name(node) == "ceil" and any(
                      name(inner) in ("log2", "sqrt")
                      for arg in node.args for inner in ast.walk(arg)))


def test_ceilings_of_logs_and_roots_are_integer_ones():
    # ceil(log2 n) is (n - 1).bit_length() and ceil(a * sqrt n) is
    # isqrt(a^2 * n - 1) + 1 throughout the package
    assert float_ceilings("a = math.ceil(math.log2(n))\n"
                          "b = int(np.ceil(np.sqrt(x)))\n"
                          "c = ceil(sqrt(y))\n"
                          "d = math.ceil(2 * math.sqrt(32 * L) * s)\n"
                          "e = math.ceil(math.log(n))\n"
                          "f = math.sqrt(math.ceil(n))\n") == [1, 2, 3, 4]
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in sorted((ROOT / "src" / "qprep").glob("*.py"))
             for line in float_ceilings(path.read_text(encoding="utf-8"))]
    assert not found, "float ceilings of log2 or sqrt: " + ", ".join(found)


def test_side_branch_modules_import_without_scipy():
    # loading every module, commands that need none of it included, pulls
    # in no scipy module
    modules = sorted(p.stem for p in (ROOT / "src" / "qprep").glob("*.py")
                     if p.stem != "__init__")
    assert {"cli", "gf2", "refine", "acceptance"} <= set(modules)
    code = ("import sys, importlib\n"
            "for name in %r: importlib.import_module('qprep.' + name)\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))" % modules)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def scipy_imports(source):
    """Lines of ``source`` that import scipy or one of its modules, at any
    depth: at module level or inside a function, class or branch."""
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if any(m.split(".")[0] == "scipy" for m in modules(node)))


def test_no_module_imports_scipy():
    # the package runs on NumPy and the standard library; scipy is a test
    # dependency only
    assert scipy_imports("import scipy\n"
                         "def f():\n"
                         "    from scipy.special import ndtr\n"
                         "if x:\n"
                         "    import numpy, scipy.stats as st\n"
                         "from . import scipy\n"
                         "import scipyx\n"
                         "from numpy import scipy\n") == [1, 3, 5]
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in sorted((ROOT / "src" / "qprep").glob("*.py"))
             for line in scipy_imports(path.read_text(encoding="utf-8"))]
    assert not found, "scipy imports: " + ", ".join(found)


def test_gaussian_commands_and_reproduce_load_no_scipy(tmp_path):
    # one process runs every module: the Gaussian measure, the QETU window
    # (case study and --levels) and every reproduction check
    levels = tmp_path / "levels.csv"
    levels.write_text("0.1,0.5\n0.4,0.3\n0.8,0.2\n")
    commands = [["qpe-stats", "--gaussian", "0.06", "0.02", "--k", "8"],
                ["refine", "case-study"],
                ["refine", "qetu", "--levels", str(levels), "--el", "0.0",
                 "--eu", "0.3", "--degree", "40"],
                ["reproduce", "--out", str(tmp_path / "checks.txt")]]
    code = ("import sys\n"
            "from qprep import cli\n"
            "codes = [cli.dispatch(argv) for argv in %r]\n"
            "print(codes, sorted(m for m in sys.modules "
            "if m.startswith('qprep.')))\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))" % commands)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    modules = sorted("qprep." + p.stem
                     for p in (ROOT / "src" / "qprep").glob("*.py")
                     if p.stem != "__init__")
    assert out.stdout.splitlines()[-2:] == [
        "%r %r" % ([0] * len(commands), modules), "[]"]
