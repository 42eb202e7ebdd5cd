"""The public API: every exported name resolves to its module's object,
the README's "Python API" section names nothing that is not exported and
its example runs, the package imports nothing outside the standard
library, holds no routine that only the tests use, and a cold command
loads only the modules it runs."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import goppacrypt

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "goppacrypt")


def readme_api_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Python API", 1)[1].split("\n#", 1)[0]
    names = set(re.findall(r"from goppacrypt import ([\w, ]+)", section)[0]
                .replace(" ", "").split(","))
    paragraph = section[section.index("Lower layers"):].split("\n\n")[0]
    names |= set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    return names


def test_all_names_resolve():
    for name in goppacrypt.__all__:
        assert hasattr(goppacrypt, name), name


def test_readme_api_names_are_exported():
    names = readme_api_names()
    assert {"keygen", "build_code", "list_decode", "SeededStream"} <= names
    assert names <= set(goppacrypt.__all__)


def test_readme_api_example_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Python API", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1 and "decrypt" in blocks[0]
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert "ct" in namespace  # the example ran to its end


def test_package_imports_only_the_standard_library():
    files = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(files) >= 11
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path, name)


def unused_definitions(package):
    """What the package at directory package defines and never uses.

    Rule 1: each module-level function or class, and each method, that
    nothing names outside its own definition and that is not exported:
    a function or class as a name, an attribute or a string, a method as
    an attribute or a string.  Rule 2: each export that no module but
    __init__.py names outside its own definition.  Dunders are left out:
    the interpreter calls them.
    """
    refs, defs = [], []  # (module, name, is a bare name, line)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.id, True, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, False, node.lineno))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                refs.append((module, node.value, False, node.lineno))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node, True)]
            if isinstance(node, ast.ClassDef):
                members += [(node.name + "." + item.name, item, False)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            defs += [(label, item.name, by_name,
                      (module, item.lineno, item.end_lineno))
                     for label, item, by_name in members
                     if not item.name.startswith("__")]

    def used(name, by_name, span, modules):
        home, first, last = span
        return any(ref == name and (by_name or not bare) and mod in modules
                   and not (mod == home and first <= line <= last)
                   for mod, ref, bare, line in refs)
    modules = {ref[0] for ref in refs}
    exported = set(goppacrypt.__all__) - {"__version__"}
    dead = {label for label, name, by_name, span in defs
            if label not in exported
            and not used(name, by_name, span, modules)}
    spans = {label: span for label, _, _, span in defs}
    unused = {name for name in exported
              if not used(name, True, spans.get(name, (None, 0, 0)),
                          modules - {"__init__.py"})}
    return dead, unused


def test_package_holds_no_unused_routine():
    assert unused_definitions(PACKAGE) == (set(), set())


def test_cli_start_up_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize on every start-up
    src = os.path.dirname(os.path.dirname(goppacrypt.__file__))
    probe = "import sys, goppacrypt.cli; print(sorted(" \
            "{'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_exports_are_their_modules_objects(monkeypatch):
    for name in goppacrypt.__all__:
        if name == "__version__":
            continue
        obj = getattr(goppacrypt, name)
        assert obj.__module__.startswith("goppacrypt."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from goppacrypt import *", namespace)
    assert set(goppacrypt.__all__) <= set(namespace)
    assert set(goppacrypt.__all__) <= set(dir(goppacrypt))
    with pytest.raises(AttributeError):
        goppacrypt.no_such_name
    # nothing is cached in the package, so a patch shows through it
    patched = lambda n, k, w: 0.0  # noqa: E731
    monkeypatch.setattr(goppacrypt.security, "fs_workfactor", patched)
    assert goppacrypt.fs_workfactor is patched


def _run_fresh(args):
    src = os.path.dirname(os.path.dirname(goppacrypt.__file__))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error"] + args,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_cold_commands_load_only_what_they_run():
    probe = "\n".join((
        "import contextlib, io, json, sys",
        "from goppacrypt import cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] == 'goppacrypt')",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    cli.main(['bounds', '300', '3'])",
        "    bounded = loaded()",
        "    cli.main(['search', '128', '--variant', 'dyadic', '--decoder',",
        "              'ld', '--countermeasure', 'cm1'])",
        "    searched = loaded()",
        "    cli.main(['table', '1'])",
        "    tabled = loaded()",
        "import goppacrypt",
        "print(json.dumps([bounded, searched, tabled,",
        "                  goppacrypt.gf2m.__name__]))",
    ))
    out = _run_fresh(["-c", probe])
    assert out.returncode == 0 and out.stderr == "", out.stderr
    bounded, searched, tabled, gf2m = json.loads(out.stdout)
    assert bounded == searched == [
        "goppacrypt", "goppacrypt.cli", "goppacrypt.security"]
    assert tabled == searched + ["goppacrypt.tables"]
    assert gf2m == "goppacrypt.gf2m"  # a layer still loads on first use


def test_cli_module_runs_without_warnings():
    out = _run_fresh(["-m", "goppacrypt.cli", "table", "4"])
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.startswith("level,dlp,mceliece,ratio\n")


def test_each_test_runs_under_a_time_limit():
    # tests/conftest.py arms SIGALRM's timer around every test, so a
    # runaway loop fails its own test instead of the whole run
    import signal
    if not hasattr(signal, "setitimer"):
        pytest.skip("no SIGALRM timer on this platform")
    from conftest import TIME_LIMIT_S
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TIME_LIMIT_S
