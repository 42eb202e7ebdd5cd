"""The public API: every exported name resolves, the README's "Python
API" section names nothing that is not exported and its example runs,
and the package imports nothing outside the standard library."""

import ast
import glob
import os
import re
import subprocess
import sys

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
    assert {"keygen", "build_code", "sphere_oracle", "SeededStream"} <= names
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


def test_cli_start_up_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize on every start-up
    src = os.path.dirname(os.path.dirname(goppacrypt.__file__))
    probe = "import sys, goppacrypt.cli; print(sorted(" \
            "{'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
