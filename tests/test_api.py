"""The public API: every exported name resolves, and the README's
"Python API" section names nothing that is not exported."""

import os
import re

import goppacrypt

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
