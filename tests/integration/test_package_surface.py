"""The lazily loaded package surfaces of ``repro.search`` and
``repro.serve``, and the ``serve`` arguments both entry points share."""

import importlib
import re

import pytest

from repro.cli import build_parser
from repro.serve.server import main as serve_main

PACKAGES = ["repro.search", "repro.serve"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_submodule_attribute(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(module._EXPORTS)
    for name in module.__all__:
        source = importlib.import_module(
            f"{package}.{module._EXPORTS[name]}")
        assert getattr(module, name) is getattr(source, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def _help_options(run, capsys):
    with pytest.raises(SystemExit) as done:
        run()
    assert done.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                          capsys.readouterr().out))


def test_amped_serve_and_module_share_their_options(capsys):
    amped = _help_options(
        lambda: build_parser().parse_args(["serve", "--help"]), capsys)
    module = _help_options(lambda: serve_main(["--help"]), capsys)
    assert "--queue-limit" in module and "--no-prewarm" in module
    # ``amped`` adds its observability flags to every subcommand.
    assert amped - {"--trace", "--metrics"} == module
