"""The documented public API surface must exist and stay importable.

Two rules keep the surface from growing back:

- the top-level ``repro`` exports the paper's §3 programmer surface,
  pinned below as a literal set;
- a subpackage's ``__all__`` keeps a name only while some tracked
  ``.py`` file outside that subpackage imports it through the
  subpackage.  Every other name is imported from its defining module.
"""

import ast
import functools
import importlib
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
SUBPACKAGES = sorted(
    path.parent.name for path in PACKAGE.glob("*/__init__.py"))

#: What the paper's programmer writes (§3): batches, futures and
#: cursors, the exception policies, the RMI client and server, and the
#: networks they talk over.  Widening it is a deliberate edit here.
TOP_LEVEL = {
    "create_batch", "BRMI", "BatchProxy", "Future", "CursorProxy",
    "FutureNotReadyError", "BatchError", "BatchAbortedError",
    "AbortPolicy", "ContinuePolicy", "CustomPolicy", "ExceptionAction",
    "RMIClient", "RMIServer", "RemoteInterface", "RemoteObject",
    "RemoteError", "ServerBusyError",
    "SimNetwork", "TcpNetwork", "AioNetwork", "LAN", "WIRELESS",
    "LOCALHOST",
}


@functools.cache
def tracked_sources():
    """``{path: source}`` of every tracked ``.py`` file (every ``.py``
    file under the source, test, benchmark and example trees when the
    checkout is not a git work tree)."""
    try:
        paths = subprocess.run(
            ["git", "ls-files", "*.py"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        paths = []
    if not paths:
        paths = [path.relative_to(REPO).as_posix()
                 for top in ("src", "tests", "benchmarks", "examples")
                 for path in (REPO / top).rglob("*.py")]
    return {path: (REPO / path).read_text() for path in paths
            if (REPO / path).is_file()}


def imports_through(path, source):
    """``(module, name)`` of every ``from module import name`` in
    *source*, wherever it sits; relative imports resolve against
    *path*'s place under ``src/``."""
    parts = pathlib.PurePosixPath(path).with_suffix("").parts
    package = list(parts[1:-1]) if parts[0] == "src" else []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[:len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            for alias in node.names:
                yield module, alias.name


def unused_exports(alls, sources):
    """``"<subpackage>.<name>"`` for every name in a subpackage's
    ``__all__`` (*alls* maps ``repro.<sub>`` to it) that no file of
    *sources* outside that subpackage imports through it."""
    used = set()
    for path, source in sources.items():
        for module, name in imports_through(path, source):
            inside = "src/" + module.replace(".", "/") + "/"
            if module in alls and not path.startswith(inside):
                used.add((module, name))
    return [f"{module}.{name}" for module, names in sorted(alls.items())
            for name in names if (module, name) not in used]


def subpackage_alls():
    return {f"repro.{sub}": importlib.import_module(f"repro.{sub}").__all__
            for sub in SUBPACKAGES}


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_top_level_is_the_pinned_programmer_surface(self):
        assert len(repro.__all__) == len(set(repro.__all__))
        assert set(repro.__all__) == TOP_LEVEL

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module", [f"repro.{sub}" for sub in SUBPACKAGES])
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert isinstance(getattr(mod, "__all__", None), list), (
            f"{module} must declare __all__")
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"{module}.{name}"

    def test_every_subpackage_is_checked(self):
        assert SUBPACKAGES == [
            "aio", "apps", "baselines", "bench", "cluster", "core", "fuzz",
            "model", "net", "obs", "plan", "rmi", "wire"]

    def test_readme_quickstart_names(self):
        """Names used in README snippets are top-level exports."""
        for name in (
            "SimNetwork", "TcpNetwork", "LAN", "WIRELESS", "RMIServer",
            "RMIClient", "RemoteInterface", "RemoteObject", "create_batch",
            "CustomPolicy", "ExceptionAction", "ContinuePolicy",
        ):
            assert name in repro.__all__

    def test_docstrings_on_public_callables(self):
        """Every public callable at top level carries a docstring."""
        import inspect

        missing = []
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not inspect.getdoc(member):
                    missing.append(name)
        assert not missing, f"missing docstrings: {missing}"


class TestSubpackageExports:
    def test_every_export_is_imported_through_its_subpackage(self):
        assert unused_exports(subpackage_alls(), tracked_sources()) == []

    def test_an_extra_unused_name_fails_the_rule(self):
        alls = subpackage_alls()
        alls["repro.net"] = [*alls["repro.net"], "TrafficStats"]
        assert unused_exports(alls, tracked_sources()) == [
            "repro.net.TrafficStats"]

    def test_only_an_import_from_outside_the_subpackage_counts(self):
        alls = {"repro.net": ["TrafficStats"]}
        inside = {"src/repro/net/sim.py":
                  "from repro.net import TrafficStats\n"}
        assert unused_exports(alls, inside) == ["repro.net.TrafficStats"]
        for path, source in (
            ("tests/test_x.py", "from repro.net import TrafficStats\n"),
            ("src/repro/core/x.py",
             "def f():\n    from ..net import TrafficStats\n"),
        ):
            assert unused_exports(alls, {**inside, path: source}) == []

    def test_an_import_from_the_defining_module_does_not_count(self):
        alls = {"repro.net": ["TrafficStats"]}
        sources = {"tests/test_x.py":
                   "from repro.net.stats import TrafficStats\n"}
        assert unused_exports(alls, sources) == ["repro.net.TrafficStats"]


def readme_block():
    """README's "Thirty seconds of API" snippet."""
    readme = (REPO / "README.md").read_text()
    return re.search(r"## Thirty seconds of API\n\n```python\n(.*?)```",
                     readme, re.S).group(1)


class TestReadme:
    def test_thirty_seconds_of_api_runs(self):
        result = subprocess.run(
            [sys.executable, "-c", readme_block()], cwd=REPO,
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert result.returncode == 0, result.stderr
        assert result.stdout == "file03.dat 10000\n"

    def test_package_docstring_quickstart_is_readmes(self):
        quickstart = repro.__doc__.split("::\n\n")[1].split("\n\nHot")[0]
        assert textwrap.dedent(quickstart) + "\n" == readme_block()
