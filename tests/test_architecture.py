"""The package's architecture as tier-1 rows.

The layer order: a package imports only packages below it, counting
imports at module level and inside function bodies alike.

    wire  <  net, obs  <  rmi, model  <  core  <  plan  <  cluster  <  aio

Packages on one rung are peers and do not import each other.  ``model``
(the analytic cost model) prices ``net``'s cost conditions and ``core``
explains batches with it, so it sits beside ``rmi``.  The packages outside the order (``apps``, ``baselines``,
``bench``, ``fuzz``) are applications of the stack: they may import any
layer, and no layer may import them or the top-level ``repro``.

Every edge that still breaks the order is listed in
:data:`LAYER_EXCEPTIONS` by file and line, with the reason it remains;
an entry that no longer matches an import fails too, so the list only
shrinks.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

from repro.core.policies import AbortPolicy
from repro.core.recording import NONE_ID, ROOT_SEQ, ArgRef, InvocationData
from repro.plan.model import compile_plan, plan_hash
from repro.rmi.exceptions import MarshalError, PlanInvalidatedError
from repro.rmi.protocol import (
    INSTALL_PLAN,
    INVOKE_BATCH,
    INVOKE_PLAN,
    REGISTRY_OBJECT_ID,
    CallRequest,
)
from repro.wire import decode, encode

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

#: Rung of each layer package; a package imports only lower rungs.
LAYER_RANK = {
    "wire": 0,
    "net": 1, "obs": 1,
    "rmi": 2, "model": 2,
    "core": 3,
    "plan": 4,
    "cluster": 5,
    "aio": 6,
}

#: ``"<path under src/repro>:<line>"`` -> why the upward edge remains.
LAYER_EXCEPTIONS = {
    "net/faults.py:49": (
        "net -> obs: the fault injector marks each injected fault as a "
        "trace event"),
    "obs/live.py:40": (
        "obs -> net: the admin plane serves over net.tcp; taking its "
        "transport as an argument would remove this"),
    "obs/live.py:41": "obs -> net: as above, for the Channel type",
    "core/proxy.py:510": (
        "core -> plan: create_batch(reuse_plans=True) builds the plan "
        "layer's recorder, and benchmarks/e2e/run.py pins that keyword"),
    "rmi/client.py:122": (
        "rmi -> plan: RMIClient.plan_memo builds the plan layer's memo, "
        "and benchmarks/e2e/run.py reads client.plan_memo"),
}


def _imported_modules(tree: ast.AST, module: str):
    """``(line, absolute module name)`` of every import in *tree*,
    wherever it sits; *module* is the importing module's dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:
                base = module.split(".")[:-node.level]
                name = ".".join(base + ([name] if name else []))
            yield node.lineno, name


def layer_violations(path: str, source: str):
    """``"<path>:<line>"`` of every import in *source* that breaks the
    layer order, *path* being the file's place under ``src/repro``."""
    parts = pathlib.PurePosixPath(path).with_suffix("").parts
    package = parts[0] if len(parts) > 1 else None
    if package not in LAYER_RANK:
        return []
    module = ".".join(("repro",) + parts)
    hits = []
    for line, name in _imported_modules(ast.parse(source), module):
        names = name.split(".")
        if names[0] != "repro":
            continue
        target = names[1] if len(names) > 1 else None
        if target == package:
            continue
        if LAYER_RANK.get(target, len(LAYER_RANK)) >= LAYER_RANK[package]:
            hits.append(f"{path}:{line}")
    return hits


def _all_violations():
    hits = []
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        hits.extend(layer_violations(path, file.read_text()))
    return hits


class TestLayerOrder:
    def test_no_import_breaks_the_order_unlisted(self):
        hits = _all_violations()
        unlisted = [hit for hit in hits if hit not in LAYER_EXCEPTIONS]
        assert unlisted == [], "imports against the layer order"
        stale = sorted(set(LAYER_EXCEPTIONS) - set(hits))
        assert stale == [], "listed exceptions no longer match an import"

    def test_rmi_knows_nothing_of_batching(self):
        hits = [hit for hit in _all_violations() if hit.startswith("rmi/")]
        assert hits == ["rmi/client.py:122"]

    def test_wire_imports_no_layer_above(self):
        assert [hit for hit in _all_violations()
                if hit.startswith("wire/")] == []

    def test_upward_import_in_a_function_body_is_a_hit(self):
        source = ("def serve():\n"
                  "    from repro.core.executor import BatchExecutor\n")
        assert layer_violations("rmi/synthetic.py", source) == [
            "rmi/synthetic.py:2"]

    def test_upward_import_at_module_level_is_a_hit(self):
        source = "import os\nimport repro.plan.cache as cache\n"
        assert layer_violations("core/synthetic.py", source) == [
            "core/synthetic.py:2"]

    def test_peer_application_and_top_level_imports_are_hits(self):
        source = ("from repro.obs.tracer import current_tracer\n"
                  "from repro.fuzz import run_corpus\n"
                  "from repro import create_batch\n")
        assert layer_violations("net/synthetic.py", source) == [
            "net/synthetic.py:1", "net/synthetic.py:2",
            "net/synthetic.py:3"]

    def test_relative_upward_import_is_a_hit(self):
        source = "from ..plan import runtime\nfrom . import marshal\n"
        assert layer_violations("rmi/synthetic.py", source) == [
            "rmi/synthetic.py:1"]

    def test_downward_and_outside_imports_are_not_hits(self):
        source = ("import threading\n"
                  "from repro.rmi.dispatch import RMICore\n"
                  "from repro.wire import encode\n"
                  "from repro.core import create_batch\n")
        assert layer_violations("plan/synthetic.py", source) == []
        assert layer_violations("fuzz/synthetic.py",
                                "from repro.aio import AioNetwork\n") == []


def shared_exports(alls):
    """``{name: [subpackage, ...]}`` of every name that more than one
    subpackage's ``__all__`` exports (*alls* maps a subpackage to its
    ``__all__``).  The top-level ``repro`` is not a subpackage."""
    owners = {}
    for package, names in sorted(alls.items()):
        for name in names:
            owners.setdefault(name, []).append(package)
    return {name: packages for name, packages in owners.items()
            if len(packages) > 1}


class TestOneNameOneSubpackage:
    def test_no_name_is_exported_by_two_subpackages(self):
        alls = {path.parent.name: importlib.import_module(
                    f"repro.{path.parent.name}").__all__
                for path in PACKAGE.glob("*/__init__.py")}
        assert len(alls) == 13
        assert shared_exports(alls) == {}

    def test_a_name_in_two_subpackages_is_a_hit(self):
        alls = {"plan": ["BatchPlan", "ParamSlot"],
                "wire": ["ParamSlot", "encode"], "core": ["create_batch"]}
        assert shared_exports(alls) == {"ParamSlot": ["plan", "wire"]}


#: Serves requests (hex, one a line) on a bare core; imports nothing
#: but the RMI dispatcher, so only import-time registration can give
#: the core its pseudo-methods.
_BARE_CORE = """
import sys
from repro.rmi.dispatch import RMICore
core = RMICore(None, "sim://bare:1")
for line in sys.stdin:
    print(core.handle(bytes.fromhex(line)).hex(), flush=True)
"""


def test_bare_core_serves_every_pseudo_method():
    """A core nobody configured answers all three pseudo-methods (the
    e2e staged replay builds one and compares its bytes with a
    server's) and pins their arity."""
    op = InvocationData(1, ArgRef(ROOT_SEQ), "shard_info")
    plan, params = compile_plan([op], AbortPolicy())
    digest = plan_hash(plan)
    requests = [
        (INVOKE_BATCH, ([op], AbortPolicy(), NONE_ID, False)),
        (INSTALL_PLAN, (plan, params)),
        (INVOKE_PLAN, (digest, params)),
        (INVOKE_BATCH, ([op], AbortPolicy(), NONE_ID, False, True)),
        (INSTALL_PLAN, (plan, params, "extra")),
        (INVOKE_PLAN, (digest,)),
    ]
    payload = "".join(
        encode(CallRequest(REGISTRY_OBJECT_ID, method, args)).hex() + "\n"
        for method, args in requests)
    payload += encode(CallRequest(99, INVOKE_PLAN, (digest, params))).hex()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _BARE_CORE], input=payload + "\n",
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    responses = [decode(bytes.fromhex(line))
                 for line in result.stdout.split()]
    assert len(responses) == len(requests) + 1
    for response in responses[:3]:
        assert not response.is_error, response.value
        assert response.value.results == {1: ""}
    for response, (method, args) in zip(responses[3:6], requests[3:]):
        assert isinstance(response.value, MarshalError)
        assert str(response.value) == f"{method} received {len(args)} arguments"
    assert isinstance(responses[6].value, PlanInvalidatedError)
    assert responses[6].value.args[0] == digest
