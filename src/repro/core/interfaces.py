"""Batch-interface derivation: the ``rmic -batch`` analogue (paper §3.2/§4).

The paper ships a tool that generates ``B*`` batch interfaces and ``C*``
cursor interfaces from remote interfaces, applying the translation rules:

1. a non-remote return type ``T`` becomes ``Future<T>``;
2. a remote return type becomes the corresponding batch interface;
3. an array of a remote type becomes a cursor interface;
4. generation is *transitive* — every referenced remote interface gets a
   batch interface too.

At runtime the Python proxies read the same information straight from
annotations, so no generated classes are required to *use* BRMI.  This
module still provides the tool for parity and for documentation/IDE
purposes: :func:`derive_batch_interfaces` computes the transitive
closure, and :func:`generate_batch_interface_source` emits importable
Python source with ``Future[...]`` annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.rmi.remote import (
    RemoteInterface,
    lookup_interface,
    qualified_name,
    remote_methods,
)


@dataclass(frozen=True)
class BatchMethodSpec:
    """One method of a derived batch interface."""

    name: str
    returns_kind: str  # value | remote | cursor
    returns_interface: str = None  # qualified remote interface name
    doc: str = ""

    @property
    def batch_return_annotation(self) -> str:
        """The translated return annotation, as source text."""
        if self.returns_kind == "value":
            return "Future"
        simple = self.returns_interface.rsplit(".", 1)[-1]
        prefix = "C" if self.returns_kind == "cursor" else "B"
        return f"{prefix}{simple}"


@dataclass(frozen=True)
class BatchInterfaceSpec:
    """A derived batch interface for one remote interface."""

    remote_name: str  # qualified name of the source remote interface
    batch_name: str  # conventional B-prefixed simple name
    cursor_name: str  # conventional C-prefixed simple name
    methods: Tuple[BatchMethodSpec, ...]


def derive_batch_spec(iface) -> BatchInterfaceSpec:
    """Translate one remote interface per the rules of §3.2."""
    _require_interface(iface)
    simple = iface.__name__
    methods = []
    for name, spec in sorted(remote_methods(iface).items()):
        methods.append(
            BatchMethodSpec(
                name=name,
                returns_kind=spec.returns_kind,
                returns_interface=spec.returns_interface,
                doc=spec.doc,
            )
        )
    return BatchInterfaceSpec(
        remote_name=qualified_name(iface),
        batch_name=f"B{simple}",
        cursor_name=f"C{simple}",
        methods=tuple(methods),
    )


def derive_batch_interfaces(iface) -> Dict[str, BatchInterfaceSpec]:
    """Transitive closure of :func:`derive_batch_spec`.

    "The batch interface generation process is transitive: it does not
    stop until all the transitively-referenced Batch interfaces have been
    generated" (§4).  Keyed by qualified remote-interface name.
    """
    _require_interface(iface)
    done: Dict[str, BatchInterfaceSpec] = {}
    pending: List[type] = [iface]
    while pending:
        current = pending.pop()
        name = qualified_name(current)
        if name in done:
            continue
        spec = derive_batch_spec(current)
        done[name] = spec
        for method in spec.methods:
            if method.returns_interface and method.returns_interface not in done:
                pending.append(lookup_interface(method.returns_interface))
    return done


def generate_batch_interface_source(iface) -> str:
    """Emit Python source for the transitive batch/cursor interfaces.

    The output is self-contained and importable; it declares classes with
    annotated method stubs, mirroring what ``rmic -batch`` would produce
    for documentation and static-typing purposes.
    """
    specs = derive_batch_interfaces(iface)
    cursor_targets = {
        method.returns_interface
        for spec in specs.values()
        for method in spec.methods
        if method.returns_kind == "cursor"
    }
    lines = [
        '"""Batch interfaces generated by repro.core.interfaces.',
        "",
        f"Source remote interface: {qualified_name(iface)}",
        '"""',
        "",
        "from repro.core.future import Future",
        "",
        "",
        "class Batch:",
        '    """Base of all batch interfaces (flush/ok live here)."""',
        "",
        "    def flush(self) -> None: ...",
        "",
        "    def flush_and_continue(self) -> None: ...",
        "",
        "    def ok(self) -> None: ...",
        "",
        "",
        "class CursorBase:",
        '    """Iteration protocol of cursors (paper §3.4)."""',
        "",
        "    def next(self) -> bool: ...",
        "",
    ]
    for remote_name in sorted(specs):
        spec = specs[remote_name]
        lines.append("")
        lines.append(f"class {spec.batch_name}(Batch):")
        lines.append(f'    """Batch interface for {remote_name}."""')
        if not spec.methods:
            lines.append("")
            lines.append("    pass")
        for method in spec.methods:
            lines.append("")
            lines.append(
                f"    def {method.name}(self, *args, **kwargs) -> "
                f'"{method.batch_return_annotation}": ...'
            )
        if remote_name in cursor_targets:
            lines.append("")
            lines.append("")
            lines.append(
                f"class {spec.cursor_name}({spec.batch_name}, CursorBase):"
            )
            lines.append(
                f'    """Cursor interface for {remote_name} (element view)."""'
            )
    lines.append("")
    return "\n".join(lines)


def _require_interface(iface):
    if not (
        isinstance(iface, type)
        and issubclass(iface, RemoteInterface)
        and iface is not RemoteInterface
    ):
        raise TypeError(f"{iface!r} is not a remote interface class")


def method_translation_table(iface) -> List[Tuple[str, str, str]]:
    """Human-readable translation summary: (method, remote, batch).

    Handy for docs and tests of the derivation rules.
    """
    _require_interface(iface)
    rows = []
    for name, spec in sorted(remote_methods(iface).items()):
        if spec.returns_kind == "value":
            remote_side, batch_side = "T", "Future[T]"
        elif spec.returns_kind == "remote":
            simple = spec.returns_interface.rsplit(".", 1)[-1]
            remote_side, batch_side = simple, f"B{simple}"
        else:
            simple = spec.returns_interface.rsplit(".", 1)[-1]
            remote_side, batch_side = f"list[{simple}]", f"C{simple}"
        rows.append((name, remote_side, batch_side))
    return rows
