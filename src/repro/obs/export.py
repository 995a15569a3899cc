"""Trace export/import, span-tree assembly, rendering, well-formedness.

The JSON-lines format is one span dict per line (see
:meth:`~repro.obs.tracer.Span.to_dict`): ``name``, ``trace_id``,
``span_id``, ``parent_id``, ``start``, ``end``, ``attrs``.  Everything
here operates on those dicts, so traces round-trip through files and
merge across processes by simple concatenation.

:func:`render_message_chart` draws the paper's Figure 1 — n
request/response pairs under RMI against one batched pair — from the
``client.send`` spans of a run on any transport, blocking or awaited;
:func:`render_span_tree` shows everything else the trace holds.
"""

from __future__ import annotations

import json
from collections import OrderedDict


def read_jsonl(path) -> list:
    """Read a JSON-lines trace file back into span dicts."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _as_dicts(spans) -> list:
    return [s if isinstance(s, dict) else s.to_dict() for s in spans]


class _Node:
    __slots__ = ("span", "children")

    def __init__(self, span):
        self.span = span
        self.children = []


def build_trace_trees(spans) -> "OrderedDict":
    """Group spans by trace and link parents: ``{trace_id: [roots]}``.

    A span whose ``parent_id`` is missing from its trace (e.g. the other
    half ran in a process whose export you don't have) becomes a root,
    so partial traces still render.  Roots and children sort by start
    time.
    """
    spans = _as_dicts(spans)
    by_trace = OrderedDict()
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    trees = OrderedDict()
    for trace_id, members in by_trace.items():
        nodes = {span["span_id"]: _Node(span) for span in members}
        roots = []
        for span in members:
            node = nodes[span["span_id"]]
            parent = nodes.get(span["parent_id"]) if span["parent_id"] else None
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.span["start"])
        roots.sort(key=lambda n: n.span["start"])
        trees[trace_id] = roots
    return trees


#: Span names recorded as deliberate zero-duration point events
#: (``tracer.record(name, now, now)``): markers, not timed operations.
#: The zero-clock-duration check exempts them; a span may also opt out
#: with a truthy ``instant`` attribute.
INSTANT_SPAN_NAMES = frozenset({
    "server.shed",
    "server.dedup",
    "server.plan",
    "fault.injected",
})


def _is_instant(span) -> bool:
    return (span.get("name") in INSTANT_SPAN_NAMES
            or bool(span.get("attrs", {}).get("instant")))


def check_spans(spans, require_names=(), allow_orphans: bool = False) -> list:
    """Well-formedness problems in a span set (empty list = OK).

    Checks: non-empty; unique span ids; ``end > start`` — a negative
    duration means a clock ran backwards, a zero duration on anything
    but a known point event (:data:`INSTANT_SPAN_NAMES`, or an
    ``instant`` attr) means a clock never advanced; every non-empty
    ``parent_id`` resolves to an exported span *in the same trace*;
    every name in *require_names* appears at least once.

    Parent resolution distinguishes two failures: a parent id exported
    under a **different** trace is corruption and always a problem,
    while a parent id found **nowhere** in the export is a
    *cross-process orphan* — the other half ran in a process whose
    export you don't have.  *allow_orphans* tolerates only the latter
    (partial captures are legitimate; corrupted links never are).
    """
    spans = _as_dicts(spans)
    problems = []
    if not spans:
        problems.append("no spans")
        return problems
    seen_ids = set()
    by_trace = {}
    for span in spans:
        span_id = span.get("span_id")
        if span_id in seen_ids:
            problems.append(f"duplicate span id {span_id!r}")
        seen_ids.add(span_id)
        if span.get("end") is None or span["end"] < span["start"]:
            problems.append(
                f"span {span.get('name')!r} ({span_id}) ends before it starts"
            )
        elif span["end"] == span["start"] and not _is_instant(span):
            problems.append(
                f"span {span.get('name')!r} ({span_id}) has a zero-clock "
                "duration (and is not a known instant marker)"
            )
        by_trace.setdefault(span.get("trace_id"), set()).add(span_id)
    for span in spans:
        parent = span.get("parent_id")
        if not parent or parent in by_trace.get(span.get("trace_id"), ()):
            continue
        if parent in seen_ids:
            problems.append(
                f"span {span.get('name')!r} ({span.get('span_id')}) has "
                f"parent {parent!r} in a different trace"
            )
        elif not allow_orphans:
            problems.append(
                f"span {span.get('name')!r} ({span.get('span_id')}) has "
                f"unresolved parent {parent!r} (cross-process orphan — "
                "pass --allow-orphans for partial captures)"
            )
    names = {span.get("name") for span in spans}
    for required in require_names:
        if required not in names:
            problems.append(f"required span name {required!r} never appears")
    return problems


def _attr_text(attrs) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(spans, max_traces: int = None) -> str:
    """ASCII span trees, one per trace, durations in milliseconds."""
    trees = build_trace_trees(spans)
    lines = []
    for index, (trace_id, roots) in enumerate(trees.items()):
        if max_traces is not None and index >= max_traces:
            lines.append(
                f"... {len(trees) - max_traces} more trace(s) not shown"
            )
            break
        count = sum(_tree_size(root) for root in roots)
        lines.append(f"trace {trace_id} ({count} span{'s' * (count != 1)})")
        base = min(root.span["start"] for root in roots)
        for root in roots:
            _render_node(root, base, "  ", lines)
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _tree_size(node) -> int:
    return 1 + sum(_tree_size(child) for child in node.children)


def _render_node(node, base, indent, lines) -> None:
    span = node.span
    start_ms = (span["start"] - base) * 1e3
    duration_ms = (span["end"] - span["start"]) * 1e3
    attrs = _attr_text(span.get("attrs", {}))
    suffix = f"  {attrs}" if attrs else ""
    lines.append(
        f"{indent}{span['name']:<18} +{start_ms:8.3f}ms "
        f"{duration_ms:9.3f}ms{suffix}"
    )
    for child in node.children:
        _render_node(child, base, indent + "  ", lines)


def _sent_by_server(span, by_id) -> bool:
    """Whether a ``client.send`` was made while serving a request: some
    ancestor among the spans given is a ``server.handle``."""
    seen = set()
    while span is not None and span["span_id"] not in seen:
        if span["name"] == "server.handle":
            return True
        seen.add(span["span_id"])
        span = by_id.get(span["parent_id"])
    return False


def render_message_chart(spans, client: str = "client",
                         server_label: str = "server") -> str:
    """The Figure-1 message chart, drawn from ``client.send`` spans.

    Round trips appear in completion order.  One made from inside a
    server — §4.4's stub that points back at its own host — renders as
    a self-arrow on the server's lifeline and is not counted as a
    network round trip.
    """
    spans = _as_dicts(spans)
    by_id = {s["span_id"]: s for s in spans}
    sends = [
        s for s in spans
        if s["name"] == "client.send" and s.get("end") is not None
    ]
    sends.sort(key=lambda s: s["end"])
    width = 34
    lines = [
        f"{client:<12}{'':{width}}{server_label}",
        f"{'|':<12}{'':{width}}|",
    ]
    base = min((s["start"] for s in sends), default=0.0)
    trips = total = 0
    for index, span in enumerate(sends, start=1):
        attrs = span.get("attrs", {})
        up = attrs.get("bytes_up", "?")
        down = attrs.get("bytes_down", "?")
        if isinstance(up, int):
            total += up
        if isinstance(down, int):
            total += down
        stamp = f"t={(span['start'] - base) * 1e3:8.3f}ms"
        if _sent_by_server(span, by_id):
            lines.append(
                f"{'|':<12}{'':{width}}|--. loopback ({up}B) {stamp}"
            )
            lines.append(f"{'|':<12}{'':{width}}|<-'")
            continue
        trips += 1
        arrow = "-" * (width - 2)
        lines.append(f"{'|':<12}{arrow}> [{index}] {up}B {stamp}")
        lines.append(
            f"{'|':<11}<{arrow}- {down}B "
            f"(+{(span['end'] - span['start']) * 1e3:.3f}ms)"
        )
    lines.append(
        f"{'':12}{trips} network round trip(s), {total} bytes total"
    )
    return "\n".join(lines)
