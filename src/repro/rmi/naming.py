"""URL-style naming helpers, analogous to ``java.rmi.Naming``.

A name URL is ``scheme://host:port/name`` — everything before the last
path segment addresses the server, the final segment names a binding in
that server's registry::

    root = naming.lookup(network, "sim://fileserver:1099/root")
"""

from __future__ import annotations

from typing import Tuple

from repro.rmi.client import RMIClient
from repro.rmi.protocol import REGISTRY_OBJECT_ID


def split_url(url: str) -> Tuple[str, str]:
    """Split a name URL into ``(server_address, binding_name)``."""
    if "://" not in url:
        raise ValueError(f"name URL must include a scheme: {url!r}")
    scheme, rest = url.split("://", 1)
    if "/" not in rest:
        raise ValueError(f"name URL must include a /name suffix: {url!r}")
    authority, name = rest.rsplit("/", 1)
    if not authority or not name:
        raise ValueError(f"malformed name URL: {url!r}")
    return f"{scheme}://{authority}", name


def lookup(network, url: str, from_host: str = "client"):
    """Resolve a name URL to a stub.

    Creates a dedicated client for the call; for repeated lookups against
    the same server, hold an :class:`~repro.rmi.client.RMIClient` and use
    its :meth:`~repro.rmi.client.RMIClient.lookup` instead (the returned
    stub keeps that client alive).
    """
    address, name = split_url(url)
    client = RMIClient(network, address, from_host=from_host)
    return client.lookup(name)


def bind(network, url: str, stub, from_host: str = "client") -> None:
    """Bind a stub under a name URL, replacing any previous binding."""
    address, name = split_url(url)
    client = RMIClient(network, address, from_host=from_host)
    try:
        client.call(REGISTRY_OBJECT_ID, "rebind", (name, stub))
    finally:
        client.close()
