"""Peer model: identifiers, virtual coordinates, addresses and lifetimes.

A peer in the paper is described by three things:

* a *self-generated identifier*: a point of the ``D``-dimensional virtual
  coordinate space,
* a *network address* (public IP and port) that other peers use to reach it,
* (Section 3 only) a known departure time ``T(P)``, embedded as the first
  coordinate: "we set x(P,1) = T(P)".

:class:`PeerInfo` bundles the identifier and the address and reads ``T(P)``
off the first coordinate.  Peer ids are plain integers -- they are
bookkeeping handles for the simulation, not protocol-visible data; everything
the protocol itself uses is the identifier (coordinates) and the address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import CoordinateLike, Point, as_point

__all__ = ["NetworkAddress", "PeerInfo", "make_peer"]


@dataclass(frozen=True, order=True)
class NetworkAddress:
    """A simulated public endpoint (host and port).

    The construction algorithms only ever treat addresses as opaque delivery
    handles, so a simulated address preserves the paper's behaviour exactly.
    """

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be a non-empty string")
        if not (0 < self.port < 65536):
            raise ValueError(f"port must be in (0, 65536), got {self.port}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class PeerInfo:
    """Everything the overlay knows about one peer.

    Attributes
    ----------
    peer_id:
        Simulation-level integer handle (unique within an overlay).
    coordinates:
        The peer's virtual identifier, a point in ``[0, VMAX]^D``.
    address:
        The peer's (simulated) network address.
    """

    peer_id: int
    coordinates: Point
    address: NetworkAddress

    def __post_init__(self) -> None:
        if self.peer_id < 0:
            raise ValueError("peer_id must be non-negative")
        object.__setattr__(self, "coordinates", as_point(self.coordinates))

    @property
    def dimension(self) -> int:
        """Dimension of the peer's virtual identifier."""
        return self.coordinates.dimension

    @property
    def lifetime(self) -> float:
        """Departure time ``T(P)``: the first coordinate (Section 3, "x(P,1) = T(P)")."""
        return float(self.coordinates[0])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Peer {self.peer_id} @ {tuple(self.coordinates)}"


def make_peer(
    peer_id: int,
    coordinates: CoordinateLike,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> PeerInfo:
    """Convenience constructor that fabricates a simulated address.

    By default peer ``i`` is given the address ``10.x.y.z:7000 + (i % 1000)``
    derived from its id; tests and examples rarely care about the concrete
    value, only that it exists and is unique per peer.
    """
    if host is None:
        host = f"10.{(peer_id >> 16) & 0xFF}.{(peer_id >> 8) & 0xFF}.{peer_id & 0xFF}"
    if port is None:
        port = 7000 + (peer_id % 1000)
    return PeerInfo(
        peer_id=peer_id,
        coordinates=as_point(coordinates),
        address=NetworkAddress(host=host, port=port),
    )
