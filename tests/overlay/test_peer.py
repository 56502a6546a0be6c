"""Unit tests for repro.overlay.peer."""

import dataclasses
import inspect

import pytest

from repro.geometry.point import Point
from repro.overlay.peer import NetworkAddress, PeerInfo, make_peer


class TestNetworkAddress:
    def test_valid_address(self):
        address = NetworkAddress("10.0.0.1", 7000)
        assert str(address) == "10.0.0.1:7000"

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            NetworkAddress("", 7000)

    @pytest.mark.parametrize("port", [0, -1, 65536, 100000])
    def test_invalid_port_rejected(self, port):
        with pytest.raises(ValueError):
            NetworkAddress("10.0.0.1", port)

    def test_addresses_are_ordered_and_hashable(self):
        a = NetworkAddress("10.0.0.1", 7000)
        b = NetworkAddress("10.0.0.1", 7001)
        assert a < b
        assert len({a, b, NetworkAddress("10.0.0.1", 7000)}) == 2


class TestPeerInfo:
    def test_coordinates_are_coerced_to_point(self):
        peer = PeerInfo(0, (1.0, 2.0), NetworkAddress("h", 1000))
        assert isinstance(peer.coordinates, Point)
        assert peer.dimension == 2

    def test_negative_peer_id_rejected(self):
        with pytest.raises(ValueError):
            PeerInfo(-1, (1.0,), NetworkAddress("h", 1000))

    def test_lifetime_is_the_first_coordinate_and_follows_a_move(self):
        """Section 3: "we set x(P,1) = T(P)" -- there is no second ``T(P)``."""
        peer = PeerInfo(3, (9.0, 2.0, 5.0), NetworkAddress("h", 1000))
        assert peer.lifetime == 9.0
        moved = dataclasses.replace(peer, coordinates=(77.0, 2.0, 5.0))
        assert moved.lifetime == 77.0
        assert peer.lifetime == 9.0
        assert "lifetime" not in {field.name for field in dataclasses.fields(PeerInfo)}
        assert "lifetime" not in inspect.signature(make_peer).parameters

    def test_peer_info_is_frozen(self):
        peer = PeerInfo(0, (1.0,), NetworkAddress("h", 1000))
        with pytest.raises(AttributeError):
            peer.peer_id = 7  # type: ignore[misc]


class TestMakePeer:
    def test_fabricates_unique_addresses(self):
        peers = [make_peer(i, (float(i), float(i))) for i in range(50)]
        addresses = {(p.address.host, p.address.port) for p in peers}
        assert len(addresses) == 50

    def test_respects_explicit_host_and_port(self):
        peer = make_peer(1, (0.0,), host="192.168.0.1", port=9999)
        assert peer.address == NetworkAddress("192.168.0.1", 9999)
