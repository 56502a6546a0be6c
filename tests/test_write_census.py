"""A pinned census over ``src/repro``: ``_neighbours`` has only
``NEIGHBOUR_WRITERS``, each telling the delta recorders unless nothing can
observe it yet; ``_links`` has only ``LINK_WRITERS``, each reporting its
edge flips unless it only creates an isolated entry or a fresh overlay;
``_peers`` and ``.coordinates`` have only ``PEER_WRITERS``, each maintaining
``self._index``.  A write is a store, delete, augmented assignment or
mutating call on the map, an entry or a local alias.  At run time nothing
but the overlay holds ``_links``: its readers go through ``overlay.links``."""

import ast
import gc
from functools import lru_cache
from pathlib import Path

from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers_with_lifetimes

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
NETWORK = "overlay/network.py"
NEIGHBOUR_WRITERS = {"__init__", "add_peer", "remove_peer", "install_selections",
                     "build_equilibrium"}
LINK_WRITERS = {"__init__", "add_peer", "remove_peer", "notify_selection_change",
                "build_equilibrium"}
PEER_WRITERS = {"__init__", "add_peer", "remove_peer", "move_peer", "build_equilibrium"}
MUTATORS = {"add", "discard", "remove", "update", "clear", "pop", "popitem", "setdefault",
            "difference_update", "intersection_update", "symmetric_difference_update"}


@lru_cache(maxsize=None)
def _functions(source):  # (qualified name, owning class, def)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, None, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", node.name, item)
                      for item in node.body if isinstance(item, ast.FunctionDef)]
    return found


def _writes(function, owner, attrs):
    def is_map(node):  # a class's own self._neighbours (PeerProcess) is its own
        node = node.value if isinstance(node, ast.Subscript) else node
        if isinstance(node, ast.Name):
            return node.id in aliases
        return isinstance(node, ast.Attribute) and node.attr in attrs and (
            owner == "OverlayNetwork" or getattr(node.value, "id", None) != "self")

    nodes, aliases = list(ast.walk(function)), set()
    aliases.update(node.targets[0].id for node in nodes if isinstance(node, ast.Assign)
                   and isinstance(node.targets[0], ast.Name) and is_map(node.value))
    return any(
        isinstance(node, (ast.Attribute, ast.Subscript))
        and isinstance(node.ctx, (ast.Store, ast.Del)) and is_map(node)
        or isinstance(node, ast.AugAssign) and is_map(node.target)
        or isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS
        and is_map(node.func.value) for node in nodes)


def _calls(function, attrs, on=None):
    return any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) in attrs
               and (on is None or getattr(node.func.value, "attr", None) == on)
               for node in ast.walk(function))


def census_problems(sources):
    """Every way ``{path under src/repro: source}`` breaks the census."""
    duties = {
        "_neighbours": (NEIGHBOUR_WRITERS, "notifying the recorders", lambda function: (
            function.name in {"__init__", "build_equilibrium"}  # a fresh overlay
            or _calls(function, {"notify_selection_change", "note_touch"}))),
        "_links": (LINK_WRITERS, "reporting the flips", lambda function: (
            function.name in {"__init__", "add_peer", "build_equilibrium"}
            or _calls(function, {"note_edge_flip"}))),
        "_peers": (PEER_WRITERS, "maintaining the index", lambda function: (
            _calls(function, {"insert", "remove", "move"}, on="_index") or _writes(
                function, "OverlayNetwork", {"_index"}))),
    }
    problems = []
    for label, (pinned, what, duty) in duties.items():
        attrs = {label, "coordinates"} if label == "_peers" else {label}
        writers = {f"{path}::{name}": function for path, source in sorted(sources.items())
                   for name, owner, function in _functions(source)
                   if _writes(function, owner, attrs)}
        expected = {f"{NETWORK}::OverlayNetwork.{name}" for name in pinned}
        problems += [f"{where} writes {label} outside the pinned writers"
                     for where in sorted(set(writers) - expected)]
        problems += [f"{where} no longer writes {label}; unpin it"
                     for where in sorted(expected - set(writers))]
        problems += [f"{where} writes {label} without {what}"
                     for where in sorted(expected & set(writers)) if not duty(writers[where])]
    return problems


def network_sources(needle=None, replacement="", appended=""):
    """``src/repro`` by path, ``network.py`` optionally seeded with one edit."""
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
               for path in SRC.rglob("*.py")}
    network = sources[NETWORK]
    assert needle is None or needle in network, f"network.py drifted: {needle!r}"
    sources[NETWORK] = (network.replace(needle, replacement, 1) if needle else network) + appended
    return sources


def test_the_overlay_maps_have_exactly_the_pinned_writers():
    assert census_problems(network_sources()) == []



def test_the_reverse_selector_index_is_gone():
    assert not [path for path, source in network_sources().items() if "_selectors_of" in source]


def test_only_the_overlay_holds_its_links():
    """The radius view's knowledge sets read the links through the bound
    ``overlay.links``, and the connectivity feed through the overlay it
    holds: neither keeps the dict itself."""
    peers = generate_peers_with_lifetimes(30, 2, seed=3)
    overlay = OverlayNetwork.build_incremental(peers, EmptyRectangleSelection(), gossip_radius=2)
    maintainer, feed = StabilityTreeMaintainer(overlay), OverlayConnectivityFeed(overlay)
    maintainer.refresh()
    assert feed.is_connected()
    knowledge = overlay._engine._view._knowledge  # noqa: SLF001 - the readers under test
    assert knowledge._links == overlay.links  # noqa: SLF001
    assert feed._overlay is overlay  # noqa: SLF001
    held = list(vars(feed).values())
    assert not [value for value in held if callable(value)]  # no bound links
    assert not [value for value in held if isinstance(value, dict)  # no links map
                and any(isinstance(links, (set, frozenset)) for links in value.values())]
    holders = [holder for holder in gc.get_referrers(overlay._links)  # noqa: SLF001
               if holder is not overlay and holder is not vars(overlay)]
    assert holders == []


def test_rpl001_catches_a_dropped_add_peer_notification():
    """Re-introduces a drift ``add_peer`` once had: a silent bootstrap install."""
    sources = network_sources("self.notify_selection_change(peer.peer_id, set(), bootstrap_ids)",
                              "pass  # seeded: bootstrap edges installed silently")
    assert census_problems(sources) == [
        f"{NETWORK}::OverlayNetwork.add_peer writes _neighbours without notifying the recorders"]


def test_rpl001_catches_a_rogue_rewire_helper():
    sources = network_sources(appended="\n\ndef rebalance(overlay, peer_id, targets):\n"
                                       "    overlay._neighbours[peer_id] = set(targets)\n")
    assert census_problems(sources) == [
        f"{NETWORK}::rebalance writes _neighbours outside the pinned writers"]


def test_rpl002_catches_membership_mutation_bypassing_the_index():
    """Dropping remove_peer's index maintenance flags it; renaming it off the
    pinned writers flags every overlay-map write in it."""
    sources = network_sources("self._index.remove(peer_id)", "pass  # seeded: index not maintained")
    assert census_problems(sources) == [
        f"{NETWORK}::OverlayNetwork.remove_peer writes _peers without maintaining the index"]
    sources[NETWORK] = sources[NETWORK].replace("def remove_peer(", "def evict_peer(", 1)
    problems = census_problems(sources)
    for label in ("_peers", "_neighbours"):
        assert f"{NETWORK}::OverlayNetwork.evict_peer writes {label} outside the " \
               "pinned writers" in problems
