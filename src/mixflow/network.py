"""Transportation network container and TNTP-style file I/O.

A network is a directed multigraph of links with per-class capacities plus
origin-destination demand split between regular (rv) and autonomous (av)
vehicles. Instances are treated as immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

RV = "rv"
AV = "av"
VEHICLE_CLASSES = (RV, AV)


class ParseError(ValueError):
    """A net/trips/config file could not be parsed."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ValidationError(ValueError):
    """A loaded network violates its invariants."""

    def __init__(self, issues):
        self.issues = issues
        super().__init__("invalid network:\n"
                         + "\n".join(f"{entity}: {message}" for entity, message in issues))


@dataclass(frozen=True)
class Link:
    id: int
    from_node: int
    to_node: int
    length: float        # miles
    free_time: float     # minutes
    cap_rv: float        # veh/h if every vehicle were an rv
    cap_av: float        # veh/h if every vehicle were an av


@dataclass(frozen=True)
class ODPair:
    origin: int
    destination: int
    demand_rv: float     # veh/h
    demand_av: float     # veh/h


@dataclass
class Network:
    nodes: tuple
    links: tuple
    od_pairs: tuple

    # derived, filled in __post_init__
    node_set: frozenset = field(init=False, repr=False, compare=False)
    link_index: dict = field(init=False, repr=False, compare=False)
    out_links: dict = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    free_times: np.ndarray = field(init=False, repr=False, compare=False)
    caps: np.ndarray = field(init=False, repr=False, compare=False)
    group_demand: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = tuple(sorted(self.nodes))
        self.links = tuple(self.links)
        self.od_pairs = tuple(self.od_pairs)
        self.node_set = frozenset(self.nodes)
        self.link_index = {}
        for i, link in enumerate(self.links):
            # first occurrence wins so duplicate-id files still load for validate()
            self.link_index.setdefault(link.id, i)
        self.out_links = {n: [] for n in self.nodes}
        for i, link in enumerate(self.links):
            if link.from_node in self.node_set and link.to_node in self.node_set:
                self.out_links[link.from_node].append(i)
        self.lengths = np.array([l.length for l in self.links], dtype=float)
        self.free_times = np.array([l.free_time for l in self.links], dtype=float)
        # (class, link) layout: row i is VEHICLE_CLASSES[i], flat index i * n_links + link
        self.caps = np.array([[l.cap_rv for l in self.links], [l.cap_av for l in self.links]],
                             dtype=float)
        # the demand of (OD, class) group 2 * od index + class index
        self.group_demand = np.array([(q.demand_rv, q.demand_av) for q in self.od_pairs],
                                     dtype=float).reshape(-1)

    @property
    def n_links(self):
        return len(self.links)

    def reachable_from(self, origin):
        """Set of nodes reachable from origin along directed links."""
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for i in self.out_links.get(node, ()):
                nxt = self.links[i].to_node
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


def split_demand(total, penetration):
    """Split a total OD demand into (rv, av) shares; the sum is exact."""
    if not 0.0 <= penetration <= 1.0:
        raise ValueError(f"penetration {penetration} outside [0, 1]")
    if total < 0:
        raise ValueError(f"negative demand {total}")
    q_av = penetration * total
    return total - q_av, q_av


def validate(network):
    """Every violated network invariant as an (entity, message) pair; an
    empty list means the network is valid. Violations are reported, not raised."""
    issues = []
    seen_ids = set()
    for link in network.links:
        name = f"link {link.id}"
        if link.id in seen_ids:
            issues.append((name, "duplicate link id"))
        seen_ids.add(link.id)
        if link.from_node == link.to_node:
            issues.append((name, "self loop"))
        for endpoint in (link.from_node, link.to_node):
            if endpoint not in network.node_set:
                issues.append((name, f"endpoint {endpoint} is not a network node"))
        for label, value in (("length", link.length), ("free-flow time", link.free_time),
                             ("rv capacity", link.cap_rv), ("av capacity", link.cap_av)):
            if not 0 < value < math.inf:
                issues.append((name, f"nonpositive or non-finite {label} {value}"))
    for node in network.nodes:
        if not isinstance(node, (int, np.integer)) or node <= 0:
            issues.append((f"node {node}", "node ids must be positive integers"))
    reachable = {}
    for od in network.od_pairs:
        name = f"od {od.origin}->{od.destination}"
        if od.origin == od.destination:
            issues.append((name, "origin equals destination"))
            continue
        missing = [n for n in (od.origin, od.destination) if n not in network.node_set]
        if missing:
            issues.append((name, f"unknown node(s) {missing}"))
            continue
        if not (0 <= od.demand_rv < math.inf and 0 <= od.demand_av < math.inf):
            issues.append((name, "negative or non-finite demand "
                           f"({od.demand_rv}, {od.demand_av})"))
        if od.demand_rv + od.demand_av <= 0:
            issues.append((name, "zero total demand"))
        if od.origin not in reachable:
            reachable[od.origin] = network.reachable_from(od.origin)
        if od.destination not in reachable[od.origin]:
            issues.append((name, "destination unreachable from origin"))
    return issues


def _meta_value(line):
    return line.split(">", 1)[1].strip()


def parse_net_text(text, path="<net>"):
    """Parse TNTP-style net text into (n_nodes, raw link rows).

    Rows are (from, to, cap_rv, length, free_time, cap_av_or_None). A `~`
    header naming a capacity_av column locates it; unnamed trailing fields
    and an `<END OF METADATA>` line, which is optional, are ignored.
    """
    n_nodes = None
    n_links = links_line = None
    av_col = None
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("~"):
            tokens = [t for t in line[1:].replace(";", " ").split() if t]
            if "capacity_av" in tokens:
                av_col = tokens.index("capacity_av")
            continue
        if line.startswith("<"):
            upper = line.upper()
            try:
                if upper.startswith("<NUMBER OF NODES>"):
                    n_nodes = int(_meta_value(line))
                elif upper.startswith("<NUMBER OF LINKS>"):
                    n_links, links_line = int(_meta_value(line)), line_no
            except ValueError:
                raise ParseError(path, line_no, f"bad metadata line: {line!r}") from None
            continue
        tokens = [t for t in line.replace(";", " ").split() if t]
        if len(tokens) < 5:
            raise ParseError(path, line_no, f"expected at least 5 fields, got {len(tokens)}")
        if av_col is not None and av_col >= len(tokens):
            raise ParseError(path, line_no, "missing capacity_av field")
        try:
            from_node, to_node = int(tokens[0]), int(tokens[1])
            cap, length, free_time = (float(t) for t in tokens[2:5])
            cap_av = None if av_col is None else float(tokens[av_col])
        except ValueError:
            raise ParseError(path, line_no,
                             f"non-numeric link record or node id: {line!r}") from None
        if not all(0 < v < math.inf for v in (cap, length, free_time, cap_av) if v is not None):
            raise ParseError(path, line_no,
                             f"nonpositive or non-finite number in link record: {line!r}")
        rows.append((from_node, to_node, cap, length, free_time, cap_av))
    if n_links is not None and n_links != len(rows):
        raise ParseError(path, links_line,
                         f"metadata declares {n_links} links, file has {len(rows)}")
    return n_nodes, rows


def parse_trips_text(text, path="<trips>"):
    """Parse TNTP-style trips text into an ordered {(origin, dest): flow} dict."""
    demand = {}
    origin = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("~") or line.startswith("<"):
            continue
        if line.lower().startswith("origin"):
            try:
                origin = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(path, line_no, f"bad origin line: {line!r}") from None
            continue
        if origin is None:
            raise ParseError(path, line_no, "destination entry before any Origin line")
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ParseError(path, line_no, f"bad trips entry: {chunk!r}")
            dest_s, flow_s = chunk.split(":", 1)
            try:
                dest = int(dest_s)
                flow = float(flow_s)
            except ValueError:
                raise ParseError(path, line_no,
                                 f"non-numeric trips entry or node id: {chunk!r}") from None
            if not 0 <= flow < math.inf:
                raise ParseError(path, line_no,
                                 f"demand must be nonnegative and finite: {chunk!r}")
            demand[(origin, dest)] = demand.get((origin, dest), 0.0) + flow
    return demand


def network_from_tables(n_nodes, link_rows, demand, params):
    """Assemble a Network from parsed tables, splitting demand by penetration."""
    links = []
    for i, (from_node, to_node, cap, length, free_time, cap_av) in enumerate(link_rows):
        if cap_av is None:
            cap_av = params.av_capacity_ratio * cap
        links.append(Link(id=i + 1, from_node=from_node, to_node=to_node,
                          length=length, free_time=free_time,
                          cap_rv=cap, cap_av=cap_av))
    nodes = {l.from_node for l in links} | {l.to_node for l in links}
    if n_nodes is not None:
        nodes |= set(range(1, n_nodes + 1))
    od_pairs = []
    for (origin, dest), total in demand.items():
        if total <= 0:
            continue
        q_rv, q_av = split_demand(total, params.penetration)
        od_pairs.append(ODPair(origin, dest, q_rv, q_av))
    return Network(nodes=tuple(sorted(nodes)), links=tuple(links), od_pairs=tuple(od_pairs))


def load_network(net_file, trips_file, params):
    """Load and validate a network from a TNTP net file and optional trips file."""
    with open(net_file, encoding="utf-8") as fh:
        n_nodes, rows = parse_net_text(fh.read(), path=net_file)
    demand = {}
    if trips_file is not None:
        with open(trips_file, encoding="utf-8") as fh:
            demand = parse_trips_text(fh.read(), path=trips_file)
    network = network_from_tables(n_nodes, rows, demand, params)
    if issues := validate(network):
        raise ValidationError(issues)
    return network


def write_net_text(network):
    lines = [
        f"<NUMBER OF NODES> {len(network.nodes)}",
        f"<NUMBER OF LINKS> {len(network.links)}",
        "<END OF METADATA>",
        "~ init_node term_node capacity length free_flow_time capacity_av ;",
    ]
    for l in network.links:
        lines.append(f"{l.from_node} {l.to_node} {l.cap_rv!r} {l.length!r} "
                     f"{l.free_time!r} {l.cap_av!r} ;")
    return "\n".join(lines) + "\n"


def write_trips_text(network):
    totals = {}
    for od in network.od_pairs:
        totals.setdefault(od.origin, []).append((od.destination, od.demand_rv + od.demand_av))
    lines = [f"<NUMBER OF ZONES> {len(network.nodes)}", "<END OF METADATA>"]
    for origin in sorted(totals):
        lines.append("")
        lines.append(f"Origin {origin}")
        for dest, total in sorted(totals[origin]):
            lines.append(f"    {dest} : {total!r};")
    return "\n".join(lines) + "\n"


def write_network(network, net_file, trips_file):
    """Write net and trips files; reloading them reproduces the same bytes."""
    with open(net_file, "w", encoding="utf-8") as fh:
        fh.write(write_net_text(network))
    with open(trips_file, "w", encoding="utf-8") as fh:
        fh.write(write_trips_text(network))
