import math

import numpy as np
import pytest

from mixflow.costs import ClassParams
from mixflow.fixtures import nguyen_network
from mixflow.network import (Link, Network, ODPair, ParseError, ValidationError,
                             load_network, parse_net_text,
                             parse_trips_text, split_demand, validate,
                             write_net_text, write_network, write_trips_text)

from conftest import data_path


def test_load_fournode_fixture(params):
    net = load_network(data_path("fournode_net.tntp"), data_path("fournode_trips.tntp"), params)
    assert len(net.nodes) == 4
    assert len(net.links) == 5
    assert len(net.od_pairs) == 1
    od = net.od_pairs[0]
    assert (od.origin, od.destination) == (1, 4)
    assert od.demand_rv + od.demand_av == 100.0


def test_zero_penetration_keeps_all_demand_rv():
    params = ClassParams(penetration=0.0)
    net = load_network(data_path("fournode_net.tntp"), data_path("fournode_trips.tntp"), params)
    od = net.od_pairs[0]
    assert od.demand_av == 0.0
    assert od.demand_rv == 100.0


def test_av_capacity_fallback_uses_ratio(params):
    net = load_network(data_path("fournode_net.tntp"), data_path("fournode_trips.tntp"), params)
    for link in net.links:
        assert link.cap_av == params.av_capacity_ratio * link.cap_rv


def test_zero_capacity_link_rejected(tmp_path, params):
    bad = tmp_path / "bad_net.tntp"
    bad.write_text("<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
                   "1 2 0 1 1 ;\n", encoding="utf-8")
    trips = tmp_path / "trips.tntp"
    trips.write_text("Origin 1\n 2 : 10;\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_network(str(bad), str(trips), params)
    assert str(err.value).startswith(f"{bad}:4: nonpositive or non-finite number")


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_net_text("<END OF METADATA>\n1 2 100 1 bogus ;\n", path="net")
    assert err.value.line_no == 2


def test_capacity_av_column_via_header():
    text = ("<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
            "~ init_node term_node capacity length free_flow_time capacity_av ;\n"
            "1 2 1000 2 2 3456 ;\n")
    _, rows = parse_net_text(text)
    assert rows[0][5] == 3456.0


def test_standard_tntp_trailing_fields_ignored():
    _, rows = parse_net_text("<END OF METADATA>\n1 2 1000 2 2 0.15 4 0 0 1 ;\n")
    assert rows == [(1, 2, 1000.0, 2.0, 2.0, None)]


def test_end_of_metadata_marker_is_optional(tmp_path, params):
    net = nguyen_network(params, seed=1)
    net_file, trips_file = tmp_path / "n.tntp", tmp_path / "t.tntp"
    write_network(net, net_file, trips_file)
    bare = tmp_path / "bare.tntp"
    text = net_file.read_text(encoding="utf-8")
    bare.write_text(text.replace("<END OF METADATA>\n", ""), encoding="utf-8")
    assert "<END OF METADATA>" in text and "END" not in bare.read_text(encoding="utf-8")
    marked = load_network(str(net_file), str(trips_file), params)
    unmarked = load_network(str(bare), str(trips_file), params)
    assert (unmarked.nodes, unmarked.links, unmarked.od_pairs) == \
        (marked.nodes, marked.links, marked.od_pairs)


def test_trips_parser_multiple_entries_per_line():
    trips = parse_trips_text("<TOTAL OD FLOW> 30\n<END OF METADATA>\n"
                             "Origin 1\n 2 : 10; 3 : 20;\n")
    assert trips == {(1, 2): 10.0, (1, 3): 20.0}


@pytest.mark.parametrize("total,p,expected", [
    (100.0, 0.0, (100.0, 0.0)),
    (100.0, 1.0, (0.0, 100.0)),
    (100.0, 0.4, (60.0, 40.0)),
])
def test_split_demand_boundaries(total, p, expected):
    assert split_demand(total, p) == expected


def test_split_demand_conserves_within_one_ulp():
    rng = np.random.default_rng(11)
    for _ in range(500):
        total = float(rng.uniform(0.0, 1e6))
        p = float(rng.uniform(0.0, 1.0))
        q_rv, q_av = split_demand(total, p)
        assert abs((q_rv + q_av) - total) <= math.ulp(total)
        assert q_rv >= 0.0 and q_av >= 0.0


def test_split_demand_rejects_bad_penetration():
    with pytest.raises(ValueError):
        split_demand(10.0, 1.5)


def test_validate_clean_nguyen(params):
    assert not validate(nguyen_network(params))


def test_validate_unreachable_destination():
    net = Network(nodes=(1, 2, 3),
                  links=(Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),),
                  od_pairs=(ODPair(1, 3, 5.0, 5.0),))
    issues = validate(net)
    assert issues
    assert any("unreachable" in message for _, message in issues)
    assert any("1->3" in entity for entity, _ in issues)


def test_validate_duplicate_link_id():
    net = Network(nodes=(1, 2),
                  links=(Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
                         Link(1, 1, 2, 2.0, 2.0, 10.0, 20.0)),
                  od_pairs=(ODPair(1, 2, 5.0, 5.0),))
    assert any("duplicate link id" in message for _, message in validate(net))


def test_validate_allows_parallel_links():
    net = Network(nodes=(1, 2),
                  links=(Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
                         Link(2, 1, 2, 2.0, 2.0, 10.0, 20.0)),
                  od_pairs=(ODPair(1, 2, 5.0, 5.0),))
    assert not validate(net)


def test_load_network_raises_every_issue(tmp_path, params):
    net = tmp_path / "net.tntp"
    net.write_text("1 2 10 1 1\n2 2 10 1 1\n", encoding="utf-8")
    trips = tmp_path / "trips.tntp"
    trips.write_text("Origin 1\n 3 : 5;\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_network(str(net), str(trips), params)
    assert info.value.issues == [("link 2", "self loop"), ("od 1->3", "unknown node(s) [3]")]
    assert str(info.value) == "invalid network:\nlink 2: self loop\nod 1->3: unknown node(s) [3]"

def test_write_load_round_trip_is_bit_identical(tmp_path, params):
    net = nguyen_network(params, seed=1)
    net_file, trips_file = tmp_path / "n.tntp", tmp_path / "t.tntp"
    write_network(net, net_file, trips_file)
    first_net = net_file.read_text(encoding="utf-8")
    first_trips = trips_file.read_text(encoding="utf-8")

    loaded = load_network(str(net_file), str(trips_file), params)
    assert write_net_text(loaded) == first_net
    assert write_trips_text(loaded) == first_trips
    assert loaded.links == net.links
    assert loaded.od_pairs == net.od_pairs
    assert loaded.nodes == net.nodes


def test_reachability_search():
    net = Network(nodes=(1, 2, 3),
                  links=(Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),),
                  od_pairs=())
    assert net.reachable_from(1) == {1, 2}
    assert net.reachable_from(3) == {3}


def test_validate_reports_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    net = Network(nodes=(1, 2),
                  links=(Link(1, 1, 2, nan, 1.0, 10.0, 20.0),
                         Link(2, 1, 2, 1.0, inf, 10.0, 20.0),
                         Link(3, 1, 2, 1.0, 1.0, inf, nan)),
                  od_pairs=(ODPair(1, 2, nan, 5.0), ODPair(2, 1, 5.0, inf)))
    messages = validate(net)
    assert ("link 1", "nonpositive or non-finite length nan") in messages
    assert ("link 2", "nonpositive or non-finite free-flow time inf") in messages
    assert ("link 3", "nonpositive or non-finite rv capacity inf") in messages
    assert ("link 3", "nonpositive or non-finite av capacity nan") in messages
    assert ("od 1->2", "negative or non-finite demand (nan, 5.0)") in messages
    assert ("od 2->1", "negative or non-finite demand (5.0, inf)") in messages
