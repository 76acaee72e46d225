"""networkx views of a DDG, for tests that use networkx as an oracle."""

import networkx as nx


def to_networkx(ddg, machine=None) -> nx.MultiDiGraph:
    """Export to a networkx multigraph (parallel edges preserved)."""
    graph = nx.MultiDiGraph(name=ddg.name)
    for op in ddg.ops:
        attrs = {"op_class": op.op_class}
        if machine is not None:
            attrs["latency"] = machine.latency(op.op_class)
        graph.add_node(op.index, name=op.name, **attrs)
    for dep in ddg.deps:
        graph.add_edge(dep.src, dep.dst, distance=dep.distance,
                       kind=dep.kind)
    return graph
