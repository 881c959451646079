"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Construction algorithms raise the more specific
subclasses below when their preconditions (documented in the paper) are
violated, e.g. asking for a dominating tree of an out-of-range radius or
requesting ``k`` disjoint paths between nodes that are not ``k``-connected
when the caller demanded feasibility.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Structural problem with a graph (unknown node, self loop, ...)."""


class NodeNotFound(GraphError):
    """A node id outside ``range(n)`` was passed to a graph operation."""

    def __init__(self, node: int, n: int) -> None:
        super().__init__(f"node {node!r} not in graph with {n} nodes")
        self.node = node
        self.n = n


class NotASubgraphError(GraphError):
    """An operation required ``H`` to be a sub-graph of ``G`` and it is not."""


class ParameterError(ReproError):
    """An algorithm parameter is outside its documented valid range."""


class InfeasibleError(ReproError):
    """A requested combinatorial object does not exist.

    Raised e.g. when ``k`` internally-disjoint paths between ``s`` and ``t``
    are requested with ``strict=True`` but the pair is not ``k``-connected
    (the paper writes :math:`d^k_G(s,t) = \\infty` for this situation).
    """


class ProtocolError(ReproError):
    """A distributed or shared-memory protocol was driven in an unsupported
    way (e.g. a nested seqlock row write)."""


class TornReadError(ReproError):
    """A seqlock-protected shared-memory read could not stabilize.

    Concurrent readers retry while a writer holds a row (odd version) or
    moved it mid-read; exhausting the retry budget means the writer is
    gone — in practice a worker died mid-write, leaving the row version
    permanently odd.
    """
