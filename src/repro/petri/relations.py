"""Causality, conflict and concurrency on branching processes (Definition 4).

``NodeRelations`` computes the three relations directly from the
definitions, independently of the unfolder's incremental bookkeeping --
the two implementations cross-check each other in the property tests.
"""

from __future__ import annotations

from repro.petri.occurrence import BranchingProcess


class NodeRelations:
    """Query object for the causal (<=), conflict (#) and concurrency (||)
    relations over the nodes of a branching process."""

    def __init__(self, bp: BranchingProcess) -> None:
        self.bp = bp
        self._ancestor_events: dict[str, frozenset[str]] = {}
        self._compute_ancestors()

    def _compute_ancestors(self) -> None:
        """For each node, the set of events strictly or reflexively below it."""
        bp = self.bp
        memo = self._ancestor_events

        # Conditions and events form a DAG; process in creation order,
        # which is topological (producers exist before their output).
        for cid in bp.roots:
            memo[cid] = frozenset()
        pending_events = sorted(bp.events.values(), key=lambda e: (e.depth, e.eid))
        for event in pending_events:
            below: set[str] = {event.eid}
            for cid in event.preset:
                below |= memo[cid]
            memo[event.eid] = frozenset(below)
            for cid in bp.postset[event.eid]:
                memo[cid] = memo[event.eid]

    def causal_leq(self, u: str, v: str) -> bool:
        """u <= v: u equals v or a path leads from u to v."""
        if u == v:
            return True
        if u in self.bp.events:
            return u in self._ancestor_events[v]
        # u is a condition: u <= v iff some event consuming u is <= v,
        # or v is a postset condition... handled uniformly: u <= v iff
        # u's producing event chain reaches v -- i.e. v's ancestors
        # include a consumer of u, or v is u itself (handled above).
        consumers = self.bp.consumers.get(u, ())
        v_ancestors = self._ancestor_events[v]
        return any(e in v_ancestors for e in consumers)

    def in_conflict(self, u: str, v: str) -> bool:
        """u # v: two distinct ancestor events share a parent condition."""
        if u == v:
            return False
        left = self._with_self(u)
        right = self._with_self(v)
        for e1 in left:
            preset1 = set(self.bp.events[e1].preset)
            for e2 in right:
                if e1 != e2 and preset1 & set(self.bp.events[e2].preset):
                    return True
        return False

    def concurrent(self, u: str, v: str) -> bool:
        """u || v: neither causally related nor in conflict (Definition 4)."""
        if u == v:
            return False
        return (not self.causal_leq(u, v) and not self.causal_leq(v, u)
                and not self.in_conflict(u, v))

    def _with_self(self, node: str) -> frozenset[str]:
        return self._ancestor_events[node]
