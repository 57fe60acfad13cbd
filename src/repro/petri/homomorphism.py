"""Checks for net homomorphisms and branching-process axioms (Defs. 3-4).

These verifiers are deliberately independent of the unfolder's
bookkeeping: property tests run them against every constructed prefix to
certify the Definition-4 axioms hold.
"""

from __future__ import annotations

from repro.petri.occurrence import BranchingProcess
from repro.petri.relations import NodeRelations


def verify_branching_process(bp: BranchingProcess) -> list[str]:
    """Return a list of violated axioms (empty = valid branching process).

    Checked, following Definitions 3 and 4:

    1. the mapping preserves peers, alarms and node types, and restricts
       to a bijection on presets/postsets of each event;
    2. the roots are exactly the marked places of the Petri net;
    3. every condition has at most one producer (in-degree <= 1);
    4. no event has two conflicting parents;
    5. no two distinct events share both preset and Petri transition;
    6. the process is acyclic with finite pasts (guaranteed by
       construction, re-checked via the depth function).
    """
    net = bp.petri.net
    problems: list[str] = []

    # (1) homomorphism conditions.
    for event in bp.events.values():
        if event.transition not in net.transitions:
            problems.append(f"event {event.eid} maps to non-transition")
            continue
        expected_preset_places = sorted(net.parents(event.transition))
        got_preset_places = sorted(bp.conditions[c].place for c in event.preset)
        if expected_preset_places != got_preset_places:
            problems.append(
                f"event {event.eid}: preset places {got_preset_places} != "
                f"Petri preset {expected_preset_places}")
        expected_postset_places = sorted(net.children(event.transition))
        got_postset_places = sorted(bp.conditions[c].place for c in bp.postset[event.eid])
        if expected_postset_places != got_postset_places:
            problems.append(
                f"event {event.eid}: postset places {got_postset_places} != "
                f"Petri postset {expected_postset_places}")

    # (2) roots = marked places.
    root_places = sorted(bp.conditions[c].place for c in bp.roots)
    if root_places != sorted(bp.petri.marking):
        problems.append(f"roots map to {root_places}, marking is {sorted(bp.petri.marking)}")

    # (3) in-degree of conditions is <= 1 by construction (single
    # ``producer`` field); check producers exist.
    for condition in bp.conditions.values():
        if condition.producer is not None and condition.producer not in bp.events:
            problems.append(f"condition {condition.cid} has unknown producer")

    # (4) no event has two conflicting parents.
    relations = NodeRelations(bp)
    for event in bp.events.values():
        preset = event.preset
        for i, u in enumerate(preset):
            for v in preset[i + 1:]:
                if relations.in_conflict(u, v):
                    problems.append(
                        f"event {event.eid} has conflicting parents {u}, {v}")

    # (5) event uniqueness: same preset + same image forbidden.
    seen: set[tuple[str, frozenset[str]]] = set()
    for event in bp.events.values():
        key = (event.transition, frozenset(event.preset))
        if key in seen:
            problems.append(f"duplicate event for {key}")
        seen.add(key)

    # (6) acyclicity / finite pasts: depths must strictly increase along
    # producer edges.
    for event in bp.events.values():
        for cid in event.preset:
            if bp.conditions[cid].depth >= event.depth:
                problems.append(f"depth not increasing into event {event.eid}")
    return problems
