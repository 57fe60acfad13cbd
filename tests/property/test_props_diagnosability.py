"""Property-based tests: verifier vs brute-force oracle agreement.

The twin-plant verifier (:mod:`repro.diagnosability.verifier`) and the
pair-enumeration oracle (:mod:`repro.diagnosability.bruteforce`)
implement the same diagnosability semantics with disjoint machinery.
On every generated net where the oracle terminates, their verdicts must
match, and every non-diagnosable verdict must be backed by a witness
pair that replays on the original net from scratch.
"""

import pytest
from hypothesis import (Phase, example, given, reject, settings,
                        strategies as st)

from repro.diagnosability import (VERDICT_NON_DIAGNOSABLE,
                                  DiagnosabilitySpec, analyze_class,
                                  bruteforce_class, confirm_witness)
from repro.errors import MarkingBoundExceeded
from repro.petri.generators import (FaultSpec, TelecomSpec, fault_mask,
                                    telecom_net)
from repro.petri.marking import is_safe

specs = st.builds(
    TelecomSpec,
    peers=st.integers(min_value=1, max_value=3),
    ring_length=st.integers(min_value=2, max_value=3),
    links_per_pair=st.integers(min_value=0, max_value=1),
    branching=st.sampled_from([0.0, 0.4]),
    topology=st.sampled_from(["chain", "ring", "mesh"]),
    seed=st.integers(min_value=0, max_value=5_000))

masks = st.builds(
    FaultSpec,
    faults=st.integers(min_value=1, max_value=2),
    placement=st.sampled_from(["early", "late", "spread", "random"]),
    observable_ratio=st.sampled_from([1.0, 0.6, 0.3]),
    observable_faults=st.booleans(),
    seed=st.integers(min_value=0, max_value=5_000))

#: Small enough that both searches terminate on every generated net.
MAX_STATES = 4_000
MAX_PAIRS = 4_000


def build_model(spec, mask):
    petri = telecom_net(spec)
    if mask.faults >= len(petri.net.transitions):
        # Tiny nets cannot host the requested fault count; shrink it
        # rather than discarding the example (faults=1 always fits).
        mask = FaultSpec(faults=1, placement=mask.placement,
                         observable_ratio=mask.observable_ratio,
                         observable_faults=mask.observable_faults,
                         seed=mask.seed)
    faults, observable = fault_mask(petri, mask)
    return petri, DiagnosabilitySpec.single(faults, observable)


class TestVerifierVsOracle:
    @settings(max_examples=40, deadline=None)
    @given(specs, masks)
    def test_verdicts_agree_where_oracle_concludes(self, spec, mask):
        from repro.diagnosability.verifier import VerifierLimits
        petri, dspec = build_model(spec, mask)
        verdict = analyze_class(petri, dspec, "fault",
                                limits=VerifierLimits(max_states=MAX_STATES))
        oracle = bruteforce_class(petri, dspec, "fault", max_pairs=MAX_PAIRS)
        if oracle.conclusive and not verdict.truncated:
            assert verdict.verdict == oracle.verdict

    @settings(max_examples=40, deadline=None)
    @given(specs, masks)
    def test_non_diagnosable_verdicts_carry_replayable_witnesses(
            self, spec, mask):
        from repro.diagnosability.verifier import VerifierLimits
        petri, dspec = build_model(spec, mask)
        verdict = analyze_class(petri, dspec, "fault",
                                limits=VerifierLimits(max_states=MAX_STATES))
        if verdict.verdict == VERDICT_NON_DIAGNOSABLE:
            assert verdict.witness is not None
            assert confirm_witness(petri, dspec, verdict.witness)

    @settings(max_examples=25, deadline=None)
    @given(specs, masks)
    def test_twin_plants_of_generated_nets_stay_safe(self, spec, mask):
        from repro.diagnosability import twin_for_class
        petri, dspec = build_model(spec, mask)
        twin = twin_for_class(petri, dspec, "fault")
        try:
            assert is_safe(twin.petri, max_markings=30_000)
        except MarkingBoundExceeded:
            # The exploration was cut off: the draw says nothing about
            # safety.  Any other PetriNetError is a failed exploration.
            reject()

    @settings(phases=[Phase.explicit], deadline=None)
    @example(TelecomSpec(peers=3, ring_length=3, links_per_pair=1,
                         branching=0.4, topology="ring", seed=116),
             FaultSpec(faults=1, placement="late", observable_ratio=0.3,
                       seed=2))
    @given(specs, masks)
    def test_twin_plant_past_the_marking_bound_is_its_own_error(self, spec, mask):
        """The rare draw whose twin plant passes 30 000 markings."""
        from repro.diagnosability import twin_for_class
        petri, dspec = build_model(spec, mask)
        twin = twin_for_class(petri, dspec, "fault")
        with pytest.raises(MarkingBoundExceeded, match="bound of 30000"):
            is_safe(twin.petri, max_markings=30_000)

    @settings(max_examples=30, deadline=None)
    @given(specs, masks)
    def test_fault_masks_are_reproducible(self, spec, mask):
        petri, dspec = build_model(spec, mask)
        again, dspec_again = build_model(spec, mask)
        assert dspec == dspec_again
