"""Property-based tests: every generated diagnosis program lints clean.

The E5 workload builds a random safe Petri net, simulates alarms and
encodes the diagnosis problem as a dDatalog program (Section 4).  The
encoder is supposed to emit only well-formed programs: safe rules,
consistent arities per relation, fully located atoms at known peers.
The static analyzer must therefore report zero errors on every one of
them -- an analyzer error here is either an encoder bug or an analyzer
false positive, and both matter.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog.analysis import analyze
from repro.datalog.rule import Query
from repro.diagnosis.alarms import AlarmSequence
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import simulate_alarms

seeds = st.integers(min_value=0, max_value=200)
step_counts = st.integers(min_value=1, max_value=4)


class TestEncodedProgramsLintClean:
    @settings(max_examples=15, deadline=None)
    @given(seeds, step_counts)
    def test_random_diagnosis_program_has_no_analyzer_errors(self, seed, steps):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=steps, seed=seed)
        encoder = SupervisorEncoder(petri, alarms)
        program = encoder.program()
        report = analyze(program.program, Query(encoder.query_atom()),
                         known_peers=set(program.peers())
                         | {encoder.supervisor})
        assert report.ok, report.render()

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_no_locality_findings_on_encoded_programs(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=3, seed=seed)
        encoder = SupervisorEncoder(petri, alarms)
        program = encoder.program()
        report = analyze(program.program,
                         known_peers=set(program.peers())
                         | {encoder.supervisor})
        bad = {"DD401", "DD402", "DD403"} & {d.code for d in report.diagnostics}
        assert not bad, report.render()
