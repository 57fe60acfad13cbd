"""Diagnosis of asynchronous discrete event systems (Sections 2 and 4).

The diagnosis problem: given a Petri net ``(N, M)`` distributed over
peers and an alarm sequence ``A`` received by a supervisor (only
per-peer order is trustworthy), compute all configurations of
``Unfold(N, M)`` whose events explain ``A``.

Three independent solvers are provided and cross-checked:

* :mod:`repro.diagnosis.bruteforce` -- direct search over the unfolding
  (ground truth for small inputs);
* :mod:`repro.diagnosis.dedicated` -- the dedicated algorithm of
  Benveniste-Fabre-Haar-Jard [8]: product with per-peer alarm nets,
  complete unfolding, bottom-up extraction;
* :mod:`repro.diagnosis.engine` -- the paper's contribution: the
  Section-4.1/4.2 dDatalog encoding evaluated with dQSQ (or centralized
  QSQ / bottom-up for the ablations).
"""

from repro.diagnosis.alarms import Alarm, AlarmSequence
from repro.diagnosis.problem import DiagnosisProblem, DiagnosisSet, explains
from repro.diagnosis.bruteforce import bruteforce_diagnosis
from repro.diagnosis.dedicated import DedicatedDiagnoser, DedicatedResult
from repro.diagnosis.encoding import UnfoldingEncoder, node_id_of_term
from repro.diagnosis.supervisor import SupervisorEncoder, SUPERVISOR
from repro.diagnosis.engine import (DatalogDiagnosisEngine,
                                    DatalogDiagnosisResult, EvaluationMode)
from repro.diagnosis.patterns import AlarmPattern, ObservationSpec
from repro.diagnosis.report import (decode_event, diagnosis_to_dot,
                                    render_diagnosis_report)
from repro.diagnosis.online import (OnlineDiagnoser, OnlineResult,
                                    online_diagnosis_result)
from repro.diagnosis.problem import explains_strict

__all__ = [
    "Alarm", "AlarmSequence",
    "DiagnosisProblem", "DiagnosisSet", "explains",
    "bruteforce_diagnosis",
    "DedicatedDiagnoser", "DedicatedResult",
    "UnfoldingEncoder", "node_id_of_term",
    "SupervisorEncoder", "SUPERVISOR",
    "DatalogDiagnosisEngine", "DatalogDiagnosisResult", "EvaluationMode",
    "AlarmPattern", "ObservationSpec",
    "decode_event", "diagnosis_to_dot", "render_diagnosis_report",
    "OnlineDiagnoser", "OnlineResult", "online_diagnosis_result",
    "explains_strict",
]
