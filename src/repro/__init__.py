"""repro: diagnosis of asynchronous discrete event systems with Datalog.

A reproduction of Abiteboul, Abrams, Haar and Milo, "Diagnosis of
Asynchronous Discrete Event Systems: Datalog to the Rescue!" (PODS
2005).  The public API re-exports the main entry points of each layer;
see the subpackages for the full surface:

* :mod:`repro.datalog` -- Datalog with function symbols, semi-naive, QSQ;
* :mod:`repro.petri` -- safe Petri nets, unfoldings, products;
* :mod:`repro.distributed` -- dDatalog, dQSQ, the simulated network;
* :mod:`repro.diagnosis` -- the diagnosis problem and its three solvers;
* :mod:`repro.workloads` -- synthetic telecom workloads;
* :mod:`repro.experiments` -- the EXPERIMENTS.md harness.
"""

from repro.api import DiagnosisMethod, DiagnosisOutcome, RunConfig, diagnose
from repro.datalog import (Program, Query, parse_atom, parse_program,
                           qsq_evaluate, qsq_rewrite)
from repro.diagnosis import (Alarm, AlarmSequence, DatalogDiagnosisEngine,
                             DedicatedDiagnoser, EvaluationMode,
                             bruteforce_diagnosis)
from repro.distributed import (DDatalogProgram, DqsqEngine, FaultPlan,
                               NetworkOptions, Transport, TransportJob,
                               TransportOutcome, TransportRuntime,
                               resolve_transport)
from repro.petri import PetriNet, unfold

__version__ = "1.1.0"

__all__ = [
    "diagnose", "DiagnosisMethod", "DiagnosisOutcome", "RunConfig",
    "Program", "Query", "parse_atom", "parse_program",
    "qsq_evaluate", "qsq_rewrite",
    "Alarm", "AlarmSequence", "DatalogDiagnosisEngine", "EvaluationMode",
    "DedicatedDiagnoser", "bruteforce_diagnosis",
    "DDatalogProgram", "DqsqEngine", "FaultPlan", "NetworkOptions",
    "Transport", "TransportJob", "TransportOutcome", "TransportRuntime",
    "resolve_transport",
    "PetriNet", "unfold",
    "__version__",
]
