"""ADR signal detection over longitudinal observational databases.

Four ranking algorithms (ROR05, the two OE-ratio filter variants, MUTARA
and HUNT) over an indexed event store, with precision@k / MAP evaluation
against a known-ADR dictionary and a seeded synthetic data generator.
Every algorithm scores one drug from its qualifying episodes, the
(patient index, index day) arrays of `Database.episodes`;
`lodsig.cli.score_drug` ranks a drug under any of the seven algorithm ids.

The generator (`synthgen` and its `streams`) is imported on first use of
one of its names, so a process that only scores never compiles it.
"""

from importlib import import_module as _import_module

from .evaluation import (AdrDictionary, AdrEntry, EvalReport,
                         compare_algorithms, evaluate, map_score,
                         precision_k, truth_vector)
from .ranking import RankedEntry, RankedSignalList
from .srs import ror, ror05
from .store import (Database, Gender, StudyConfig, cohort_summary,
                    load_database)
from .temporal_ic import Period, ic, ic_credibility_bounds, ic_delta_from

# a generator name: the submodule that is or holds it, imported on first
# access (PEP 562)
_LAZY = {"synthgen": "synthgen", "streams": "streams",
         **dict.fromkeys(("DrugModel", "Injection", "SynthConfig",
                          "build_database", "generate", "realized_truth"),
                         "synthgen")}

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | set(_LAZY))
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
