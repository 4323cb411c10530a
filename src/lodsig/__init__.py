"""ADR signal detection over longitudinal observational databases.

Four ranking algorithms (ROR05, the two OE-ratio filter variants, MUTARA
and HUNT) over an indexed event store, with precision@k / MAP evaluation
against a known-ADR dictionary and a seeded synthetic data generator.
Every algorithm scores one drug from its qualifying episodes, the
(patient index, index day) arrays of `Database.episodes`.
"""

from .evaluation import (AdrDictionary, AdrEntry, EvalReport,
                         compare_algorithms, evaluate, map_score,
                         precision_k, truth_vector)
from .mutara import rank_hunt, rank_mutara
from .ranking import RankedEntry, RankedSignalList
from .srs import ContingencyTable, build_srs_counts, rank_ror, ror, ror05
from .store import (Database, Gender, StudyConfig, cohort_summary,
                    load_database)
from .synthgen import DrugModel, Injection, SynthConfig, build_database, \
    generate, realized_truth
from .temporal_ic import (IcResult, Period, PeriodCounts, expected_count, ic,
                          ic_credibility_bounds, ic_delta, ic_delta_from,
                          rank_oe)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
