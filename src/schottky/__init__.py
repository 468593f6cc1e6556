"""Exact Schottky groups over archimedean and non-archimedean places."""

from .exactnum import GQ, GaussianRational
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ExactZero,
    Place,
    abs_value,
    hybrid_section_eval,
    trivial_seminorm,
)
from .moebius import (
    Disc,
    KoebeTriple,
    Moebius,
    NotLoxodromic,
    ProjPoint,
    cross_ratio,
    is_loxodromic,
    koebe_to_matrix,
    matrix_to_koebe,
    moebius,
)
from .figures import (
    ReducedWord,
    SchottkyFigure,
    SchottkyPoint,
    ford_figure,
    is_in_SB,
    is_schottky,
    limit_sample,
    normalized_figure,
    schottky_point,
    word_disc,
)
from .skeleton import (
    MetricGraph,
    MetricLength,
    MetricTree,
    build_tree,
    cv_datum,
    glue_skeleton,
    translation_length,
)
from .outer import NielsenWord, apply_word, nielsen_apply, stabilizer_search

__version__ = "0.1.0"
