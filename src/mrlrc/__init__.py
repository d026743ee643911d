"""Matroids of maximally recoverable LRCs: uniform minors and field-size bounds."""

from .bounds import (
    BoundsReport,
    compute_bounds,
    eq1_size,
    eq2_size,
    eq3_size,
    eq4_size,
    gopi_alpha,
    largest_uniform_size,
    q_lower_gopalan,
    sweep,
    threshold_report,
)
from .codes import (
    GenMatrix,
    code_to_matroid,
    is_mds_code,
    is_mr_lrc,
    matrix_from_rows,
    read_matrix,
    search_mr_code,
    shorten_then_puncture,
    write_matrix,
)
from .errors import ParameterError, SizeRefusal
from .gf import Field, FieldSpec, parse_field
from .matroid import (
    Matroid,
    MinorView,
    TableMatroid,
    check_axioms,
    flats,
    is_uniform,
    minor,
    uniform_matroid,
)
from .minors import (
    MinorWitness,
    oracle_max_uniform,
    oracle_max_uniform_all,
    verify_witness,
    witness_eq1,
    witness_eq2,
    witness_eq3,
    witness_eq4,
)
from .mr import (
    MrMatroid,
    MrParams,
    make_mr,
    make_params,
    mr_flats,
    parse_params,
    valid_param_triples,
)

__version__ = "0.1.0"
