"""Schensted insertion, Knuth equivalence, and Greene invariants for
classical words and for timed words (run-length words with exact rational
durations), with min-cost flow oracles validating the fast paths."""

from .classical import (
    Tableau,
    Word,
    insertion_steps,
    insertion_tableau,
    is_row,
    knuth_equivalent,
    knuth_equivalent_bfs,
    knuth_neighbors,
    reading_word,
    row_insert,
    shape,
    tableau_insert,
)
from .errors import (
    BudgetExceededError,
    InvalidMoveError,
    InvalidTableauError,
    NotARowError,
    NotationError,
    OracleSizeError,
)
from .greene import (
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
)
from .notation import (
    format_duration,
    format_timed_tableau,
    format_timed_word,
    format_word,
    move_from_dict,
    move_to_dict,
    parse_duration,
    parse_timed_word,
    parse_word,
    parse_word_or_timed,
    tableau_from_dict,
    tableau_to_dict,
    timed_tableau_from_dict,
    timed_tableau_to_dict,
    timed_word_from_dict,
    timed_word_to_dict,
)
from .render import PALETTE, letter_color, render_svg
from .timed_knuth import (
    TimedKnuthMove,
    apply_move,
    check_move_invariance,
    invert_move,
    timed_knuth_equivalent,
)
from .timed_words import (
    Run,
    TimedWord,
    TimeSample,
    as_duration,
    concat,
    embed_classical,
    is_timed_row,
    letter_durations,
    normalize,
    restrict,
    scale,
    subword,
    value_at,
)
from .timed_tableaux import (
    TimedTableau,
    embed_classical_tableau,
    timed_insertion_steps,
    timed_insertion_tableau,
    timed_reading_word,
    timed_row_insert,
    timed_row_insert_word,
    timed_shape,
    timed_tableau_insert,
)

__version__ = "0.1.0"
